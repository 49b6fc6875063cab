"""3D two-label MRF classification of infarct versus normal myocardium.

Each masked voxel carries data costs derived from the fitted intensity
mixture: the negative log of the bright-class (Gaussian) value for label 1
and of the dark-class (shifted Rayleigh) value for label 0, with the costs
clamped to zero beyond the respective component modes (a voxel brighter than
the Gaussian mode must be infarct, one darker than the Rayleigh mode must be
normal myocardium). Neighboring voxels that receive different labels pay an
interaction penalty that decays with their intensity difference. With two
labels the energy is minimized exactly by a single s/t minimum cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMaskError, ParameterError
from .maxflow import MaxFlowGraph
from .rician import RicianMixtureParams

PROB_FLOOR = 1e-12


@dataclass
class MyocardiumVolume:
    """Masked voxel grid restricted to the myocardium.

    ``intensity`` and ``mask`` are (n_slices, rows, cols); ``spacing_mm`` is
    (row, col, through-plane) with through-plane being the slice-center
    distance (thickness + gap).
    """

    intensity: np.ndarray
    mask: np.ndarray
    spacing_mm: tuple

    def __post_init__(self):
        self.intensity = np.asarray(self.intensity, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.intensity.ndim != 3 or self.intensity.shape != self.mask.shape:
            raise ValueError("intensity and mask must be matching 3D arrays")
        if len(self.spacing_mm) != 3 or any(s <= 0 for s in self.spacing_mm):
            raise ValueError("spacing_mm must be three positive lengths")
        if not np.all(np.isfinite(self.intensity[self.mask])):
            raise ValueError("masked intensities must be finite")


@dataclass(frozen=True)
class Labeling:
    """Per-voxel {0, 1} assignment (1 = infarct), defined on the mask."""

    labels: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.uint8)
        mask = np.asarray(self.mask, dtype=bool)
        if labels.shape != mask.shape:
            raise ValueError("labels and mask shapes differ")
        if np.any(labels[~mask]):
            raise ValueError("labels outside the mask must be zero")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mask", mask)

    def infarct_mask(self) -> np.ndarray:
        return (self.labels == 1) & self.mask


@dataclass
class GraphCutConfig:
    lambda_: float = 1.0
    sigma: float | None = None   # None -> mu - (sigma_r - a) from the fit

    def __post_init__(self):
        if not 0 < self.lambda_ < np.inf:
            raise ParameterError("lambda must be positive and finite")
        if self.sigma is not None and not 0 < self.sigma < np.inf:
            raise ParameterError("sigma must be positive and finite")

    def resolved_sigma(self, params: RicianMixtureParams) -> float:
        if self.sigma is not None:
            return self.sigma
        sigma = params.mu - params.rayleigh_mode
        if sigma <= 0:
            raise ParameterError("component modes do not straddle a positive range")
        return sigma


def _neg_log(values: np.ndarray) -> np.ndarray:
    return -np.log(np.maximum(values, PROB_FLOOR))


def data_cost_infarct(i_p, params: RicianMixtureParams):
    """Cost of labeling intensity ``i_p`` as infarct (label 1)."""
    from .rician import gaussian_term

    i_p = np.asarray(i_p, dtype=float)
    cost = _neg_log(gaussian_term(i_p, params))
    out = np.where(i_p > params.mu, 0.0, cost)
    return out if out.ndim else float(out)


def data_cost_normal(i_p, params: RicianMixtureParams):
    """Cost of labeling intensity ``i_p`` as normal myocardium (label 0)."""
    from .rician import rayleigh_shifted

    i_p = np.asarray(i_p, dtype=float)
    cost = _neg_log(rayleigh_shifted(i_p, params))
    out = np.where(i_p < params.rayleigh_mode, 0.0, cost)
    return out if out.ndim else float(out)


def interaction_potential(i_p, i_q, sigma: float, w_dist: float = 1.0):
    """Penalty for assigning different labels to neighbors p and q."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    diff = np.asarray(i_p, dtype=float) - np.asarray(i_q, dtype=float)
    out = w_dist * np.exp(-(diff ** 2) / (2.0 * sigma ** 2))
    return out if out.ndim else float(out)


def _network(volume: MyocardiumVolume, params: RicianMixtureParams, config: GraphCutConfig):
    """The MRF over the masked voxels as arrays: ``(d0, d1, p, q, caps)``.

    ``d0``/``d1`` are each masked voxel's costs of labels 0/1, in mask (flat)
    order, which is also the node numbering. ``p``/``q`` are the node ids of
    every 6-connected pair, through-plane pairs first, then row, then column
    pairs, each in flat order; ``caps`` is the penalty the pair pays when its
    labels differ. Distance weights normalize the in-plane row spacing to 1,
    so through-plane links are down-weighted by their larger distance.
    """
    sigma = config.resolved_sigma(params)
    mask = volume.mask
    vals = volume.intensity[mask]
    node = np.full(mask.shape, -1, dtype=np.int64)
    node[mask] = np.arange(vals.size)
    d_row, d_col, d_thr = volume.spacing_mm
    links = []
    for axis, dist in ((0, d_thr), (1, d_row), (2, d_col)):
        a = node[(slice(None),) * axis + (slice(None, -1),)]
        b = node[(slice(None),) * axis + (slice(1, None),)]
        both = (a >= 0) & (b >= 0)
        p, q = a[both], b[both]
        links.append((p, q, interaction_potential(vals[p], vals[q], sigma, d_row / dist)))
    p, q, caps = (np.concatenate(arrays) for arrays in zip(*links))
    return data_cost_normal(vals, params), data_cost_infarct(vals, params), p, q, caps


def energy(
    volume: MyocardiumVolume,
    labeling: Labeling,
    params: RicianMixtureParams,
    config: GraphCutConfig | None = None,
) -> float:
    """Total labeling energy: weighted data costs plus boundary penalties."""
    config = config or GraphCutConfig()
    d0, d1, p, q, caps = _network(volume, params, config)
    lab = labeling.labels[volume.mask]
    data = config.lambda_ * float(np.sum(np.where(lab == 1, d1, d0)))
    return data + float(caps[lab[p] != lab[q]].sum())


def classify(
    volume: MyocardiumVolume,
    params: RicianMixtureParams,
    config: GraphCutConfig | None = None,
) -> Labeling:
    """Exact minimum-energy labeling via a single s/t minimum cut.

    Ties are broken toward label 0 (the minimal source side of the cut).
    """
    config = config or GraphCutConfig()
    mask = volume.mask
    n = int(mask.sum())
    if n == 0:
        raise EmptyMaskError("myocardium mask is empty")
    d0, d1, p, q, caps = _network(volume, params, config)

    # Reduced terminal links: only the cost difference matters for the cut.
    # Arcs go in node order, source links for net > 0 and sink links for
    # net < 0, then the live n-links in pair order. The solve's float rounding
    # depends on this order (README, design decisions), so it stays fixed.
    source, sink = n, n + 1   # MaxFlowGraph's terminal ids
    net = config.lambda_ * (d0 - d1)
    t = np.flatnonzero(net)
    to_sink = net[t] < 0
    live = caps > 0
    graph = MaxFlowGraph(
        n,
        tails=np.concatenate([np.where(to_sink, t, source), p[live]]),
        heads=np.concatenate([np.where(to_sink, sink, t), q[live]]),
        caps=np.concatenate([np.abs(net[t]), caps[live]]),
        rev_caps=np.concatenate([np.zeros(t.size), caps[live]]),
    )
    _, source_side = graph.solve()
    labels = np.zeros(mask.shape, dtype=np.uint8)
    labels[mask] = source_side
    return Labeling(labels=labels, mask=mask)
