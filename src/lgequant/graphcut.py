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

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import POSITIVE, EmptyMaskError, ParameterError, check_number
from .maxflow import MaxFlowGraph
from .raster import canvas
from .rician import RicianMixtureParams, gaussian_term, rayleigh_shifted

PROB_FLOOR = 1e-12
# The largest data-term weight. A data cost lies within [-log(float max), -log(PROB_FLOOR)],
# so with lambda at most this each t-weight, and the max-flow's sums of them, stay finite.
MAX_LAMBDA = 1e6
MAX_SPACING_RATIO = 1e6     # likewise for the ratio of two voxel spacings, an n-link's weight

logger = logging.getLogger(__name__)


@dataclass
class MyocardiumVolume:
    """Masked voxel grid restricted to the myocardium.

    ``intensity`` and ``mask`` are (n_slices, rows, cols); ``spacing_mm`` is
    (row, col, through-plane) with through-plane being the slice-center
    distance (thickness + gap). The stages read both through ``box``, the
    mask's :func:`~lgequant.raster.canvas`, and ``intensity`` only on the mask.
    """

    intensity: np.ndarray
    mask: np.ndarray
    spacing_mm: tuple
    box: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.intensity = np.asarray(self.intensity, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.intensity.ndim != 3 or self.intensity.shape != self.mask.shape:
            raise ParameterError("intensity and mask must be matching 3D arrays")
        s = self.spacing_mm
        if not isinstance(s, (tuple, list, np.ndarray)) or len(s) != 3:
            raise ParameterError(f"spacing_mm must be three lengths, got {s!r}")
        for v in s:
            check_number("spacing_mm", v)
        if not all(0 < v < np.inf for v in s) or max(s) > MAX_SPACING_RATIO * min(s):
            raise ParameterError(f"spacing_mm must be three positive lengths, none more than "
                                 f"{MAX_SPACING_RATIO:g} times another, got {s}")
        self.box = canvas(self.mask)
        if not np.all(np.isfinite(self.intensity[self.box][self.mask[self.box]])):
            raise ParameterError("masked intensities must be finite")

    def reach(self, labeling: "Labeling") -> tuple:
        """``box``, or the whole grid when ``labeling`` has infarct outside it."""
        inside = np.count_nonzero(labeling.labels[self.box])
        return self.box if inside == np.count_nonzero(labeling.labels) else (slice(None),) * 3


@dataclass(frozen=True)
class Labeling:
    """Per-voxel {0, 1} assignment (1 = infarct), defined on the mask."""

    labels: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        other = labels > 1 if labels.dtype == np.uint8 else (labels != 0) & (labels != 1)
        if other.any():
            raise ParameterError(f"labels must be 0 or 1, got {labels[other][0].item()!r}")
        labels = labels.astype(np.uint8, copy=False)
        mask = np.asarray(self.mask, dtype=bool)
        if labels.shape != mask.shape:
            raise ParameterError("labels and mask shapes differ")
        if (labels > mask).any():
            raise ParameterError("labels outside the mask must be zero")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mask", mask)

    def infarct_mask(self) -> np.ndarray:
        return (self.labels == 1) & self.mask


def check_lambda(lambda_) -> None:
    """Raise ParameterError unless the data-term weight is a number in (0, MAX_LAMBDA]."""
    check_number("lambda", lambda_, **POSITIVE)
    if lambda_ > MAX_LAMBDA:
        raise ParameterError(f"lambda must be at most {MAX_LAMBDA:g}, got {lambda_}")


def interaction_sigma(params: RicianMixtureParams) -> float:
    """The interaction sigma: the gap between the fitted component modes."""
    sigma = params.mu - params.rayleigh_mode
    if sigma <= 0:
        raise ParameterError("component modes do not straddle a positive range")
    if not 0 < sigma * sigma < np.inf:      # interaction_potential divides by its square
        raise ParameterError(f"sigma {sigma!r} squares outside float range")
    return sigma


def _neg_log(values: np.ndarray) -> np.ndarray:
    return -np.log(np.maximum(values, PROB_FLOOR))


def data_cost_infarct(i_p, params: RicianMixtureParams):
    """Cost of labeling intensity ``i_p`` as infarct (label 1)."""
    i_p = np.asarray(i_p, dtype=float)
    cost = _neg_log(gaussian_term(i_p, params))
    out = np.where(i_p > params.mu, 0.0, cost)
    return out if out.ndim else float(out)


def data_cost_normal(i_p, params: RicianMixtureParams):
    """Cost of labeling intensity ``i_p`` as normal myocardium (label 0)."""
    i_p = np.asarray(i_p, dtype=float)
    cost = _neg_log(rayleigh_shifted(i_p, params))
    out = np.where(i_p < params.rayleigh_mode, 0.0, cost)
    return out if out.ndim else float(out)


def interaction_potential(i_p, i_q, sigma: float, w_dist: float = 1.0):
    """Penalty for assigning different labels to neighbors p and q."""
    if not sigma > 0:
        raise ParameterError("sigma must be positive")
    diff = np.asarray(i_p, dtype=float) - np.asarray(i_q, dtype=float)
    with np.errstate(over="ignore"):    # a quotient past float range is a penalty of 0
        out = w_dist * np.exp(-(diff ** 2) / (2.0 * sigma ** 2))
    return out if out.ndim else float(out)


def _network(volume: MyocardiumVolume, params: RicianMixtureParams):
    """The MRF over the masked voxels as arrays: ``(d0, d1, p, q, caps)``.

    ``d0``/``d1`` are each masked voxel's costs of labels 0/1, in mask (flat)
    order, which is also the node numbering. ``p``/``q`` are the node ids of
    every 6-connected pair, through-plane pairs first, then row, then column
    pairs, each in flat order; ``caps`` is the penalty the pair pays when its
    labels differ. Distance weights normalize the in-plane row spacing to 1,
    so through-plane links are down-weighted by their larger distance. It is
    built in the volume's box, whose flat order is the grid's.
    """
    sigma = interaction_sigma(params)
    mask = volume.mask[volume.box]
    vals = volume.intensity[volume.box][mask]
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
    with np.errstate(all="ignore"):     # a density that overflows leaves a non-finite cost
        d0, d1 = data_cost_normal(vals, params), data_cost_infarct(vals, params)
    if not (np.isfinite(d0).all() and np.isfinite(d1).all()):
        raise ParameterError("the mixture's densities at the masked intensities overflow")
    return d0, d1, p, q, caps


def energy(volume: MyocardiumVolume, labeling: Labeling, params: RicianMixtureParams,
           lambda_: float = 1.0) -> float:
    """Total labeling energy: ``lambda_``-weighted data costs plus boundary penalties."""
    check_lambda(lambda_)
    d0, d1, p, q, caps = _network(volume, params)
    lab = labeling.labels[volume.box][volume.mask[volume.box]]
    data = lambda_ * float(np.sum(np.where(lab == 1, d1, d0)))
    return data + float(caps[lab[p] != lab[q]].sum())


def _reduce(net, p, q, caps) -> tuple:
    """Fix every node whose side no minimum cut can change, and fold it away.

    ``net`` is each node's t-weight λ(d0−d1) (source side = label 1) and
    ``p``, ``q``, ``caps`` its symmetric n-links. A node whose |net| strictly
    exceeds the sum of its n-link capacities lies on the same side of every
    minimum cut: crossing over would save |net| and cost at most that sum.
    Its links to free nodes join their t-weights. Returns ``(label, edges)``:
    ``label`` is 1 or 0 for a fixed node and -1 for a free one; ``edges`` is
    ``(tails, heads, caps, rev_caps)`` over the free nodes, renumbered in
    node order: t-links in node order (source links for net > 0, sink links
    for net < 0), then free–free links in pair order. The solve's float
    rounding depends on this order (README, design decisions).
    """
    live = caps > 0
    p, q, caps = p[live], q[live], caps[live]
    n = net.size
    nsum = np.bincount(p, caps, n) + np.bincount(q, caps, n)
    label = np.where(net > nsum, 1, np.where(net < -nsum, 0, -1)).astype(np.int8)
    free = label < 0
    pull = np.where(free, 0.0, 2.0 * label - 1.0)   # a fixed node pulls toward its side
    net = net + np.bincount(q, pull[p] * caps, n) + np.bincount(p, pull[q] * caps, n)
    node = np.cumsum(free) - 1
    source, sink = node[-1] + 1, node[-1] + 2   # MaxFlowGraph's terminal ids
    t = np.flatnonzero(free & (net != 0))
    to_sink = net[t] < 0
    t_node = node[t]
    both = free[p] & free[q]
    edges = (
        np.concatenate([np.where(to_sink, t_node, source), node[p[both]]]),
        np.concatenate([np.where(to_sink, sink, t_node), node[q[both]]]),
        np.concatenate([np.abs(net[t]), caps[both]]),
        np.concatenate([np.zeros(t.size), caps[both]]),
    )
    return label, edges


def classify(volume: MyocardiumVolume, params: RicianMixtureParams,
             lambda_: float = 1.0) -> Labeling:
    """Exact minimum-energy labeling via a single s/t minimum cut.

    Voxels whose label no cut can change are fixed first (``_reduce``); the
    cut runs on the rest. Ties are broken toward label 0 (the minimal source
    side of the cut). ``lambda_`` weighs the data costs against the penalties.
    """
    check_lambda(lambda_)
    mask = volume.mask[volume.box]
    n = np.count_nonzero(mask)
    if n == 0:
        raise EmptyMaskError("myocardium mask is empty")
    d0, d1, p, q, caps = _network(volume, params)
    label, edges = _reduce(lambda_ * (d0 - d1), p, q, caps)
    free = label < 0
    n_free = int(free.sum())
    logger.info("graphcut: %d voxels, %d fixed to label 0, %d to label 1; "
                "max-flow on %d nodes and %d arcs", n, int(np.sum(label == 0)),
                int(np.sum(label == 1)), n_free, edges[0].size)
    if n_free:
        _, label[free] = MaxFlowGraph(n_free, *edges).solve()
    labels = np.zeros(volume.mask.shape, dtype=np.uint8)
    labels[volume.box][mask] = label
    return Labeling(labels=labels, mask=volume.mask)
