"""Iterative intensity normalization of the SA stack via blood-pool means.

Signal intensity drifts from slice to slice within one study. The LV
intensity mixture is fitted on all voxels inside the epicardial contours,
its component intersection separates dark papillary muscle from bright blood
pool inside the endocardial contours, and every slice is scaled so its
blood-pool mean matches the middle (reference) slice. Because rescaling
reshapes the histogram, fit and scaling repeat until the per-slice ratios
settle; the whole stack is then mapped jointly to [0, 1] and the final
mixture parameters are carried along in those units for the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContourError, FitError, NormalizationError, ParameterError, ThresholdError, check_number,
)
from .raster import ContourMasks
from .raster import polygon_mask  # noqa: F401  (patched by benchmarks/tracing.py)
from .realign import middle_slice_index
from .rician import (
    DEFAULT_BINS,
    MIN_MIXTURE_BINS,
    RicianMixtureParams,
    build_relative_probability,
    find_threshold,
    fit_mixture,
)

DEFAULT_EPSILON = 0.01
DEFAULT_MAX_ITER = 20


@dataclass
class NormalizationResult:
    stack: np.ndarray                    # (n_sa, rows, cols), in [0, 1]
    factors_per_iteration: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    params: RicianMixtureParams | None = None   # in [0, 1] units
    curve: tuple | None = None           # (bin_centers, values) in [0, 1] units
    rescale_lo: float = 0.0
    rescale_hi: float = 1.0
    reference_index: int = 0


def _stack_array(stack, masks: ContourMasks) -> np.ndarray:
    arr = np.asarray(stack, dtype=float)
    if arr.ndim != 3:
        raise ParameterError("stack must be (n_slices, rows, cols)")
    if masks.epi.shape != arr.shape:
        raise ContourError(
            f"contour masks of shape {masks.epi.shape} do not match the stack {arr.shape}"
        )
    return arr


def lv_voxels(stack, masks: ContourMasks) -> np.ndarray:
    """All intensities inside the epicardial contours, every slice concatenated."""
    return _stack_array(stack, masks)[masks.epi]


def check_normalization(epsilon, max_iter, n_bins) -> None:
    """Raise ParameterError unless ``iterate_normalization`` accepts these settings."""
    check_number("epsilon", epsilon, what="positive", ok=lambda v: v > 0)
    check_number("max_iter", max_iter, integral=True)
    check_number("n_bins", n_bins, integral=True)
    if max_iter < 1:
        raise ParameterError("max_iter must be at least 1")
    if n_bins < MIN_MIXTURE_BINS:
        raise ParameterError(f"n_bins must be at least {MIN_MIXTURE_BINS}, got {n_bins}")


def iterate_normalization(
    stack,
    masks: ContourMasks,
    epsilon: float = DEFAULT_EPSILON,
    max_iter: int = DEFAULT_MAX_ITER,
    n_bins: int = DEFAULT_BINS,
) -> NormalizationResult:
    """Normalize per-slice gains against the reference slice's blood pool.

    Each iteration refits the mixture on the current LV voxels, extracts
    blood-pool means above the refreshed threshold, multiplies every slice by
    reference_mean / slice_mean, and stops once all factors are within
    ``epsilon`` of 1 (or after ``max_iter`` iterations). The stack is then
    jointly min-max rescaled to [0, 1] and the last fitted parameters are
    returned in the rescaled units.
    """
    check_normalization(epsilon, max_iter, n_bins)
    work = _stack_array(stack, masks).copy()
    n_slices = work.shape[0]
    ref = middle_slice_index(n_slices)

    factors_hist = []
    converged = False
    for _ in range(max_iter):
        lv = work[masks.epi]
        try:
            rp = build_relative_probability(lv, n_bins=n_bins)
            params = fit_mixture(rp)
            i_thrh = find_threshold(params)
        except (FitError, ThresholdError) as exc:
            raise NormalizationError(f"mixture fit failed: {exc}") from exc

        bp_means = np.empty(n_slices)
        for k in range(n_slices):
            bp = masks.endo[k] & (work[k] >= i_thrh)
            if not bp.any():
                raise NormalizationError(
                    f"slice {k}: no blood-pool pixels above the threshold"
                )
            bp_means[k] = work[k][bp].mean()
        factors = bp_means[ref] / bp_means
        for k in range(n_slices):
            work[k] *= factors[k]
        factors_hist.append(factors)
        if np.max(np.abs(factors - 1.0)) < epsilon:
            converged = True
            break

    lo = float(work.min())
    hi = float(work.max())
    if hi <= lo:
        raise NormalizationError("stack has zero intensity range")
    work = (work - lo) / (hi - lo)
    return NormalizationResult(
        stack=work,
        factors_per_iteration=factors_hist,
        iterations=len(factors_hist),
        converged=converged,
        params=params.rescaled(lo, hi),
        curve=((rp.bin_centers - lo) / (hi - lo), rp.values.copy()),
        rescale_lo=lo,
        rescale_hi=hi,
        reference_index=ref,
    )
