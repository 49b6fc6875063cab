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

from .errors import ContourError, FitError, NormalizationError, ParameterError, ThresholdError
from .raster import ContourMasks
from .raster import polygon_mask  # noqa: F401  (patched by benchmarks/tracing.py)
from .realign import middle_slice_index
from .rician import RicianMixtureParams, build_relative_probability, find_threshold, fit_mixture

# The loop stops once every slice factor is within EPSILON of 1, or after MAX_ITER
# iterations; the factors settle in a few.
EPSILON = 0.01
MAX_ITER = 20


@dataclass
class NormalizationResult:
    stack: np.ndarray                    # the normalized stack[box], in [0, 1]
    factors_per_iteration: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    params: RicianMixtureParams | None = None   # in [0, 1] units
    curve: tuple | None = None           # (bin_centers, values) in [0, 1] units
    rescale_lo: float = 0.0
    rescale_hi: float = 1.0
    reference_index: int = 0
    box: tuple = (slice(None),) * 3      # where ``stack`` lies in the input stack

    def apply(self, raw) -> np.ndarray:
        """The raw slices, whole or cut in plane, mapped to [0, 1] as ``stack`` was.

        A float array is mapped in place.
        """
        work = np.asarray(raw, dtype=float)
        for factors in self.factors_per_iteration:
            work *= factors[:, None, None]
        work -= self.rescale_lo
        work /= self.rescale_hi - self.rescale_lo
        return work


def _slices(stack, masks: ContourMasks) -> list:
    """The stack's 2-D float slices; ``stack`` is a 3-D array or a sequence of slices."""
    slices = [np.asarray(s, dtype=float) for s in stack] if np.iterable(stack) else []
    shape = (len(slices), *slices[0].shape) if slices else ()
    if len(shape) != 3 or any(s.shape != shape[1:] for s in slices):
        raise ParameterError("stack must be (n_slices, rows, cols)")
    for mask in masks:
        if mask.shape != shape:
            raise ContourError(
                f"contour masks of shape {mask.shape} do not match the stack {shape}"
            )
    return slices


def lv_voxels(stack, masks: ContourMasks) -> np.ndarray:
    """All intensities inside the epicardial contours, every slice concatenated."""
    return np.concatenate([s[epi] for s, epi in zip(_slices(stack, masks), masks.epi)])


def iterate_normalization(stack, masks: ContourMasks,
                          box: tuple = (slice(None),) * 3) -> NormalizationResult:
    """Normalize per-slice gains against the reference slice's blood pool.

    Each iteration refits the mixture on the current LV voxels, extracts
    blood-pool means above the refreshed threshold, multiplies every slice by
    reference_mean / slice_mean, and stops once all factors are within
    ``EPSILON`` of 1 (or after ``MAX_ITER`` iterations). The blood pool is
    the endocardial voxels inside the epicardial mask, which ``contour_masks``
    guarantees is all of them. The stack is then jointly min-max rescaled to
    [0, 1] and the last fitted parameters are returned in the rescaled units.
    Only ``stack[box]`` is scaled and returned, ``box`` holding every slice
    and epicardial voxel; the rescale spans the whole stack's range. Only
    ``stack[box]`` is copied: ``stack`` may be a sequence of 2-D slices.
    """
    slices = _slices(stack, masks)
    n_slices = len(slices)
    ref = middle_slice_index(n_slices)
    extrema = np.array([(s.min(), s.max()) for s in slices])
    arr = np.stack([s[box[1:]] for s in slices[box[0]]])
    cut = ContourMasks(*(mask[box] for mask in masks))
    if arr.shape[0] != n_slices or np.count_nonzero(cut.epi) != np.count_nonzero(masks.epi):
        raise ParameterError("the box must hold every slice and every epicardial voxel")
    masks = cut

    # The loop reads only the LV voxels. Taken in C order, each slice's
    # voxels are one contiguous run, in the order arr[k][mask] yields them,
    # so each run's blood-pool mean sums the same values in the same order.
    epi = np.flatnonzero(masks.epi)
    lv = arr.ravel()[epi]
    endo = masks.endo.ravel()[epi]
    runs = np.searchsorted(epi, np.arange(n_slices + 1) * arr[0].size)

    factors_hist = []
    converged = False
    for _ in range(MAX_ITER):
        try:
            rp = build_relative_probability(lv)
            params = fit_mixture(rp)
            i_thrh = find_threshold(params)
        except (FitError, ThresholdError) as exc:
            raise NormalizationError(f"mixture fit failed: {exc}") from exc

        blood = endo & (lv >= i_thrh)
        bp_means = np.empty(n_slices)
        for k in range(n_slices):
            bp = lv[runs[k]:runs[k + 1]][blood[runs[k]:runs[k + 1]]]
            if not bp.size:
                raise NormalizationError(
                    f"slice {k}: no blood-pool pixels above the threshold"
                )
            bp_means[k] = bp.mean()
        factors = bp_means[ref] / bp_means
        lv *= np.repeat(factors, np.diff(runs))
        factors_hist.append(factors)
        if np.max(np.abs(factors - 1.0)) < EPSILON:
            converged = True
            break

    # Every voxel takes each iteration's factors in turn (apply). A rounded
    # x * f is monotone in x, so a slice's scaled extremes are its extremes
    # scaled, swapped if f < 0: lo and hi are exactly the scaled stack's.
    for factors in factors_hist:
        extrema *= factors[:, None]
    lo = float(extrema.min())
    hi = float(extrema.max())
    if hi <= lo:
        raise NormalizationError("stack has zero intensity range")
    result = NormalizationResult(
        stack=arr,
        factors_per_iteration=factors_hist,
        iterations=len(factors_hist),
        converged=converged,
        params=params.rescaled(lo, hi),
        curve=((rp.bin_centers - lo) / (hi - lo), rp.values.copy()),
        rescale_lo=lo,
        rescale_hi=hi,
        reference_index=ref,
        box=box,
    )
    result.apply(arr)
    return result
