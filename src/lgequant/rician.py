"""LV intensity model: shifted Rayleigh + Gaussian mixture.

The dark class (normal myocardium) is modeled by a Rayleigh distribution
shifted by an offset ``a`` (acquisition nulls normal myocardium toward an
unknown dark level), the bright class (infarct plus blood pool) by a
Gaussian. The mixture is fitted to the relative-probability curve of the LV
intensity histogram (histogram normalized by its largest count), and the
intersection of the two components between their modes gives the threshold
separating dark from bright voxels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, leastsq

from .errors import FitError, ParameterError, ThresholdError

DEFAULT_BINS = 64
# The fewest relative-probability bins fit_mixture accepts; check_normalization
# holds n_bins to it, so a config that could never be fitted fails when built.
MIN_MIXTURE_BINS = 12
# The most bins allowed. Bins past the LV voxel count are mostly empty: a 96x96x6
# study (4,552 LV voxels) normalizes in 0.02 s at 4,096 and fails to fit at 65,536.
MAX_BINS = 4096
# The most residual evaluations of each least-squares solve in fit_mixture.
MAX_NFEV = 2000


@dataclass
class RicianMixtureParams:
    """Mixture parameters; amplitudes are relative (curve peak near 1)."""

    alpha_r: float
    sigma_r: float
    a: float
    alpha_g: float
    sigma_g: float
    mu: float
    i_thrh: float | None = None
    fit_residual: float | None = None

    def __post_init__(self):
        fields = (self.alpha_r, self.sigma_r, self.a, self.alpha_g, self.sigma_g, self.mu)
        if not all(np.isfinite(fields)):
            raise ParameterError("mixture parameters must be finite")
        if self.alpha_r < 0 or self.alpha_g < 0:
            raise ParameterError("amplitudes must be non-negative")
        if self.sigma_r <= 0 or self.sigma_g <= 0:
            raise ParameterError("scale parameters must be positive")

    @property
    def rayleigh_mode(self) -> float:
        return self.sigma_r - self.a

    def rescaled(self, lo: float, hi: float) -> "RicianMixtureParams":
        """Parameters after the affine intensity map x -> (x - lo)/(hi - lo).

        The transformed mixture takes the same values at mapped positions, so
        thresholds and likelihood comparisons are preserved exactly.
        """
        s = hi - lo
        if s <= 0:
            raise ParameterError("rescale range must have hi > lo")
        return RicianMixtureParams(
            alpha_r=self.alpha_r / s,
            sigma_r=self.sigma_r / s,
            a=(self.a + lo) / s,
            alpha_g=self.alpha_g / s,
            sigma_g=self.sigma_g / s,
            mu=(self.mu - lo) / s,
            i_thrh=None if self.i_thrh is None else (self.i_thrh - lo) / s,
            fit_residual=self.fit_residual,
        )


@dataclass(frozen=True)
class RelativeProbability:
    """Histogram normalized by its largest count (peak value exactly 1)."""

    bin_centers: np.ndarray
    values: np.ndarray


def rayleigh_shifted(x, p: RicianMixtureParams):
    """Shifted Rayleigh component; zero below the support point x = -a."""
    x = np.asarray(x, dtype=float)
    xa = x + p.a
    out = p.alpha_r * (xa / p.sigma_r ** 2) * np.exp(-(xa ** 2) / (2.0 * p.sigma_r ** 2))
    out = np.where(xa < 0, 0.0, out)
    return out if out.ndim else float(out)


def gaussian_term(x, p: RicianMixtureParams):
    x = np.asarray(x, dtype=float)
    out = (
        p.alpha_g / (np.sqrt(2.0 * np.pi) * p.sigma_g)
        * np.exp(-0.5 * ((x - p.mu) / p.sigma_g) ** 2)
    )
    return out if out.ndim else float(out)


def mixture(x, p: RicianMixtureParams):
    return rayleigh_shifted(x, p) + gaussian_term(x, p)


def build_relative_probability(intensities, n_bins: int = DEFAULT_BINS) -> RelativeProbability:
    """Equal-width histogram over [min, max], normalized by the largest count."""
    values = np.asarray(intensities, dtype=float).ravel()
    if values.size < 1:
        raise FitError("no intensity samples")
    if n_bins < 2:
        raise FitError("need at least 2 bins")
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        raise FitError("zero intensity range")
    counts, edges = np.histogram(values, bins=n_bins, range=(lo, hi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return RelativeProbability(bin_centers=centers, values=counts / counts.max())


def _otsu_split(centers: np.ndarray, weights: np.ndarray) -> int:
    """Index of the first bin of the upper class under Otsu's criterion: the first
    split, among those with weight on both sides, that maximizes the between-class
    variance (1 if there is none), all scored at once from prefix and suffix sums."""
    w = weights / max(weights.sum(), 1e-300)
    wc = w * centers
    w0, s0 = np.cumsum(w)[:-1], np.cumsum(wc)[:-1]
    w1, s1 = np.cumsum(w[::-1])[::-1][1:], np.cumsum(wc[::-1])[::-1][1:]
    ok = (w0 > 0) & (w1 > 0)
    var = np.full(w0.shape, -1.0)
    var[ok] = w0[ok] * w1[ok] * (s0[ok] / w0[ok] - s1[ok] / w1[ok]) ** 2
    return int(np.argmax(var)) + 1


def _weighted_moments(centers, weights):
    wsum = max(float(weights.sum()), 1e-300)
    mean = float(np.dot(weights, centers) / wsum)
    var = float(np.dot(weights, (centers - mean) ** 2) / wsum)
    return mean, np.sqrt(max(var, 1e-300))


def _pack(alpha_r, sigma_r, a, alpha_g, sigma_g, mu):
    return np.array([np.log(alpha_r), np.log(sigma_r), a, np.log(alpha_g), np.log(sigma_g), mu])


def _unpack(theta) -> RicianMixtureParams:
    return RicianMixtureParams(
        alpha_r=float(np.exp(theta[0])), sigma_r=float(np.exp(theta[1])), a=float(theta[2]),
        alpha_g=float(np.exp(theta[3])), sigma_g=float(np.exp(theta[4])), mu=float(theta[5]),
    )


def _rayleigh_jac(theta3, x) -> np.ndarray:
    """Derivatives of ``rayleigh_shifted`` at ``x`` by (log alpha_r, log sigma_r, a).

    With u = x + a and q = u^2 / sigma_r^2 the columns are R, R (q - 2) and
    alpha_r / sigma_r^2 e^(-q/2) (1 - q); all three are zero where u < 0.
    """
    alpha, sigma = np.exp(theta3[0]), np.exp(theta3[1])
    u = x + theta3[2]
    q = u * u / sigma ** 2
    e = np.where(u < 0, 0.0, alpha / sigma ** 2 * np.exp(-0.5 * q))
    r = e * u
    return np.column_stack([r, r * (q - 2.0), e * (1.0 - q)])


def _gaussian_jac(theta3, x) -> np.ndarray:
    """Derivatives of ``gaussian_term`` at ``x`` by (log alpha_g, log sigma_g, mu).

    With z = (x - mu) / sigma_g the columns are G, G (z^2 - 1) and G z / sigma_g.
    """
    alpha, sigma = np.exp(theta3[0]), np.exp(theta3[1])
    z = (x - theta3[2]) / sigma
    g = alpha / (np.sqrt(2.0 * np.pi) * sigma) * np.exp(-0.5 * z * z)
    return np.column_stack([g, g * (z * z - 1.0), g * z / sigma])


def _mixture_jac(theta, x) -> np.ndarray:
    """Derivatives of ``mixture`` at ``x`` by the six fitted (packed) parameters."""
    return np.hstack([_rayleigh_jac(theta[:3], x), _gaussian_jac(theta[3:], x)])


def _solve(fun, jac, theta0) -> tuple:
    """MINPACK's Levenberg-Marquardt with least_squares' default tolerances; returns
    the solution and its sum of squared residuals, which MINPACK's ``fvec`` holds.
    full_output keeps a solve stopped at MAX_NFEV from warning, so it returns its
    last point."""
    x, _, info, _, _ = leastsq(fun, theta0, Dfun=jac, full_output=True, ftol=1e-8,
                               xtol=1e-8, gtol=1e-8, maxfev=MAX_NFEV)
    return x, float(np.sum(info["fvec"] ** 2))


def fit_mixture(rp: RelativeProbability) -> RicianMixtureParams:
    """Least-squares fit of the mixture to the relative-probability curve.

    Positivity is enforced by fitting log-transformed amplitudes and scales.
    The start point is data driven: the bins are split at the Otsu threshold,
    the lower part moment-matches a Rayleigh (zero offset start), the upper
    part gives the Gaussian mean and width, and the two peak bin values set
    the amplitudes. Raises FitError when the mixture cannot beat a
    Rayleigh-only fit (no bright class to model). Every least-squares solve
    is given the closed-form Jacobian of its residuals.
    """
    centers = np.asarray(rp.bin_centers, dtype=float)
    values = np.asarray(rp.values, dtype=float)
    if centers.size < MIN_MIXTURE_BINS:
        raise FitError(f"need at least {MIN_MIXTURE_BINS} bins to fit the mixture")
    if centers.size != values.size:
        raise FitError("bin_centers and values must have equal length")

    k = _otsu_split(centers, values)
    lo_c, lo_v = centers[:k], values[:k]
    hi_c, hi_v = centers[k:], values[k:]
    bin_w = float(centers[1] - centers[0])

    mean_lo, _ = _weighted_moments(lo_c, lo_v + 1e-12)
    sigma_r0 = max(abs(mean_lo) / np.sqrt(np.pi / 2.0), bin_w)
    a0 = 0.0
    mu0, sigma_g0 = _weighted_moments(hi_c, hi_v + 1e-12)
    sigma_g0 = max(sigma_g0, bin_w)
    peak_lo = max(float(lo_v.max()) if lo_v.size else 0.0, 1e-3)
    peak_hi = max(float(hi_v.max()) if hi_v.size else 0.0, 1e-3)
    alpha_r0 = peak_lo * sigma_r0 * np.exp(0.5)
    alpha_g0 = peak_hi * np.sqrt(2.0 * np.pi) * sigma_g0

    def resid(theta):
        return mixture(centers, _unpack(theta)) - values

    def ray_resid(theta3):
        p = RicianMixtureParams(
            alpha_r=float(np.exp(theta3[0])), sigma_r=float(np.exp(theta3[1])),
            a=float(theta3[2]), alpha_g=0.0, sigma_g=1.0, mu=0.0,
        )
        return rayleigh_shifted(centers, p) - values

    ray0 = np.array([np.log(alpha_r0), np.log(sigma_r0), a0])
    ray_x, ray_res = _solve(ray_resid, lambda t: _rayleigh_jac(t, centers), ray0)

    # Two starts: the Otsu-split moments, and the Rayleigh-only solution with
    # a Gaussian seeded on the upper bins. The second rescues lopsided
    # histograms where the split misplaces the dark component.
    starts = [
        _pack(alpha_r0, sigma_r0, a0, alpha_g0, sigma_g0, mu0),
        np.array([ray_x[0], ray_x[1], ray_x[2], np.log(alpha_g0), np.log(sigma_g0), mu0]),
    ]
    x, res = min((_solve(resid, lambda t: _mixture_jac(t, centers), theta0)
                  for theta0 in starts), key=lambda solved: solved[1])
    params = _unpack(x)
    params.fit_residual = res

    scale = float(np.sum(values ** 2))
    if ray_res < 1e-10 * scale or params.fit_residual >= 0.99 * ray_res:
        raise FitError(
            "relative probability is explained by the dark component alone; "
            "no bright class to model"
        )
    return params


def find_threshold(p: RicianMixtureParams) -> float:
    """Intersection of the two components between their modes.

    Scans from the Gaussian mode downward for the sign change of
    (Rayleigh - Gaussian) and refines it; stores the result in ``p.i_thrh``.
    """
    if p.alpha_r <= 0 or p.alpha_g <= 0:
        raise ThresholdError("both mixture components must be present")
    lo = p.rayleigh_mode
    hi = p.mu
    if not hi > lo:
        raise ThresholdError("Gaussian mode must lie above the Rayleigh mode")

    def f(x):
        return rayleigh_shifted(x, p) - gaussian_term(x, p)

    grid = np.linspace(hi, lo, 2049)
    fv = f(grid)
    # The first grid interval, from the Gaussian mode down, that starts on a
    # zero or changes sign.
    hits = np.flatnonzero((fv[:-1] == 0.0) | (fv[:-1] * fv[1:] < 0))
    root = None
    if hits.size:
        i = hits[0]
        if fv[i] == 0.0:
            root = float(grid[i])
        else:
            root = float(brentq(f, grid[i + 1], grid[i], xtol=1e-15, rtol=8.9e-16))
    if root is None or not (lo < root < hi):
        raise ThresholdError("components do not intersect between their modes")

    peak_r = p.alpha_r * np.exp(-0.5) / p.sigma_r
    peak_g = p.alpha_g / (np.sqrt(2.0 * np.pi) * p.sigma_g)
    if abs(f(root)) > 1e-9 * max(peak_r, peak_g):
        raise ThresholdError("intersection refinement did not converge")
    p.i_thrh = root
    return root
