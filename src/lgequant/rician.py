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

import math
from dataclasses import dataclass

import numpy as np

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


def _rows(theta, x) -> list:
    """The mixture at ``x`` by the six packed parameters (the Rayleigh alone by the first
    three), then its derivatives by them: with u = x + a, q = u^2 / sigma_r^2, e = alpha_r /
    sigma_r^2 e^(-q/2) (0 where u < 0) and z = (x - mu) / sigma_g, the components are R = e u
    and G, and the derivatives R, R (q - 2), e (1 - q), G, G (z^2 - 1) and G z / sigma_g."""
    alpha, sigma = np.exp(theta[:2])
    u = x + float(theta[2])
    q = u * u / (sigma * sigma)
    e = np.where(u < 0, 0.0, alpha / (sigma * sigma) * np.exp(-0.5 * q))
    r = e * u
    if len(theta) == 3:
        return [r, r, r * (q - 2.0), e * (1.0 - q)]
    alpha, sigma = np.exp(theta[3:5])
    z = (x - float(theta[5])) / sigma
    g = alpha / (np.sqrt(2.0 * np.pi) * sigma) * np.exp(-0.5 * z * z)
    return [r + g, r, r * (q - 2.0), e * (1.0 - q), g, g * (z * z - 1.0), g * z / sigma]


def _damping(a, g, d, delta, lam, regular) -> tuple:
    """MINPACK's lmpar for a Gauss-Newton step (none if ``a`` is not ``regular``) longer than
    1.1 delta: Hebden's iteration from the last lam, within lmpar's bounds, to one whose step
    p, (a + lam D^2) p = -g, has |D p| within 10% of delta. Returns lam, p, |D p|, |J p|^2."""
    def step(lam):                      # p, |D p| and Hebden's correction to lam
        m = a + lam * np.diag(d * d)
        p = np.linalg.solve(m, -g)
        q, ddp = math.hypot(*(d * p).tolist()), d * d * p
        return p, q, (q - delta) / delta * q * q / (ddp @ np.linalg.solve(m, ddp))
    lo, hi = step(0.0)[2] if regular else 0.0, math.hypot(*(g / d).tolist()) / delta
    lam = min(max(lam, lo), hi)
    for it in range(10):
        lam = lam or max(np.finfo(float).tiny, 0.001 * hi)
        p, q, correction = step(lam)
        if abs(q - delta) <= 0.1 * delta or it == 9:
            return lam, p, q, float(p @ a @ p)
        lo, hi = (max(lo, lam), hi) if q > delta else (lo, min(hi, lam))
        lam = max(lo, lam + correction)


def _solve(x_data, y_data, x) -> tuple:
    """Fits ``_rows(theta, x_data)[0]`` to ``y_data`` from the float array ``x`` by MINPACK's
    lmder (Moré 1978) on the normal equations, with its scaling, trust region and 1e-8 stops.
    Returns the solution and its sum of squares; after MAX_NFEV residuals, the last accepted."""
    m = _rows(x, x_data)
    f, jt = m[0] - y_data, np.array(m[1:])
    cost, nfev, d, delta, lam, first = float(f @ f), 1, None, 0.0, 0.0, True
    while nfev < MAX_NFEV:
        a, g = jt @ jt.T, jt @ f
        norms = np.sqrt(a.diagonal())
        if d is None:
            d = np.where(norms > 0, norms, 1.0)
            xnorm = math.hypot(*(d * x).tolist())
            delta = 100.0 * xnorm or 100.0
        if (np.abs(g) <= 1e-8 * math.sqrt(cost) * norms).all():
            break
        d, ratio = np.maximum(d, norms), 0.0
        try:
            gauss_newton = np.linalg.solve(a, -g)
        except np.linalg.LinAlgError:           # singular: damped steps only
            gauss_newton = np.full(x.size, np.inf)
        while ratio < 1e-4 and nfev < MAX_NFEV:
            q = math.hypot(*(d * gauss_newton).tolist())
            if q <= 1.1 * delta:
                lam, p, jp = 0.0, gauss_newton, -float(g @ gauss_newton)
            else:
                try:
                    lam, p, q, jp = _damping(a, g, d, delta, lam, q < math.inf)
                except np.linalg.LinAlgError:   # singular to working precision
                    return x, cost
            delta = min(delta, q) if first else delta
            m = _rows(x + p, x_data)
            f_new, nfev = m[0] - y_data, nfev + 1
            cost_new = float(f_new @ f_new)
            actual = 1.0 - cost_new / cost if cost_new < 100.0 * cost else -1.0
            gn, damped = jp / cost, lam * q * q / cost
            ratio = actual / (gn + 2.0 * damped) if gn + damped > 0 else 0.0
            if ratio <= 0.25:
                t = 0.5 if actual >= 0 else 0.5 * (gn + damped) / (gn + damped - 0.5 * actual)
                t = 0.1 if cost_new >= 100.0 * cost or t < 0.1 else t
                delta, lam = t * min(delta, 10.0 * q), lam / t
            elif lam == 0 or ratio >= 0.75:
                delta, lam = 2.0 * q, 0.5 * lam
            if ratio >= 1e-4:
                x, f, jt, cost, first = x + p, f_new, np.array(m[1:]), cost_new, False
                xnorm = math.hypot(*(d * x).tolist())
            if ((abs(actual) <= 1e-8 and gn + 2.0 * damped <= 1e-8 and ratio <= 2.0)
                    or delta <= 1e-8 * xnorm):
                return x, cost
    return x, cost


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

    ray0 = np.array([np.log(alpha_r0), np.log(sigma_r0), a0])
    ray_x, ray_res = _solve(centers, values, ray0)

    # Two starts: the Otsu-split moments, and the Rayleigh-only solution with
    # a Gaussian seeded on the upper bins. The second rescues lopsided
    # histograms where the split misplaces the dark component.
    starts = [
        _pack(alpha_r0, sigma_r0, a0, alpha_g0, sigma_g0, mu0),
        np.array([ray_x[0], ray_x[1], ray_x[2], np.log(alpha_g0), np.log(sigma_g0), mu0]),
    ]
    x, res = min((_solve(centers, values, theta0) for theta0 in starts),
                  key=lambda solved: solved[1])
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
        a, b, fa, fb = grid[i + 1], grid[i], fv[i + 1], fv[i]
        # Illinois regula falsi (Dowell and Jarratt 1971): a sign change stays in
        # [a, b] until b is a zero or within 4 eps |b| of a.
        for _ in range(100):
            if fb == 0.0 or abs(b - a) <= 4.0 * np.finfo(float).eps * abs(b):
                break
            c = b - fb * (b - a) / (fb - fa)
            fc = f(c)
            a, fa = (b, fb) if fc * fb < 0 else (a, 0.5 * fa)
            b, fb = c, fc
        root = float(b)
    if root is None or not (lo < root < hi):
        raise ThresholdError("components do not intersect between their modes")

    peak_r = p.alpha_r * np.exp(-0.5) / p.sigma_r
    peak_g = p.alpha_g / (np.sqrt(2.0 * np.pi) * p.sigma_g)
    if abs(f(root)) > 1e-9 * max(peak_r, peak_g):
        raise ThresholdError("intersection refinement did not converge")
    p.i_thrh = root
    return root
