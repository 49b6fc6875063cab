import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, least_squares

from lgequant import rician
from lgequant.errors import FitError, ParameterError, ThresholdError
from lgequant.rician import (
    RelativeProbability,
    RicianMixtureParams,
    build_relative_probability,
    find_threshold,
    fit_mixture,
    gaussian_term,
    mixture,
    rayleigh_shifted,
    _mixture_jac,
    _otsu_split,
    _pack,
    _unpack,
)

PARAM_NAMES = ("alpha_r", "sigma_r", "a", "alpha_g", "sigma_g", "mu")
# The LV histograms normalization fits on seeds 1-3 of the two registered
# benchmark phantoms, recorded by tests/data/make_lv_curves.py.
RECORDED = json.loads((Path(__file__).parent / "data" / "lv_curves.json").read_text())
RECORDED_IDS = [f"{c['study']} fit {sum(d['study'] == c['study'] for d in RECORDED[:i]) + 1}"
                for i, c in enumerate(RECORDED)]


def recorded_curve(curve) -> RelativeProbability:
    """The relative-probability curve of a recorded histogram, as built from its voxels."""
    edges = np.linspace(curve["lo"], curve["hi"], len(curve["counts"]) + 1)
    counts = np.asarray(curve["counts"])
    return RelativeProbability(0.5 * (edges[:-1] + edges[1:]), counts / counts.max())


def make_params(**kw):
    base = dict(alpha_r=0.12, sigma_r=0.10, a=-0.15, alpha_g=0.09, sigma_g=0.08, mu=0.75)
    base.update(kw)
    return RicianMixtureParams(**base)


class TestParams:
    @pytest.mark.parametrize("name", ["alpha_r", "sigma_r", "a", "alpha_g", "sigma_g", "mu"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ParameterError, match="must be finite"):
            make_params(**{name: value})


def curve_from_params(p, n_bins=64, x_lo=0.0, x_hi=1.2):
    """Noise-free relative-probability curve: peak scaled to exactly 1."""
    centers = np.linspace(x_lo, x_hi, n_bins)
    vals = mixture(centers, p)
    k = 1.0 / vals.max()
    scaled = RicianMixtureParams(
        alpha_r=p.alpha_r * k, sigma_r=p.sigma_r, a=p.a,
        alpha_g=p.alpha_g * k, sigma_g=p.sigma_g, mu=p.mu,
    )
    return RelativeProbability(bin_centers=centers, values=vals * k), scaled


class TestComponents:
    def test_rayleigh_zero_at_support_edge(self):
        p = make_params()
        assert rayleigh_shifted(-p.a, p) == 0.0
        assert rayleigh_shifted(-p.a - 0.2, p) == 0.0

    def test_rayleigh_mode_value(self):
        p = make_params()
        mode = p.sigma_r - p.a
        expected = p.alpha_r * (1.0 / p.sigma_r) * np.exp(-0.5)
        assert np.isclose(rayleigh_shifted(mode, p), expected, rtol=1e-12)

    def test_rayleigh_zero_amplitude(self):
        p = make_params(alpha_r=0.0)
        x = np.linspace(-0.5, 1.5, 101)
        assert np.all(rayleigh_shifted(x, p) == 0.0)

    def test_gaussian_peak(self):
        p = make_params()
        expected = p.alpha_g / (np.sqrt(2 * np.pi) * p.sigma_g)
        assert np.isclose(gaussian_term(p.mu, p), expected, rtol=1e-12)

    def test_gaussian_symmetric_pair(self):
        p = make_params()
        peak = gaussian_term(p.mu, p)
        up = gaussian_term(p.mu + p.sigma_g, p)
        dn = gaussian_term(p.mu - p.sigma_g, p)
        assert np.isclose(up, dn, rtol=1e-12)
        assert np.isclose(up, peak * np.exp(-0.5), rtol=1e-12)

    def test_gaussian_zero_amplitude(self):
        p = make_params(alpha_g=0.0)
        assert gaussian_term(p.mu, p) == 0.0

    def test_mode_identities_on_fine_grid(self):
        p = make_params()
        x = np.linspace(-0.2, 1.2, 20001)
        assert abs(x[np.argmax(rayleigh_shifted(x, p))] - (p.sigma_r - p.a)) < 1e-3
        assert abs(x[np.argmax(gaussian_term(x, p))] - p.mu) < 1e-3


class TestRelativeProbability:
    def test_concentrated_mass(self):
        samples = np.concatenate([np.full(200, 0.1), [0.9]])
        rp = build_relative_probability(samples, n_bins=4)
        assert rp.values[0] == 1.0
        assert np.all(rp.values[1:3] == 0.0)

    def test_two_equal_clusters_both_peak(self):
        samples = np.concatenate([np.full(50, 0.1), np.full(50, 0.9)])
        rp = build_relative_probability(samples, n_bins=8)
        assert rp.values[0] == 1.0 and rp.values[-1] == 1.0

    def test_draws_from_known_mixture(self):
        rng = np.random.default_rng(17)
        p = make_params()
        dark = rng.rayleigh(scale=p.sigma_r, size=6000) - p.a
        bright = rng.normal(p.mu, p.sigma_g, size=4000)
        rp = build_relative_probability(np.concatenate([dark, bright]), n_bins=64)
        assert rp.values.max() == 1.0
        peak_x = rp.bin_centers[np.argmax(rp.values)]
        modes = (p.sigma_r - p.a, p.mu)
        assert min(abs(peak_x - m) for m in modes) < 0.08

    def test_empty_rejected(self):
        with pytest.raises(FitError):
            build_relative_probability(np.array([]))

    def test_zero_range_rejected(self):
        with pytest.raises(FitError):
            build_relative_probability(np.full(100, 3.0))


class TestFitMixture:
    def test_round_trip_recovery(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            truth = make_params(
                sigma_r=rng.uniform(0.07, 0.13), a=rng.uniform(-0.2, 0.0),
                mu=rng.uniform(0.65, 0.85), sigma_g=rng.uniform(0.06, 0.12),
            )
            rp, scaled_truth = curve_from_params(truth)
            fitted = fit_mixture(rp)
            for name in ("alpha_r", "sigma_r", "a", "alpha_g", "sigma_g", "mu"):
                t = getattr(scaled_truth, name)
                f = getattr(fitted, name)
                assert abs(f - t) <= 0.01 * max(abs(t), 1e-12), name

    def test_pure_gaussian_gives_tiny_rayleigh(self):
        truth = make_params(alpha_r=0.0)
        centers = np.linspace(0.0, 1.2, 64)
        vals = gaussian_term(centers, truth)
        rp = RelativeProbability(centers, vals / vals.max())
        fitted = fit_mixture(rp)
        assert fitted.alpha_r <= 0.01 * fitted.alpha_g

    def test_monotone_decreasing_flags_non_bimodal(self):
        truth = make_params(alpha_g=0.0)
        centers = np.linspace(0.0, 1.2, 64)
        vals = rayleigh_shifted(centers, truth)
        rp = RelativeProbability(centers, vals / vals.max())
        with pytest.raises(FitError):
            fit_mixture(rp)

    def test_too_few_bins(self):
        rp, _ = curve_from_params(make_params(), n_bins=8)
        with pytest.raises(FitError):
            fit_mixture(rp)

    def test_residual_self_consistency(self):
        rng = np.random.default_rng(9)
        rp, _ = curve_from_params(make_params())
        noisy = RelativeProbability(rp.bin_centers, np.clip(rp.values + rng.normal(0, 0.01, rp.values.shape), 0, None))
        fitted = fit_mixture(noisy)
        re_evaluated = float(np.sum((mixture(noisy.bin_centers, fitted) - noisy.values) ** 2))
        assert abs(re_evaluated - fitted.fit_residual) < 1e-12


class TestMixtureJacobian:
    """The closed-form Jacobian that every least-squares call in fit_mixture is given."""

    @staticmethod
    def random_theta(rng):
        return _pack(alpha_r=rng.uniform(0.05, 0.2), sigma_r=rng.uniform(0.04, 0.15),
                     a=rng.uniform(-0.25, 0.1), alpha_g=rng.uniform(0.05, 0.2),
                     sigma_g=rng.uniform(0.03, 0.12), mu=rng.uniform(0.5, 0.9))

    def test_matches_central_differences(self):
        rng = np.random.default_rng(20)
        x = np.linspace(-0.3, 1.2, 64)
        eps = np.finfo(float).eps
        h = eps ** (1.0 / 3.0)              # the step that balances the two errors below
        for _ in range(25):
            theta = self.random_theta(rng)
            p = _unpack(theta)
            assert np.any(x + p.a < 0)      # some bins lie below the Rayleigh support
            # Each parameter is stepped in units of its natural scale: log-parameters
            # by h, the offset by h * sigma_r and the mean by h * sigma_g.
            scale = np.array([1.0, 1.0, p.sigma_r, 1.0, 1.0, p.sigma_g])
            jac = _mixture_jac(theta, x) * scale
            assert jac.shape == (x.size, 6)
            # The Rayleigh kink at x = -a has no derivative; drop any bin whose
            # stencil straddles it.
            keep = np.abs(x + p.a) > 2 * h * p.sigma_r
            peak = max(p.alpha_r * np.exp(-0.5) / p.sigma_r,
                       p.alpha_g / (np.sqrt(2 * np.pi) * p.sigma_g))
            # In these units every third derivative is the component times a
            # low-degree polynomial in (x + a) / sigma_r or (x - mu) / sigma_g
            # and its Gaussian factor, below 100 * peak; the central difference
            # is then off by at most h^2 / 6 of that plus eps * peak / h of rounding.
            tol = 100.0 * peak * (h * h / 6.0 + eps / h)
            for j in range(6):
                step = np.zeros(6)
                step[j] = h * scale[j]
                fd = (mixture(x, _unpack(theta + step))
                      - mixture(x, _unpack(theta - step))) / (2.0 * h)
                assert np.max(np.abs(jac[keep, j] - fd[keep])) <= tol, j

    def test_rayleigh_columns_vanish_below_the_support(self):
        theta = _pack(0.12, 0.10, -0.15, 0.09, 0.08, 0.75)
        x = np.array([-0.5, 0.0, 0.1, 0.1499, 0.2, 0.5])
        jac = _mixture_jac(theta, x)
        below = x + _unpack(theta).a < 0
        assert below.sum() == 4
        assert np.all(jac[below, :3] == 0.0)
        assert np.all(jac[~below, :3] != 0.0)

    def test_every_least_squares_call_is_given_the_jacobian(self, monkeypatch):
        calls = []
        solve = rician.leastsq

        def spy(fun, x0, **kwargs):
            calls.append(kwargs)
            return solve(fun, x0, **kwargs)

        monkeypatch.setattr(rician, "leastsq", spy)
        rp, _ = curve_from_params(make_params())
        fit_mixture(rp)
        assert len(calls) == 3
        assert all(callable(kw.get("Dfun")) and kw["full_output"] for kw in calls)

    def test_no_residual_is_evaluated_outside_the_solves(self, monkeypatch):
        # Each solve's residual at its solution is MINPACK's fvec.
        depth, inside, outside = [], [], []
        solve = rician.leastsq

        def spy(fun, x0, **kwargs):
            depth.append(None)
            try:
                return solve(fun, x0, **kwargs)
            finally:
                depth.pop()

        def counted(component):
            def wrapped(*args):
                (inside if depth else outside).append(component.__name__)
                return component(*args)
            return wrapped

        rp, _ = curve_from_params(make_params())
        monkeypatch.setattr(rician, "leastsq", spy)
        for name in ("rayleigh_shifted", "gaussian_term"):
            monkeypatch.setattr(rician, name, counted(getattr(rician, name)))
        fit_mixture(rp)
        assert inside and outside == []


def trf_solve(fun, x0, Dfun, **kwargs):
    """fit_mixture's former solver, scipy's trf, in leastsq's calling convention."""
    sol = least_squares(fun, x0, jac=Dfun, method="trf", max_nfev=2000)
    return sol.x, None, {"fvec": sol.fun}, "", 1


class TestAgainstTrf:
    """On the recorded curves MINPACK's Levenberg-Marquardt reaches the minimum that
    the former trf solver reached."""

    # Worst case 8.0e-6, on cli_staged192 seed 3.
    RTOL = 1e-4
    # Both solvers stop once a step cuts the sum of squares by less than this
    # fraction, so their minima can differ by about as much.
    FTOL = 1e-8

    @pytest.mark.parametrize("curve", RECORDED, ids=RECORDED_IDS)
    def test_recorded_curves(self, curve, monkeypatch):
        rp = recorded_curve(curve)
        fitted = fit_mixture(rp)
        monkeypatch.setattr(rician, "leastsq", trf_solve)
        former = fit_mixture(rp)
        for name in PARAM_NAMES:
            assert getattr(fitted, name) == pytest.approx(getattr(former, name),
                                                          rel=self.RTOL), name
        assert fitted.fit_residual <= former.fit_residual * (1 + self.FTOL)

    def test_recorded_curve_is_the_built_curve(self):
        values = np.random.default_rng(3).gamma(4.0, 150.0, 5000).round()
        counts, _ = np.histogram(values, bins=64, range=(values.min(), values.max()))
        built = build_relative_probability(values, n_bins=64)
        rp = recorded_curve({"lo": values.min(), "hi": values.max(), "counts": counts.tolist()})
        assert np.array_equal(rp.bin_centers, built.bin_centers)
        assert np.array_equal(rp.values, built.values)


class TestSolveCap:
    """A solve that reaches rician.MAX_NFEV returns its last point without a warning."""

    @pytest.mark.parametrize("cap", [2, 3, 5])
    @pytest.mark.parametrize("curve", [0, 9], ids=lambda i: RECORDED_IDS[i])
    def test_capped_fit_returns_or_raises_fit_error(self, cap, curve, monkeypatch):
        stops = []
        solve = rician.leastsq

        def spy(fun, x0, **kwargs):
            out = solve(fun, x0, **kwargs)
            stops.append((out[2]["nfev"], out[4]))      # evaluations, MINPACK's exit code
            return out

        monkeypatch.setattr(rician, "MAX_NFEV", cap)
        monkeypatch.setattr(rician, "leastsq", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fitted = fit_mixture(recorded_curve(RECORDED[curve]))
                assert fitted.fit_residual >= 0
            except FitError:
                pass
        assert len(stops) == 3
        assert all(nfev <= cap for nfev, _ in stops)
        assert any(code == 5 for _, code in stops)      # 5: stopped at the cap


def otsu_variances(centers, weights):
    """The former _otsu_split loop's between-class variance at each split k = 1 .. n-1,
    None where a class has no weight."""
    w = weights / max(weights.sum(), 1e-300)
    out = []
    for k in range(1, len(centers)):
        w0 = w[:k].sum()
        w1 = w[k:].sum()
        if w0 <= 0 or w1 <= 0:
            out.append(None)
            continue
        m0 = float(np.dot(w[:k], centers[:k]) / w0)
        m1 = float(np.dot(w[k:], centers[k:]) / w1)
        out.append(w0 * w1 * (m0 - m1) ** 2)
    return out


def otsu_loop(centers, weights):
    """The former _otsu_split: the first split whose variance beats every earlier one."""
    best_k, best_var = 1, -1.0
    for k, var in enumerate(otsu_variances(centers, weights), start=1):
        if var is not None and var > best_var:
            best_var, best_k = var, k
    return best_k


class TestOtsuSplit:
    """The one-pass split against the former loop over the bins."""

    def test_recorded_curves(self):
        for curve in RECORDED:
            rp = recorded_curve(curve)
            assert _otsu_split(rp.bin_centers, rp.values) == otsu_loop(rp.bin_centers, rp.values)

    @pytest.mark.parametrize("weights, k", [
        ([0, 0, 0, 0], 1),              # no split has weight on both sides
        ([0, 0, 3, 0, 0], 1),           # nor with one occupied bin
        ([1, 0, 0, 1], 1),              # three tied splits: the first wins
        ([0, 2, 0, 0, 2, 0], 2),        # tied, behind a zero-weight bin
        ([1, 1, 0, 0, 1, 1], 2),
        ([0, 0, 1, 1, 2, 0, 0], 4),
    ])
    def test_zero_weight_and_tied_bins(self, weights, k):
        weights = np.asarray(weights, dtype=float)
        centers = np.arange(weights.size, dtype=float)
        assert otsu_loop(centers, weights) == k
        assert _otsu_split(centers, weights) == k

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=2, max_size=80),
           st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
    @example([0, 1, 1, 0], 0.0, 1.0)
    @example([3, 3, 1, 3, 3, 0, 0], 0.0, 1.0)     # splits 2 and 3 tie; rounding picks
    @example([2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 2], -3.0, 0.5)
    def test_matches_the_loop(self, counts, lo, width):
        """Same split, or one whose variance ties the loop's within rounding."""
        weights = np.asarray(counts, dtype=float)
        centers = lo + width * np.arange(weights.size)
        k, expected = _otsu_split(centers, weights), otsu_loop(centers, weights)
        if k != expected:
            var = otsu_variances(centers, weights)
            assert var[k - 1] == pytest.approx(var[expected - 1], rel=1e-12)


def scan_root_loop(p):
    """The former find_threshold scan: a Python loop over the grid intervals."""
    f = lambda x: rayleigh_shifted(x, p) - gaussian_term(x, p)
    grid = np.linspace(p.mu, p.rayleigh_mode, 2049)
    fv = f(grid)
    for i in range(len(grid) - 1):
        if fv[i] == 0.0:
            return float(grid[i])
        if fv[i] * fv[i + 1] < 0:
            return float(brentq(f, grid[i + 1], grid[i], xtol=1e-15, rtol=8.9e-16))
    return None


class TestFindThresholdScan:
    """The array scan finds the same interval, so the same root, as the former loop."""

    @pytest.mark.parametrize("kw", [
        {}, dict(sigma_r=0.08, a=-0.22, sigma_g=0.08, mu=0.70),
        dict(sigma_r=0.04, a=-0.06, sigma_g=0.03, mu=0.9), dict(alpha_r=0.12 * 3.7,
                                                               alpha_g=0.09 * 3.7),
    ])
    def test_suite_parameters(self, kw):
        p = make_params(**kw)
        assert find_threshold(p) == scan_root_loop(p)

    def test_seeded_random_mixtures(self):
        rng = np.random.default_rng(31)
        found = 0
        for _ in range(200):
            p = make_params(alpha_r=rng.uniform(0.01, 0.3), sigma_r=rng.uniform(0.03, 0.2),
                            a=rng.uniform(-0.3, 0.1), alpha_g=rng.uniform(0.01, 0.3),
                            sigma_g=rng.uniform(0.02, 0.3), mu=rng.uniform(0.3, 1.0))
            if not p.mu > p.rayleigh_mode:
                continue
            expected = scan_root_loop(p)
            if expected is not None and p.rayleigh_mode < expected < p.mu:
                assert find_threshold(p) == expected
                found += 1
            else:
                with pytest.raises(ThresholdError):
                    find_threshold(p)
        assert found > 100


class TestFindThreshold:
    def test_matches_bisection_oracle(self):
        p = make_params()
        root = find_threshold(p)
        # independent oracle: plain bisection on the component difference
        lo, hi = p.sigma_r - p.a, p.mu
        f = lambda x: rayleigh_shifted(x, p) - gaussian_term(x, p)
        a, b = hi, lo
        xs = np.linspace(hi, lo, 4097)
        for i in range(len(xs) - 1):
            if f(xs[i]) * f(xs[i + 1]) < 0:
                a, b = xs[i + 1], xs[i]
                break
        for _ in range(200):
            m = 0.5 * (a + b)
            if f(a) * f(m) <= 0:
                b = m
            else:
                a = m
        assert abs(root - 0.5 * (a + b)) < 1e-9
        assert p.i_thrh == root

    def test_equal_peaks_near_midpoint(self):
        p = make_params(sigma_r=0.08, a=-0.22, sigma_g=0.08, mu=0.70)
        # equalize component peak heights
        peak_r = p.alpha_r * np.exp(-0.5) / p.sigma_r
        peak_g = p.alpha_g / (np.sqrt(2 * np.pi) * p.sigma_g)
        p.alpha_g *= peak_r / peak_g
        root = find_threshold(p)
        mid = 0.5 * ((p.sigma_r - p.a) + p.mu)
        assert abs(root - mid) < 0.05

    def test_bracketed_between_modes(self):
        p = make_params(sigma_r=0.04, a=-0.06, sigma_g=0.03, mu=0.9)
        root = find_threshold(p)
        assert p.sigma_r - p.a < root < p.mu

    def test_degenerate_component_rejected(self):
        with pytest.raises(ThresholdError):
            find_threshold(make_params(alpha_g=0.0))

    def test_amplitude_linearity(self):
        p = make_params()
        root = find_threshold(p)
        k = 3.7
        scaled = make_params(alpha_r=p.alpha_r * k, alpha_g=p.alpha_g * k)
        root_scaled = find_threshold(scaled)
        assert abs(root - root_scaled) < 1e-12
        x = np.linspace(0, 1.2, 301)
        assert np.allclose(mixture(x, scaled), k * mixture(x, p), rtol=1e-12)


@st.composite
def mixtures_and_ranges(draw):
    """A bimodal mixture and an intensity range [lo, hi] to rescale it by."""
    p = make_params(
        alpha_r=draw(st.floats(0.05, 0.2)), sigma_r=draw(st.floats(0.06, 0.15)),
        a=draw(st.floats(-0.25, 0.0)), alpha_g=draw(st.floats(0.05, 0.2)),
        sigma_g=draw(st.floats(0.05, 0.12)), mu=draw(st.floats(0.6, 0.9)),
    )
    lo = draw(st.floats(-5.0, 5.0))
    return p, lo, lo + draw(st.floats(0.01, 100.0))


class TestRescaledInvariance:
    """``rescaled(lo, hi)`` describes the same mixture on x -> (x - lo) / (hi - lo)."""

    @settings(max_examples=100, deadline=None)
    @given(mixtures_and_ranges())
    def test_mixture_and_threshold_follow_the_map(self, case):
        p, lo, hi = case
        q = p.rescaled(lo, hi)
        x = np.linspace(-0.5, 1.5, 401)
        values = mixture(x, p)
        np.testing.assert_allclose(mixture((x - lo) / (hi - lo), q), values,
                                   rtol=1e-9, atol=1e-12 * values.max())
        threshold = find_threshold(p)
        assert find_threshold(q) == pytest.approx((threshold - lo) / (hi - lo),
                                                  rel=1e-9, abs=1e-12)
