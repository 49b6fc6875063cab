import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, least_squares, leastsq

from lgequant import rician
from lgequant.errors import FitError, LgeQuantError, ParameterError, ThresholdError
from lgequant.rician import (
    RelativeProbability,
    RicianMixtureParams,
    build_relative_probability,
    find_threshold,
    fit_mixture,
    gaussian_term,
    mixture,
    rayleigh_shifted,
    _rows,
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
EPS = np.finfo(float).eps


def jacobian(theta, x) -> np.ndarray:
    """The (len(x), 6) Jacobian of ``mixture`` by the packed parameters, as fitted."""
    return np.array(_rows(theta, x)[1:]).T


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
            jac = jacobian(theta, x) * scale
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
        jac = jacobian(theta, x)
        below = x + _unpack(theta).a < 0
        assert below.sum() == 4
        assert np.all(jac[below, :3] == 0.0)
        assert np.all(jac[~below, :3] != 0.0)

    def test_rows_start_with_the_mixture(self):
        rng = np.random.default_rng(21)
        x = np.linspace(-0.3, 1.2, 64)
        for _ in range(25):
            theta = self.random_theta(rng)
            np.testing.assert_allclose(_rows(theta, x)[0], mixture(x, _unpack(theta)),
                                       rtol=1e-13, atol=1e-15)
            rayleigh = _rows(theta[:3], x)
            np.testing.assert_array_equal(rayleigh[1:], _rows(theta, x)[1:4])
            np.testing.assert_allclose(rayleigh[0], rayleigh_shifted(x, _unpack(theta)),
                                       rtol=1e-13, atol=1e-15)

    def test_every_least_squares_call_is_given_the_jacobian(self, monkeypatch):
        calls = []
        rows = rician._rows

        def spy(theta, x):
            out = rows(theta, x)
            calls.append((len(theta), len(out)))
            return out

        monkeypatch.setattr(rician, "_rows", spy)
        rp, _ = curve_from_params(make_params())
        solves = []
        solve = rician._solve
        monkeypatch.setattr(rician, "_solve", lambda *args: solves.append(args) or solve(*args))
        fit_mixture(rp)
        assert len(solves) == 3
        # Every evaluation yields the residuals' values and one derivative row per parameter.
        assert calls and all(n_rows == n_params + 1 for n_params, n_rows in calls)

    def test_no_residual_is_evaluated_outside_the_solves(self, monkeypatch):
        # Each solve returns the sum of squares at its solution.
        depth, inside, outside = [], [], []
        solve = rician._solve

        def spy(*args):
            depth.append(None)
            try:
                return solve(*args)
            finally:
                depth.pop()

        def counted(component):
            def wrapped(*args):
                (inside if depth else outside).append(component.__name__)
                return component(*args)
            return wrapped

        rp, _ = curve_from_params(make_params())
        monkeypatch.setattr(rician, "_solve", spy)
        for name in ("rayleigh_shifted", "gaussian_term", "_rows"):
            monkeypatch.setattr(rician, name, counted(getattr(rician, name)))
        fit_mixture(rp)
        assert inside and outside == []


def oracle_solve(method):
    """A replacement for rician._solve that runs scipy's solver ``method`` on the
    same residuals and Jacobian: MINPACK's Levenberg-Marquardt (``leastsq``) at the
    in-repo solver's tolerances, or least_squares' trf at its defaults."""
    def solve(x, y, theta0):
        def fun(theta):
            return rician._rows(theta, x)[0] - y

        def jac(theta):
            return np.array(rician._rows(theta, x)[1:]).T

        if method == "minpack":
            sol, _, info, _, _ = leastsq(fun, theta0, Dfun=jac, full_output=True, ftol=1e-8,
                                         xtol=1e-8, gtol=1e-8, maxfev=rician.MAX_NFEV)
            return sol, float(np.sum(info["fvec"] ** 2))
        sol = least_squares(fun, theta0, jac=jac, method="trf", max_nfev=rician.MAX_NFEV)
        return sol.x, float(np.sum(sol.fun ** 2))
    return solve


def fit_with(method, rp, monkeypatch) -> RicianMixtureParams:
    with monkeypatch.context() as patch:
        patch.setattr(rician, "_solve", oracle_solve(method))
        return fit_mixture(rp)


class TestAgainstMinpack:
    """On the recorded curves the in-repo Levenberg-Marquardt takes MINPACK's path, the
    solver it replaced, to MINPACK's minimum and threshold."""

    # Worst case 2.2e-16, one rounding: the two solve the same steps in other orders.
    RTOL = 1e-9
    # No fit stops more than this fraction above MINPACK's sum of squares.
    FTOL = 1e-9

    @pytest.mark.parametrize("curve", RECORDED, ids=RECORDED_IDS)
    def test_recorded_curves(self, curve, monkeypatch):
        rp = recorded_curve(curve)
        fitted, former = fit_mixture(rp), fit_with("minpack", rp, monkeypatch)
        for name in PARAM_NAMES:
            assert getattr(fitted, name) == pytest.approx(getattr(former, name),
                                                          rel=self.RTOL), name
        assert fitted.fit_residual <= former.fit_residual * (1 + self.FTOL)
        assert find_threshold(fitted) == pytest.approx(find_threshold(former), rel=self.RTOL)


class TestAgainstTrf:
    """On the recorded curves the in-repo Levenberg-Marquardt reaches the minimum that
    fit_mixture's first solver, scipy's trf, reached."""

    # Worst case 8.0e-6, on cli_staged192 seed 3.
    RTOL = 1e-4
    # Both solvers stop once a step cuts the sum of squares by less than this
    # fraction, so their minima can differ by about as much.
    FTOL = 1e-8

    @pytest.mark.parametrize("curve", RECORDED, ids=RECORDED_IDS)
    def test_recorded_curves(self, curve, monkeypatch):
        rp = recorded_curve(curve)
        fitted, former = fit_mixture(rp), fit_with("trf", rp, monkeypatch)
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
    """A solve that reaches rician.MAX_NFEV returns its last accepted point without a
    warning."""

    @pytest.mark.parametrize("cap", [2, 3, 5])
    @pytest.mark.parametrize("curve", [0, 9], ids=lambda i: RECORDED_IDS[i])
    def test_capped_fit_returns_or_raises_fit_error(self, cap, curve, monkeypatch):
        solves, seen = [], []           # seen: (sum of squares, point) of each evaluation
        y = [None]                      # the values the running solve fits
        rows, solve = rician._rows, rician._solve

        def counted(theta, x):
            out = rows(theta, x)
            residuals = out[0] - y[0]
            seen.append((float(residuals @ residuals), np.array(theta)))
            return out

        def spy(x, values, theta0):
            seen.clear()
            y[:] = [values]
            theta, cost = solve(x, values, theta0)
            solves.append(len(seen))
            # The point returned is the best one evaluated, and its sum is returned.
            best = min(seen, key=lambda s: s[0])
            assert cost == best[0] and np.array_equal(theta, best[1])
            return theta, cost

        monkeypatch.setattr(rician, "MAX_NFEV", cap)
        monkeypatch.setattr(rician, "_rows", counted)
        monkeypatch.setattr(rician, "_solve", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fitted = fit_mixture(recorded_curve(RECORDED[curve]))
                assert fitted.fit_residual >= 0
            except FitError:
                pass
        assert len(solves) == 3
        assert all(nfev <= cap for nfev in solves)
        assert any(nfev == cap for nfev in solves)          # stopped at the cap


class TestDegenerateCurves:
    """A histogram of a few spikes or of noise ends in a fit or a typed error. Steps on
    such curves overflow (numpy warns), and a solver must not end in a bare exception."""

    @staticmethod
    def fit_or_typed_error(counts, hi):
        rp = RelativeProbability(np.linspace(0.0, hi, len(counts)), counts / counts.max())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                find_threshold(fit_mixture(rp))
            except LgeQuantError:
                pass

    @pytest.mark.parametrize("n, hi, spikes", [
        (64, 1781.0553609290446, {4: 27, 28: 15, 49: 67}),   # OverflowError under leastsq
        (12, 2881.876874843968, {2: 24, 4: 83}),              # OverflowError under leastsq
        (32, 125.70015085534939, {7: 7, 15: 76, 29: 71}),
    ])
    def test_spikes(self, n, hi, spikes):
        counts = np.zeros(n)
        counts[list(spikes)] = list(spikes.values())
        self.fit_or_typed_error(counts, hi)

    def test_seeded_noise_and_spikes(self):
        rng = np.random.default_rng(41)
        for i in range(8):
            n = int(rng.choice([12, 16, 32, 64, 128]))
            counts = rng.integers(0, 50, n).astype(float)
            if i % 2:
                counts[rng.random(n) < 0.9] = 0.0
            if counts.max() > 0:
                self.fit_or_typed_error(counts, rng.uniform(1.0, 3000.0))


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
    """The first find_threshold: a Python loop over the grid intervals, and brentq."""
    f = lambda x: rayleigh_shifted(x, p) - gaussian_term(x, p)
    grid = np.linspace(p.mu, p.rayleigh_mode, 2049)
    fv = f(grid)
    for i in range(len(grid) - 1):
        if fv[i] == 0.0:
            return float(grid[i])
        if fv[i] * fv[i + 1] < 0:
            return float(brentq(f, grid[i + 1], grid[i], xtol=1e-15, rtol=8.9e-16))
    return None


def same_root(found, expected) -> bool:
    """Whether two refinements of one bracketed root agree: find_threshold stops
    within 4 eps |x| of the root, brentq within 2 (1e-15 + 8.9e-16 |x|)."""
    return abs(found - expected) <= 4 * EPS * abs(found) + 2 * (1e-15 + 8.9e-16 * abs(expected))


class TestFindThresholdScan:
    """The array scan finds the same interval as the former loop, and the Illinois
    refinement the same root as brentq."""

    @pytest.mark.parametrize("kw", [
        {}, dict(sigma_r=0.08, a=-0.22, sigma_g=0.08, mu=0.70),
        dict(sigma_r=0.04, a=-0.06, sigma_g=0.03, mu=0.9), dict(alpha_r=0.12 * 3.7,
                                                               alpha_g=0.09 * 3.7),
    ])
    def test_suite_parameters(self, kw):
        p = make_params(**kw)
        assert same_root(find_threshold(p), scan_root_loop(p))

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
                assert same_root(find_threshold(p), expected)
                found += 1
            else:
                with pytest.raises(ThresholdError):
                    find_threshold(p)
        assert found > 100

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.01, 0.3), st.floats(0.03, 0.2), st.floats(-0.3, 0.1),
           st.floats(0.01, 0.3), st.floats(0.02, 0.3), st.floats(0.3, 1.0),
           st.floats(-3.0, 3.0))
    def test_matches_brentq(self, alpha_r, sigma_r, a, alpha_g, sigma_g, mu, log_scale):
        """On any mixture, at any intensity scale, the root brentq finds in the scanned
        interval, within the two refinements' tolerances."""
        s = 10.0 ** log_scale
        p = make_params(alpha_r=alpha_r * s, sigma_r=sigma_r * s, a=a * s,
                        alpha_g=alpha_g * s, sigma_g=sigma_g * s, mu=mu * s)
        expected = scan_root_loop(p) if p.mu > p.rayleigh_mode else None
        if expected is not None and p.rayleigh_mode < expected < p.mu:
            assert same_root(find_threshold(p), expected)
        else:
            with pytest.raises(ThresholdError):
                find_threshold(p)


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
