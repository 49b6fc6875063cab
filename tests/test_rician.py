import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)


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
