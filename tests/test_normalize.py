import numpy as np
import pytest

from lgequant import normalize
from lgequant.dataset import ContourSet
from lgequant.errors import ContourError
from lgequant.normalize import iterate_normalization, lv_voxels
from lgequant.phantom import PhantomConfig, default_wedge_config, generate
from lgequant.raster import circle_polygon, contour_masks
from lgequant.realign import middle_slice_index
from lgequant.rician import build_relative_probability, find_threshold


def square(lo, hi):
    return np.array([[lo, lo], [lo, hi], [hi, hi], [hi, lo]], dtype=float)


def brute_force_inside(poly, rows, cols):
    """Independent even-odd scan, written as a plain per-pixel loop."""
    out = np.zeros((rows, cols), dtype=bool)
    n = len(poly)
    for r in range(rows):
        for c in range(cols):
            inside = False
            for i in range(n):
                r1, c1 = poly[i]
                r2, c2 = poly[(i + 1) % n]
                if (r1 > r) != (r2 > r):
                    if c < c1 + (r - r1) * (c2 - c1) / (r2 - r1):
                        inside = not inside
            out[r, c] = inside
    return out


def phantom_stack(gains=None, noise=0.04, seed=0):
    cfg = PhantomConfig(noise_sigma=noise, seed=seed,
                        gains=gains if gains is None else tuple(gains))
    ds, truth = generate(cfg)
    stack = np.stack([s.pixels for s in ds.sa_slices])
    return stack, truth.contours, cfg


class TestLvVoxels:
    def test_counts_interior_pixels(self):
        stack = np.zeros((3, 10, 10))
        epi = [square(2.5, 5.5)] * 3            # encloses 3x3 pixel centers
        endo = [square(3.2, 4.8)] * 3
        contours = ContourSet(endo=endo, epi=epi)
        assert lv_voxels(stack, contour_masks(contours, stack.shape)).size == 27

    def test_missing_contour_rejected(self):
        stack = np.zeros((3, 10, 10))
        contours = ContourSet(endo=[square(3.2, 4.8)] * 2, epi=[square(2.5, 5.5)] * 2)
        with pytest.raises(ContourError):
            lv_voxels(stack, contour_masks(contours, stack.shape))

    def test_degenerate_polygon_rejected(self):
        stack = np.zeros((1, 10, 10))
        flat = np.array([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
        with pytest.raises(ContourError):
            lv_voxels(stack, contour_masks(ContourSet(endo=[flat], epi=[square(2.5, 5.5)]),
                                         stack.shape))

    def test_circle_matches_brute_force(self):
        poly = circle_polygon(31.5, 31.5, 10.0, n_vertices=128)
        from lgequant.raster import polygon_mask

        fast = polygon_mask(poly, 64, 64)
        slow = brute_force_inside(poly, 64, 64)
        assert np.array_equal(fast, slow)
        assert fast.sum() == slow.sum() > 280


class TestIterateNormalization:
    def test_consistent_stack_converges_first_iteration(self):
        stack, contours, _ = phantom_stack(noise=0.0)
        result = iterate_normalization(stack, contour_masks(contours, stack.shape))
        assert result.converged
        assert result.iterations == 1
        assert np.max(np.abs(result.factors_per_iteration[0] - 1.0)) < 0.01

    def test_known_gains_recovered(self):
        gains = [0.8, 0.9, 1.0, 1.1, 1.2, 1.05]
        stack, contours, _ = phantom_stack(gains=gains)
        result = iterate_normalization(stack, contour_masks(contours, stack.shape))
        assert result.converged
        # after convergence the per-slice BP means agree within 1 percent
        last = result.factors_per_iteration[-1]
        assert np.max(np.abs(last - 1.0)) < 0.01

    def test_output_range_and_extremes(self):
        stack, contours, _ = phantom_stack(gains=[1.1, 0.9, 1.0, 1.2, 0.8, 1.0])
        result = iterate_normalization(stack, contour_masks(contours, stack.shape))
        assert result.stack.min() == 0.0
        assert result.stack.max() == 1.0

    def test_idempotent_on_converged_output(self):
        stack, contours, _ = phantom_stack(gains=[0.85, 0.95, 1.0, 1.1, 1.15, 1.0])
        first = iterate_normalization(stack, contour_masks(contours, stack.shape))
        second = iterate_normalization(first.stack, contour_masks(contours, first.stack.shape))
        assert second.iterations == 1
        assert np.max(np.abs(second.factors_per_iteration[0] - 1.0)) < 0.01

    def test_scale_equivariance(self):
        stack, contours, _ = phantom_stack(gains=[0.9, 1.0, 1.1, 1.0, 0.95, 1.05])
        r1 = iterate_normalization(stack, contour_masks(contours, stack.shape))
        r2 = iterate_normalization(stack * 7.3, contour_masks(contours, stack.shape))
        assert np.allclose(r1.stack, r2.stack, atol=1e-9)

    def test_spread_non_increasing(self, monkeypatch):
        gains = [0.8, 0.9, 1.0, 1.1, 1.2, 1.0]
        stack, contours, _ = phantom_stack(gains=gains)
        monkeypatch.setattr(normalize, "EPSILON", 1e-3)
        monkeypatch.setattr(normalize, "MAX_ITER", 6)
        result = iterate_normalization(stack, contour_masks(contours, stack.shape))
        spreads = [float(np.max(f) / np.min(f)) for f in result.factors_per_iteration]
        # strictly decreasing while converging; small wobble allowed once the
        # factors sit at the fit-noise floor
        for early, late in zip(spreads, spreads[1:]):
            assert late <= early * 1.005
        assert spreads[-1] < spreads[0]

    def test_reference_factor_is_one(self):
        stack, contours, _ = phantom_stack(gains=[0.8, 0.9, 1.0, 1.1, 1.2, 1.0])
        result = iterate_normalization(stack, contour_masks(contours, stack.shape))
        for f in result.factors_per_iteration:
            assert f[result.reference_index] == 1.0

    def test_final_params_in_rescaled_units(self):
        stack, contours, _ = phantom_stack()
        result = iterate_normalization(stack, contour_masks(contours, stack.shape))
        p = result.params
        assert p is not None and p.i_thrh is not None
        assert 0.0 < p.rayleigh_mode < p.i_thrh < p.mu < 1.0


def full_stack_normalization(stack, masks, epsilon, max_iter):
    """The former loop: every iteration masks, thresholds and scales the whole stack."""
    work = np.asarray(stack, dtype=float).copy()
    n_slices = work.shape[0]
    ref = middle_slice_index(n_slices)
    factors_hist = []
    for _ in range(max_iter):
        rp = build_relative_probability(work[masks.epi], n_bins=64)
        params = normalize.fit_mixture(rp)
        i_thrh = find_threshold(params)
        bp_means = np.empty(n_slices)
        for k in range(n_slices):
            bp = masks.endo[k] & (work[k] >= i_thrh)
            bp_means[k] = work[k][bp].mean()
        factors = bp_means[ref] / bp_means
        for k in range(n_slices):
            work[k] *= factors[k]
        factors_hist.append(factors)
        if np.max(np.abs(factors - 1.0)) < epsilon:
            break
    lo, hi = float(work.min()), float(work.max())
    return (work - lo) / (hi - lo), factors_hist, params.rescaled(lo, hi)


class TestLvOnlyLoop:
    """The loop over the LV voxels alone gives the full-stack loop's results bit for bit."""

    @pytest.mark.parametrize("cfg, epsilon, max_iter", [
        (PhantomConfig(noise_sigma=0.08, seed=1,
                       gains=(0.8, 0.9, 1.0, 1.1, 1.2, 1.05)), 0.01, 20),
        (PhantomConfig(n_sa=5, rows=80, cols=72, noise_sigma=0.12, seed=2,
                       gains=(1.2, 0.85, 1.0, 0.95, 1.1)), 0.01, 20),
        (default_wedge_config(seed=3, noise_sigma=0.08), 1e-3, 20),
        # epsilon below the fit's noise floor: stops at max_iter unconverged
        (PhantomConfig(noise_sigma=0.1, seed=4,
                       gains=(0.85, 0.95, 1.0, 1.1, 1.15, 1.0)), 1e-12, 3),
    ], ids=["gains", "odd_grid", "wedge", "max_iter_reached"])
    def test_matches_the_full_stack_loop(self, monkeypatch, cfg, epsilon, max_iter):
        ds, truth = generate(cfg)
        stack = np.stack([s.pixels for s in ds.sa_slices])
        masks = contour_masks(truth.contours, stack.shape)
        monkeypatch.setattr(normalize, "EPSILON", epsilon)
        monkeypatch.setattr(normalize, "MAX_ITER", max_iter)
        result = iterate_normalization(stack, masks)
        work, factors, params = full_stack_normalization(stack, masks, epsilon, max_iter)
        assert result.stack.tobytes() == work.tobytes()
        assert result.iterations == len(factors) > 1
        assert all(np.array_equal(a, b)
                   for a, b in zip(result.factors_per_iteration, factors))
        assert result.params == params
        assert result.converged == (max_iter == 20)

    def test_masks_of_another_shape_are_a_contour_error(self):
        stack, contours, _ = phantom_stack()
        masks = contour_masks(contours, stack.shape)
        with pytest.raises(ContourError, match="do not match the stack"):
            iterate_normalization(stack, masks._replace(endo=masks.endo[:, :-1]))
