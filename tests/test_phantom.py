import numpy as np
import pytest

from lgequant.errors import ParameterError
from lgequant.phantom import (
    InfarctWedge,
    MvoPocket,
    PhantomConfig,
    angle_about_axis_deg,
    default_wedge_config,
    generate,
    _apply_noise,
)
from lgequant.raster import polygon_mask


class TestConfigValidation:
    def test_rejects_endo_outside_epi(self):
        cfg = PhantomConfig(endo_radius_base_mm=26.0, epi_radius_base_mm=25.0)
        with pytest.raises(ValueError):
            generate(cfg)

    def test_rejects_bad_intensity_order(self):
        cfg = PhantomConfig(intensity_infarct=0.2)
        with pytest.raises(ValueError):
            generate(cfg)

    def test_rejects_wedge_outside_stack(self):
        cfg = PhantomConfig(wedges=(InfarctWedge(0, 9, 0.0, 60.0),))
        with pytest.raises(ValueError):
            generate(cfg)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("noise_sigma", -1.0), ("noise_sigma", float("nan")),
        ("noise_sigma", float("inf")),
    ])
    def test_rejects_bad_seed_and_noise(self, field, value):
        with pytest.raises(ParameterError, match=field.replace("_", " ")):
            generate(default_wedge_config(**{field: value}))

    def test_rejects_unknown_mvo_wedge(self):
        cfg = PhantomConfig(mvo_pockets=(MvoPocket(wedge=0, center_angle_deg=0, center_slice=1),))
        with pytest.raises(ValueError):
            generate(cfg)


class TestDeterminism:
    def test_fixed_seed_bitwise_identical(self):
        cfg = default_wedge_config(seed=3, noise_sigma=0.08)
        ds1, tr1 = generate(cfg)
        ds2, tr2 = generate(cfg)
        for a, b in zip(ds1.sa_slices + ds1.la_slices, ds2.sa_slices + ds2.la_slices):
            assert np.array_equal(a.pixels, b.pixels)
            assert np.array_equal(a.pose.ipp, b.pose.ipp)
        assert np.array_equal(tr1.infarct_mask, tr2.infarct_mask)

    def test_different_seed_different_noise(self):
        ds1, _ = generate(default_wedge_config(seed=1, noise_sigma=0.08))
        ds2, _ = generate(default_wedge_config(seed=2, noise_sigma=0.08))
        assert not np.array_equal(ds1.sa_slices[0].pixels, ds2.sa_slices[0].pixels)


class TestTruthConsistency:
    def test_contour_raster_matches_paint_masks(self):
        cfg = default_wedge_config(seed=0, noise_sigma=0.0)
        ds, truth = generate(cfg)
        # Interior of the epi contour minus the endo contour must reproduce
        # the myocardium used for painting: on a noise-free phantom, every
        # myocardial pixel is darker than blood pool and infarct mask is a
        # subset of the myocardium.
        for k, sl in enumerate(ds.sa_slices):
            endo_m = polygon_mask(truth.contours.endo[k], cfg.rows, cfg.cols)
            epi_m = polygon_mask(truth.contours.epi[k], cfg.rows, cfg.cols)
            myo_m = epi_m & ~endo_m
            assert not np.any(truth.infarct_mask[k] & ~myo_m)
            normal_myo = myo_m & ~truth.infarct_mask[k]
            vals = sl.pixels / cfg.intensity_scale
            assert vals[normal_myo].max() < 0.45
            if truth.infarct_mask[k].any():
                infarct_vals = vals[truth.infarct_mask[k]]
                # the MVO pocket stays dark, the rest is hyper-enhanced
                assert np.median(infarct_vals) > 0.6

    def test_zero_config_aligned_and_unit_gain(self):
        ds, truth = generate(PhantomConfig(seed=0))
        ipps = np.array([s.pose.ipp for s in ds.sa_slices + ds.la_slices])
        assert np.allclose(ipps, truth.true_ipps)
        assert np.allclose(truth.gains, 1.0)
        assert not truth.infarct_mask.any()

    def test_translations_move_recorded_ipps_only(self):
        n = 6 + 2
        trans = np.zeros((n, 3))
        trans[0] = [3.0, -2.0, 1.0]
        cfg = PhantomConfig(translations_mm=tuple(map(tuple, trans)))
        ds, truth = generate(cfg)
        base, _ = generate(PhantomConfig())
        assert np.allclose(ds.sa_slices[0].pose.ipp - truth.true_ipps[0], trans[0])
        assert np.array_equal(ds.sa_slices[0].pixels, base.sa_slices[0].pixels)


class TestNoise:
    def test_zero_signal_rayleigh_mean(self):
        rng = np.random.default_rng(11)
        sigma = 0.7
        mags = _apply_noise(np.zeros(100_000), sigma, rng)
        expected = sigma * np.sqrt(np.pi / 2.0)
        assert abs(mags.mean() - expected) / expected < 0.03

    def test_noise_free_is_exact(self):
        cfg = PhantomConfig(noise_sigma=0.0, seed=5)
        ds1, _ = generate(cfg)
        ds2, _ = generate(PhantomConfig(noise_sigma=0.0, seed=99))
        assert np.array_equal(ds1.sa_slices[2].pixels, ds2.sa_slices[2].pixels)


class TestAnatomy:
    def test_angle_convention(self):
        # -x direction (image up) is angle 0; +y is 90 deg.
        assert angle_about_axis_deg(-1.0, 0.0) == 0.0
        assert angle_about_axis_deg(0.0, 1.0) == 90.0
        assert angle_about_axis_deg(1.0, 0.0) == 180.0

    def test_wedge_occupies_configured_slices_only(self):
        cfg = default_wedge_config(noise_sigma=0.0)
        _, truth = generate(cfg)
        assert truth.infarct_mask[0].any() and truth.infarct_mask[1].any()
        assert not truth.infarct_mask[2:].any()

    def test_gains_scale_slices(self):
        gains = (0.8, 0.9, 1.0, 1.1, 1.2, 1.3)
        cfg = PhantomConfig(gains=gains, noise_sigma=0.0)
        ds, _ = generate(cfg)
        base, _ = generate(PhantomConfig(noise_sigma=0.0))
        for k, g in enumerate(gains):
            ratio = ds.sa_slices[k].pixels / np.maximum(base.sa_slices[k].pixels, 1.0)
            inner = ratio[40:56, 40:56]
            assert abs(np.median(inner) - g) < 0.01

    def test_la_views_cover_apex_cap(self):
        ds, _ = generate(PhantomConfig(noise_sigma=0.0))
        la = ds.la_slices[0]
        vals = la.pixels / 2000.0
        # bright cavity visible somewhere in the long-axis view
        assert vals.max() > 0.7
        assert la.pose.rows > 60
