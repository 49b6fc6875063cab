import hashlib
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import lgequant
import lgequant.phantom
from lgequant.errors import ContourError, GeometryError, ParameterError
from lgequant.geometry import SlicePose, pixel_to_patient
from lgequant.phantom import (
    EDGE_SOFTNESS_MM,
    EPI_RADIUS_APEX_MM,
    INTENSITY_BACKGROUND,
    INTENSITY_BLOOD_POOL,
    INTENSITY_INFARCT,
    INTENSITY_MYOCARDIUM,
    INTENSITY_SCALE,
    LA_VIEWS,
    SLICE_SPACING_MM,
    TEXTURE_SEED,
    InfarctWedge,
    MvoPocket,
    PhantomConfig,
    angle_about_axis_deg,
    default_wedge_config,
    generate,
    _apply_noise,
    _pixel_axes,
    _radii,
    _sa_pose,
    _smoothstep,
)
from lgequant.raster import circle_polygon, polygon_mask


class TestConfigValidation:
    def test_rejects_wedge_outside_stack(self):
        cfg = PhantomConfig(wedges=(InfarctWedge(0, 9, 0.0, 60.0),))
        with pytest.raises(ValueError):
            generate(cfg)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.5), ("noise_sigma", -1.0), ("noise_sigma", float("nan")),
        ("noise_sigma", float("inf")), ("noise_sigma", 1e308),
    ])
    def test_rejects_bad_seed_and_noise(self, field, value):
        with pytest.raises(ParameterError, match=field.replace("_", " ")):
            generate(default_wedge_config(**{field: value}))

    def test_rejects_unknown_mvo_wedge(self):
        cfg = PhantomConfig(mvo_pockets=(MvoPocket(wedge=0, center_angle_deg=0, center_slice=1),))
        with pytest.raises(ValueError):
            generate(cfg)

    @pytest.mark.parametrize("cfg, fragment", [
        (PhantomConfig(n_sa=2.5), "n_sa must be a positive integer"),
        (replace(default_wedge_config(), mvo_pockets=(
            MvoPocket(wedge=0, center_angle_deg=30.0, center_slice=0.0, radius_mm=-1),)),
         "MVO pocket radius must be positive"),
        (PhantomConfig(rows="96"), "rows must be a positive integer"),
        (PhantomConfig(cols=0), "cols must be a positive integer"),
        (PhantomConfig(rows=True), "rows must be a positive integer"),
        (PhantomConfig(ps_mm=0), "ps_mm must be positive and finite"),
        (PhantomConfig(ps_mm=float("nan")), "ps_mm must be positive and finite"),
        (PhantomConfig(ps_mm="1.25"), "ps_mm must be positive and finite"),
        (PhantomConfig(gains=(-1.0,) * 6), "gain must be positive and finite"),
        (PhantomConfig(gains=(1.0,) * 5 + (float("inf"),)), "gain must be positive and finite"),
        (PhantomConfig(gains=(1.0,) * 5), "gains must list one factor per SA slice"),
        (PhantomConfig(translations_mm=((0.0, 0.0),) * 8), "translation must list three numbers"),
        (PhantomConfig(translations_mm=((0.0, 0.0, float("nan")),) * 8),
         "translation must be finite"),
        (PhantomConfig(wedges=(InfarctWedge(0, 1, float("nan"), 60.0),)),
         "wedge angle_lo_deg must be finite"),
        (PhantomConfig(wedges=(InfarctWedge(1, 0, 0.0, 60.0),)), "wedge slice_hi must be"),
        (PhantomConfig(wedges=((0, 1, 0.0, 60.0),)), "wedges must list InfarctWedge entries"),
        (replace(default_wedge_config(), mvo_pockets=(MvoPocket(0, float("nan"), 0.0),)),
         "MVO pocket center_angle_deg must be finite"),
        (replace(default_wedge_config(), mvo_pockets=(MvoPocket(0, 30.0, float("inf")),)),
         "MVO pocket center_slice must be finite"),
    ], ids=["fractional_n_sa", "negative_mvo_radius", "string_rows", "zero_cols", "bool_rows",
            "zero_ps", "nan_ps", "string_ps", "negative_gains", "infinite_gain", "short_gains",
            "two_vector_translations", "nan_translation", "nan_wedge_angle",
            "reversed_wedge_slices", "tuple_wedge", "nan_mvo_angle", "infinite_mvo_slice"])
    def test_rejects_config_it_cannot_paint(self, cfg, fragment):
        with pytest.raises(ParameterError, match=fragment):
            generate(cfg)

    def test_config_keeps_only_the_varied_settings(self):
        assert [f.name for f in fields(PhantomConfig)] == [
            "n_sa", "rows", "cols", "ps_mm", "wedges", "mvo_pockets", "gains",
            "translations_mm", "noise_sigma", "seed"]

    def test_contour_enclosing_no_pixel_fails_in_generate(self):
        # At 10 mm pixels the apical endo circle holds no pixel centre; the
        # truth masks come from the same rasterization the pipeline runs.
        with pytest.raises(ContourError, match="encloses no pixels"):
            generate(PhantomConfig(ps_mm=10.0))


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
            vals = sl.pixels / INTENSITY_SCALE
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

    @pytest.mark.parametrize("cfg, calls", [(default_wedge_config(), 8),
                                            (PhantomConfig(), 0)], ids=["wedge", "no_wedge"])
    def test_one_wedge_angle_per_painted_slice(self, monkeypatch, cfg, calls):
        seen = []

        def counted(x, y):
            seen.append(1)
            return angle_about_axis_deg(x, y)

        monkeypatch.setattr(lgequant.phantom, "angle_about_axis_deg", counted)
        generate(cfg)
        assert len(seen) == calls   # 6 SA slices + 2 LA views, or none without wedges

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


# --- reference painter ------------------------------------------------------
# The point-array painter the phantom used before it painted on separable pose
# axes: every pixel's patient point from pixel_to_patient, and every background
# blob a full-image exp. generate must reproduce its stored pixels and truth
# byte for byte.

def _ref_points(pose):
    rr, cc = np.meshgrid(np.arange(pose.rows, dtype=float), np.arange(pose.cols, dtype=float),
                         indexing="ij")
    return pixel_to_patient(pose, rr, cc)


def _ref_la_pose(cfg, view):
    z_lo = -15.0
    z_hi = cfg.apex_z_mm + EPI_RADIUS_APEX_MM + 15.0
    rows = int(np.ceil((z_hi - z_lo) / cfg.ps_mm)) + 1
    half_c = (cfg.cols - 1) / 2.0 * cfg.ps_mm
    if view == "LA4C":
        ipp, iop_col = [-half_c, 0.0, z_lo], [1.0, 0.0, 0.0]
    else:
        ipp, iop_col = [0.0, -half_c, z_lo], [0.0, 1.0, 0.0]
    return SlicePose(ipp=np.array(ipp), iop_row=np.array([0.0, 0.0, 1.0]),
                     iop_col=np.array(iop_col), ps_row=cfg.ps_mm, ps_col=cfg.ps_mm,
                     rows=rows, cols=cfg.cols)


def _ref_background(cfg, pts):
    rng = np.random.default_rng(TEXTURE_SEED)
    n_blobs = 60
    fov = max(cfg.rows, cfg.cols) * cfg.ps_mm / 2.0
    centers = np.column_stack([
        rng.uniform(-fov, fov, n_blobs),
        rng.uniform(-fov, fov, n_blobs),
        rng.uniform(-20.0, cfg.apex_z_mm + 30.0, n_blobs),
    ])
    widths = rng.uniform(4.0, 10.0, n_blobs)
    amps = rng.uniform(-0.12, 0.12, n_blobs)
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    out = np.full(pts.shape[:-1], INTENSITY_BACKGROUND)
    for c, w, a in zip(centers, widths, amps):
        d2 = (x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2
        out = out + a * np.exp(-d2 / (2.0 * w * w))
    for _ in range(4):
        p0 = np.array([
            rng.uniform(-0.8 * fov, 0.8 * fov),
            rng.uniform(-0.8 * fov, 0.8 * fov),
            rng.uniform(0.0, cfg.apex_z_mm),
        ])
        u = rng.normal(size=3)
        u[2] = abs(u[2]) + 0.8
        u = u / np.linalg.norm(u)
        rel = np.stack([x - p0[0], y - p0[1], z - p0[2]], axis=-1)
        along = rel @ u
        d = np.linalg.norm(rel - np.multiply.outer(along, u), axis=-1)
        out = out + 0.22 * _smoothstep((4.0 - d) / 1.5)
    _, rp = _radii(cfg, z)
    for phi0, pitch in ((20.0, 0.07), (200.0, -0.07)):
        phi = np.radians(phi0) + pitch * z
        helix_r = rp + 3.0
        d = np.hypot(x + helix_r * np.cos(phi), y - helix_r * np.sin(phi))
        out = out + 0.25 * _smoothstep((3.5 - d) / 1.0)
    return np.clip(out, 0.01, None)


def _ref_tissue_mod(pts, phase, amp, z_amp=0.6):
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    return (1.0 + amp * np.sin(0.23 * x + phase) * np.cos(0.19 * y + 0.7 * phase)
            + z_amp * amp * np.sin(0.11 * z + 1.3 * phase))


def _ref_papillary_weight(cfg, pts):
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    re, _ = _radii(cfg, z)
    z_mid, z_half = 0.5 * cfg.apex_z_mm, 0.3 * cfg.apex_z_mm
    w_z = _smoothstep((z_half + 3.0 - np.abs(z - z_mid)) / 3.0)
    frac = 0.35 + 0.35 * np.clip((z - (z_mid - z_half)) / (2 * z_half + 1e-9), 0.0, 1.0)
    weight = np.zeros(pts.shape[:-1])
    for phi in (135.0, 315.0):
        rad = np.radians(phi)
        d = np.hypot(x + frac * re * np.cos(rad), y - frac * re * np.sin(rad))
        weight = np.maximum(weight, _smoothstep((3.6 - d) / 1.0))
    return weight * w_z * (np.hypot(x, y) < re)


def _ref_wedge_mask(cfg, w, pts):
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    dz = SLICE_SPACING_MM
    re, rp = _radii(cfg, z)
    r = np.hypot(x, y)
    theta = angle_about_axis_deg(x, y)
    lo, hi = w.angle_lo_deg % 360.0, w.angle_hi_deg % 360.0
    in_angle = (theta >= lo) & (theta < hi) if lo <= hi else (theta >= lo) | (theta < hi)
    in_depth = r <= re + w.depth_frac * (rp - re)
    return ((z >= w.slice_lo * dz - 0.5 * dz) & (z <= w.slice_hi * dz + 0.5 * dz)
            & in_angle & in_depth)


def _ref_mvo_mask(cfg, m, pts):
    zc = m.center_slice * SLICE_SPACING_MM
    re_c, _ = _radii(cfg, zc)
    rad = np.radians(m.center_angle_deg)
    center = np.array([-float(re_c + 0.6 * m.radius_mm) * np.cos(rad),
                       float(re_c + 0.6 * m.radius_mm) * np.sin(rad), zc])
    d2 = np.sum((pts - center) ** 2, axis=-1)
    return (d2 <= m.radius_mm ** 2) & _ref_wedge_mask(cfg, cfg.wedges[m.wedge], pts)


def _ref_infarct(cfg, pts, myo_mask):
    wedge_any = np.zeros(pts.shape[:-1], dtype=bool)
    for w in cfg.wedges:
        wedge_any |= _ref_wedge_mask(cfg, w, pts)
    return wedge_any & myo_mask


def _ref_paint(cfg, pts, bp_mask, myo_mask):
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    r = np.hypot(x, y)
    re, rp = _radii(cfg, z)
    e = EDGE_SOFTNESS_MM
    bp = INTENSITY_BLOOD_POOL * _ref_tissue_mod(pts, 0.9, 0.02, z_amp=0.0)
    myo = INTENSITY_MYOCARDIUM * _ref_tissue_mod(pts, 0.4, 0.05)
    inf = INTENSITY_INFARCT * _ref_tissue_mod(pts, 1.7, 0.03)
    cavity = myo + _smoothstep((re - r) / e) * (bp - myo)
    cavity = cavity + _ref_papillary_weight(cfg, pts) * (myo - cavity)
    outside = myo + _smoothstep((r - rp) / e) * (_ref_background(cfg, pts) - myo)
    values = np.where(bp_mask, cavity, outside)
    values = np.where(myo_mask, myo, values)
    values = np.where(_ref_infarct(cfg, pts, myo_mask), inf, values)
    for m in cfg.mvo_pockets:
        values = np.where(_ref_mvo_mask(cfg, m, pts) & myo_mask, myo, values)
    return values


def _ref_generate(cfg):
    """(stored SA + LA pixels, infarct mask, endo, epi, true ipps) by the reference painter."""
    rng = np.random.default_rng(cfg.seed)
    gains = np.ones(cfg.n_sa) if cfg.gains is None else np.asarray(cfg.gains, dtype=float)
    center_r, center_c = (cfg.rows - 1) / 2.0, (cfg.cols - 1) / 2.0
    values, infarct, endo_polys, epi_polys, poses = [], [], [], [], []
    for k in range(cfg.n_sa):
        pose = _sa_pose(cfg, k)
        re_k, rp_k = _radii(cfg, k * SLICE_SPACING_MM)
        endo = circle_polygon(center_r, center_c, float(re_k) / cfg.ps_mm)
        epi = circle_polygon(center_r, center_c, float(rp_k) / cfg.ps_mm)
        bp_mask = polygon_mask(endo, cfg.rows, cfg.cols)
        myo_mask = polygon_mask(epi, cfg.rows, cfg.cols) & ~bp_mask
        pts = _ref_points(pose)
        values.append(_ref_paint(cfg, pts, bp_mask, myo_mask) * gains[k])
        infarct.append(_ref_infarct(cfg, pts, myo_mask))
        endo_polys.append(endo)
        epi_polys.append(epi)
        poses.append(pose)
    for view in LA_VIEWS:
        pose = _ref_la_pose(cfg, view)
        pts = _ref_points(pose)
        r = np.hypot(pts[..., 0], pts[..., 1])
        re, rp = _radii(cfg, pts[..., 2])
        values.append(_ref_paint(cfg, pts, r < re, (r >= re) & (r < rp)))
        poses.append(pose)
    stored = [np.round(np.clip(_apply_noise(v, cfg.noise_sigma, rng) * INTENSITY_SCALE,
                               0.0, 65535.0)) for v in values]
    return stored, np.array(infarct), endo_polys, epi_polys, np.array([p.ipp for p in poses])


_TWO_POCKETS = replace(
    default_wedge_config(seed=4, noise_sigma=0.05),
    wedges=(InfarctWedge(0, 1, 0.0, 60.0), InfarctWedge(2, 4, 150.0, 230.0, depth_frac=0.7)),
    mvo_pockets=(MvoPocket(wedge=0, center_angle_deg=30.0, center_slice=0.0, radius_mm=4.5),
                 MvoPocket(wedge=1, center_angle_deg=190.0, center_slice=3.0, radius_mm=3.5)),
)


class TestPainterOracle:
    """generate paints on pose axes what the point-array painter paints, byte for byte."""

    @pytest.mark.parametrize("cfg", [
        default_wedge_config(seed=1, noise_sigma=0.0),
        default_wedge_config(seed=2, noise_sigma=0.08),
        PhantomConfig(seed=3),
        replace(default_wedge_config(seed=5), translations_mm=tuple(
            tuple(v) for v in np.random.default_rng(5).uniform(-4.0, 4.0, (8, 3)))),
        replace(default_wedge_config(seed=6), wedges=(
            InfarctWedge(0, 2, angle_lo_deg=300.0, angle_hi_deg=400.0, depth_frac=0.5),),
            mvo_pockets=()),
        _TWO_POCKETS,
        replace(default_wedge_config(seed=7), n_sa=1, wedges=(InfarctWedge(0, 0, 10.0, 80.0),),
                mvo_pockets=(MvoPocket(wedge=0, center_angle_deg=40.0, center_slice=0.0),)),
        replace(default_wedge_config(seed=8), rows=72, cols=88, ps_mm=1.5),
    ], ids=["wedge_noise0", "wedge_noise008", "clean", "translated", "wrapping_partial_wedge",
            "two_mvo_pockets", "one_sa_slice", "rows_ne_cols"])
    def test_generate_equals_point_array_painter(self, cfg):
        ds, truth = generate(cfg)
        stored, infarct, endo, epi, true_ipps = _ref_generate(cfg)
        slices = ds.sa_slices + ds.la_slices
        assert len(slices) == len(stored)
        for got, want in zip(slices, stored):
            assert got.pixels.tobytes() == want.tobytes()
        assert truth.infarct_mask.tobytes() == infarct.tobytes()
        assert truth.true_ipps.tobytes() == true_ipps.tobytes()
        for got, want in zip(truth.contours.endo + truth.contours.epi, endo + epi):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_pixel_axes_are_pixel_to_patient(self):
        cfg = replace(default_wedge_config(), rows=9, cols=13, n_sa=3)
        for pose in [_sa_pose(cfg, k) for k in range(3)] + [_ref_la_pose(cfg, v)
                                                            for v in ("LA4C", "LA2C")]:
            pts = _ref_points(pose)
            for axis, want in zip(_pixel_axes(pose), np.moveaxis(pts, -1, 0)):
                assert max(axis.shape) < pose.rows * pose.cols
                assert np.broadcast_to(axis, want.shape).tobytes() == want.tobytes()

    def test_pixel_axes_reject_oblique_pose(self):
        c, s = np.cos(0.3), np.sin(0.3)
        pose = SlicePose(ipp=np.zeros(3), iop_row=np.array([c, s, 0.0]),
                         iop_col=np.array([-s, c, 0.0]), ps_row=1.0, ps_col=1.0, rows=4, cols=4)
        with pytest.raises(GeometryError, match="patient axes"):
            _pixel_axes(pose)


def _phantom_digest(cfg) -> str:
    ds, truth = generate(cfg)
    h = hashlib.sha256()
    for s in ds.sa_slices + ds.la_slices:
        h.update(s.pixels.tobytes())
    h.update(truth.infarct_mask.tobytes())
    return h.hexdigest()


_BLAS_CFG = replace(default_wedge_config(seed=9), rows=160, cols=160, ps_mm=0.75)


def test_one_blas_thread_paints_the_same_bytes():
    # The benchmark pins BLAS to one thread; the blob sum is a matrix product,
    # so its bytes must not depend on the thread count.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_phantom import _BLAS_CFG, _phantom_digest; "
            "print(_phantom_digest(_BLAS_CFG))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(lgequant.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == _phantom_digest(_BLAS_CFG)
