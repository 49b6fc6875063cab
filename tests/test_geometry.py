import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgequant.errors import GeometryError
from lgequant.geometry import (
    _EDGE_EPS,
    IN_PLANE_TOL,
    MAX_REGION_SAMPLES,
    PARALLEL_TOL,
    Line3,
    LineSide,
    PixelAtlas,
    PlanePair,
    RegionPair,
    Roi,
    SliceImage,
    SlicePose,
    bilinear_sample,
    clip_line_to_roi,
    clip_pixel_line,
    contiguous_regions,
    full_image_roi,
    lattice_sample,
    pixel_to_patient,
    plane_intersection,
    sample_line_values,
)


def identity_pose(rows=8, cols=8, ps=1.0, ipp=(0.0, 0.0, 0.0)):
    return SlicePose(
        ipp=np.array(ipp), iop_row=np.array([1.0, 0, 0]), iop_col=np.array([0, 1.0, 0]),
        ps_row=ps, ps_col=ps, rows=rows, cols=cols,
    )


def random_pose(rng, rows=16, cols=12):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return SlicePose(
        ipp=rng.uniform(-50, 50, size=3),
        iop_row=q[:, 0], iop_col=q[:, 1],
        ps_row=rng.uniform(0.5, 2.5), ps_col=rng.uniform(0.5, 2.5),
        rows=rows, cols=cols,
    )


class TestPixelToPatient:
    def test_origin_maps_to_ipp(self):
        pose = identity_pose()
        assert np.allclose(pixel_to_patient(pose, 0, 0), [0, 0, 0])

    def test_identity_orientation(self):
        pose = identity_pose()
        assert np.allclose(pixel_to_patient(pose, 2, 3), [2, 3, 0])

    def test_scaled_row_spacing(self):
        pose = SlicePose(
            ipp=np.array([1.0, 1.0, 1.0]), iop_row=np.array([1.0, 0, 0]),
            iop_col=np.array([0, 1.0, 0]), ps_row=2.0, ps_col=1.0, rows=4, cols=4,
        )
        # ipp + 1*2.0*(1,0,0) = (3,1,1)
        assert np.allclose(pixel_to_patient(pose, 1, 0), [3, 1, 1])

    def test_round_trip_random_poses(self):
        # LineSide.clip maps a line point back to the pixel it came from.
        rng = np.random.default_rng(7)
        for _ in range(50):
            pose = random_pose(rng)
            r = rng.uniform(0, pose.rows - 1)
            c = rng.uniform(0, pose.cols - 1)
            side = LineSide(SliceImage(pose, np.zeros((pose.rows, pose.cols))),
                            full_image_roi(pose), pose.iop_row)
            rr, cc, _ = side.clip(pixel_to_patient(pose, r, c).tolist(), pose.ipp.tolist())
            assert abs(rr - r) < 1e-9 and abs(cc - c) < 1e-9


class TestPlaneIntersection:
    def test_orthogonal_coordinate_planes(self):
        a = identity_pose()  # z = 0
        b = SlicePose(
            ipp=np.zeros(3), iop_row=np.array([0, 1.0, 0]), iop_col=np.array([0, 0, 1.0]),
            ps_row=1.0, ps_col=1.0, rows=8, cols=8,
        )  # x = 0
        line = plane_intersection(a, b)
        assert line is not None
        assert np.allclose(np.abs(line.direction), [0, 1, 0])
        assert abs(line.point[0]) < 1e-12 and abs(line.point[2]) < 1e-12

    def test_parallel_planes_absent(self):
        a = identity_pose(ipp=(0, 0, 0))
        b = identity_pose(ipp=(0, 0, 10))
        assert plane_intersection(a, b) is None

    def test_tilted_plane_points_on_both_planes(self):
        a = identity_pose()  # z = 0
        iop_col = np.array([0, 1.0, 1.0]) / np.sqrt(2)
        b = SlicePose(
            ipp=np.array([0.0, 0.0, 2.0]), iop_row=np.array([1.0, 0, 0]), iop_col=iop_col,
            ps_row=1.0, ps_col=1.0, rows=8, cols=8,
        )  # plane z - y = 2
        line = plane_intersection(a, b)
        assert line is not None
        for t in (0.0, 13.7):
            p = line.at(t)
            assert abs(p @ a.normal - a.normal @ a.ipp) < 1e-9
            assert abs(p @ b.normal - b.normal @ b.ipp) < 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a, b = random_pose(rng), random_pose(rng)
            lab = plane_intersection(a, b)
            lba = plane_intersection(b, a)
            if lab is None:
                assert lba is None
                continue
            assert abs(abs(lab.direction @ lba.direction) - 1.0) < 1e-9
            # point of one line lies on the other
            d = lba.point - lab.point
            off = d - (d @ lab.direction) * lab.direction
            assert np.linalg.norm(off) < 1e-6


class TestClipLineToRoi:
    def test_full_image_row_line(self):
        img = SliceImage(identity_pose(rows=8, cols=8), np.zeros((8, 8)))
        line = Line3(point=np.array([4.0, 0.0, 0.0]), direction=np.array([0, 1.0, 0]))
        interval = clip_line_to_roi(img, full_image_roi(img.pose), line)
        assert interval is not None
        t0, t1 = interval
        assert abs((t1 - t0) - 7.0) < 1e-9

    def test_disjoint_roi(self):
        img = SliceImage(identity_pose(rows=8, cols=8), np.zeros((8, 8)))
        line = Line3(point=np.array([7.0, 0.0, 0.0]), direction=np.array([0, 1.0, 0]))
        roi = Roi(0, 2, 0, 7)
        assert clip_line_to_roi(img, roi, line) is None

    def test_diagonal_endpoints_hit_roi_corners(self):
        img = SliceImage(identity_pose(rows=9, cols=9), np.zeros((9, 9)))
        roi = Roi(2, 6, 2, 6)
        line = Line3(
            point=np.array([0.0, 0.0, 0.0]), direction=np.array([1.0, 1.0, 0]) / np.sqrt(2)
        )
        t0, t1 = clip_line_to_roi(img, roi, line)
        p0, p1 = line.at(t0), line.at(t1)
        assert np.allclose(p0[:2], [2, 2]) and np.allclose(p1[:2], [6, 6])

    def test_out_of_plane_line_rejected(self):
        img = SliceImage(identity_pose(), np.zeros((8, 8)))
        line = Line3(point=np.array([0.0, 0.0, 1.0]), direction=np.array([0, 1.0, 0]))
        with pytest.raises(GeometryError):
            clip_line_to_roi(img, full_image_roi(img.pose), line)


class TestSampleSegment:
    """Bilinear samples along an in-plane line, as realignment takes them."""

    def test_constant_image(self):
        img = SliceImage(identity_pose(), np.full((8, 8), 7.0))
        line = Line3(point=np.array([3.0, 0.0, 0.0]), direction=np.array([0, 1.0, 0]))
        values = sample_line_values(img, line, np.arange(0.0, 7.5, 0.5))
        assert np.allclose(values, 7.0)

    def test_constant_image_random_pose(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pose = random_pose(rng)
            img = SliceImage(pose, np.full((pose.rows, pose.cols), 2.5))
            p0 = pixel_to_patient(pose, pose.rows / 2.0, 0.0)
            line = Line3(point=p0, direction=pose.iop_col)
            ts = np.arange(0.0, (pose.cols - 1) * pose.ps_col, 0.7)
            values = sample_line_values(img, line, ts)
            valid = np.isfinite(values)
            assert valid.sum() >= 2
            assert np.allclose(values[valid], 2.5)

    def test_ramp_gives_arithmetic_sequence(self):
        ramp = np.tile(np.arange(8.0), (8, 1))  # I(r, c) = c
        img = SliceImage(identity_pose(ps=2.0), ramp)
        line = Line3(point=np.array([4.0, 0.0, 0.0]), direction=np.array([0, 1.0, 0]))
        step_mm = 0.5
        values = sample_line_values(img, line, np.arange(0.0, 14.0 + step_mm, step_mm))
        assert np.allclose(np.diff(values), step_mm / 2.0)

    def test_outside_the_image_reads_nan(self):
        img = SliceImage(identity_pose(), np.full((8, 8), 7.0))
        line = Line3(point=np.array([3.0, 0.0, 0.0]), direction=np.array([0, 1.0, 0]))
        values = sample_line_values(img, line, np.array([-1.0, 0.0, 7.0, 8.0]))
        assert np.array_equal(values, [np.nan, 7.0, 7.0, np.nan], equal_nan=True)


# --- oracle: the line geometry written with numpy vectors ---

def _oracle_dot3(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def oracle_plane_intersection(a: SlicePose, b: SlicePose):
    """Intersection line of two slice planes from numpy cross products, or None."""
    n_a, n_b = a.normal, b.normal
    d = np.cross(n_a, n_b)
    norm_d = np.linalg.norm(d)
    if norm_d < PARALLEL_TOL:
        return None
    h_a = _oracle_dot3(n_a, a.ipp)
    h_b = _oracle_dot3(n_b, b.ipp)
    point = (h_a * np.cross(n_b, d) + h_b * np.cross(d, n_a)) / (norm_d * norm_d)
    return Line3(point=point, direction=d / norm_d)


def oracle_patient_to_pixel(pose: SlicePose, point) -> tuple:
    """Fractional (row, col) of an in-plane patient point."""
    d = (np.asarray(point, dtype=float) - pose.ipp).T
    return _oracle_dot3(d, pose.iop_row) / pose.ps_row, _oracle_dot3(d, pose.iop_col) / pose.ps_col


def oracle_pixel_line(pose: SlicePose, line: Line3) -> tuple:
    """The line in pixel coordinates: (r0, dr, c0, dc) per mm of t."""
    r0, c0 = oracle_patient_to_pixel(pose, line.point)
    dr = float(line.direction @ pose.iop_row) / pose.ps_row
    dc = float(line.direction @ pose.iop_col) / pose.ps_col
    return float(r0), dr, float(c0), dc


def oracle_clip_line_to_roi(img: SliceImage, roi: Roi, line: Line3):
    pose = img.pose
    n = pose.normal
    dist = abs(float(n @ (line.point - pose.ipp)))
    if dist > IN_PLANE_TOL:
        raise GeometryError(f"line point is {dist:.3g} mm off the slice plane")
    if abs(float(n @ line.direction)) > 1e-9:
        raise GeometryError("line direction is not parallel to the slice plane")
    if roi.row_max >= pose.rows or roi.col_max >= pose.cols:
        raise GeometryError("ROI exceeds image bounds")
    return clip_pixel_line(*oracle_pixel_line(pose, line), roi)


def oracle_line_values(img: SliceImage, line: Line3, ts) -> np.ndarray:
    r0, dr, c0, dc = oracle_pixel_line(img.pose, line)
    return _reference_bilinear(img.pixels, r0 + ts * dr, c0 + ts * dc)


def _intersecting_pairs(problem):
    """(a, roi on a, b) of every SA-LA and LA-LA pair of an alignment problem."""
    m, slices = len(problem.sa_slices), problem.slices
    rois = problem.sa_rois + [full_image_roi(s.pose) for s in problem.la_slices]
    return [(slices[i], rois[i], slices[j])
            for i in range(len(slices)) for j in range(max(i + 1, m), len(slices))]


class TestLineRoutineOracle:
    def test_shared_routine_equals_the_numpy_oracle_bit_for_bit(self):
        from test_realign import oblique_problem, wedge_problem

        rng = np.random.default_rng(17)
        checked = 0
        for problem in (wedge_problem(), oblique_problem()):
            for a0, roi, b0 in _intersecting_pairs(problem):
                for _ in range(8):
                    a = a0.translated(rng.uniform(-8.0, 8.0, 3))
                    b = b0.translated(rng.uniform(-8.0, 8.0, 3))
                    ref = oracle_plane_intersection(a.pose, b.pose)
                    pair = PlanePair(a.pose, b.pose)
                    point = pair.point(a.pose.ipp.tolist(), b.pose.ipp.tolist())
                    assert point == ref.point.tolist()
                    assert np.array_equal(pair.direction, ref.direction)
                    line = plane_intersection(a.pose, b.pose)
                    assert np.array_equal(line.point, ref.point)
                    for s, s_roi in ((a, roi), (b, full_image_roi(b.pose))):
                        side = LineSide(s, s_roi, pair.direction)
                        r0, dr, c0, dc = oracle_pixel_line(s.pose, ref)
                        interval = oracle_clip_line_to_roi(s, s_roi, ref)
                        assert side.clip(point, s.pose.ipp.tolist()) == (r0, c0, interval)
                        assert (side.dr, side.dc) == (dr, dc)
                        assert clip_line_to_roi(s, s_roi, line) == interval
                        ts = np.linspace(-60.0, 60.0, 97)
                        assert np.array_equal(sample_line_values(s, line, ts),
                                              oracle_line_values(s, ref, ts), equal_nan=True)
                    checked += 1
        assert checked == 8 * (6 * 2 + 1 + 4 * 2 + 1)


def _projected_regions(a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi):
    """Contiguous regions by explicit 3-D projection: ([values_a, values_b], extent).

    The ROI corners bound the grid in patient coordinates; the grid is built
    on the mid-plane and each point is moved along the shared normal onto
    each slice and gathered there.
    """
    n_a, n_b = a.pose.normal, b.pose.normal
    n = n_a + (n_b if float(n_a @ n_b) >= 0 else -n_b)
    n = n / np.linalg.norm(n)
    u_axis = a.pose.iop_row - float(a.pose.iop_row @ n) * n
    u_axis = u_axis / np.linalg.norm(u_axis)
    v_axis = np.cross(n, u_axis)
    step = min(a.pose.ps_row, a.pose.ps_col, b.pose.ps_row, b.pose.ps_col)
    corners = np.vstack([
        pixel_to_patient(s.pose, np.array([roi.row_min, roi.row_min, roi.row_max, roi.row_max]),
                         np.array([roi.col_min, roi.col_max, roi.col_min, roi.col_max]))
        for s, roi in ((a, roi_a), (b, roi_b))])
    u, v = corners @ u_axis, corners @ v_axis
    nu = int(np.floor((u.max() - u.min()) / step + 1e-9)) + 1
    nv = int(np.floor((v.max() - v.min()) / step + 1e-9)) + 1
    h_mid = 0.5 * float(n @ a.pose.ipp + n @ b.pose.ipp)
    grid_mid = (h_mid * n + (u.min() + step * np.arange(nu))[:, None, None] * u_axis
                + (v.min() + step * np.arange(nv))[None, :, None] * v_axis)
    values = []
    for s in (a, b):
        pose, n_s = s.pose, s.pose.normal
        t = (float(n_s @ pose.ipp) - grid_mid @ n_s) / float(n_s @ n)
        d = grid_mid + t[..., None] * n - pose.ipp
        values.append(bilinear_sample(s.pixels, d @ pose.iop_row / pose.ps_row,
                                      d @ pose.iop_col / pose.ps_col))
    return values, (float(u.max() - u.min()), float(v.max() - v.min()))


class TestContiguousRegions:
    def test_identical_poses_and_rois(self):
        rng = np.random.default_rng(5)
        pix = rng.uniform(0, 1, size=(12, 12))
        a = SliceImage(identity_pose(rows=12, cols=12), pix)
        b = SliceImage(identity_pose(rows=12, cols=12, ipp=(0, 0, 10.0)), pix)
        roi = Roi(2, 9, 3, 8)
        ra, rb, _ = contiguous_regions(a, roi, b, roi)
        assert ra.shape == rb.shape
        sub = pix[2:10, 3:9]
        assert np.allclose(ra, sub) and np.allclose(rb, sub)

    def test_translated_pair_union_bound(self):
        pix = np.zeros((20, 20))
        a = SliceImage(identity_pose(rows=20, cols=20), pix)
        b = SliceImage(identity_pose(rows=20, cols=20, ipp=(5.0, 0.0, 10.0)), pix)
        roi = Roi(4, 10, 4, 10)
        ra, rb, extent = contiguous_regions(a, roi, b, roi)
        # Union bound along the row axis: a spans [4, 10], b spans [9, 15] -> 12 mm.
        assert abs(extent[0] - 11.0) < 1e-9
        assert abs(extent[1] - 6.0) < 1e-9
        assert ra.shape == rb.shape
        assert ra.shape == (12, 7)

    def test_nested_rois(self):
        pix = np.zeros((20, 20))
        a = SliceImage(identity_pose(rows=20, cols=20), pix)
        b = SliceImage(identity_pose(rows=20, cols=20, ipp=(0, 0, 10.0)), pix)
        *_, extent = contiguous_regions(a, Roi(2, 17, 2, 17), b, Roi(6, 12, 6, 12))
        assert abs(extent[0] - 15.0) < 1e-9 and abs(extent[1] - 15.0) < 1e-9

    def test_matches_the_3d_projection_on_oblique_and_wedge_pairs(self):
        from lgequant.phantom import default_wedge_config, generate
        from test_realign import oblique_problem

        problem = oblique_problem()
        ds, _ = generate(default_wedge_config(seed=5))
        stacks = [(problem.sa_slices, problem.sa_rois), (ds.sa_slices, ds.sa_rois)]
        rng = np.random.default_rng(12)
        checked = 0
        for sa, rois in stacks:
            rois = [roi if roi is not None else full_image_roi(s.pose) for s, roi in zip(sa, rois)]
            for k in range(len(sa) - 1):
                for _ in range(10):
                    a = sa[k].translated(rng.uniform(-8.0, 8.0, 3))
                    b = sa[k + 1].translated(rng.uniform(-8.0, 8.0, 3))
                    *got, got_extent = contiguous_regions(a, rois[k], b, rois[k + 1])
                    ref, extent = _projected_regions(a, rois[k], b, rois[k + 1])
                    for region, values, s in zip(got, ref, (a, b)):
                        assert region.shape == values.shape
                        assert np.array_equal(np.isnan(region), np.isnan(values))
                        ok = ~np.isnan(values)
                        assert (np.abs(region[ok] - values[ok]).max(initial=0.0)
                                <= 1e-12 * np.abs(s.pixels).max())
                    assert np.allclose(got_extent, extent, rtol=0.0, atol=1e-9)
                    checked += 1
        assert checked == 10 * (3 + 5)

    def test_rejects_non_parallel(self):
        a = SliceImage(identity_pose(), np.zeros((8, 8)))
        tilt = np.array([0, np.cos(np.radians(5)), np.sin(np.radians(5))])
        pose_b = SlicePose(
            ipp=np.array([0.0, 0.0, 10.0]), iop_row=np.array([1.0, 0, 0]), iop_col=tilt,
            ps_row=1.0, ps_col=1.0, rows=8, cols=8,
        )
        b = SliceImage(pose_b, np.zeros((8, 8)))
        roi = Roi(1, 6, 1, 6)
        with pytest.raises(GeometryError):
            contiguous_regions(a, roi, b, roi)

    def test_dimensions_always_equal(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            pix = rng.uniform(0, 1, size=(16, 16))
            a = SliceImage(identity_pose(rows=16, cols=16), pix)
            shift = rng.uniform(-4, 4, size=2)
            b = SliceImage(
                identity_pose(rows=16, cols=16, ipp=(shift[0], shift[1], 10.0)), pix
            )
            roi_a = Roi(3, 12, 2, 13)
            roi_b = Roi(2, 11, 4, 12)
            ra, rb, _ = contiguous_regions(a, roi_a, b, roi_b)
            assert ra.shape == rb.shape


class TestRegionGridBound:
    def test_slices_far_apart_raise_before_sampling(self):
        pose = identity_pose(rows=16, cols=16, ps=1.25)
        a = SliceImage(pose, np.arange(256.0).reshape(16, 16))
        b = a.translated([1e4, -1e4, 8.0])
        roi = full_image_roi(pose)
        with pytest.raises(GeometryError, match="too far apart"):
            contiguous_regions(a, roi, b, roi)
        pair = RegionPair(a, roi, b, roi)
        with pytest.raises(GeometryError, match=str(MAX_REGION_SAMPLES)):
            pair.grid(a.pose.ipp, np.array([float("inf"), 0.0, 8.0]))
        near = a.translated([2.5, 0.0, 8.0])
        assert contiguous_regions(a, roi, near, roi)[0].shape == (18, 16)


class TestPoseValidation:
    def test_non_unit_orientation_rejected(self):
        with pytest.raises(GeometryError):
            SlicePose(
                ipp=np.zeros(3), iop_row=np.array([2.0, 0, 0]), iop_col=np.array([0, 1.0, 0]),
                ps_row=1.0, ps_col=1.0, rows=4, cols=4,
            )

    def test_non_orthogonal_rejected(self):
        v = np.array([1.0, 1.0, 0]) / np.sqrt(2)
        with pytest.raises(GeometryError):
            SlicePose(
                ipp=np.zeros(3), iop_row=np.array([1.0, 0, 0]), iop_col=v,
                ps_row=1.0, ps_col=1.0, rows=4, cols=4,
            )


class TestSliceImageValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        pixels = np.zeros((8, 8))
        pixels[3, 4] = bad
        with pytest.raises(GeometryError, match="finite"):
            SliceImage(identity_pose(), pixels)


class TestPoseNormal:
    def test_normal_is_cross_product_and_survives_translation(self):
        pose = random_pose(np.random.default_rng(4))
        assert np.array_equal(pose.normal, np.cross(pose.iop_row, pose.iop_col))
        moved = pose.translated([1.0, -2.0, 3.0])
        assert np.array_equal(moved.normal, pose.normal)
        assert np.array_equal(moved.ipp, pose.ipp + np.array([1.0, -2.0, 3.0]))

    def test_normal_is_read_only(self):
        with pytest.raises(ValueError):
            identity_pose().normal[0] = 1.0


def _reference_bilinear(pixels, r, c):
    """Bilinear interpolation written with floor, clip and 2-D fancy indexing; NaN outside."""
    rows, cols = pixels.shape
    eps = 1e-9
    valid = (r >= -eps) & (r <= rows - 1 + eps) & (c >= -eps) & (c <= cols - 1 + eps)
    rc = np.clip(r, 0.0, rows - 1.0)
    cc = np.clip(c, 0.0, cols - 1.0)
    r1 = np.minimum(np.floor(rc).astype(int), rows - 2) if rows > 1 else np.zeros_like(rc, dtype=int)
    c1 = np.minimum(np.floor(cc).astype(int), cols - 2) if cols > 1 else np.zeros_like(cc, dtype=int)
    r2 = np.minimum(r1 + 1, rows - 1)
    c2 = np.minimum(c1 + 1, cols - 1)
    fr = rc - r1
    fc = cc - c1
    vals = (
        pixels[r1, c1] * (1 - fr) * (1 - fc)
        + pixels[r2, c1] * fr * (1 - fc)
        + pixels[r1, c2] * (1 - fr) * fc
        + pixels[r2, c2] * fr * fc
    )
    return np.where(valid, vals, np.nan)


class TestBilinearSample:
    def test_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for trial in range(300):
            rows, cols = (int(v) for v in rng.integers(1, 40, size=2))
            pixels = rng.normal(size=(rows, cols)) * 100.0
            shape = (int(rng.integers(1, 200)),) if trial % 2 else (7, 9)
            r = rng.uniform(-2.0, rows + 1.0, size=shape)
            c = rng.uniform(-2.0, cols + 1.0, size=shape)
            if trial % 3 == 0:       # pixel centres, the last row and half pixels
                r = np.round(r)
                c = np.round(2.0 * c) / 2.0
                r.flat[0] = rows - 1
            vals = bilinear_sample(pixels, r, c)
            assert np.array_equal(vals, _reference_bilinear(pixels, r, c), equal_nan=True)

    def test_invalid_samples_read_nan(self):
        pixels = np.arange(12.0).reshape(3, 4)
        vals = bilinear_sample(pixels, np.array([1.0, -1.0]), np.array([1.5, 0.0]))
        assert vals[0] == 5.5 and np.isnan(vals[1])


class TestPixelAtlas:
    def test_equals_bilinear_sample_per_image_bit_for_bit(self):
        rng = np.random.default_rng(21)
        shapes = [(1, 1), (1, 7), (6, 1), (2, 2), (9, 13), (17, 5)]
        images = [rng.normal(size=shape) * 50.0 for shape in shapes]
        s, r, c = [], [], []
        for k, (rows, cols) in enumerate(shapes):
            # Random positions in and around the image, every edge give or take
            # _EDGE_EPS (inside) and 2 * _EDGE_EPS (outside), and far outside.
            edges = [x + d for x in (0.0, rows - 1.0) for d in (-2 * _EDGE_EPS, -_EDGE_EPS, 0.0,
                                                                  _EDGE_EPS, 2 * _EDGE_EPS)]
            edges_c = [x + d for x in (0.0, cols - 1.0) for d in (-2 * _EDGE_EPS, -_EDGE_EPS, 0.0,
                                                                   _EDGE_EPS, 2 * _EDGE_EPS)]
            rk = np.concatenate([rng.uniform(-1.5, rows + 0.5, 60), edges,
                                 rng.uniform(0.0, rows - 1.0, len(edges_c)), [-40.0, rows + 40.0]])
            ck = np.concatenate([rng.uniform(-1.5, cols + 0.5, 60),
                                 rng.uniform(0.0, cols - 1.0, len(edges)), edges_c, [3.0, -0.5]])
            s.append(np.full(rk.size, k))
            r.append(rk)
            c.append(ck)
        order = rng.permutation(sum(x.size for x in s))     # images interleaved
        s, r, c = (np.concatenate(x)[order] for x in (s, r, c))
        # Two rows, as the compiled intersecting terms gather both sides.
        got = PixelAtlas(images).sample(s.reshape(2, -1), r.reshape(2, -1), c.reshape(2, -1))
        got = got.ravel()
        assert np.isnan(got).any() and np.isfinite(got).any()
        for k, pixels in enumerate(images):
            mine = s == k
            want = bilinear_sample(pixels, r[mine], c[mine])
            assert np.array_equal(got[mine], want, equal_nan=True)
            assert np.array_equal(want, _reference_bilinear(pixels, r[mine], c[mine]),
                                  equal_nan=True)


@st.composite
def _lattice_offset(draw, size: int, n: int) -> float:
    """First lattice coordinate along an axis of ``size`` pixels sampled ``n`` times.

    Integer offsets, offsets that put a sample within a few 1e-9 px of the
    first or last pixel centre, and offsets anywhere from no overlap on one
    side to no overlap on the other.
    """
    kind = draw(st.sampled_from(["integer", "edge", "any"]))
    if kind == "integer":
        return float(draw(st.integers(-n - 2, size + 2)))
    if kind == "edge":
        edge = draw(st.sampled_from([0, size - 1])) - draw(st.integers(0, n - 1))
        x = edge + draw(st.sampled_from([-1e-9, 1e-9, 0.0]) | st.floats(-2e-9, 2e-9))
        ulps = draw(st.integers(-3, 3))            # where x + i rounds onto the edge
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        return x
    return draw(st.floats(-n - 2.0, size + 2.0))


@st.composite
def _lattice_case(draw):
    rows, cols, nu, nv = (draw(st.integers(1, 9)) for _ in range(4))
    pixels = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-5.0, 5.0, (rows, cols))
    return pixels, draw(_lattice_offset(rows, nu)), draw(_lattice_offset(cols, nv)), nu, nv


class TestLatticeSample:
    @settings(max_examples=400, deadline=None)
    @given(_lattice_case())
    # 4.000000001000001 + 4 rounds to 8 + 1e-9, the last valid row, though
    # floor(8 + 1e-9 - 4.000000001000001) + 1 counts only four valid rows.
    @example((np.arange(81.0).reshape(9, 9), 4.000000001000001, 0.5, 6, 3))
    def test_stencil_matches_the_gather(self, case):
        pixels, r0, c0, nu, nv = case
        got = lattice_sample(np.pad(pixels, 1, mode="edge"), r0, c0, nu, nv)
        vals = bilinear_sample(pixels, r0 + np.arange(nu)[:, None], c0 + np.arange(nv))
        valid = np.isfinite(vals)
        assert got.shape == (nu, nv)
        assert np.array_equal(np.isfinite(got), valid)
        assert np.abs(got[valid] - vals[valid]).max(initial=0.0) <= 1e-12 * np.abs(pixels).max()

    def test_wedge_pairs_take_the_lattice_and_the_oblique_stack_gathers(self):
        from lgequant.phantom import default_wedge_config, generate
        from test_realign import oblique_problem

        ds, _ = generate(default_wedge_config(seed=5))
        sa, rois = ds.sa_slices, ds.sa_rois
        pairs = [RegionPair(sa[k], rois[k], sa[k + 1], rois[k + 1]) for k in range(len(sa) - 1)]
        assert len(pairs) == 5 and all(pair.lattice for pair in pairs)
        # Moved apart at random, each pair samples the same regions either way.
        # Every other move puts b's pixels on a's lattice to within 5e-10 px,
        # so samples land on the image edges just inside or on the hull.
        rng = np.random.default_rng(4)
        for k, pair in enumerate(pairs):
            pose = sa[k].pose
            for trial in range(20):
                ipps = [pose.ipp, sa[k + 1].pose.ipp + rng.uniform(-60.0, 60.0, 3)]
                for axis in (pose.iop_row, pose.iop_col) if trial % 2 else ():
                    off = (ipps[1] - ipps[0]) @ axis / pose.ps_row
                    nudge = rng.choice([-5e-10, 0.0, 5e-10])
                    ipps[1] = ipps[1] + (round(off) - off + nudge) * pose.ps_row * axis
                stencil = pair.sample(*ipps)
                pair.lattice = False
                gather = pair.sample(*ipps)
                pair.lattice = True
                for got, ref, s in zip(stencil[:2], gather[:2], (sa[k], sa[k + 1])):
                    assert np.array_equal(np.isnan(got), np.isnan(ref))
                    ok = ~np.isnan(ref)
                    assert np.abs(got[ok] - ref[ok]).max(initial=0.0) <= 1e-12 * s.pixels.max()
        problem = oblique_problem()
        sa, rois = problem.sa_slices, problem.sa_rois
        assert not any(RegionPair(sa[k], rois[k], sa[k + 1], rois[k + 1]).lattice
                       for k in range(len(sa) - 1))
