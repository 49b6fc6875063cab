import numpy as np
import pytest

from lgequant.errors import DegenerateInputError
from lgequant.geometry import Roi, SliceImage, SlicePose, full_image_roi, pixel_to_patient
from lgequant.realign import (
    AlignmentProblem,
    cost_breakdown,
    contiguous_cost,
    intersecting_cost,
    mean_squared_difference,
    optimize,
    total_cost,
    zscore_normalize,
)


def linear_field(p):
    return 3.0 + 1.0 * p[..., 0] + 2.0 * p[..., 1] + 0.5 * p[..., 2]


def curved_field(p):
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    return (
        2.0
        + np.sin(0.35 * x) * np.cos(0.30 * y)
        + 0.8 * np.sin(0.25 * z + 0.2 * x)
        + 0.6 * np.cos(0.28 * y + 0.15 * z)
    )


def sample_slice(pose, field):
    rr, cc = np.meshgrid(np.arange(pose.rows), np.arange(pose.cols), indexing="ij")
    pts = pixel_to_patient(pose, rr.astype(float), cc.astype(float))
    return SliceImage(pose, field(pts))


def sa_pose(z, rows=32, cols=32, ps=1.5):
    return SlicePose(
        ipp=np.array([-23.0, -23.0, z]), iop_row=np.array([1.0, 0, 0]),
        iop_col=np.array([0, 1.0, 0]), ps_row=ps, ps_col=ps, rows=rows, cols=cols,
    )


def la_pose(kind, rows=48, cols=32, ps=1.5):
    if kind == "4c":  # plane y = 0, rows along +z
        return SlicePose(
            ipp=np.array([-23.0, 0.0, -12.0]), iop_row=np.array([0, 0, 1.0]),
            iop_col=np.array([1.0, 0, 0]), ps_row=ps, ps_col=ps, rows=rows, cols=cols,
        )
    return SlicePose(  # plane x = 0, rows along +z
        ipp=np.array([0.0, -23.0, -12.0]), iop_row=np.array([0, 0, 1.0]),
        iop_col=np.array([0, 1.0, 0]), ps_row=ps, ps_col=ps, rows=rows, cols=cols,
    )


def build_problem(field=curved_field, n_sa=6, gamma=0.01):
    sa = [sample_slice(sa_pose(10.0 * k), field) for k in range(n_sa)]
    la = [sample_slice(la_pose("4c"), field), sample_slice(la_pose("2c"), field)]
    rois = [Roi(6, 25, 6, 25)] * n_sa
    return AlignmentProblem(sa_slices=sa, la_slices=la, sa_rois=rois, gamma=gamma)


class TestZscore:
    def test_direct_arithmetic(self):
        out = zscore_normalize(np.array([2.0, 4.0, 6.0]))
        assert np.allclose(out, [-1.224744871391589, 0.0, 1.224744871391589])

    def test_idempotent_on_normalized(self):
        rng = np.random.default_rng(0)
        x = zscore_normalize(rng.normal(size=40))
        assert np.allclose(zscore_normalize(x), x, atol=1e-9)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            zscore_normalize(np.array([5.0, 5.0, 5.0]))


class TestMeanSquaredDifference:
    def test_identical(self):
        a = np.arange(6.0)
        assert mean_squared_difference(a, a) == 0.0

    def test_unit_offset(self):
        assert mean_squared_difference(np.zeros(2), np.ones(2)) == 1.0

    def test_mixed(self):
        assert mean_squared_difference(np.array([0.0, 2.0]), np.array([1.0, 0.0])) == 2.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mean_squared_difference(np.zeros(3), np.zeros(4))


class TestIntersectingCost:
    def test_consistent_linear_field_cost_near_zero(self):
        sa = sample_slice(sa_pose(20.0), linear_field)
        la = sample_slice(la_pose("4c"), linear_field)
        assert intersecting_cost(sa, la, Roi(6, 25, 6, 25)) < 1e-6

    def test_perturbed_pose_costs_more(self):
        sa = sample_slice(sa_pose(20.0), curved_field)
        la = sample_slice(la_pose("4c"), curved_field)
        roi = Roi(6, 25, 6, 25)
        at_truth = intersecting_cost(sa, la, roi)
        shifted = intersecting_cost(sa.translated([3.0, 0.0, 0.0]), la, roi)
        assert shifted > at_truth

    def test_constant_field_contributes_zero(self):
        sa = sample_slice(sa_pose(20.0), lambda p: np.full(p.shape[:-1], 4.0))
        la = sample_slice(la_pose("4c"), lambda p: np.full(p.shape[:-1], 4.0))
        assert intersecting_cost(sa, la, Roi(6, 25, 6, 25)) == 0.0

    def test_parallel_planes_contribute_zero(self):
        a = sample_slice(sa_pose(0.0), curved_field)
        b = sample_slice(sa_pose(10.0), curved_field)
        assert intersecting_cost(a, b) == 0.0

    def test_sampling_step_is_finer_pixel_spacing(self, monkeypatch):
        import lgequant.realign as ra

        captured = {}
        orig = ra.sample_positions

        def spy(interval, step_mm):
            captured["step"] = step_mm
            return orig(interval, step_mm)

        monkeypatch.setattr(ra, "sample_positions", spy)
        sa = sample_slice(sa_pose(20.0, ps=2.0), curved_field)
        la = sample_slice(la_pose("4c", ps=1.2), curved_field)
        intersecting_cost(sa, la, Roi(6, 25, 6, 25))
        assert captured["step"] == 1.2


class TestContiguousCost:
    def test_duplicate_slice(self):
        a = sample_slice(sa_pose(10.0), curved_field)
        b = SliceImage(sa_pose(20.0), a.pixels)
        roi = Roi(6, 25, 6, 25)
        assert contiguous_cost(a, roi, b, roi) < 1e-9

    def test_true_spacing_beats_inplane_shift(self):
        a = sample_slice(sa_pose(10.0), curved_field)
        b = sample_slice(sa_pose(20.0), curved_field)
        roi = Roi(6, 25, 6, 25)
        at_truth = contiguous_cost(a, roi, b, roi)
        shifted = contiguous_cost(a, roi, b.translated([5.0, 0.0, 0.0]), roi)
        assert at_truth < shifted

    def test_constant_field_zero(self):
        a = sample_slice(sa_pose(10.0), lambda p: np.full(p.shape[:-1], 1.0))
        b = sample_slice(sa_pose(20.0), lambda p: np.full(p.shape[:-1], 1.0))
        roi = Roi(6, 25, 6, 25)
        assert contiguous_cost(a, roi, b, roi) == 0.0

    def test_invariant_to_normal_translation(self):
        # The paired regions are built by projecting along the shared slice
        # normal, so moving a slice along that normal cannot change them.
        a = sample_slice(sa_pose(10.0), curved_field)
        b = sample_slice(sa_pose(20.0), curved_field)
        roi = Roi(6, 25, 6, 25)
        base = contiguous_cost(a, roi, b, roi)
        for dz in (-7.3, 4.2, 11.0):
            moved = contiguous_cost(a, roi, b.translated([0.0, 0.0, dz]), roi)
            assert abs(moved - base) < 1e-12


class TestTotalCost:
    def test_term_count_6sa_2la(self):
        problem = build_problem()
        records = cost_breakdown(problem)
        assert len(records) == 18
        kinds = [r["kind"] for r in records]
        assert kinds.count("int") == 13 and kinds.count("cnt") == 5

    def test_gamma_zero_is_pure_intersecting(self):
        p0 = build_problem(gamma=0.0)
        records = cost_breakdown(p0)
        int_sum = sum(r["cost"] for r in records if r["kind"] == "int")
        assert np.isclose(total_cost(p0), int_sum)

    def test_default_gamma(self):
        problem = build_problem()
        assert problem.gamma == 0.01

    def test_non_negative(self):
        problem = build_problem()
        assert total_cost(problem) >= 0.0

    def test_gauge_invariance(self):
        problem = build_problem()
        base = total_cost(problem)
        rng = np.random.default_rng(21)
        ipps = np.array([s.pose.ipp for s in problem.slices])
        for _ in range(3):
            v = rng.uniform(-8, 8, size=3)
            moved = total_cost(problem, ipps + v)
            assert abs(moved - base) < 1e-9 * max(base, 1e-12)

    def test_none_roi_means_full_image(self):
        problem = build_problem()
        sa, la = problem.sa_slices, problem.la_slices
        explicit = AlignmentProblem(sa, la, [full_image_roi(s.pose) for s in sa])
        assert total_cost(AlignmentProblem(sa, la, [None] * len(sa))) == total_cost(explicit)


class TestOptimize:
    def test_already_aligned_stays_put(self):
        from lgequant.phantom import PhantomConfig, generate

        ds, truth = generate(PhantomConfig(noise_sigma=0.0, seed=0))
        problem = AlignmentProblem(ds.sa_slices, ds.la_slices, ds.sa_rois)
        result = optimize(problem, max_sweeps=2)
        moves = np.linalg.norm(result.corrected_ipps - truth.true_ipps, axis=1)
        assert moves.max() < 0.1
        assert result.final_cost <= result.initial_cost

    def test_recovers_inplane_translations(self):
        from lgequant.phantom import PhantomConfig, generate

        rng = np.random.default_rng(42)
        offsets = np.zeros((8, 3))
        offsets[:, :2] = rng.uniform(-5, 5, size=(8, 2))
        cfg = PhantomConfig(
            noise_sigma=0.0, seed=42, translations_mm=tuple(map(tuple, offsets))
        )
        ds, truth = generate(cfg)
        problem = AlignmentProblem(ds.sa_slices, ds.la_slices, ds.sa_rois)
        result = optimize(problem)
        err = result.corrected_ipps - truth.true_ipps
        err = err - err.mean(axis=0)   # remove the common-translation gauge
        rms = float(np.sqrt(np.mean(np.sum(err ** 2, axis=1))))
        assert rms < 1.25  # one in-plane pixel
        assert result.final_cost <= result.initial_cost

    def test_single_slice_no_terms(self):
        sa = [sample_slice(sa_pose(0.0), curved_field)]
        problem = AlignmentProblem(sa_slices=sa, la_slices=[], sa_rois=[Roi(6, 25, 6, 25)])
        with pytest.raises(DegenerateInputError):
            optimize(problem)

    def test_all_constant_rejected(self):
        flat = lambda p: np.full(p.shape[:-1], 3.0)
        sa = [sample_slice(sa_pose(10.0 * k), flat) for k in range(3)]
        la = [sample_slice(la_pose("4c"), flat)]
        problem = AlignmentProblem(sa_slices=sa, la_slices=la, sa_rois=[Roi(6, 25, 6, 25)] * 3)
        with pytest.raises(DegenerateInputError):
            optimize(problem)
