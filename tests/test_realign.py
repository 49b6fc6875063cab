import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from lgequant import realign
from lgequant.errors import DegenerateInputError, GeometryError, LgeQuantError, ParameterError
from lgequant.geometry import (
    Roi,
    SliceImage,
    SlicePose,
    contiguous_regions,
    full_image_roi,
    pixel_to_patient,
    sample_positions,
)
from lgequant.realign import (
    INFEASIBLE,
    AlignmentProblem,
    CompiledProblem,
    _compare,
    _contiguous_term,
    _intersecting_term,
    cost_breakdown,
    optimize,
    total_cost,
)
from test_geometry import oracle_clip_line_to_roi, oracle_line_values, oracle_plane_intersection


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


def intersecting_cost(a, b, roi=None):
    """The one intersecting term of a problem of slice ``a`` and view ``b``,
    ``roi`` (None: the full image) on ``a``."""
    [record] = cost_breakdown(AlignmentProblem([a], [b], [roi]))
    return record["cost"]


def contiguous_cost(a, roi_a, b, roi_b):
    """The one contiguous term of a problem of two SA slices, at weight 1."""
    [record] = cost_breakdown(AlignmentProblem([a, b], [], [roi_a, roi_b], gamma=1.0))
    return record["cost"]


def compare(a, b):
    """``_compare`` of two sample arrays, as an intersecting term reads it."""
    return _compare(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                    "too-few-samples", "constant-segment")


class TestZscore:
    """The z-normalization inside ``_compare``."""

    def test_direct_arithmetic(self):
        # z([2, 4, 6]) = (-z, 0, z) with z^2 = 1.5; against its reverse the
        # differences are (-2z, 0, 2z), so the mean squared difference is (6 + 0 + 6) / 3.
        cost, reason = compare([2.0, 4.0, 6.0], [6.0, 4.0, 2.0])
        assert reason is None and np.isclose(cost, 4.0)

    def test_idempotent_on_normalized(self):
        # Normalizing a side beforehand does not change the cost.
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=40)
        y = rng.normal(size=40)
        assert np.isclose(compare((x - x.mean()) / x.std(), y)[0], compare(x, y)[0], atol=1e-9)

    def test_constant_rejected(self):
        assert compare([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) == (0.0, "constant-segment")
        assert compare([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == (0.0, "constant-segment")
        region = _compare(np.full((2, 3), 4.0), np.arange(6.0).reshape(2, 3),
                          "no-overlap", "constant-region")
        assert region == (0.0, "constant-region")

    def test_equals_mean_and_std_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 7, 8, 9, 60, 127, 128, 129, 300, 3000):
            v = rng.normal(rng.uniform(-50.0, 50.0), rng.uniform(0.01, 20.0), size=n)
            w = rng.normal(size=n)
            assert compare(v, w) == (_reference_compare(v, w), None)
        grid = rng.normal(3.0, 2.0, size=(7, 5))
        other = rng.normal(size=(7, 5))
        grid[2, 3] = other[4, 1] = np.nan         # positions without a sample
        ok = ~(np.isnan(grid) | np.isnan(other))
        assert compare(grid, other) == (_reference_compare(grid[ok], other[ok]), None)


class TestMeanSquaredDifference:
    """The comparison of the z-normalized sides inside ``_compare``."""

    def test_identical(self):
        a = np.arange(6.0)
        assert compare(a, a) == (0.0, None)

    def test_unit_offset(self):
        # z-normalization removes an offset between the sides.
        assert compare([0.0, 2.0, 1.0], [1.0, 3.0, 2.0]) == (0.0, None)

    def test_mixed(self):
        # z([0, 2]) = (-1, 1) and z([1, 0]) = (1, -1): mean of 2^2 and 2^2.
        assert compare([0.0, 2.0], [1.0, 0.0]) == (4.0, None)

    def test_too_few_samples(self):
        assert compare([1.0], [2.0]) == (0.0, "too-few-samples")
        assert compare([1.0, np.nan, 3.0], [np.nan, 2.0, 4.0]) == (0.0, "too-few-samples")
        region = _compare(np.array([[np.nan, 1.0], [2.0, np.nan]]),
                          np.array([[1.0, np.nan], [np.nan, 2.0]]),
                          "no-overlap", "constant-region")
        assert region == (0.0, "no-overlap")


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


class TestGammaValidation:
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -0.5, "0.01", 1e7])
    def test_rejected(self, gamma):
        with pytest.raises(ParameterError) as info:
            build_problem(gamma=gamma)
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, LgeQuantError)

    def test_zero_accepted(self):
        assert build_problem(gamma=0).gamma == 0

    def test_max_gamma_accepted(self):
        assert build_problem(gamma=1e6).gamma == realign.MAX_GAMMA

    def test_max_gamma_keeps_feasible_totals_below_the_sentinel(self):
        # Each term is at most 4, so 250,000 terms weighted MAX_GAMMA stay below it.
        assert 4.0 * realign.MAX_GAMMA * (250_000 - 1) < realign.INFEASIBLE

    @pytest.mark.parametrize("check, value, message", [
        (realign.check_gamma, -0.5, "gamma must be a finite non-negative number, got -0.5"),
        (realign.check_gamma, float("inf"), "gamma must be a finite non-negative number, got inf"),
        (realign.check_gamma, "0.01", "gamma must be a finite non-negative number, got '0.01'"),
        (realign.check_gamma, True, "gamma must be a finite non-negative number, got True"),
        (realign.check_gamma, 1e7, "gamma must be at most 1e+06, got 10000000.0"),
        (realign.check_max_sweeps, -1, "max_sweeps must be a non-negative integer, got -1"),
        (realign.check_max_sweeps, 2.0, "max_sweeps must be a non-negative integer, got 2.0"),
        (realign.check_max_sweeps, True, "max_sweeps must be a non-negative integer, got True"),
    ])
    def test_message(self, check, value, message):
        with pytest.raises(ParameterError) as info:
            check(value)
        assert str(info.value) == message


# --- exact oracle: line costs from the numpy line geometry of test_geometry,
# contiguous costs from contiguous_regions, both compared with mean()/std() ---

def _reference_compare(vals_a, vals_b):
    """MSD of two non-constant sample arrays, z-normalized with mean()/std()."""
    za, zb = ((v - v.mean()) / v.std() for v in (vals_a, vals_b))
    return float(np.mean((za - zb) ** 2))


def _reference_term(vals_a, vals_b, too_few, constant):
    """(cost, reason) of two NaN-marked sample arrays, written out with mean()/std()."""
    ok = ~(np.isnan(vals_a) | np.isnan(vals_b))
    if int(ok.sum()) < 2:
        return 0.0, too_few
    for v in (vals_a[ok], vals_b[ok]):
        if v.std() < 1e-9 * max(1.0, abs(v.mean())):
            return 0.0, constant
    return _reference_compare(vals_a[ok], vals_b[ok]), None


def _reference_intersecting(a, b, roi):
    """The intersecting term from the numpy line oracle of test_geometry."""
    line = oracle_plane_intersection(a.pose, b.pose)
    if line is None:
        return 0.0, "parallel-planes"
    int_a = oracle_clip_line_to_roi(a, roi, line)
    int_b = oracle_clip_line_to_roi(b, full_image_roi(b.pose), line)
    if int_a is None or int_b is None:
        return 0.0, "no-overlap"
    t_lo, t_hi = max(int_a[0], int_b[0]), min(int_a[1], int_b[1])
    if t_hi <= t_lo:
        return 0.0, "no-overlap"
    step = min(a.pose.ps_row, a.pose.ps_col, b.pose.ps_row, b.pose.ps_col)
    ts = sample_positions((t_lo, t_hi), step)
    if ts.size < 2:
        return 0.0, "too-few-samples"
    return _reference_term(oracle_line_values(a, line, ts), oracle_line_values(b, line, ts),
                           "too-few-samples", "constant-segment")


def _reference_contiguous(a, roi_a, b, roi_b):
    vals_a, vals_b, _ = contiguous_regions(a, roi_a, b, roi_b)
    return _reference_term(vals_a, vals_b, "no-overlap", "constant-region")


def _reference_terms(problem, slices):
    """(cost, reason) of every term in CompiledProblem order, from the primitives."""
    m, n = len(problem.sa_slices), len(problem.la_slices)
    rois = problem.sa_rois
    out = [_reference_intersecting(slices[k], slices[m + j], rois[k])
           for k in range(m) for j in range(n)]
    out += [_reference_intersecting(slices[j], slices[j2], full_image_roi(slices[j].pose))
            for j in range(m, m + n - 1) for j2 in range(j + 1, m + n)]
    for k in range(m - 1):
        cost, reason = _reference_contiguous(slices[k], rois[k], slices[k + 1], rois[k + 1])
        out.append((problem.gamma * cost, reason))
    return out


def _rotated(v, axis, angle):
    """``v`` rotated by ``angle`` radians about the unit ``axis`` (Rodrigues)."""
    return (v * np.cos(angle) + np.cross(axis, v) * np.sin(angle)
            + axis * (axis @ v) * (1.0 - np.cos(angle)))


def oblique_problem():
    """Tilted SA stack (neighbours up to 0.6 deg apart) and two oblique LA views.

    No direction cosine is 0 or 1, so every product and sum of the pose
    algebra rounds; the phantom's axis-aligned poses would hide a reordering.
    """
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    row, col = q[:, 0], q[:, 1]
    normal = np.cross(row, col)
    centre = np.array([1.7, -2.3, 24.1])
    sa = []
    for k in range(4):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r_k, c_k = (_rotated(v, axis, np.radians(0.3) * (k % 2)) for v in (row, col))
        ipp = centre - 22.0 * r_k - 24.0 * c_k + (10.0 * k - 15.0) * normal
        sa.append(sample_slice(SlicePose(ipp, r_k, c_k, 1.5, 1.4, 32, 34), curved_field))
    la = []
    for angle in (0.4, 2.1):
        in_plane = np.cos(angle) * row + np.sin(angle) * col
        ipp = centre - 31.0 * normal - 23.0 * in_plane
        la.append(sample_slice(SlicePose(ipp, normal, in_plane, 1.3, 1.2, 50, 36), curved_field))
    return AlignmentProblem(sa, la, [Roi(5, 26, 6, 27), Roi(4, 25, 7, 28), None, Roi(6, 27, 5, 26)])


def wedge_problem():
    from lgequant.phantom import default_wedge_config, generate

    ds, _ = generate(default_wedge_config(seed=5, noise_sigma=0.08))
    return AlignmentProblem(ds.sa_slices, ds.la_slices, ds.sa_rois)


@pytest.fixture(scope="module", params=["wedge", "oblique"])
def problem(request):
    return wedge_problem() if request.param == "wedge" else oblique_problem()


class TestCompiledEvaluatorOracle:
    def test_costs_equal_primitives_bit_for_bit(self, problem):
        compiled = CompiledProblem(problem)
        ids = range(len(compiled.terms))
        rng = np.random.default_rng(7)
        reasons = set()
        for trial in range(20):
            span = 6.0 if trial < 15 else 25.0     # the last few lose overlap
            deltas = rng.uniform(-span, span, size=(len(problem.slices), 3))
            moved = [s.translated(d) for s, d in zip(problem.slices, deltas)]
            positions = [s.pose.ipp + d for s, d in zip(problem.slices, deltas)]
            got = [costs[0] for costs in compiled.evaluate([positions], ids)]
            assert got == _reference_terms(problem, moved)
            reasons.update(reason for _, reason in got)
        assert None in reasons and "no-overlap" in reasons

    def test_public_costs_match_compiled_terms(self, problem):
        records = cost_breakdown(problem)
        reference = _reference_terms(problem, problem.slices)
        assert [(r["cost"], r["degenerate"]) for r in records] == reference
        assert total_cost(problem) == float(sum(c for c, _ in reference))

    def test_batched_prescan_equals_one_at_a_time(self, problem):
        compiled = CompiledProblem(problem)
        base = compiled.positions()
        rng = np.random.default_rng(11)
        for i in (0, len(problem.sa_slices)):    # an SA and an LA slice
            ids = [ti for ti, t in enumerate(compiled.terms) if i in (t.i, t.j)]
            trials = []
            for d in rng.uniform(-10.0, 10.0, size=(124, 3)):
                trial = list(base)
                trial[i] = base[i] + d
                trials.append(trial)
            batched = compiled.evaluate(trials, ids)
            for k, trial in enumerate(trials):
                single = compiled.evaluate([trial], ids)
                assert [costs[k] for costs in batched] == [costs[0] for costs in single]


def degenerate_problem():
    """A flat SA slice and an LA view parallel to another, so terms degenerate."""
    flat = lambda p: np.full(p.shape[:-1], 3.0)
    sa = [sample_slice(sa_pose(10.0 * k), flat if k == 2 else curved_field) for k in range(4)]
    parallel = SlicePose(np.array([-23.0, 6.0, -12.0]), np.array([0, 0, 1.0]),
                         np.array([1.0, 0, 0]), 1.5, 1.5, 48, 32)
    la = [sample_slice(la_pose("4c"), curved_field), sample_slice(la_pose("2c"), curved_field),
          sample_slice(parallel, curved_field)]
    return AlignmentProblem(sa, la, [Roi(6, 25, 6, 25)] * 4)


def _random_trials(problem, rng, n):
    """(trials, the slices moved to them): random translations, the last ones large."""
    trials, moved = [], []
    for k in range(n):
        span = 6.0 if k < n - n // 3 else 25.0
        deltas = rng.uniform(-span, span, size=(len(problem.slices), 3))
        moved.append([s.translated(d) for s, d in zip(problem.slices, deltas)])
        trials.append([s.pose.ipp + d for s, d in zip(problem.slices, deltas)])
    return trials, moved


@pytest.mark.parametrize("build", [wedge_problem, oblique_problem, degenerate_problem])
def test_fused_evaluate_equals_each_term_definition(build):
    """All terms at all trials in one call equal the per-term definitions."""
    problem = build()
    compiled = CompiledProblem(problem)
    trials, moved = _random_trials(problem, np.random.default_rng(23), 12)
    got = compiled.evaluate(trials, range(len(compiled.terms)))
    reasons = set()
    for t, costs in zip(compiled.terms, got):
        for slices, (cost, reason) in zip(moved, costs):
            if t.kind == "int":
                want = _intersecting_term(slices[t.i], slices[t.j], t.roi)
            else:
                want = _contiguous_term(slices[t.i], t.rois[0], slices[t.j], t.rois[1])
                want = (problem.gamma * want[0], want[1])
            assert (cost, reason) == want
            reasons.add(reason)
    assert {None, "no-overlap"} <= reasons
    if build is degenerate_problem:
        assert {"parallel-planes", "constant-segment", "constant-region"} <= reasons


def _per_term_objective(compiled, trials, term_ids, live):
    """The objective evaluated one term at a time over the trials still feasible."""
    values = [0.0] * len(trials)
    pending = list(range(len(trials)))
    for ti in term_ids:
        if not pending:
            break
        [costs] = compiled.evaluate([trials[k] for k in pending], [ti])
        still = []
        for k, (cost, reason) in zip(pending, costs):
            if reason is not None and live[ti]:
                values[k] = INFEASIBLE
            else:
                values[k] += cost
                still.append(k)
        pending = still
    return values


@pytest.mark.parametrize("build", [wedge_problem, oblique_problem, degenerate_problem])
def test_objective_equals_the_per_term_loop(build):
    """``CompiledProblem.objective`` equals one evaluation per term at one trial
    in value, and scores each region term of ``ids`` once, on its own path."""
    problem = build()
    compiled = CompiledProblem(problem)
    live = _live(compiled)
    rng = np.random.default_rng(29)
    values = []
    for i in (1, len(problem.sa_slices), len(problem.slices) - 1):     # SA and LA slices
        ids = _touching(compiled, i)
        lattice = [compiled.terms[ti].pair.lattice for ti in ids
                   if compiled.terms[ti].kind == "cnt"]
        trials, _ = _random_trials(problem, rng, 9)
        for trial in trials:
            before = dict(compiled.region_samples)
            got = compiled.objective(trial, ids, live, "simplex")
            assert {k: v - before[k] for k, v in compiled.region_samples.items()} == \
                {"lattice": sum(lattice), "gather": len(lattice) - sum(lattice)}
            assert [got] == _per_term_objective(compiled, [trial], ids, live)
            values.append(got)
    assert INFEASIBLE in values and min(values) < INFEASIBLE


def _live(compiled) -> list:
    """Whether each term is live at the recorded origins."""
    return [r["degenerate"] is None for r in compiled.breakdown(compiled.positions())]


def _touching(compiled, i) -> list:
    """The ids of the terms that slice ``i`` belongs to."""
    return [ti for ti, t in enumerate(compiled.terms) if i in (t.i, t.j)]


def _unbounded_cheapest(compiled, trials, term_ids, live, phase):
    """``CompiledProblem.cheapest`` without the bound: the arg-min of every trial
    scored to its last term (or its first degenerate live one)."""
    compiled.evaluations[phase] += len(trials)
    values = _per_term_objective(compiled, trials, term_ids, live)
    return min(range(len(values)), key=values.__getitem__)


@pytest.mark.parametrize("build", [wedge_problem, oblique_problem, degenerate_problem])
def test_bounded_cheapest_equals_the_unbounded_arg_min(build):
    """The bound never changes the chosen trial: on random batches, on a batch
    whose trial 0 is infeasible, and on one that repeats trial 0 (index 0 wins)."""
    problem = build()
    compiled = CompiledProblem(problem)
    live = _live(compiled)
    rng = np.random.default_rng(31)
    picked, infeasible_first = set(), 0
    for i in (1, len(problem.sa_slices), len(problem.slices) - 1):     # SA and LA slices
        ids = _touching(compiled, i)
        for _ in range(4):
            trials, _ = _random_trials(problem, rng, 12)
            values = _per_term_objective(compiled, trials, ids, live)
            batches = [trials, trials[1:] + trials[:1]]
            if values[0] < INFEASIBLE:      # trial 0 again, later in the batch
                batches.append(trials[:1] + trials[4:7] + trials[:1] + trials[7:])
            worst = max(range(len(trials)), key=values.__getitem__)
            if values[worst] == INFEASIBLE:     # an infeasible trial 0
                batches.append(trials[worst:worst + 1] + trials)
                infeasible_first += 1
            for batch in batches:
                want = _unbounded_cheapest(compiled, batch, ids, live, "prescan")
                got = compiled.cheapest(batch, ids, live, "prescan")
                assert got == want
                picked.add(got)
        repeat = [trials[0], trials[0], trials[0]]
        assert compiled.cheapest(repeat, ids, live, "prescan") == 0
    assert infeasible_first > 0 and len(picked) > 1


def _spy_term_scores(monkeypatch) -> list:
    """A one-element list that counts the (term, trial) scores of every
    ``CompiledProblem.evaluate`` call from now on."""
    scores = [0]
    evaluate = CompiledProblem.evaluate

    def counted(self, trials, term_ids):
        term_ids = list(term_ids)
        scores[0] += len(trials) * len(term_ids)
        return evaluate(self, trials, term_ids)

    monkeypatch.setattr(CompiledProblem, "evaluate", counted)
    return scores


def _same_results(a, b) -> bool:
    return (np.array_equal(a.corrected_ipps, b.corrected_ipps)
            and a.final_cost == b.final_cost
            and a.diagnostics["accepted_moves"] == b.diagnostics["accepted_moves"]
            and a.diagnostics["cost_evaluations"] == b.diagnostics["cost_evaluations"])


@pytest.mark.parametrize("build, bound", [(build_problem, None), (oblique_problem, None),
                                          (build_problem, 0.5)])
def test_bounded_search_equals_the_unbounded_one(build, bound, monkeypatch):
    """One sweep with the bound and without it gives equal results. A 0.5 mm
    translation bound clips some start 0 off the accepted pose."""
    if bound is not None:
        monkeypatch.setattr(realign, "TRANSLATION_BOUND_MM", bound)
    bounded = optimize(build(), max_sweeps=1)
    monkeypatch.setattr(CompiledProblem, "cheapest", _unbounded_cheapest)
    unbounded = optimize(build(), max_sweeps=1)
    assert _same_results(bounded, unbounded)


class TestProblemChecks:
    def test_tuple_rois_rejected(self):
        problem = build_problem()
        with pytest.raises(ParameterError, match="sa_rois entries must be Roi or None"):
            AlignmentProblem(problem.sa_slices, problem.la_slices, [(0, 5, 0, 5)] * 6)

    def test_an_array_in_place_of_a_slice_rejected(self):
        problem = build_problem()
        sa = list(problem.sa_slices)
        sa[2] = sa[2].pixels
        with pytest.raises(ParameterError, match="slices must be SliceImage instances"):
            AlignmentProblem(sa, problem.la_slices, problem.sa_rois)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_origins_rejected(self, bad):
        with pytest.raises(ParameterError, match="finite 3-vector"):
            total_cost(build_problem(), np.full((8, 3), bad))


class TestCompileChecks:
    def test_roi_past_the_image(self):
        problem = build_problem()
        problem.sa_rois[0] = Roi(6, 32, 6, 25)      # SA images have 32 rows
        with pytest.raises(GeometryError, match="ROI exceeds image bounds"):
            total_cost(problem)

    def test_tilted_sa_neighbour(self):
        problem = build_problem()
        pose = problem.sa_slices[1].pose
        axis = np.array([1.0, 0.0, 0.0])
        tilted = SlicePose(pose.ipp, _rotated(pose.iop_row, axis, np.radians(3.0)),
                           _rotated(pose.iop_col, axis, np.radians(3.0)),
                           pose.ps_row, pose.ps_col, pose.rows, pose.cols)
        problem.sa_slices[1] = SliceImage(tilted, problem.sa_slices[1].pixels)
        with pytest.raises(GeometryError, match="from parallel"):
            optimize(problem)


class TestStartCheck:
    def test_optimize_calls_each_primitive_once_per_term(self, monkeypatch):
        import lgequant.realign as realign

        calls = {}
        for name in ("plane_intersection", "sample_line_values", "contiguous_regions"):
            def counted(*args, _fn=getattr(realign, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(realign, name, counted)
        problem = build_problem()
        compiled = CompiledProblem(problem)
        live_int = [r for r in compiled.breakdown(compiled.positions())
                    if r["kind"] == "int" and r["degenerate"] is None]
        n_cnt = sum(t.kind == "cnt" for t in compiled.terms)
        optimize(problem, max_sweeps=1)
        assert calls == {"plane_intersection": len(compiled.terms) - n_cnt,
                         "sample_line_values": 2 * len(live_int),
                         "contiguous_regions": n_cnt}

    def test_compiled_cost_off_its_definition_raises(self, monkeypatch):
        import lgequant.realign as realign

        monkeypatch.setattr(realign, "_contiguous_term", lambda *args: (1.0, None))
        with pytest.raises(RuntimeError, match="its definition gives"):
            optimize(build_problem(), max_sweeps=1)


class TestCostEvaluations:
    def test_counts_repeat_and_are_logged(self, caplog):
        problem = build_problem()
        with caplog.at_level(logging.INFO, logger="lgequant.realign"):
            first = optimize(problem, max_sweeps=1)
        second = optimize(problem, max_sweeps=1)
        counts = first.diagnostics["cost_evaluations"]
        assert set(counts) == {"prescan", "simplex", "regauge"}
        assert counts["prescan"] > 0 and counts["simplex"] > 0
        assert counts == second.diagnostics["cost_evaluations"]
        messages = [r.getMessage() for r in caplog.records]
        assert any("cost evaluations" in m for m in messages)
        lattice, gather = _logged_counts(messages, "contiguous evaluations")
        assert gather == 0 < lattice
        prescan_skipped, _ = _logged_counts(messages, "the bound skipped")
        assert prescan_skipped > 0

    def test_the_bound_scores_fewer_terms_on_the_wedge(self, caplog, monkeypatch):
        """On the test wedge, one sweep with the bound makes 0.61x the (term,
        trial) scores of one without it (6,018 of 9,886), with equal results,
        and the log names every score saved: no trial
        the bound dropped would have degenerated later (one that did would have
        stopped early unbounded too)."""
        scores = _spy_term_scores(monkeypatch)
        with caplog.at_level(logging.INFO, logger="lgequant.realign"):
            bounded = optimize(wedge_problem(), max_sweeps=1)
        skipped = sum(_logged_counts([r.getMessage() for r in caplog.records],
                                     "the bound skipped"))
        with_bound, scores[0] = scores[0], 0
        monkeypatch.setattr(CompiledProblem, "cheapest", _unbounded_cheapest)
        unbounded = optimize(wedge_problem(), max_sweeps=1)
        assert _same_results(bounded, unbounded)
        assert 0 < scores[0] - with_bound == skipped

    def test_oblique_contiguous_evaluations_are_logged_as_gathers(self, caplog):
        with caplog.at_level(logging.INFO, logger="lgequant.realign"):
            optimize(oblique_problem(), max_sweeps=1)
        lattice, gather = _logged_counts([r.getMessage() for r in caplog.records],
                                         "contiguous evaluations")
        assert lattice == 0 < gather

    def test_searches_and_moves_are_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="lgequant.realign"):
            result = optimize(build_problem(), max_sweeps=1)
        messages = [r.getMessage() for r in caplog.records]
        searches, tolerance, cap = _logged_counts(messages, "Nelder-Mead searches")
        accepted, rejected = _logged_counts(messages, "moves accepted")
        assert searches == tolerance + cap and tolerance > 0
        assert accepted == len(result.diagnostics["accepted_moves"])
        assert accepted + rejected == searches

    @pytest.mark.parametrize("cap", [{"maxfev": 5}, {"maxiter": 2}])
    def test_a_capped_search_is_logged_as_capped(self, caplog, monkeypatch, cap):
        monkeypatch.setattr(realign, "_NELDER_MEAD_OPTIONS",
                            {**realign._NELDER_MEAD_OPTIONS, **cap})
        with caplog.at_level(logging.INFO, logger="lgequant.realign"):
            optimize(build_problem(), max_sweeps=1)
        searches, tolerance, capped = _logged_counts(
            [r.getMessage() for r in caplog.records], "Nelder-Mead searches")
        assert capped == searches > 0 and tolerance == 0


def _logged_counts(messages, phrase) -> list:
    """The numbers in optimize's one log line that contains ``phrase``."""
    [line] = [m for m in messages if phrase in m]
    return [int(x) for x in re.findall(r"\d+", line)]


def wedge96_problem(seed: int):
    """(problem, truth) of the benchmark's ``wedge96_misaligned`` study ``seed``.

    Built as the benchmark builds it: the default wedge phantom at noise 0.08
    with gains from 0.85 to 1.15 over its six SA slices, and every slice's
    origin shifted in plane by up to 5 mm.
    """
    from lgequant.phantom import default_wedge_config, generate

    shifts = np.zeros((8, 3))
    shifts[:, :2] = np.random.default_rng(seed).uniform(-5.0, 5.0, size=(8, 2))
    cfg = replace(default_wedge_config(seed=seed, noise_sigma=0.08),
                  gains=tuple(float(g) for g in np.linspace(0.85, 1.15, 6)),
                  translations_mm=tuple(map(tuple, shifts)))
    ds, truth = generate(cfg)
    return AlignmentProblem(ds.sa_slices, ds.la_slices, ds.sa_rois, gamma=0.01), truth


def _gauged_rms(ipps, truth) -> float:
    """Rms distance of the origins from the truth, less their common shift."""
    err = np.asarray(ipps) - truth.true_ipps
    err = err - err.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum(err ** 2, axis=1))))


class TestStoppingRule:
    def test_wedge_searches_stop_on_tolerance(self, caplog):
        """One sweep on wedge seed 1, as the benchmark runs it: every simplex
        search settles before its cap, the searches make at most 1,300
        evaluations (2,186 with a 1e-12 fatol), and the input improves."""
        problem, truth = wedge96_problem(1)
        with caplog.at_level(logging.INFO, logger="lgequant.realign"):
            result = optimize(problem, max_sweeps=1)
        _, _, capped = _logged_counts([r.getMessage() for r in caplog.records],
                                      "Nelder-Mead searches")
        assert capped == 0
        assert result.diagnostics["cost_evaluations"]["simplex"] <= 1300
        recorded = [s.pose.ipp for s in problem.slices]
        assert _gauged_rms(result.corrected_ipps, truth) < _gauged_rms(recorded, truth)


class TestOptimizeArguments:
    @pytest.mark.parametrize("max_sweeps", [-1, 1.5, True])
    def test_bad_max_sweeps_rejected(self, max_sweeps):
        with pytest.raises(ParameterError, match="max_sweeps"):
            optimize(build_problem(), max_sweeps=max_sweeps)

    def test_diagnostics_and_the_gain_rule(self):
        result = optimize(build_problem(), max_sweeps=1)
        assert set(result.diagnostics) == {"translations_mm", "degenerate_pairs",
                                           "accepted_moves", "cost_evaluations"}
        assert result.diagnostics["accepted_moves"]
        for move in result.diagnostics["accepted_moves"]:
            min_gain = 3e-2 if move["dist_mm"] < 0.5 else 1e-4
            assert move["relative_gain"] >= min_gain * (1 - 1e-12)
