"""Misalignment correction for multi-slice LGE stacks.

Slices acquired in separate breath-holds are displaced relative to each other.
The correction translates each slice (updating its origin only) to minimize a
total cost built from two ingredients: the dissimilarity of intensity profiles
sampled along the intersection lines of slice pairs (SA-LA and LA-LA), and the
dissimilarity of paired regions sampled from adjacent SA slices, which acts as
a regularizer exploiting the anatomical continuity of the heart through the
stack. Profiles and regions are z-normalized before comparison so per-slice
intensity scaling does not bias the alignment.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import DegenerateInputError, GeometryError, ParameterError
from .geometry import (
    IN_PLANE_TOL,
    NEAR_PARALLEL_DEG,
    PARALLEL_TOL,
    Roi,
    SliceImage,
    _angle_between_deg,
    bilinear_sample,
    clip_line_to_roi,
    clip_pixel_line,
    contiguous_regions,
    full_image_roi,
    plane_intersection,
    sample_line_values,
    sample_positions,
)

logger = logging.getLogger(__name__)

DEFAULT_GAMMA = 0.01
TRANSLATION_BOUND_MM = 20.0
MAX_SWEEPS = 50
REL_TOL = 1e-6
# Nelder-Mead settings of every simplex search the optimizer runs.
_NELDER_MEAD_OPTIONS = {"xatol": 1e-3, "fatol": 1e-12, "maxiter": 130, "maxfev": 170}


def middle_slice_index(n: int) -> int:
    """Index of the designated middle slice of an n-slice SA stack."""
    return n // 2


def zscore_normalize(values: np.ndarray) -> np.ndarray:
    """Shift/scale to zero mean and unit population standard deviation.

    The sums are the ones ``ndarray.mean`` and ``ndarray.std`` reduce, so the
    result equals ``(values - values.mean()) / values.std()`` bit for bit.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DegenerateInputError("need at least 2 values to z-normalize")
    mean = np.add.reduce(values, axis=None) / values.size
    dev = values - mean
    std = np.sqrt(np.add.reduce(dev * dev, axis=None) / values.size)
    if std < 1e-9 * max(1.0, abs(mean)):
        raise DegenerateInputError("constant input has no spread to normalize")
    return dev / std


def mean_squared_difference(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.add.reduce(diff * diff, axis=None) / diff.size)


def _compare(vals_a, vals_b, ok, too_few: str, constant: str):
    """(MSD of the z-normalized valid samples, degeneracy reason or None)."""
    if int(ok.sum()) < 2:
        return 0.0, too_few
    try:
        za = zscore_normalize(vals_a[ok])
        zb = zscore_normalize(vals_b[ok])
    except DegenerateInputError:
        return 0.0, constant
    return mean_squared_difference(za, zb), None


def _intersecting_term(a: SliceImage, b: SliceImage, roi: Roi):
    """Cost of one intersecting pair from the geometry primitives; (cost, reason).

    ``roi`` restricts sampling on slice ``a``; slice ``b`` uses its full image.
    """
    line = plane_intersection(a.pose, b.pose)
    if line is None:
        return 0.0, "parallel-planes"
    int_a = clip_line_to_roi(a, roi, line)
    int_b = clip_line_to_roi(b, full_image_roi(b.pose), line)
    if int_a is None or int_b is None:
        return 0.0, "no-overlap"
    t_lo = max(int_a[0], int_b[0])
    t_hi = min(int_a[1], int_b[1])
    if t_hi <= t_lo:
        return 0.0, "no-overlap"
    step = min(a.pose.ps_row, a.pose.ps_col, b.pose.ps_row, b.pose.ps_col)
    ts = sample_positions((t_lo, t_hi), step)
    if ts.size < 2:
        return 0.0, "too-few-samples"
    vals_a, ok_a = sample_line_values(a, line, ts)
    vals_b, ok_b = sample_line_values(b, line, ts)
    return _compare(vals_a, vals_b, ok_a & ok_b, "too-few-samples", "constant-segment")


def _contiguous_term(a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi):
    """Cost of one adjacent SA pair from the geometry primitives; (cost, reason)."""
    ra, rb = contiguous_regions(a, roi_a, b, roi_b)
    ok = np.isfinite(ra.values) & np.isfinite(rb.values)
    return _compare(ra.values, rb.values, ok, "no-overlap", "constant-region")


class _LineSide:
    """One slice of an intersecting pair: its frame, ROI and the line's pixel slopes."""

    def __init__(self, img: SliceImage, roi: Roi, direction: np.ndarray):
        pose = img.pose
        if abs(float(pose.normal @ direction)) > 1e-9:
            raise GeometryError("line direction is not parallel to the slice plane")
        if roi.row_max >= pose.rows or roi.col_max >= pose.cols:
            raise GeometryError("ROI exceeds image bounds")
        self.pose, self.roi, self.pixels = pose, roi, img.pixels
        self.dr = float(direction @ pose.iop_row) / pose.ps_row
        self.dc = float(direction @ pose.iop_col) / pose.ps_col

    def clip(self, point: np.ndarray, ipp: np.ndarray):
        """(r0, c0, t interval inside the ROI or None) of the line through ``point``."""
        pose = self.pose
        d = point - ipp
        dist = abs(float(pose.normal @ d))
        if dist > IN_PLANE_TOL:
            raise GeometryError(f"line point is {dist:.3g} mm off the slice plane")
        r0 = float(d @ pose.iop_row / pose.ps_row)
        c0 = float(d @ pose.iop_col / pose.ps_col)
        return r0, c0, clip_pixel_line(r0, self.dr, c0, self.dc, self.roi)


class _LineTerm:
    """Intersecting-profile term of slices ``i`` and ``j``, compiled for translation.

    Normals, line direction, pixel slopes, sampling step and ROI checks do
    not change when the slices only translate, so they are computed once.
    A trial supplies the origins and repeats the arithmetic of
    ``plane_intersection``, ``clip_line_to_roi`` and ``sample_line_values``
    on them in the same order, so its cost is bit-identical to
    ``_intersecting_term``'s.
    """

    kind = "int"

    def __init__(self, i: int, j: int, a: SliceImage, b: SliceImage, roi: Roi):
        self.i, self.j, self.roi = i, j, roi
        n_a, n_b = a.pose.normal, b.pose.normal
        d = np.cross(n_a, n_b)
        norm_d = np.linalg.norm(d)
        self.parallel = bool(norm_d < PARALLEL_TOL)
        if self.parallel:
            return
        self.n_a, self.n_b = n_a, n_b
        self.cross_b, self.cross_a = np.cross(n_b, d), np.cross(d, n_a)
        self.norm_d2 = norm_d * norm_d
        direction = d / norm_d
        self.a = _LineSide(a, roi, direction)
        self.b = _LineSide(b, full_image_roi(b.pose), direction)
        self.step = min(a.pose.ps_row, a.pose.ps_col, b.pose.ps_row, b.pose.ps_col)

    def costs(self, trials) -> list:
        """(cost, reason) at each trial; all trials share one bilinear gather."""
        if self.parallel:
            return [(0.0, "parallel-planes")] * len(trials)
        out: list = [None] * len(trials)
        sampled, origins, ts_parts = [], [], []
        for k, ipps in enumerate(trials):
            ipp_a, ipp_b = ipps[self.i], ipps[self.j]
            h_a = float(self.n_a @ ipp_a)
            h_b = float(self.n_b @ ipp_b)
            point = (h_a * self.cross_b + h_b * self.cross_a) / self.norm_d2
            r0_a, c0_a, int_a = self.a.clip(point, ipp_a)
            r0_b, c0_b, int_b = self.b.clip(point, ipp_b)
            if int_a is None or int_b is None:
                out[k] = (0.0, "no-overlap")
                continue
            t_lo = max(int_a[0], int_b[0])
            t_hi = min(int_a[1], int_b[1])
            if t_hi <= t_lo:
                out[k] = (0.0, "no-overlap")
                continue
            ts = sample_positions((t_lo, t_hi), self.step)
            if ts.size < 2:
                out[k] = (0.0, "too-few-samples")
                continue
            sampled.append((k, ts.size))
            origins.append((r0_a, c0_a, r0_b, c0_b))
            ts_parts.append(ts)
        if not sampled:
            return out
        # Sample pixel (x0 + t*dx) of every trial at once.
        ts = np.concatenate(ts_parts)
        x0s = np.repeat(np.array(origins), [n for _, n in sampled], axis=0)
        vals_a, ok_a = bilinear_sample(self.a.pixels, x0s[:, 0] + ts * self.a.dr,
                                       x0s[:, 1] + ts * self.a.dc)
        vals_b, ok_b = bilinear_sample(self.b.pixels, x0s[:, 2] + ts * self.b.dr,
                                       x0s[:, 3] + ts * self.b.dc)
        ok = ok_a & ok_b
        start = 0
        for k, n in sampled:
            part = slice(start, start + n)
            out[k] = _compare(vals_a[part], vals_b[part], ok[part],
                              "too-few-samples", "constant-segment")
            start += n
        return out


class _RegionSide:
    """One slice of a contiguous pair: ROI-corner offsets and its signed normal."""

    def __init__(self, img: SliceImage, roi: Roi, n: np.ndarray):
        pose = img.pose
        rr = np.array([roi.row_min, roi.row_min, roi.row_max, roi.row_max], dtype=float)
        cc = np.array([roi.col_min, roi.col_max, roi.col_min, roi.col_max], dtype=float)
        self.corner_r = np.multiply.outer(rr * pose.ps_row, pose.iop_row)
        self.corner_c = np.multiply.outer(cc * pose.ps_col, pose.iop_col)
        n_s = pose.normal
        if float(n_s @ n) < 0:
            n_s = -n_s
        self.n_s, self.n_s_dot_n = n_s, float(n_s @ n)
        self.pose, self.pixels, self.n = pose, img.pixels, n

    def sample(self, grid_mid: np.ndarray, ipp: np.ndarray) -> np.ndarray:
        """Slice values at the mid-plane grid projected along n; NaN outside."""
        pose = self.pose
        h_s = float(self.n_s @ ipp)
        t = (h_s - grid_mid @ self.n_s) / self.n_s_dot_n
        d = np.empty_like(grid_mid)
        for k in range(3):
            d[..., k] = grid_mid[..., k] + t * self.n[k] - ipp[k]
        r = d @ pose.iop_row / pose.ps_row
        c = d @ pose.iop_col / pose.ps_col
        vals, valid = bilinear_sample(self.pixels, r, c)
        return np.where(valid, vals, np.nan)


class _RegionTerm:
    """Contiguous-region term of adjacent SA slices ``i`` and ``j``, compiled.

    The mid-plane normal and in-plane axes, each slice's signed normal, the
    ROI-corner offsets and the near-parallel check are fixed under
    translation. A trial repeats the rest of ``contiguous_regions`` in the
    same order, so its cost is bit-identical to ``_contiguous_term``'s.
    """

    kind = "cnt"

    def __init__(self, i: int, j: int, a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi):
        self.i, self.j, self.rois = i, j, (roi_a, roi_b)
        n_a, n_b = a.pose.normal, b.pose.normal
        angle = _angle_between_deg(n_a, n_b)
        if angle > NEAR_PARALLEL_DEG:
            raise GeometryError(f"slices are {angle:.2f} deg from parallel; not an adjacent SA pair")
        n = n_a + (n_b if float(n_a @ n_b) >= 0 else -n_b)
        n = n / np.linalg.norm(n)
        u_axis = a.pose.iop_row - float(a.pose.iop_row @ n) * n
        self.u_axis = u_axis / np.linalg.norm(u_axis)
        self.v_axis = np.cross(n, self.u_axis)
        self.n = n
        self.a, self.b = _RegionSide(a, roi_a, n), _RegionSide(b, roi_b, n)
        self.step = min(a.pose.ps_row, a.pose.ps_col, b.pose.ps_row, b.pose.ps_col)

    def costs(self, trials) -> list:
        """(cost, reason) at each trial, one trial at a time to bound memory."""
        return [self._cost(ipps[self.i], ipps[self.j]) for ipps in trials]

    def _cost(self, ipp_a: np.ndarray, ipp_b: np.ndarray):
        a, b, n, step = self.a, self.b, self.n, self.step
        corners = np.vstack([ipp_a + a.corner_r + a.corner_c, ipp_b + b.corner_r + b.corner_c])
        u = corners @ self.u_axis
        v = corners @ self.v_axis
        u_lo, u_hi = float(u.min()), float(u.max())
        v_lo, v_hi = float(v.min()), float(v.max())
        h_mid = 0.5 * float(n @ ipp_a + n @ ipp_b)
        nu = int(np.floor((u_hi - u_lo) / step + 1e-9)) + 1
        nv = int(np.floor((v_hi - v_lo) / step + 1e-9)) + 1
        uu = u_lo + step * np.arange(nu)
        vv = v_lo + step * np.arange(nv)
        # Built one coordinate plane at a time: a broadcast over a trailing
        # axis of 3 is far slower than these (nu, nv) operations, and every
        # element gets the same arithmetic either way.
        grid_mid = np.empty((nu, nv, 3))
        offset = h_mid * n
        for k in range(3):
            grid_mid[..., k] = uu[:, None] * self.u_axis[k] + vv * self.v_axis[k] + offset[k]
        ra = a.sample(grid_mid, ipp_a)
        rb = b.sample(grid_mid, ipp_b)
        ok = np.isfinite(ra) & np.isfinite(rb)
        return _compare(ra, rb, ok, "no-overlap", "constant-region")


def intersecting_cost(a: SliceImage, b: SliceImage, roi: Roi | None = None) -> float:
    """Dissimilarity of z-normalized profiles along the slices' intersection.

    ``roi`` restricts sampling on slice ``a`` (the SA member of an SA-LA
    pair); None uses the full overlap of both images. Degenerate pairs
    (parallel planes, no overlap, constant profile) contribute 0.
    """
    return _intersecting_term(a, b, roi if roi is not None else full_image_roi(a.pose))[0]


def contiguous_cost(a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi) -> float:
    """Dissimilarity of z-normalized paired regions of adjacent SA slices."""
    return _contiguous_term(a, roi_a, b, roi_b)[0]


@dataclass
class AlignmentProblem:
    """SA stack plus LA views with per-SA-slice ROIs and the contiguous weight.

    A ``None`` ROI stands for the whole image of its slice.
    """

    sa_slices: list
    la_slices: list
    sa_rois: list
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if len(self.sa_slices) < 1:
            raise ParameterError("need at least one SA slice")
        if len(self.sa_rois) != len(self.sa_slices):
            raise ParameterError("one ROI per SA slice required")
        self.sa_rois = [roi if roi is not None else full_image_roi(s.pose)
                        for roi, s in zip(self.sa_rois, self.sa_slices)]
        gamma = self.gamma
        if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real) \
                or not math.isfinite(gamma) or gamma < 0:
            raise ParameterError(f"gamma must be a finite non-negative number, got {gamma!r}")

    @property
    def slices(self) -> list:
        return list(self.sa_slices) + list(self.la_slices)


@dataclass
class AlignmentResult:
    corrected_ipps: np.ndarray       # (n_slices, 3), SA block first then LA
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


class CompiledProblem:
    """The cost terms of an AlignmentProblem, compiled once for translation.

    Terms index ``problem.slices`` (SA block first): every SA-LA and LA-LA
    intersecting pair, then every adjacent SA pair; SA-SA pairs are never
    intersected and each pair is counted once. Compiling raises
    GeometryError for an ROI past its image or a non-parallel SA pair.
    """

    def __init__(self, problem: AlignmentProblem):
        slices, rois = problem.slices, problem.sa_rois
        m, n = len(problem.sa_slices), len(problem.la_slices)
        terms: list = []
        for k in range(m):
            for j in range(m, m + n):
                terms.append(_LineTerm(k, j, slices[k], slices[j], rois[k]))
        for j in range(m, m + n - 1):
            for j2 in range(j + 1, m + n):
                terms.append(_LineTerm(j, j2, slices[j], slices[j2], full_image_roi(slices[j].pose)))
        for k in range(m - 1):
            terms.append(_RegionTerm(k, k + 1, slices[k], rois[k], slices[k + 1], rois[k + 1]))
        self.terms = terms
        self.gamma = problem.gamma
        self.origins = [s.pose.ipp for s in slices]

    def positions(self, ipp_all=None) -> list:
        """Per-slice origins: the recorded ones, or ``ipp_all`` reached by translation."""
        if ipp_all is None:
            return list(self.origins)
        ipp_all = np.asarray(ipp_all, dtype=float)
        if ipp_all.shape != (len(self.origins), 3):
            raise ValueError("ipp_all must provide one 3-vector per slice")
        return [o + (ipp_all[i] - o) for i, o in enumerate(self.origins)]

    def evaluate(self, trials, term_ids) -> list:
        """Weighted (cost, degeneracy reason) of each term at each trial.

        A trial is a sequence of per-slice origins; ``out[m][k]`` is term
        ``term_ids[m]`` at ``trials[k]``. Contiguous costs carry gamma.
        """
        out = []
        for ti in term_ids:
            term = self.terms[ti]
            costs = term.costs(trials)
            if term.kind == "cnt":
                costs = [(self.gamma * cost, reason) for cost, reason in costs]
            out.append(costs)
        return out

    def check(self, slices, records) -> None:
        """Raise RuntimeError unless ``records``, a breakdown at the origins of
        ``slices``, equal each term's definition from the geometry primitives.
        """
        for t, r in zip(self.terms, records):
            if t.kind == "int":
                cost, reason = _intersecting_term(slices[t.i], slices[t.j], t.roi)
            else:
                cost, reason = _contiguous_term(slices[t.i], t.rois[0], slices[t.j], t.rois[1])
                cost = self.gamma * cost
            if reason != r["degenerate"] or not np.array_equal(cost, r["cost"], equal_nan=True):
                raise RuntimeError(
                    f"compiled {t.kind} term {t.i}-{t.j} gives ({r['cost']!r}, "
                    f"{r['degenerate']!r}); its definition gives ({cost!r}, {reason!r})"
                )

    def breakdown(self, ipps) -> list:
        """Per-term records at one set of origins: kind, slice indices, cost, degeneracy."""
        ids = range(len(self.terms))
        return [
            {"kind": t.kind, "slices": [int(t.i), int(t.j)], "cost": cost, "degenerate": reason}
            for t, [(cost, reason)] in zip(self.terms, self.evaluate([ipps], ids))
        ]


def total_cost(problem: AlignmentProblem, ipp_all=None) -> float:
    """Total alignment cost at the given per-slice origins.

    Sums every SA-LA and LA-LA intersecting cost plus gamma times every
    adjacent-SA contiguous cost; each pair counted once.
    """
    compiled = CompiledProblem(problem)
    return float(sum(r["cost"] for r in compiled.breakdown(compiled.positions(ipp_all))))


def cost_breakdown(problem: AlignmentProblem, ipp_all=None) -> list:
    """Per-term records: dicts with kind, slice indices, cost, degeneracy."""
    compiled = CompiledProblem(problem)
    return compiled.breakdown(compiled.positions(ipp_all))


def optimize(problem: AlignmentProblem, max_sweeps: int = MAX_SWEEPS) -> AlignmentResult:
    """Minimize the total cost over per-slice translations.

    Block-coordinate descent: each sweep runs a bounded Nelder-Mead search
    over the 3 translation components of every slice in turn. The middle SA
    slice keeps its original origin to fix the common-translation gauge.
    """
    if isinstance(max_sweeps, bool) or not isinstance(max_sweeps, numbers.Integral) \
            or max_sweeps < 0:
        raise ParameterError(f"max_sweeps must be a non-negative integer, got {max_sweeps!r}")
    slices = problem.slices
    n_slices = len(slices)
    if n_slices < 2:
        raise DegenerateInputError("alignment needs at least 2 slices")
    compiled = CompiledProblem(problem)
    terms = compiled.terms
    if not terms:
        raise DegenerateInputError("no cost terms to minimize")

    anchor = middle_slice_index(len(problem.sa_slices))
    origins = compiled.origins
    deltas = [np.zeros(3) for _ in range(n_slices)]
    current = list(origins)     # per-slice origins at the accepted translations

    initial_breakdown = compiled.breakdown(current)
    # The search trusts the compiled terms for thousands of evaluations, so
    # they must first reproduce the primitives' costs at the start, bit for bit.
    compiled.check(slices, initial_breakdown)
    term_costs = np.array([r["cost"] for r in initial_breakdown])
    term_reasons = [r["degenerate"] for r in initial_breakdown]
    if all(r is not None for r in term_reasons):
        raise DegenerateInputError("every cost term is degenerate; nothing to align")
    initial_cost = float(term_costs.sum())

    touched = [[] for _ in range(n_slices)]
    for ti, t in enumerate(terms):
        touched[t.i].append(ti)
        touched[t.j].append(ti)

    # A term that was live at the start must not be pushed into degeneracy
    # (losing overlap would zero its cost and reward runaway moves).
    live = [r is None for r in term_reasons]
    INFEASIBLE = 1e12
    bound = TRANSLATION_BOUND_MM

    accepted_moves: list = []
    evaluations = {"prescan": 0, "simplex": 0, "regauge": 0}

    def objective(trials, term_ids, phase: str) -> list:
        """Summed cost of ``term_ids`` at each trial; INFEASIBLE once a live term degenerates."""
        evaluations[phase] += len(trials)
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

    def refresh(term_ids):
        """Re-evaluate ``term_ids`` at the accepted translations."""
        for ti, [(cost, reason)] in zip(term_ids, compiled.evaluate([current], term_ids)):
            term_costs[ti], term_reasons[ti] = cost, reason

    def cheapest(starts, trial, term_ids, phase: str) -> int:
        """Index of the first strictly cheapest of ``starts``, all scored in one batch."""
        values = objective([trial(x) for x in starts], term_ids, phase)
        return min(range(len(values)), key=values.__getitem__)

    def nelder_mead(trial, term_ids, phase: str, x0, simplex, bounds=None):
        """(minimizer, its cost) of one Nelder-Mead search from ``simplex``."""
        res = minimize(lambda x: objective([trial(x)], term_ids, phase)[0], x0,
                       method="Nelder-Mead", bounds=bounds,
                       options={"initial_simplex": simplex, **_NELDER_MEAD_OPTIONS})
        return np.asarray(res.x, dtype=float), res.fun

    def accept(who, term_ids, fun, step) -> bool:
        """Whether a move by ``step`` that brings ``term_ids`` to ``fun`` is taken.

        A move must lower the cost meaningfully: hair-thin dips are
        interpolation noise and accepting them makes slices wander, so a
        sub-half-pixel move must earn a substantially better cost. A taken
        move is recorded under ``who``.
        """
        here = float(sum(term_costs[ti] for ti in term_ids))
        dist = float(np.linalg.norm(step))
        min_gain = 3e-2 if dist < 0.5 else 1e-4
        if not (fun < here - min_gain * max(here, 1e-12) and fun < INFEASIBLE):
            return False
        accepted_moves.append({"slice": who, "dist_mm": dist,
                               "relative_gain": float((here - fun) / max(here, 1e-300))})
        return True

    def search(i: int, term_ids, h: float, prescan: bool, require_prescan_move: bool = False):
        """One bounded simplex search of slice i over the given terms."""

        def trial(d) -> list:
            ipps = list(current)
            ipps[i] = origins[i] + np.asarray(d, dtype=float).reshape(3)
            return ipps

        x0 = np.clip(deltas[i], -bound + 1e-9, bound - 1e-9)
        if prescan:
            # Coarse scan in the slice frame seeds the simplex search past
            # local minima of the interpolated profiles.
            pose = slices[i].pose
            starts = [x0] + [
                np.clip(x0 + amt_r * pose.iop_row + amt_c * pose.iop_col + amt_n * pose.normal,
                        -bound, bound)
                for amt_n in (-10.0, -5.0, 0.0, 5.0, 10.0)
                for amt_r in (-4.0, -2.0, 0.0, 2.0, 4.0)
                for amt_c in (-4.0, -2.0, 0.0, 2.0, 4.0)
                if not amt_r == amt_c == amt_n == 0.0
            ]
            best = cheapest(starts, trial, term_ids, "prescan")
            if require_prescan_move and best == 0:
                # Current position already wins the coarse grid: leave the
                # fine placement to the full-objective sweeps, where the
                # interpolation bias of individual terms averages out.
                return
            x0 = starts[best]
        simplex = np.clip(np.vstack([x0, x0 + h * np.eye(3)]), -bound, bound)
        x, fun = nelder_mead(trial, term_ids, "simplex", x0, simplex, [(-bound, bound)] * 3)
        if accept(int(i), term_ids, fun, x - deltas[i]):
            deltas[i] = x
            current[i] = origins[i] + deltas[i]
            refresh(touched[i])

    def other_end(ti: int, i: int) -> int:
        t = terms[ti]
        return t.j if t.i == i else t.i

    def regauge():
        """Shift all non-anchor slices by a common vector to satisfy the anchor.

        Terms among the moving slices are invariant under a common
        translation, so only the anchor's own terms drive this move; it
        repairs a consensus frame that settled away from the frozen slice.
        """
        anchor_terms = touched[anchor]
        if not anchor_terms:
            return

        def trial(v) -> list:
            return [current[i] if i == anchor else origins[i] + (deltas[i] + v)
                    for i in range(n_slices)]

        normal = slices[anchor].pose.normal
        starts = [np.zeros(3)] + [amt * normal for amt in (-6.0, -3.0, 3.0, 6.0)]
        v0 = starts[cheapest(starts, trial, anchor_terms, "regauge")]
        v, fun = nelder_mead(trial, anchor_terms, "regauge", v0,
                             np.vstack([v0, v0 + 1.5 * np.eye(3)]))
        moved = max(np.abs(deltas[i] + v).max() for i in range(n_slices) if i != anchor)
        if moved <= bound and accept("gauge", anchor_terms, fun, v):
            for i in range(n_slices):
                if i != anchor:
                    deltas[i] = deltas[i] + v
                    current[i] = origins[i] + deltas[i]
            refresh(range(len(terms)))

    # Initialization pass: grow the anchored frame outward so the consensus
    # forms around the frozen slice instead of around the displaced views.
    m = len(problem.sa_slices)
    init_order = [m + j for j in range(len(problem.la_slices))] + sorted(
        (k for k in range(m) if k != anchor), key=lambda k: abs(k - anchor)
    )
    initialized = {anchor}
    for i in init_order:
        ids = [ti for ti in touched[i] if other_end(ti, i) in initialized]
        if ids:
            search(i, ids, h=2.0, prescan=True, require_prescan_move=True)
        initialized.add(i)

    prev_total = float(term_costs.sum())
    sweeps = 0
    converged = False
    for sweep in range(max_sweeps):
        sweeps = sweep + 1
        h = max(2.0 * 0.5 ** sweep, 0.25)
        for i in range(n_slices):
            if i == anchor or not touched[i]:
                continue
            search(i, touched[i], h=h, prescan=(sweep <= 2))
        regauge()
        new_total = float(term_costs.sum())
        if prev_total - new_total < REL_TOL * max(prev_total, 1e-300):
            prev_total = min(prev_total, new_total)
            converged = True
            break
        prev_total = new_total

    logger.info("realign: %d prescan, %d simplex and %d regauge cost evaluations",
                evaluations["prescan"], evaluations["simplex"], evaluations["regauge"])
    return AlignmentResult(
        corrected_ipps=np.array([origins[i] + deltas[i] for i in range(n_slices)]),
        initial_cost=initial_cost,
        final_cost=float(term_costs.sum()),
        iterations=sweeps,
        converged=converged,
        diagnostics={
            "translations_mm": np.array(deltas),
            "degenerate_pairs": [
                [int(t.i), int(t.j)]
                for ti, t in enumerate(terms) if term_reasons[ti] is not None
            ],
            "accepted_moves": accepted_moves,
            "cost_evaluations": evaluations,
        },
    )
