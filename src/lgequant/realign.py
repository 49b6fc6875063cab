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
from dataclasses import dataclass, field

import numpy as np

from .dataset import check_stack
from .errors import COUNT, NON_NEGATIVE, DegenerateInputError, ParameterError, check_number
from .geometry import (
    LineSide,
    PixelAtlas,
    PlanePair,
    RegionPair,
    Roi,
    SliceImage,
    clip_line_to_roi,
    contiguous_regions,
    full_image_roi,
    plane_intersection,
    sample_line_values,
    sample_positions,
)
from .simplex import minimize

logger = logging.getLogger(__name__)

DEFAULT_GAMMA = 0.01
# The largest contiguous weight allowed. Every cost term is the MSD of two
# z-normalized sample sets, 2(1 - r) <= 4, so with weights at most MAX_GAMMA a
# feasible total stays below INFEASIBLE for fewer than 250,000 terms: the
# bounded prescan (``cheapest``) is exact only while INFEASIBLE exceeds it.
MAX_GAMMA = 1e6
TRANSLATION_BOUND_MM = 20.0
MAX_SWEEPS = 50
# The most sweeps allowed, twenty times the default: a sweep takes under a second
# on the 96x96x6+2LA wedge phantom, so this keeps a run that never settles to minutes.
MAX_SWEEPS_CAP = 1000
REL_TOL = 1e-6
INFEASIBLE = 1e12          # objective value once a live term degenerates
# Settings of every simplex search the optimizer runs (simplex.minimize). A
# search stops once its simplex spans at most xatol mm in every coordinate and its
# vertex costs differ by at most fatol, both at once. fatol is the accept rule's
# 1e-4 gain floor on costs of order 1 (one slice's terms sum to 0.4-5 on the wedge
# phantom): a smaller gain is interpolation noise the rule would reject anyway.
# xatol is 1/125 of the 1.25 mm phantom pixel, far below what the cost resolves.
# maxiter and maxfev only cap a search that fails to settle.
_NELDER_MEAD_OPTIONS = {"xatol": 1e-2, "fatol": 1e-4, "maxiter": 130, "maxfev": 170}


def middle_slice_index(n: int) -> int:
    """Index of the designated middle slice of an n-slice SA stack."""
    return n // 2


def check_gamma(gamma) -> None:
    """Raise ParameterError unless the contiguous weight is a number in [0, MAX_GAMMA]."""
    check_number("gamma", gamma, **NON_NEGATIVE)
    if gamma > MAX_GAMMA:
        raise ParameterError(f"gamma must be at most {MAX_GAMMA:g}, got {gamma}")


def check_max_sweeps(max_sweeps) -> None:
    """Raise ParameterError unless the sweep cap is an integer in [0, MAX_SWEEPS_CAP]."""
    check_number("max_sweeps", max_sweeps, **COUNT)
    if max_sweeps > MAX_SWEEPS_CAP:
        raise ParameterError(f"max_sweeps must be at most {MAX_SWEEPS_CAP}, got {max_sweeps}")


def _compare(vals_a, vals_b, too_few: str, constant: str, masked: bool = True):
    """(MSD of the z-normalized samples both sides have, degeneracy reason or None).

    NaN marks a position without a sample (``masked=False``: 1-D sides without
    any). Each side is shifted to zero mean and scaled to unit population
    standard deviation, summing what ``ndarray.mean`` and ``ndarray.std`` sum,
    so it equals the formula written with ``mean()`` and ``std()`` bit for bit.
    """
    if masked:
        ok = np.isfinite(vals_a) & np.isfinite(vals_b)
        vals_a, vals_b = vals_a[ok], vals_b[ok]
    n = vals_a.size
    if n < 2:
        return 0.0, too_few
    zs = []
    for values in (vals_a, vals_b):
        mean = float(np.add.reduce(values, axis=None)) / n
        dev = values - mean
        std = math.sqrt(float(np.add.reduce(dev * dev, axis=None)) / n)
        if std < 1e-9 * max(1.0, abs(mean)):
            return 0.0, constant
        zs.append(dev / std)
    diff = zs[0] - zs[1]
    return float(np.add.reduce(diff * diff, axis=None) / n), None


def _line_samples(int_a, int_b, step: float):
    """(sample parameters, None) on the common part of two clipped intervals,
    or (None, degeneracy reason)."""
    if int_a is None or int_b is None:
        return None, "no-overlap"
    t_lo = max(int_a[0], int_b[0])
    t_hi = min(int_a[1], int_b[1])
    if t_hi <= t_lo:
        return None, "no-overlap"
    ts = sample_positions((t_lo, t_hi), step)
    return (ts, None) if ts.size >= 2 else (None, "too-few-samples")


def _intersecting_term(a: SliceImage, b: SliceImage, roi: Roi):
    """Cost of one intersecting pair from the geometry primitives; (cost, reason).

    ``roi`` restricts sampling on slice ``a``; slice ``b`` uses its full image.
    """
    line = plane_intersection(a.pose, b.pose)
    if line is None:
        return 0.0, "parallel-planes"
    step = min(a.pose.ps_row, a.pose.ps_col, b.pose.ps_row, b.pose.ps_col)
    ts, reason = _line_samples(clip_line_to_roi(a, roi, line),
                               clip_line_to_roi(b, full_image_roi(b.pose), line), step)
    if reason is not None:
        return 0.0, reason
    return _compare(sample_line_values(a, line, ts), sample_line_values(b, line, ts),
                    "too-few-samples", "constant-segment")


def _contiguous_term(a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi):
    """Cost of one adjacent SA pair from the geometry primitives; (cost, reason)."""
    vals_a, vals_b, _ = contiguous_regions(a, roi_a, b, roi_b)
    return _compare(vals_a, vals_b, "no-overlap", "constant-region")


class _LineTerm:
    """Intersecting-profile term of slices ``i`` and ``j``, compiled for translation.

    ``plane_intersection``, ``clip_line_to_roi`` and ``sample_line_values``
    build a ``PlanePair`` and ``LineSide``s per call; this term builds them
    once and plans each trial with them, and ``CompiledProblem.evaluate``
    samples the plans with ``bilinear_sample``'s routine, so its cost is
    bit-identical to ``_intersecting_term``'s.
    """

    kind = "int"

    def __init__(self, i: int, j: int, a: SliceImage, b: SliceImage, roi: Roi):
        self.i, self.j, self.roi = i, j, roi
        self.line = PlanePair(a.pose, b.pose)
        if self.line.parallel:
            return
        self.a = LineSide(a, roi, self.line.direction)
        self.b = LineSide(b, full_image_roi(b.pose), self.line.direction)
        self.step = min(a.pose.ps_row, a.pose.ps_col, b.pose.ps_row, b.pose.ps_col)
        self.slopes = [self.a.dr, self.b.dr, self.a.dc, self.b.dc]

    def plan(self, ipps):
        """((r0, c0, dr, dc, slice, each of side a then b), parameters t) of the
        line's samples at these origins, side x at pixel (r0_x + t*dr_x,
        c0_x + t*dc_x) of its slice; or (None, degeneracy reason)."""
        if self.line.parallel:
            return None, "parallel-planes"
        ipp_a, ipp_b = ipps[self.i].tolist(), ipps[self.j].tolist()
        point = self.line.point(ipp_a, ipp_b)
        r0_a, c0_a, int_a = self.a.clip(point, ipp_a)
        r0_b, c0_b, int_b = self.b.clip(point, ipp_b)
        ts, reason = _line_samples(int_a, int_b, self.step)
        if reason is not None:
            return None, reason
        return ([r0_a, r0_b, c0_a, c0_b, *self.slopes, self.i, self.j], ts), None


class _RegionTerm:
    """Contiguous-region term of adjacent SA slices ``i`` and ``j``, compiled.

    ``contiguous_regions`` builds a ``RegionPair`` per call; this term builds
    one at compile time and samples it at each trial's origins, so its cost
    is bit-identical to ``_contiguous_term``'s.
    """

    kind = "cnt"

    def __init__(self, i: int, j: int, a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi):
        self.i, self.j, self.rois = i, j, (roi_a, roi_b)
        self.pair = RegionPair(a, roi_a, b, roi_b)

    def costs(self, trials) -> list:
        """(cost, reason) at each trial, one trial at a time to bound memory; a
        lattice pair computes only the rectangle both slices have samples in."""
        if self.pair.lattice:
            return [_compare(*self.pair.common(ipps[self.i], ipps[self.j]),
                             "no-overlap", "constant-region", masked=False) for ipps in trials]
        return [_compare(*self.pair.sample(ipps[self.i], ipps[self.j])[:2],
                         "no-overlap", "constant-region") for ipps in trials]


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
        check_stack(self.slices, self.sa_rois)
        self.sa_rois = [roi if roi is not None else full_image_roi(s.pose)
                        for roi, s in zip(self.sa_rois, self.sa_slices)]
        check_gamma(self.gamma)

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
        self.atlas = PixelAtlas([s.pixels for s in slices])
        # Contiguous-term evaluations by sampling path, objective evaluations
        # by search phase, and (term, trial) scores ``cheapest`` skipped, for the log.
        self.region_samples = {"lattice": 0, "gather": 0}
        self.evaluations = {"prescan": 0, "simplex": 0, "regauge": 0}
        self.skipped = {"prescan": 0, "regauge": 0}

    def positions(self, ipp_all=None) -> list:
        """Per-slice origins: the recorded ones, or ``ipp_all`` reached by translation."""
        if ipp_all is None:
            return list(self.origins)
        ipp_all = np.asarray(ipp_all, dtype=float)
        if ipp_all.shape != (len(self.origins), 3) or not np.isfinite(ipp_all).all():
            raise ParameterError("ipp_all must provide one finite 3-vector per slice")
        return [o + (ipp_all[i] - o) for i, o in enumerate(self.origins)]

    def evaluate(self, trials, term_ids) -> list:
        """Weighted (cost, degeneracy reason) of each term at each trial.

        A trial is a sequence of per-slice origins; ``out[m][k]`` is term
        ``term_ids[m]`` at ``trials[k]``. Contiguous costs carry gamma. One
        gather of the atlas samples every intersecting term at every trial.
        """
        out, segments = [], []
        for ti in term_ids:
            term = self.terms[ti]
            if term.kind == "cnt":
                out.append([(self.gamma * cost, reason) for cost, reason in term.costs(trials)])
                self.region_samples["lattice" if term.pair.lattice else "gather"] += len(trials)
                continue
            out.append([None] * len(trials))
            for k, ipps in enumerate(trials):
                plan, reason = term.plan(ipps)
                out[-1][k] = (0.0, reason)          # a sampled segment's is set below
                if plan is not None:
                    segments.append((out[-1], k, *plan))
        if not segments:
            return out
        counts = [s[3].size for s in segments]
        ends = np.cumsum(counts)
        plans = np.array([s[2] for s in segments]).T.reshape(5, 2, -1)   # [entry][side][segment]
        each = lambda k: np.repeat(plans[k], counts, axis=1)               # entry k at each sample
        ts = np.concatenate([s[3] for s in segments])
        slices = plans[4].astype(np.intp)
        if (slices == slices[:, :1]).all():      # one term: its two slices broadcast
            slices = slices[:, :1]
        else:
            slices = np.repeat(slices, counts, axis=1)
        vals = self.atlas.sample(slices, each(0) + ts * each(2), each(1) + ts * each(3))
        ok = np.isfinite(vals[0]) & np.isfinite(vals[1])
        if not ok.all():    # drop positions a side has no sample at; segments stay contiguous
            ends, vals = np.cumsum(ok)[ends - 1], vals[:, ok]
        bounds = [0, *ends.tolist()]
        for (costs, k, *_), start, end in zip(segments, bounds, bounds[1:]):
            costs[k] = _compare(vals[0, start:end], vals[1, start:end],
                                "too-few-samples", "constant-segment", masked=False)
        return out

    def objective(self, trial, term_ids, live, phase: str) -> float:
        """Summed cost of ``term_ids`` at one trial, counted under ``phase``;
        INFEASIBLE once a ``live`` term degenerates. ``cheapest`` scores a batch
        of trials against it."""
        self.evaluations[phase] += 1
        value = 0.0
        for ti, [(cost, reason)] in zip(term_ids, self.evaluate([trial], term_ids)):
            if reason is not None and live[ti]:
                return INFEASIBLE
            value += cost
        return value

    def cheapest(self, trials, term_ids, live, phase: str) -> int:
        """Index of the first strictly cheapest of ``trials`` under ``objective``.

        Trial 0 is scored in full, the others term by term, each dropped once its
        partial sum reaches trial 0's total: a term adds a cost >= 0, which never
        lowers a rounded sum, so it could not win (ties go to the first index;
        INFEASIBLE exceeds every feasible total)."""
        bar = self.objective(trials[0], term_ids, live, phase)
        self.evaluations[phase] += len(trials) - 1
        values, pending = [bar] + [0.0] * (len(trials) - 1), list(range(1, len(trials)))
        for n, ti in enumerate(term_ids, 1):
            if not pending:
                break
            [costs] = self.evaluate([trials[k] for k in pending], [ti])
            still = []
            for k, (cost, reason) in zip(pending, costs):
                if reason is not None and live[ti]:
                    values[k] = INFEASIBLE
                    continue
                values[k] += cost
                if values[k] < bar:
                    still.append(k)
                else:
                    self.skipped[phase] += len(term_ids) - n
            pending = still
        return min(range(len(values)), key=values.__getitem__)

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
    check_max_sweeps(max_sweeps)
    slices = problem.slices
    n_slices = len(slices)
    if n_slices < 2:
        raise DegenerateInputError("alignment needs at least 2 slices")
    compiled = CompiledProblem(problem)
    terms = compiled.terms

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
    bound = TRANSLATION_BOUND_MM

    accepted_moves: list = []
    stops = {"tolerance": 0, "cap": 0}      # Nelder-Mead searches by how they ended

    def refresh(term_ids):
        """Re-evaluate ``term_ids`` at the accepted translations."""
        for ti, [(cost, reason)] in zip(term_ids, compiled.evaluate([current], term_ids)):
            term_costs[ti], term_reasons[ti] = cost, reason

    def nelder_mead(trial, term_ids, phase: str, simplex, bounds=None):
        """(minimizer, its cost) of one Nelder-Mead search from ``simplex``."""
        x, fun, _, status = minimize(
            lambda x: compiled.objective(trial(x), term_ids, live, phase), simplex,
            bounds=bounds, **_NELDER_MEAD_OPTIONS)
        stops["tolerance" if status == 0 else "cap"] += 1   # else maxfev or maxiter
        return x, fun

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

        x0 = deltas[i]
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
            trials = [trial(x) for x in starts]
            best = compiled.cheapest(trials, term_ids, live, "prescan")
            if require_prescan_move and best == 0:
                # Current position already wins the coarse grid: leave the
                # fine placement to the full-objective sweeps, where the
                # interpolation bias of individual terms averages out.
                return
            x0 = starts[best]
        simplex = np.clip(np.vstack([x0, x0 + h * np.eye(3)]), -bound, bound)
        x, fun = nelder_mead(trial, term_ids, "simplex", simplex, (-bound, bound))
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
        trials = [trial(v) for v in starts]
        v0 = starts[compiled.cheapest(trials, anchor_terms, live, "regauge")]
        v, fun = nelder_mead(trial, anchor_terms, "regauge", np.vstack([v0, v0 + 1.5 * np.eye(3)]))
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
            converged = True
            break
        prev_total = new_total

    logger.info("realign: %d prescan, %d simplex and %d regauge cost evaluations",
                *(compiled.evaluations[k] for k in ("prescan", "simplex", "regauge")))
    logger.info("realign: the bound skipped %d prescan and %d regauge scores",
                compiled.skipped["prescan"], compiled.skipped["regauge"])
    logger.info("realign: %d contiguous evaluations on the pixel lattice, %d by gather",
                compiled.region_samples["lattice"], compiled.region_samples["gather"])
    # Each search proposes one move, so the moves not accepted were rejected.
    searches = stops["tolerance"] + stops["cap"]
    logger.info("realign: %d Nelder-Mead searches, %d stopped on tolerance and %d at "
                "maxiter/maxfev", searches, stops["tolerance"], stops["cap"])
    logger.info("realign: %d moves accepted, %d rejected",
                len(accepted_moves), searches - len(accepted_moves))
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
            "cost_evaluations": compiled.evaluations,
        },
    )
