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

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .errors import DegenerateInputError
from .geometry import (
    Roi,
    SliceImage,
    clip_line_to_roi,
    contiguous_regions,
    full_image_roi,
    plane_intersection,
    sample_line_values,
    sample_positions,
)

DEFAULT_GAMMA = 0.01
TRANSLATION_BOUND_MM = 20.0
MAX_SWEEPS = 50
REL_TOL = 1e-6


def middle_slice_index(n: int) -> int:
    """Index of the designated middle slice of an n-slice SA stack."""
    return n // 2


def zscore_normalize(values: np.ndarray) -> np.ndarray:
    """Shift/scale to zero mean and unit population standard deviation."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DegenerateInputError("need at least 2 values to z-normalize")
    mean = values.mean()
    std = values.std()
    if std < 1e-9 * max(1.0, abs(mean)):
        raise DegenerateInputError("constant input has no spread to normalize")
    return (values - mean) / std


def mean_squared_difference(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def _intersecting_term(a: SliceImage, b: SliceImage, roi: Roi | None):
    """Cost of one intersecting pair; (cost, degeneracy reason or None).

    ``roi`` restricts sampling on slice ``a`` (the SA member of an SA-LA
    pair); LA-LA pairs pass None and use the full overlap of both images.
    """
    line = plane_intersection(a.pose, b.pose)
    if line is None:
        return 0.0, "parallel-planes"
    int_a = clip_line_to_roi(a, roi if roi is not None else full_image_roi(a.pose), line)
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
    ok = ok_a & ok_b
    if int(ok.sum()) < 2:
        return 0.0, "too-few-samples"
    try:
        za = zscore_normalize(vals_a[ok])
        zb = zscore_normalize(vals_b[ok])
    except DegenerateInputError:
        return 0.0, "constant-segment"
    return mean_squared_difference(za, zb), None


def _contiguous_term(a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi):
    """Cost of one adjacent SA pair; (cost, degeneracy reason or None)."""
    ra, rb = contiguous_regions(a, roi_a, b, roi_b)
    ok = np.isfinite(ra.values) & np.isfinite(rb.values)
    if int(ok.sum()) < 2:
        return 0.0, "no-overlap"
    try:
        za = zscore_normalize(ra.values[ok])
        zb = zscore_normalize(rb.values[ok])
    except DegenerateInputError:
        return 0.0, "constant-region"
    return mean_squared_difference(za, zb), None


def intersecting_cost(a: SliceImage, b: SliceImage, roi: Roi | None = None) -> float:
    """Dissimilarity of z-normalized profiles along the slices' intersection.

    Degenerate pairs (parallel planes, no overlap, constant profile)
    contribute 0.
    """
    cost, _ = _intersecting_term(a, b, roi)
    return cost


def contiguous_cost(a: SliceImage, roi_a: Roi, b: SliceImage, roi_b: Roi) -> float:
    """Dissimilarity of z-normalized paired regions of adjacent SA slices."""
    cost, _ = _contiguous_term(a, roi_a, b, roi_b)
    return cost


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
            raise ValueError("need at least one SA slice")
        if len(self.sa_rois) != len(self.sa_slices):
            raise ValueError("one ROI per SA slice required")
        self.sa_rois = [roi if roi is not None else full_image_roi(s.pose)
                        for roi, s in zip(self.sa_rois, self.sa_slices)]
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")

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


def _build_terms(problem: AlignmentProblem):
    """Term list: ('int', i, j, roi) and ('cnt', i, j, roi_i, roi_j).

    Indices are into problem.slices (SA block first). SA-SA pairs are never
    intersected; each intersecting pair and each adjacency is counted once.
    """
    m = len(problem.sa_slices)
    n = len(problem.la_slices)
    terms = []
    for k in range(m):
        for j in range(n):
            terms.append(("int", k, m + j, problem.sa_rois[k]))
    for j in range(n - 1):
        for j2 in range(j + 1, n):
            terms.append(("int", m + j, m + j2, None))
    for k in range(m - 1):
        terms.append(("cnt", k, k + 1, problem.sa_rois[k], problem.sa_rois[k + 1]))
    return terms


def _eval_term(term, slices, gamma):
    """(weighted cost, reason) of one term against the current slice list."""
    if term[0] == "int":
        _, i, j, roi = term
        cost, reason = _intersecting_term(slices[i], slices[j], roi)
        return cost, reason
    _, i, j, roi_i, roi_j = term
    cost, reason = _contiguous_term(slices[i], roi_i, slices[j], roi_j)
    return gamma * cost, reason


def total_cost(problem: AlignmentProblem, ipp_all=None) -> float:
    """Total alignment cost at the given per-slice origins.

    Sums every SA-LA and LA-LA intersecting cost plus gamma times every
    adjacent-SA contiguous cost; each pair counted once.
    """
    slices = problem.slices
    if ipp_all is not None:
        ipp_all = np.asarray(ipp_all, dtype=float)
        if ipp_all.shape != (len(slices), 3):
            raise ValueError("ipp_all must provide one 3-vector per slice")
        slices = [
            s.translated(ipp_all[i] - s.pose.ipp) for i, s in enumerate(slices)
        ]
    terms = _build_terms(problem)
    return float(sum(_eval_term(t, slices, problem.gamma)[0] for t in terms))


def cost_breakdown(problem: AlignmentProblem, ipp_all=None) -> list:
    """Per-term records: dicts with kind, slice indices, cost, degeneracy."""
    slices = problem.slices
    if ipp_all is not None:
        ipp_all = np.asarray(ipp_all, dtype=float)
        slices = [s.translated(ipp_all[i] - s.pose.ipp) for i, s in enumerate(slices)]
    records = []
    for t in _build_terms(problem):
        cost, reason = _eval_term(t, slices, problem.gamma)
        records.append(
            {"kind": t[0], "slices": [int(t[1]), int(t[2])], "cost": cost, "degenerate": reason}
        )
    return records


def optimize(
    problem: AlignmentProblem,
    max_sweeps: int = MAX_SWEEPS,
    rel_tol: float = REL_TOL,
    bound_mm: float = TRANSLATION_BOUND_MM,
) -> AlignmentResult:
    """Minimize the total cost over per-slice translations.

    Block-coordinate descent: each sweep runs a bounded Nelder-Mead search
    over the 3 translation components of every slice in turn. The middle SA
    slice keeps its original origin to fix the common-translation gauge.
    """
    slices = problem.slices
    n_slices = len(slices)
    if n_slices < 2:
        raise DegenerateInputError("alignment needs at least 2 slices")
    terms = _build_terms(problem)
    if not terms:
        raise DegenerateInputError("no cost terms to minimize")

    anchor = middle_slice_index(len(problem.sa_slices))
    orig_ipps = [s.pose.ipp.copy() for s in slices]
    deltas = [np.zeros(3) for _ in range(n_slices)]
    current = list(slices)

    term_costs = np.zeros(len(terms))
    term_reasons: list = [None] * len(terms)
    for ti, t in enumerate(terms):
        term_costs[ti], term_reasons[ti] = _eval_term(t, current, problem.gamma)
    if all(r is not None for r in term_reasons):
        raise DegenerateInputError("every cost term is degenerate; nothing to align")
    initial_cost = float(term_costs.sum())
    initial_breakdown = [
        {"kind": t[0], "slices": [int(t[1]), int(t[2])], "cost": float(term_costs[ti]),
         "degenerate": term_reasons[ti]}
        for ti, t in enumerate(terms)
    ]

    touched = [[] for _ in range(n_slices)]
    for ti, t in enumerate(terms):
        touched[t[1]].append(ti)
        touched[t[2]].append(ti)

    # A term that was live at the start must not be pushed into degeneracy
    # (losing overlap would zero its cost and reward runaway moves).
    live = [r is None for r in term_reasons]
    INFEASIBLE = 1e12
    bounds = [(-bound_mm, bound_mm)] * 3

    accepted_moves: list = []

    def search(i: int, term_ids, h: float, prescan: bool, require_prescan_move: bool = False):
        """One bounded simplex search of slice i over the given terms."""

        def obj(d):
            trial = current[i]
            current[i] = slices[i].translated(d)
            try:
                acc = 0.0
                for ti in term_ids:
                    cost, reason = _eval_term(terms[ti], current, problem.gamma)
                    if reason is not None and live[ti]:
                        return INFEASIBLE
                    acc += cost
                return acc
            finally:
                current[i] = trial

        x0 = np.clip(deltas[i], -bound_mm + 1e-9, bound_mm - 1e-9)
        if prescan:
            # Coarse scan in the slice frame seeds the simplex search past
            # local minima of the interpolated profiles.
            pose = slices[i].pose
            frame = (pose.iop_row, pose.iop_col, pose.normal)
            f0 = obj(x0)
            best_f, best_x = f0, x0
            for amt_n in (-10.0, -5.0, 0.0, 5.0, 10.0):
                for amt_r in (-4.0, -2.0, 0.0, 2.0, 4.0):
                    for amt_c in (-4.0, -2.0, 0.0, 2.0, 4.0):
                        if amt_r == amt_c == amt_n == 0.0:
                            continue
                        cand = np.clip(
                            x0 + amt_r * frame[0] + amt_c * frame[1] + amt_n * frame[2],
                            -bound_mm, bound_mm,
                        )
                        f = obj(cand)
                        if f < best_f:
                            best_f, best_x = f, cand
            if require_prescan_move and best_x is x0:
                # Current position already wins the coarse grid: leave the
                # fine placement to the full-objective sweeps, where the
                # interpolation bias of individual terms averages out.
                return
            x0 = best_x
        simplex = np.clip(np.vstack([x0, x0 + h * np.eye(3)]), -bound_mm, bound_mm)
        res = minimize(
            obj, x0, method="Nelder-Mead", bounds=bounds,
            options={"initial_simplex": simplex, "xatol": 1e-3, "fatol": 1e-12,
                     "maxiter": 130, "maxfev": 170},
        )
        here = float(sum(term_costs[ti] for ti in term_ids))
        # Require a meaningful improvement; hair-thin dips are interpolation
        # noise and accepting them makes slices wander. Sub-half-pixel
        # adjustments must earn a substantially better cost.
        step_norm = float(np.linalg.norm(np.asarray(res.x) - deltas[i]))
        min_gain = 3e-2 if step_norm < 0.5 else 1e-4
        if res.fun < here - min_gain * max(here, 1e-12) and res.fun < INFEASIBLE:
            step = np.asarray(res.x, dtype=float) - deltas[i]
            accepted_moves.append({
                "slice": int(i), "dist_mm": float(np.linalg.norm(step)),
                "relative_gain": float((here - res.fun) / max(here, 1e-300)),
            })
            deltas[i] = np.asarray(res.x, dtype=float)
            current[i] = slices[i].translated(deltas[i])
            for ti in touched[i]:
                term_costs[ti], term_reasons[ti] = _eval_term(
                    terms[ti], current, problem.gamma
                )

    def other_end(ti: int, i: int) -> int:
        t = terms[ti]
        return t[2] if t[1] == i else t[1]

    def regauge():
        """Shift all non-anchor slices by a common vector to satisfy the anchor.

        Terms among the moving slices are invariant under a common
        translation, so only the anchor's own terms drive this move; it
        repairs a consensus frame that settled away from the frozen slice.
        """
        anchor_terms = touched[anchor]
        if not anchor_terms:
            return

        def gauge_obj(v):
            saved = list(current)
            for i in range(n_slices):
                if i != anchor:
                    current[i] = slices[i].translated(deltas[i] + v)
            try:
                acc = 0.0
                for ti in anchor_terms:
                    cost, reason = _eval_term(terms[ti], current, problem.gamma)
                    if reason is not None and live[ti]:
                        return INFEASIBLE
                    acc += cost
                return acc
            finally:
                current[:] = saved

        normal = slices[anchor].pose.normal
        best_f, best_v = gauge_obj(np.zeros(3)), np.zeros(3)
        for amt in (-6.0, -3.0, 3.0, 6.0):
            f = gauge_obj(amt * normal)
            if f < best_f:
                best_f, best_v = f, amt * normal
        simplex = np.vstack([best_v, best_v + 1.5 * np.eye(3)])
        res = minimize(
            gauge_obj, best_v, method="Nelder-Mead",
            options={"initial_simplex": simplex, "xatol": 1e-3, "fatol": 1e-12,
                     "maxiter": 130, "maxfev": 170},
        )
        here = float(sum(term_costs[ti] for ti in anchor_terms))
        v = np.asarray(res.x, dtype=float)
        moved = [np.abs(deltas[i] + v).max() for i in range(n_slices) if i != anchor]
        min_gain = 3e-2 if float(np.linalg.norm(v)) < 0.5 else 1e-4
        if (
            res.fun < here - min_gain * max(here, 1e-12)
            and res.fun < INFEASIBLE
            and max(moved) <= bound_mm
        ):
            accepted_moves.append({
                "slice": "gauge", "dist_mm": float(np.linalg.norm(v)),
                "relative_gain": float((here - res.fun) / max(here, 1e-300)),
            })
            for i in range(n_slices):
                if i != anchor:
                    deltas[i] = deltas[i] + v
                    current[i] = slices[i].translated(deltas[i])
            for ti in range(len(terms)):
                term_costs[ti], term_reasons[ti] = _eval_term(
                    terms[ti], current, problem.gamma
                )

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
        if prev_total - new_total < rel_tol * max(prev_total, 1e-300):
            prev_total = min(prev_total, new_total)
            converged = True
            break
        prev_total = new_total

    final_cost = float(term_costs.sum())
    corrected = np.array([orig_ipps[i] + deltas[i] for i in range(n_slices)])
    diagnostics = {
        "anchor_slice": int(anchor),
        "translations_mm": np.array(deltas),
        "terms_before": initial_breakdown,
        "terms_after": [
            {"kind": t[0], "slices": [int(t[1]), int(t[2])], "cost": float(term_costs[ti]),
             "degenerate": term_reasons[ti]}
            for ti, t in enumerate(terms)
        ],
        "degenerate_pairs": [
            [int(t[1]), int(t[2])]
            for ti, t in enumerate(terms) if term_reasons[ti] is not None
        ],
        "accepted_moves": accepted_moves,
    }
    return AlignmentResult(
        corrected_ipps=corrected,
        initial_cost=initial_cost,
        final_cost=final_cost,
        iterations=sweeps,
        converged=converged,
        diagnostics=diagnostics,
    )
