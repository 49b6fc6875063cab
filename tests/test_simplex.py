"""The package's Nelder–Mead search against scipy's, bit for bit.

``lgequant.simplex.minimize`` is scipy's ``_minimize_neldermead`` on the two paths
realignment runs (a given simplex, bounded or not). scipy.optimize stays here as
the oracle, as ``test_rician.py`` keeps ``leastsq`` for the mixture fit: every
point evaluated, in order, and the minimizer, its value, the evaluation count and
the status must be the same bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from lgequant import realign
from lgequant.realign import _NELDER_MEAD_OPTIONS, INFEASIBLE, TRANSLATION_BOUND_MM
from lgequant.simplex import minimize
from test_realign import build_problem

BOUNDS = (-TRANSLATION_BOUND_MM, TRANSLATION_BOUND_MM)


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def search_both(fun, simplex, bounds=None, **options) -> tuple:
    """(x, fun, evaluations, status) of the package's search, after checking that
    scipy's search from the same simplex evaluates the same points and ends the same."""
    options = {**_NELDER_MEAD_OPTIONS, **options}
    seen = ([], [])

    def recorded(k):
        def g(x):
            seen[k].append(np.array(x))
            return fun(x)
        return g

    ours = minimize(recorded(0), simplex, bounds=bounds, **options)
    x0 = simplex[0] if bounds is None else np.clip(simplex[0], *bounds)
    res = scipy_minimize(recorded(1), x0, method="Nelder-Mead",
                         bounds=None if bounds is None else [bounds] * len(x0),
                         options={"initial_simplex": simplex, **options})
    assert bits(seen[0]) == bits(seen[1])
    x, value, nfev, status = ours
    assert (bits(x), bits(value), nfev, status) == (bits(res.x), bits(res.fun), res.nfev,
                                                    res.status)
    return ours


def quadratic(hessian_factor, center, wall=None, step=None):
    """(x - c)' A A' (x - c) + |x - c|^2, INFEASIBLE where x[0] > ``wall``, rounded
    down to a multiple of ``step`` (so that vertices and trial points tie)."""
    a, c = np.asarray(hessian_factor, dtype=float), np.asarray(center, dtype=float)
    h = a @ a.T + np.eye(len(c))

    def fun(x):
        if wall is not None and x[0] > wall:
            return INFEASIBLE
        d = x - c
        value = float(d @ h @ d)
        return value if step is None else math.floor(value / step) * step
    return fun


coords = st.floats(-30.0, 30.0, allow_nan=False)
triples = st.lists(coords, min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3), min_size=3,
                max_size=3),
       triples, st.lists(triples, min_size=4, max_size=4), st.booleans(),
       st.one_of(st.none(), coords), st.sampled_from([None, 1.0, 50.0]),
       st.floats(1e-4, 1.0), st.floats(1e-6, 1e-1))
def test_quadratic_searches_match_scipy(factor, center, simplex, bounded, wall, step,
                                        xatol, fatol):
    search_both(quadratic(factor, center, wall, step), np.array(simplex),
                BOUNDS if bounded else None, xatol=xatol, fatol=fatol)


def _on_simplex_only(simplex):
    """0, 1, 2, ... at the vertices of ``simplex`` and INFEASIBLE everywhere else, so
    that the first iteration reflects, contracts inside and then shrinks."""
    table = {tuple(v): float(k) for k, v in enumerate(simplex)}
    return lambda x: table.get(tuple(x), INFEASIBLE)


SIMPLEX = np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 3.0], [1.0, 3.5, 3.0], [1.0, 2.0, 1.0]])


@pytest.mark.parametrize("bounds", [BOUNDS, None], ids=["bounded", "unbounded"])
@pytest.mark.parametrize("maxfev", [7, 8, 9, 10])
def test_a_search_cut_by_maxfev_inside_a_shrink_matches_scipy(bounds, maxfev):
    # 4 vertices, the reflection and the inside contraction take 6 evaluations and
    # the shrink 3 more: maxfev 7 and 8 stop the shrink part way.
    x, value, nfev, status = search_both(_on_simplex_only(SIMPLEX), SIMPLEX, bounds,
                                         maxfev=maxfev)
    assert (nfev, status) == (maxfev, 1)
    assert bits(x) == bits(SIMPLEX[0]) and value == 0.0


@pytest.mark.parametrize("bounds", [BOUNDS, None], ids=["bounded", "unbounded"])
def test_a_search_stopped_by_maxiter_matches_scipy(bounds):
    fun = quadratic(np.eye(3), [3.0, -4.0, 5.0])
    _, _, nfev, status = search_both(fun, SIMPLEX, bounds, maxiter=5, maxfev=1000)
    assert status == 2 and nfev < 1000


def test_a_search_at_both_caps_reports_maxfev():
    # One iteration of 5 evaluations after the 4 vertices reaches both caps at once.
    _, _, nfev, status = search_both(_on_simplex_only(SIMPLEX), SIMPLEX, maxiter=2, maxfev=9)
    assert (nfev, status) == (9, 1)


def test_a_nan_value_is_the_searchs_value_as_in_scipy():
    # argsort puts the NaN of the last vertex last, so the best vertex is a number
    # while min(fsim) is NaN.
    fun = quadratic(np.eye(3), [0.0, 0.0, 0.0])
    x, value, _, _ = search_both(lambda x: np.nan if x[2] < 2.0 else fun(x), SIMPLEX,
                                 maxfev=4)
    assert bits(x) == bits(SIMPLEX[0]) and np.isnan(value)


@pytest.mark.parametrize("bounds", [BOUNDS, None], ids=["bounded", "unbounded"])
def test_a_search_over_an_infeasible_half_space_matches_scipy(bounds):
    fun = quadratic(np.eye(3), [6.0, 0.0, 0.0], wall=2.5)
    x, value, _, status = search_both(fun, SIMPLEX, bounds)
    assert status == 0 and x[0] <= 2.5 and value < INFEASIBLE


def test_a_vertex_above_the_upper_bound_is_reflected_as_scipy_reflects_it():
    simplex = SIMPLEX + [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 23.0, 0.0]]
    seen = []
    fun = quadratic(np.eye(3), [0.0, 0.0, 0.0])
    search_both(lambda x: seen.append(x) or fun(x), simplex, BOUNDS)
    assert bits(seen[3]) == bits([1.0, 2 * BOUNDS[1] - 25.0, 1.0])


def test_every_search_of_a_realignment_matches_scipy(monkeypatch):
    calls = []

    def checked(fun, simplex, bounds=None, **options):
        calls.append(bounds)
        return search_both(fun, simplex, bounds, **options)
    monkeypatch.setattr(realign, "minimize", checked)
    realign.optimize(build_problem(), max_sweeps=1)
    assert BOUNDS in calls and None in calls        # the slice searches and a regauge
