"""Nelder–Mead simplex search (Nelder and Mead, Computer Journal 1965): scipy 1.17's
``_minimize_neldermead`` op for op from a given simplex, bounded or not, so that
realignment gets scipy's bits without loading ``scipy.optimize``."""

import numpy as np

RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5      # reflection, expansion, contraction, shrink


class _Spent(Exception):
    """The search asked for an evaluation past ``maxfev``."""


def minimize(fun, simplex, *, xatol, fatol, maxiter, maxfev, bounds=None):
    """(x, least value, evaluations, status) of a search of ``fun`` from an (n + 1, n) simplex.

    With ``bounds = (lower, upper)`` a vertex above ``upper`` is reflected below it,
    and every vertex and trial point is clipped to the box. ``status`` is 0 once the
    simplex spans at most ``xatol`` in each coordinate and its values differ by at
    most ``fatol``, 1 at ``maxfev`` evaluations and else 2 at ``maxiter`` iterations.
    """
    sim = np.array(simplex, dtype=float)
    n, calls = sim.shape[1], 0
    if bounds is not None:
        lower, upper = bounds
        sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)

    def clip(x):
        return x if bounds is None else np.clip(x, lower, upper)

    def f(x) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _Spent
        calls += 1
        return fun(np.copy(x))

    fsim = np.full(n + 1, np.inf)
    for k in range(min(n + 1, maxfev)):     # a vertex past maxfev keeps inf
        fsim[k] = f(sim[k])
    for _ in range(2):                      # twice, as scipy does: a tie may reorder
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while calls < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = clip((1 + RHO) * xbar - RHO * sim[-1])
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = clip((1 + RHO * CHI) * xbar - RHO * CHI * sim[-1])
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:                       # contract outside or inside, else shrink
                outside = fxr < fsim[-1]
                xc = clip((1 + PSI * RHO) * xbar - PSI * RHO * sim[-1] if outside
                          else (1 - PSI) * xbar + PSI * sim[-1])
                fxc = f(xc)
                if fxc <= fxr if outside else fxc < fsim[-1]:
                    sim[-1], fsim[-1] = xc, fxc
                else:                   # maxfev can cut a shrink short
                    for j in range(1, n + 1):
                        sim[j] = clip(sim[0] + SIGMA * (sim[j] - sim[0]))
                        fsim[j] = f(sim[j])
            iterations += 1
        except _Spent:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    status = 1 if calls >= maxfev else 2 if iterations >= maxiter else 0
    return sim[0], np.min(fsim), calls, status
