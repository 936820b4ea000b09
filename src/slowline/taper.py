"""Boundary-cell taper optimization for passband ripple suppression.

A finite array connected straight to 50-ohm ports shows tens of dB of
passband ripple from the impedance mismatch.  Modifying the outermost cells
-- larger coupling toward the port, shunt capacitance reduced so the total
capacitance per cell stays fixed -- matches the Bloch impedance to the ports
and flattens the band.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .abcd import _end_scorer, cascade_abcd
from .bands import window_grid
from .params import (ArraySpec, JsonFields, ValidationError, _check_fields,
                     _require, at_least, boundary_cells, limited, nested, real)

logger = logging.getLogger(__name__)

# Fixed frequency grid size for the ripple objective; pinned to the analytic
# band limits of the interior cell so the scoring window does not move with
# the candidate's own edge shifts.
RIPPLE_GRID_POINTS = 801


@dataclass(frozen=True)
class TaperProblem(JsonFields):
    """Optimization problem: which boundary cells to modify and how to score.

    The constraint is built in: each modified cell keeps the unmodified
    cell's total capacitance c0 + 2*cg, so only the coupling capacitances
    are free (inductance fixed).
    """

    base: ArraySpec
    n_modified: int = 2
    band_window: float = 0.5
    max_iterations: int = 400
    _JSON = ({"base": nested(ArraySpec)},
             {"n_modified": at_least(0),
              "band_window": limited(real, lambda v: 0 < v <= 1, "in (0, 1]"),
              "max_iterations": at_least(1)})

    def __post_init__(self):
        _check_fields(self)
        _require(2 * self.n_modified < self.base.n_resonators,
                 "n_modified must be below half of base.n_resonators")


@dataclass(frozen=True)
class TaperReport:
    spec: ArraySpec
    ripple_db: float
    n_iterations: int
    converged: bool
    history: tuple          # (iteration, best ripple_db) pairs, non-increasing


def ripple(spec: ArraySpec, band_window: float = 0.5) -> float:
    """Peak-to-peak |S21| in dB over the central fraction of the passband."""
    if not 0.0 < band_window <= 1.0:
        raise ValidationError("band_window must be in (0, 1]")
    grid = window_grid(spec.interior, band_window, RIPPLE_GRID_POINTS)
    return _peak_to_peak(cascade_abcd(spec, grid).s21_db)


def _peak_to_peak(db: np.ndarray) -> float:
    if not np.all(np.isfinite(db)):
        raise ValidationError("non-finite transmission inside the band window")
    return float(db.max() - db.min())


def spec_with_couplers(base: ArraySpec, couplers) -> ArraySpec:
    """Array with ``len(couplers)`` modified cells per boundary.

    ``couplers[0]`` is the port coupler; the innermost modified cell couples
    to the interior through the bulk cg.  Shunt capacitances follow from the
    fixed-total constraint c_shunt = c0 + 2*cg - c_left - c_right.
    """
    cell = base.interior
    total = cell.c0 + 2.0 * cell.cg
    g = [*couplers, cell.cg]
    boundary = boundary_cells(g, [total - a - b for a, b in zip(g, g[1:])],
                              cell.l0)
    return replace(base, interior_count=base.n_resonators - 2 * len(boundary),
                   boundary_in=boundary, boundary_out=boundary)


def _analytic_guess(base: ArraySpec, n: int) -> np.ndarray:
    """Geometric interpolation of coupling capacitances toward the port.

    The port coupler scale comes from matching the eliminated series-C + Z0
    branch's conductance to the per-cell hopping rate: w0^2 C^2 Z0 ~ w0 cg.
    """
    cell = base.interior
    g_port = math.sqrt(cell.cg / (cell.omega0 * base.port_impedance))
    return np.array([g_port * (cell.cg / g_port) ** (i / n) for i in range(n)])


def _ripple_objective(problem: TaperProblem):
    """score(couplers): the ripple of ``spec_with_couplers(problem.base,
    couplers)`` over the problem's band window, 1e3 when that raises or its
    transmission is non-finite there.

    Each candidate is built and lowered whole, and its |S21| comes from
    ``abcd._end_scorer``: the 2n modified cells at the ends (a bend among
    them included) are walked as two vectors against a middle that every
    candidate shares, cascaded once per objective (an open-mirror base
    raises first).  The score differs from ``ripple`` by rounding alone.
    """
    base = problem.base
    grid = window_grid(base.interior, problem.band_window, RIPPLE_GRID_POINTS)
    scorer = _end_scorer(base.lower(), grid, problem.n_modified)

    def score(couplers) -> float:
        try:
            return _peak_to_peak(
                scorer(spec_with_couplers(base, couplers).lower())[0])
        except ValidationError:
            return 1e3
    return score


def _nelder_mead(f, x0, max_iterations: int):
    """Minimize ``f`` from ``x0`` by the simplex search of Nelder & Mead,
    Comput. J. 7, 308 (1965): returns (x, f(x), iterations, converged).

    Step for step SciPy 1.17's ``minimize(f, x0, method="Nelder-Mead",
    options={"maxiter": max_iterations, "xatol": 1e-6, "fatol": 1e-4})``:
    the same points, evaluated in the same order, and the same result.
    Vertex k of the start is x0 with coordinate k scaled by 1.05 (0.00025
    where it is 0); the worst vertex is reflected, expanded, contracted
    outside or inside (coefficients 1, 2, 1/2) or the simplex shrinks
    halfway to its best vertex; the simplex is re-sorted by ``np.argsort``
    after each iteration, whose tie order decides between equal scores.
    """
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x) for x in sim], dtype=float)
    order = np.argsort(fsim)        # SciPy sorts the start twice
    sim, fsim = sim[order], fsim[order]
    iterations = 1
    while True:
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
        if iterations >= max_iterations or (
                np.max(np.abs(sim[1:] - sim[0])) <= 1e-6
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-4):
            return sim[0], fsim.min(), iterations, iterations < max_iterations
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:      # contract outside, toward xr
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:                   # contract inside
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:                   # shrink toward the best vertex
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fsim[1:] = [f(x) for x in sim[1:]]
        iterations += 1


def optimize(problem: TaperProblem) -> TaperReport:
    """Derivative-free (Nelder-Mead) minimization of the windowed ripple.

    The search is ``_nelder_mead``: SciPy's Nelder-Mead reproduced step
    for step in numpy, so tapering loads no scipy.

    The search runs in log-coupling coordinates from two seeds: the
    unmodified array and the analytic geometric-taper guess; the better
    endpoint wins, ties broken by smaller deviation from its seed.  Each
    evaluation is one _ripple_objective score, which walks only the
    candidate's modified cells against a middle cascaded once per call.
    The number of candidates scored 1e3 is logged at INFO.
    """
    base = problem.base
    if problem.n_modified == 0:
        r = ripple(base, problem.band_window)
        return TaperReport(spec=base, ripple_db=r, n_iterations=0,
                           converged=True, history=((0, r),))

    score = _ripple_objective(problem)
    history = []
    state = {"best": math.inf, "neval": 0, "penalized": 0}

    def objective(logg):
        state["neval"] += 1
        r = score(np.exp(logg))
        state["penalized"] += r == 1e3
        if r < state["best"]:
            state["best"] = r
            history.append((state["neval"], r))
        return r

    n = problem.n_modified
    seeds = [_analytic_guess(base, n),
             np.full(n, base.interior.cg)]
    best = None
    for seed in seeds:
        res = _nelder_mead(objective, np.log(seed), problem.max_iterations)
        key = (res[1], float(np.linalg.norm(res[0] - np.log(seed))))
        if best is None or key < best[0]:
            best = (key, res)
    logger.info("taper: %d of %d candidates scored 1e3 (rejected by the "
                "spec checks or non-finite S21 in the band window)",
                state["penalized"], state["neval"])
    x, fun, nit, converged = best[1]
    return TaperReport(spec=spec_with_couplers(base, np.exp(x)),
                       ripple_db=float(fun), n_iterations=nit,
                       converged=converged, history=tuple(history))
