"""Boundary-cell taper optimization for passband ripple suppression.

A finite array connected straight to 50-ohm ports shows tens of dB of
passband ripple from the impedance mismatch.  Modifying the outermost cells
-- larger coupling toward the port, shunt capacitance reduced so the total
capacitance per cell stays fixed -- matches the Bloch impedance to the ports
and flattens the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .abcd import cascade_abcd
from .bands import window_grid
from .params import (ArraySpec, JsonFields, ValidationError, _integer_field,
                     _real_fields, _require, boolean, boundary_cells, integer,
                     nested, real)

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
    symmetric: bool = True
    max_iterations: int = 400
    _JSON = ({"base": nested(ArraySpec)},
             {"n_modified": integer, "band_window": real,
              "symmetric": boolean, "max_iterations": integer})

    def __post_init__(self):
        _integer_field(self, "n_modified")
        _integer_field(self, "max_iterations")
        _real_fields(self, "band_window")
        _require(self.n_modified >= 0, "n_modified must be >= 0")
        _require(0.0 < self.band_window <= 1.0, "band_window must be in (0, 1]")
        _require(self.max_iterations >= 1, "max_iterations must be >= 1")


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
    db = cascade_abcd(spec, grid).s21_db
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


def optimize(problem: TaperProblem) -> TaperReport:
    """Derivative-free (Nelder-Mead) minimization of the windowed ripple.

    The search runs in log-coupling coordinates from two seeds: the
    unmodified array and the analytic geometric-taper guess; the better
    endpoint wins, ties broken by smaller deviation from its seed.
    """
    import scipy.optimize   # slow to import; only needed here
    base = problem.base
    if problem.n_modified == 0:
        r = ripple(base, problem.band_window)
        return TaperReport(spec=base, ripple_db=r, n_iterations=0,
                           converged=True, history=((0, r),))
    if not problem.symmetric:
        raise ValidationError("only symmetric taper optimization is supported")

    history = []
    state = {"best": math.inf, "neval": 0}

    def objective(logg):
        state["neval"] += 1
        try:
            r = ripple(spec_with_couplers(base, np.exp(logg)),
                       problem.band_window)
        except ValidationError:
            r = 1e3
        if r < state["best"]:
            state["best"] = r
            history.append((state["neval"], r))
        return r

    n = problem.n_modified
    seeds = [_analytic_guess(base, n),
             np.full(n, base.interior.cg)]
    best = None
    for seed in seeds:
        res = scipy.optimize.minimize(
            objective, np.log(seed), method="Nelder-Mead",
            options={"maxiter": problem.max_iterations,
                     "xatol": 1e-6, "fatol": 1e-4})
        dev = float(np.linalg.norm(res.x - np.log(seed)))
        key = (res.fun, dev)
        if best is None or key < best[0]:
            best = (key, res)
    res = best[1]
    spec = spec_with_couplers(base, np.exp(res.x))
    return TaperReport(spec=spec, ripple_db=float(res.fun),
                       n_iterations=int(res.nit),
                       converged=bool(res.success),
                       history=tuple(history))
