"""Least-squares fitting of an ArraySpec to a measured transmission spectrum.

The objective is |S21| in dB (model minus measurement) on the measured grid.
Free parameters are named circuit elements; boundary modifications are applied
symmetrically to both ends of the array.  A fit with free parameters scores
the template projected onto that model: both ends rebuilt from
``boundary_in`` and every boundary inductance set to the interior l0.  With
two or more boundary cells the boundary-to-interior coupler is set to the
interior cg, so perturbing the interior cg alone moves it too; a lone
boundary cell keeps the template's coupler.  With no free parameters the
template itself is scored.

Each candidate is built whole and lowered; ``abcd._end_scorer`` gives its
|S21| from its boundary cells and a middle cascaded again only when ``c0``,
``cg`` or ``l0`` left the last two middles (an open-mirror template raises
first).  Non-finite residual points, and all points of an evaluation whose
candidate raises ``ValidationError``, are set to 1e3; both counts are logged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .abcd import TwoPortResponse, _end_scorer, cascade_abcd
from .params import (ArraySpec, UnitCellParams, ValidationError,
                     boundary_cells)

logger = logging.getLogger(__name__)

# Supported free-parameter names.  Boundary cell i, counted from the port
# inward, has coupler c{i}g toward the port and shunt capacitance c{i}; a
# fit may free those of the two outermost cells its template has.
FIT_PARAM_NAMES = ("c0", "cg", "l0", "c1g", "c2g", "c1", "c2")


def _get_params(spec: ArraySpec) -> dict:
    vals = {"c0": spec.interior.c0, "cg": spec.interior.cg, "l0": spec.interior.l0}
    for i, b in enumerate(spec.boundary_in, start=1):
        vals[f"c{i}g"] = b.c_left
        vals[f"c{i}"] = b.c_shunt
    return vals


def _build_spec(template: ArraySpec, vals: dict) -> ArraySpec:
    cell = UnitCellParams(c0=vals["c0"], cg=vals["cg"], l0=vals["l0"],
                          q_internal=template.interior.q_internal)
    n = len(template.boundary_in)
    boundary = ()
    if n:
        inner = vals["cg"] if n > 1 else template.boundary_in[0].c_right
        boundary = boundary_cells(
            [*(vals[f"c{i}g"] for i in range(1, n + 1)), inner],
            [vals[f"c{i}"] for i in range(1, n + 1)], vals["l0"])
    return replace(template, interior=cell, boundary_in=boundary,
                   boundary_out=boundary)


@dataclass(frozen=True)
class FitReport:
    spec: ArraySpec
    residual_db_rms: float
    converged: bool
    n_evaluations: int


def fit_to_spectrum(measured: TwoPortResponse, template: ArraySpec,
                    free_params=()) -> FitReport:
    """Fit the named circuit elements of ``template`` to the measured |S21|.

    With no free parameters the template is returned unchanged along with its
    residual.  Non-convergence returns the best iterate flagged.
    """
    import scipy.optimize   # slow to import; only needed here
    free = tuple(free_params)
    unknown = set(free) - set(FIT_PARAM_NAMES)
    if unknown:
        raise ValidationError(f"unknown fit parameters: {sorted(unknown)}")
    repeated = sorted({name for name in free if free.count(name) > 1})
    if repeated:
        raise ValidationError(f"repeated fit parameters: {repeated}")
    base = _get_params(template)
    missing = set(free) - set(base)
    if missing:
        raise ValidationError(
            f"template has no boundary cells for parameters: {sorted(missing)}")

    target_db = measured.s21_db
    tally = {"scored": 0, "raised": 0, "points": 0}

    def misfit(s21_db):
        r = s21_db - target_db
        bad = ~np.isfinite(r)
        tally["scored"] += 1
        tally["points"] += int(np.count_nonzero(bad))
        return np.where(bad, 1e3, r)

    def log_tally():
        logger.info("fit: %d of %d residual evaluations raised "
                    "ValidationError; %d residual points were set to 1e3",
                    tally["raised"], tally["scored"] + tally["raised"],
                    tally["points"])

    if not free:
        r = misfit(cascade_abcd(template, measured.freq_grid).s21_db)
        log_tally()
        return FitReport(spec=template,
                         residual_db_rms=float(np.sqrt(np.mean(r**2))),
                         converged=True, n_evaluations=1)

    s21_db = _end_scorer(template.lower(), measured.freq_grid,
                         len(template.boundary_in))

    def candidate(x) -> ArraySpec:
        return _build_spec(template, {**base, **{
            name: xi * base[name] for name, xi in zip(free, x)}})

    def residuals(x):
        try:
            return misfit(s21_db(candidate(x).lower()))
        except ValidationError:
            tally["raised"] += 1
            tally["points"] += target_db.size
            return np.full(target_db.shape, 1e3)

    x0 = np.ones(len(free))
    result = scipy.optimize.least_squares(residuals, x0, bounds=(0.2, 5.0),
                                          xtol=1e-12, ftol=1e-12)
    log_tally()
    return FitReport(spec=candidate(result.x),
                     residual_db_rms=float(np.sqrt(np.mean(result.fun**2))),
                     converged=bool(result.success),
                     n_evaluations=int(result.nfev))
