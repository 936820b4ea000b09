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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .abcd import TwoPortResponse, cascade_abcd
from .params import (ArraySpec, UnitCellParams, ValidationError,
                     boundary_cells)

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
    base = _get_params(template)
    missing = set(free) - set(base)
    if missing:
        raise ValidationError(
            f"template has no boundary cells for parameters: {sorted(missing)}")

    target_db = measured.s21_db

    def misfit(spec):
        r = cascade_abcd(spec, measured.freq_grid).s21_db - target_db
        return np.where(np.isfinite(r), r, 1e3)

    def residuals(x):
        vals = dict(base)
        vals.update({name: xi * base[name] for name, xi in zip(free, x)})
        try:
            return misfit(_build_spec(template, vals))
        except ValidationError:
            return np.full(target_db.shape, 1e3)

    if not free:
        r = misfit(template)
        return FitReport(spec=template,
                         residual_db_rms=float(np.sqrt(np.mean(r**2))),
                         converged=True, n_evaluations=1)

    x0 = np.ones(len(free))
    result = scipy.optimize.least_squares(residuals, x0, bounds=(0.2, 5.0),
                                          xtol=1e-12, ftol=1e-12)
    vals = dict(base)
    vals.update({name: xi * base[name] for name, xi in zip(free, result.x)})
    return FitReport(spec=_build_spec(template, vals),
                     residual_db_rms=float(np.sqrt(np.mean(result.fun**2))),
                     converged=bool(result.success),
                     n_evaluations=int(result.nfev))
