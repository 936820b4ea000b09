"""Least-squares fitting of an ArraySpec to a measured transmission spectrum.

The objective is |S21| in dB (model minus measurement) on the measured grid.
Free parameters are named circuit elements; boundary modifications are applied
symmetrically to both ends of the array.  A fit with free parameters scores
the template projected onto that model: both ends rebuilt from
``boundary_in``, the boundary-to-interior coupler set to the interior cg and
every boundary inductance to the interior l0, so perturbing the interior cg
alone moves the boundary coupler with it.  With no free parameters the
template itself is scored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .abcd import TwoPortResponse, cascade_abcd
from .params import ArraySpec, UnitCellParams, ValidationError

# Supported free-parameter names -> getter on an ArraySpec with a two-cell
# boundary.  c1g/c2g are the port-side and shared boundary couplers, c1/c2 the
# boundary shunt capacitances counted from the port inward.
FIT_PARAM_NAMES = ("c0", "cg", "l0", "c1g", "c2g", "c1", "c2")


def _get_params(spec: ArraySpec) -> dict:
    vals = {"c0": spec.interior.c0, "cg": spec.interior.cg, "l0": spec.interior.l0}
    if spec.boundary_in:
        b = spec.boundary_in
        vals["c1g"] = b[0].c_left
        vals["c1"] = b[0].c_shunt
        if len(b) > 1:
            vals["c2g"] = b[0].c_right
            vals["c2"] = b[1].c_shunt
    return vals


def _build_spec(template: ArraySpec, vals: dict) -> ArraySpec:
    cell = UnitCellParams(c0=vals["c0"], cg=vals["cg"], l0=vals["l0"],
                          q_internal=template.interior.q_internal)
    boundary = ()
    if template.boundary_in:
        b = template.boundary_in
        cells = [replace(b[0], c_shunt=vals.get("c1", b[0].c_shunt),
                         c_left=vals.get("c1g", b[0].c_left),
                         c_right=vals.get("c2g", b[0].c_right),
                         l0=vals["l0"])]
        for i, cell_i in enumerate(b[1:], start=1):
            c_right = vals["cg"] if i == len(b) - 1 else cell_i.c_right
            c_shunt = vals.get("c2", cell_i.c_shunt) if i == 1 else cell_i.c_shunt
            cells.append(replace(cell_i, c_shunt=c_shunt,
                                 c_left=cells[-1].c_right, c_right=c_right,
                                 l0=vals["l0"]))
        boundary = tuple(cells)
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
