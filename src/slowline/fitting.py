"""Least-squares fitting of an ArraySpec to a measured transmission spectrum.

The objective is S21 on the measured grid: first its phase arg(model /
measurement), unwrapped, then |S21| in dB (model minus measurement).  Free
parameters are named circuit elements; boundary modifications are applied
symmetrically to both ends of the array.  A fit with free parameters scores
the template projected onto that model: both ends rebuilt from
``boundary_in`` and every boundary inductance set to the interior l0.  With
two or more boundary cells the boundary-to-interior coupler is set to the
interior cg, so perturbing the interior cg alone moves it too; a lone
boundary cell keeps the template's coupler.  With no free parameters the
template itself is scored, in dB.

Each candidate is built whole and lowered; ``abcd._end_scorer`` gives its
|S21| and phase from one walk of its boundary cells against a middle
cascaded again only when ``c0``, ``cg`` or ``l0`` left the last two middles
(an open-mirror template raises first).  Points without a finite dB
residual, in either stage, and all points of an evaluation whose candidate
raises ``ValidationError``, are set to 1e3; both counts are logged.

The fit varies each free element as a factor on its template value, from 1
and within [0.2, 5], and minimizes the sum of squared residuals of each
stage by ``_lm``, a bounded Levenberg–Marquardt in numpy alone.
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


def _lm(fun, x0, lb: float, ub: float, max_nfev: int):
    """Minimize ‖fun(x)‖² over the box lb <= x <= ub from x0 inside it by
    Levenberg–Marquardt (Marquardt, J. SIAM 11, 431 (1963)): returns
    (x, fun(x), nfev, converged), nfev counting every evaluation of ``fun``
    and never above ``max_nfev``.  ``fun`` must return finite residuals.

    The Jacobian J comes from forward differences of step 2⁻²⁶·max(1, |x|),
    taken back where x + h would leave the box.  A variable on a bound that
    the gradient Jᵀr pushes outward stays there; the others take the least
    squares step of [J; √(λ·diag JᵀJ)] p = [−r; 0], which is defined for
    any J, clipped to the box.  A step that lowers the cost is accepted
    and divides λ by 10, else λ is multiplied by 10.  It has converged
    once an accepted step lowers the cost by at most 1e-12 of it, a step
    moves x by at most 1e-12 of ‖x‖, or the cost is 0; no Jacobian is taken
    after that.  Not converged: too few evaluations left for a Jacobian and
    a step.
    """
    x = np.array(x0, dtype=float)
    r = fun(x)
    nfev, lam, n = 1, 1e-3, x.size
    cost = r @ r
    while cost > 0 and nfev + n < max_nfev:
        h = 2.0**-26 * np.maximum(1.0, np.abs(x))
        h = np.where(x + h > ub, -h, h)
        jac = np.column_stack([(fun(x + hi * e) - r) / hi
                               for hi, e in zip(h, np.eye(n))])
        nfev += n
        g = jac.T @ r
        free = ((x > lb) | (g < 0)) & ((x < ub) | (g > 0))
        diag = np.sum(jac**2, axis=0)      # of JᵀJ
        rhs = np.concatenate([-r, np.zeros(n)])
        while nfev < max_nfev:
            a = np.vstack([jac, np.diag(np.sqrt(lam * diag))])
            step = np.zeros(n)
            step[free] = np.linalg.lstsq(a[:, free], rhs, rcond=None)[0]
            x_new = np.clip(x + step, lb, ub)
            if np.linalg.norm(x_new - x) <= 1e-12 * np.linalg.norm(x):
                return x, r, nfev, True
            r_new = fun(x_new)
            nfev += 1
            cost_new = r_new @ r_new
            if cost_new < cost:
                done = cost - cost_new <= 1e-12 * cost
                x, r, cost, lam = x_new, r_new, cost_new, lam / 10
                if done:
                    return x, r, nfev, True
                break
            lam *= 10
    return x, r, nfev, bool(cost == 0)


@dataclass(frozen=True)
class FitReport:
    spec: ArraySpec
    residual_db_rms: float
    converged: bool
    n_evaluations: int


def fit_to_spectrum(measured: TwoPortResponse, template: ArraySpec,
                    free_params=()) -> FitReport:
    """Fit the named circuit elements of ``template`` to the measured S21.

    With no free parameters the template is returned unchanged along with its
    |S21| dB residual.  Otherwise ``_lm`` fits each free element's factor on
    its template value, from 1 within [0.2, 5], in two stages of at most 100
    evaluations per free parameter each: first the phase arg(S21/S21_meas),
    unwrapped over the grid, whose least squares lacks the ripple-sized
    local minima of the dB residual, then the |S21| dB residual from the
    phase stage's point.  The report holds the dB stage's point, its
    residual and its ``converged``, and both stages' evaluations.
    ``converged`` is False only when the dB stage's evaluations run out, so
    a fit that stops in a local minimum decibels off still reports True.
    """
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

    def misfit(s21_db, denom=None):
        """The dB residual, or the phase residual given the model's denom
        (S21 ∝ 1/denom); points without a finite dB residual score 1e3."""
        r = s21_db - target_db
        bad = ~np.isfinite(r)
        tally["scored"] += 1
        tally["points"] += int(np.count_nonzero(bad))
        if denom is not None:
            ok = ~bad
            r[ok] = np.unwrap(np.angle(np.conj(denom[ok] * measured.s21[ok])))
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

    score = _end_scorer(template.lower(), measured.freq_grid,
                        len(template.boundary_in))

    def candidate(x) -> ArraySpec:
        return _build_spec(template, {**base, **{
            name: xi * base[name] for name, xi in zip(free, x)}})

    def residuals(x, phase: bool):
        try:
            s21_db, denom = score(candidate(x).lower())
        except ValidationError:
            tally["raised"] += 1
            tally["points"] += target_db.size
            return np.full(target_db.shape, 1e3)
        return misfit(s21_db, denom if phase else None)

    budget = 100 * len(free)
    x, _, n_phase, _ = _lm(lambda x: residuals(x, True), np.ones(len(free)),
                           0.2, 5.0, budget)
    x, r, n_db, converged = _lm(lambda x: residuals(x, False), x, 0.2, 5.0,
                                budget)
    log_tally()
    return FitReport(spec=candidate(x),
                     residual_db_rms=float(np.sqrt(np.mean(r**2))),
                     converged=converged, n_evaluations=n_phase + n_db)
