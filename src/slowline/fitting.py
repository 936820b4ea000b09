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

The fit varies each free element as a factor on its template value, from 1
and within [0.2, 5], and minimizes the sum of squared residuals by
``_trf``: SciPy's bounded trust-region reflective ``least_squares``
reproduced step for step in numpy, its one SVD per iteration from
scipy.linalg, so no fit loads scipy.optimize.
"""

from __future__ import annotations

import logging
import math
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

_EPS = np.finfo(float).eps


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


def _solve_trust_region(m, uf, s, v, delta, alpha):
    """Moré's step for min ‖Jp + f‖ subject to ‖p‖ <= delta, given the SVD
    J = U diag(s) Vᵀ and uf = Uᵀf of the scaled Jacobian with its diagonal
    rows appended below its m rows: the Gauss-Newton step if J has full
    rank and the step fits, else p = -V s uf / (s² + α), α found from the
    previous one by Newton's method on ‖p(α)‖ = delta to 1% in at most 10
    rounds, then scaled onto the sphere.  Returns (p, α)."""
    suf = s * uf
    # m < n is never of full rank, whatever the appended rows add
    full_rank = m >= s.size and s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -v.dot(uf / s)
        if np.linalg.norm(p) <= delta:
            return p, 0.0

    def phi_and_derivative(alpha):
        denom = s**2 + alpha
        p_norm = np.linalg.norm(suf / denom)
        return p_norm - delta, -np.sum(suf**2 / denom**3) / p_norm

    alpha_upper = np.linalg.norm(suf) / delta
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
    for _ in range(10):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper)**0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + delta) * ratio / delta
        if np.abs(phi) < 0.01 * delta:
            break
    p = -v.dot(suf / (s**2 + alpha))
    p *= delta / np.linalg.norm(p)
    return p, alpha


def _quadratic_on_line(j, g, diag, s, s0=None):
    """(a, b, c) of ½ pᵀ(JᵀJ + diag)p + gᵀp at p = s0 + t·s as
    a·t² + b·t + c (s0 = 0 when None, with c left out, so that a + b is
    its value at p = s)."""
    v = j.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = j.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_on_interval(a, b, lo, hi, c=0):
    """(t, value) minimizing a·t² + b·t + c over lo <= t <= hi."""
    t = [lo, hi]
    if a != 0:
        extremum = -0.5 * b / a
        if lo < extremum < hi:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _step_to_bound(x, s, lb, ub):
    """The least t >= 0 putting x + t·s on the box, and which coordinates
    it puts there."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        steps = np.where(s != 0, np.maximum((lb - x) / s, (ub - x) / s),
                         np.inf)
    t = np.min(steps)
    return t, (steps == t) & (s != 0)


def _select_step(x, j_h, diag_h, g_h, p, p_h, d, delta, lb, ub, theta):
    """Branch, Coleman & Li's choice among the trust-region step p (p_h in
    the scaled variables x = d·x_h) if it stays in the box, else the best
    of: p cut short of the first bound it hits by theta, p reflected off
    that bound, and the scaled steepest descent -g_h cut short likewise.
    Returns (step, step_h, predicted reduction)."""
    if np.all((x + p >= lb) & (x + p <= ub)):
        return p, p_h, -sum(_quadratic_on_line(j_h, g_h, diag_h, p_h))
    p_stride, hits = _step_to_bound(x, p, lb, ub)
    r_h = np.copy(p_h)
    r_h[hits] *= -1
    r = d * r_h
    p *= p_stride
    p_h *= p_stride
    # the reflected ray leaves the box or the trust region first
    a, b, c = np.dot(r_h, r_h), np.dot(p_h, r_h), np.dot(p_h, p_h) - delta**2
    q = -(b + math.copysign(np.sqrt(b * b - a * c), b))
    to_tr = max(q / a, c / q)
    to_bound, _ = _step_to_bound(x + p, r, lb, ub)
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_lo = (1 - theta) * p_stride / r_stride
        r_hi = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_lo, r_hi = 0, -1
    if r_lo <= r_hi:
        a, b, c = _quadratic_on_line(j_h, g_h, diag_h, r_h, s0=p_h)
        r_stride, r_value = _minimize_on_interval(a, b, r_lo, r_hi, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf
    p *= theta
    p_h *= theta
    p_value = sum(_quadratic_on_line(j_h, g_h, diag_h, p_h))
    ag_h = -g_h
    ag = d * ag_h
    to_tr = delta / np.linalg.norm(ag_h)
    to_bound, _ = _step_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _quadratic_on_line(j_h, g_h, diag_h, ag_h)
    ag_stride, ag_value = _minimize_on_interval(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride
    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag, ag_h, -ag_value


def _trf(fun, x0, lb: float, ub: float):
    """Minimize ½‖fun(x)‖² over the box lb <= x <= ub from x0 strictly
    inside it by the trust-region reflective method of Branch, Coleman &
    Li, SIAM J. Sci. Comput. 21, 1 (1999): returns (x, fun(x), nfev,
    converged).  ``fun`` must return finite residuals.

    Step for step SciPy 1.17's ``least_squares(fun, x0, bounds=(lb, ub),
    xtol=1e-12, ftol=1e-12)``, the same points evaluated in the same order
    and the same result:
    - the Jacobian by forward differences of step 2⁻²⁶·max(1, |x|),
      negated where it would leave the box;
    - Coleman–Li scaling, each variable by the square root of its distance
      to the bound its descent direction points at;
    - Moré's exact trust-region step from one SVD (``_solve_trust_region``)
      and ``_select_step``'s reflective choice, with a point landing on a
      bound moved inside by one ulp;
    - a stop at gradient 1e-8 (scaled, max norm), at a cost change below
      1e-12 of the cost or a step below 1e-12 of ‖x‖, or after 100·n
      evaluations.
    ``nfev`` counts the steps tried plus one and not the Jacobian's
    evaluations; a step that returns to the point evaluated last reuses
    its residuals but still counts, as SciPy's cache does.
    """
    from scipy.linalg import svd   # slow to import; only needed here
    x = x0.copy()
    last = [x, fun(x)]
    f = last[1]

    def cached_fun(x):
        if not np.array_equal(x, last[0]):
            last[:] = x, fun(x)
        return last[1]

    def jacobian_t(x, f):
        h = 2.0**-26 * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
        h[(x + h < lb) | (x + h > ub)] *= -1
        jt = np.empty((x.size, f.size))
        for i in range(x.size):
            x1 = x.copy()
            x1[i] = x[i] + h[i]
            jt[i] = (fun(x1) - f) / ((x[i] + h[i]) - x[i])
        return jt

    def scaling(g):     # Coleman–Li's v and its derivative in x
        v = np.where(g < 0, ub - x, np.where(g > 0, x - lb, 1.0))
        return v, np.sign(g)

    jt = jacobian_t(x, f)
    m, n = f.size, x.size
    nfev, max_nfev = 1, 100 * n
    cost = 0.5 * np.dot(f, f)
    g = jt.dot(f)
    delta = np.linalg.norm(x / scaling(g)[0]**0.5) or 1.0
    f_augmented = np.zeros(m + n)
    j_augmented = np.empty((m + n, n))
    alpha = 0.0
    converged = False
    while True:
        v, dv = scaling(g)
        g_norm = np.linalg.norm(g * v, ord=np.inf)
        converged = converged or g_norm < 1e-8
        if converged or nfev == max_nfev:
            return x, f, nfev, converged
        d = v**0.5
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        j_augmented[:m] = jt.T * d
        j_h = j_augmented[:m]
        j_augmented[m:] = np.diag(diag_h**0.5)
        u, s, vt = svd(j_augmented, full_matrices=False)
        uf = u.T.dot(f_augmented)
        theta = max(0.995, 1 - g_norm)
        reduction = -1
        while reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _solve_trust_region(m, uf, s, vt.T, delta, alpha)
            step, step_h, predicted = _select_step(
                x, j_h, diag_h, g_h, d * p_h, p_h, d, delta, lb, ub, theta)
            x_new = x + step
            x_new = np.where(x_new <= lb, np.nextafter(lb, ub), np.where(
                x_new >= ub, np.nextafter(ub, lb), x_new))
            f_new = cached_fun(x_new)
            nfev += 1
            step_h_norm = np.linalg.norm(step_h)
            cost_new = 0.5 * np.dot(f_new, f_new)
            reduction = cost - cost_new
            if predicted > 0:
                ratio = reduction / predicted
            else:
                ratio = 1 if predicted == reduction == 0 else 0
            delta_new = delta
            if ratio < 0.25:
                delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * delta:
                delta_new *= 2.0
            converged = (
                reduction < 1e-12 * cost and ratio > 0.25
                or np.linalg.norm(step) < 1e-12 * (1e-12 + np.linalg.norm(x)))
            if converged:
                break
            alpha *= delta / delta_new
            delta = delta_new
        if reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            jt = jacobian_t(x, f)
            g = jt.dot(f)


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
    residual.  Otherwise ``_trf`` fits each free element's factor on its
    template value, from 1 within [0.2, 5], and the report holds its best
    iterate and its ``nfev``.  ``converged`` is ``_trf``'s: False only when
    100 evaluations per free parameter run out, so a fit that stops in a
    local minimum decibels off still reports True.
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

    x, r, nfev, converged = _trf(residuals, np.ones(len(free)), 0.2, 5.0)
    log_tally()
    return FitReport(spec=candidate(x),
                     residual_db_rms=float(np.sqrt(np.mean(r**2))),
                     converged=bool(converged), n_evaluations=nfev)
