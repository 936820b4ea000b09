"""Time-domain emission dynamics of the qubit-loaded array.

Every entry point takes one chain, an ``ArraySpec`` or a lowered ``Chain``
(a disorder realization included), lowers it once per trace and reads only
the ``Chain``; a stacked ``Chain`` raises ``ValidationError``.  The circuit
is linear, so every classical protocol (quench, finite tune-in ramp,
parametric modulation) is one piecewise-constant schedule of bare qubit
frequencies, which simulate_emission steps with the matrix exponential of
each slice's state-space generator (exactly energy-preserving for lossless
configurations, unlike explicit stepping).  The excited-state population
p_e is the qubit node's quanta E_q / omega_q under the instantaneous model,
relative to its initial value; for a quench omega_q is fixed and p_e is the
node's energy fraction.

Two independent oracles are provided: the ideal-mirror delay equation
(dispersionless semi-infinite waveguide) and a discretized quadratic-bandedge
continuum (John-Quang regime).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .params import (ArraySpec, Chain, JsonFields, QubitCircuitParams,
                     ValidationError, _real_fields, _require, hz, nested,
                     nullable, real, write_csv)
from .statespace import StateSpaceModel, assemble_state_space

_SLICES = 64        # steps per modulation period; ramp steps <= tune_time / 64
_CHUNK = 128        # roots or time samples per (chunk x M) block


@dataclass(frozen=True)
class Modulation(JsonFields):
    omega_mod: float    # rad/s
    epsilon: float      # rad/s, frequency-modulation amplitude
    _JSON = ({"omega_mod_hz": hz, "epsilon_hz": hz}, {})

    def __post_init__(self):
        _real_fields(self, "omega_mod", "epsilon")
        _require(0 < self.omega_mod < math.inf and 0 <= self.epsilon < math.inf,
                 "omega_mod must be positive, epsilon non-negative, both finite")

    @property
    def index(self) -> float:
        return self.epsilon / self.omega_mod


@dataclass(frozen=True)
class Protocol(JsonFields):
    """A tune-in to omega_interact, sampled at t_k = k * dt_output.

    A ramp (tune_time > 0, finite, and it may exceed t_max) moves the bare
    qubit frequency linearly from omega_park to omega_interact.  It crosses
    each output interval (the last one cut at tune_time) in the fewest equal
    steps no longer than tune_time / 64, each at the ramp frequency of its
    midpoint, and is read at t_k exactly.  A modulation, omega_interact +
    epsilon * cos(omega_mod * (t - tune_time)), follows from tune_time in 64
    constant-frequency slices per period; each sample is read after the
    first slice ending within half a slice of it.  Without one, the state
    steps at omega_interact to the next sample and is then held there: the
    schedule's last item, dt_output steps each read once.
    """
    omega_interact: float                   # rad/s, bare qubit frequency
    t_max: float                            # s
    dt_output: float = 1e-10                # s
    initial_excited_population: float = 1.0
    modulation: Optional[Modulation] = None
    tune_time: float = 0.0                  # s, 0 = instantaneous quench
    omega_park: Optional[float] = None      # rad/s, start of a finite ramp
    _JSON = ({"omega_interact_hz": hz, "t_max_s": real},
             {"dt_output_s": real, "initial_excited_population": real,
              "tune_time_s": real, "modulation": nullable(nested(Modulation)),
              "omega_park_hz": nullable(hz)})

    def __post_init__(self):
        _real_fields(self, "omega_interact", "t_max", "dt_output",
                     "initial_excited_population", "tune_time",
                     optional=("omega_park",))
        _require(0 < self.t_max < math.inf and 0 < self.dt_output < math.inf,
                 "t_max and dt_output must be positive and finite")
        _require(0.0 <= self.initial_excited_population <= 1.0,
                 "initial population must lie in [0, 1]")
        _require(0 <= self.tune_time < math.inf,
                 "tune_time must be non-negative and finite")
        _require(0 < self.omega_interact < math.inf,
                 "omega_interact must be positive and finite")
        _require(self.omega_park is None or 0 < self.omega_park < math.inf,
                 "omega_park must be positive and finite")
        _require((self.tune_time > 0) == (self.omega_park is not None),
                 "a ramp needs both tune_time > 0 and omega_park")


@dataclass(frozen=True)
class DynamicsTrace:
    t: np.ndarray       # s
    p_e: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.t.shape != self.p_e.shape:
            raise ValidationError("t and p_e must have matching shapes")

    def to_csv(self, path) -> None:
        write_csv(path, "t_s,p_e", [self.t, self.p_e])

    @classmethod
    def from_csv(cls, path) -> "DynamicsTrace":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(t=data[:, 0], p_e=data[:, 1])


def _initial_state(model: StateSpaceModel) -> np.ndarray:
    """Complex rotating-wave envelope with unit amplitude on the qubit node."""
    if model.qubit_node is None:
        raise ValidationError("model has no qubit node to excite")
    n = model.n_nodes
    q_node = model.qubit_node
    omega_q = math.sqrt(model.linv[q_node, q_node] / model.cap[q_node, q_node])
    x0 = np.zeros(2 * n, dtype=complex)
    v = np.zeros(n, dtype=complex)
    v[q_node] = 1.0
    x0[q_node] = 1j / omega_q       # flux
    x0[n:] = model.cap @ v          # charges
    return x0


def total_energy(model: StateSpaceModel, x: np.ndarray) -> float:
    """Total stored energy of a (possibly complex-envelope) state."""
    n = model.n_nodes
    v = np.linalg.solve(model.cap, x[n:])
    return 0.5 * float((v.conj() @ model.cap @ v).real
                       + (x[:n].conj() @ model.linv @ x[:n]).real)


def _time_grid(t_max: float, dt: float) -> np.ndarray:
    """Output times k * dt, k = 0 .. round(t_max / dt)."""
    _require(0 < t_max < math.inf and 0 < dt < math.inf,
             "t_max and dt_output must be positive and finite")
    return np.arange(int(round(t_max / dt)) + 1) * dt


def _schedule(protocol: Protocol, t_out: list):
    """(bare qubit frequency, step duration, samples read after each step,
    steps) items up to t_out[-1]: the ramp and then the modulation as
    Protocol says, one step each, or else omega_interact stepped to the next
    sample and then the hold, dt_output steps each read once.  That step
    joins the hold if it is dt_output (a quench, a ramp ending on the grid).
    """
    w0, w_end = protocol.omega_park, protocol.omega_interact
    tune = protocol.tune_time
    for k in range(1, min(bisect.bisect_left(t_out, tune), len(t_out) - 1) + 1):
        a, e = t_out[k - 1], min(t_out[k], tune)
        n = max(1, math.ceil(_SLICES * (e - a) / tune))
        h = (e - a) / n
        for j in range(n):
            w = w0 + (w_end - w0) * (a + (j + 0.5) * h) / tune
            yield w, h, int(j == n - 1 and e == t_out[k]), 1
    t, k = tune, bisect.bisect_right(t_out, tune)
    mod = protocol.modulation
    if mod is not None:
        dt = 2.0 * math.pi / mod.omega_mod / _SLICES
        tc = (np.arange(_SLICES) + 0.5) * dt
        for w in itertools.cycle(w_end + mod.epsilon * np.cos(mod.omega_mod * tc)):
            if k == len(t_out):
                return
            t += dt
            n = bisect.bisect_right(t_out, t + 0.5 * dt) - k
            yield w, dt, n, 1
            k += n
    if k < len(t_out) and t_out[k] - t != protocol.dt_output:
        yield w_end, t_out[k] - t, 1, 1
        k += 1
    if k < len(t_out):
        yield w_end, protocol.dt_output, 1, len(t_out) - k


def simulate_emission(spec: ArraySpec | Chain, qubit: QubitCircuitParams,
                      protocol: Protocol) -> DynamicsTrace:
    """Emission of the qubit on one chain, an ``ArraySpec`` or a lowered
    ``Chain`` (a stacked ``Chain`` raises ``ValidationError``), through the
    protocol's quench, ramp or modulation.

    The chain is lowered once.  The state steps through _schedule's items
    with expm propagators, the last _SLICES + 1 of them cached, and each
    sample an item names is read as qubit-node quanta under its model.

    A and expm(A dt) are real, so the complex envelope is stepped as a real
    (2n, 2) array of its real and imaginary parts, which never mix.  The
    quanta E_q / omega_q are sum(weights * (R x)^2) over the read-out rows
    R = [e_q; (0, row q of C^-1)] (the flux and voltage of the qubit node;
    C^-1 is A's upper-right block) with weights (L^-1_qq, C_qq) / 2 omega_q.
    Every item is one step, taken alone, except the hold that ends an
    unmodulated schedule, which is read _CHUNK samples per gemm: the rows
    R P, R P^2, ..., R P^_CHUNK of its propagator P are stacked once, and
    the state jumps by P^_CHUNK, built once, between blocks.
    """
    chain = spec.lower()

    @functools.lru_cache(maxsize=_SLICES + 1)
    def stepper(w, dt):
        m = assemble_state_space(chain, replace(qubit, omega_ge=w))
        a = m.a_matrix()
        n, q = m.n_nodes, m.qubit_node
        rows = np.zeros((2, 2 * n))
        rows[0, q] = 1.0
        rows[1, n:] = a[q, n:]
        c_qq, l_qq = m.cap[q, q], m.linv[q, q]
        weights = np.array([l_qq, c_qq]) / (2.0 * math.sqrt(l_qq / c_qq))
        return m, scipy.linalg.expm(a * dt), rows, weights

    def quanta(weights, y):         # y = R x, one (2, 2) block per sample
        return (y.reshape(-1, 2, 2) ** 2).sum(axis=2) @ weights

    t_out = _time_grid(protocol.t_max, protocol.dt_output)
    p = np.empty(t_out.shape)
    p[0] = 1.0
    x, k = None, 1
    for w, dt, n, steps in _schedule(protocol, t_out.tolist()):
        m, prop, rows, weights = stepper(w, dt)
        if x is None:
            x0 = _initial_state(m)
            x = np.column_stack([x0.real, x0.imag])
            n0 = quanta(weights, rows @ x)[0]
        if steps == 1:
            x = prop @ x
            if n:
                p[k:k + n] = quanta(weights, rows @ x) / n0
                k += n
            continue
        # the hold, always the last item: x is not advanced past its blocks
        block = [rows @ prop]
        for _ in range(min(steps, _CHUNK) - 1):
            block.append(block[-1] @ prop)
        block = np.concatenate(block)
        jump = np.linalg.matrix_power(prop, _CHUNK) if steps > _CHUNK else None
        for s in range(0, steps, _CHUNK):
            if s:
                x = jump @ x
            b = min(_CHUNK, steps - s)
            p[k:k + b] = quanta(weights, block[:2 * b] @ x) / n0
            k += b
    p *= protocol.initial_excited_population
    return DynamicsTrace(t=t_out, p_e=p, metadata={"protocol": protocol.to_dict()})


def simulate_mirror(spec: ArraySpec | Chain, qubit: QubitCircuitParams,
                    protocol: Protocol) -> DynamicsTrace:
    """simulate_emission on a chain whose far end is an open mirror; a
    matched chain raises, as does a stacked one."""
    chain = spec.lower()
    if chain.matched_out:
        raise ValidationError("simulate_mirror requires an open_mirror output")
    return simulate_emission(chain, qubit, protocol)


def simulate_modulated(spec: ArraySpec | Chain, qubit: QubitCircuitParams,
                       protocol: Protocol) -> DynamicsTrace:
    """simulate_emission under the protocol's parametric modulation (see
    Protocol); a protocol without one raises, as does a stacked chain."""
    if protocol.modulation is None:
        raise ValidationError("simulate_modulated requires protocol.modulation")
    return simulate_emission(spec.lower(), qubit, protocol)


def ideal_mirror_oracle(gamma_1d: float, tau_d: float, phase: float,
                        t_max: float, dt_output: float = 1e-10) -> DynamicsTrace:
    """Amplitude delay equation for a dispersionless semi-infinite waveguide:

        c'(t) = -(G/2) c(t) - (G/2) e^{i phi} c(t - tau) step(t - tau)

    solved exactly as its sum over photon round trips (Tufarelli, Ciccarello
    & Kim, PRA 87, 013820 (2013)),

        c(t) = sum_{0 <= n <= t/tau} (-e^{i phi})^n P_n(G (t - n tau) / 2),

    with the Poisson weight P_n(y) = y^n e^{-y} / n! <= 1, on the output grid
    k * dt_output.  p_e(t < tau) is the pure exponential e^{-G t}.
    """
    _require(all(map(math.isfinite, (gamma_1d, tau_d, phase))),
             "gamma_1d, tau_d and phase must be finite")
    _require(gamma_1d > 0 and tau_d > 0, "gamma_1d and tau_d must be positive")
    t = _time_grid(t_max, dt_output)
    g2 = gamma_1d / 2.0
    fb = -complex(math.cos(phase), math.sin(phase))
    c = np.exp(-g2 * t).astype(complex)
    for n in range(1, int(t[-1] / tau_d) + 1):
        k = np.searchsorted(t, n * tau_d, side="right")
        y = g2 * (t[k:] - n * tau_d)
        c[k:] += fb**n * np.exp(n * np.log(y) - y - math.lgamma(n + 1))
    return DynamicsTrace(t=t, p_e=np.abs(c) ** 2,
                         metadata={"gamma_1d": gamma_1d, "tau_d": tau_d,
                                   "phase": phase})


_EPS = np.finfo(float).eps
_MAX_ITER = 64                  # tested inputs have needed at most 13 passes


def _secular_chunk(d: np.ndarray, detuning: float, rho: float, i: np.ndarray):
    """Roots lam_i in (d_i, d_i+1) of the arrowhead secular equation

        f(lam) = lam - detuning + sum_{0 < k < n-1} rho / (d_k - lam)

    and their emitter weights w_i = 1 / f'(lam_i), for the root indices i.
    The end poles d_0 and d_n-1 carry no residue: they only bound the
    outer intervals.

    Each root is held as an offset tau from its nearer pole, so d_k - lam is
    formed from pole differences and keeps full relative accuracy.  Each
    step goes to the root of the two-pole model c + s/(D_i - eta) +
    S/(D_i+1 - eta) that matches f and f' (the "middle way" of LAPACK dlaed4;
    Bunch, Nielsen & Sorensen, Numer. Math. 31, 31 (1978)), and bisects the
    bracket when a step leaves it.
    """
    gap = d[i + 1] - d[i]
    org = d[i].copy()               # origin pole; pass 0 may move it to d_i+1
    tau = 0.5 * gap                 # start at the midpoint
    lo, hi = np.zeros_like(gap), gap.copy()
    lam, w = np.empty(i.size), np.empty(i.size)
    act = np.arange(i.size)         # rows still iterating
    done = np.zeros(i.size, dtype=bool)
    for it in range(_MAX_ITER):
        r = i[act]
        delta = (d - org[act, None]) - tau[act, None]       # d_k - lam
        terms = rho / delta         # scalar rho: a per-pole array divides slower
        terms[:, [0, -1]] = 0.0     # the residue-free end poles
        f = ((org[act] - detuning) + tau[act]) + terms.sum(axis=1)
        terms /= delta                                      # rho/(d_k - lam)^2
        # poles k <= r (left group) and k > r; only columns r[0]..r[-1] mix
        c0, c1 = r[0], r[-1] + 1
        left = np.arange(c0, c1) <= r[:, None]
        mixed = terms[:, c0:c1]
        dpsi = terms[:, :c0].sum(axis=1) + np.where(left, mixed, 0.0).sum(axis=1)
        dphi = terms[:, c1:].sum(axis=1) + np.where(left, 0.0, mixed).sum(axis=1)
        if it == 0:                 # root right of the midpoint: origin d_i+1
            flip = act[f < 0]
            org[flip] = d[i[flip] + 1]
            tau[flip] -= gap[flip]
            lo[flip] -= gap[flip]
            hi[flip] -= gap[flip]
        # the linear term's slope joins the group of the far pole, which
        # looks linear on the scale of the distance to the near one
        right = org[act] != d[r]
        dpsi += right
        dphi += ~right
        t = tau[act]
        lo[act] = np.where(f < 0, t, lo[act])      # t lies inside the bracket
        hi[act] = np.where(f > 0, t, hi[act])
        di = (d[r] - org[act]) - t
        dj = (d[r + 1] - org[act]) - t
        a = (di + dj) * f - di * dj * (dpsi + dphi)
        b = di * dj * f
        c = f - di * dpsi - dj * dphi
        disc = np.sqrt(np.maximum(a * a - 4.0 * b * c, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.where(a > 0, 2.0 * b / (a + disc), (a - disc) / (2.0 * c))
        eta[(f == 0) | ~np.isfinite(eta)] = 0.0
        lam[act] = org[act] + t
        w[act] = 1.0 / (dpsi + dphi)
        checked = done[act]         # stepped once more after converging
        done[act] = np.abs(eta) <= 4 * _EPS * (np.abs(t) + np.abs(org[act]))
        step = t + eta
        keep = done[act] | ((step > lo[act]) & (step < hi[act]))
        tau[act] = np.where(keep, step, 0.5 * (lo[act] + hi[act]))
        act = act[~checked]
        if act.size == 0:
            return lam, w
    raise RuntimeError(f"secular solver: {act.size} roots not converged "
                       f"in {_MAX_ITER} iterations")


def _bandedge_spectrum(g_uc: float, j: float, detuning: float, m: int):
    """Eigenvalues E_i - omega0 (ascending) and emitter weights |<e|i>|^2 of
    [[diag(omega_k), g/sqrt(m)], [g/sqrt(m), omega0 + detuning]]."""
    k = (np.arange(m) + 0.5) / m * math.pi      # half of the BZ; even band
    d = -j * k[::-1] ** 2                       # omega_k - omega0, ascending
    # Zero-residue end poles 2g beyond the band and the emitter close the
    # outer intervals: there |sum_k rho / (d_k - lam)| <= m rho / 2g = g/2,
    # so f is <= -1.5 g at the lower one and >= 1.5 g at the upper one.
    g = abs(g_uc)
    d = np.concatenate(([min(detuning, d[0]) - 2.0 * g], d,
                        [max(detuning, d[-1]) + 2.0 * g]))
    # +/- k pairs folded into symmetric modes: g/sqrt(2m) * sqrt(2)
    rho = g_uc * g_uc / m
    lam, w = np.empty(m + 1), np.empty(m + 1)
    for i0 in range(0, m + 1, _CHUNK):
        i = np.arange(i0, min(i0 + _CHUNK, m + 1))
        lam[i], w[i] = _secular_chunk(d, detuning, rho, i)
    return lam, w


def bandedge_oracle(g_uc: float, j: float, omega0: float, detuning: float,
                    t_max: float, dt_output: float = 1e-10,
                    n_modes: int = 1201, convergence_tol: float = 0.01) -> DynamicsTrace:
    """Single-excitation dynamics against a discretized quadratic band
    omega_k = omega0 - J k^2 (upper-bandedge John-Quang regime).

    The emitter sits at omega0 + detuning and couples as g_uc/sqrt(M) to every
    mode.  The M + 1 eigenvalues of this arrowhead Hamiltonian are the roots
    of its secular equation, one between each pair of adjacent modes and one
    on each side of the band, and the emitter weight of each is 1/f'(E_i)
    in closed form (_bandedge_spectrum).  All roots are solved together in
    O(M^2) work and O(M) memory, to about 1e-15 relative accuracy in E - omega0;
    p_e(t) = |sum_i w_i exp(-i (E_i - omega0) t)|^2 is summed without BLAS,
    so it does not depend on the BLAS thread count.  Raises if the M-mode
    and 2M-mode traces differ by more than convergence_tol.
    """
    _require(0 < j < math.inf, "j must be positive and finite")
    _require(n_modes >= 1, "n_modes must be at least 1")
    _require(all(map(math.isfinite, (g_uc, omega0, detuning, convergence_tol))),
             "g_uc, omega0, detuning and convergence_tol must be finite")
    t = _time_grid(t_max, dt_output)

    def run(m):
        if g_uc * g_uc / m == 0.0:      # uncoupled: no root leaves the poles
            return np.ones(t.shape)
        lam, w = _bandedge_spectrum(g_uc, j, detuning, m)
        p = np.empty(t.shape)
        for s in range(0, t.size, _CHUNK):
            phase = np.multiply.outer(t[s:s + _CHUNK], lam)
            p[s:s + _CHUNK] = ((np.cos(phase) * w).sum(axis=1) ** 2
                               + (np.sin(phase) * w).sum(axis=1) ** 2)
        return p

    p1 = run(n_modes)
    p2 = run(2 * n_modes)
    if np.max(np.abs(p1 - p2)) > convergence_tol:
        raise ValidationError(
            f"bandedge oracle not converged at {n_modes} modes "
            f"(deviation {np.max(np.abs(p1 - p2)):.3g})")
    return DynamicsTrace(t=t, p_e=p2,
                         metadata={"g_uc": g_uc, "j": j, "omega0": omega0,
                                   "detuning": detuning, "n_modes": 2 * n_modes})


def simulate_emission_quantum(spec: ArraySpec | Chain, qubit: QubitCircuitParams,
                              protocol: Protocol) -> DynamicsTrace:
    """Single-excitation Schrodinger trace for the same circuit after a quench
    to protocol.omega_interact; modulated and ramped protocols raise, as does
    a stacked ``Chain``.

    The overdamped port nodes (series coupler + resistor) are eliminated
    analytically: at the interaction frequency a matched port looks to its
    boundary resonator like a shunt capacitance C/(1+x^2) plus a conductance
    w^2 C^2 Z0/(1+x^2), x = w Z0 C, and a floating (open-mirror) port's
    coupler drops out (Z0 -> inf).  The remaining lossless network (qubit
    included) is diagonalized exactly into normal modes and dissipation enters
    as a mode-resolved imaginary matrix, giving the effective non-Hermitian
    single-excitation Hamiltonian

        H_eff[mu, nu] = omega_mu delta_{mu nu} - (i/2) u_mu^T G u_nu.

    The qubit starts in a_q^dag|0>, with a_q the rotating-wave part of the
    qubit node's annihilation operator, and p_e = |<0|a_q|psi(t)>|^2; so
    p_e(0) = 1, and p_e <= 1 as H_eff's anti-Hermitian part is negative
    semidefinite.  Only the circuit assembly is shared with the classical
    propagation, which differs by the rotating wave and the fixed-frequency
    (Markovian) port response, so the two form a genuine cross-check.
    """
    _require(protocol.modulation is None and protocol.tune_time == 0,
             "simulate_emission_quantum runs quench protocols only")
    evals, evecs, coeff, readout = _quantum_modes(spec, qubit,
                                                  protocol.omega_interact)
    amps = (readout @ evecs * coeff).T           # (mode, 1)
    t = _time_grid(protocol.t_max, protocol.dt_output)
    p = np.empty(t.shape)
    for s in range(0, t.size, _CHUNK):
        q = np.exp(-1j * np.multiply.outer(t[s:s + _CHUNK], evals)) @ amps
        p[s:s + _CHUNK] = (q.real ** 2 + q.imag ** 2).sum(axis=1)
    p *= protocol.initial_excited_population
    return DynamicsTrace(t=t, p_e=p, metadata={"protocol": protocol.to_dict(),
                                               "method": "quantum"})


def _quantum_modes(spec: ArraySpec | Chain, qubit: QubitCircuitParams,
                   w_ref: float):
    """Eigenvalues lam and eigenvectors V of simulate_emission_quantum's H_eff
    at bare qubit frequency w_ref, the coefficients c of the initial state
    a_q^dag|0> in V, and the read-out row r of a_q, with
    p_e(t) = |r V (c exp(-i lam t))|^2."""
    model = assemble_state_space(spec, replace(qubit, omega_ge=w_ref))
    nodes = np.flatnonzero(model.linv.diagonal() > 0)
    cap = model.cap[np.ix_(nodes, nodes)]
    linv = model.linv[np.ix_(nodes, nodes)]
    g_red = np.diag(model.g[nodes, nodes]).astype(float)
    diag = np.diag_indices(nodes.size)
    for port in (model.input_node, model.output_node):
        c = -model.cap[nodes, port]     # zero on nodes not coupled to the port
        if model.g[port, port] == 0.0:  # floating (mirror) port: Z0 -> inf
            cap[diag] -= c
            continue
        x = w_ref * model.port_impedance * c
        # the Maxwell slice retains the coupler's full diagonal term c;
        # replace it by the effective shunt c/(1+x^2) of the eliminated
        # series-C + Z0 branch
        cap[diag] -= c * x * x / (1.0 + x * x)
        g_red[diag] += w_ref**2 * c**2 * model.port_impedance / (1.0 + x * x)

    w2, u = scipy.linalg.eigh(linv, cap)         # u^T C u = 1
    w = np.sqrt(w2)
    gamma = u.T @ g_red @ u                      # mode-resolved decay matrix
    h_eff = np.diag(w).astype(complex) - 0.5j * gamma
    evals, evecs = np.linalg.eig(h_eff)

    # rotating-wave part of a_q = sqrt(C_qq w_q/2) phi_q + i Q_q/sqrt(2 C_qq w_q)
    # in the mode operators b = sqrt(w/2) eta + i eta'/sqrt(2 w)
    q = int(np.searchsorted(nodes, model.qubit_node))
    cw = math.sqrt(cap[q, q] * linv[q, q])       # C_qq w_q
    r = u[q] * np.sqrt(cw / (4.0 * w)) + (cap[q] @ u) * np.sqrt(w / (4.0 * cw))
    r /= np.linalg.norm(r)
    return evals, evecs, np.linalg.solve(evecs, r), r[None, :]


def lifetime_1e(trace: DynamicsTrace) -> float:
    """First time p_e drops below p_e(0)/e, linearly interpolated."""
    target = trace.p_e[0] / math.e
    below = np.where(trace.p_e < target)[0]
    if below.size == 0:
        raise ValidationError("population never decays below 1/e")
    i = below[0]
    if i == 0:
        return trace.t[0]
    t0, t1 = trace.t[i - 1], trace.t[i]
    p0, p1 = trace.p_e[i - 1], trace.p_e[i]
    return t0 + (p0 - target) / (p0 - p1) * (t1 - t0)


def effective_rate(trace: DynamicsTrace, window=None) -> float:
    """Exponential rate fitted to log p_e over the given (t0, t1) window."""
    if window is None:
        window = (trace.t[0], trace.t[-1])
    mask = (trace.t >= window[0]) & (trace.t <= window[1]) & (trace.p_e > 0)
    if np.count_nonzero(mask) < 3:
        raise ValidationError("fit window contains fewer than 3 samples")
    slope, _ = np.polyfit(trace.t[mask], np.log(trace.p_e[mask]), 1)
    return -slope


def revival_onsets(trace: DynamicsTrace, n_revivals: int = 1,
                   settle_level: float = 0.05, rise_fraction: float = 0.1,
                   prominence: float = 1e-6) -> list:
    """Onset times of population revivals (echoes) after the initial decay.

    The initial decay is taken as finished once p_e falls below
    settle_level * p_e(0).  Each subsequent local maximum (with the given
    prominence) is a revival; its onset is where p_e rises above the preceding
    floor by rise_fraction of the revival height.
    """
    import scipy.signal     # slow to import (scipy.stats); only needed here
    p = trace.p_e
    below = np.where(p < settle_level * p[0])[0]
    if below.size == 0:
        raise ValidationError("population never settles below the threshold")
    start = below[0]
    peaks, _ = scipy.signal.find_peaks(p[start:], prominence=prominence)
    peaks += start
    onsets = []
    prev = start
    for pk in peaks[:n_revivals]:
        floor_idx = prev + int(np.argmin(p[prev:pk + 1]))
        floor = p[floor_idx]
        target = floor + rise_fraction * (p[pk] - floor)
        seg = np.where(p[floor_idx:pk + 1] >= target)[0]
        onsets.append(trace.t[floor_idx + seg[0]])
        prev = pk
    return onsets
