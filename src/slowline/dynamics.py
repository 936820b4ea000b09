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
The quantum reference steps its single-excitation amplitudes with one
propagator, read in the same blocks as the classical samples.  The
small-matrix work runs with one BLAS thread (``blas.single_thread``), so a
trace does not depend on the BLAS thread count.

Two independent oracles are provided: the ideal-mirror delay equation
(dispersionless semi-infinite waveguide), summed over photon round trips,
and the continuum quadratic band edge (John-Quang regime), inverted from the
emitter's resolvent by one FFT on a grid set by the output times.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .blas import single_thread
from .params import (ArraySpec, Chain, JsonFields, QubitCircuitParams,
                     ValidationError, _check_fields, _find_peaks, _require,
                     count, hz, limited, nested, non_negative, nullable,
                     positive, real, real_array, write_csv)
from .statespace import (StateSpaceModel, _retuned_generator,
                         assemble_state_space)

_SLICES = 64        # steps per modulation period; ramp steps <= tune_time / 64
_CHUNK = 128        # time samples per block of reads
_MAX_PERIODS = 8    # modulation periods in the longest super-period
_ROUNDING = 1e-12   # relative: times this close are one time


@dataclass(frozen=True)
class Modulation(JsonFields):
    omega_mod: float    # rad/s
    epsilon: float      # rad/s, frequency-modulation amplitude
    _JSON = ({"omega_mod_hz": positive(hz), "epsilon_hz": non_negative(hz)},
             {})

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
    midpoint.  A modulation, omega_interact + epsilon * cos(omega_mod * (t -
    tune_time)), follows from tune_time in 64 constant-frequency slices per
    period, each at the frequency of its midpoint (slices j and 63 - j share
    one: the cosine is even about the half period).  Without a modulation,
    omega_interact is held from tune_time in dt_output slices.
    """
    omega_interact: float                   # rad/s, bare qubit frequency
    t_max: float                            # s
    dt_output: float = 1e-10                # s
    initial_excited_population: float = 1.0
    modulation: Optional[Modulation] = None
    tune_time: float = 0.0                  # s, 0 = instantaneous quench
    omega_park: Optional[float] = None      # rad/s, start of a finite ramp
    _JSON = ({"omega_interact_hz": positive(hz), "t_max_s": positive(real)},
             {"dt_output_s": positive(real),
              "initial_excited_population": limited(
                  real, lambda v: 0 <= v <= 1, "in [0, 1]"),
              "tune_time_s": non_negative(real),
              "modulation": nullable(nested(Modulation)),
              "omega_park_hz": nullable(positive(hz))})

    def __post_init__(self):
        _check_fields(self)
        _require((self.tune_time > 0) == (self.omega_park is not None),
                 "a ramp needs both tune_time > 0 and omega_park")


@dataclass(frozen=True)
class DynamicsTrace:
    t: np.ndarray       # s
    p_e: np.ndarray
    _FIELDS = {"t": real_array, "p_e": real_array}

    def __post_init__(self):
        _check_fields(self)
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
    n, q = model.n_nodes, model.qubit_node
    x0 = np.zeros(2 * n, dtype=complex)
    x0[q] = 1j / math.sqrt(model.linv[q] / model.cap[q, q])       # flux
    x0[n:] = model.cap[:, q]        # charges at unit voltage on the qubit
    return x0


def total_energy(model: StateSpaceModel, x: np.ndarray) -> float:
    """Total stored energy of a (possibly complex-envelope) state."""
    n = model.n_nodes
    v = np.linalg.solve(model.cap, x[n:])         # C v = Q
    return 0.5 * float((v.conj() @ x[n:]).real
                       + model.linv @ np.abs(x[:n]) ** 2)


def _time_grid(t_max: float, dt: float) -> np.ndarray:
    """Output times k * dt, k = 0 .. round(t_max / dt)."""
    _require(0 < t_max < math.inf and 0 < dt < math.inf,
             "t_max and dt_output must be positive and finite")
    return np.arange(int(round(t_max / dt)) + 1) * dt


def _super_period(period: float, dt: float):
    """(p, q): the fewest periods p <= _MAX_PERIODS that span q output
    intervals dt to rounding, or None."""
    for p in range(1, _MAX_PERIODS + 1):
        q = round(p * period / dt)
        if q and math.isclose(p * period, q * dt, rel_tol=_ROUNDING):
            return p, q
    return None


def _schedule(protocol: Protocol, t_out: np.ndarray):
    """Items (ws, dt, reads, repeats) up to t_out[-1]: len(reads) slices of
    duration dt, slice i at bare qubit frequency ws[i % len(ws)] and read at
    the offsets reads[i] from its start, the whole item taken `repeats`
    times.

    The read rule: each sample is read at t_k by the slice that contains it,
    at the offset t_k - (slice start); a sample within _ROUNDING t_k of a
    slice end is read once, by the slice ending there, at the offset dt (a
    ramp slice's length).

    The ramp goes as Protocol says, one slice per item.  From tune_time the
    qubit runs a period of slices, a modulation's _SLICES or one dt_output
    slice at omega_interact.  When p periods span q samples (_super_period;
    the hold is p = q = 1), one item of p periods repeats while whole ones
    fit; the other slices are one per item.
    """
    w0, w_end = protocol.omega_park, protocol.omega_interact
    tune = protocol.tune_time
    mod = protocol.modulation
    if mod is None:
        ws, dt = [w_end], protocol.dt_output
    else:
        dt = 2.0 * math.pi / mod.omega_mod / _SLICES
        c = np.cos(math.pi * (2 * np.arange(_SLICES // 2) + 1) / _SLICES)
        ws = (w_end + mod.epsilon * np.concatenate([c, c[::-1]])).tolist()
    d = np.maximum(t_out - tune, -dt)   # slice i of each sample, and offset
    n = np.rint(d / dt)
    end = np.abs(d - n * dt) <= _ROUNDING * t_out
    i = np.where(end, n - 1, np.floor(d / dt)).astype(int)
    offsets = np.where(end, dt, d - i * dt)
    k = int(np.searchsorted(i, 0))      # samples 1 .. k-1 fall in the ramp
    edges = np.where(end & (i == -1), tune, t_out)[:k].tolist()
    edges += [tune] if k < len(t_out) and edges[-1] < tune else []
    for m, (a, e) in enumerate(itertools.pairwise(edges), 1):
        s = max(1, math.ceil(_SLICES * (e - a) / tune))
        h = (e - a) / s
        for j in range(s):
            w = w0 + (w_end - w0) * (a + (j + 0.5) * h) / tune
            yield (w,), h, ((h,) if j == s - 1 and m < k else (),), 1
    if k == len(t_out):
        return
    bounds = np.searchsorted(i, np.arange(i[-1] + 2))     # of slices' samples

    def reads(s):
        return tuple(offsets[bounds[s]:bounds[s + 1]].tolist())

    sp = _super_period(len(ws) * dt, protocol.dt_output)
    slices = len(ws) * sp[0] if sp else 1
    r = (i[-1] + 1) // slices if sp else 0
    if r:
        yield tuple(ws), dt, tuple(map(reads, range(slices))), r
    for s in range(r * slices, i[-1] + 1):
        yield (ws[s % len(ws)],), dt, (reads(s),), 1


def _blocked_reads(first: np.ndarray, held: np.ndarray, x: np.ndarray,
                   repeats: int, per_sample: int = 2, advance: bool = False):
    """(y, x'): y stacks the reads first held^j x for j < repeats, and x' is
    held^repeats x when ``advance``, else None.

    The reads come in blocks of about _CHUNK samples of ``per_sample`` rows:
    the rows first held^j, j < c, are stacked once, each block is one gemm
    of them against the state, and the state jumps by held^c between
    blocks."""
    c = max(1, per_sample * _CHUNK // max(1, len(first)))   # repeats per block
    block = [first]
    for _ in range(min(repeats, c) - 1):
        block.append(block[-1] @ held)
    block = np.concatenate(block)
    jump = np.linalg.matrix_power(held, c) if repeats > c else None
    y = []
    for s in range(0, repeats, c):
        if s:
            x = jump @ x
        y.append(block[:min(c, repeats - s) * len(first)] @ x)
    if not advance:
        return np.concatenate(y), None
    for _ in range(min(c, repeats - s)):
        x = held @ x
    return np.concatenate(y), x


@single_thread()
def simulate_emission(spec: ArraySpec | Chain, qubit: QubitCircuitParams,
                      protocol: Protocol) -> DynamicsTrace:
    """Emission of the qubit on one chain, an ``ArraySpec`` or a lowered
    ``Chain`` (a stacked ``Chain`` raises ``ValidationError``), through the
    protocol's quench, ramp or modulation.

    The chain is lowered once, and the model assembled and its generator A
    formed once, at the first slice's frequency; the state starts there
    with unit amplitude on the qubit node.  Only the qubit's row of A moves
    with its frequency, so a slice at another frequency gets a copy of A
    with that row rewritten (statespace._retuned_generator), equal to the
    generator of a model assembled at that frequency.  The state steps
    through _schedule's items with expm propagators, the last _SLICES + 1
    of them cached.  A and expm(A dt) are real, so the complex envelope is
    stepped as a real (2n, 2) array of its real and imaginary parts, which
    never mix.

    Each slice's read rows R are the flux and voltage of the qubit node,
    e_q and row q of C^-1 (A's upper-right block), scaled by
    sqrt((L^-1_qq, C_qq) / 2 omega_q), so a sample's quanta E_q / omega_q
    are the sum of squares of its (2, 2) block R x.  With P_i the propagator
    of an item's slice i, a sample at offset d in that slice gets the row
    R_i P_i(d) P_i-1 ... P_0, where P_i(d) is P_i when d is the slice's
    length and an uncached expm(A_i d) otherwise.  The rows of one repeat of
    the item are read for all its repeats by _blocked_reads.
    """
    import scipy.linalg     # slow to import; only needed here
    chain = spec.lower()
    model = a = None

    def build(w, dt):
        n, q = model.n_nodes, model.qubit_node
        a_w = _retuned_generator(model, a, qubit, w)
        linv, cap = -a_w[n + q, q], model.cap[q, q]             # L^-1_qq at w
        two_w = 2.0 * math.sqrt(linv / cap)                     # 2 omega_q
        rows = np.zeros((2, 2 * n))
        rows[0, q] = math.sqrt(linv / two_w)
        rows[1, n:] = a[q, n:] * math.sqrt(cap / two_w)
        return scipy.linalg.expm(a_w * dt), rows

    def quanta(y):                  # y = R x, one (2, 2) block per sample
        return (y.reshape(-1, 4) ** 2).sum(axis=1)

    stepper = functools.lru_cache(maxsize=_SLICES + 1)(build)
    t_out = _time_grid(protocol.t_max, protocol.dt_output)
    p = np.empty(t_out.shape)
    p[0] = 1.0
    k = 1
    for ws, dt, reads, repeats in _schedule(protocol, t_out):
        if model is None:   # the trace starts in its first slice's model
            model = assemble_state_space(chain, replace(qubit, omega_ge=ws[0]))
            a = model.a_matrix()
            x0 = _initial_state(model)
            x = np.column_stack([x0.real, x0.imag])
            n0 = quanta(stepper(ws[0], dt)[1] @ x)[0]
        steps = [stepper(w, dt) for w in ws]
        per = len(ws)
        heads, prod = {}, None      # one period's read rows by (slice, offset)
        for i, (prop, rows) in enumerate(steps):
            for d in {d for r in reads[i::per] for d in r}:
                row = rows @ (prop if d == dt else build(ws[i], d)[0])
                heads[i, d] = row if prod is None else row @ prod
            prod = prop if prod is None else prop @ prod
        first = np.empty((0, prod.shape[1]))    # rows of period j times prod^j
        for j in reversed(range(len(reads) // per)):
            first = np.concatenate([heads[i % per, d]
                                    for i in range(j * per, (j + 1) * per)
                                    for d in reads[i]] + [first @ prod])
        held = (prod if len(reads) == per
                else np.linalg.matrix_power(prod, len(reads) // per))
        more = k + repeats * len(first) // 2 < p.size   # slices follow
        y, x = _blocked_reads(first, held, x, repeats, advance=more)
        y = quanta(y)
        p[k:k + y.size] = y / n0
        k += y.size
    p *= protocol.initial_excited_population
    return DynamicsTrace(t=t_out, p_e=p)


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
    return DynamicsTrace(t=t, p_e=np.abs(c) ** 2)


def bandedge_oracle(g_uc: float, j: float, omega0: float, detuning: float,
                    t_max: float, dt_output: float = 1e-10,
                    n_modes: int = 1201) -> DynamicsTrace:
    """Single-excitation dynamics of an emitter at omega0 + detuning coupled
    to the continuum of the quadratic band omega_k = omega0 - J k^2,
    0 < k < pi (upper-bandedge John-Quang regime), each mode as g_uc/sqrt(M)
    in the limit M -> infinity.

    With energies measured from omega0 the emitter amplitude is the inverse
    Laplace transform of its resolvent 1/(z - detuning - Sigma(z)), where

        Sigma(z) = (g^2 / pi) int_0^pi dk / (z + J k^2)
                 = (g^2 / pi J) a arctan(pi a),    a^2 = J / z,

    is even in a, so numpy's principal branches leave it one cut, the band
    [-J pi^2, 0] (resolvent method of Calajo et al., PRA 93, 033833 (2016)).
    The bare pole 1/(z - detuning) is taken out and added back as
    e^{-i detuning t}, and the remainder R = Sigma / ((z - detuning)(z -
    detuning - Sigma)), O(g^2/z^3), is inverted on the line Im z = eta by the
    damped trapezoid rule (Abate & Whitt, ORSA J. Comput. 7, 36 (1995)):

        c(t) e^{i detuning t} = 1 + (i/T) e^{(eta + i detuning) t}
                                    sum_m R(x_m + i eta) e^{-i x_m t}

    with x_m = 2 pi m / T.  The grid follows from the inputs.  The period T is
    K = 4 (len(t) - 1) output intervals, about 4 t_max, and eta T = 24, so
    eta t_max is about 6 and the aliased periods weigh e^{-24}.  The time
    step T/N is dt_output/s, with s the fewest that span |x| <= 20 J pi^2 +
    |detuning| + 10 |g_uc|, so every s-th point lands on an output time t_k.
    Only those are kept: the N = K s values of R are folded onto m mod K
    and transformed by one K-point FFT.  Neither the FFT nor the elementwise
    work calls BLAS, so p_e does not depend on the BLAS thread count.

    omega0 is checked to be finite and n_modes to be an integer >= 1, but
    neither selects anything.
    """
    _require(0 < j < math.inf, "j must be positive and finite")
    count(n_modes, "n_modes", 1)
    _require(all(map(math.isfinite, (g_uc, omega0, detuning))),
             "g_uc, omega0 and detuning must be finite")
    t = _time_grid(t_max, dt_output)
    k = 4 * max(1, t.size - 1)
    period = k * dt_output
    s = math.ceil((20 * j * math.pi**2 + abs(detuning) + 10 * abs(g_uc))
                  * dt_output / math.pi)
    eta = 24.0 / period
    folded = np.zeros(k, dtype=complex)
    for x in np.fft.fftfreq(k * s, dt_output / s).reshape(s, k):
        z = 2 * math.pi * x + 1j * eta
        a = np.sqrt(j / z)
        sigma = (g_uc * g_uc / (math.pi * j)) * a * np.arctan(math.pi * a)
        z -= detuning
        folded += sigma / (z * (z - sigma))
    c = 1.0 + ((1j / period) * np.exp((eta + 1j * detuning) * t)
               * np.fft.fft(folded)[:t.size])
    return DynamicsTrace(t=t, p_e=c.real ** 2 + c.imag ** 2)


@single_thread()
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
    semidefinite.  The state steps by one propagator U = expm(-i H_eff
    dt_output), H_eff taken in the frame rotating at omega_interact, and
    p_e(t_k) = |r U^k r|^2 for the read-out row r of a_q is read through
    _blocked_reads, as simulate_emission reads its samples.
    Only the circuit assembly is shared with the classical propagation, which
    differs by the rotating wave and the fixed-frequency (Markovian) port
    response, so the two form a genuine cross-check.
    """
    _require(protocol.modulation is None and protocol.tune_time == 0,
             "simulate_emission_quantum runs quench protocols only")
    import scipy.linalg     # slow to import; only needed here
    h_eff, r = _quantum_h_eff(spec, qubit, protocol.omega_interact)
    t = _time_grid(protocol.t_max, protocol.dt_output)
    u = scipy.linalg.expm((-1j * protocol.dt_output) * h_eff)
    y, _ = _blocked_reads(r[None, :].astype(complex), u, r, t.size, 1)
    p = y.real ** 2 + y.imag ** 2
    p *= protocol.initial_excited_population
    return DynamicsTrace(t=t, p_e=p)


def _quantum_h_eff(spec: ArraySpec | Chain, qubit: QubitCircuitParams,
                   w_ref: float):
    """simulate_emission_quantum's H_eff at bare qubit frequency w_ref, in
    the normal modes of the lossless network and the frame rotating at
    w_ref (H_eff - w_ref, which keeps the propagator's phases small), and
    the real unit row r of a_q, which is also the initial state
    a_q^dag|0>: p_e(t) = |r expm(-i H_eff t) r|^2 in either frame."""
    import scipy.linalg     # slow to import; only needed here
    model = assemble_state_space(spec, replace(qubit, omega_ge=w_ref))
    nodes = np.flatnonzero(model.linv > 0)
    cap = model.cap[np.ix_(nodes, nodes)]
    linv, g_red = model.linv[nodes], model.g[nodes]
    diag = np.diag_indices(nodes.size)
    for port in (model.input_node, model.output_node):
        c = -model.cap[nodes, port]     # zero on nodes not coupled to the port
        if model.g[port] == 0.0:        # floating (mirror) port: Z0 -> inf
            cap[diag] -= c
            continue
        x = w_ref * model.port_impedance * c
        # the Maxwell slice retains the coupler's full diagonal term c;
        # replace it by the effective shunt c/(1+x^2) of the eliminated
        # series-C + Z0 branch
        cap[diag] -= c * x * x / (1.0 + x * x)
        g_red += w_ref**2 * c**2 * model.port_impedance / (1.0 + x * x)

    w2, u = scipy.linalg.eigh(np.diag(linv), cap)    # u^T C u = 1
    w = np.sqrt(w2)
    gamma = (u.T * g_red) @ u                    # mode-resolved decay matrix
    h_eff = np.diag(w - w_ref).astype(complex) - 0.5j * gamma

    # rotating-wave part of a_q = sqrt(C_qq w_q/2) phi_q + i Q_q/sqrt(2 C_qq w_q)
    # in the mode operators b = sqrt(w/2) eta + i eta'/sqrt(2 w)
    q = int(np.searchsorted(nodes, model.qubit_node))
    cw = math.sqrt(cap[q, q] * linv[q])          # C_qq w_q
    r = u[q] * np.sqrt(cw / (4.0 * w)) + (cap[q] @ u) * np.sqrt(w / (4.0 * cw))
    return h_eff, r / np.linalg.norm(r)


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
    settle_level * p_e(0).  Each subsequent peak with at least the given
    prominence is a revival; its onset is where p_e rises above the
    preceding floor by rise_fraction of the revival height.  Peaks and
    prominences are as SciPy's ``find_peaks(x, prominence=...)`` defines them.
    ``prominence`` must be finite and >= 0, ``settle_level`` and
    ``rise_fraction`` must lie in (0, 1].
    """
    n_revivals = count(n_revivals, "n_revivals", 1)
    _require(0 <= prominence < math.inf,
             "prominence must be finite and non-negative")
    _require(0 < settle_level <= 1, "settle_level must lie in (0, 1]")
    _require(0 < rise_fraction <= 1, "rise_fraction must lie in (0, 1]")
    p = trace.p_e
    below = np.where(p < settle_level * p[0])[0]
    if below.size == 0:
        raise ValidationError("population never settles below the threshold")
    start = below[0]
    peaks = _find_peaks(p[start:], prominence) + start
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
