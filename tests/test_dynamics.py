import dataclasses
import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

import slowline
from slowline.bands import tight_binding
from slowline.devices import QUBIT_CELL_INDEX, qubit_device, qubit_q1
from slowline.dynamics import (DynamicsTrace, Modulation, Protocol,
                               _bandedge_spectrum, _initial_state,
                               _quantum_modes, _time_grid, bandedge_oracle,
                               effective_rate, ideal_mirror_oracle,
                               lifetime_1e, revival_onsets, simulate_emission,
                               simulate_emission_quantum, simulate_mirror,
                               simulate_modulated)
from slowline.params import UnitCellParams, ValidationError
from slowline.statespace import assemble_state_space

CELL = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9)
J = tight_binding(CELL)["j_tb"]


# ----------------------------------------------------------------- protocol

def test_protocol_round_trip():
    p = Protocol(omega_interact=3e10, t_max=1e-7, dt_output=2e-10,
                 modulation=Modulation(omega_mod=3.77e9, epsilon=1.5e9),
                 tune_time=5e-9, omega_park=3.1e10)
    q = Protocol.from_dict(p.to_dict())
    assert q.omega_interact == pytest.approx(p.omega_interact, rel=1e-12)
    assert q.omega_park == pytest.approx(p.omega_park, rel=1e-12)
    assert q.modulation.omega_mod == pytest.approx(p.modulation.omega_mod,
                                                   rel=1e-12)
    assert (q.t_max, q.dt_output, q.tune_time) == (p.t_max, p.dt_output,
                                                   p.tune_time)


def test_protocol_validation():
    with pytest.raises(ValidationError):
        Protocol(omega_interact=3e10, t_max=-1.0)
    with pytest.raises(ValidationError):
        Protocol(omega_interact=3e10, t_max=math.nan)
    with pytest.raises(ValidationError):
        Protocol(omega_interact=3e10, t_max=1e-7,
                 initial_excited_population=1.5)
    with pytest.raises(ValidationError, match="t_maxx"):
        Protocol.from_dict({"omega_interact_hz": 5e9, "t_maxx": 1e-7})
    with pytest.raises(ValidationError, match="ramp"):
        Protocol(omega_interact=3e10, t_max=1e-7, omega_park=3.1e10)
    with pytest.raises(ValidationError, match="ramp"):
        Protocol(omega_interact=3e10, t_max=1e-7, tune_time=5e-9)
    with pytest.raises(ValidationError, match="tune_time"):
        Protocol(omega_interact=3e10, t_max=1e-7, tune_time=math.inf,
                 omega_park=3.1e10)
    for bad in (dict(omega_mod=math.inf, epsilon=1.5e9),
                dict(omega_mod=3.77e9, epsilon=math.inf)):
        with pytest.raises(ValidationError, match="finite"):
            Modulation(**bad)


def test_modulation_index():
    m = Modulation(omega_mod=2 * math.pi * 600e6, epsilon=2 * math.pi * 240e6)
    assert m.index == pytest.approx(0.4)


def test_trace_csv_round_trip(tmp_path):
    tr = DynamicsTrace(t=np.linspace(0, 1e-7, 11), p_e=np.linspace(1, 0, 11))
    path = tmp_path / "tr.csv"
    tr.to_csv(path)
    assert path.read_text().splitlines()[0] == "t_s,p_e"
    back = DynamicsTrace.from_csv(path)
    np.testing.assert_allclose(back.p_e, tr.p_e, atol=1e-12)


# ------------------------------------------------------------------ oracles

def test_ideal_mirror_exact_before_round_trip():
    gamma, tau = 1e8, 100e-9
    tr = ideal_mirror_oracle(gamma, tau, phase=0.0, t_max=300e-9)
    pre = tr.t < tau
    expected = np.exp(-gamma * tr.t[pre])
    assert np.max(np.abs(tr.p_e[pre] - expected)) < 1e-12


def test_ideal_mirror_constructive_feedback_doubles_rate():
    """In-phase return (phi = 0), short delay: decay rate -> 2 Gamma."""
    gamma, tau = 1e8, 2e-9      # Gamma * tau = 0.2, near-Markovian
    tr = ideal_mirror_oracle(gamma, tau, phase=0.0, t_max=60e-9,
                             dt_output=1e-11)
    m = (tr.t > 2 * tau) & (tr.t < 20e-9)
    rate = effective_rate(DynamicsTrace(t=tr.t[m], p_e=tr.p_e[m]))
    assert rate == pytest.approx(2 * gamma, rel=0.2)


def test_ideal_mirror_destructive_feedback_traps_population():
    """Anti-phase return (phi = pi) freezes the decay (dark state)."""
    gamma, tau = 1e8, 2e-9
    tr_pi = ideal_mirror_oracle(gamma, tau, phase=math.pi, t_max=60e-9,
                                dt_output=1e-11)
    assert tr_pi.p_e[-1] > 0.5
    late = tr_pi.t > 30e-9
    rate = effective_rate(DynamicsTrace(t=tr_pi.t[late], p_e=tr_pi.p_e[late]))
    assert abs(rate) < gamma / 20


def test_ideal_mirror_series_on_output_grid():
    """The round-trip series is exact on the k * dt_output grid, also when
    dt_output does not divide tau: e^{-G t} before tau, and at phi = pi the
    dark-state population 1 / (1 + G tau / 2)^2 once the revivals settle."""
    gamma, tau, t_max, dt = 1e9, 0.2e-9, 3e-9, 7e-12
    tr = ideal_mirror_oracle(gamma, tau, phase=math.pi, t_max=t_max,
                             dt_output=dt)
    np.testing.assert_array_equal(tr.t, _time_grid(t_max, dt))
    pre = tr.t < tau
    assert np.max(np.abs(tr.p_e[pre] - np.exp(-gamma * tr.t[pre]))) < 1e-15
    assert abs(tr.p_e[-1] - 1.0 / (1.0 + 0.5 * gamma * tau) ** 2) < 1e-12


def test_oracle_inputs_validated():
    ok = dict(gamma_1d=1e8, tau_d=100e-9, phase=0.0, t_max=300e-9)
    for bad in (dict(dt_output=0.0), dict(t_max=-1e-9), dict(t_max=math.inf),
                dict(phase=math.nan), dict(gamma_1d=math.inf),
                dict(tau_d=math.nan)):
        with pytest.raises(ValidationError):
            ideal_mirror_oracle(**{**ok, **bad})
    with pytest.raises(ValidationError):
        bandedge_oracle(0.3 * J, J, CELL.omega0, 0.0, t_max=math.inf)


def test_bandedge_oracle_fractional_decay():
    """Detuning 0 at the edge: population locks near the bound-state weight
    squared (4/9) and oscillates at the dressed splitting."""
    g = 0.3 * J
    beta = (g**4 / (4 * J)) ** (1.0 / 3.0)
    tr = bandedge_oracle(g, J, CELL.omega0, 0.0, t_max=1.2e-6, dt_output=1e-9)
    late = tr.t > 300e-9
    assert tr.p_e[late].mean() == pytest.approx(4.0 / 9.0, rel=0.10)
    osc = tr.t > 100e-9
    peaks, _ = scipy.signal.find_peaks(tr.p_e[osc], prominence=1e-3)
    spacing = np.median(np.diff(tr.t[osc][peaks]))
    assert spacing == pytest.approx(2 * math.pi / beta, rel=0.25)


def test_bandedge_oracle_far_detuned_stays_excited():
    tr = bandedge_oracle(0.3 * J, J, CELL.omega0, 20 * J, t_max=2e-7,
                         dt_output=1e-9)
    assert tr.p_e[-1] > 0.95


def test_bandedge_oracle_convergence_guard():
    with pytest.raises(ValidationError, match="not converged"):
        bandedge_oracle(0.3 * J, J, CELL.omega0, 0.0, t_max=1e-6,
                        dt_output=1e-9, n_modes=21)


def _dense_bandedge(g_uc, j, omega0, detuning, t, m):
    """Dense eigh of the (m+1)-level arrowhead Hamiltonian: the reference."""
    k = (np.arange(m) + 0.5) / m * math.pi
    h = np.zeros((m + 1, m + 1))
    h[:m, :m] = np.diag(omega0 - j * k**2)
    h[m, m] = omega0 + detuning
    h[m, :m] = h[:m, m] = g_uc / math.sqrt(m)
    evals, evecs = np.linalg.eigh(h)
    amps = evecs[m, :]
    ce = np.exp(-1j * np.outer(t, evals - omega0)) @ (amps * amps)
    return np.abs(ce) ** 2


@pytest.mark.parametrize("detuning", [0.0, 20 * J, -3 * J])
@pytest.mark.parametrize("n_modes", [1, 2, 21, 301])
def test_bandedge_oracle_matches_dense_reference(detuning, n_modes,
                                                 g_over_j=0.3):
    g = g_over_j * J
    tr = bandedge_oracle(g, J, CELL.omega0, detuning, t_max=1.2e-6,
                         dt_output=1e-9, n_modes=n_modes, convergence_tol=2.0)
    ref = _dense_bandedge(g, J, CELL.omega0, detuning, tr.t, 2 * n_modes)
    assert np.max(np.abs(tr.p_e - ref)) < 1e-10
    for m in (n_modes, 2 * n_modes):
        _, w = _bandedge_spectrum(g, J, detuning, m)
        assert abs(w.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("g_over_j", [1e-4, 30.0])
@pytest.mark.parametrize("detuning", [0.0, 20 * J, -3 * J])
@pytest.mark.parametrize("n_modes", [1, 2, 21, 301])
def test_bandedge_oracle_outer_roots_match_dense_reference(detuning, n_modes,
                                                           g_over_j):
    """The same check where the outer roots hug the band (1e-4 J) and where
    they lie far from it (30 J)."""
    test_bandedge_oracle_matches_dense_reference(detuning, n_modes, g_over_j)


def test_bandedge_oracle_validation():
    ok = dict(g_uc=0.3 * J, j=J, omega0=CELL.omega0, detuning=0.0,
              t_max=1e-8, dt_output=1e-9, n_modes=11)
    for bad in (dict(j=0.0), dict(j=-J), dict(n_modes=0),
                dict(g_uc=math.nan), dict(omega0=math.inf),
                dict(detuning=math.nan), dict(convergence_tol=math.inf)):
        with pytest.raises(ValidationError):
            bandedge_oracle(**{**ok, **bad})
    uncoupled = bandedge_oracle(**{**ok, "g_uc": 0.0})
    assert np.all(uncoupled.p_e == 1.0)


def test_bandedge_oracle_bit_identical_across_blas_threads():
    """The oracle's p_e does not depend on the OpenBLAS thread count."""
    code = ("from slowline.dynamics import bandedge_oracle\n"
            f"tr = bandedge_oracle({0.3 * J!r}, {J!r}, {CELL.omega0!r}, "
            f"{20 * J!r}, t_max=2e-7, dt_output=1e-9, n_modes=301)\n"
            "print(tr.p_e.tobytes().hex())")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(pathlib.Path(slowline.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(proc.stdout)
    assert out[0] == out[1]


# --------------------------------------------------------------- estimators

def test_lifetime_and_rate_on_pure_exponential():
    gamma = 2e8
    t = np.linspace(0, 50e-9, 501)
    tr = DynamicsTrace(t=t, p_e=np.exp(-gamma * t))
    assert lifetime_1e(tr) == pytest.approx(1.0 / gamma, rel=1e-3)
    assert effective_rate(tr) == pytest.approx(gamma, rel=1e-9)
    assert effective_rate(tr, (10e-9, 40e-9)) == pytest.approx(gamma, rel=1e-9)


def test_lifetime_never_decaying_raises():
    t = np.linspace(0, 1e-7, 11)
    with pytest.raises(ValidationError):
        lifetime_1e(DynamicsTrace(t=t, p_e=np.full(11, 0.9)))


def test_revival_onset_detection():
    t = np.linspace(0, 400e-9, 4001)
    p = np.exp(-1e8 * t)
    bump = 0.05 * np.exp(-((t - 250e-9) / 20e-9) ** 2)
    tr = DynamicsTrace(t=t, p_e=p + bump)
    on = revival_onsets(tr, n_revivals=1, settle_level=0.05, prominence=1e-3)
    assert 200e-9 < on[0] < 250e-9


# ------------------------------------------------------------ full circuit

def test_emission_trace_passive(qubit_spec_nobend, q1, midband):
    tr = simulate_emission(qubit_spec_nobend, q1,
                           Protocol(omega_interact=midband, t_max=3e-8))
    assert tr.p_e[0] == pytest.approx(1.0)
    assert np.all(tr.p_e <= 1.0 + 1e-9)
    assert np.all(tr.p_e >= 0.0)


def test_initial_population_scaling(qubit_spec_nobend, q1, midband):
    tr = simulate_emission(
        qubit_spec_nobend, q1,
        Protocol(omega_interact=midband, t_max=5e-9,
                 initial_excited_population=0.5))
    assert tr.p_e[0] == pytest.approx(0.5)


def test_mirror_requires_open_termination(qubit_spec_nobend, q1, midband):
    with pytest.raises(ValidationError, match="open_mirror"):
        simulate_mirror(qubit_spec_nobend, q1,
                        Protocol(omega_interact=midband, t_max=1e-9))


def test_modulated_requires_modulation(qubit_spec_nobend, q1, midband):
    with pytest.raises(ValidationError, match="modulation"):
        simulate_modulated(qubit_spec_nobend, q1,
                           Protocol(omega_interact=midband, t_max=1e-9))


def test_quantum_matches_classical_short(qubit_spec_nobend, q1, midband):
    prot = Protocol(omega_interact=midband, t_max=1.5e-8, dt_output=2.5e-10)
    pc = simulate_emission(qubit_spec_nobend, q1, prot).p_e
    pq = simulate_emission_quantum(qubit_spec_nobend, q1, prot).p_e
    assert np.max(np.abs(pc - pq)) < 5e-3


@pytest.mark.parametrize("detuning_hz", [0.0, -40e6, 40e6])
def test_quantum_starts_excited_and_matches_mirror(q1, midband, detuning_hz):
    """The quantum trace starts at p_e = 1 and follows the classical mirror
    trace through the first revival within criterion 7's 0.02."""
    mirror = qubit_device(bend_c_series=None, termination_out="open_mirror")
    prot = Protocol(omega_interact=midband + 2 * math.pi * detuning_hz,
                    t_max=5.5e-7, dt_output=2.5e-10)
    pq = simulate_emission_quantum(mirror, q1, prot).p_e
    assert abs(pq[0] - 1.0) <= 1e-12
    assert np.max(np.abs(pq - simulate_mirror(mirror, q1, prot).p_e)) <= 0.02
    short = dataclasses.replace(prot, t_max=1e-9)
    matched = qubit_device(bend_c_series=None)
    assert abs(simulate_emission_quantum(matched, q1, short).p_e[0]
               - 1.0) <= 1e-12


def test_quantum_readout_matches_per_sample_loop(qubit_spec_nobend, q1,
                                                midband):
    prot = Protocol(omega_interact=midband, t_max=2e-7, dt_output=2e-10)
    evals, evecs, coeff, readout = _quantum_modes(qubit_spec_nobend, q1,
                                                  midband)
    t = _time_grid(prot.t_max, prot.dt_output)
    loop = np.empty(t.shape)
    for i, ti in enumerate(t):
        z = evecs @ (coeff * np.exp(-1j * evals * ti))
        loop[i] = np.sum(np.abs(readout @ z) ** 2)
    pq = simulate_emission_quantum(qubit_spec_nobend, q1, prot).p_e
    assert np.max(np.abs(pq - loop)) < 1e-12


def test_ramped_tune_in_slows_early_decay(qubit_spec_nobend, q1, midband,
                                          tune_time=4e-9):
    """A finite ramp from a far-detuned park keeps early population higher,
    and every sample is read at its own time: no two of the first 100 agree."""
    quench = simulate_emission(
        qubit_spec_nobend, q1,
        Protocol(omega_interact=midband, t_max=1e-8))
    ramped = simulate_emission(
        qubit_spec_nobend, q1,
        Protocol(omega_interact=midband, t_max=1e-8, tune_time=tune_time,
                 omega_park=midband + 2 * math.pi * 1.5e9))
    i = np.searchsorted(quench.t, 4e-9)
    assert ramped.p_e[i] > quench.p_e[i]
    assert np.unique(ramped.p_e[:100]).size == 100


def test_slow_ramp_reads_every_sample(qubit_spec_nobend, q1, midband):
    """The same for a 64 ns ramp, longer than t_max, whose tune_time / 64
    steps are ten times dt_output."""
    test_ramped_tune_in_slows_early_decay(qubit_spec_nobend, q1, midband,
                                          tune_time=64e-9)


def _ramp_reference(spec, qubit, protocol, h_max=1e-11):
    """Literal ramp stepping: a fresh expm per sub-step of at most h_max at
    the ramp frequency of its midpoint (one step per interval after
    tune_time, where the frequency stays put), with steps ending on every
    t_k and on tune_time; p_e read at t_k as qubit-node quanta, v = C^-1 q
    by solve, under the model at the frequency of t_k."""
    w0, w1 = protocol.omega_park, protocol.omega_interact
    tune = protocol.tune_time

    def model(t):
        w = w0 + (w1 - w0) * min(t, tune) / tune
        return assemble_state_space(spec,
                                    dataclasses.replace(qubit, omega_ge=w))

    def quanta(m, x):
        n, q = m.n_nodes, m.qubit_node
        v = np.linalg.solve(m.cap, x[n:])
        return (0.5 * (m.cap[q, q] * abs(v[q]) ** 2
                       + m.linv[q, q] * abs(x[q]) ** 2)
                / math.sqrt(m.linv[q, q] / m.cap[q, q]))

    t = _time_grid(protocol.t_max, protocol.dt_output)
    x = _initial_state(model(0.0))
    p = [quanta(model(0.0), x)]
    for a, b in itertools.pairwise(np.union1d(t, [tune])):
        m = math.ceil((b - a) / h_max) if a < tune else 1
        for j in range(m):
            x = scipy.linalg.expm(model(a + (j + 0.5) * (b - a) / m).a_matrix()
                                  * ((b - a) / m)) @ x
        if b in t:
            p.append(quanta(model(b), x))
    return np.array(p[:t.size]) / p[0]


@pytest.mark.parametrize("tune_time", [4e-9, 4.05e-9])
def test_ramp_matches_exact_sampling_reference(qubit_spec_nobend, q1, midband,
                                               tune_time):
    """A ramp from +1.5 GHz, on and off the output grid, follows 10 ps
    literal sub-stepping read at t_k within 1e-4 (measured: 3.6e-5 for
    both; 4 ps sub-steps move the reference by at most 2.3e-7)."""
    prot = Protocol(omega_interact=midband, t_max=1e-8, tune_time=tune_time,
                    omega_park=midband + 2 * math.pi * 1.5e9)
    p = simulate_emission(qubit_spec_nobend, q1, prot).p_e
    ref = _ramp_reference(qubit_spec_nobend, q1, prot)
    assert np.max(np.abs(p - ref)) <= 1e-4


def _expm_reference(spec, qubit, protocol):
    """Literal LTI expm stepping; qubit-node energy with v = C^-1 q by solve."""
    model = assemble_state_space(
        spec, dataclasses.replace(qubit, omega_ge=protocol.omega_interact))
    prop = scipy.linalg.expm(model.a_matrix() * protocol.dt_output)
    n, q = model.n_nodes, model.qubit_node
    x = _initial_state(model)
    energy = []
    for _ in range(int(round(protocol.t_max / protocol.dt_output)) + 1):
        v = np.linalg.solve(model.cap, x[n:])
        energy.append(0.5 * (model.cap[q, q] * abs(v[q]) ** 2
                             + model.linv[q, q] * abs(x[q]) ** 2))
        x = prop @ x
    return np.array(energy) / energy[0]


@pytest.mark.parametrize("termination", ["matched", "open_mirror"])
def test_quench_matches_literal_expm_stepping(q1, midband, termination):
    spec = qubit_device(termination_out=termination)
    prot = Protocol(omega_interact=midband, t_max=3e-8)
    sim = simulate_mirror if termination == "open_mirror" else simulate_emission
    tr = sim(spec, q1, prot)
    np.testing.assert_allclose(tr.p_e, _expm_reference(spec, q1, prot),
                               rtol=0, atol=1e-12)


_WMOD = 2 * math.pi * 600e6


@pytest.mark.parametrize("kind, value", [
    ("quench", None), ("mirror", None), ("ramp", 1.2e9), ("ramp", 1.8e9),
    ("index", 0.2), ("index", 0.8), ("quantum", "matched"),
    ("quantum", "open_mirror"), ("ramped index", 0.4), ("tune_time", 1e300)])
def test_population_stays_in_unit_interval(qubit_spec_nobend, q1, midband,
                                           kind, value):
    """0 <= p_e <= 1 also while the qubit frequency moves: ramps parked
    `value` Hz above the band centre, modulation of index `value` (also
    after a 4 ns ramp from +1.5 GHz, which must change the trace), a ramp of
    tune_time `value` far beyond t_max; and for the quantum method with a
    `value` output termination."""
    spec, sim = qubit_spec_nobend, simulate_emission
    park = midband + 2 * math.pi * 1.5e9
    prot = Protocol(omega_interact=midband, t_max=6e-8)
    if kind == "mirror":
        spec = qubit_device(bend_c_series=None, termination_out="open_mirror")
        sim = simulate_mirror
    elif kind == "quantum":
        spec = qubit_device(bend_c_series=None, termination_out=value)
        sim = simulate_emission_quantum
    elif kind == "ramp":
        prot = dataclasses.replace(prot, tune_time=4e-9,
                                   omega_park=midband + 2 * math.pi * value)
    elif kind in ("index", "ramped index"):
        prot = Protocol(omega_interact=midband + _WMOD, t_max=6e-8,
                        dt_output=5e-10,
                        modulation=Modulation(omega_mod=_WMOD,
                                              epsilon=value * _WMOD))
    elif kind == "tune_time":
        prot = Protocol(omega_interact=midband, t_max=1e-9, tune_time=value,
                        omega_park=park)
    if kind == "ramped index":
        unramped = sim(spec, q1, prot).p_e
        prot = dataclasses.replace(prot, tune_time=4e-9, omega_park=park)
    p = sim(spec, q1, prot).p_e
    assert p.min() >= 0.0
    assert p.max() <= 1.0 + 1e-9
    if kind == "ramped index":
        assert np.max(np.abs(p - unramped)) > 1e-3


@pytest.mark.parametrize("protocol", [
    dict(modulation=Modulation(omega_mod=_WMOD, epsilon=0.4 * _WMOD)),
    dict(tune_time=4e-9, omega_park=3.1e10)])
def test_quantum_requires_quench(qubit_spec_nobend, q1, midband, protocol):
    with pytest.raises(ValidationError, match="quench"):
        simulate_emission_quantum(
            qubit_spec_nobend, q1,
            Protocol(omega_interact=midband, t_max=1e-9, **protocol))


def test_decoupled_qubit_keeps_population_under_modulation(qubit_spec_nobend,
                                                            midband):
    """A 1e-20 F lossless qubit under index-0.4 modulation keeps p_e = 1.

    The residual is the modulated linear oscillator's own parametric
    response, not slicing error: it converges to 3.4e-6 as the slices per
    modulation period go from 64 to 256.
    """
    qubit = dataclasses.replace(qubit_q1(q_intrinsic=math.inf),
                                couplings={QUBIT_CELL_INDEX: 1e-20})
    prot = Protocol(omega_interact=midband + _WMOD, t_max=6e-8,
                    dt_output=5e-10,
                    modulation=Modulation(omega_mod=_WMOD, epsilon=0.4 * _WMOD))
    p = simulate_modulated(qubit_spec_nobend, qubit, prot).p_e
    assert np.max(np.abs(p - 1.0)) <= 1e-5

