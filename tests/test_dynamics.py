import dataclasses
import functools
import hashlib
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
from slowline.abcd import TwoPortResponse
from slowline.bands import (CouplingSpectrum, DispersionCurve, band_edges,
                            tight_binding)
from slowline.devices import (BEND_C_SERIES, QUBIT_CELL_INDEX, qubit_device,
                              qubit_q1)
from slowline.disorder import (DisorderEnsembleResult, SigmaCalibration,
                               sample_disordered)
from slowline.blas import single_thread
from slowline.dynamics import (_CHUNK, _SLICES, DynamicsTrace, Modulation,
                               Protocol, _blocked_reads, _initial_state,
                               _quantum_h_eff, _schedule, _time_grid,
                               bandedge_oracle, effective_rate,
                               ideal_mirror_oracle, lifetime_1e,
                               revival_onsets, simulate_emission,
                               simulate_emission_quantum, simulate_mirror,
                               simulate_modulated)
from slowline.params import (ArraySpec, UnitCellParams, ValidationError,
                             write_csv)
from slowline.statespace import (StateSpaceModel, _retuned_generator,
                                 assemble_state_space)

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
    for name, bad in itertools.product(("omega_interact", "omega_park"),
                                       (math.inf, math.nan, 0.0, -3e10)):
        ramp = dict(omega_interact=3e10, tune_time=1e-9, omega_park=3.1e10)
        with pytest.raises(ValidationError,
                           match=f"{name} must be positive and finite"):
            Protocol(t_max=1e-9, **{**ramp, name: bad})


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


def test_trace_csv_bytes_match_savetxt(tmp_path):
    """Every CSV table, the CLI's convergence.csv and index.csv included, has
    the bytes np.savetxt gives it, on values that stress the formats."""
    x = np.array([0.0, 1.0, 1e-300, -0.25, math.nan, -0.0, 5e-324])
    y = x[::-1] * 3.5e9
    i = np.arange(x.size)
    names = np.array([f"trace_{k:03d}.csv" for k in i], dtype=object)
    s21 = TwoPortResponse(freq_grid=(i + 1) * 3e10, s21=x * 1j + y,
                          s11=y * 1j - x)
    tables = {  # kind: (writer of a path, columns, header, fmt)
        "trace": (DynamicsTrace(t=i * 2.5e-10, p_e=x).to_csv,
                  [i * 2.5e-10, x], "t_s,p_e", "%.12e"),
        "s21": (s21.to_csv, [s21.freq_grid, s21.s21.real, s21.s21.imag,
                             s21.s11.real, s21.s11.imag],
                "omega_rad_s,s21_re,s21_im,s11_re,s11_im", "%.12e"),
        "dispersion": (DispersionCurve(k_grid=x, omega=y).to_csv, [x, y],
                       "k_per_d,omega_rad_s", "%.12e"),
        "coupling": (CouplingSpectrum(distance=i, v=x).to_csv, [i, x],
                     "distance_cells,v_rad_s", ["%d", "%.12e"]),
        "extinction": (DisorderEnsembleResult(x, y, x, -y, 5, 0).to_csv,
                       [x, y, -y], "sigma_over_j,mean_ext_db,stderr_db",
                       "%.12e"),
        "calibration": (SigmaCalibration(x, y, x, 1.0, True).to_csv, [x, y],
                        "sigma_rad_s,mean_delta_fsr_rad_s", "%.12e"),
        "convergence": (lambda path: write_csv(
            path, "iter,ripple_db", [i * 1.0, y], ["%d", "%.6f"]),
            [i * 1.0, y], "iter,ripple_db", ["%d", "%.6f"]),
        "index": (lambda path: write_csv(
            path, "omega_interact_hz,file", [tuple(y.tolist()), list(names)],
            ["%.12e", "%s"]),
            [y.astype(object), names], "omega_interact_hz,file",
            ["%.12e", "%s"]),
    }
    for kind, (write, columns, header, fmt) in tables.items():
        write(tmp_path / "out.csv")
        np.savetxt(tmp_path / "ref.csv", np.column_stack(columns),
                   delimiter=",", header=header, comments="", fmt=fmt)
        assert ((tmp_path / "out.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes()), kind


def test_write_csv_peak_memory(tmp_path):
    """write_csv formats a block of rows at a time, so a 2001 x 5 table
    (the size of an ensemble s21.csv) peaks under 256 KiB; formatted whole
    it peaks near 600 KiB."""
    import tracemalloc
    columns = [np.linspace(k, k + 1.0, 2001) for k in range(5)]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "s21.csv", "a,b,c,d,e", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 1024


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


def _dense_spectrum(g_uc, j, detuning, m):
    """Eigenvalues E_i - omega0 and emitter weights |<e|i>|^2 of the
    (m+1)-level arrowhead Hamiltonian [[diag(-J k^2), g/sqrt(m)],
    [g/sqrt(m), detuning]], k = (i + 1/2) pi / m, by dense eigh."""
    k = (np.arange(m) + 0.5) / m * math.pi
    h = np.zeros((m + 1, m + 1))
    h[:m, :m] = np.diag(-j * k**2)
    h[m, m] = detuning
    h[m, :m] = h[:m, m] = g_uc / math.sqrt(m)
    evals, evecs = np.linalg.eigh(h)
    return evals, evecs[m, :] ** 2


def _dense_bandedge(g_uc, j, detuning, t, m):
    """p_e(t) of the m-mode discretized band: the reference."""
    evals, weights = _dense_spectrum(g_uc, j, detuning, m)
    return np.abs(np.exp(-1j * np.outer(t, evals)) @ weights) ** 2


@pytest.mark.parametrize("detuning", [0.0, 20 * J, -3 * J])
@pytest.mark.parametrize("n_modes", [1, 2, 21, 301])
def test_bandedge_oracle_matches_dense_reference(detuning, n_modes):
    """The continuum oracle against the dense 1201-mode band over 1.2 us at
    g = 0.3 J: the gap is the band's discretization.  Measured 3.3e-7,
    6.0e-8 and 3.1e-8 at detunings 0, 20 J and -3 J; the bound leaves 3x.
    n_modes is accepted but selects nothing: every value gives the same
    trace."""
    g = 0.3 * J
    tr = bandedge_oracle(g, J, CELL.omega0, detuning, t_max=1.2e-6,
                         dt_output=1e-9, n_modes=n_modes)
    ref = _dense_bandedge(g, J, detuning, tr.t, 1201)
    assert np.max(np.abs(tr.p_e - ref)) < 1e-6
    default = bandedge_oracle(g, J, CELL.omega0, detuning, t_max=1.2e-6,
                              dt_output=1e-9)
    assert np.array_equal(tr.p_e, default.p_e)


@pytest.mark.parametrize("g_over_j", [1e-4, 0.3, 30.0])
@pytest.mark.parametrize("detuning", [0.0, 20 * J, -3 * J])
def test_bandedge_oracle_population_in_unit_interval(detuning, g_over_j):
    """0 <= p_e <= 1 + 1e-9 where the bound state hugs the band (1e-4 J),
    at the test cell (0.3 J) and far outside it (30 J).  Measured worst
    p_e - 1: -2.4e-10 at 0.3 J and -9.1e-8 at 30 J."""
    tr = bandedge_oracle(g_over_j * J, J, CELL.omega0, detuning,
                         t_max=1.2e-6, dt_output=1e-9)
    assert np.all(tr.p_e >= 0.0)
    assert np.all(tr.p_e <= 1.0 + 1e-9)


def test_bandedge_oracle_validation():
    ok = dict(g_uc=0.3 * J, j=J, omega0=CELL.omega0, detuning=0.0,
              t_max=1e-8, dt_output=1e-9, n_modes=11)
    for bad in (dict(j=0.0), dict(j=-J), dict(n_modes=0),
                dict(n_modes=True), dict(n_modes=11.5), dict(n_modes="11"),
                dict(g_uc=math.nan), dict(omega0=math.inf),
                dict(detuning=math.nan)):
        with pytest.raises(ValidationError, match=next(iter(bad))):
            bandedge_oracle(**{**ok, **bad})
    uncoupled = bandedge_oracle(**{**ok, "g_uc": 0.0})
    assert np.all(uncoupled.p_e == 1.0)


def _stdout_at_blas_threads(code):
    """What `code` prints in a fresh interpreter at 1 and at 2 OpenBLAS
    threads."""
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(pathlib.Path(slowline.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(proc.stdout)
    return out


def test_bandedge_oracle_bit_identical_across_blas_threads():
    """The oracle's p_e does not depend on the OpenBLAS thread count."""
    code = ("from slowline.dynamics import bandedge_oracle\n"
            f"tr = bandedge_oracle({0.3 * J!r}, {J!r}, {CELL.omega0!r}, "
            f"{20 * J!r}, t_max=2e-7, dt_output=1e-9, n_modes=301)\n"
            "print(tr.p_e.tobytes().hex())")
    out = _stdout_at_blas_threads(code)
    assert out[0] == out[1]


def test_traces_bit_identical_across_blas_threads():
    """simulate_emission and simulate_emission_quantum pin BLAS to one
    thread, so a 10 us quench at mid-band + 1.5 GHz (held blocks),
    criterion 9's 250 ns index-0.4 trace (super-period blocks) and a 550 ns
    quantum quench at mid-band do not depend on the OpenBLAS thread count
    (without the pin they differed by 2.3e-12, 2.2e-14 and 6.1e-15)."""
    code = "\n".join([
        "import hashlib, math",
        "from slowline.bands import band_edges",
        "from slowline.devices import qubit_device, qubit_q1",
        "from slowline.dynamics import (Modulation, Protocol,",
        "                               simulate_emission,",
        "                               simulate_emission_quantum)",
        "spec = qubit_device(bend_c_series=None)",
        "mid = 0.5 * sum(band_edges(spec.interior))",
        "w = 2 * math.pi * 600e6",
        "for sim, prot in (",
        "        (simulate_emission, Protocol(",
        "            omega_interact=mid + 2 * math.pi * 1.5e9, t_max=1e-5)),",
        "        (simulate_emission, Protocol(",
        "            omega_interact=mid + w, t_max=2.5e-7, dt_output=5e-10,",
        "            modulation=Modulation(omega_mod=w, epsilon=0.4 * w))),",
        "        (simulate_emission_quantum, Protocol(",
        "            omega_interact=mid, t_max=5.5e-7, dt_output=2.5e-10))):",
        "    p = sim(spec, qubit_q1(), prot).p_e",
        "    print(hashlib.sha256(p.tobytes()).hexdigest())"])
    out = _stdout_at_blas_threads(code)
    assert len(out[0].split()) == 3
    assert out[0] == out[1]


def test_blas_pin_holds_when_scipy_linalg_loads_late(qubit_spec_nobend, q1,
                                                     midband):
    """Importing the CLI leaves out scipy.linalg, so the first single_thread
    call, in simulate_emission, loads it: blas._controls still finds as many
    OpenBLAS copies as in a process that imported scipy.linalg first, and a
    1 us quench at mid-band + 1.5 GHz equals the in-process trace bit for
    bit at 1 and at 2 OpenBLAS threads."""
    omega = midband + 2 * math.pi * 1.5e9
    code = "\n".join([
        "import hashlib, sys",
        "import slowline.cli",
        "assert 'scipy.linalg' not in sys.modules",
        "from slowline import blas",
        "from slowline.devices import qubit_device, qubit_q1",
        "from slowline.dynamics import Protocol, simulate_emission",
        "p = simulate_emission(qubit_device(bend_c_series=None), qubit_q1(),",
        f"                      Protocol(omega_interact={omega!r}, t_max=1e-6)).p_e",
        "print(len(blas._controls()), hashlib.sha256(p.tobytes()).hexdigest())"])
    late = _stdout_at_blas_threads(code)
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(slowline.__file__).parents[1]))
    first = subprocess.run(
        [sys.executable, "-c", "import scipy.linalg\n"
         "from slowline import blas\nprint(len(blas._controls()))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    p = simulate_emission(qubit_spec_nobend, q1,
                          Protocol(omega_interact=omega, t_max=1e-6)).p_e
    want = f"{first.stdout.strip()} {hashlib.sha256(p.tobytes()).hexdigest()}"
    assert [out.strip() for out in late] == [want, want]


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


@pytest.mark.parametrize("lowered", [False, True], ids=["spec", "chain"])
def test_mirror_requires_open_termination(qubit_spec_nobend, q1, midband,
                                          lowered):
    spec = qubit_spec_nobend.lower() if lowered else qubit_spec_nobend
    with pytest.raises(ValidationError, match="open_mirror"):
        simulate_mirror(spec, q1, Protocol(omega_interact=midband, t_max=1e-9))


def test_revival_peaks_match_scipy_on_mirror_trace(q1, midband):
    """revival_onsets' peak finder picks scipy.signal.find_peaks' peaks bit
    for bit on criterion 8's open-mirror trace, whole and past its settle
    point, at criteria 6 and 8's prominence, the default and 0."""
    from slowline.params import _find_peaks
    mirror = qubit_device(bend_c_series=None, termination_out="open_mirror")
    p = simulate_mirror(mirror, q1, Protocol(omega_interact=midband,
                                             t_max=550e-9,
                                             dt_output=2.5e-10)).p_e
    settled = p[np.flatnonzero(p < 0.02 * p[0])[0]:]
    for x in (p, settled):
        for prominence in (5e-3, 1e-6, 0.0):
            assert np.array_equal(
                _find_peaks(x, prominence),
                scipy.signal.find_peaks(x, prominence=prominence)[0])


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
    """The propagator-stepped quantum trace against the eigen-sum of H_eff,
    |r V (c exp(-i lam t))|^2 with H_eff = V diag(lam) V^-1 and c = V^-1 r,
    evaluated sample by sample.  Measured 1.6e-15; the bound is 1e-12."""
    prot = Protocol(omega_interact=midband, t_max=2e-7, dt_output=2e-10)
    h_eff, r = _quantum_h_eff(qubit_spec_nobend, q1, midband)
    evals, evecs = np.linalg.eig(h_eff)
    coeff = np.linalg.solve(evecs, r)
    t = _time_grid(prot.t_max, prot.dt_output)
    loop = np.empty(t.shape)
    for i, ti in enumerate(t):
        z = evecs @ (coeff * np.exp(-1j * evals * ti))
        loop[i] = abs(r @ z) ** 2
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


def _quanta(m, x):
    """Qubit-node quanta of the state x under model m, v = C^-1 q by solve."""
    n, q = m.n_nodes, m.qubit_node
    v = np.linalg.solve(m.cap, x[n:])
    return (0.5 * (m.cap[q, q] * abs(v[q]) ** 2 + m.linv[q] * abs(x[q]) ** 2)
            / math.sqrt(m.linv[q] / m.cap[q, q]))


@single_thread()
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

    t = _time_grid(protocol.t_max, protocol.dt_output)
    x = _initial_state(model(0.0))
    p = [_quanta(model(0.0), x)]
    for a, b in itertools.pairwise(np.union1d(t, [tune])):
        m = math.ceil((b - a) / h_max) if a < tune else 1
        for j in range(m):
            x = scipy.linalg.expm(model(a + (j + 0.5) * (b - a) / m).a_matrix()
                                  * ((b - a) / m)) @ x
        if b in t:
            p.append(_quanta(model(b), x))
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


@single_thread()
def _literal_reference(spec, qubit, protocol):
    """Literal complex stepping of the protocol's slices, built from
    Protocol's rules rather than _schedule's items: the ramp crosses each
    output interval (the last one cut at tune_time) in the fewest equal
    steps no longer than tune_time / 64, each at the ramp frequency of its
    midpoint; from tune_time follow dt_output slices at omega_interact, or
    64 slices per modulation period, slice j at omega_interact + epsilon
    cos(pi (2 j + 1) / 64).  Each slice is stepped whole by expm on the
    complex envelope.  A sample in it is read by expm(A delta) from the
    slice's start, delta = t_k - start or, when t_k is on its end to
    1e-12 t_k, the slice's length, as qubit-node quanta with v = C^-1 q by
    solve under the slice's model."""
    t = _time_grid(protocol.t_max, protocol.dt_output)
    mod, tune = protocol.modulation, protocol.tune_time
    w0, w1 = protocol.omega_park, protocol.omega_interact
    slices = []                             # (start, duration, frequency)
    if tune:
        for a, e in itertools.pairwise(np.append(t[t < tune * (1 - 1e-12)],
                                                 tune)):
            n = max(1, math.ceil(64 * (e - a) / tune))
            slices += [(a + j * (e - a) / n, (e - a) / n,
                        w0 + (w1 - w0) * (a + (j + 0.5) * (e - a) / n) / tune)
                       for j in range(n)]
    ws, dt = [w1], protocol.dt_output
    if mod is not None:                     # folded as Protocol says
        dt = 2 * math.pi / mod.omega_mod / 64
        ws = [w1 + mod.epsilon * math.cos(math.pi * (2 * j + 1) / 64)
              for j in range(32)]
        ws += ws[::-1]
    slices += [(tune + j * dt, dt, ws[j % len(ws)])
               for j in range(math.ceil((t[-1] - tune) / dt) + 1)]

    @functools.cache
    def model(w):
        m = assemble_state_space(spec, dataclasses.replace(qubit, omega_ge=w))
        return m, m.a_matrix()

    @functools.cache
    def prop(w, h):
        return scipy.linalg.expm(model(w)[1] * h)

    m = model(slices[0][2])[0]
    x = _initial_state(m)
    p, k = [_quanta(m, x)], 1
    for start, h, w in slices:
        m, a = model(w)
        while k < t.size and t[k] - start <= h + 1e-12 * t[k]:
            delta = t[k] - start
            side = (prop(w, h) if delta >= h - 1e-12 * t[k]
                    else scipy.linalg.expm(a * delta))
            p.append(_quanta(m, side @ x))
            k += 1
        x = prop(w, h) @ x
    return np.array(p) / p[0]


@pytest.mark.parametrize("termination", ["matched", "open_mirror"])
def test_quench_matches_literal_expm_stepping(q1, midband, termination):
    spec = qubit_device(termination_out=termination)
    prot = Protocol(omega_interact=midband, t_max=3e-8)
    sim = simulate_mirror if termination == "open_mirror" else simulate_emission
    tr = sim(spec, q1, prot)
    np.testing.assert_allclose(tr.p_e, _literal_reference(spec, q1, prot),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("steps", [_CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   2 * _CHUNK + 1])
@pytest.mark.parametrize("termination", ["matched", "open_mirror"])
def test_quench_blocks_match_literal_expm_stepping(q1, midband, termination,
                                                   steps):
    """A quench reads its `steps` held steps _CHUNK samples per block:
    short of one block, one exact block, one sample past it, and two blocks
    and a sample.  Measured worst case against literal stepping 6.7e-16 on
    both terminations; the bound is 1e-12."""
    spec = qubit_device(termination_out=termination)
    prot = Protocol(omega_interact=midband, t_max=steps * 2e-10,
                    dt_output=2e-10)
    tr = simulate_emission(spec, q1, prot)
    assert tr.t.size == steps + 1
    np.testing.assert_allclose(tr.p_e, _literal_reference(spec, q1, prot),
                               rtol=0, atol=1e-12)


def test_far_detuned_quench_matches_literal_expm_stepping(qubit_spec, q1,
                                                         monkeypatch):
    """Criterion 6's 10 us, 2 ns far-detuned trace (5000 held steps in 40
    blocks, so 39 jumps by the block's propagator power, built once) against
    literal stepping.  Measured worst case 6.2e-14; the bound is 1e-12."""
    powers, power = [], np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda a, k: powers.append(k) or power(a, k))
    lo, _ = band_edges(qubit_spec.interior)
    prot = Protocol(omega_interact=lo - 2 * math.pi * 300e6, t_max=10e-6,
                    dt_output=2e-9)
    tr = simulate_emission(qubit_spec, q1, prot)
    assert powers == [_CHUNK]
    np.testing.assert_allclose(tr.p_e, _literal_reference(qubit_spec, q1, prot),
                               rtol=0, atol=1e-12)


_WMOD = 2 * math.pi * 600e6


@pytest.mark.parametrize("kind", ["index 0.4", "ramp", "held mid-schedule"])
def test_real_state_matches_complex_schedule_stepping(qubit_spec_nobend, q1,
                                                      midband, kind):
    """The real two-column state follows literal complex stepping
    (_literal_reference) within 1e-12: a 20 ns index-0.4 modulation (four
    super-periods), a 4 ns ramp from +1.5 GHz, and an unmodulated (index 0)
    modulation read just faster than its slices, which has no super-period
    of at most 8 periods: its equal slices are stepped one by one, each read
    once or twice.  Measured worst cases 6.1e-15, 2.0e-15 and 1.9e-15."""
    if kind == "index 0.4":
        prot = Protocol(omega_interact=midband + _WMOD, t_max=2e-8,
                        dt_output=5e-10,
                        modulation=Modulation(omega_mod=_WMOD,
                                              epsilon=0.4 * _WMOD))
    elif kind == "ramp":
        prot = Protocol(omega_interact=midband, t_max=1e-8, tune_time=4e-9,
                        omega_park=midband + 2 * math.pi * 1.5e9)
    else:
        slice_dt = 2 * math.pi / _WMOD / 64
        prot = Protocol(omega_interact=midband, t_max=500 * slice_dt,
                        dt_output=slice_dt * (1 - 1 / 150),
                        modulation=Modulation(omega_mod=_WMOD, epsilon=0.0))
        items = list(_schedule(prot, _time_grid(prot.t_max, prot.dt_output)))
        assert {(len(reads), repeats) for _, _, reads, repeats in items} \
            == {(1, 1)}
        assert {len(reads[0]) for _, _, reads, _ in items} == {1, 2}
    p = simulate_emission(qubit_spec_nobend, q1, prot).p_e
    np.testing.assert_allclose(p, _literal_reference(qubit_spec_nobend, q1,
                                                      prot),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("tune_time, modulated, held", [
    (0.0, False, True), (4e-9, False, True), (4.05e-9, False, True),
    (64e-9, False, False), (0.0, True, False), (4e-9, True, False)],
    ids=["quench", "ramp 4 ns", "ramp 4.05 ns", "ramp 64 ns", "index 0.4",
         "ramped index 0.4"])
def test_schedule_names_its_hold(midband, tune_time, modulated, held):
    """Every _schedule item is one slice taken once, except the hold and a
    super-period.  A quench and ramps from +1.5 GHz on and off the output
    grid end in the hold ((omega_interact,), dt_output, ((d,),), n): one
    dt_output slice that reads one sample at offset d from its start,
    repeated.  A quench, and the ramp ending on the grid, read at the slice
    end, d == dt_output bit for bit; the ramp ending 0.05 ns before a sample
    reads at d = 0.05 ns.  A ramp longer than t_max has neither.  An
    index-0.4 modulation at 600 MHz read every 0.5 ns (also after a ramp)
    names one super-period: 3 periods of _SLICES slices cycling through one
    period's frequencies, holding 10 reads.  The items read every sample
    after t = 0 exactly once."""
    mod = Modulation(omega_mod=_WMOD, epsilon=0.4 * _WMOD)
    prot = Protocol(omega_interact=midband + (_WMOD if modulated else 0.0),
                    t_max=2e-8, dt_output=5e-10 if modulated else 1e-10,
                    modulation=mod if modulated else None, tune_time=tune_time,
                    omega_park=midband + 2 * math.pi * 1.5e9 if tune_time
                    else None)
    t = _time_grid(prot.t_max, prot.dt_output)
    items = list(_schedule(prot, t))
    repeated = [it for it in items if len(it[2]) > 1 or it[3] > 1]
    assert len(repeated) == int(held or modulated)
    if held:
        ws, dt, ((d, *more),), _ = items[-1]
        assert repeated[0] == items[-1]
        assert (ws, dt, more) == ((prot.omega_interact,), prot.dt_output, [])
        if tune_time == 4.05e-9:
            assert d == pytest.approx(5e-11, rel=1e-9, abs=0)
        else:
            assert d == prot.dt_output
    if modulated:
        ws, dt, reads, repeats = repeated[0]
        assert dt == 2 * math.pi / _WMOD / _SLICES
        assert (len(ws), len(reads), sum(map(len, reads))) \
            == (_SLICES, 3 * _SLICES, 10)
    assert sum(sum(map(len, reads)) * repeats
               for _, _, reads, repeats in items) == t.size - 1


def _super_period_case(kind, midband):
    """Criterion 9's index-0.4 modulation at 600 MHz read every 0.5 ns, and
    variants of it."""
    wmod, t_max, tune = _WMOD, 6e-7, {}
    if kind == "after a 4.05 ns ramp":      # the modulation starts off the grid
        t_max, tune = 1e-7, dict(tune_time=4.05e-9,
                                 omega_park=midband + 2 * math.pi * 1.5e9)
    elif kind == "10 MHz":                  # epsilon / 2 pi = 100 MHz, q = 200
        wmod, t_max = 2 * math.pi * 10e6, 1e-6
    elif kind in ("index 0", "ends mid-super-period"):
        t_max = 2.5e-7 if kind == "index 0" else 2.033e-7
    elif kind == "613 MHz":                 # no super-period of <= 8 periods
        wmod, t_max = 2 * math.pi * 613e6, 1e-7
    epsilon = 0.0 if kind == "index 0" else (10 if kind == "10 MHz" else 0.4)
    return Protocol(omega_interact=midband + _WMOD, t_max=t_max,
                    dt_output=5e-10, **tune,
                    modulation=Modulation(omega_mod=wmod,
                                          epsilon=epsilon * wmod))


_SUPER_PERIOD_CASES = ["index 0.4", "index 0", "after a 4.05 ns ramp",
                       "10 MHz", "ends mid-super-period"]


@functools.cache
def _super_period_reference(kind, midband):
    """_literal_reference of one _super_period_case on the no-bend device,
    shared by the two tests that compare modulated traces with it."""
    return _literal_reference(qubit_device(bend_c_series=None), qubit_q1(),
                              _super_period_case(kind, midband))


def _modulation_slices(protocol):
    """(frequency, read offsets) of every modulation slice that _schedule
    names, in order from tune_time, each item's repeats spelled out."""
    t = _time_grid(protocol.t_max, protocol.dt_output)
    dt = 2 * math.pi / protocol.modulation.omega_mod / _SLICES
    return [(ws[i % len(ws)], offsets)
            for ws, d, reads, repeats in _schedule(protocol, t) if d == dt
            for _ in range(repeats) for i, offsets in enumerate(reads)]


@pytest.mark.parametrize("kind", _SUPER_PERIOD_CASES + ["613 MHz"])
def test_super_period_reads_as_its_slices(midband, kind):
    """Each sample after tune_time is read by the slice that contains t_k,
    at an offset within [0, dt] of its start, so tune_time + (slice index +
    offset / dt) dt = t_k to rounding, and each slice runs at the frequency
    of its phase in the period.  A period that spans no whole number of
    samples in at most 8 periods (613 MHz at 0.5 ns) is stepped slice by
    slice."""
    prot = _super_period_case(kind, midband)
    mod = prot.modulation
    t = _time_grid(prot.t_max, prot.dt_output)
    dt = 2 * math.pi / mod.omega_mod / _SLICES
    items = [it for it in _schedule(prot, t) if it[1] == dt]
    assert any(repeats > 1 for *_, repeats in items) == (kind != "613 MHz")
    if kind == "613 MHz":
        assert {len(reads) for _, _, reads, _ in items} == {1}
    slices = _modulation_slices(prot)
    g, d = np.array([(g, d) for g, (_, offsets) in enumerate(slices)
                     for d in offsets]).T
    assert np.all((d >= 0) & (d <= dt))
    np.testing.assert_allclose(prot.tune_time + g * dt + d,
                               t[t > prot.tune_time], rtol=1e-12, atol=0)
    phase = np.arange(len(slices)) % _SLICES + 0.5
    np.testing.assert_allclose(
        [w for w, _ in slices], prot.omega_interact
        + mod.epsilon * np.cos(2 * math.pi * phase / _SLICES),
        rtol=1e-15, atol=0)


def test_slice_end_samples_are_read_once(midband):
    """At 600 MHz and 0.5 ns every fifth sample lands on a slice end to
    rounding (5 samples span 96 slices); it is read once, at that end
    (offset dt, no side branch), and every other sample strictly inside its
    slice."""
    prot = _super_period_case("index 0.4", midband)
    t = _time_grid(prot.t_max, prot.dt_output)
    dt = 2 * math.pi / _WMOD / _SLICES
    x = t[1:] / dt
    on_end = np.abs(x - np.rint(x)) <= 1e-9 * x
    assert np.array_equal(np.flatnonzero(on_end) + 1, np.arange(5, t.size, 5))
    d = np.array([d for _, offsets in _modulation_slices(prot)
                  for d in offsets])
    assert d.size == t.size - 1
    assert np.all(d[on_end] == dt)
    assert np.all((d[~on_end] > 0) & (d[~on_end] < dt))


@pytest.mark.parametrize("kind", _SUPER_PERIOD_CASES)
def test_super_period_matches_literal_stepping(qubit_spec_nobend, q1, midband,
                                               kind):
    """Traces read by super-period blocks follow literal complex stepping
    (_literal_reference) within 1e-12: criterion 9's index-0.4 trace over
    600 ns (120 super-periods), its 250 ns index-0 trace, the index-0.4
    trace after a 4.05 ns ramp, a 10 MHz modulation (200 samples per
    super-period) and a trace ending mid-super-period.  Measured worst
    cases 1.5e-14, 9.2e-14, 7.3e-15, 1.6e-13 and 1.5e-14."""
    p = simulate_emission(qubit_spec_nobend, q1,
                          _super_period_case(kind, midband)).p_e
    np.testing.assert_allclose(p, _super_period_reference(kind, midband),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", _SUPER_PERIOD_CASES + ["613 MHz"])
def test_modulation_matches_split_slice_reference(qubit_spec_nobend, q1,
                                                  midband, kind):
    """Every modulated trace reads each sample at t_k: it follows literal
    stepping of the protocol's slices, each sample read from its slice's
    start (_literal_reference), within 1e-12, with and without a
    super-period (613 MHz).  Measured worst case 1.6e-13 (10 MHz over
    1 us), 8.0e-15 at 613 MHz."""
    p = simulate_emission(qubit_spec_nobend, q1,
                          _super_period_case(kind, midband)).p_e
    np.testing.assert_allclose(p, _super_period_reference(kind, midband),
                               rtol=0, atol=1e-12)


def test_slow_modulation_has_no_staircase(qubit_spec_nobend, q1, midband):
    """A 10 MHz modulation (epsilon / 2 pi = 100 MHz) read every 0.5 ns,
    three samples per 1.56 ns slice, reads each sample at its own time: no
    two of the first 100 agree."""
    p = simulate_emission(qubit_spec_nobend, q1,
                          _super_period_case("10 MHz", midband)).p_e
    assert np.unique(p[:100]).size == 100


@pytest.mark.parametrize("index, builds", [(0.0, 1), (0.2, 32), (0.4, 32),
                                           (0.6, 32), (0.8, 32)])
def test_modulation_builds_one_propagator_per_slice_pair(
        qubit_spec_nobend, q1, midband, monkeypatch, index, builds):
    """Slices j and _SLICES - 1 - j of a period run at one frequency, bit
    for bit (the cosine is even about the half period), so a modulated trace
    builds `builds` slice propagators, _SLICES / 2 and one at index 0.  It
    adds one side branch per read offset of its super-period that does not
    fall on a slice end: of the 10 samples in 3 periods, all but the 5th
    and 10th."""
    calls, expm = [], scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm",
                        lambda a: calls.append(a) or expm(a))
    simulate_modulated(qubit_spec_nobend, q1, Protocol(
        omega_interact=midband + _WMOD, t_max=2e-8, dt_output=5e-10,
        modulation=Modulation(omega_mod=_WMOD, epsilon=index * _WMOD)))
    x = _time_grid(5e-9, 5e-10)[1:] * _WMOD * _SLICES / (2 * math.pi)
    side = np.count_nonzero(np.abs(x - np.rint(x)) > 1e-9 * x)
    assert side == 8
    assert len(calls) == builds + side


@pytest.mark.parametrize("termination", ["matched", "open_mirror"])
@pytest.mark.parametrize("bend", [BEND_C_SERIES, None],
                         ids=["bend", "no bend"])
@pytest.mark.parametrize("q_intrinsic", [9e4, math.inf])
def test_retuned_generator_is_the_assembled_one(midband, q_intrinsic, bend,
                                                termination):
    """A generator formed at one qubit frequency and retuned to another, by
    rewriting the qubit's row, is the generator of the model assembled at
    that frequency, entry for entry: with finite and infinite intrinsic Q, with
    and without the bend, matched and open-mirror."""
    spec = qubit_device(bend_c_series=bend, termination_out=termination)
    qubit = qubit_q1(q_intrinsic=q_intrinsic)
    model = assemble_state_space(spec, qubit)
    a = model.a_matrix()
    for f_hz in (-1.5e9, -300e6, 0.0, 37e6, 600e6):
        w = midband + 2 * math.pi * f_hz
        want = assemble_state_space(
            spec, dataclasses.replace(qubit, omega_ge=w)).a_matrix()
        assert np.array_equal(_retuned_generator(model, a, qubit, w), want)


@pytest.mark.parametrize("kind, builds", [("quench", 1), ("mirror", 1),
                                          ("modulated", 40), ("ramp", 81)])
def test_trace_assembles_its_model_once(q1, midband, monkeypatch, kind,
                                        builds):
    """A trace assembles the circuit and forms its generator once, whatever
    its protocol; every other slice frequency retunes that generator.  It
    builds one expm per slice frequency and side branch: the modulation's
    32 slice pairs and 8 side branches, the ramp's 80 slices and its
    hold."""
    calls = {"assemble": 0, "a_matrix": 0, "expm": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(slowline.dynamics, "assemble_state_space",
                        counted("assemble", assemble_state_space))
    monkeypatch.setattr(StateSpaceModel, "a_matrix",
                        counted("a_matrix", StateSpaceModel.a_matrix))
    monkeypatch.setattr(scipy.linalg, "expm",
                        counted("expm", scipy.linalg.expm))
    spec, sim, prot = _lowered_case(kind, midband)
    sim(spec, q1, prot)
    assert calls == {"assemble": 1, "a_matrix": 1, "expm": builds}


@pytest.mark.parametrize("kind", ["oracle", "quantum"])
def test_blocked_spectral_reads_match_direct_sums(qubit_spec_nobend, q1,
                                                  midband, kind):
    """_blocked_reads, the reader both simulate_emission and
    simulate_emission_quantum use, stepping a row a by a propagator U
    against a state x, follows the direct sum |sum_i a_i exp(-i lam_i t)|^2
    within 1e-13 over whole blocks and a partial last one: the real
    spectrum of the 301-mode discretized band edge over 1.2 us (U the
    diagonal exp(-i lam dt), x ones) and the quantum model's decaying one
    over 300 ns (U = expm(-i H_eff dt), a and x its read-out row r, the
    direct sum from H_eff's eigenvectors).  Measured 1.0e-14 and 1.9e-15."""
    if kind == "oracle":
        lam, a = _dense_spectrum(0.3 * J, J, 0.0, 301)
        t = _time_grid(1.2e-6, 1e-9)
        row, x = a.astype(complex), np.ones(lam.size)
        u = np.diag(np.exp(-1j * lam * (t[1] - t[0])))
    else:
        h_eff, row = _quantum_h_eff(qubit_spec_nobend, q1, midband)
        lam, evecs = np.linalg.eig(h_eff)
        a = (row @ evecs) * np.linalg.solve(evecs, row)
        t = _time_grid(3e-7, 1e-10)
        x, row = row, row.astype(complex)
        u = scipy.linalg.expm(-1j * (t[1] - t[0]) * h_eff)
    assert t.size > _CHUNK and t.size % _CHUNK
    direct = np.abs((a * np.exp(-1j * np.multiply.outer(t, lam)))
                    .sum(axis=1)) ** 2
    with single_thread():
        y, _ = _blocked_reads(row[None, :], u, x, t.size, 1)
    np.testing.assert_allclose(np.abs(y) ** 2, direct, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind, value", [
    ("quench", None), ("mirror", None), ("ramp", 1.2e9), ("ramp", 1.8e9),
    ("index", 0.2), ("index", 0.8), ("quantum", "matched"),
    ("quantum", "open_mirror"), ("ramped index", 0.4), ("tune_time", 1e300),
    ("disordered mirror", 0.05)])
def test_population_stays_in_unit_interval(qubit_spec_nobend, q1, midband,
                                           kind, value):
    """0 <= p_e <= 1 also while the qubit frequency moves: ramps parked
    `value` Hz above the band centre, modulation of index `value` (also
    after a 4 ns ramp from +1.5 GHz, which must change the trace), a ramp of
    tune_time `value` far beyond t_max; for the quantum method with a
    `value` output termination; and on a sigma = `value` J disorder
    realization of the open-mirror chain, which must change the trace."""
    spec, sim = qubit_spec_nobend, simulate_emission
    park = midband + 2 * math.pi * 1.5e9
    prot = Protocol(omega_interact=midband, t_max=6e-8)
    if kind in ("mirror", "disordered mirror"):
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
        unchanged = sim(spec, q1, prot).p_e
        prot = dataclasses.replace(prot, tune_time=4e-9, omega_park=park)
    elif kind == "disordered mirror":
        unchanged = sim(spec, q1, prot).p_e
        spec = sample_disordered(
            spec, value * tight_binding(spec.interior)["j_tb"], (3, 0))
    p = sim(spec, q1, prot).p_e
    assert p.min() >= 0.0
    assert p.max() <= 1.0 + 1e-9
    if kind in ("ramped index", "disordered mirror"):
        assert np.max(np.abs(p - unchanged)) > 1e-3


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


# ----------------------------------------------------------- lowered chains

def _lowered_case(kind, midband):
    """(spec, entry point, protocol) of one time-domain case."""
    spec, sim = qubit_device(bend_c_series=None), simulate_emission
    prot = Protocol(omega_interact=midband, t_max=2e-8)
    if kind in ("mirror", "quantum open_mirror"):
        spec = qubit_device(bend_c_series=None, termination_out="open_mirror")
        sim = simulate_mirror
    if kind.startswith("quantum"):
        sim = simulate_emission_quantum
    elif kind == "modulated":
        sim = simulate_modulated
        prot = Protocol(omega_interact=midband + _WMOD, t_max=2e-8,
                        dt_output=5e-10,
                        modulation=Modulation(omega_mod=_WMOD,
                                              epsilon=0.4 * _WMOD))
    elif kind == "ramp":
        prot = Protocol(omega_interact=midband, t_max=1e-8, tune_time=4e-9,
                        omega_park=midband + 2 * math.pi * 1.5e9)
    return spec, sim, prot


@pytest.mark.parametrize("kind", ["quench", "mirror", "modulated", "ramp",
                                  "quantum matched", "quantum open_mirror"])
def test_lowered_chain_traces_bit_identical(q1, midband, kind):
    """Every entry point gives the same bits on an ArraySpec, its lowered
    Chain and its sigma = 0 disorder realization."""
    spec, sim, prot = _lowered_case(kind, midband)
    ref = sim(spec, q1, prot).p_e
    for chain in (spec.lower(), sample_disordered(spec, 0.0, (9, 0))):
        assert np.array_equal(sim(chain, q1, prot).p_e, ref)


@pytest.mark.parametrize("kind", ["modulated", "ramp"])
def test_trace_lowers_its_spec_once(q1, midband, monkeypatch, kind):
    spec, sim, prot = _lowered_case(kind, midband)
    calls, lower = [], ArraySpec.lower
    monkeypatch.setattr(ArraySpec, "lower",
                        lambda self: calls.append(self) or lower(self))
    sim(spec, q1, prot)
    assert len(calls) == 1


@pytest.mark.parametrize("sim", [simulate_emission, simulate_mirror,
                                 simulate_modulated,
                                 simulate_emission_quantum],
                         ids=lambda f: f.__name__)
def test_stacked_chain_raises(q1, midband, sim):
    chain = qubit_device(bend_c_series=None,
                         termination_out="open_mirror").lower()
    stacked = dataclasses.replace(chain, l=np.stack([chain.l, chain.l]))
    mod = Modulation(omega_mod=_WMOD, epsilon=0.4 * _WMOD)
    prot = Protocol(omega_interact=midband, t_max=1e-9,
                    modulation=mod if sim is simulate_modulated else None)
    with pytest.raises(ValidationError, match="one realization"):
        sim(stacked, q1, prot)
