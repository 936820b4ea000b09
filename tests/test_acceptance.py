"""End-to-end acceptance criteria.

Each test checks one numbered criterion against the quantitative target and
prints a single CRITERION n: PASS/FAIL line (bypassing capture so the line
always appears in the run log) before asserting.
"""

import hashlib
import math
import time

import numpy as np
import pytest
from scipy.special import j1

from slowline.abcd import cascade_abcd
from slowline.bands import band_edges, dispersion, group_velocity, tight_binding
from slowline.devices import qubit_device, untapered_device
from slowline.disorder import (calibrate_sigma, extinction_curve, fsr_variance,
                               sample_disordered)
from slowline.dressed import (bound_profile, diagonalize_single_excitation,
                              solve_dressed_states)
from slowline.dynamics import (DynamicsTrace, Modulation, Protocol,
                               effective_rate, ideal_mirror_oracle,
                               lifetime_1e, revival_onsets, simulate_emission,
                               simulate_emission_quantum, simulate_mirror,
                               simulate_modulated)
from slowline.params import EmitterParams, UnitCellParams
from slowline.statespace import assemble_state_space
from slowline.taper import TaperProblem, optimize, ripple

TWO_PI = 2.0 * math.pi
CELL = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9)
J = tight_binding(CELL)["j_tb"]
W0 = CELL.omega0


_CAPFD = None


@pytest.fixture(autouse=True)
def _expose_capfd(capfd):
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num}: {status} - {detail}"
    with _CAPFD.disabled():
        print(line, flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_finite_array_modes_match_dispersion():
    """51-cell lossless array eigenmodes sit on the Bloch dispersion at
    kd = m pi / 52, m = 1..51, relative error < 1e-3."""
    spec = untapered_device(51)
    model = assemble_state_space(spec)
    freqs = np.sort(model.lossless_eigenfrequencies())
    kd = np.arange(1, 52) * math.pi / 52.0
    expected = np.sort(dispersion(spec.interior, kd))
    err = np.max(np.abs(freqs - expected) / expected)
    _report(1, err < 1e-3, f"max relative mode error {err:.2e} (tol 1e-3)")


def test_criterion_02_device_ripple_and_delay(test_spec):
    """Characterized device: passband ripple < 0.5 dB over the central 50%
    of the band and mid-band group delay = 55 ns +/- 10%."""
    rip = ripple(test_spec, band_window=0.5)
    lo, hi = band_edges(test_spec.interior)
    grid = np.linspace(lo, hi, 4001)
    resp = cascade_abcd(test_spec, grid)
    mid = 0.5 * (lo + hi)
    delay = resp.group_delay()[np.argmin(np.abs(grid - mid))]
    delay_ok = 49.5e-9 <= delay <= 60.5e-9
    ok = rip < 0.5 and delay_ok
    _report(2, ok, f"ripple {rip:.3f} dB (tol 0.5), mid-band delay "
                   f"{delay * 1e9:.1f} ns (window [49.5, 60.5])")


def test_criterion_03_taper_optimization(untapered_26):
    """Unmatched 26-cell array shows > 10 dB ripple; optimizing two boundary
    cells brings it below 0.5 dB in under 5 minutes."""
    before = ripple(untapered_26, 0.5)
    t0 = time.perf_counter()
    report = optimize(TaperProblem(base=untapered_26, n_modified=2))
    elapsed = time.perf_counter() - t0
    after = ripple(report.spec, 0.5)
    ok = before > 10.0 and after < 0.5 and elapsed < 300.0
    _report(3, ok, f"ripple {before:.1f} -> {after:.3f} dB "
                   f"(need >10 -> <0.5) in {elapsed:.1f} s (limit 300)")


def test_criterion_04_dressed_state_closed_forms():
    """Resonant emitter (omega_ge = omega0, g = 0.3 J): bound/radiative
    energies match the cube-root closed forms to 1e-6 and the qubit weight
    approaches 2/3 within 1e-3."""
    em = EmitterParams(omega_ge=W0, g_uc=0.3 * J)
    sol = solve_dressed_states(em, CELL, j=J)
    beta = (em.g_uc**4 / (4.0 * J)) ** (1.0 / 3.0)
    e_b_err = abs((sol.e_bound - W0) - beta) / beta
    e_r_err = abs(abs(sol.e_radiative - W0) - beta) / beta
    arg_err = abs(math.atan2((W0 - sol.e_radiative).imag,
                             (W0 - sol.e_radiative).real) - math.pi / 3) / (math.pi / 3)
    w_err = abs(sol.qubit_weight - 2.0 / 3.0)
    ok = e_b_err < 1e-6 and e_r_err < 1e-6 and arg_err < 1e-6 and w_err < 1e-3
    _report(4, ok, f"E_b err {e_b_err:.1e}, |E_r| err {e_r_err:.1e}, "
                   f"arg err {arg_err:.1e} (tol 1e-6), weight err {w_err:.1e} "
                   f"(tol 1e-3)")


def test_criterion_05_finite_diagonalization_matches_closed_forms():
    """201-cell single-excitation diagonalization: bound-state energy within
    2% of the closed form (relative to the edge distance) and the exponential
    envelope within 5%."""
    em = EmitterParams(omega_ge=W0, g_uc=0.3 * J)
    sol = solve_dressed_states(em, CELL, j=J)
    res = diagonalize_single_excitation(CELL, em, m_cells=201)
    _, hi = band_edges(CELL)
    e_b = res["eigenvalues"][res["bound_index"]]
    e_dev = abs(e_b - sol.e_bound) / (sol.e_bound - hi)

    vec = np.abs(res["eigenvectors"][:201, res["bound_index"]])
    center = 100
    lam = sol.localization_length
    ratio = vec[center + 1:center + 6] / vec[center]
    pred = np.exp(-np.arange(1, 6) / lam)
    p_err = np.max(np.abs(ratio - pred) / pred)
    ok = e_dev < 0.02 and p_err < 0.05
    _report(5, ok, f"E_b deviation {e_dev:.3%} (tol 2%), "
                   f"profile error {p_err:.3%} (tol 5%)")


def test_criterion_06_lifetimes_and_bend_echo(qubit_spec, q1, midband):
    """Full device: mid-band 1/e lifetime = 7.5 ns +/- 15%, out-of-band
    lifetime at least 200x longer, bend echo onset = 115 ns +/- 10%."""
    tr_mid = simulate_emission(qubit_spec, q1,
                               Protocol(omega_interact=midband, t_max=40e-9))
    tau_mid = lifetime_1e(tr_mid)

    lo, _ = band_edges(qubit_spec.interior)
    tr_far = simulate_emission(
        qubit_spec, q1,
        Protocol(omega_interact=lo - TWO_PI * 300e6, t_max=10e-6,
                 dt_output=2e-9))
    tau_far = lifetime_1e(tr_far)
    ratio = tau_far / tau_mid

    tr_echo = simulate_emission(
        qubit_spec, q1,
        Protocol(omega_interact=midband, t_max=200e-9, dt_output=2e-10))
    onset = revival_onsets(tr_echo, n_revivals=1, settle_level=0.02,
                           prominence=5e-3)[0]

    mid_ok = 7.5e-9 * 0.85 <= tau_mid <= 7.5e-9 * 1.15
    echo_ok = 115e-9 * 0.9 <= onset <= 115e-9 * 1.1
    ok = mid_ok and ratio >= 200.0 and echo_ok
    _report(6, ok, f"mid-band 1/e {tau_mid * 1e9:.2f} ns "
                   f"(window [6.38, 8.63]), detuned/mid ratio {ratio:.0f} "
                   f"(need >= 200), echo onset {onset * 1e9:.1f} ns "
                   f"(window [103.5, 126.5])")


def test_criterion_07_quantum_classical_agreement(qubit_spec_nobend, q1,
                                                  midband):
    """Reduced single-excitation (quantum) model reproduces the classical
    envelope within 2% at mid-band and +/- 40 MHz."""
    worst = 0.0
    for dw in (0.0, -TWO_PI * 40e6, TWO_PI * 40e6):
        prot = Protocol(omega_interact=midband + dw, t_max=15e-9,
                        dt_output=2.5e-10)
        pc = simulate_emission(qubit_spec_nobend, q1, prot).p_e
        pq = simulate_emission_quantum(qubit_spec_nobend, q1, prot).p_e
        worst = max(worst, float(np.max(np.abs(pc - pq))))
    _report(7, worst < 0.02, f"max |p_classical - p_quantum| {worst:.2e} "
                             f"over 3 frequencies (tol 0.02)")


def test_criterion_08_mirror_revivals(q1, midband):
    """Open-mirror termination: first revival at 227 ns +/- 10%, second at
    twice that +/- 15%; the delay-equation oracle is a pure exponential
    before the round trip to machine precision."""
    tr = ideal_mirror_oracle(1e8, 100e-9, phase=0.0, t_max=300e-9)
    pre = tr.t < 100e-9
    oracle_err = float(np.max(np.abs(tr.p_e[pre] - np.exp(-1e8 * tr.t[pre]))))

    spec = qubit_device(bend_c_series=None, termination_out="open_mirror")
    trm = simulate_mirror(spec, q1,
                          Protocol(omega_interact=midband, t_max=550e-9,
                                   dt_output=2.5e-10))
    on = revival_onsets(trm, n_revivals=2, settle_level=0.02, prominence=5e-3)
    first, second = on[0], on[1]
    first_ok = 227e-9 * 0.9 <= first <= 227e-9 * 1.1
    ratio = second / first
    ok = oracle_err < 1e-12 and first_ok and 1.7 <= ratio <= 2.3
    _report(8, ok, f"oracle pre-round-trip error {oracle_err:.1e} "
                   f"(tol 1e-12), revivals {first * 1e9:.1f} / "
                   f"{second * 1e9:.1f} ns (first window [204.3, 249.7], "
                   f"ratio {ratio:.2f} in [1.7, 2.3])")


def test_criterion_09_modulated_sideband_rates(qubit_spec_nobend, q1, midband):
    """Parametric modulation: baseline-subtracted decay rates follow the
    first-sideband Bessel weight J1(index)^2 within 15% across indices
    0.2-0.8, and index 0.4 gives Gamma_eff * tau_d = 1 +/- 25%."""
    wmod = TWO_PI * 600e6
    park = midband + wmod
    window = (20e-9, 200e-9)

    def rate_at(idx):
        prot = Protocol(omega_interact=park, t_max=250e-9, dt_output=5e-10,
                        modulation=Modulation(omega_mod=wmod,
                                              epsilon=idx * wmod))
        tr = simulate_modulated(qubit_spec_nobend, q1, prot)
        return effective_rate(tr, window)

    base = rate_at(0.0)
    indices = np.array([0.2, 0.4, 0.6, 0.8])
    net = np.array([rate_at(i) for i in indices]) - base
    weights = j1(indices) ** 2
    scale = np.mean(net / weights)
    bessel_err = float(np.max(np.abs(net / (scale * weights) - 1.0)))

    vg_mid = abs(group_velocity(qubit_spec_nobend.interior, math.pi / 2.0))
    tau_d = 2.0 * 52.0 / vg_mid
    product = net[1] * tau_d
    ok = bessel_err < 0.15 and 0.75 <= product <= 1.25
    _report(9, ok, f"Bessel-ratio deviation {bessel_err:.3f} (tol 0.15), "
                   f"Gamma_eff*tau_d at index 0.4 = {product:.2f} "
                   f"(window [0.75, 1.25])")


def test_criterion_10_disorder_extinction_and_calibration(tapered_50):
    """50-cell tapered array, 500 realizations: mean extinction crosses
    -0.5 dB at sigma/J in [0.07, 0.13]; sigma recovered from the mean
    free-spectral-range spread within 20%.  Budget: 10 minutes."""
    t0 = time.perf_counter()
    j = tight_binding(tapered_50.interior)["j_tb"]
    soj = np.array([0.0, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14])
    curve = extinction_curve(tapered_50, soj, 500, seed=11)
    crossing = float(np.interp(-0.5, curve.mean_extinction_db[::-1],
                               soj[::-1]))

    sigma_true = 0.10 * j
    band = band_edges(tapered_50.interior)
    grid = np.linspace(band[0], band[1], 2001)
    draws = []
    for i in range(200):
        d = sample_disordered(tapered_50, sigma_true, (123, i))
        try:
            draws.append(fsr_variance(cascade_abcd(d, grid),
                                      band=band).delta_fsr)
        except Exception:
            continue
    measured = float(np.mean(draws))
    cal = calibrate_sigma(measured, tapered_50,
                          np.array([0.05, 0.08, 0.11, 0.14, 0.17]) * j,
                          n_realizations=300, seed=7)
    rt_err = abs(cal.sigma_estimate - sigma_true) / sigma_true
    elapsed = time.perf_counter() - t0
    ok = 0.07 <= crossing <= 0.13 and rt_err < 0.20 and elapsed < 600.0
    _report(10, ok, f"-0.5 dB crossing at sigma/J = {crossing:.4f} "
                    f"(window [0.07, 0.13]), sigma round-trip error "
                    f"{rt_err:.1%} (tol 20%), {elapsed:.0f} s (limit 600)")


def test_criterion_11_cli_reproducibility(tmp_path, tapered_26):
    """Seeded CLI runs are byte-for-byte reproducible."""
    import json

    from slowline.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": tapered_26.to_dict(),
                               "sigma_over_j": [0.0, 0.08],
                               "n_realizations": 20}))
    band_cfg = tmp_path / "band.json"
    band_cfg.write_text(json.dumps(
        {"cell": {"c0_f": CELL.c0, "cg_f": CELL.cg, "l0_h": CELL.l0}}))

    def digests(tag):
        out = tmp_path / tag
        assert main(["disorder", "extinction", "--config", str(cfg),
                     "--out", str(out), "--seed", "42"]) == 0
        assert main(["band", "--config", str(band_cfg),
                     "--out", str(out / "band")]) == 0
        files = sorted(p for p in out.rglob("*")
                       if p.is_file() and p.name != "manifest.json")
        return [hashlib.sha256(p.read_bytes()).hexdigest() for p in files]

    a, b = digests("run1"), digests("run2")
    ok = a == b and len(a) >= 2
    _report(11, ok, f"{len(a)} output files byte-identical across "
                    f"re-runs with --seed 42")
