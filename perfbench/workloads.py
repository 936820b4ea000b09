"""The three benchmark workloads: seeded inputs, a fixed job list, checks.

``setup(seed, tiny, work, threads)`` builds a workload's inputs from the seed
and returns its job list.  A job's ``run`` is the timed work; its ``check``
maps the output to named pass/fail results and is never timed.  Checks use
the paper's windows (criteria 2-10) and physical invariants; a job whose check
fails or that raises counts as failed, whether or not the failure is known.

Library functions are always reached through their module attribute at call
time (``taper.optimize(...)``), so the traced run can wrap them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from typing import Callable

import numpy as np
from scipy.special import j1

import slowline.cli
from slowline import (abcd, bands, devices, disorder, dressed, dynamics,
                      fitting, taper)
from slowline.params import EmitterParams, ValidationError

TWO_PI = 2.0 * math.pi

# Allowance for rounding in the check 0 <= p_e <= 1.
P_E_TOL = 1e-9

# Failing checks recorded when the benchmark was defined, as
# (workload, job, check).  They still count in ``failed``; a failing check
# outside this set makes the run incorrect.
KNOWN_DEFECTS = {
    ("ensemble", "s21_1000", "s21_finite"),            # ABCD overflow
    ("emission", "quantum_sweep", "p_e_in_0_1"),       # p_e(0) = 1 + 1.6e-5
    ("design_loop", "criterion_2", "ripple_lt_0.5dB"),  # 1.78 dB
    ("design_loop", "fit_wide", "residual_lt_1e-6dB"),  # local minimum
    ("design_loop", "fit_wide", "params_recovered"),
    ("design_loop", "modulated", "p_e_in_0_1"),        # energy from model0
    ("design_loop", "ramp", "p_e_in_0_1"),             # energy from model0
}


@dataclasses.dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]         # output -> {check: passed}


def _p_e_ok(*traces) -> bool:
    return all(np.all(np.isfinite(t.p_e)) and t.p_e.min() >= 0.0
               and t.p_e.max() <= 1.0 + P_E_TOL for t in traces)


def _within(x, lo, hi) -> bool:
    return bool(lo <= x <= hi)


def _cli_job(name, argv_head, config, work, threads, check) -> Job:
    """A job that runs the CLI in-process on a config written at set-up."""
    cfg = os.path.join(work, name + ".json")
    out = os.path.join(work, name)
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    argv = [*argv_head, "--config", cfg, "--out", out,
            "--threads", str(threads)]

    def checked(code):
        if code != 0:
            return {"exit_0": False}
        return {"exit_0": True, **check(out)}
    return Job(name, lambda: slowline.cli.main(argv), checked)


# ------------------------------------------------------------------ ensemble

SIGMA_OVER_J = [0.0, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14]      # criterion 10
CALIBRATION_SIGMA_OVER_J = [0.05, 0.08, 0.11, 0.14, 0.17]
SIGMA_TRUE_OVER_J = 0.10

# The sigma round trip is statistical: its error has a standard deviation of
# about 0.15 * sqrt(1/n_measured + 1/n_per_sigma) in sigma/J against a 0.02
# tolerance, so with seed-dependent draws it would pass on some seeds and
# fail on others at any affordable size.  The calibration and the "measured"
# draws therefore use criterion 10's fixed streams; the benchmark seed varies
# the extinction ensemble.
CALIBRATION_SEED = 7
MEASURED_STREAM = 123


def ensemble_setup(seed: int, tiny: bool, work: str, threads: int) -> list:
    n_cells, n_meas, n_ext, n_cal, n_chain = (
        (12, 6, 2, 4, 60) if tiny else (50, 200, 30, 100, 1000))
    spec = taper.optimize(taper.TaperProblem(
        base=devices.untapered_device(n_cells), n_modified=2)).spec
    j = bands.tight_binding(spec.interior)["j_tb"]
    band = bands.band_edges(spec.interior)
    grid = np.linspace(band[0], band[1], 2001)
    draws = []
    for i in range(n_meas):
        d = disorder.sample_disordered(spec, SIGMA_TRUE_OVER_J * j,
                                       (MEASURED_STREAM, i))
        try:
            draws.append(disorder.fsr_variance(abcd.cascade_abcd(d, grid),
                                               band=band).delta_fsr)
        except ValidationError:
            continue   # too few resolvable ripples, as in criterion 10
    measured = float(np.mean(draws)) if draws else 0.0
    sigma_true_hz = SIGMA_TRUE_OVER_J * j / TWO_PI

    def check_extinction(out):
        data = np.loadtxt(os.path.join(out, "extinction.csv"), delimiter=",",
                          skiprows=1, ndmin=2)
        soj, ext = data[:, 0], data[:, 1]
        crossing = float(np.interp(-0.5, ext[::-1], soj[::-1]))
        return {"finite": bool(np.all(np.isfinite(data))),
                "crossing_in_0.07_0.13": _within(crossing, 0.07, 0.13)}

    def check_calibration(out):
        path = os.path.join(out, "calibration.json")
        with open(path, encoding="utf-8") as fh:
            est = json.load(fh)["sigma_estimate_hz"]
        return {"sigma_round_trip_lt_20pct":
                abs(est - sigma_true_hz) / sigma_true_hz < 0.20}

    def check_s21(out):
        resp = abcd.TwoPortResponse.from_csv(os.path.join(out, "s21.csv"))
        return {"s21_finite": bool(np.all(np.isfinite(resp.s21))
                                   and np.all(np.isfinite(resp.s11)))}

    spec_d = spec.to_dict()
    return [
        _cli_job("extinction", ["disorder", "extinction", "--seed", str(seed)],
                 {"spec": spec_d, "sigma_over_j": SIGMA_OVER_J,
                  "n_realizations": n_ext}, work, threads, check_extinction),
        _cli_job("calibrate",
                 ["disorder", "calibrate", "--seed", str(CALIBRATION_SEED)],
                 {"spec": spec_d, "measured_delta_fsr_hz": measured / TWO_PI,
                  "sigma_grid_hz": [s * j / TWO_PI
                                    for s in CALIBRATION_SIGMA_OVER_J],
                  "n_realizations": n_cal}, work, threads, check_calibration),
        _cli_job("s21_1000", ["s21"],
                 {"spec": devices.untapered_device(n_chain).to_dict(),
                  "n_points": 2001}, work, threads, check_s21),
    ]


# ------------------------------------------------------------------ emission

def _read_sweep(out) -> tuple:
    freqs, traces = [], []
    with open(os.path.join(out, "index.csv"), encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            f_hz, name = line.strip().split(",")
            freqs.append(float(f_hz))
            traces.append(
                dynamics.DynamicsTrace.from_csv(os.path.join(out, name)))
    return np.array(freqs), traces


def emission_setup(seed: int, tiny: bool, work: str, threads: int) -> list:
    n_sweep, t_sweep, t_far, t_mirror = (
        (3, 20e-9, 100e-9, 50e-9) if tiny else (21, 200e-9, 10e-6, 550e-9))
    qubit = devices.qubit_q1()
    bend = devices.qubit_device()
    nobend = devices.qubit_device(bend_c_series=None)
    mirror = devices.qubit_device(bend_c_series=None,
                                  termination_out="open_mirror")
    lo, hi = bands.band_edges(bend.interior)
    mid = 0.5 * (lo + hi)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    # Sweep from 100 MHz below the lower edge to 100 MHz above the upper
    # one; every point but the mid-band one moves by up to 3 MHz.
    half = 0.5 * (hi - lo) + TWO_PI * 100e6
    offsets = np.linspace(-half, half, n_sweep)
    offsets += TWO_PI * 3e6 * rng.uniform(-1.0, 1.0, n_sweep)
    offsets[n_sweep // 2] = 0.0
    sweep_hz = list((mid + offsets) / TWO_PI)
    far = lo - TWO_PI * (300e6 + 20e6 * rng.uniform(-1.0, 1.0))

    def protocol(omega, t_max, dt):
        return {"omega_interact_hz": omega / TWO_PI, "t_max_s": t_max,
                "dt_output_s": dt}

    def config(spec, method, prot, sweep=None):
        cfg = {"spec": spec.to_dict(), "qubit": qubit.to_dict(),
               "protocol": prot, "method": method}
        if sweep is not None:
            cfg["sweep_omega_interact_hz"] = sweep
        return cfg

    def tau_mid():
        _, traces = _read_sweep(os.path.join(work, "emission_sweep"))
        return dynamics.lifetime_1e(traces[n_sweep // 2])

    def check_emission(out):
        _, traces = _read_sweep(out)
        mid_trace = traces[n_sweep // 2]
        onset = dynamics.revival_onsets(mid_trace, n_revivals=1,
                                        settle_level=0.02, prominence=5e-3)[0]
        return {"count": len(traces) == n_sweep,
                "p_e_in_0_1": _p_e_ok(*traces),
                "lifetime_mid_in_window": _within(
                    dynamics.lifetime_1e(mid_trace), 6.375e-9, 8.625e-9),
                "echo_onset_in_window": _within(onset, 103.5e-9, 126.5e-9)}

    references = {}

    def classical(f_hz):
        # criterion 7's comparison: 15 ns of the classical no-bend trace
        if f_hz not in references:
            references[f_hz] = dynamics.simulate_emission(
                nobend, qubit, dynamics.Protocol(
                    omega_interact=TWO_PI * f_hz, t_max=15e-9,
                    dt_output=2e-10)).p_e
        return references[f_hz]

    def check_quantum(out):
        freqs, traces = _read_sweep(out)
        worst = 0.0
        for f_hz, tr in zip(freqs, traces):
            if abs(TWO_PI * f_hz - mid) <= TWO_PI * 40e6:
                ref = classical(f_hz)
                worst = max(worst,
                            float(np.max(np.abs(tr.p_e[:ref.size] - ref))))
        return {"count": len(traces) == n_sweep,
                "p_e_in_0_1": _p_e_ok(*traces),
                "quantum_vs_classical_le_0.02": worst <= 0.02}

    def check_far(out):
        tr = dynamics.DynamicsTrace.from_csv(os.path.join(out, "trace.csv"))
        return {"p_e_in_0_1": _p_e_ok(tr),
                "far_over_mid_ge_200":
                dynamics.lifetime_1e(tr) / tau_mid() >= 200.0}

    def check_mirror(out):
        tr = dynamics.DynamicsTrace.from_csv(os.path.join(out, "trace.csv"))
        first, second = dynamics.revival_onsets(
            tr, n_revivals=2, settle_level=0.02, prominence=5e-3)[:2]
        return {"p_e_in_0_1": _p_e_ok(tr),
                "revival_1_in_window": _within(first, 204.3e-9, 249.7e-9),
                "revival_ratio_in_1.7_2.3": _within(second / first, 1.7, 2.3)}

    sweep_prot = protocol(mid, t_sweep, 2e-10)
    return [
        _cli_job("emission_sweep", ["dynamics", "--sweep"],
                 config(bend, "emission", sweep_prot, sweep_hz),
                 work, threads, check_emission),
        _cli_job("quantum_sweep", ["dynamics", "--sweep"],
                 config(nobend, "quantum", sweep_prot, sweep_hz),
                 work, threads, check_quantum),
        _cli_job("far_detuned", ["dynamics"],
                 config(bend, "emission", protocol(far, t_far, 2e-9)),
                 work, threads, check_far),
        _cli_job("mirror", ["dynamics"],
                 config(mirror, "mirror", protocol(mid, t_mirror, 2.5e-10)),
                 work, threads, check_mirror),
    ]


# --------------------------------------------------------------- design loop

MODULATION_INDICES = (0.0, 0.2, 0.4, 0.6, 0.8)                # criterion 9

# The fit recovers every start within 1% of the truth (200 of 200 seeds), but
# with cg 1.2-3% low it stops in a local minimum about 1-2 dB rms off and
# still reports convergence.  The seeded fit starts within 1%, so its outcome
# does not depend on the seed; fit_wide keeps one such start as a fixed case.
FIT_SPREAD = 0.01
FIT_WIDE_FACTORS = (0.971, 1.018, 1.004)


def _perturbed(spec, f_cg, f_c1g, f_c2g):
    """Test device with the fit's three free couplers scaled."""
    cell = dataclasses.replace(spec.interior, cg=spec.interior.cg * f_cg)
    b1, b2 = spec.boundary_in
    c2g = b1.c_right * f_c2g
    b1 = dataclasses.replace(b1, c_left=b1.c_left * f_c1g, c_right=c2g)
    b2 = dataclasses.replace(b2, c_left=c2g, c_right=cell.cg)
    return dataclasses.replace(spec, interior=cell, boundary_in=(b1, b2),
                               boundary_out=(b1, b2))


def _fit_checks(report, truth) -> dict:
    got = report.spec
    pairs = [(got.interior.cg, truth.interior.cg),
             (got.boundary_in[0].c_left, truth.boundary_in[0].c_left),
             (got.boundary_in[0].c_right, truth.boundary_in[0].c_right)]
    return {"converged": report.converged,
            "residual_lt_1e-6dB": report.residual_db_rms < 1e-6,
            "params_recovered": all(abs(g / w - 1.0) < 1e-6 for g, w in pairs)}


def design_loop_setup(seed: int, tiny: bool, work: str, threads: int) -> list:
    n_taper, max_iter, t_mod, t_ramp, m_cells, n_modes, t_oracle = (
        (10, 10, 20e-9, 10e-9, 21, 41, 50e-9) if tiny
        else (26, 400, 250e-9, 100e-9, 201, 1201, 1.2e-6))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    untapered = devices.untapered_device(n_taper)
    test = devices.test_device()
    fit_grid = abcd.default_grid(test.interior, 801)
    truths = {"fit": _perturbed(test, *rng.uniform(1.0 - FIT_SPREAD,
                                                   1.0 + FIT_SPREAD, 3)),
              "fit_wide": _perturbed(test, *FIT_WIDE_FACTORS)}
    measured = {k: abcd.cascade_abcd(t, fit_grid) for k, t in truths.items()}
    t_lo, t_hi = bands.band_edges(test.interior)
    delay_grid = np.linspace(t_lo, t_hi, 4001)

    qubit = devices.qubit_q1()
    bend = devices.qubit_device()
    nobend = devices.qubit_device(bend_c_series=None)
    lo, hi = bands.band_edges(nobend.interior)
    mid = 0.5 * (lo + hi)
    wmod = TWO_PI * 600e6
    ramp = dynamics.Protocol(
        omega_interact=mid, t_max=t_ramp, tune_time=4e-9,
        omega_park=mid + TWO_PI * rng.uniform(1.2e9, 1.8e9))

    cell = test.interior
    j = bands.tight_binding(cell)["j_tb"]
    emitter = EmitterParams(omega_ge=cell.omega0, g_uc=0.3 * j)

    def run_taper(n):
        return lambda: taper.optimize(taper.TaperProblem(
            base=untapered, n_modified=n, max_iterations=max_iter))

    base_ripple = {}

    def check_taper(report):
        if "r" not in base_ripple:
            base_ripple["r"] = taper.ripple(untapered, 0.5)
        return {"ripple_before_gt_10dB": base_ripple["r"] > 10.0,
                "ripple_after_lt_0.5dB": taper.ripple(report.spec, 0.5) < 0.5}

    def run_criterion_2():
        resp = abcd.cascade_abcd(test, delay_grid)
        delay = resp.group_delay()[np.argmin(np.abs(delay_grid
                                                    - 0.5 * (t_lo + t_hi)))]
        return taper.ripple(test, 0.5), delay

    def check_criterion_2(out):
        rip, delay = out
        return {"ripple_lt_0.5dB": rip < 0.5,
                "delay_in_49.5_60.5ns": _within(delay, 49.5e-9, 60.5e-9)}

    def run_fit(name):
        return lambda: fitting.fit_to_spectrum(measured[name], test,
                                               ("cg", "c1g", "c2g"))

    def check_fit(name):
        return lambda report: _fit_checks(report, truths[name])

    def run_modulated():
        return [dynamics.simulate_modulated(nobend, qubit, dynamics.Protocol(
            omega_interact=mid + wmod, t_max=t_mod, dt_output=5e-10,
            modulation=dynamics.Modulation(omega_mod=wmod, epsilon=k * wmod)))
            for k in MODULATION_INDICES]

    def check_modulated(traces):
        rates = [dynamics.effective_rate(tr, (20e-9, 200e-9)) for tr in traces]
        idx = np.array(MODULATION_INDICES[1:])
        net = np.array(rates[1:]) - rates[0]
        weights = j1(idx) ** 2
        scale = np.mean(net / weights)
        vg = abs(bands.group_velocity(nobend.interior, math.pi / 2.0))
        tau_d = 2.0 * nobend.n_resonators / vg
        return {"p_e_in_0_1": _p_e_ok(*traces),
                "bessel_dev_lt_0.15":
                float(np.max(np.abs(net / (scale * weights) - 1.0))) < 0.15,
                "gamma_tau_in_0.75_1.25": _within(net[1] * tau_d, 0.75, 1.25)}

    def run_dressed():
        return (dressed.solve_dressed_states(emitter, cell, j=j),
                dressed.diagonalize_single_excitation(cell, emitter,
                                                      m_cells=m_cells))

    def check_dressed(out):
        sol, res = out
        w0 = cell.omega0
        beta = (emitter.g_uc ** 4 / (4.0 * j)) ** (1.0 / 3.0)
        z = w0 - sol.e_radiative
        closed = max(abs((sol.e_bound - w0) - beta) / beta,
                     abs(abs(z) - beta) / beta,
                     abs(math.atan2(z.imag, z.real) / (math.pi / 3) - 1.0))
        _, edge = bands.band_edges(cell)
        k = res["bound_index"]
        e_dev = abs(res["eigenvalues"][k] - sol.e_bound) / (sol.e_bound - edge)
        vec = np.abs(res["eigenvectors"][:m_cells, k])
        c = (m_cells - 1) // 2
        pred = np.exp(-np.arange(1, 6) / sol.localization_length)
        profile = np.max(np.abs(vec[c + 1:c + 6] / vec[c] - pred) / pred)
        return {"closed_forms": closed < 1e-6,
                "weight_2_3": abs(sol.qubit_weight - 2.0 / 3.0) < 1e-3,
                "bound_energy_dev_lt_2pct": e_dev < 0.02,
                "profile_err_lt_5pct": profile < 0.05}

    def check_oracle(tr):
        late = tr.p_e[tr.t > 300e-9]
        return {"p_e_in_0_1": _p_e_ok(tr),
                "late_mean_4_9": late.size > 0
                and abs(late.mean() / (4.0 / 9.0) - 1.0) < 0.10}

    return [
        Job("taper_2", run_taper(2), check_taper),
        Job("taper_3", run_taper(3), check_taper),
        Job("criterion_2", run_criterion_2, check_criterion_2),
        Job("fit", run_fit("fit"), check_fit("fit")),
        Job("fit_wide", run_fit("fit_wide"), check_fit("fit_wide")),
        Job("modulated", run_modulated, check_modulated),
        Job("ramp", lambda: dynamics.simulate_emission(bend, qubit, ramp),
            lambda tr: {"p_e_in_0_1": _p_e_ok(tr)}),
        Job("dressed", run_dressed, check_dressed),
        Job("oracle", lambda: dynamics.bandedge_oracle(
            0.3 * j, j, cell.omega0, 0.0, t_max=t_oracle, dt_output=1e-9,
            n_modes=n_modes), check_oracle),
    ]


# Spans each workload's traced run must record at least once.
WORKLOADS = {
    "ensemble": (ensemble_setup, (
        "cli.main", "abcd.cascade_abcd", "disorder.extinction_curve",
        "disorder.calibrate_sigma", "disorder.fsr_variance", "taper.optimize",
        "taper.spec_with_couplers")),
    "emission": (emission_setup, (
        "cli.main", "dynamics.simulate_emission", "dynamics.simulate_mirror",
        "dynamics.simulate_emission_quantum", "dynamics.expm",
        "statespace.assemble_state_space", "statespace.a_matrix")),
    "design_loop": (design_loop_setup, (
        "taper.optimize", "taper.spec_with_couplers", "abcd.cascade_abcd",
        "fitting.fit_to_spectrum", "dynamics.simulate_modulated",
        "dynamics.simulate_emission", "dynamics.bandedge_oracle",
        "dynamics.expm", "statespace.assemble_state_space",
        "statespace.a_matrix", "dressed.solve_dressed_states",
        "dressed.diagonalize_single_excitation")),
}
