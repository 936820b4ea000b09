import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import slowline
import slowline.devices
from slowline.cli import main

TWO_PI = 2.0 * math.pi

CELL = {"c0_f": 353.2e-15, "cg_f": 5.05e-15, "l0_h": 3.151e-9}


def _write(tmp_path, name, payload):
    """Write ``payload`` as JSON, or a str verbatim (text that may not be
    JSON)."""
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return str(path)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def spec_dict(test_spec):
    return test_spec.to_dict()


def test_band_command(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"cell": CELL, "n_points": 101})
    out = tmp_path / "out"
    assert main(["band", "--config", cfg, "--out", str(out)]) == 0
    data = np.loadtxt(out / "dispersion.csv", delimiter=",", skiprows=1)
    assert data.shape == (101, 2)
    f_ghz = data[:, 1] / TWO_PI / 1e9
    assert 4.5 < f_ghz.min() < f_ghz.max() < 4.9


def test_s21_command(tmp_path, spec_dict):
    cfg = _write(tmp_path, "cfg.json", {"spec": spec_dict, "n_points": 64})
    out = tmp_path / "out"
    assert main(["s21", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "s21.csv").read_text().splitlines()[0]
    assert header == "omega_rad_s,s21_re,s21_im,s11_re,s11_im"


def test_taper_opt_command(tmp_path, untapered_26):
    cfg = _write(tmp_path, "cfg.json",
                 {"base": untapered_26.to_dict(), "n_modified": 2})
    out = tmp_path / "out"
    assert main(["taper-opt", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "taper_report.json").read_text()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert report["ripple_db"] < 0.5
    conv = (out / "convergence.csv").read_text().splitlines()
    assert conv[0] == "iter,ripple_db"
    assert len(conv) > 2


@pytest.mark.parametrize("command, key", [("s21", "spec"),
                                          ("taper-opt", "base")])
def test_open_mirror_s_parameters_refused(tmp_path, capsys, command, key):
    """s21 and taper-opt read S21, which an open-mirror spec does not have:
    both exit 2 with a validation error and write no output."""
    spec = dict(slowline.devices.qubit_device().to_dict(),
                termination_out="open_mirror")
    cfg = _write(tmp_path, "cfg.json", {key: spec})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation"
    assert "matched output port" in err["error"]
    assert list(out.iterdir()) == []


def test_dressed_command(tmp_path):
    cfg = _write(tmp_path, "cfg.json",
                 {"cell": CELL,
                  "emitter": {"omega_ge_hz": 4.745e9, "g_uc_hz": 3e7}})
    out = tmp_path / "out"
    assert main(["dressed", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "dressed.json").read_text())
    assert set(payload) == {"e_bound_hz", "e_radiative_hz_re",
                            "e_radiative_hz_im", "qubit_weight",
                            "lambda_cells", "splitting_hz"}
    assert payload["e_radiative_hz_im"] < 0
    assert 0 < payload["qubit_weight"] < 1


def test_dressed_command_uncoupled_emitter_in_gap(tmp_path):
    """g_uc = 0 above the band: the bound state is the bare emitter."""
    cfg = _write(tmp_path, "cfg.json",
                 {"cell": CELL,
                  "emitter": {"omega_ge_hz": 4.9e9, "g_uc_hz": 0}})
    out = tmp_path / "out"
    assert main(["dressed", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "dressed.json").read_text())
    assert payload["e_bound_hz"] == pytest.approx(4.9e9, rel=1e-12)
    assert payload["qubit_weight"] == 1.0
    assert payload["splitting_hz"] == 0.0


def test_dynamics_command_and_sweep(tmp_path, qubit_spec_nobend, q1, midband):
    base = {"spec": qubit_spec_nobend.to_dict(), "qubit": q1.to_dict(),
            "protocol": {"omega_interact_hz": midband / TWO_PI,
                         "t_max_s": 2e-9, "dt_output_s": 1e-10}}
    cfg = _write(tmp_path, "cfg.json", base)
    out = tmp_path / "out"
    assert main(["dynamics", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trace.csv").read_text().splitlines()[0] == "t_s,p_e"

    sweep = dict(base)
    sweep["sweep_omega_interact_hz"] = [midband / TWO_PI + k * 1e6
                                        for k in range(5)]
    cfg2 = _write(tmp_path, "cfg2.json", sweep)
    out2 = tmp_path / "out2"
    assert main(["dynamics", "--config", cfg2, "--out", str(out2),
                 "--sweep"]) == 0
    files = sorted(p.name for p in out2.glob("trace_*.csv"))
    assert len(files) == 5
    index = (out2 / "index.csv").read_text().splitlines()
    assert index[0] == "omega_interact_hz,file"
    assert len(index) == 6


def test_disorder_extinction_determinism(tmp_path, tapered_26):
    cfg = _write(tmp_path, "cfg.json",
                 {"spec": tapered_26.to_dict(), "sigma_over_j": [0.0, 0.1],
                  "n_realizations": 5})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["disorder", "extinction", "--config", cfg,
                     "--out", str(out), "--seed", "7"]) == 0
        outs.append(_digest(out / "extinction.csv"))
    assert outs[0] == outs[1]
    out = tmp_path / "c"
    assert main(["disorder", "extinction", "--config", cfg,
                 "--out", str(out), "--seed", "8"]) == 0
    assert _digest(out / "extinction.csv") != outs[0]


def test_disorder_calibrate(tmp_path, tapered_26):
    from slowline.bands import tight_binding
    j_hz = tight_binding(tapered_26.interior)["j_tb"] / TWO_PI
    cfg = _write(tmp_path, "cfg.json",
                 {"spec": tapered_26.to_dict(),
                  "measured_delta_fsr_hz": 2.5e6,
                  "sigma_grid_hz": [0.02 * j_hz, 0.1 * j_hz, 0.2 * j_hz],
                  "n_realizations": 20})
    out = tmp_path / "out"
    assert main(["disorder", "calibrate", "--config", cfg,
                 "--out", str(out), "--seed", "1"]) == 0
    table = (out / "calibration_table.csv").read_text().splitlines()
    assert table[0] == "sigma_rad_s,mean_delta_fsr_rad_s"
    payload = json.loads((out / "calibration.json").read_text())
    assert payload["sigma_estimate_hz"] > 0


def test_manifest_references_all_outputs(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"cell": CELL})
    out = tmp_path / "out"
    assert main(["band", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    produced = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["outputs"] == produced
    assert manifest["command"] == "band"
    assert len(manifest["input_digests"]) == 1
    assert next(iter(manifest["input_digests"].values())) == _digest(tmp_path / "cfg.json")
    assert manifest["version"]
    assert manifest["started_utc"] <= manifest["finished_utc"]


def test_unwritable_manifest_exits_1_with_one_json_line(tmp_path, capsys):
    """A manifest that cannot be written is an I/O error like any other:
    exit 1 and one JSON line on stderr, no traceback."""
    cfg = _write(tmp_path, "cfg.json", {"cell": CELL, "n_points": 11})
    out = tmp_path / "out"
    (out / "manifest.json.tmp").mkdir(parents=True)
    assert main(["band", "--config", cfg, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "io"
    assert not (out / "manifest.json").exists()


def test_unknown_key_rejected_with_path(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json",
                 {"cell": {"c0_f": 1e-13, "cg_F": 5e-15, "l0_h": 3e-9}})
    out = tmp_path / "out"
    assert main(["band", "--config", cfg, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation"
    assert "cg_F" in err["error"]
    assert "cell" in err["error"]


def test_missing_config_file(tmp_path, capsys):
    assert main(["band", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation"


def test_unknown_top_level_key(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"cell": CELL, "extra": 1})
    assert main(["band", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "extra" in err["error"]


SPEC = {**CELL, "interior_count": 4}
QUBIT = {"c_sigma_f": 77.8e-15, "couplings_f": {"2": 1.9e-15},
         "omega_ge_hz": 4.75e9}
PROTOCOL = {"omega_interact_hz": 4.7e9, "t_max_s": 1e-9}
EMITTER = {"omega_ge_hz": 4.745e9, "g_uc_hz": 3e7}


@pytest.mark.parametrize("argv, cfg, path", [
    (["s21"], {"spec": {**SPEC, "bend": {"position": 2}}},
     "config.spec.bend: Bend: missing required keys ['c_series_f']"),
    (["dynamics"], {"spec": SPEC, "qubit": QUBIT, "protocol": {
        **PROTOCOL, "modulation": {"omega_mod_hz": 6e8}}},
     "config.protocol.modulation: Modulation: missing required keys "
     "['epsilon_hz']"),
    (["band"], {"cell": {**CELL, "c0_f": "abc"}}, "config.cell.c0_f:"),
    (["s21"], {"spec": None}, "config.spec:"),
    (["disorder", "extinction"], [{"spec": SPEC}], "config: expected a JSON"),
    (["s21"], {"spec": {**SPEC, "interior_count": 2.7}},
     "config.spec.interior_count:"),
    (["s21"], {"spec": {**SPEC, "boundary_in": [5]}},
     "config.spec.boundary_in.0:"),
    (["taper-opt"], {"base": SPEC, "n_modified": 1, "max_iterations": 2.5},
     "TaperProblem.max_iterations:"),
    (["dynamics"], {"spec": SPEC, "qubit": {**QUBIT, "couplings_f": [1e-15]},
                    "protocol": PROTOCOL}, "config.qubit.couplings_f:"),
    (["dressed"], {"cell": CELL, "emitter": {
        **EMITTER, "extra_couplings_hz": {"x": 1e6}}},
     "config.emitter.extra_couplings_hz: expected a JSON object keyed by "
     "integers"),
    (["dynamics", "--sweep"], {"spec": SPEC, "qubit": QUBIT,
                               "protocol": PROTOCOL,
                               "sweep_omega_interact_hz": ["a"]},
     "config.sweep_omega_interact_hz.0:"),
    (["disorder", "extinction"], {"spec": SPEC, "sigma_over_j": [0.1],
                                  "n_realizations": "5"},
     "config.n_realizations:"),
    (["s21"], {"spec": SPEC, "f_min_hz": math.nan, "f_max_hz": 4.9e9},
     "config.f_min_hz: expected a finite number"),
    (["dressed"], {"cell": CELL, "emitter": EMITTER, "edge": "uper"},
     "config.edge:"),
    (["dynamics"], {"spec": SPEC, "qubit": QUBIT, "protocol": {
        **PROTOCOL, "omega_park_hz": 4.9e9}}, "config.protocol:"),
    (["taper-opt"], {"base": SPEC, "symmetric": True},
     "TaperProblem: unknown keys ['symmetric']"),
    (["dressed"], {"cell": CELL, "emitter": EMITTER, "model": "exact_band"},
     "config: unknown keys ['model']"),
    (["dynamics", "--sweep"], {"spec": SPEC, "qubit": QUBIT,
                               "protocol": PROTOCOL,
                               "sweep_omega_interact_hz": [4.7e9, -1e9]},
     "config.sweep_omega_interact_hz.1 must be positive and finite, "
     "got -1000000000.0"),
    (["band"], '{"cell": ', "config is not valid JSON"),
    (["s21"], {"spec": SPEC, "f_min_hz": 4.5e9},
     "give both f_min_hz and f_max_hz or neither"),
    (["dynamics", "--sweep"], {"spec": SPEC, "qubit": QUBIT,
                               "protocol": PROTOCOL},
     "--sweep requires config key 'sweep_omega_interact_hz'"),
])
def test_malformed_config_exits_2_naming_the_key(tmp_path, capsys, argv, cfg,
                                                 path):
    """Text that is not JSON, bad types, missing nested keys, non-objects,
    out-of-range values, keys without their partner (f_min_hz without
    f_max_hz, --sweep without sweep_omega_interact_hz) and unknown keys are
    validation errors naming the key path, never a raw exception, a silent
    conversion or an ignored key, and are refused before any output is
    written (a sweep is read whole before its first trace)."""
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    assert main([*argv, "--config", cfg_path,
                 "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation"
    assert path in err["error"]
    assert not list((tmp_path / "out").glob("*"))


def test_seed_is_a_disorder_flag(tmp_path, capsys):
    """Only disorder draws anything, so only disorder takes --seed, and its
    manifest records the seed its draws used: the flag, else the config key
    ``seed``, else 0.  Every other manifest writes seed null, and --seed
    elsewhere is a usage error."""
    def manifest_seed(argv, cfg):
        out = tmp_path / argv[0]
        assert main([*argv, "--config", _write(tmp_path, "cfg.json", cfg),
                     "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())["seed"]

    assert manifest_seed(["band"], {"cell": CELL, "n_points": 11}) is None
    extinction = {"spec": SPEC, "sigma_over_j": [0.1], "n_realizations": 2}
    assert manifest_seed(["disorder", "extinction", "--seed", "3"],
                         extinction) == 3
    assert manifest_seed(["disorder", "extinction"],
                         {**extinction, "seed": 5}) == 5
    assert manifest_seed(["disorder", "extinction"], extinction) == 0
    with pytest.raises(SystemExit) as exc:
        main(["s21", "--config", str(tmp_path / "cfg.json"),
              "--out", str(tmp_path / "s21"), "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, threads, cfg", [
    (["disorder", "extinction"], "0",
     {"spec": SPEC, "sigma_over_j": [0.1], "n_realizations": 2}),
    (["band"], "-1", {"cell": CELL, "n_points": 11}),
], ids=["disorder-0", "band-neg"])
def test_nonpositive_threads_exits_2(tmp_path, capsys, argv, threads, cfg):
    """Every command checks --threads: below 1 it exits 2 with one JSON line
    naming the flag, before anything is written under --out."""
    out = tmp_path / "out"
    assert main([*argv, "--config", _write(tmp_path, "cfg.json", cfg),
                 "--out", str(out), "--threads", threads]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["type"] == "validation"
    assert "--threads" in err["error"]
    assert not out.exists()


def test_disorder_outputs_independent_of_threads(tmp_path, tapered_26):
    """disorder writes byte-identical outputs at --threads 1 and 2, and its
    manifest records the worker count; other manifests record null."""
    from slowline.bands import tight_binding
    j_hz = tight_binding(tapered_26.interior)["j_tb"] / TWO_PI
    spec = tapered_26.to_dict()
    runs = {"extinction": {"spec": spec, "sigma_over_j": [0.0, 0.05, 0.1],
                           "n_realizations": 5},
            "calibrate": {"spec": spec, "measured_delta_fsr_hz": 2.5e6,
                          "sigma_grid_hz": [0.02 * j_hz, 0.2 * j_hz],
                          "n_realizations": 6}}
    for mode, cfg in runs.items():
        cfg_path = _write(tmp_path, f"{mode}.json", cfg)
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"{mode}-{threads}"
            assert main(["disorder", mode, "--config", cfg_path, "--out",
                         str(out), "--seed", "4", "--threads",
                         str(threads)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["workers"] == threads
            outputs.append({name: (out / name).read_bytes()
                            for name in manifest["outputs"]})
        assert outputs[0] == outputs[1]
    out = tmp_path / "band"
    assert main(["band", "--config", _write(tmp_path, "band.json",
                                            {"cell": CELL, "n_points": 11}),
                 "--out", str(out), "--threads", "2"]) == 0
    assert json.loads((out / "manifest.json").read_text())["workers"] is None


def _sweep_config(tmp_path, midband, spec, method, n=5):
    from slowline.devices import qubit_q1
    f_mid = midband / TWO_PI
    return _write(tmp_path, f"{method}.json", {
        "spec": spec.to_dict(), "qubit": qubit_q1().to_dict(),
        "method": method,
        "protocol": {"omega_interact_hz": f_mid, "t_max_s": 4e-9,
                     "dt_output_s": 1e-10},
        "sweep_omega_interact_hz": [f_mid + k * 20e6 for k in range(n)]})


@pytest.mark.parametrize("method", ["emission", "mirror", "quantum"])
def test_dynamics_sweep_outputs_independent_of_threads(tmp_path, midband,
                                                       method):
    """dynamics --sweep writes byte-identical traces and index at --threads
    1, 2 and 3, its manifest records the worker count, a single trace's
    records null, and no worker outlives a run."""
    from slowline.devices import qubit_device
    spec = qubit_device(bend_c_series=None, termination_out=(
        "open_mirror" if method == "mirror" else "matched"))
    cfg = _sweep_config(tmp_path, midband, spec, method)
    outputs = []
    for threads in (1, 2, 3):
        out = tmp_path / f"{method}-{threads}"
        assert main(["dynamics", "--sweep", "--config", cfg, "--out",
                     str(out), "--threads", str(threads)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["workers"] == threads
        assert len(manifest["outputs"]) == 6
        outputs.append({name: (out / name).read_bytes()
                        for name in manifest["outputs"]})
        assert multiprocessing.active_children() == []
    assert outputs[0] == outputs[1] == outputs[2]
    single = json.loads(pathlib.Path(cfg).read_text())
    del single["sweep_omega_interact_hz"]
    out = tmp_path / f"{method}-single"
    assert main(["dynamics", "--config", _write(tmp_path, "single.json",
                                                single),
                 "--out", str(out), "--threads", "2"]) == 0
    assert json.loads((out / "manifest.json").read_text())["workers"] is None


@pytest.mark.parametrize("threads", [1, 3])
def test_dynamics_sweep_worker_error_exits_2(tmp_path, capsys, monkeypatch,
                                             qubit_spec_nobend, midband,
                                             threads):
    """A trace that raises ValidationError exits 2 with one JSON line naming
    the first failure in sweep order, traces 3 and 5 of 6 failing: at
    --threads 3 both run in forked workers (shares 0-1, 2-3, 4-5).  Neither
    index.csv nor manifest.json is written, and no worker outlives the
    run."""
    import slowline.cli as cli
    from slowline.params import ValidationError
    cfg = _sweep_config(tmp_path, midband, qubit_spec_nobend, "emission", 6)
    run = cli._DYNAMICS_METHODS["emission"]

    def failing(spec, qubit, protocol):
        k = round((protocol.omega_interact - midband) / (TWO_PI * 20e6))
        if k in (3, 5):
            raise ValidationError(f"trace {k} failed")
        return run(spec, qubit, protocol)

    monkeypatch.setitem(cli._DYNAMICS_METHODS, "emission", failing)
    out = tmp_path / "out"
    assert main(["dynamics", "--sweep", "--config", cfg, "--out", str(out),
                 "--threads", str(threads)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "trace 3 failed",
                                    "type": "validation",
                                    "subcommand": "dynamics"}
    assert not (out / "index.csv").exists()
    assert not (out / "manifest.json").exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("flag, cfg_seed", [(["--seed", "-1"], None),
                                            ([], -3)],
                         ids=["flag", "config"])
def test_negative_disorder_seed_exits_2(tmp_path, capsys, flag, cfg_seed):
    """A negative seed, from the flag or the config key, is a validation
    error: exit 2 and one JSON line, not numpy's traceback."""
    cfg = {"spec": SPEC, "sigma_over_j": [0.1], "n_realizations": 2}
    if cfg_seed is not None:
        cfg["seed"] = cfg_seed
    out = tmp_path / "out"
    assert main(["disorder", "extinction", *flag, "--config",
                 _write(tmp_path, "cfg.json", cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["type"] == "validation"
    assert "seed must be >= 0" in err["error"]
    assert not (out / "extinction.csv").exists()


@pytest.mark.parametrize("mode, cfg", [
    ("extinction", {"sigma_over_j": [], "n_realizations": 5}),
    ("calibrate", {"measured_delta_fsr_hz": 1e6, "sigma_grid_hz": []}),
], ids=["extinction", "calibrate"])
def test_disorder_empty_sigma_grid_exits_2(tmp_path, capsys, mode, cfg):
    """An empty sigma grid is a validation error, not a header-only CSV."""
    cfg_path = _write(tmp_path, "cfg.json", {"spec": SPEC, **cfg})
    out = tmp_path / "out"
    assert main(["disorder", mode, "--config", cfg_path,
                 "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "validation"
    assert "non-empty 1-D" in err["error"]
    assert not (out / "extinction.csv").exists()


@pytest.mark.parametrize("argv, cfg", [
    (["s21"], {"spec": SPEC, "n_points": 0}),
    (["s21"], {"spec": SPEC, "n_points": -3}),
    (["s21"], {"spec": SPEC, "n_points": 0, "f_min_hz": 4.6e9,
               "f_max_hz": 4.9e9}),
    (["band"], {"cell": CELL, "n_points": 0}),
    (["band"], {"cell": CELL, "n_points": -2}),
], ids=["s21-0", "s21-neg", "s21-range-0", "band-0", "band-neg"])
def test_nonpositive_n_points_exits_2(tmp_path, capsys, argv, cfg):
    """n_points < 1 is a validation error, not a numpy traceback or a
    header-only CSV."""
    cfg_path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main([*argv, "--config", cfg_path, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["type"] == "validation"
    assert "n_points must be >= 1" in err["error"]
    assert not list(out.glob("*.csv"))


def test_module_entry_point_reports_one_json_line(tmp_path):
    """``python -m slowline.cli`` on a malformed config exits 2 and writes
    exactly one JSON line to stderr, with no traceback."""
    cfg = _write(tmp_path, "cfg.json", {"cell": {**CELL, "c0_f": "abc"}})
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(slowline.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "slowline.cli", "band", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "validation"


def test_cli_import_leaves_out_scipy_signal():
    """Importing the CLI does not load scipy.linalg, scipy.signal,
    scipy.stats, scipy.optimize, scipy.integrate, multiprocessing or the
    process pool of concurrent.futures; only the dense linear algebra of the
    dynamics, the circuit fit (the one user of scipy.optimize), the
    exact-band quadrature and the forked workers that need them import them,
    and no code path imports scipy.signal or scipy.stats."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(slowline.__file__).parents[1]))
    code = ("import sys, slowline.cli\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy.signal',"
            " 'scipy.stats', 'scipy.optimize', 'scipy.integrate',"
            " 'multiprocessing', 'concurrent.futures.process')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_numpy_only_commands_load_no_scipy(tmp_path, tapered_26,
                                          untapered_26):
    """band, s21, dressed, both disorder modes and taper-opt, run in one
    fresh process, load no scipy module."""
    from slowline.bands import tight_binding
    j_hz = tight_binding(tapered_26.interior)["j_tb"] / TWO_PI
    spec = tapered_26.to_dict()
    runs = [
        (["band"], {"cell": CELL, "n_points": 101}),
        (["s21"], {"spec": spec, "n_points": 64}),
        (["dressed"], {"cell": CELL,
                       "emitter": {"omega_ge_hz": 4.745e9, "g_uc_hz": 3e7}}),
        (["disorder", "extinction"], {"spec": spec,
                                      "sigma_over_j": [0.0, 0.1],
                                      "n_realizations": 2}),
        (["disorder", "calibrate"], {"spec": spec,
                                     "measured_delta_fsr_hz": 2.5e6,
                                     "sigma_grid_hz": [0.02 * j_hz,
                                                       0.2 * j_hz],
                                     "n_realizations": 2}),
        (["taper-opt"], {"base": untapered_26.to_dict(), "n_modified": 2}),
    ]
    argvs = [[*argv, "--config", _write(tmp_path, f"cfg{i}.json", cfg),
              "--out", str(tmp_path / f"out{i}")]
             for i, (argv, cfg) in enumerate(runs)]
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(slowline.__file__).parents[1]))
    code = ("import sys\n"
            "from slowline.cli import main\n"
            f"assert [main(a) for a in {argvs!r}] == [0] * {len(argvs)}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_peak_readers_leave_out_scipy_signal(tmp_path, tapered_26):
    """`slowline disorder calibrate` and revival_onsets find their peaks
    without loading scipy.signal or scipy.stats."""
    from slowline.bands import tight_binding
    j_hz = tight_binding(tapered_26.interior)["j_tb"] / TWO_PI
    cfg = _write(tmp_path, "cfg.json",
                 {"spec": tapered_26.to_dict(),
                  "measured_delta_fsr_hz": 2.5e6,
                  "sigma_grid_hz": [0.02 * j_hz, 0.2 * j_hz],
                  "n_realizations": 2})
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(slowline.__file__).parents[1]))
    code = ("import sys\n"
            "import numpy as np\n"
            "from slowline.cli import main\n"
            "from slowline.dynamics import DynamicsTrace, revival_onsets\n"
            f"assert main(['disorder', 'calibrate', '--config', {cfg!r},"
            f" '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "t = np.linspace(0, 4e-7, 4001)\n"
            "p = np.exp(-1e8 * t) + 0.05 * np.exp(-((t - 2.5e-7) / 2e-8) ** 2)\n"
            "assert len(revival_onsets(DynamicsTrace(t=t, p_e=p))) == 1\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
