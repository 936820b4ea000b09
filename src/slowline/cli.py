"""Command-line front end: config ingestion, dispatch, and run manifests.

Configs are JSON with unit-suffixed keys (_f, _h, _hz, _s, _ohm); curves are
written as CSV, structured results as JSON, and every run leaves a
``manifest.json`` recording the resolved parameters, seeds, worker counts,
input digests and output files.  ``--threads`` spreads disorder ensembles
and the traces of a dynamics sweep over forked processes
(``workers.fork_map``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .abcd import cascade_abcd, default_grid
from .bands import dispersion_curve
from .dressed import EDGES, solve_dressed_states
from .dynamics import (Protocol, simulate_emission, simulate_emission_quantum,
                       simulate_mirror)
from .params import (TWO_PI, ArraySpec, EmitterParams, QubitCircuitParams,
                     UnitCellParams, ValidationError, as_fields, count, hz,
                     integer, list_of, one_of, positive, read_object, real,
                     write_csv, write_json)
from .taper import TaperProblem, optimize
from .workers import fork_map
from . import disorder as disorder_mod


# --------------------------------------------------------------------------
# config plumbing

def parse_config(path: str) -> dict:
    """Load a JSON config; schema validation happens per subcommand."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {path}: {exc}")


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# --------------------------------------------------------------------------
# subcommands: each returns the list of output file names it wrote

def _cmd_band(cfg: dict, out: str, args) -> list:
    curve = dispersion_curve(**read_object(
        cfg, "config", {"cell": UnitCellParams.from_dict},
        {"n_points": integer}))
    curve.to_csv(os.path.join(out, "dispersion.csv"))
    return ["dispersion.csv"]


def _cmd_s21(cfg: dict, out: str, args) -> list:
    cfg = read_object(cfg, "config", {"spec": ArraySpec.from_dict},
                      {"n_points": integer, "f_min_hz": hz, "f_max_hz": hz})
    spec = cfg["spec"]
    n = count(cfg.get("n_points", 2001), "n_points", 1)
    if ("f_min_hz" in cfg) != ("f_max_hz" in cfg):
        raise ValidationError("config: give both f_min_hz and f_max_hz or "
                              "neither")
    grid = (np.linspace(cfg["f_min_hz"], cfg["f_max_hz"], n)
            if "f_min_hz" in cfg else default_grid(spec.interior, n))
    cascade_abcd(spec, grid).to_csv(os.path.join(out, "s21.csv"))
    return ["s21.csv"]


def _cmd_taper_opt(cfg: dict, out: str, args) -> list:
    report = optimize(TaperProblem.from_dict(cfg))
    write_json(os.path.join(out, "tapered_spec.json"), report.spec.to_dict())
    write_csv(os.path.join(out, "convergence.csv"), "iter,ripple_db",
              list(zip(*report.history)), ["%d", "%.6f"])
    write_json(os.path.join(out, "taper_report.json"),
               {"ripple_db": report.ripple_db,
                "n_iterations": report.n_iterations,
                "converged": report.converged})
    return ["tapered_spec.json", "convergence.csv", "taper_report.json"]


def _cmd_dressed(cfg: dict, out: str, args) -> list:
    sol = solve_dressed_states(**read_object(
        cfg, "config", {"cell": UnitCellParams.from_dict,
                        "emitter": EmitterParams.from_dict},
        {"edge": one_of(EDGES)}))
    write_json(os.path.join(out, "dressed.json"), {
        "e_bound_hz": sol.e_bound / TWO_PI,
        "e_radiative_hz_re": sol.e_radiative.real / TWO_PI,
        "e_radiative_hz_im": sol.e_radiative.imag / TWO_PI,
        "qubit_weight": sol.qubit_weight,
        "lambda_cells": sol.localization_length,
        "splitting_hz": sol.splitting / TWO_PI,
    })
    return ["dressed.json"]


_DYNAMICS_METHODS = {
    "emission": simulate_emission,
    "mirror": simulate_mirror,
    "quantum": simulate_emission_quantum,
}


def _cmd_dynamics(cfg: dict, out: str, args) -> list:
    cfg = read_object(cfg, "config",
                      {"spec": ArraySpec.from_dict,
                       "qubit": QubitCircuitParams.from_dict,
                       "protocol": Protocol.from_dict},
                      {"method": one_of(_DYNAMICS_METHODS),
                       "sweep_omega_interact_hz": list_of(positive(real))})
    spec, qubit, protocol = cfg["spec"], cfg["qubit"], cfg["protocol"]
    run = _DYNAMICS_METHODS[cfg.get("method", "emission")]
    sweep = cfg.get("sweep_omega_interact_hz")
    if args.sweep and sweep is None:
        raise ValidationError("--sweep requires config key "
                              "'sweep_omega_interact_hz'")
    if sweep is None:
        run(spec, qubit, protocol).to_csv(os.path.join(out, "trace.csv"))
        return ["trace.csv"]
    outputs = [f"trace_{i:03d}.csv" for i in range(len(sweep))]

    def trace(i):
        p = dataclasses.replace(protocol, omega_interact=TWO_PI * sweep[i])
        run(spec, qubit, p).to_csv(os.path.join(out, outputs[i]))

    # each process writes its own traces; the index only once all succeed
    args.workers = args.threads
    fork_map(trace, len(sweep), args.threads)
    write_csv(os.path.join(out, "index.csv"), "omega_interact_hz,file",
              [sweep, outputs], ["%.12e", "%s"])
    return outputs + ["index.csv"]


# mode -> (required, optional) keys besides "spec" and "seed", named as the
# parameters of the mode's disorder function
_DISORDER_KEYS = {
    "extinction": ({"sigma_over_j": list_of(real), "n_realizations": integer},
                   {}),
    "calibrate": ({"measured_delta_fsr_hz": hz, "sigma_grid_hz": list_of(hz)},
                  {"n_realizations": integer}),
}


def _cmd_disorder(cfg: dict, out: str, args) -> list:
    required, optional = _DISORDER_KEYS[args.mode]
    kw = as_fields(read_object(
        cfg, "config", {"spec": ArraySpec.from_dict, **required},
        {"seed": integer, **optional}))
    # the manifest records the seed the draws use (flag, else config, else 0)
    # and the worker count
    args.seed = kw["seed"] = (args.seed if args.seed is not None
                              else kw.get("seed", 0))
    args.workers = kw["workers"] = args.threads
    if args.mode == "extinction":
        res = disorder_mod.extinction_curve(**kw)
        res.to_csv(os.path.join(out, "extinction.csv"))
        return ["extinction.csv"]
    cal = disorder_mod.calibrate_sigma(**kw)
    cal.to_csv(os.path.join(out, "calibration_table.csv"))
    write_json(os.path.join(out, "calibration.json"),
               {"sigma_estimate_hz": cal.sigma_estimate / TWO_PI,
                "monotone": cal.monotone})
    return ["calibration_table.csv", "calibration.json"]


# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowline",
        description="Resonator-array slow-light waveguide toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for disorder ensembles and "
                            "dynamics sweeps; results do not depend on it")
        p.set_defaults(func=func)
        return p

    add("band", _cmd_band)
    add("s21", _cmd_s21)
    add("taper-opt", _cmd_taper_opt)
    add("dressed", _cmd_dressed)
    p_dyn = add("dynamics", _cmd_dynamics)
    p_dyn.add_argument("--sweep", action="store_true")
    p_dis = add("disorder", _cmd_disorder)
    p_dis.add_argument("mode", choices=_DISORDER_KEYS)
    p_dis.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = datetime.now(timezone.utc).isoformat()
    try:
        args.threads = count(args.threads, "--threads", 1)
        cfg = parse_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        outputs = args.func(cfg, args.out, args)
        command = args.subcommand + (f" {args.mode}" if args.subcommand == "disorder" else "")
        write_json(os.path.join(args.out, "manifest.json"), {
            "command": command,
            "parameters": cfg,
            "version": __version__,
            "seed": getattr(args, "seed", None),
            "workers": getattr(args, "workers", None),
            "input_digests": {args.config: _digest(args.config)},
            "outputs": sorted(outputs),
            "started_utc": started,
            "finished_utc": datetime.now(timezone.utc).isoformat(),
        })
    except (ValidationError, OSError) as exc:
        bad_input = isinstance(exc, ValidationError)
        json.dump({"error": str(exc), "type": "validation" if bad_input else "io",
                   "subcommand": args.subcommand}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if bad_input else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
