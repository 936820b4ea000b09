#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark; all workloads end to end in seconds.

    python3 perfbench/selfcheck.py

Runs ``run.py --tiny`` on every workload of BENCHMARK.json with ``--trace 0``
and ``--trace 1`` and checks that the last line of stdout is the result
object, that its metrics are exactly BENCHMARK.json's end-to-end (trace 0) or
per-layer (trace 1) names with their units, and that every metric the
benchmark was specified with is emitted with its unit or listed in
``run.DROPPED`` with a reason.  It also checks that the benchmark refuses to
run, without printing a result, in a directory holding only BENCHMARK.json
and the benchmark's own files.  Tiny inputs miss the paper's windows, so the
outputs' correctness is not checked here.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every metric the benchmark was specified with, and its unit.
SPECIFIED = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB", "failed_frac": "1",
    "abcd.cascade_calls": "count", "abcd.cell_points": "count",
    "abcd.cascade_s": "s", "abcd.ns_per_cell_point": "ns",
    "abcd.nonfinite_points": "count", "abcd.overflow_warnings": "count",
    "disorder.realizations": "count", "disorder.extinction_s": "s",
    "disorder.calibrate_s": "s", "disorder.ms_per_realization": "ms",
    "disorder.fsr_calls": "count", "disorder.fsr_s": "s",
    "disorder.dropped_realizations": "count", "disorder.kept_frac": "1",
    "statespace.assemble_calls": "count", "statespace.assemble_s": "s",
    "statespace.a_matrix_calls": "count", "statespace.a_matrix_s": "s",
    "dynamics.traces": "count", "dynamics.samples": "count",
    "dynamics.propagator_builds": "count", "dynamics.propagator_build_s": "s",
    "dynamics.step_s": "s", "dynamics.us_per_sample": "us",
    "dynamics.oracle_s": "s", "dynamics.max_p_e": "1",
    "taper.optimize_calls": "count", "taper.optimize_s": "s",
    "taper.objective_evals": "count", "taper.ms_per_eval": "ms",
    "taper.improving_frac": "1",
    "fitting.fit_calls": "count", "fitting.fit_s": "s",
    "fitting.evals": "count",
    "dressed.calls": "count", "dressed.s": "s",
    "cli.runs": "count", "cli.s": "s", "cli.self_s": "s",
    "cli.bytes_written": "B",
    "process.cpu_s": "s", "trace.overhead_s": "s",
}


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck: FAILED: {message}")


def bench_run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    emitted = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = bench_run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            require(proc.returncode == 0,
                    f"{where}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed",
                                    "metrics"}, f"{where}: keys {set(result)}")
            require(result["attempted"] >= 1, f"{where}: nothing attempted")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            require(units == declared[trace],
                    f"{where}: metrics differ from BENCHMARK.json: "
                    f"{set(units.items()) ^ set(declared[trace].items())}")
            for name, m in result["metrics"].items():
                require(isinstance(m["value"], (int, float))
                        and math.isfinite(m["value"]),
                        f"{where}: {name} is not a finite number")
            emitted.update(units)
            print(f"selfcheck: {where}: {len(units)} metrics, "
                  f"{result['failed']}/{result['attempted']} jobs failed "
                  f"(tiny inputs)")
    for name, unit in SPECIFIED.items():
        require(emitted.get(name) == unit or name in run.DROPPED,
                f"{name} [{unit}] neither emitted nor listed as dropped")
    for name, reason in run.DROPPED.items():
        print(f"selfcheck: {name} dropped: {reason}")

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench_run(Path(bare), bench["workloads"][0]["name"], 0)
        require(proc.returncode != 0 and '"correct"' not in proc.stdout,
                "the benchmark ran without the program's sources")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
