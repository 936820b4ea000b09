"""Set-up, timed passes, output checks and the printed result of one run.

Imported by run.py once BLAS is pinned and ``slowline`` is imported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spans
import workloads

SETUP_REPEATS = 3
# --threads for the CLI runs: the library's own pool, capped at nproc.
CLI_THREADS = 2


class Raised:
    """Stands in for the output of a job that raised; keeps the traceback."""

    def __init__(self, what: str = "raised"):
        self.what = what
        self.text = traceback.format_exc()

    def __str__(self):
        return f"{self.what}: {self.text.strip().splitlines()[-1]}"


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(root: Path, blas_threads: int, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "blas": blas, "blas_threads_pinned": blas_threads,
            "cli_threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": git_commit(root)}


def run_pass(jobs) -> tuple:
    outputs = {}
    cpu0, t0 = time.process_time(), time.perf_counter()
    for job in jobs:
        try:
            outputs[job.name] = job.run()
        except Exception:
            outputs[job.name] = Raised()
    return time.perf_counter() - t0, time.process_time() - cpu0, outputs


def check_pass(jobs, outputs) -> dict:
    """job name -> {check name: passed}; tracebacks go to stderr."""
    results = {}
    for job in jobs:
        out = outputs[job.name]
        if not isinstance(out, Raised):
            try:
                results[job.name] = {k: bool(v)
                                     for k, v in job.check(out).items()}
                continue
            except Exception:
                out = Raised("check raised")
        print(f"perfbench: {job.name}: {out.text}", file=sys.stderr)
        results[job.name] = {str(out): False}
    return results


def run(args, import_s: float, root: Path, out: Path,
        blas_threads: int) -> int:
    """Set up, run and check the workload; print the result."""
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    threads = min(CLI_THREADS, len(os.sched_getaffinity(0)))
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, import_s, root, out, blas_threads, threads,
                       str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, import_s, root, out, blas_threads, threads, work) -> int:
    """Set-up repeats, then passes until --seconds; returns the exit code."""
    setup, declared = workloads.WORKLOADS[args.workload]
    health = spans.attach_health()
    tracer = spans.Tracer() if args.trace else None

    def phase(traced):
        return spans.traced(tracer, health) if traced \
            else spans.silenced_warnings()

    setup_times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = time.perf_counter()
        with phase(tracer is not None):
            jobs = setup(args.seed, args.tiny, work, threads)
        setup_times.append(time.perf_counter() - t0)
    setup_end = len(tracer.spans) if tracer else 0
    setup_health = dict(health.counts)

    walls, cpus, traced_walls, per_pass = [], [], [], []
    failures = {}
    measured = 0.0
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            mark, before = len(tracer.spans), dict(health.counts)
        with phase(traced):
            wall, cpu, outputs = run_pass(jobs)
        measured += wall
        if traced:
            traced_walls.append(wall)
            counts = {k: setup_health[k] + health.counts[k] - before[k]
                      for k in before}
            per_pass.append((list(range(setup_end))
                             + list(range(mark, len(tracer.spans))), counts))
        else:
            walls.append(wall)
            cpus.append(cpu)
        with spans.silenced_warnings():
            results = check_pass(jobs, outputs)
        for job, checks in results.items():
            for c in (c for c, ok in checks.items() if not ok):
                failures[(job, c)] = failures.get((job, c), 0) + 1
        # Stop before a pass that would end past --seconds.
        if (tracer is None or traced_walls) and measured + statistics.median(
                walls + traced_walls) > args.seconds:
            break

    # Every pass repeats the same jobs, so a job counts once: failed if any
    # of its checks failed in any pass.
    attempted = len(jobs)
    failed = len({job for job, _ in failures})
    new = sorted(k for k in failures
                 if (args.workload, *k) not in workloads.KNOWN_DEFECTS)
    if tracer is None:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MiB"),
            "ok_frac": (1.0 - failed / attempted, "1"),
        }
    else:
        missing = [d for d in declared
                   if not any(s[0] == d for s in tracer.spans)]
        if missing:
            print(f"perfbench: declared spans never fired on "
                  f"{args.workload}: {missing}", file=sys.stderr)
            return 3
        tracer.dump(str(out / f"spans-{args.workload}-seed{args.seed}.json"))
        selfs = spans.self_times(tracer.spans)
        rows = [spans.layer_metrics(tracer.spans, selfs, idx, counts)
                for idx, counts in per_pass]
        values = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        values["process.cpu_s"] = statistics.median(cpus)
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(walls))
        metrics = {k: (v, spans.UNITS[k]) for k, v in values.items()}

    facts = machine_facts(root, blas_threads, threads)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} untraced_passes={len(walls)} "
          f"traced_passes={len(traced_walls)}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print("pass_wall_s " + json.dumps(walls))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:<14.6g} {unit}")
    print(f"  {'failed_frac':<32} {failed / attempted:<14.6g} 1 "
          f"({failed} of {attempted} jobs; in the result as ok_frac)")
    for (job, check), n in sorted(failures.items()):
        known = "known defect" if (job, check) not in new else "NEW FAILURE"
        print(f"  failed {job}: {check} [{known}, {n} passes]")
    print(json.dumps({
        "correct": not new, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0
