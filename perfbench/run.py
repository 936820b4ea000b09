#!/usr/bin/env python3
r"""slowline benchmark: one workload per run, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30
    python3 perfbench/run.py --workload emission --seed 1 --seconds 30 \
        --trace 1
    python3 perfbench/selfcheck.py        # tiny sizes, all workloads, seconds

Workloads (see workloads.py): ``ensemble`` (disorder CLI runs and a
1000-cell S21, all ABCD cascades), ``emission`` (CLI dynamics sweeps, all
state-space stepping) and ``design_loop`` (sequential small calls: taper,
fitting, modulated and ramped dynamics, dressed states, band-edge oracle).

The run imports ``slowline`` from ``src/`` of this checkout with BLAS pinned
to one thread, sets the workload up SETUP_REPEATS times, then runs its job
list pass after pass while the next pass should still end within
``--seconds``.  Each pass is timed; its outputs are checked after the timer
stops.

``--trace 0`` reports setup_s (import plus median set-up), wall_s (median
pass), peak_rss_mb (process peak) and ok_frac (share of the job list whose
checks passed in every pass).  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of spans.py, each the median over
traced passes of one set-up plus one pass; it exits non-zero if a span
declared for the workload never fires.

The last line of stdout is the JSON result; the lines before it give the
machine facts, the figures as a table and every failing check.  Spans of a
traced run are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

# Metrics named for this benchmark that the result carries in another form.
DROPPED = {
    "failed_frac": "reported as ok_frac = 1 - failed_frac; an end-to-end "
                   "metric must never be 0, and failed_frac reaches 0 once "
                   "the known defects are fixed",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the self-check only")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "slowline" / "__init__.py").is_file():
        print(f"perfbench: no slowline sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:               # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import slowline.cli
    import_s = time.perf_counter() - t0
    if not Path(slowline.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported slowline from {slowline.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    import measure
    return measure.run(args, import_s, ROOT, OUT, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
