"""Spans and health counts for the traced benchmark run.

Spans are recorded from the benchmark's own files: each layer boundary is a
``slowline`` function that is swapped, for the length of a traced phase, for a
wrapper that records (name, start, end, parent, info).  Several modules bind
library functions by name at import, so each binding is wrapped where it is
looked up.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import logging
import os
import threading
import time
import warnings

import numpy as np
import scipy.linalg

import slowline.abcd
import slowline.cli
import slowline.disorder
import slowline.dressed
import slowline.dynamics
import slowline.fitting
import slowline.statespace
import slowline.taper

# Circuit simulations whose outputs are time traces; a nested call (mirror ->
# emission) belongs to the outermost one.
SIMULATIONS = ("dynamics.simulate_emission", "dynamics.simulate_mirror",
               "dynamics.simulate_emission_quantum",
               "dynamics.simulate_modulated")


class Tracer:
    """Thread-safe in-memory span store.

    A span opened in a worker thread with nothing open on its own stack is
    parented to the innermost span open in the main thread, which is the
    span that submitted the work (the disorder thread pools).
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, info]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_return=None):
        tracer = self
        sig = inspect.signature(fn) if on_return else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            top = (stack or tracer._main_stack)[-1:]
            span = [name, 0.0, 0.0, top[0] if top else None, {}]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(span[4], bound.arguments, result)
            return result
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s[:4] for s in self.spans], fh)


# ---------------------------------------------------------------- span info

def _cascade_info(info, a, result):
    info["cell_points"] = a["spec"].n_resonators * len(a["freq_grid"])
    info["nonfinite"] = int(np.count_nonzero(~np.isfinite(result.s21)))


def _extinction_info(info, a, result):
    info["realizations"] = (int(a["n_realizations"])
                            * np.size(a["sigma_over_j"]))


def _calibrate_info(info, a, result):
    info["realizations"] = int(a["n_realizations"]) * np.size(a["sigma_grid"])


def _trace_info(info, a, result):
    info["samples"] = int(result.t.size)
    info["max_p_e"] = float(np.max(result.p_e))


def _taper_info(info, a, result):
    info["history"] = len(result.history)


def _cli_info(info, a, result):
    argv = list(a["argv"])
    out = argv[argv.index("--out") + 1]
    info["bytes"] = sum(e.stat().st_size for e in os.scandir(out)
                        if e.is_file())


def boundaries():
    """(holder, key, span name, info hook) for every wrapped lookup."""
    m = slowline
    dyn_table = m.cli._DYNAMICS_METHODS
    out = [(mod, "cascade_abcd", "abcd.cascade_abcd", _cascade_info)
           for mod in (m.abcd, m.disorder, m.taper, m.fitting, m.cli)]
    out += [
        (m.disorder, "extinction_curve", "disorder.extinction_curve",
         _extinction_info),
        (m.disorder, "calibrate_sigma", "disorder.calibrate_sigma",
         _calibrate_info),
        (m.disorder, "fsr_variance", "disorder.fsr_variance", None),
        (m.statespace, "assemble_state_space",
         "statespace.assemble_state_space", None),
        (m.dynamics, "assemble_state_space",
         "statespace.assemble_state_space", None),
        (m.statespace.StateSpaceModel, "a_matrix", "statespace.a_matrix",
         None),
        (scipy.linalg, "expm", "dynamics.expm", None),
        (m.dynamics, "bandedge_oracle", "dynamics.bandedge_oracle", None),
        (m.taper, "optimize", "taper.optimize", _taper_info),
        (m.taper, "spec_with_couplers", "taper.spec_with_couplers", None),
        (m.fitting, "fit_to_spectrum", "fitting.fit_to_spectrum", None),
        (m.dressed, "solve_dressed_states", "dressed.solve_dressed_states",
         None),
        (m.dressed, "diagonalize_single_excitation",
         "dressed.diagonalize_single_excitation", None),
        (m.cli, "main", "cli.main", _cli_info),
    ]
    for name in SIMULATIONS:
        out.append((m.dynamics, name.split(".")[1], name, _trace_info))
    for method, fn in dyn_table.items():
        out.append((dyn_table, method, "dynamics." + fn.__name__, _trace_info))
    return out


def _get(holder, key):
    return holder[key] if isinstance(holder, dict) else getattr(holder, key)


def _set(holder, key, value):
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary for the duration of the block.

    A missing attribute raises here, so a refactor that moves a function
    breaks the traced run instead of silently emptying a layer.
    """
    saved = []
    try:
        for holder, key, name, hook in boundaries():
            original = _get(holder, key)
            saved.append((holder, key, original))
            _set(holder, key, tracer.wrap(name, original, hook))
        yield
    finally:
        for holder, key, original in reversed(saved):
            _set(holder, key, original)


# ------------------------------------------------------------------ health

class Health(logging.Handler):
    """Counts ``slowline`` log records and captured warnings by kind.

    Log records and warnings of no known kind count as other_warnings.
    """

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.counts = dict.fromkeys(
            ("dropped", "redraws", "nonmonotone", "overflow_warnings",
             "other_warnings"), 0)

    def emit(self, record):
        msg = str(record.msg)
        if msg.startswith("dropped %d of %d realizations"):
            self.counts["dropped"] += int(record.args[0])
        elif msg.startswith("redrew %d"):
            self.counts["redraws"] += int(record.args[0])
        elif msg.startswith("calibration table non-monotone"):
            self.counts["nonmonotone"] += 1
        else:
            self.counts["other_warnings"] += 1

    def count_warnings(self, records) -> None:
        for w in records:
            text = str(w.message)
            if (issubclass(w.category, RuntimeWarning)
                    and os.path.basename(w.filename) == "abcd.py"
                    and ("overflow" in text or "invalid value" in text)):
                self.counts["overflow_warnings"] += 1
            else:
                self.counts["other_warnings"] += 1


def attach_health() -> Health:
    """Route ``slowline`` log records to a counter instead of stderr."""
    health = Health()
    logger = logging.getLogger("slowline")
    logger.addHandler(health)
    logger.propagate = False
    return health


@contextlib.contextmanager
def counted_warnings(health: Health):
    """Record every warning raised in the block and count it by kind."""
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        yield
    health.count_warnings(records)


@contextlib.contextmanager
def traced(tracer: Tracer, health: Health):
    """A traced phase: boundaries wrapped and warnings counted."""
    with installed(tracer), counted_warnings(health):
        yield


@contextlib.contextmanager
def silenced_warnings():
    """Untraced passes: keep warnings off stderr at the least cost."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


# ----------------------------------------------------------------- metrics

UNITS = {
    "abcd.cascade_calls": "count", "abcd.cell_points": "count",
    "abcd.cascade_s": "s", "abcd.ns_per_cell_point": "ns",
    "abcd.nonfinite_points": "count", "abcd.overflow_warnings": "count",
    "disorder.realizations": "count", "disorder.extinction_s": "s",
    "disorder.calibrate_s": "s", "disorder.ms_per_realization": "ms",
    "disorder.fsr_calls": "count", "disorder.fsr_s": "s",
    "disorder.dropped_realizations": "count", "disorder.kept_frac": "1",
    "disorder.redraws": "count", "disorder.nonmonotone_tables": "count",
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
    "health.other_warnings": "count",
    "process.cpu_s": "s", "trace.overhead_s": "s",
}


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda k: spans[k][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _ancestors(spans, i):
    p = spans[i][3]
    while p is not None:
        yield p
        p = spans[p][3]


def layer_metrics(spans, selfs, indices, health_counts) -> dict:
    """Per-layer figures over the spans ``indices`` (name -> value)."""
    by = {}
    for i in indices:
        by.setdefault(spans[i][0], []).append(i)

    def n(name):
        return len(by.get(name, ()))

    def dur(name):
        return sum(spans[i][2] - spans[i][1] for i in by.get(name, ()))

    def total(key, picks):
        return sum(spans[i][4].get(key, 0) for i in picks)

    def info(name, key):
        return total(key, by.get(name, ()))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    def under(child, parents):
        return [i for i in by.get(child, ())
                if any(spans[p][0] in parents for p in _ancestors(spans, i))]

    sims = [i for name in SIMULATIONS for i in by.get(name, ())]
    outer_sims = [i for i in sims
                  if not any(spans[p][0] in SIMULATIONS
                             for p in _ancestors(spans, i))]
    cascade = "abcd.cascade_abcd"
    cell_points = info(cascade, "cell_points")
    realizations = (info("disorder.extinction_curve", "realizations")
                    + info("disorder.calibrate_sigma", "realizations"))
    calib_realizations = info("disorder.calibrate_sigma", "realizations")
    step_s = sum(selfs[i] for i in sims)
    samples = total("samples", outer_sims)
    evals = (len(under("taper.spec_with_couplers", {"taper.optimize"}))
             - n("taper.optimize"))
    dressed_names = ("dressed.solve_dressed_states",
                     "dressed.diagonalize_single_excitation")
    return {
        "abcd.cascade_calls": n(cascade),
        "abcd.cell_points": cell_points,
        "abcd.cascade_s": dur(cascade),
        "abcd.ns_per_cell_point": ratio(dur(cascade), cell_points, 1e9),
        "abcd.nonfinite_points": info(cascade, "nonfinite"),
        "abcd.overflow_warnings": health_counts["overflow_warnings"],
        "disorder.realizations": realizations,
        "disorder.extinction_s": dur("disorder.extinction_curve"),
        "disorder.calibrate_s": dur("disorder.calibrate_sigma"),
        "disorder.ms_per_realization": ratio(
            dur("disorder.extinction_curve") + dur("disorder.calibrate_sigma"),
            realizations, 1e3),
        "disorder.fsr_calls": n("disorder.fsr_variance"),
        "disorder.fsr_s": dur("disorder.fsr_variance"),
        "disorder.dropped_realizations": health_counts["dropped"],
        "disorder.kept_frac": ratio(
            calib_realizations - health_counts["dropped"], calib_realizations),
        "disorder.redraws": health_counts["redraws"],
        "disorder.nonmonotone_tables": health_counts["nonmonotone"],
        "statespace.assemble_calls": n("statespace.assemble_state_space"),
        "statespace.assemble_s": dur("statespace.assemble_state_space"),
        "statespace.a_matrix_calls": n("statespace.a_matrix"),
        "statespace.a_matrix_s": dur("statespace.a_matrix"),
        "dynamics.traces": len(outer_sims),
        "dynamics.samples": samples,
        "dynamics.propagator_builds": n("dynamics.expm"),
        "dynamics.propagator_build_s": dur("dynamics.expm"),
        "dynamics.step_s": step_s,
        "dynamics.us_per_sample": ratio(step_s, samples, 1e6),
        "dynamics.oracle_s": dur("dynamics.bandedge_oracle"),
        "dynamics.max_p_e": max((spans[i][4].get("max_p_e", 0.0)
                                 for i in outer_sims), default=0.0),
        "taper.optimize_calls": n("taper.optimize"),
        "taper.optimize_s": dur("taper.optimize"),
        "taper.objective_evals": evals,
        "taper.ms_per_eval": ratio(dur("taper.optimize"), evals, 1e3),
        "taper.improving_frac": ratio(info("taper.optimize", "history"),
                                      evals),
        "fitting.fit_calls": n("fitting.fit_to_spectrum"),
        "fitting.fit_s": dur("fitting.fit_to_spectrum"),
        "fitting.evals": len(under(cascade, {"fitting.fit_to_spectrum"})),
        "dressed.calls": sum(n(k) for k in dressed_names),
        "dressed.s": sum(dur(k) for k in dressed_names),
        "cli.runs": n("cli.main"),
        "cli.s": dur("cli.main"),
        "cli.self_s": sum(selfs[i] for i in by.get("cli.main", ())),
        "cli.bytes_written": info("cli.main", "bytes"),
        "health.other_warnings": health_counts["other_warnings"],
    }
