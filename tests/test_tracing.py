"""The benchmark's traced run wraps library functions by name; these checks
fail when a reader binds a wrapped function under another name or a traced
function moves, which otherwise breaks only ``perfbench/run.py --trace 1``."""

import importlib.util
import math
import pathlib

from slowline import dynamics
from slowline.dynamics import Modulation, Protocol

_SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"


def _spans():
    """``perfbench/spans.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_installed_tracer_restores_every_binding():
    """Entering the benchmark's tracer wraps every binding it names, and
    leaving it puts each original object back.  Reading a binding that was
    renamed or dropped (a module's ``cascade_abcd`` import,
    ``taper.spec_with_couplers``, ...) raises here."""
    spans = _spans()

    def bindings():
        return [spans._get(holder, key)
                for holder, key, _, _ in spans.boundaries()]

    before = bindings()
    with spans.installed(spans.Tracer()):
        during = bindings()
    after = bindings()
    assert len(before) == len(during) == len(after)
    assert not any(d is b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_dynamics_spans_fire(qubit_spec_nobend, q1, midband):
    """A 5 ns index-0.4 modulation and a 1 ns quench, run under the
    benchmark's tracer, record the propagator, state-space and trace spans
    the per-layer metrics are read from."""
    spans = _spans()
    tracer = spans.Tracer()
    w = 2 * math.pi * 600e6
    with spans.installed(tracer):
        dynamics.simulate_modulated(qubit_spec_nobend, q1, Protocol(
            omega_interact=midband + w, t_max=5e-9, dt_output=5e-10,
            modulation=Modulation(omega_mod=w, epsilon=0.4 * w)))
        dynamics.simulate_emission(qubit_spec_nobend, q1,
                                   Protocol(omega_interact=midband, t_max=1e-9))
    fired = {span[0] for span in tracer.spans}
    assert {"dynamics.expm", "statespace.a_matrix",
            "statespace.assemble_state_space", "dynamics.simulate_modulated",
            "dynamics.simulate_emission"} <= fired
