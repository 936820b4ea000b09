"""Built-in device descriptions used throughout tests and as CLI defaults.

Values come from circuit-model fits of the two fabricated devices: a 26-cell
test waveguide, and a 52-cell qubit-loaded waveguide made of two such rows
joined by an imperfect bend.
"""

from __future__ import annotations

import math

from .params import (TWO_PI, ArraySpec, Bend, QubitCircuitParams,
                     UnitCellParams, boundary_cells)


def test_device(q_internal: float = math.inf) -> ArraySpec:
    """26-resonator test waveguide (2 matching cells per boundary)."""
    cell = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9,
                          q_internal=q_internal)
    boundary = boundary_cells((87.5e-15, 7.3e-15, cell.cg),
                              (275.5e-15, 352.1e-15), cell.l0)
    return ArraySpec(interior=cell, interior_count=22,
                     boundary_in=boundary, boundary_out=boundary)


def untapered_device(n_cells: int = 26, q_internal: float = math.inf) -> ArraySpec:
    """Same interior as the test device but without boundary matching."""
    cell = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9,
                          q_internal=q_internal)
    return ArraySpec(interior=cell, interior_count=n_cells)


# Default bend series capacitance.  The inter-row link is a mismatch element;
# a value below the bulk coupler gives a weak partial reflector.
BEND_C_SERIES = 2.5e-15

QUBIT_CELL_INDEX = 3   # resonator carrying the main qubit coupling


def qubit_device(q_internal: float = 9e4, termination_out: str = "matched",
                 bend_c_series: float = BEND_C_SERIES) -> ArraySpec:
    """52-resonator qubit-loaded waveguide: two 26-cell rows joined by a bend
    between resonators 26 and 27."""
    cell = UnitCellParams(c0=353.2e-15, cg=5.02e-15, l0=3.099e-9,
                          q_internal=q_internal)
    boundary = boundary_cells((92.5e-15, 7.8e-15, cell.cg),
                              (273e-15, 351.2e-15), cell.l0)
    bend = Bend(position=26, c_series=bend_c_series) if bend_c_series else None
    return ArraySpec(interior=cell, interior_count=48,
                     boundary_in=boundary, boundary_out=boundary,
                     termination_out=termination_out, bend=bend)


def qubit_q1(omega_ge_hz: float = 4.75e9, q_intrinsic: float = 9e4) -> QubitCircuitParams:
    """Linearized Q1: shunt capacitance plus intended (cell 3) and parasitic
    (cells 1 and 4) couplings."""
    return QubitCircuitParams(
        c_sigma=77.8e-15,
        couplings={1: 0.16e-15, QUBIT_CELL_INDEX: 1.9e-15, 4: 0.25e-15},
        omega_ge=TWO_PI * omega_ge_hz,
        q_intrinsic=q_intrinsic,
    )
