"""Linear state-space assembly of the full circuit (array + ports + qubit).

State vector is x = [node fluxes; node charges]; dynamics x' = A x with

    A = [[0, C^-1], [-Linv, -G C^-1]]

where C is the Maxwell capacitance matrix and Linv and G are diagonal:
each node's inverse inductance and conductance to ground (port resistors
plus internal loss).  The model's linear algebra runs with one BLAS thread
(``blas.single_thread``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .abcd import _TWO_PORT_ONLY
from .blas import single_thread
from .params import (ArraySpec, Chain, QubitCircuitParams, ValidationError,
                     _require)


@dataclass(frozen=True)
class StateSpaceModel:
    cap: np.ndarray        # (n, n) Maxwell capacitance matrix, F
    linv: np.ndarray       # (n,) inverse inductance to ground, 1/H
    g: np.ndarray          # (n,) conductance to ground, S
    input_node: int
    output_node: int
    qubit_node: Optional[int] = None
    port_impedance: float = 50.0

    @property
    def n_nodes(self) -> int:
        return self.cap.shape[0]

    @single_thread()
    def a_matrix(self) -> np.ndarray:
        n = self.n_nodes
        cinv = np.linalg.inv(self.cap)
        a = np.zeros((2 * n, 2 * n))
        a[:n, n:] = cinv
        np.fill_diagonal(a[n:, :n], -self.linv)
        a[n:, n:] = -self.g[:, None] * cinv
        return a

    @single_thread()
    def lossless_eigenfrequencies(self) -> np.ndarray:
        """Angular eigenfrequencies of the undamped network, ascending.

        The zero modes, one per node without an inductor (the ports), are
        dropped.
        """
        import scipy.linalg     # slow to import; only needed here
        w2 = scipy.linalg.eigh(np.diag(self.linv), self.cap, eigvals_only=True)
        return np.sqrt(w2[np.count_nonzero(self.linv == 0):])

    @single_thread()
    def steady_state_s21(self, freq_grid) -> np.ndarray:
        """Transmission under harmonic drive at the input port.

        Solves the nodal admittance equations (jwC + G + L^-1/(jw)) V = I at
        each frequency, with the Norton current 1/Z0 of a unit source at the
        input, giving S21 = 2 V_out in the grid's shape; equals the
        ABCD-derived S21 for a matched array.  Raises ValidationError, as
        ``cascade_abcd`` does, when the output node has no port resistor (an
        open mirror) or a grid point is not above DC.
        """
        _require(self.g[self.output_node] > 0, _TWO_PORT_ONLY)
        w = np.asarray(freq_grid, dtype=float)
        _require(np.all(w > 0), "frequency grid must avoid DC and be positive")
        out = np.empty(w.shape, dtype=complex)
        i_in = np.zeros(self.n_nodes)
        i_in[self.input_node] = 1.0 / self.port_impedance
        diag = np.diag_indices(self.n_nodes)
        for k, wk in enumerate(w.flat):
            y = 1j * wk * self.cap
            y[diag] += self.g + self.linv / (1j * wk)
            out.flat[k] = 2.0 * np.linalg.solve(y, i_in)[self.output_node]
        return out if out.ndim else out[()]


def _qubit_terms(qubit: QubitCircuitParams, omega: float):
    """(L^-1_qq, G_qq): the qubit node's inverse inductance and conductance
    at bare frequency ``omega``, the only entries of the model that depend
    on it."""
    _require(0 < omega < math.inf, "omega_ge must be positive and finite")
    g = (omega * qubit.c_node / qubit.q_intrinsic
         if math.isfinite(qubit.q_intrinsic) else 0.0)
    return 1.0 / qubit.inductance_for(omega), g


def _retuned_generator(model: StateSpaceModel, a: np.ndarray,
                      qubit: QubitCircuitParams, omega: float) -> np.ndarray:
    """``model.a_matrix()`` for the qubit at bare frequency ``omega``, from
    the generator ``a`` of ``model`` (assembled with ``qubit`` at any
    frequency): a copy of ``a`` with only the qubit's row of the lower
    blocks rewritten, -L^-1_qq and -G_qq * C^-1[q, :]."""
    n, q = model.n_nodes, model.qubit_node
    linv, g = _qubit_terms(qubit, omega)
    out = a.copy()
    out[n + q, q] = -linv
    out[n + q, n:] = -g * a[q, n:]
    return out


def _add_cap(cap: np.ndarray, i: int, j: int, value: float) -> None:
    cap[i, i] += value
    cap[j, j] += value
    cap[i, j] -= value
    cap[j, i] -= value


def assemble_state_space(spec: ArraySpec | Chain,
                         qubit: Optional[QubitCircuitParams] = None) -> StateSpaceModel:
    """Build the full-circuit model from an ``ArraySpec`` or a lowered
    ``Chain``.

    Node order: input port, resonators 1..R, output port, then the qubit node
    if present.  The output port node keeps its coupler but loses its resistor
    for an open-mirror termination.
    """
    chain = spec.lower()
    if chain.l.ndim != 1:
        raise ValidationError("a state-space model takes one realization, "
                              "not a stack")
    r = chain.n_resonators
    n = r + 2 + (1 if qubit is not None else 0)
    in_node, out_node = 0, r + 1
    q_node = r + 2 if qubit is not None else None

    cap = np.zeros((n, n))
    linv = np.zeros(n)
    g = np.zeros(n)

    res = np.arange(1, r + 1)
    cap[res, res] = chain.c_shunt
    linv[res] = 1.0 / chain.l
    g[res] = chain.g_loss
    for i, c in enumerate(chain.couplers):
        _add_cap(cap, i, i + 1, c)

    g[in_node] += 1.0 / chain.port_impedance
    if chain.matched_out:
        g[out_node] += 1.0 / chain.port_impedance

    if qubit is not None:
        if all(c == 0.0 for c in qubit.couplings.values()):
            raise ValidationError("qubit is capacitively decoupled from the array")
        for idx, c in qubit.couplings.items():
            if not 1 <= idx <= r:
                raise ValidationError(
                    f"qubit coupling index {idx} outside resonator range 1..{r}")
            _add_cap(cap, q_node, idx, c)
        cap[q_node, q_node] += qubit.c_sigma
        linv[q_node], g[q_node] = _qubit_terms(qubit, qubit.omega_ge)

    diag = np.diag(cap)
    if np.any(diag <= 0):
        bad = int(np.argmin(diag))
        raise ValidationError(f"node {bad} is disconnected (no capacitance)")

    return StateSpaceModel(cap=cap, linv=linv, g=g, input_node=in_node,
                           output_node=out_node, qubit_node=q_node,
                           port_impedance=chain.port_impedance)
