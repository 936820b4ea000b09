"""Linear state-space assembly of the full circuit (array + ports + qubit).

State vector is x = [node fluxes; node charges]; dynamics x' = A x with

    A = [[0, C^-1], [-Linv, -G C^-1]]

where C is the Maxwell capacitance matrix, Linv the diagonal inverse
inductance matrix and G the node conductance matrix (port resistors plus
internal loss).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .params import ArraySpec, QubitCircuitParams, ValidationError


@dataclass(frozen=True)
class StateSpaceModel:
    cap: np.ndarray        # (n, n) Maxwell capacitance matrix, F
    linv: np.ndarray       # (n, n) inverse inductances, 1/H
    g: np.ndarray          # (n, n) conductances, S
    input_node: int
    output_node: int
    qubit_node: Optional[int] = None
    port_impedance: float = 50.0

    @property
    def n_nodes(self) -> int:
        return self.cap.shape[0]

    def a_matrix(self) -> np.ndarray:
        n = self.n_nodes
        cinv = np.linalg.inv(self.cap)
        a = np.zeros((2 * n, 2 * n))
        a[:n, n:] = cinv
        a[n:, :n] = -self.linv
        a[n:, n:] = -self.g @ cinv
        return a

    def lossless_eigenfrequencies(self) -> np.ndarray:
        """Angular eigenfrequencies of the undamped network, ascending.

        Zero modes from pure-capacitive (port) nodes are dropped.
        """
        w2 = scipy.linalg.eigh(self.linv, self.cap, eigvals_only=True)
        w2 = w2[w2 > 1e-6 * np.max(w2)]
        return np.sqrt(w2)

    def steady_state_s21(self, freq_grid) -> np.ndarray:
        """Transmission under harmonic drive at the input port.

        Solves the driven linear system at each frequency; equals the
        ABCD-derived S21 for a matched array.
        """
        w = np.atleast_1d(np.asarray(freq_grid, dtype=float))
        n = self.n_nodes
        a = self.a_matrix()
        cinv = np.linalg.inv(self.cap)
        out = np.empty(w.shape, dtype=complex)
        b = np.zeros(2 * n, dtype=complex)
        b[n + self.input_node] = 1.0 / self.port_impedance  # Norton source, V_s = 1
        eye = np.eye(2 * n)
        for i, wi in enumerate(w):
            x = np.linalg.solve(1j * wi * eye - a, -b)
            v = cinv @ x[n:]
            out[i] = -2.0 * v[self.output_node]
        return out if out.size > 1 else out[0]


def _add_cap(cap: np.ndarray, i: int, j: int, value: float) -> None:
    cap[i, i] += value
    cap[j, j] += value
    cap[i, j] -= value
    cap[j, i] -= value


def assemble_state_space(spec: ArraySpec,
                         qubit: Optional[QubitCircuitParams] = None) -> StateSpaceModel:
    """Build the full-circuit model from an ``ArraySpec`` or a lowered
    ``Chain``.

    Node order: input port, resonators 1..R, output port, then the qubit node
    if present.  The output port node keeps its coupler but loses its resistor
    for an open-mirror termination.
    """
    chain = spec.lower()
    r = chain.n_resonators
    n = r + 2 + (1 if qubit is not None else 0)
    in_node, out_node = 0, r + 1
    q_node = r + 2 if qubit is not None else None

    cap = np.zeros((n, n))
    linv = np.zeros((n, n))
    g = np.zeros((n, n))

    res = np.arange(1, r + 1)
    cap[res, res] = chain.c_shunt
    linv[res, res] = 1.0 / chain.l
    g[res, res] = chain.g_loss
    for i, c in enumerate(chain.couplers):
        _add_cap(cap, i, i + 1, c)

    g[in_node, in_node] += 1.0 / chain.port_impedance
    if chain.matched_out:
        g[out_node, out_node] += 1.0 / chain.port_impedance

    if qubit is not None:
        if all(c == 0.0 for c in qubit.couplings.values()):
            raise ValidationError("qubit is capacitively decoupled from the array")
        for idx, c in qubit.couplings.items():
            if not 1 <= idx <= r:
                raise ValidationError(
                    f"qubit coupling index {idx} outside resonator range 1..{r}")
            _add_cap(cap, q_node, idx, c)
        cap[q_node, q_node] += qubit.c_sigma
        linv[q_node, q_node] = 1.0 / qubit.inductance_for(qubit.omega_ge)
        if math.isfinite(qubit.q_intrinsic):
            g[q_node, q_node] += qubit.omega_ge * qubit.c_node / qubit.q_intrinsic

    diag = np.diag(cap)
    if np.any(diag <= 0):
        bad = int(np.argmin(diag))
        raise ValidationError(f"node {bad} is disconnected (no capacitance)")

    return StateSpaceModel(cap=cap, linv=linv, g=g, input_node=in_node,
                           output_node=out_node, qubit_node=q_node,
                           port_impedance=chain.port_impedance)
