"""Dressed states of an emitter coupled to the resonator-array continuum.

The transcendental equation E = omega_ge + Sigma(E) has a real bound-state
root outside the passband and, on the second Riemann sheet, a complex
radiative root.  In the effective-mass (quadratic band) approximation near
the upper edge,

    Sigma(E) = g_uc^2 / (2 sqrt(J (E - omega0))),

which at omega_ge = omega0 gives the closed forms

    E_b = omega0 + (g_uc^4 / 4J)^(1/3)
    E_r = omega0 - e^{i pi/3} (g_uc^4 / 4J)^(1/3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bands import band_edges, coupling_spectrum, dispersion, group_velocity, tight_binding
from .params import EmitterParams, UnitCellParams, ValidationError, count

MODELS = ("effective_mass", "exact_band")
EDGES = ("upper", "lower")


class SingularPointError(ValidationError):
    """Evaluation exactly at a bandedge or other singular point."""


@dataclass(frozen=True)
class DressedStateSolution:
    e_bound: float               # rad/s, real energy outside the band
    e_radiative: complex         # rad/s, Im <= 0
    qubit_weight: float          # |c_e|^2 of the bound state
    localization_length: float   # cells
    splitting: float             # 2 * Omega_WG, rad/s


def _default_j(cell: UnitCellParams, j) -> float:
    return tight_binding(cell)["j_tb"] if j is None else float(j)


def _edge(cell: UnitCellParams, edge: str) -> tuple:
    """(frequency, sign) of the named band edge: +1 upper, -1 lower."""
    if edge not in EDGES:
        raise ValidationError(f"edge must be 'upper' or 'lower': {edge!r}")
    lo, hi = band_edges(cell)
    return (hi, 1.0) if edge == "upper" else (lo, -1.0)


def self_energy(e, g_uc: float, cell: UnitCellParams,
                model: str = "effective_mass", j: float = None,
                edge: str = None, sheet: str = "first"):
    """Sigma(E) for scalar or array E (complex allowed).

    effective_mass uses the closed form above at ``edge`` (default
    ``'upper'``); ``sheet='second'`` selects the analytic continuation
    through the branch cut (sqrt -> -sqrt).  exact_band integrates
    g^2/(E - omega_k) over the Brillouin zone; real in-band E is evaluated as
    the principal value with the retarded -i pi * DOS term.  It reads the
    cell's own band, both edges included, so it takes no ``j``, no ``edge``
    and only the first sheet.
    """
    if model not in MODELS:
        raise ValidationError(f"unknown self-energy model: {model!r}")
    if sheet not in ("first", "second"):
        raise ValidationError(f"sheet must be 'first' or 'second': {sheet!r}")
    if model == "exact_band" and (j is not None or edge is not None
                                  or sheet != "first"):
        raise ValidationError(
            "exact_band takes no j, no edge and only sheet='first'")
    e_arr = np.atleast_1d(np.asarray(e, dtype=complex))

    if model == "effective_mass":
        w_edge, sign = _edge(cell, "upper" if edge is None else edge)
        jj = _default_j(cell, j)
        z = sign * (e_arr - w_edge)
        if np.any(z == 0):
            raise SingularPointError("self-energy evaluated exactly at the bandedge")
        root = np.sqrt(jj * z)
        if sheet == "second":
            root = -root
        out = sign * g_uc**2 / (2.0 * root)
        return out if np.ndim(e) else complex(out[0])

    lo, hi = band_edges(cell)
    out = np.empty(e_arr.shape, dtype=complex)
    for i, ei in enumerate(e_arr):
        out[i] = _exact_band_sigma(ei, g_uc, cell, lo, hi)
    return out if np.ndim(e) else complex(out[0])


def _exact_band_sigma(e: complex, g_uc: float, cell: UnitCellParams,
                      lo: float, hi: float) -> complex:
    """Sigma(E) on the exact band: one complex quadrature off the real band
    interval, the principal value plus -i pi * DOS on it."""
    import scipy.integrate  # slow to import; only the exact band needs it
    if e.imag == 0:
        er = e.real
        if er in (lo, hi):
            raise SingularPointError("self-energy evaluated exactly at the bandedge")
        if lo < er < hi:
            # principal value plus retarded continuation below the axis
            kd_star = 2.0 * math.asin(math.sqrt(
                (cell.omega0**2 / er**2 - 1.0) / (4.0 * cell.coupling_ratio)))

            # quad(weight="cauchy") computes PV of f(kd)/(kd - kd*), so feed
            # it the regularized f(kd) * (kd - kd*).
            def reg(kd):
                d = er - dispersion(cell, kd)
                x = kd - kd_star
                if abs(x) < 1e-9:
                    return -1.0 / abs(group_velocity(cell, kd_star))
                return x / d

            pv, _ = scipy.integrate.quad(reg, 0.0, math.pi, weight="cauchy",
                                         wvar=kd_star, limit=200)
            vg = abs(group_velocity(cell, kd_star))
            return g_uc**2 * (pv / math.pi - 1j / vg)

    val, _ = scipy.integrate.quad(lambda kd: 1.0 / (e - dispersion(cell, kd)),
                                  0.0, math.pi, limit=200, complex_func=True)
    return g_uc**2 * val / math.pi


def solve_dressed_states(emitter: EmitterParams, cell: UnitCellParams,
                         j: float = None, edge: str = "upper"
                         ) -> DressedStateSolution:
    """Bound and radiative roots of E = omega_ge + Sigma(E) (effective mass).

    With y = sqrt(J s (E - omega_edge)), s = +1 at the upper edge and -1 at
    the lower, the equation is the cubic

        y^3 + s J (omega_edge - omega_ge) y - g_uc^2 J / 2 = 0,

    solved here in units of J.  Its roots sum to zero and multiply to
    g_uc^2 J / 2 > 0, so for g_uc != 0 exactly one is positive real: the
    bound state, first sheet.  The other two have negative real parts (second
    sheet); the one furthest left is the radiative pole.
    """
    w_edge, sign = _edge(cell, edge)
    jj = _default_j(cell, j)
    g = emitter.g_uc
    u = np.roots([1.0, 0.0, sign * (w_edge - emitter.omega_ge) / jj,
                  -0.5 * (g / jj) ** 2])                # roots y / J
    u_b, u_r = max(u, key=lambda x: x.real), min(u, key=lambda x: x.real)
    if u_b.imag != 0 or not u_b.real > 0:
        raise ValidationError("no bound state: the emitter is uncoupled "
                              "and not in the gap")
    u_b = float(u_b.real)
    e_r = complex(w_edge + sign * jj * u_r * u_r)
    return DressedStateSolution(
        e_bound=w_edge + sign * jj * u_b * u_b,
        e_radiative=e_r.conjugate() if e_r.imag > 0 else e_r,
        qubit_weight=1.0 / (1.0 + 0.25 * (g / jj) ** 2 / u_b**3),
        localization_length=1.0 / u_b,
        splitting=2.0 * (g**4 / (4.0 * jj)) ** (1.0 / 3.0))


def qubit_weight(e: float, omega_ge: float, omega0: float) -> float:
    """|c_e|^2 of the bound state (upper-edge effective-mass form)."""
    if e == omega0:
        raise SingularPointError("qubit weight singular at E = omega0")
    if e < omega0:
        raise ValidationError("upper-edge form requires E > omega0")
    return _bound_weight(e, omega_ge, omega0)


def _bound_weight(e: float, omega_ge: float, w_edge: float) -> float:
    """|c_e|^2 of a bound state at E beside the band edge w_edge."""
    return 1.0 / (1.0 + 0.5 * (e - omega_ge) / (e - w_edge))


def bound_profile(e: float, cell: UnitCellParams, n_cells: int,
                  omega_ge: float = None, j: float = None,
                  edge: str = "upper") -> np.ndarray:
    """Photonic amplitude per cell, |x| measured from the emitter cell.

    Amplitudes follow e^{-|x|/lambda}; when omega_ge is supplied the photonic
    part carries weight 1 - |c_e|^2 so the full state is normalized.
    """
    n_cells = count(n_cells, "n_cells", 1)
    w_edge, sign = _edge(cell, edge)
    jj = _default_j(cell, j)
    if sign * (e - w_edge) <= 0:
        raise ValidationError("bound-state energy must lie outside the band")
    lam = math.sqrt(jj / (sign * (e - w_edge)))
    x = np.arange(n_cells) - (n_cells - 1) // 2
    amp = np.exp(-np.abs(x) / lam)
    norm = math.sqrt(np.sum(amp**2))
    amp /= norm
    if omega_ge is not None:    # qubit_weight's form holds at either edge
        amp *= math.sqrt(1.0 - _bound_weight(e, omega_ge, w_edge))
    return amp


def single_excitation_hamiltonian(cell: UnitCellParams, emitter: EmitterParams,
                                  m_cells: int = 201,
                                  max_range: int = 10) -> np.ndarray:
    """(M+1) x (M+1) Hamiltonian: photonic block with hopping from the
    coupling spectrum, the emitter level last, coupled at the central cell."""
    m_cells = count(m_cells, "m_cells", 1)
    cs = coupling_spectrum(cell, m_cells if m_cells % 2 else m_cells + 1,
                           max_range)
    hopping = np.zeros(m_cells)
    hopping[:cs.v.size] = cs.v                  # V(n) by distance n
    v = np.concatenate((hopping[::-1], hopping[1:]))    # V(|n|), |n| < M
    h = np.zeros((m_cells + 1, m_cells + 1))
    # Toeplitz block h[i, j] = V(|i - j|): row i is v[M - 1 - i:][:M]
    h[:m_cells, :m_cells] = sliding_window_view(v, m_cells)[::-1]
    h[m_cells, m_cells] = emitter.omega_ge
    center = (m_cells - 1) // 2
    h[m_cells, center] = h[center, m_cells] = emitter.g_uc
    for offset, g in emitter.extra_couplings.items():
        site = center + offset
        if not 0 <= site < m_cells:
            raise ValidationError(f"extra coupling offset {offset} outside array")
        h[m_cells, site] = h[site, m_cells] = g
    return h


def diagonalize_single_excitation(cell: UnitCellParams, emitter: EmitterParams,
                                  m_cells: int = 201,
                                  max_range: int = 10) -> dict:
    """Eigenpairs of the finite single-excitation problem.

    Returns eigenvalues (ascending), eigenvectors (columns; last row is the
    emitter amplitude), and the index of the bound state: the eigenstate of
    maximal emitter weight among those outside the band.
    """
    h = single_excitation_hamiltonian(cell, emitter, m_cells, max_range)
    evals, evecs = np.linalg.eigh(h)
    lo, hi = band_edges(cell)
    weights = np.abs(evecs[-1, :]) ** 2
    outside = (evals < lo) | (evals > hi)
    if np.any(outside):
        candidates = np.where(outside)[0]
        bound_index = int(candidates[np.argmax(weights[candidates])])
    else:
        bound_index = int(np.argmax(weights))
    return {"eigenvalues": evals, "eigenvectors": evecs,
            "bound_index": bound_index, "qubit_weights": weights}
