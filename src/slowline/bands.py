"""Band-structure analytics for the infinite periodic array.

Dispersion of the capacitively coupled chain:

    omega_k = omega0 / sqrt(1 + 4 (Cg/C0) sin^2(k d / 2))

The band runs downward from omega0 at k = 0 to omega0/sqrt(1 + 4 Cg/C0) at
|k| d = pi, so group and phase velocities point in opposite directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import UnitCellParams, _require, count, write_csv

# Lattice constant of the fabricated device, metres.  Geometry metadata only:
# all physics is per-cell; d enters in reporting delay per length/area.
DEFAULT_LATTICE_CONSTANT = 290e-6


@dataclass(frozen=True)
class DispersionCurve:
    k_grid: np.ndarray    # k*d, dimensionless, in (-pi, pi]
    omega: np.ndarray     # rad/s

    def to_csv(self, path) -> None:
        write_csv(path, "k_per_d,omega_rad_s", [self.k_grid, self.omega])


@dataclass(frozen=True)
class CouplingSpectrum:
    distance: np.ndarray  # cell separation, integer >= 0
    v: np.ndarray         # rad/s

    def to_csv(self, path) -> None:
        write_csv(path, "distance_cells,v_rad_s", [self.distance, self.v],
                  ["%d", "%.12e"])


def dispersion(cell: UnitCellParams, kd) -> np.ndarray:
    """omega(k) for dimensionless momenta kd in [-pi, pi]."""
    kd = np.asarray(kd, dtype=float)
    _require(not np.any(np.abs(kd) > math.pi * (1 + 1e-12)),
             "momentum outside the first Brillouin zone")
    s2 = np.sin(kd / 2.0) ** 2
    return cell.omega0 / np.sqrt(1.0 + 4.0 * cell.coupling_ratio * s2)


def dispersion_curve(cell: UnitCellParams, n_points: int = 1001) -> DispersionCurve:
    n_points = count(n_points, "n_points", 1)
    kd = np.linspace(-math.pi, math.pi, n_points)
    return DispersionCurve(k_grid=kd, omega=dispersion(cell, kd))


def band_edges(cell: UnitCellParams) -> tuple:
    """(lower, upper) band-edge angular frequencies."""
    return (cell.omega0 / math.sqrt(1.0 + 4.0 * cell.coupling_ratio), cell.omega0)


def window_grid(cell: UnitCellParams, fraction: float,
                n_points: int) -> np.ndarray:
    """``n_points`` frequencies across the central ``fraction`` of the band."""
    lo, hi = band_edges(cell)
    center, half = 0.5 * (lo + hi), 0.5 * fraction * (hi - lo)
    return np.linspace(center - half, center + half, n_points)


def bandwidth(cell: UnitCellParams) -> float:
    lo, hi = band_edges(cell)
    return hi - lo


def tight_binding(cell: UnitCellParams) -> dict:
    """Hopping rate in both conventions plus the band-centre frequency.

    j_tb is the first-order expansion omega0*Cg/(2 C0); j_exact keeps the
    full capacitance loading.  They agree to first order in Cg/C0.
    """
    _require(cell.coupling_ratio < 1, "tight-binding limit needs cg < c0")
    w0 = cell.omega0
    j_tb = w0 * cell.cg / (2.0 * cell.c0)
    j_exact = 0.5 * w0 * cell.cg / (cell.c0 + cell.cg)
    return {"j_tb": j_tb, "j_exact": j_exact, "omega_p": w0 - 2.0 * j_tb}


def coupling_spectrum(cell: UnitCellParams, m_cells: int = 2001,
                      max_distance: int = 10) -> CouplingSpectrum:
    """Photon-mediated interaction strengths V(n) from the discrete Fourier
    transform of the dispersion over an M-site Brillouin zone."""
    m_cells = count(m_cells, "m_cells", 1)
    max_distance = count(max_distance, "max_distance", 0)
    _require(m_cells % 2 and m_cells >= 2 * max_distance + 1,
             "m_cells must be odd and >= 2*max_distance + 1")
    m = np.arange(m_cells) - (m_cells - 1) // 2
    kd = 2.0 * math.pi * m / m_cells
    w = dispersion(cell, kd)
    n = np.arange(max_distance + 1)
    phase = np.exp(-1j * np.outer(n, kd))
    v = (phase @ w) / m_cells
    return CouplingSpectrum(distance=n, v=v.real)


def group_velocity(cell: UnitCellParams, kd) -> np.ndarray:
    """d omega / d(kd); negative for kd in (0, pi)."""
    kd = np.asarray(kd, dtype=float)
    r = cell.coupling_ratio
    s = np.sin(kd / 2.0)
    denom = (1.0 + 4.0 * r * s**2) ** 1.5
    return -cell.omega0 * r * np.sin(kd) / denom


def delay_metrics(cell: UnitCellParams, n_cells: int,
                  d: float = DEFAULT_LATTICE_CONSTANT) -> dict:
    """Slow-light figures of merit at mid-band (kd = pi/2)."""
    j = tight_binding(cell)["j_exact"]
    vg_mid = abs(group_velocity(cell, math.pi / 2.0))
    per_cell = 1.0 / vg_mid
    return {
        "delay_per_cell_s": per_cell,
        "total_mid_band_delay_s": n_cells * per_cell,
        "delay_per_length_s_per_m": per_cell / d,
        # one array resonator occupies roughly the area of a lambda/4 CPW
        # section, so delay per area improves by ~ omega0/J
        "ratio_to_cpw": cell.omega0 / j,
        "mid_band_delay_estimate_s": 1.0 / (2.0 * j),
        "lattice_constant_m": d,
    }
