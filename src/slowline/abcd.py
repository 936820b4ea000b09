"""Two-port ABCD analysis of finite resonator arrays.

The chain is cascaded element by element: series coupling capacitors
alternating with shunt LC branches (internal loss folded in as a parallel
conductance per resonator).  S-parameters are referenced to the real port
impedance of the spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ArraySpec, Chain, UnitCellParams, ValidationError


@dataclass(frozen=True)
class TwoPortResponse:
    """Transmission/reflection amplitudes on a strictly increasing grid of
    angular frequencies."""

    freq_grid: np.ndarray    # rad/s
    s21: np.ndarray          # complex
    s11: np.ndarray          # complex

    def __post_init__(self):
        if np.any(np.diff(self.freq_grid) <= 0):
            raise ValidationError("frequency grid must be strictly increasing")

    @property
    def s21_db(self) -> np.ndarray:
        return 20.0 * np.log10(np.abs(self.s21))

    def group_delay(self) -> np.ndarray:
        """Group delay -d arg(s21)/d omega, seconds."""
        phase = np.unwrap(np.angle(self.s21))
        return -np.gradient(phase, self.freq_grid)

    def to_csv(self, path) -> None:
        header = "omega_rad_s,s21_re,s21_im,s11_re,s11_im"
        data = np.column_stack([self.freq_grid, self.s21.real, self.s21.imag,
                                self.s11.real, self.s11.imag])
        np.savetxt(path, data, delimiter=",", header=header, comments="",
                   fmt="%.12e")

    @classmethod
    def from_csv(cls, path) -> "TwoPortResponse":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(freq_grid=data[:, 0],
                   s21=data[:, 1] + 1j * data[:, 2],
                   s11=data[:, 3] + 1j * data[:, 4])


def default_grid(cell: UnitCellParams, n_points: int = 2001) -> np.ndarray:
    """Default frequency grid spanning both bandedges with margin."""
    w0 = cell.omega0
    return np.linspace(0.93 * w0, 1.02 * w0, n_points)


# Entry magnitude that triggers rescaling.  One element grows an entry by far
# less than the 1e158 of headroom left below the float limit.
_RESCALE_ABOVE = 1e150


def _ldexp(x: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """x * 2**exp per grid point, on real and imaginary parts apart, so an
    out-of-range entry is +-inf rather than a 0*inf NaN."""
    parts = np.ldexp(x.view(float).reshape(*x.shape, 2), exp[..., None])
    return parts.view(complex)[..., 0]


def _cascade(chain: Chain, freq_grid):
    """Rows (a, b, c, d) of the chain's ABCD matrix over 2**exp, and exp.

    From the input port, each coupler right-multiplies in place by
    [[1, z], [0, 1]] and each resonator by [[1, 0], [y, 1]].  Past
    _RESCALE_ABOVE every point is scaled to a peak in [0.5, 1) by a power of
    two, which is exact: no bit changes where the plain product is finite.
    """
    w = np.asarray(freq_grid, dtype=float)
    if np.any(w <= 0):
        raise ValidationError("frequency grid must avoid DC and be positive")
    m = np.zeros((4, w.size), dtype=complex)
    m[0] = m[3] = 1.0
    a, b, c, d = m
    parts = m.view(float).reshape(4, -1, 2)
    exp = np.zeros(w.size, dtype=int)
    jw = 1j * w
    g_loss = chain.g_loss
    for i, cap in enumerate(chain.couplers):
        z = 1.0 / (jw * cap)
        b += a * z
        d += c * z
        if i < chain.n_resonators:
            y = jw * chain.c_shunt[i] + 1.0 / (jw * chain.l[i]) + g_loss[i]
            a += b * y
            c += d * y
        if parts.max() > _RESCALE_ABOVE or parts.min() < -_RESCALE_ABOVE:
            _, e = np.frexp(np.abs(m).max(axis=0))
            np.ldexp(parts, -e[:, None], out=parts)
            exp += e
    return m, exp


def chain_abcd(spec: ArraySpec, freq_grid: np.ndarray):
    """Total ABCD matrix of the chain (port to port), per grid point; entries
    beyond the float range are +-inf."""
    return tuple(_ldexp(*_cascade(spec.lower(), freq_grid)))


def cascade_abcd(spec: ArraySpec, freq_grid: np.ndarray) -> TwoPortResponse:
    """S21/S11 of the finite array (an ``ArraySpec`` or a lowered ``Chain``)
    between its resistive ports.

    Grid points where the conversion is singular yield NaN rather than
    raising.
    """
    chain = spec.lower()
    (a, b, c, d), exp = _cascade(chain, freq_grid)
    z0 = chain.port_impedance
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = a + b / z0 + c * z0 + d
        s21 = _ldexp(2.0 / denom, -exp)
        s11 = (a + b / z0 - c * z0 - d) / denom
    return TwoPortResponse(freq_grid=np.asarray(freq_grid, dtype=float),
                           s21=s21, s11=s11)


def unit_cell_abcd(cell: UnitCellParams, freq_grid: np.ndarray):
    """ABCD of one periodic cell (series coupler followed by shunt branch)."""
    chain = Chain(c_shunt=np.array([cell.c0]), l=np.array([cell.l0]),
                  couplers=np.array([cell.cg]), q_internal=cell.q_internal)
    return tuple(_ldexp(*_cascade(chain, freq_grid)))


def bloch_analysis(cell: UnitCellParams, freq_grid: np.ndarray) -> dict:
    """Complex propagation constant k(w)*d and Bloch impedance of the periodic
    cell.

    Branch convention: inside the passband k*d is real in [0, pi] with k*d -> 0
    at the upper bandedge (group and phase velocities are opposite, so omega
    decreases with k); outside the band Im(k*d) >= 0 so that e^{ik x} decays.
    The Bloch impedance is the root with non-negative real part in the
    passband.
    """
    a, b, c, d = unit_cell_abcd(cell, freq_grid)
    cos_kd = ((a + d) / 2.0).astype(complex)
    kd = np.arccos(cos_kd)
    kd = np.where(kd.imag < 0, -kd, kd)
    # Bloch eigenvalue relation: A V + B I = mu V, mu = exp(-i k d).  The two
    # eigen-impedances correspond to the two propagation directions; keep the
    # one carrying power forward (Re z >= 0) in the passband, the decaying one
    # outside.
    with np.errstate(divide="ignore", invalid="ignore"):
        z_fwd = b / (np.exp(-1j * kd) - a)
        z_bwd = b / (np.exp(+1j * kd) - a)
    in_band = np.abs(kd.imag) < 1e-9
    use_bwd = in_band & (z_fwd.real < 0) & (z_bwd.real >= 0)
    z_bloch = np.where(use_bwd, z_bwd, z_fwd)
    return {"kd": kd, "z_bloch": z_bloch}
