"""Two-port ABCD analysis of finite resonator arrays.

The chain is cascaded element by element: series coupling capacitors
alternating with shunt LC branches (internal loss folded in as a parallel
conductance per resonator).  S-parameters, referenced to the real port
impedance of the spec, need a matched output port: an open-mirror chain's
response comes from the dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (ArraySpec, Chain, UnitCellParams, ValidationError,
                     _require, count, write_csv)


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
        return _db(self.s21)

    def group_delay(self) -> np.ndarray:
        """Group delay -d arg(s21)/d omega, seconds."""
        phase = np.unwrap(np.angle(self.s21))
        return -np.gradient(phase, self.freq_grid)

    def to_csv(self, path) -> None:
        write_csv(path, "omega_rad_s,s21_re,s21_im,s11_re,s11_im",
                  [self.freq_grid, self.s21.real, self.s21.imag,
                   self.s11.real, self.s11.imag])

    @classmethod
    def from_csv(cls, path) -> "TwoPortResponse":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(freq_grid=data[:, 0],
                   s21=data[:, 1] + 1j * data[:, 2],
                   s11=data[:, 3] + 1j * data[:, 4])


def default_grid(cell: UnitCellParams, n_points: int = 2001) -> np.ndarray:
    """Default frequency grid spanning both bandedges with margin."""
    n_points = count(n_points, "n_points", 1)
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


def _cascade(chain: Chain, freq_grid, cells=None):
    """Rows (a, b/i, c/i, d) of the chain's ABCD matrix over 2**exp, and exp,
    each of shape ``chain.l.shape[:-1] + freq_grid.shape``: one row per
    stacked realization when ``chain.l`` is 2-D.  The rows are real when the
    chain is lossless; _abcd_rows gives (a, b, c, d).

    From the input port, each coupler right-multiplies by [[1, z], [0, 1]]
    and each resonator by [[1, 0], [y, 1]].  The loop keeps (a, b/i, c/i, d):
    with zh = z/i = -1/(wC) a coupler does b/i += a*zh and d -= (c/i)*zh;
    with yh = y/i a resonator does a -= (b/i)*yh and c/i += d*yh.  Each
    product and sum is the one the complex update computes, so the entries
    are bit for bit the same.

    ``cells`` (private; default all) is a run of cells to cascade from the
    identity, cell i being coupler i then resonator i and the last coupler
    a cell of its own.

    Past _RESCALE_ABOVE every point is scaled to a peak in [0.5, 1) by a power
    of two, which is exact: no bit changes where the plain product is finite.
    The entries are searched only once a bound on them passes the threshold:
    an element multiplies the largest entry by at most 1 + max|zh| or
    1 + max|yh|, so no entry passes the threshold unseen, and a cascade
    makes a few searches rather than one per element.
    """
    w = np.asarray(freq_grid, dtype=float)
    if not w.size or np.any(w <= 0):
        raise ValidationError("frequency grid must be non-empty, avoid DC "
                              "and be positive")
    lossy = math.isfinite(chain.q_internal)
    g_loss = chain.g_loss
    m = np.zeros((4, *chain.l.shape[:-1], w.size),
                 dtype=complex if lossy else float)
    m[0] = m[3] = 1.0
    exp = np.zeros(m.shape[1:], dtype=int)
    bound = 1.0     # no entry is larger in magnitude
    a, bh, ch, d = m
    parts = m.view(float).reshape(*m.shape, -1)
    w_lo, w_hi = w.min(), w.max()
    y_bound = (w_hi * chain.c_shunt
               + 1.0 / (w_lo * np.atleast_2d(chain.l).min(axis=0))
               + np.atleast_2d(g_loss).max(axis=0))

    def rescale():
        peak = np.abs(m).max(axis=0)
        top = peak.max()
        if top <= _RESCALE_ABOVE:
            return top
        _, e = np.frexp(peak)
        np.ldexp(parts, -e[..., None], out=parts)
        np.add(exp, e, out=exp)
        return 1.0

    for i in range(chain.couplers.size) if cells is None else cells:
        cap = chain.couplers[i]
        zh = -1.0 / (w * cap)
        bh += a * zh
        d -= ch * zh
        bound *= 1.0 + 1.0 / (w_lo * cap)
        if i < chain.n_resonators:
            yh = w * chain.c_shunt[i] - 1.0 / (w * chain.l[..., i, None])
            if lossy:
                yh = yh - 1j * g_loss[..., i, None]
            a -= bh * yh
            ch += d * yh
            bound *= 1.0 + y_bound[i]
        if bound > _RESCALE_ABOVE:
            bound = rescale()
    return m, exp


def _abcd_rows(m: np.ndarray) -> np.ndarray:
    """(a, b, c, d) as complex from _cascade's rows (a, b/i, c/i, d); a
    complex ``m`` is converted in place."""
    m = m.astype(complex, copy=False)
    m[1:3] *= 1j
    return m


def _db(s21: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.abs(s21))


# The refusal of every S-parameter reader, here and in the state space.
_TWO_PORT_ONLY = ("S-parameters need a matched output port, not an open "
                  "mirror (simulate the dynamics instead)")


def _two_port(chain: Chain) -> Chain:
    """``chain``; ValidationError unless its output is a matched port."""
    _require(chain.matched_out, _TWO_PORT_ONLY)
    return chain


def _end_scorer(start: Chain, freq_grid, n: int):
    """s21_db(chain): |S21| in dB on ``freq_grid`` of a lowered chain of one
    realization and at least 2n resonators, ``cascade_abcd(chain,
    freq_grid).s21_db`` up to rounding.  ``start``, the chain a search starts
    from, is checked once for a matched output, before any candidate: a
    search scores a candidate that raises as 1e3.

    With the chain's product split as L M R (L its first n cells, R its last
    n cells and last coupler), S21 = 2/D with D = (1, z0) L M R (1, 1/z0)^T.
    The row p = (1, z0) L and the column q = R (1, 1/z0)^T walk their ends
    together as x = (p0, q1) and v = (p1, q0), row 0 from the input port and
    row 1 from the output port: a coupler z does v += x*z, a resonator y
    does x += v*y.  M is cascaded by _cascade only when its element values
    are neither of the last two it was cascaded for, so a two-point Jacobian
    that moves the middle and back finds its base point's middle kept.
    """
    _two_port(start)
    w = np.asarray(freq_grid, dtype=float)
    cells = np.arange(n)
    middles = {}    # element values -> (rows, exp), the last two cascaded

    def s21_db(chain: Chain) -> np.ndarray:
        size = chain.n_resonators
        mid = slice(n, size - n)
        values = (chain.c_shunt[mid].tobytes(), chain.l[mid].tobytes(),
                  chain.couplers[mid].tobytes(), chain.q_internal)
        if values not in middles:
            m, exp = _cascade(chain, w, cells=range(n, size - n))
            middles[values] = _abcd_rows(m), exp
            if len(middles) > 2:
                del middles[next(iter(middles))]
        (a, b, c, d), exp = middles[values]
        ends = np.array([cells, size - 1 - cells])[..., None]
        z = np.zeros((2, n, w.size), dtype=complex)
        z.imag = -1.0 / (w * chain.couplers[ends + [[[0]], [[1]]]])
        y = np.empty_like(z)
        y.real = chain.g_loss[ends]
        y.imag = w * chain.c_shunt[ends] - 1.0 / (w * chain.l[ends])
        z0 = chain.port_impedance
        x = np.empty((2, w.size), dtype=complex)
        v = np.empty_like(x)
        x[0], x[1], v[0], v[1] = 1.0, 1.0 / z0, z0, 1.0
        for i in range(n):
            v += x * z[:, i]
            x += v * y[:, i]
        v[1] += x[1] * (1j * (-1.0 / (w * chain.couplers[size - n])))
        (p0, q1), (p1, q0) = x, v
        with np.errstate(divide="ignore", invalid="ignore"):
            s21 = np.ldexp(2.0 / np.abs(p0 * (a * q0 + b * q1)
                                        + p1 * (c * q0 + d * q1)), -exp)
        return _db(s21)
    return s21_db


def chain_abcd(spec: ArraySpec | Chain, freq_grid: np.ndarray):
    """Total ABCD matrix of the chain (port to port), per grid point; entries
    beyond the float range are +-inf."""
    m, exp = _cascade(spec.lower(), freq_grid)
    return tuple(_ldexp(_abcd_rows(m), exp))


def cascade_abcd(spec: ArraySpec | Chain,
                 freq_grid: np.ndarray) -> TwoPortResponse:
    """S21/S11 of the finite array (an ``ArraySpec`` or a lowered ``Chain``)
    between its resistive ports.  A ``Chain`` stacking R realizations gives
    S21/S11 of shape (R, len(freq_grid)), row k that of realization k alone.

    Both are read straight off _cascade's rows (a, b/i, c/i, d): S21 = 2/D
    and S11 = N/D, D and N = (a +- d) + i (b/i / z0 +- c/i z0), real up to
    D and N for a lossless chain.  Grid points where the conversion is
    singular yield NaN; an open-mirror chain raises ValidationError.
    """
    chain = _two_port(spec.lower())
    (a, bh, ch, d), exp = _cascade(chain, freq_grid)
    z0 = chain.port_impedance
    # times 1/z0, as numpy divides a complex b by a real z0: a lossless
    # chain's S-parameters are those of its complex (a, b, c, d) bit for bit
    bh, ch = bh * (1.0 / z0), ch * z0
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = (a + d) + 1j * (bh + ch)
        return TwoPortResponse(np.asarray(freq_grid, dtype=float),
                               _ldexp(2.0 / denom, -exp),
                               ((a - d) + 1j * (bh - ch)) / denom)


def unit_cell_abcd(cell: UnitCellParams, freq_grid: np.ndarray):
    """ABCD of one periodic cell (series coupler followed by shunt branch),
    [[1, z], [0, 1]] [[1, 0], [y, 1]] = [[1 + z y, z], [y, 1]]: cell 0 of
    the one-resonator chain, cascaded by _cascade, in the grid's shape."""
    w = np.asarray(freq_grid, dtype=float)
    chain = Chain(c_shunt=np.array([cell.c0]), l=np.array([cell.l0]),
                  couplers=np.full(2, cell.cg), q_internal=cell.q_internal)
    rows = _abcd_rows(_cascade(chain, w.ravel(), cells=range(1))[0])
    return tuple(rows.reshape(4, *w.shape))


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
