"""Monte-Carlo analysis of resonator-frequency disorder.

Per-cell resonance frequencies are drawn Gaussian around each cell's nominal
value; disorder enters the inductances only (fixed shunt capacitance), the
dominant fabrication channel.  The module computes the transmission
extinction versus sigma/J, extracts normal-mode frequencies from passband
ripple maxima, and calibrates the Delta_FSR -> sigma map used to infer the
disorder of a measured device.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.signal

from .abcd import cascade_abcd
from .bands import band_edges, tight_binding
from .params import (ArraySpec, BoundaryCellParams, Chain, UnitCellParams,
                     ValidationError)

logger = logging.getLogger(__name__)

# Ripple-peak prominence threshold in dB; taper floors can be as shallow as
# 0.01 dB so this must sit well below typical mode contrast.
PEAK_PROMINENCE_DB = 0.005

# Frequency samples across the passband for ensemble transmission scans.
SCAN_GRID_POINTS = 2001


@dataclass(frozen=True)
class DisorderEnsembleResult:
    sigma_over_j: np.ndarray
    mean_extinction_db: np.ndarray
    std_extinction_db: np.ndarray
    stderr_db: np.ndarray          # bootstrap standard error of the mean
    n_realizations: int
    seed: int

    def to_csv(self, path) -> None:
        np.savetxt(path, np.column_stack([self.sigma_over_j,
                                          self.mean_extinction_db,
                                          self.stderr_db]),
                   delimiter=",", header="sigma_over_j,mean_ext_db,stderr_db",
                   comments="", fmt="%.12e")


@dataclass(frozen=True)
class FsrReport:
    mode_freqs: np.ndarray   # rad/s, ripple maxima in the central half-band
    delta_fsr: float         # rad/s, std of adjacent spacings
    calibration: dict = None  # optional sigma -> mean Delta_FSR map


@dataclass(frozen=True)
class SigmaCalibration:
    sigma_grid: np.ndarray          # rad/s
    mean_delta_fsr: np.ndarray      # rad/s
    stderr_delta_fsr: np.ndarray    # rad/s
    sigma_estimate: float           # rad/s, inverted from the measurement
    monotone: bool                  # full grid monotone; else inversion was
                                    # restricted to the increasing prefix

    def to_csv(self, path) -> None:
        np.savetxt(path, np.column_stack([self.sigma_grid,
                                          self.mean_delta_fsr]),
                   delimiter=",",
                   header="sigma_rad_s,mean_delta_fsr_rad_s",
                   comments="", fmt="%.12e")


def _normal(key, n: int) -> np.ndarray:
    """n standard-normal draws from the substream ``key``."""
    return np.random.default_rng(np.random.SeedSequence(key)).standard_normal(n)


def _shifted(chain: Chain, offsets) -> Chain:
    """The chain with resonance i moved by offsets[i] (rad/s).

    Shunt capacitances stay fixed, so only the inductances change; a
    non-positive frequency raises.
    """
    w = 1.0 / np.sqrt(chain.l * chain.c_shunt) + offsets
    if np.any(w <= 0):
        raise ValidationError("non-positive disordered frequency")
    return replace(chain, l=1.0 / (w * w * chain.c_shunt))


def sample_disordered(spec: ArraySpec, sigma: float, rng_seed) -> ArraySpec:
    """One disorder realization; ``sigma = 0`` returns the spec unchanged.

    Frequencies are drawn N(omega_nominal, sigma^2) from the substream
    ``rng_seed``; a non-positive draw raises ``ValidationError``.  All but one
    mid-array resonator become boundary cells, with the couplers (bend
    included) baked in, so the result carries ``bend=None``.
    """
    if sigma < 0:
        raise ValidationError("sigma must be non-negative")
    if sigma == 0.0:
        return spec
    chain = spec.lower()
    chain = _shifted(chain, sigma * _normal(rng_seed, chain.n_resonators))
    c, l, k = chain.c_shunt.tolist(), chain.l.tolist(), chain.couplers.tolist()
    mid = len(c) // 2
    cells_in = [BoundaryCellParams(c_shunt=c[i], c_left=k[i], c_right=k[i + 1],
                                   l0=l[i]) for i in range(mid)]
    interior = UnitCellParams(c0=c[mid], cg=spec.interior.cg, l0=l[mid],
                              q_internal=spec.interior.q_internal)
    # from the output port inward
    cells_out = [BoundaryCellParams(c_shunt=c[j], c_left=k[j + 1],
                                    c_right=k[j], l0=l[j])
                 for j in range(len(c) - 1, mid, -1)]
    return replace(spec, interior=interior, interior_count=1,
                   boundary_in=tuple(cells_in), boundary_out=tuple(cells_out),
                   bend=None)


def _passband_grid(spec: ArraySpec, fraction: float = 1.0) -> np.ndarray:
    lo, hi = band_edges(spec.interior)
    center, half = 0.5 * (lo + hi), 0.5 * fraction * (hi - lo)
    return np.linspace(center - half, center + half, SCAN_GRID_POINTS)


# Fraction of the band scored by the extinction statistic; the central half
# avoids edge rolloff so the clean lossless array sits at ~0 dB.
EXTINCTION_BAND_FRACTION = 0.5


def _mean_passband_db(chain: Chain, grid: np.ndarray) -> float:
    """Mean transmitted power over the grid, in dB (linear average)."""
    p = np.abs(cascade_abcd(chain, grid).s21) ** 2
    return float(10.0 * np.log10(np.mean(p)))


def _bootstrap_stderr(values: np.ndarray, rng: np.random.Generator,
                      n_boot: int = 200) -> float:
    n = values.size
    means = np.empty(n_boot)
    for b in range(n_boot):
        means[b] = values[rng.integers(0, n, n)].mean()
    return float(means.std(ddof=1))


def extinction_curve(spec: ArraySpec, sigma_over_j, n_realizations: int,
                     seed: int, threads: int = None) -> DisorderEnsembleResult:
    """Mean passband transmission versus sigma/J over a seeded ensemble.

    Realization i draws its standard-normal offsets from the substream
    (seed, i) once and rescales them for every sigma, so the curve is both
    reproducible and variance-reduced across the grid.  Realizations run
    serially; ``threads`` is accepted for compatibility and does not change
    the result.
    """
    sigma_over_j = np.asarray(sigma_over_j, dtype=float)
    if n_realizations < 1:
        raise ValidationError("n_realizations must be >= 1")
    j = tight_binding(spec.interior)["j_tb"]
    grid = _passband_grid(spec, EXTINCTION_BAND_FRACTION)
    chain = spec.lower()

    ext = np.empty((n_realizations, sigma_over_j.size))
    for i in range(n_realizations):
        z = _normal((seed, i), chain.n_resonators)
        for si, soj in enumerate(sigma_over_j):
            ext[i, si] = _mean_passband_db(_shifted(chain, soj * j * z), grid)
    boot_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB0075)))
    stderr = np.array([_bootstrap_stderr(ext[:, si], boot_rng)
                       for si in range(sigma_over_j.size)])
    return DisorderEnsembleResult(
        sigma_over_j=sigma_over_j,
        mean_extinction_db=ext.mean(axis=0),
        std_extinction_db=ext.std(axis=0, ddof=1) if n_realizations > 1
        else np.zeros(sigma_over_j.size),
        stderr_db=stderr,
        n_realizations=n_realizations, seed=seed)


def fsr_variance(response, band=None) -> FsrReport:
    """Normal-mode statistics from the ripple maxima of a transmission scan.

    Peaks with >= 0.005 dB prominence are refined by quadratic interpolation;
    the spacing statistic uses only peaks in the central half of the band.
    ``band`` is the (lower, upper) passband edge pair; when omitted the span
    between the outermost extracted peaks stands in for it.
    """
    db = response.s21_db
    freq = response.freq_grid
    idx, _ = scipy.signal.find_peaks(db, prominence=PEAK_PROMINENCE_DB)
    if idx.size < 4:
        raise ValidationError("fewer than 4 ripple peaks found")
    # quadratic refinement through the three samples around each maximum
    refined = []
    for i in idx:
        if i == 0 or i == db.size - 1:
            refined.append(freq[i])
            continue
        y0, y1, y2 = db[i - 1], db[i], db[i + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        refined.append(freq[i] + shift * (freq[i + 1] - freq[i]))
    refined = np.sort(np.asarray(refined))
    lo, hi = band if band is not None else (refined[0], refined[-1])
    center = 0.5 * (lo + hi)
    half = 0.25 * (hi - lo)
    central = refined[(refined >= center - half) & (refined <= center + half)]
    if central.size < 4:
        raise ValidationError("fewer than 4 peaks in the central half-band")
    spacings = np.diff(central)
    return FsrReport(mode_freqs=central,
                     delta_fsr=float(np.std(spacings, ddof=1)))


def _mean_delta_fsr(chain: Chain, band: tuple, sigma: float,
                    n_realizations: int, seed_key, grid: np.ndarray) -> tuple:
    def one(i):
        dchain = chain
        if sigma > 0:
            z = _normal((*seed_key, i), chain.n_resonators)
            dchain = _shifted(chain, sigma * z)
        try:
            return fsr_variance(cascade_abcd(dchain, grid), band=band).delta_fsr
        except ValidationError:
            return math.nan   # too few resolvable ripples in this realization

    vals = np.array([one(i) for i in range(n_realizations)])
    good = vals[np.isfinite(vals)]
    n_bad = n_realizations - good.size
    if n_bad:
        logger.warning("dropped %d of %d realizations with unresolvable "
                       "ripples", n_bad, n_realizations)
    if good.size < max(2, n_realizations // 2):
        raise ValidationError("too few realizations with resolvable ripples")
    return float(good.mean()), float(good.std(ddof=1) / math.sqrt(good.size))


def calibrate_sigma(measured_delta_fsr: float, spec: ArraySpec, sigma_grid,
                    n_realizations: int = 500, seed: int = 0,
                    threads: int = None) -> SigmaCalibration:
    """Empirical mean Delta_FSR(sigma) table and its monotone inversion.

    Non-monotone segments are flagged and the inversion restricted to the
    longest increasing prefix of the table.  Realizations run serially;
    ``threads`` is accepted for compatibility and does not change the result.
    """
    sigma_grid = np.asarray(sigma_grid, dtype=float)
    grid = _passband_grid(spec)
    chain, band = spec.lower(), band_edges(spec.interior)
    means = np.empty(sigma_grid.size)
    errs = np.empty(sigma_grid.size)
    for si, sig in enumerate(sigma_grid):
        means[si], errs[si] = _mean_delta_fsr(chain, band, sig, n_realizations,
                                              (seed, si), grid)
    increasing = np.diff(means) > 0
    monotone = bool(np.all(increasing))
    if monotone:
        stop = sigma_grid.size
    else:
        stop = int(np.argmin(increasing)) + 1
        logger.warning("calibration table non-monotone beyond index %d; "
                       "inversion restricted", stop - 1)
    if stop < 2:
        raise ValidationError("calibration table has no increasing segment")
    est = float(np.interp(measured_delta_fsr, means[:stop], sigma_grid[:stop]))
    return SigmaCalibration(sigma_grid=sigma_grid, mean_delta_fsr=means,
                            stderr_delta_fsr=errs, sigma_estimate=est,
                            monotone=monotone)
