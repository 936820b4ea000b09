"""Monte-Carlo analysis of resonator-frequency disorder.

Per-cell resonance frequencies are drawn Gaussian around each cell's nominal
value; disorder enters the inductances only (fixed shunt capacitance), the
dominant fabrication channel.  A realization is the lowered ``Chain`` with
its inductances redrawn.  The module computes the transmission
extinction versus sigma/J, extracts normal-mode frequencies from passband
ripple maxima, and calibrates the Delta_FSR -> sigma map used to infer the
disorder of a measured device.  Both ensembles can spread their realizations
over forked worker processes (``workers.fork_map``); the results are
identical at any worker count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .abcd import TwoPortResponse, _two_port, cascade_abcd
from .bands import band_edges, tight_binding, window_grid
from .params import (ArraySpec, Chain, ValidationError, _find_peaks, _require,
                     count, write_csv)
from .workers import fork_map

logger = logging.getLogger(__name__)

# Ripple-peak prominence threshold in dB; taper floors can be as shallow as
# 0.01 dB so this must sit well below typical mode contrast.
PEAK_PROMINENCE_DB = 0.005

# Frequency samples across the passband for ensemble transmission scans.
SCAN_GRID_POINTS = 2001

# Realizations cascaded together as one stacked Chain.  On a 50-cell chain
# and a 2001-point grid each stacked realization adds about 0.4 MiB to peak
# memory; 4 runs within 5% of the fastest size (8) at half its memory and
# 1.5x faster than 1.
STACK_SIZE = 4


@dataclass(frozen=True)
class DisorderEnsembleResult:
    sigma_over_j: np.ndarray
    mean_extinction_db: np.ndarray
    std_extinction_db: np.ndarray
    stderr_db: np.ndarray          # bootstrap standard error of the mean
    n_realizations: int
    seed: int

    def to_csv(self, path) -> None:
        write_csv(path, "sigma_over_j,mean_ext_db,stderr_db",
                  [self.sigma_over_j, self.mean_extinction_db, self.stderr_db])


@dataclass(frozen=True)
class FsrReport:
    mode_freqs: np.ndarray   # rad/s, ripple maxima in the central half-band
    delta_fsr: float         # rad/s, std of adjacent spacings


@dataclass(frozen=True)
class SigmaCalibration:
    sigma_grid: np.ndarray          # rad/s
    mean_delta_fsr: np.ndarray      # rad/s
    stderr_delta_fsr: np.ndarray    # rad/s
    sigma_estimate: float           # rad/s, inverted from the measurement
    monotone: bool                  # full grid monotone; else inversion was
                                    # restricted to the increasing prefix

    def to_csv(self, path) -> None:
        write_csv(path, "sigma_rad_s,mean_delta_fsr_rad_s",
                  [self.sigma_grid, self.mean_delta_fsr])


def _sigmas(sigma) -> np.ndarray:
    """``sigma`` as a float array; raises unless every entry is finite and
    non-negative."""
    sigma = np.asarray(sigma, dtype=float)
    _require(np.all(np.isfinite(sigma) & (sigma >= 0)),
             "sigma must be non-negative and finite")
    return sigma


def _sigma_grid(sigma) -> np.ndarray:
    """``_sigmas(sigma)``, further required to be a non-empty 1-D grid."""
    sigma = _sigmas(sigma)
    _require(sigma.ndim == 1 and sigma.size > 0,
             "sigma grid must be a non-empty 1-D array")
    return sigma


def _realization(chain: Chain, sigma: float, key) -> Chain:
    """The chain with resonance i moved by sigma * z[i] (rad/s), z drawn
    standard-normal from the substream ``key``; ``sigma = 0`` returns
    ``chain`` itself.

    Shunt capacitances stay fixed, so only the inductances change; a
    non-positive frequency raises.
    """
    if sigma == 0.0:
        return chain
    z = np.random.default_rng(np.random.SeedSequence(key)).standard_normal(
        chain.n_resonators)
    w = 1.0 / np.sqrt(chain.l * chain.c_shunt) + sigma * z
    if np.any(w <= 0):
        raise ValidationError("non-positive disordered frequency")
    return replace(chain, l=1.0 / (w * w * chain.c_shunt))


def sample_disordered(spec: ArraySpec, sigma: float, rng_seed) -> Chain:
    """One disorder realization of ``spec`` as a lowered ``Chain``.

    Frequencies are drawn N(omega_nominal, sigma^2) from the substream
    ``rng_seed``, a non-negative integer or a tuple of them; a non-positive
    draw raises ``ValidationError``, as does a negative or non-finite
    ``sigma`` or any other ``rng_seed``.  ``sigma = 0`` gives the clean chain
    ``spec.lower()``.  Every coupler, the bend's included, is carried over
    unchanged.
    """
    key = (tuple(count(k, "rng_seed", 0) for k in rng_seed)
           if isinstance(rng_seed, tuple) else count(rng_seed, "rng_seed", 0))
    return _realization(spec.lower(), float(_sigmas(sigma)), key)


# Fraction of the band scored by the extinction statistic; the central half
# avoids edge rolloff so the clean lossless array sits at ~0 dB.
EXTINCTION_BAND_FRACTION = 0.5


def _stack_stats(chain: Chain, grid: np.ndarray, draws: list, stat) -> list:
    """``stat`` of each (sigma, key) realization of ``chain`` in ``draws``,
    cascaded together as one stacked ``Chain``."""
    l = np.stack([_realization(chain, sigma, key).l for sigma, key in draws])
    resp = cascade_abcd(replace(chain, l=l), grid)
    return [stat(TwoPortResponse(resp.freq_grid, s21, s11))
            for s21, s11 in zip(resp.s21, resp.s11)]


def _table(spec: ArraySpec, draws: list, fraction: float, stat,
           workers: int) -> list:
    """``stat(response)`` of each (sigma, key) realization of ``spec`` in
    ``draws``, in order, scanned on ``fraction`` of the band and cascaded
    STACK_SIZE at a time (a stack may straddle two sigmas).

    Every sigma = 0 draw is the clean chain, so it is cascaded once, ahead
    of the disordered draws, and its stat reused.  The stacks are spread by
    ``workers.fork_map`` over ``workers`` processes, so ``stat`` may be a
    closure; results and the first error come in draw order, independent of
    ``workers``.
    """
    chain = _two_port(spec.lower())
    grid = window_grid(spec.interior, fraction, SCAN_GRID_POINTS)
    todo = [d for d in draws if d[0] != 0.0]
    clean = len(todo) < len(draws)
    if clean:
        todo.insert(0, (0.0, None))

    def stack(i):
        return _stack_stats(chain, grid,
                            todo[i * STACK_SIZE:(i + 1) * STACK_SIZE], stat)

    stacks = fork_map(stack, -(-len(todo) // STACK_SIZE), workers)
    stats = iter([v for part in stacks for v in part])
    first = next(stats) if clean else None
    return [first if sigma == 0.0 else next(stats) for sigma, _ in draws]


def _mean_passband_db(resp: TwoPortResponse) -> float:
    """Mean transmitted power over the grid, in dB (linear average)."""
    p = np.abs(resp.s21) ** 2
    return float(10.0 * np.log10(np.mean(p)))


def _bootstrap_stderr(values: np.ndarray, rng: np.random.Generator,
                      n_boot: int = 200) -> float:
    draws = rng.integers(0, values.size, (n_boot, values.size))
    return float(values[draws].mean(axis=1).std(ddof=1))


def extinction_curve(spec: ArraySpec, sigma_over_j, n_realizations: int,
                     seed: int, workers: int = 1) -> DisorderEnsembleResult:
    """Mean passband transmission versus sigma/J over a seeded ensemble.

    Realization i at every sigma is ``sample_disordered(spec, sigma, (seed,
    i))``: the same standard-normal draws rescaled, so the curve is both
    reproducible and variance-reduced across the grid, and ``sigma = 0``
    scores the clean chain.  ``sigma_over_j`` must be a non-empty 1-D grid
    of finite values >= 0, ``n_realizations`` at least 1, ``seed`` a
    non-negative integer and ``workers`` (forked processes) at least 1; all
    are checked before any cascade.  The result does not depend on
    ``workers``.
    """
    sigma_over_j = _sigma_grid(sigma_over_j)
    n_realizations = count(n_realizations, "n_realizations", 1)
    seed = count(seed, "seed", 0)
    workers = count(workers, "workers", 1)
    j = tight_binding(spec.interior)["j_tb"]
    draws = [(soj * j, (seed, i)) for i in range(n_realizations)
             for soj in sigma_over_j]
    ext = np.reshape(_table(spec, draws, EXTINCTION_BAND_FRACTION,
                            _mean_passband_db, workers), (n_realizations, -1))
    boot_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB0075)))
    stderr = np.array([_bootstrap_stderr(col, boot_rng) for col in ext.T])
    return DisorderEnsembleResult(
        sigma_over_j=sigma_over_j,
        mean_extinction_db=ext.mean(axis=0),
        std_extinction_db=ext.std(axis=0, ddof=1) if n_realizations > 1
        else np.zeros(sigma_over_j.size),
        stderr_db=stderr,
        n_realizations=n_realizations, seed=seed)


def fsr_variance(response, band=None) -> FsrReport:
    """Normal-mode statistics from the ripple maxima of a transmission scan.

    Peaks of |S21| in dB with >= 0.005 dB prominence are refined by
    quadratic interpolation; the spacing statistic uses only peaks in the
    central half of the band.  Peaks and prominences are as SciPy's
    ``find_peaks(x, prominence=...)`` defines them.
    ``band`` is the (lower, upper) passband edge pair; when omitted the span
    between the outermost extracted peaks stands in for it.
    """
    _require(np.ndim(response.s21) == 1,
             "fsr_variance takes one response, not a stack")
    db = response.s21_db
    freq = response.freq_grid
    idx = _find_peaks(db, PEAK_PROMINENCE_DB)
    if idx.size < 4:
        raise ValidationError("fewer than 4 ripple peaks found")
    # quadratic refinement through the three samples around each maximum
    # (a peak is never the first or last sample)
    y0, y1, y2 = db[idx - 1], db[idx], db[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = np.divide(0.5 * (y0 - y2), denom, out=np.zeros(idx.size),
                      where=denom != 0)
    refined = np.sort(freq[idx] + shift * (freq[idx + 1] - freq[idx]))
    lo, hi = band if band is not None else (refined[0], refined[-1])
    center = 0.5 * (lo + hi)
    half = 0.25 * (hi - lo)
    central = refined[(refined >= center - half) & (refined <= center + half)]
    if central.size < 4:
        raise ValidationError("fewer than 4 peaks in the central half-band")
    spacings = np.diff(central)
    return FsrReport(mode_freqs=central,
                     delta_fsr=float(np.std(spacings, ddof=1)))


def calibrate_sigma(measured_delta_fsr: float, spec: ArraySpec, sigma_grid,
                    n_realizations: int = 500, seed: int = 0,
                    workers: int = 1) -> SigmaCalibration:
    """Empirical mean Delta_FSR(sigma) table and its monotone inversion.

    Realization i at ``sigma_grid[k]`` is ``sample_disordered(spec,
    sigma_grid[k], (seed, k, i))``; ``sigma = 0`` gives the clean chain.
    ``sigma_grid`` must be a non-empty 1-D grid of finite values >= 0,
    ``n_realizations`` at least 2, ``seed`` a non-negative integer and
    ``workers`` (forked processes, as in ``extinction_curve``) at least 1;
    all are checked before any cascade.  A realization with unresolvable
    ripples is dropped from its sigma's mean, with a warning.  Non-monotone
    segments are flagged and the inversion restricted to the longest
    increasing prefix of the table; a measurement outside that prefix's
    range of Delta_FSR raises ``ValidationError``.
    """
    sigma_grid = _sigma_grid(sigma_grid)
    n_realizations = count(n_realizations, "n_realizations", 2)
    seed = count(seed, "seed", 0)
    workers = count(workers, "workers", 1)
    band = band_edges(spec.interior)

    def delta_fsr(resp):
        try:
            return fsr_variance(resp, band=band).delta_fsr
        except ValidationError:
            return math.nan   # too few resolvable ripples in this realization

    draws = [(sig, (seed, si, i)) for si, sig in enumerate(sigma_grid)
             for i in range(n_realizations)]
    table = np.reshape(_table(spec, draws, 1.0, delta_fsr, workers),
                       (sigma_grid.size, -1))
    means, errs = np.empty((2, sigma_grid.size))
    for si, vals in enumerate(table):
        good = vals[np.isfinite(vals)]
        n_bad = n_realizations - good.size
        if n_bad:
            logger.warning("dropped %d of %d realizations with unresolvable "
                           "ripples", n_bad, n_realizations)
        if good.size < max(2, n_realizations // 2):
            raise ValidationError("too few realizations with resolvable ripples")
        means[si] = good.mean()
        errs[si] = good.std(ddof=1) / math.sqrt(good.size)
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
    _require(means[0] <= measured_delta_fsr <= means[stop - 1],
             f"measured Delta_FSR {measured_delta_fsr:.6g} rad/s is outside "
             f"the calibrated range [{means[0]:.6g}, {means[stop - 1]:.6g}] "
             "rad/s")
    est = float(np.interp(measured_delta_fsr, means[:stop], sigma_grid[:stop]))
    return SigmaCalibration(sigma_grid=sigma_grid, mean_delta_fsr=means,
                            stderr_delta_fsr=errs, sigma_estimate=est,
                            monotone=monotone)
