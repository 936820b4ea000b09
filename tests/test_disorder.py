import math

import numpy as np
import pytest

from slowline.abcd import cascade_abcd
from slowline.bands import band_edges, tight_binding
from slowline.disorder import (EXTINCTION_BAND_FRACTION, DisorderEnsembleResult,
                               _passband_grid,
                               calibrate_sigma, extinction_curve,
                               fsr_variance, sample_disordered)
from slowline.params import ValidationError


def test_sigma_zero_identity(tapered_26):
    assert sample_disordered(tapered_26, 0.0, 1) is tapered_26


def test_negative_sigma_rejected(tapered_26):
    with pytest.raises(ValidationError):
        sample_disordered(tapered_26, -1.0, 1)


def _nominal_frequencies(spec):
    return np.array([1.0 / math.sqrt(l * c) for c, l in spec.shunt_elements()])


@pytest.mark.parametrize("sigma_scale", ["huge", "lowest_draw_negative"])
def test_nonpositive_draw_raises(tapered_26, sigma_scale):
    """A non-positive resonance frequency raises instead of being redrawn."""
    w_nom = _nominal_frequencies(tapered_26)
    if sigma_scale == "huge":
        sigma = 100.0 * w_nom.max()
    else:   # just enough to push one draw of this stream below zero
        z = np.random.default_rng(np.random.SeedSequence(1)).standard_normal(
            w_nom.size)
        sigma = 1.01 * np.min(w_nom[z < 0] / -z[z < 0])
    with pytest.raises(ValidationError):
        sample_disordered(tapered_26, sigma, 1)


def test_extinction_realizations_are_sample_disordered(tapered_26):
    """Realization i of the extinction ensemble is the passband mean of
    sample_disordered(spec, s*J, (seed, i))."""
    j = tight_binding(tapered_26.interior)["j_tb"]
    grid = _passband_grid(tapered_26, EXTINCTION_BAND_FRACTION)
    res = extinction_curve(tapered_26, [0.1], 3, seed=6)
    ext = []
    for i in range(3):
        d = sample_disordered(tapered_26, 0.1 * j, (6, i))
        ext.append(10.0 * np.log10(np.mean(np.abs(cascade_abcd(d, grid).s21) ** 2)))
    assert res.mean_extinction_db[0] == np.mean(ext)
    assert res.std_extinction_db[0] == np.std(ext, ddof=1)


def test_sample_reproducible(tapered_26):
    j = tight_binding(tapered_26.interior)["j_tb"]
    a = sample_disordered(tapered_26, 0.05 * j, 42)
    b = sample_disordered(tapered_26, 0.05 * j, 42)
    c = sample_disordered(tapered_26, 0.05 * j, 43)
    assert a == b
    assert a != c


def test_sample_preserves_topology(tapered_26):
    """Shunt capacitances and coupler chain unchanged; only L varies."""
    j = tight_binding(tapered_26.interior)["j_tb"]
    d = sample_disordered(tapered_26, 0.05 * j, 7)
    assert d.n_resonators == tapered_26.n_resonators
    np.testing.assert_allclose(
        [c for c, _ in d.shunt_elements()],
        [c for c, _ in tapered_26.shunt_elements()], rtol=1e-12)
    np.testing.assert_allclose(d.coupler_elements(),
                               tapered_26.coupler_elements(), rtol=1e-12)
    l_new = np.array([l for _, l in d.shunt_elements()])
    l_old = np.array([l for _, l in tapered_26.shunt_elements()])
    assert np.all(l_new != l_old)


def test_sample_frequency_statistics(tapered_26):
    """Ensemble mean of realized frequencies returns the nominal within 3
    sigma / sqrt(N)."""
    sigma = 0.1 * tight_binding(tapered_26.interior)["j_tb"]
    draws = []
    for i in range(40):
        d = sample_disordered(tapered_26, sigma, (77, i))
        for c, l in d.shunt_elements():
            draws.append(1.0 / math.sqrt(l * c))
    noms = [1.0 / math.sqrt(l * c) for c, l in tapered_26.shunt_elements()]
    n = len(draws)
    assert abs(np.mean(draws) - np.mean(noms)) < 3 * sigma / math.sqrt(n)


def test_bend_baked_into_realization(qubit_spec):
    j = tight_binding(qubit_spec.interior)["j_tb"]
    d = sample_disordered(qubit_spec, 0.02 * j, 5)
    assert d.bend is None
    np.testing.assert_allclose(d.coupler_elements(),
                               qubit_spec.coupler_elements(), rtol=1e-12)


def test_extinction_deterministic_and_thread_invariant(tapered_26):
    soj = np.array([0.0, 0.05, 0.1])
    a = extinction_curve(tapered_26, soj, 8, seed=3)
    b = extinction_curve(tapered_26, soj, 8, seed=3, threads=4)
    np.testing.assert_array_equal(a.mean_extinction_db, b.mean_extinction_db)
    np.testing.assert_array_equal(a.stderr_db, b.stderr_db)
    c = extinction_curve(tapered_26, soj, 8, seed=4)
    assert not np.array_equal(a.mean_extinction_db, c.mean_extinction_db)


def test_extinction_monotone_and_nonpositive(tapered_26):
    soj = np.array([0.0, 0.05, 0.1, 0.15])
    res = extinction_curve(tapered_26, soj, 30, seed=9)
    assert np.all(res.mean_extinction_db <= 1e-9)
    assert np.all(np.diff(res.mean_extinction_db) < 0)
    assert res.mean_extinction_db[0] > -0.1   # clean array ~ transparent


def test_extinction_grows_with_cell_count(tapered_26, tapered_50):
    soj = np.array([0.1])
    e26 = extinction_curve(tapered_26, soj, 30, seed=2).mean_extinction_db[0]
    e50 = extinction_curve(tapered_50, soj, 30, seed=2).mean_extinction_db[0]
    assert e50 < e26


def test_extinction_csv(tmp_path, tapered_26):
    res = extinction_curve(tapered_26, np.array([0.0, 0.1]), 4, seed=1)
    path = tmp_path / "ext.csv"
    res.to_csv(path)
    assert path.read_text().splitlines()[0] == "sigma_over_j,mean_ext_db,stderr_db"


def test_fsr_peak_extraction_clean(tapered_26):
    """Clean tapered array: extracted modes stable under grid refinement."""
    lo, hi = band_edges(tapered_26.interior)
    band = (lo, hi)
    coarse = fsr_variance(cascade_abcd(tapered_26,
                                       np.linspace(lo, hi, 2001)), band=band)
    fine = fsr_variance(cascade_abcd(tapered_26,
                                     np.linspace(lo, hi, 4001)), band=band)
    assert coarse.mode_freqs.size == fine.mode_freqs.size
    np.testing.assert_allclose(coarse.mode_freqs, fine.mode_freqs, rtol=1e-5)
    assert coarse.mode_freqs.size <= tapered_26.n_resonators
    assert coarse.delta_fsr == pytest.approx(fine.delta_fsr, rel=0.02)


def test_fsr_disorder_increases_variance(tapered_26):
    j = tight_binding(tapered_26.interior)["j_tb"]
    grid = _passband_grid(tapered_26)
    band = band_edges(tapered_26.interior)
    clean = fsr_variance(cascade_abcd(tapered_26, grid), band=band).delta_fsr
    d = sample_disordered(tapered_26, 0.05 * j, 3)
    noisy = fsr_variance(cascade_abcd(d, grid), band=band).delta_fsr
    assert noisy > 2 * clean


def test_fsr_too_few_peaks_raises(untapered_26):
    lo, hi = band_edges(untapered_26.interior)
    mid = 0.5 * (lo + hi)
    grid = np.linspace(mid * 0.999, mid * 1.001, 64)
    with pytest.raises(ValidationError):
        fsr_variance(cascade_abcd(untapered_26, grid))


def test_calibration_monotone_table(tapered_26):
    """Mean Delta_FSR strictly increasing for sigma/J in [0.02, 0.3]."""
    j = tight_binding(tapered_26.interior)["j_tb"]
    grid = np.array([0.02, 0.08, 0.3]) * j
    cal = calibrate_sigma(15e6, tapered_26, grid, n_realizations=60, seed=5,
                          threads=4)
    assert cal.monotone
    assert np.all(np.diff(cal.mean_delta_fsr) > 0)
