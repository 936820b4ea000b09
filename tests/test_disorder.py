import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from slowline.abcd import cascade_abcd
from slowline.bands import band_edges, tight_binding, window_grid
from slowline.disorder import (EXTINCTION_BAND_FRACTION, PEAK_PROMINENCE_DB,
                               SCAN_GRID_POINTS, DisorderEnsembleResult,
                               _bootstrap_stderr, calibrate_sigma,
                               extinction_curve, fsr_variance,
                               sample_disordered)
from slowline.params import (ArraySpec, BoundaryCellParams, UnitCellParams,
                             ValidationError)


NON_FINITE = (math.nan, math.inf, -math.inf)


def _forbid_cascade(monkeypatch):
    import slowline.disorder as disorder

    def no_cascade(*args, **kwargs):
        raise AssertionError("cascade run before the inputs were checked")

    monkeypatch.setattr(disorder, "cascade_abcd", no_cascade)


def test_sigma_zero_identity(tapered_26):
    d, clean = sample_disordered(tapered_26, 0.0, 1), tapered_26.lower()
    for name in ("c_shunt", "l", "couplers"):
        np.testing.assert_array_equal(getattr(d, name), getattr(clean, name))


def test_negative_sigma_rejected(tapered_26, monkeypatch):
    """A negative or non-finite sigma raises, in extinction_curve before
    any cascade."""
    _forbid_cascade(monkeypatch)
    for sigma in (-1.0, *NON_FINITE):
        with pytest.raises(ValidationError,
                           match="sigma must be non-negative and finite"):
            sample_disordered(tapered_26, sigma, 1)
        with pytest.raises(ValidationError,
                           match="sigma must be non-negative and finite"):
            extinction_curve(tapered_26, [0.1, sigma], 2, seed=0)


def test_seeded_stream_pinned(test_spec):
    """Realizations are drawn from the seeded substream they always were."""
    j = tight_binding(test_spec.interior)["j_tb"]
    l = sample_disordered(test_spec, 0.05 * j, (7, 3)).lower().l
    assert l[0] == 3.154319638654602e-09
    assert l[12] == 3.1493059969092063e-09
    assert l[25] == 3.1479016837200367e-09


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
    sample_disordered(spec, s*J, (seed, i)); one realization has zero
    spread."""
    j = tight_binding(tapered_26.interior)["j_tb"]
    grid = window_grid(tapered_26.interior, EXTINCTION_BAND_FRACTION,
                       SCAN_GRID_POINTS)
    soj = [0.05, 0.1]
    for n in (3, 1):
        res = extinction_curve(tapered_26, soj, n, seed=6)
        for k, s in enumerate(soj):
            ext = []
            for i in range(n):
                d = sample_disordered(tapered_26, s * j, (6, i))
                ext.append(10.0 * np.log10(np.mean(
                    np.abs(cascade_abcd(d, grid).s21) ** 2)))
            assert res.mean_extinction_db[k] == np.mean(ext)
            assert res.std_extinction_db[k] == (np.std(ext, ddof=1) if n > 1
                                                else 0.0)


def test_sample_reproducible(tapered_26):
    j = tight_binding(tapered_26.interior)["j_tb"]
    a = sample_disordered(tapered_26, 0.05 * j, 42)
    b = sample_disordered(tapered_26, 0.05 * j, 42)
    c = sample_disordered(tapered_26, 0.05 * j, 43)
    np.testing.assert_array_equal(a.l, b.l)
    assert not np.array_equal(a.l, c.l)


def test_sample_preserves_topology(tapered_26):
    """Shunt capacitances and coupler chain unchanged; only L varies."""
    j = tight_binding(tapered_26.interior)["j_tb"]
    d, clean = sample_disordered(tapered_26, 0.05 * j, 7), tapered_26.lower()
    assert d.n_resonators == tapered_26.n_resonators
    np.testing.assert_allclose(d.c_shunt, clean.c_shunt, rtol=1e-12)
    np.testing.assert_allclose(d.couplers, clean.couplers, rtol=1e-12)
    assert np.all(d.l != clean.l)


def test_sample_frequency_statistics(tapered_26):
    """Ensemble mean of realized frequencies returns the nominal within 3
    sigma / sqrt(N)."""
    sigma = 0.1 * tight_binding(tapered_26.interior)["j_tb"]
    draws = []
    for i in range(40):
        d = sample_disordered(tapered_26, sigma, (77, i))
        draws.extend(1.0 / np.sqrt(d.l * d.c_shunt))
    noms = [1.0 / math.sqrt(l * c) for c, l in tapered_26.shunt_elements()]
    n = len(draws)
    assert abs(np.mean(draws) - np.mean(noms)) < 3 * sigma / math.sqrt(n)


def test_bend_baked_into_realization(qubit_spec):
    j = tight_binding(qubit_spec.interior)["j_tb"]
    d = sample_disordered(qubit_spec, 0.02 * j, 5)
    np.testing.assert_allclose(d.couplers,
                               qubit_spec.coupler_elements(), rtol=1e-12)


def test_two_resonator_realization_keeps_port_couplers():
    """With one interior and one 80 fF output cell the realization still
    ends on the 80 fF port coupler."""
    cell = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9)
    out = BoundaryCellParams(c_shunt=283.1e-15, c_left=80e-15,
                             c_right=5.05e-15, l0=cell.l0)
    spec = ArraySpec(interior=cell, interior_count=1, boundary_out=(out,))
    d = sample_disordered(spec, 0.05 * tight_binding(cell)["j_tb"], 4)
    assert spec.coupler_elements() == [5.05e-15, 5.05e-15, 80e-15]
    assert d.couplers.tolist() == spec.coupler_elements()


def test_extinction_deterministic(tapered_26):
    soj = np.array([0.0, 0.05, 0.1])
    a = extinction_curve(tapered_26, soj, 8, seed=3)
    b = extinction_curve(tapered_26, soj, 8, seed=3)
    np.testing.assert_array_equal(a.mean_extinction_db, b.mean_extinction_db)
    np.testing.assert_array_equal(a.stderr_db, b.stderr_db)
    c = extinction_curve(tapered_26, soj, 8, seed=4)
    assert not np.array_equal(a.mean_extinction_db, c.mean_extinction_db)


@pytest.mark.parametrize("n", [1, 2, 7, 500])
def test_bootstrap_matches_loop_reference(n):
    """One (n_boot, n) index draw equals n_boot successive draws of n."""
    def loop(values, rng, n_boot=200):
        means = np.empty(n_boot)
        for b in range(n_boot):
            means[b] = values[rng.integers(0, values.size, values.size)].mean()
        return float(means.std(ddof=1))

    v = np.random.default_rng(n).standard_normal(n)
    assert (_bootstrap_stderr(v, np.random.default_rng(3))
            == loop(v, np.random.default_rng(3)))


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
    grid = window_grid(tapered_26.interior, 1.0, SCAN_GRID_POINTS)
    band = band_edges(tapered_26.interior)
    clean = fsr_variance(cascade_abcd(tapered_26, grid), band=band).delta_fsr
    d = sample_disordered(tapered_26, 0.05 * j, 3)
    noisy = fsr_variance(cascade_abcd(d, grid), band=band).delta_fsr
    assert noisy > 2 * clean


def _fsr_per_peak(response, band):
    """Reference: fsr_variance's statistic refined one peak at a time."""
    import scipy.signal
    db, freq = response.s21_db, response.freq_grid
    idx, _ = scipy.signal.find_peaks(db, prominence=PEAK_PROMINENCE_DB)
    refined = []
    for i in idx:
        y0, y1, y2 = db[i - 1], db[i], db[i + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        refined.append(freq[i] + shift * (freq[i + 1] - freq[i]))
    refined = np.sort(np.asarray(refined))
    center, half = 0.5 * (band[0] + band[1]), 0.25 * (band[1] - band[0])
    central = refined[(refined >= center - half) & (refined <= center + half)]
    return central, float(np.std(np.diff(central), ddof=1))


def test_fsr_refinement_matches_per_peak_loop(tapered_26):
    """The vectorised peak refinement reproduces the per-peak loop exactly."""
    j = tight_binding(tapered_26.interior)["j_tb"]
    grid = window_grid(tapered_26.interior, 1.0, SCAN_GRID_POINTS)
    band = band_edges(tapered_26.interior)
    for seed in range(4):
        d = sample_disordered(tapered_26, 0.1 * j * (seed > 0), (123, seed))
        resp = cascade_abcd(d, grid)
        report = fsr_variance(resp, band=band)
        freqs, delta = _fsr_per_peak(resp, band)
        assert report.mode_freqs.tobytes() == freqs.tobytes()
        assert report.delta_fsr == delta


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
    cal = calibrate_sigma(15e6, tapered_26, grid, n_realizations=60, seed=5)
    assert cal.monotone
    assert np.all(np.diff(cal.mean_delta_fsr) > 0)


@pytest.mark.parametrize("measured", [0.0, 1e9])
def test_calibration_rejects_measurement_outside_table(tapered_26, measured):
    """A measured Delta_FSR below the table or above its increasing prefix
    raises, naming the calibrated range, instead of clamping to its end."""
    j = tight_binding(tapered_26.interior)["j_tb"]
    with pytest.raises(ValidationError, match="outside the calibrated range"):
        calibrate_sigma(measured, tapered_26, np.array([0.02, 0.3]) * j,
                        n_realizations=6, seed=5)


def _ensemble_outputs(spec, workers=1):
    """Every array a seeded extinction curve and calibration return."""
    j = tight_binding(spec.interior)["j_tb"]
    ext = extinction_curve(spec, [0.0, 0.05, 0.1], 5, seed=3, workers=workers)
    cal = calibrate_sigma(15e6, spec, np.array([0.02, 0.3]) * j,
                          n_realizations=7, seed=2, workers=workers)
    return (ext.mean_extinction_db, ext.std_extinction_db, ext.stderr_db,
            cal.mean_delta_fsr, cal.stderr_delta_fsr, cal.sigma_estimate)


@pytest.mark.parametrize("stack_size", [1, 3])
def test_results_independent_of_stack_size(tapered_26, monkeypatch,
                                           stack_size):
    """Seeded ensembles do not depend on how many realizations are cascaded
    together."""
    import slowline.disorder as disorder

    default = _ensemble_outputs(tapered_26)
    monkeypatch.setattr(disorder, "STACK_SIZE", stack_size)
    for got, want in zip(_ensemble_outputs(tapered_26), default):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("stack_size", [1, None], ids=["stack_1",
                                                        "stack_default"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_independent_of_worker_count(tapered_26, monkeypatch,
                                             workers, stack_size):
    """Seeded ensembles are bit-identical at any worker count and stack
    size, and no worker outlives the call."""
    import slowline.disorder as disorder

    serial = _ensemble_outputs(tapered_26)
    if stack_size is not None:
        monkeypatch.setattr(disorder, "STACK_SIZE", stack_size)
    for got, want in zip(_ensemble_outputs(tapered_26, workers), serial):
        assert np.array_equal(got, want)
    assert multiprocessing.active_children() == []


def test_worker_error_matches_serial(tapered_26):
    """A non-positive draw raises the same ValidationError at workers=2 as
    in-process, and the workers are gone after the raise."""
    messages = []
    for workers in (1, 2):
        with pytest.raises(ValidationError) as exc:
            extinction_curve(tapered_26, [0.0, 0.1, 1e3], 4, seed=1,
                             workers=workers)
        messages.append(str(exc.value))
        assert multiprocessing.active_children() == []
    assert messages == ["non-positive disordered frequency"] * 2


def test_workers_run_in_process_without_fork(tapered_26, monkeypatch, caplog):
    """Where fork is not a start method the ensembles run in-process, with
    one INFO record however many calls ask for workers."""
    import slowline.disorder as disorder

    serial = _ensemble_outputs(tapered_26)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    disorder._fork_context.cache_clear()
    try:
        with caplog.at_level("INFO", logger="slowline.disorder"):
            for got, want in zip(_ensemble_outputs(tapered_26, 2), serial):
                assert np.array_equal(got, want)
    finally:
        disorder._fork_context.cache_clear()
    assert [r.getMessage() for r in caplog.records
            if r.levelname == "INFO"] == [
        "fork is unavailable; disorder ensembles run in-process"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers, match", [
    (0, "workers must be >= 1, got 0"), (-1, "workers must be >= 1, got -1"),
    (1.5, "workers: expected an integer"),
    (True, "workers: expected an integer")])
def test_worker_count_must_be_a_positive_integer(tapered_26, monkeypatch,
                                                 workers, match):
    """A worker count below 1, fractional or bool raises ValidationError
    before any cascade, in both ensembles."""
    _forbid_cascade(monkeypatch)
    j = tight_binding(tapered_26.interior)["j_tb"]
    with pytest.raises(ValidationError, match=match):
        extinction_curve(tapered_26, [0.0, 0.05], 2, seed=1, workers=workers)
    with pytest.raises(ValidationError, match=match):
        calibrate_sigma(1e6, tapered_26, np.array([0.02, 0.3]) * j,
                        n_realizations=2, workers=workers)


def test_fsr_variance_rejects_stacked_response(tapered_26):
    grid = window_grid(tapered_26.interior, 1.0, SCAN_GRID_POINTS)
    chain = tapered_26.lower()
    stacked = cascade_abcd(replace(chain, l=np.stack([chain.l, chain.l])),
                           grid)
    with pytest.raises(ValidationError, match="one response"):
        fsr_variance(stacked)


def test_calibration_rejects_negative_sigma(tapered_26, monkeypatch):
    """A negative or non-finite sigma raises as in sample_disordered, before
    any cascade."""
    _forbid_cascade(monkeypatch)
    j = tight_binding(tapered_26.interior)["j_tb"]
    for bad in (-0.2, *NON_FINITE):
        with pytest.raises(ValidationError, match="sigma must be non-negative"):
            calibrate_sigma(1e6, tapered_26, [bad * j, 0.0, 0.1 * j],
                            n_realizations=4)


@pytest.mark.parametrize("grid", [0.05, [[0.0, 0.05]], []],
                         ids=["scalar", "2-D", "empty"])
def test_sigma_grid_must_be_nonempty_1d(tapered_26, monkeypatch, grid):
    """Both ensembles reject a scalar, 2-D or empty sigma grid before any
    cascade."""
    _forbid_cascade(monkeypatch)
    j = tight_binding(tapered_26.interior)["j_tb"]
    with pytest.raises(ValidationError, match="non-empty 1-D"):
        extinction_curve(tapered_26, grid, 2, seed=1)
    with pytest.raises(ValidationError, match="non-empty 1-D"):
        calibrate_sigma(1e6, tapered_26, np.multiply(grid, j),
                        n_realizations=4)


@pytest.mark.parametrize("n", [0, 1])
def test_calibration_needs_two_realizations(tapered_26, monkeypatch, n):
    """The std/sqrt(n) of the table needs two draws; fewer raise, naming
    n_realizations, before any cascade."""
    _forbid_cascade(monkeypatch)
    j = tight_binding(tapered_26.interior)["j_tb"]
    with pytest.raises(ValidationError, match="n_realizations"):
        calibrate_sigma(1e6, tapered_26, np.array([0.02, 0.3]) * j,
                        n_realizations=n)


@pytest.mark.parametrize("n", [1.5, 2.5, True])
def test_realization_counts_must_be_integers(tapered_26, monkeypatch, n):
    """A fractional or bool n_realizations raises ValidationError before any
    cascade, in both ensembles."""
    _forbid_cascade(monkeypatch)
    j = tight_binding(tapered_26.interior)["j_tb"]
    with pytest.raises(ValidationError,
                       match="n_realizations: expected an integer"):
        extinction_curve(tapered_26, [0.0, 0.05], n, seed=1)
    with pytest.raises(ValidationError,
                       match="n_realizations: expected an integer"):
        calibrate_sigma(1e6, tapered_26, np.array([0.02, 0.3]) * j,
                        n_realizations=n)


@pytest.mark.parametrize("seed, match", [
    (-1, "seed must be >= 0, got -1"), (1.5, "seed: expected an integer"),
    (True, "seed: expected an integer")])
def test_ensemble_seed_must_be_a_non_negative_integer(tapered_26, monkeypatch,
                                                      seed, match):
    """A negative, fractional or bool seed raises ValidationError before any
    cascade, in both ensembles, rather than numpy's error or seed 1."""
    _forbid_cascade(monkeypatch)
    j = tight_binding(tapered_26.interior)["j_tb"]
    with pytest.raises(ValidationError, match=match):
        extinction_curve(tapered_26, [0.0, 0.05], 2, seed=seed)
    with pytest.raises(ValidationError, match=match):
        calibrate_sigma(1e6, tapered_26, np.array([0.02, 0.3]) * j,
                        n_realizations=2, seed=seed)


@pytest.mark.parametrize("key", [-1, (1, -2), 1.5, True, (7, True)],
                         ids=str)
def test_realization_key_must_be_non_negative_integers(tapered_26, key):
    """``sample_disordered`` draws from a non-negative integer or a tuple of
    them; any other key raises ValidationError naming it, at sigma = 0 too."""
    j = tight_binding(tapered_26.interior)["j_tb"]
    for sigma in (0.0, 0.05 * j):
        with pytest.raises(ValidationError, match="rng_seed"):
            sample_disordered(tapered_26, sigma, key)


def test_calibration_warns_of_dropped_realizations(tapered_26, caplog):
    """One realization at sigma/J = 0.3 has too few resolvable ripples: it is
    dropped with one warning whose arguments are (dropped, drawn), in-process
    and with workers alike."""
    j = tight_binding(tapered_26.interior)["j_tb"]
    for workers in (1, 2):
        caplog.clear()
        with caplog.at_level("WARNING", logger="slowline.disorder"):
            calibrate_sigma(15e6, tapered_26, np.array([0.02, 0.3]) * j,
                            n_realizations=7, seed=2, workers=workers)
        assert [(r.name, r.getMessage()) for r in caplog.records] == [
            ("slowline.disorder",
             "dropped 1 of 7 realizations with unresolvable ripples")]
        assert caplog.records[0].args[:2] == (1, 7)


def test_dead_worker_raises_instead_of_hanging(tapered_26):
    """A worker that dies mid-ensemble fails the call with BrokenProcessPool
    and leaves no process behind."""
    from concurrent.futures.process import BrokenProcessPool
    import slowline.disorder as disorder
    parent = os.getpid()

    def stat(resp):
        if os.getpid() != parent:
            os._exit(1)
        return 0.0

    draws = [(0.0, (0, i)) for i in range(8)]
    with pytest.raises(BrokenProcessPool):
        disorder._table(tapered_26, draws, 1.0, stat, 2)
    assert multiprocessing.active_children() == []
