import math

import numpy as np
import pytest

from slowline.bands import (DEFAULT_LATTICE_CONSTANT, band_edges, bandwidth,
                            coupling_spectrum, delay_metrics, dispersion,
                            dispersion_curve, group_velocity, tight_binding)
from slowline.params import UnitCellParams, ValidationError
from slowline.statespace import assemble_state_space

CELL = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9)


def test_dispersion_band_limits():
    lo, hi = band_edges(CELL)
    assert dispersion(CELL, 0.0) == pytest.approx(hi)
    assert dispersion(CELL, math.pi) == pytest.approx(lo)
    assert hi == pytest.approx(CELL.omega0)
    assert lo == pytest.approx(CELL.omega0 / math.sqrt(1 + 4 * CELL.coupling_ratio))
    assert bandwidth(CELL) == pytest.approx(hi - lo)


def test_dispersion_monotone_decreasing():
    kd = np.linspace(0, math.pi, 200)
    w = dispersion(CELL, kd)
    assert np.all(np.diff(w) < 0)


def test_dispersion_outside_bz_rejected():
    with pytest.raises(ValidationError):
        dispersion(CELL, 3.5)


def test_group_velocity_negative_in_band():
    kd = np.linspace(0.01, math.pi - 0.01, 100)
    assert np.all(group_velocity(CELL, kd) < 0)
    # finite-difference cross-check
    h = 1e-7
    kd0 = 1.1
    fd = (dispersion(CELL, kd0 + h) - dispersion(CELL, kd0 - h)) / (2 * h)
    assert group_velocity(CELL, kd0) == pytest.approx(float(fd), rel=1e-6)


def test_tight_binding_conventions():
    tb = tight_binding(CELL)
    assert tb["j_tb"] == pytest.approx(CELL.omega0 * CELL.cg / (2 * CELL.c0))
    assert tb["j_exact"] == pytest.approx(
        0.5 * CELL.omega0 * CELL.cg / (CELL.c0 + CELL.cg))
    # same to first order in cg/c0
    assert tb["j_tb"] == pytest.approx(tb["j_exact"], rel=2 * CELL.coupling_ratio)


def test_coupling_spectrum_reconstructs_dispersion():
    """The V(n) cosine series resums to omega(k) (discrete Parseval check)."""
    cs = coupling_spectrum(CELL, m_cells=2001, max_distance=40)
    kd = np.linspace(-math.pi, math.pi, 101)
    w = cs.v[0] + 2.0 * np.sum(
        [cs.v[n] * np.cos(n * kd) for n in range(1, cs.distance.size)], axis=0)
    assert np.max(np.abs(w - dispersion(CELL, kd)) / CELL.omega0) < 1e-6


def test_nearest_neighbour_coupling_is_j():
    cs = coupling_spectrum(CELL)
    j = tight_binding(CELL)["j_tb"]
    assert abs(cs.v[1]) == pytest.approx(j, rel=0.05)
    # couplings fall off quickly with distance
    assert abs(cs.v[3]) < abs(cs.v[1])


def test_coupling_spectrum_validation():
    with pytest.raises(ValidationError):
        coupling_spectrum(CELL, m_cells=2000)
    with pytest.raises(ValidationError):
        coupling_spectrum(CELL, m_cells=11, max_distance=10)
    with pytest.raises(ValidationError):
        coupling_spectrum(CELL, m_cells=21, max_distance=-1)


@pytest.mark.parametrize("m_cells, max_distance, name", [
    (21, 2.5, "max_distance"), (21.5, 2, "m_cells"), (True, 0, "m_cells"),
    (21, True, "max_distance")], ids=["21-2.5", "21.5-2", "True-0", "21-True"])
def test_coupling_spectrum_needs_integer_sizes(m_cells, max_distance, name):
    """Fractional or bool sizes raise, naming the size, rather than being
    rounded up by np.arange (21 cells at distance 2.5 would give four
    distances)."""
    with pytest.raises(ValidationError, match=f"{name}: expected an integer"):
        coupling_spectrum(CELL, m_cells=m_cells, max_distance=max_distance)


def test_finite_array_convergence():
    """N-cell eigenfrequencies approach dispersion samples as N grows."""
    from slowline.devices import untapered_device

    def max_dev(n):
        spec = untapered_device(n)
        model = assemble_state_space(spec, None)
        freqs = np.sort(model.lossless_eigenfrequencies())
        kd = np.arange(1, n + 1) * math.pi / (n + 1)
        target = np.sort(dispersion(spec.interior, kd))
        return np.max(np.abs(freqs - target) / target)

    devs = [max_dev(n) for n in (11, 21, 41)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-3


def test_delay_metrics(test_spec):
    m = delay_metrics(test_spec.interior, 26)
    vg = abs(group_velocity(test_spec.interior, math.pi / 2))
    assert m["delay_per_cell_s"] == pytest.approx(1.0 / vg)
    assert m["total_mid_band_delay_s"] == pytest.approx(26 / vg)
    assert m["delay_per_length_s_per_m"] == pytest.approx(
        1.0 / vg / DEFAULT_LATTICE_CONSTANT)
    # slow-light advantage over a lambda/4 CPW section per cell
    j = tight_binding(test_spec.interior)["j_exact"]
    assert m["ratio_to_cpw"] == pytest.approx(test_spec.interior.omega0 / j)
    assert m["ratio_to_cpw"] > 50


def test_dispersion_curve_csv(tmp_path):
    curve = dispersion_curve(CELL, 11)
    path = tmp_path / "d.csv"
    curve.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "k_per_d,omega_rad_s"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (11, 2)
