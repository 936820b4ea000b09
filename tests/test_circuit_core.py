import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowline.abcd import (TwoPortResponse, bloch_analysis, cascade_abcd,
                           chain_abcd, default_grid, unit_cell_abcd)
from slowline.bands import band_edges, dispersion
from slowline.devices import untapered_device
from slowline.dynamics import _initial_state, total_energy
from slowline.fitting import fit_to_spectrum
from slowline.params import (ArraySpec, Bend, BoundaryCellParams, UnitCellParams,
                             ValidationError)
from slowline.statespace import assemble_state_space


@settings(max_examples=30, deadline=None)
@given(c0=st.floats(1e-13, 1e-12), cg=st.floats(1e-15, 5e-14),
       l0=st.floats(1e-9, 1e-8), f=st.floats(0.9, 1.05))
def test_unit_cell_reciprocity(c0, cg, l0, f):
    """Lossless reciprocal two-port: AD - BC = 1."""
    cell = UnitCellParams(c0=c0, cg=cg, l0=l0)
    w = np.array([f * cell.omega0])
    a, b, c, d = unit_cell_abcd(cell, w)
    assert abs((a * d - b * c)[0] - 1.0) < 1e-10


def test_chain_reciprocity(test_spec):
    grid = default_grid(test_spec.interior, 101)
    a, b, c, d = chain_abcd(test_spec, grid)
    scale = np.abs(a * d) + np.abs(b * c)
    assert np.max(np.abs(a * d - b * c - 1.0) / scale) < 1e-10


def test_transmission_passive(test_spec):
    resp = cascade_abcd(test_spec, default_grid(test_spec.interior))
    mag = np.abs(resp.s21)
    assert np.all(mag[np.isfinite(mag)] <= 1.0 + 1e-9)
    # lossless: |S11|^2 + |S21|^2 = 1
    total = np.abs(resp.s11) ** 2 + np.abs(resp.s21) ** 2
    assert np.max(np.abs(total[np.isfinite(total)] - 1.0)) < 1e-9


def test_stopband_suppression(test_spec):
    lo, hi = band_edges(test_spec.interior)
    resp = cascade_abcd(test_spec, np.array([0.97 * lo, 0.5 * (lo + hi), 1.02 * hi]))
    db = resp.s21_db
    assert db[1] > -1.0          # passband transparent
    assert db[0] < -20.0         # below band strongly suppressed
    assert db[2] < -20.0         # above band strongly suppressed


def test_bloch_analysis_matches_dispersion(test_spec):
    cell = test_spec.interior
    lo, hi = band_edges(cell)
    grid = np.linspace(lo * 1.001, hi * 0.999, 201)
    kd = bloch_analysis(cell, grid)["kd"]
    assert np.max(np.abs(kd.imag)) < 1e-6
    # invert: dispersion(kd) should reproduce the grid
    back = dispersion(cell, kd.real)
    assert np.max(np.abs(back - grid) / grid) < 1e-9


def test_bloch_impedance_real_in_band(test_spec):
    cell = test_spec.interior
    lo, hi = band_edges(cell)
    mid = 0.5 * (lo + hi)
    z = bloch_analysis(cell, np.array([mid]))["z_bloch"][0]
    assert z.real > 0


def test_response_csv_round_trip(tmp_path, test_spec):
    resp = cascade_abcd(test_spec, default_grid(test_spec.interior, 64))
    path = tmp_path / "resp.csv"
    resp.to_csv(path)
    back = TwoPortResponse.from_csv(path)
    np.testing.assert_allclose(back.s21, resp.s21, rtol=1e-10)


def _assert_state_space_matches_abcd(chain, cell):
    lo, hi = band_edges(cell)
    grid = np.linspace(lo * 1.001, hi * 0.999, 41)
    s_ss = assemble_state_space(chain, None).steady_state_s21(grid)
    s_abcd = cascade_abcd(chain, grid).s21
    assert np.max(np.abs(s_ss - s_abcd)) < 1e-6


def test_state_space_matches_abcd(qubit_spec_nobend):
    """Nodal steady-state S21 equals the ABCD cascade (independent methods)."""
    _assert_state_space_matches_abcd(qubit_spec_nobend, qubit_spec_nobend.interior)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 20), c_port=st.floats(5e-15, 1e-13),
       c_inner=st.floats(3e-15, 1e-14),
       bend_at=st.one_of(st.none(), st.floats(0.0, 1.0)),
       q=st.sampled_from([math.inf, 1e3, 9e4]),
       spread=st.floats(0.0, 0.05), seed=st.integers(0, 2**32 - 1))
def test_state_space_matches_abcd_random_chain(n, c_port, c_inner, bend_at,
                                               q, spread, seed):
    """The same agreement on random chains: boundary couplers, an optional
    bend, finite or infinite Q, and per-resonator disorder applied to the
    lowered chain."""
    cell = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9, q_internal=q)
    edge = BoundaryCellParams(c_shunt=cell.c0 + 2 * cell.cg - c_port - c_inner,
                              c_left=c_port, c_right=c_inner, l0=cell.l0)
    spec = ArraySpec(interior=cell, interior_count=n, boundary_in=(edge,),
                     boundary_out=(edge,),
                     bend=None if bend_at is None
                     else Bend(position=1 + int(bend_at * n), c_series=2.5e-15))
    chain = spec.lower()
    rng = np.random.default_rng(seed)
    chain = dataclasses.replace(
        chain, l=chain.l * (1.0 + spread * rng.standard_normal(chain.n_resonators)))
    _assert_state_space_matches_abcd(chain, cell)


def test_long_chain_stays_finite_and_passive():
    """5000 untapered cells: the cascade neither overflows nor loses power,
    in band or out of it."""
    spec = untapered_device(5000)
    resp = cascade_abcd(spec, default_grid(spec.interior, 401))
    assert np.all(np.isfinite(resp.s21)) and np.all(np.isfinite(resp.s11))
    total = np.abs(resp.s11) ** 2 + np.abs(resp.s21) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-9


def test_energy_conservation_lossless(qubit_spec_nobend, q1, midband):
    """Zeroed dissipation: stored energy is conserved to 1e-8 over 500 ns."""
    import scipy.linalg

    qubit = dataclasses.replace(q1, omega_ge=midband, q_intrinsic=math.inf)
    spec = dataclasses.replace(
        qubit_spec_nobend,
        interior=dataclasses.replace(qubit_spec_nobend.interior,
                                     q_internal=math.inf),
        termination_out="open_mirror")
    model = assemble_state_space(spec, qubit)
    model = dataclasses.replace(model, g=np.zeros_like(model.g))
    x = _initial_state(model)
    e0 = total_energy(model, x)
    prop = scipy.linalg.expm(model.a_matrix() * 5e-9)
    worst = 0.0
    for _ in range(100):
        x = prop @ x
        worst = max(worst, abs(total_energy(model, x) - e0) / e0)
    assert worst < 1e-8


def test_disconnected_qubit_rejected(qubit_spec_nobend, q1):
    bad = dataclasses.replace(q1, couplings={1: 0.0})
    with pytest.raises(ValidationError):
        assemble_state_space(qubit_spec_nobend, bad)


def test_fit_round_trip(test_spec):
    """Fitting the generating spec's own spectrum recovers the parameters."""
    grid = default_grid(test_spec.interior, 301)
    measured = cascade_abcd(test_spec, grid)
    perturbed = dataclasses.replace(
        test_spec, interior=dataclasses.replace(test_spec.interior,
                                                cg=5.3e-15))
    report = fit_to_spectrum(measured, perturbed, free_params=("cg",))
    assert report.converged
    assert report.residual_db_rms < 1e-6
    assert report.spec.interior.cg == pytest.approx(5.05e-15, rel=1e-6)


def test_fit_no_free_params_identity(test_spec):
    grid = default_grid(test_spec.interior, 101)
    measured = cascade_abcd(test_spec, grid)
    report = fit_to_spectrum(measured, test_spec)
    assert report.spec == test_spec
    assert report.residual_db_rms < 1e-12


def test_fit_unknown_param_rejected(test_spec):
    grid = default_grid(test_spec.interior, 11)
    measured = cascade_abcd(test_spec, grid)
    with pytest.raises(ValidationError, match="zz"):
        fit_to_spectrum(measured, test_spec, free_params=("zz",))
