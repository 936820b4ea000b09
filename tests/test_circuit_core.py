import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowline.abcd import (TwoPortResponse, _cascade, bloch_analysis,
                           cascade_abcd, chain_abcd, default_grid,
                           unit_cell_abcd)
from slowline.bands import (band_edges, dispersion, dispersion_curve,
                            tight_binding)
from slowline.devices import qubit_device, untapered_device
from slowline.disorder import sample_disordered
from slowline.dynamics import _initial_state, total_energy
from slowline.fitting import fit_to_spectrum
from slowline.params import (ArraySpec, Bend, BoundaryCellParams, Chain,
                             UnitCellParams, ValidationError)
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


@pytest.fixture(params=["spec", "realization"])
def spec_or_realization(request, test_spec):
    """The test device, and one disorder realization of it as a Chain."""
    if request.param == "spec":
        return test_spec
    j = tight_binding(test_spec.interior)["j_tb"]
    return sample_disordered(test_spec, 0.2 * j, (5, 0))


def test_chain_reciprocity(test_spec, spec_or_realization):
    grid = default_grid(test_spec.interior, 101)
    a, b, c, d = chain_abcd(spec_or_realization, grid)
    scale = np.abs(a * d) + np.abs(b * c)
    assert np.max(np.abs(a * d - b * c - 1.0) / scale) < 1e-10


def test_transmission_passive(test_spec, spec_or_realization):
    resp = cascade_abcd(spec_or_realization, default_grid(test_spec.interior))
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


def test_steady_state_s21_keeps_the_grid_shape(test_spec):
    """A one-point grid gives shape (1,), a 2-D grid its own shape and a
    float frequency a scalar, each bit-equal to those points of a 1-D
    call."""
    model = assemble_state_space(test_spec, None)
    grid = default_grid(test_spec.interior, 5)
    full = model.steady_state_s21(grid)
    one = model.steady_state_s21(grid[2:3])
    square = model.steady_state_s21(grid[:4].reshape(2, 2))
    scalar = model.steady_state_s21(float(grid[2]))
    assert one.shape == (1,)
    assert square.shape == (2, 2)
    assert np.ndim(scalar) == 0
    assert one[0] == full[2] and scalar == full[2]
    assert np.array_equal(square.ravel(), full[:4])


@pytest.mark.parametrize("n_points", [0, -2])
def test_grids_need_a_point(test_spec, n_points):
    with pytest.raises(ValidationError, match="n_points must be >= 1"):
        default_grid(test_spec.interior, n_points)
    with pytest.raises(ValidationError, match="n_points must be >= 1"):
        dispersion_curve(test_spec.interior, n_points)


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


def _complex_cascade(chain, w):
    """Reference: the ABCD rows of one realization multiplied out in complex
    arithmetic, with the overflow check made after every element."""
    m = np.zeros((4, w.size), dtype=complex)
    m[0] = m[3] = 1.0
    a, b, c, d = m
    parts = m.view(float).reshape(4, -1, 2)
    exp = np.zeros(w.size, dtype=int)
    jw = 1j * w
    for i, cap in enumerate(chain.couplers):
        z = 1.0 / (jw * cap)
        b += a * z
        d += c * z
        if i < chain.n_resonators:
            y = (jw * chain.c_shunt[i] + 1.0 / (jw * chain.l[i])
                 + chain.g_loss[i])
            a += b * y
            c += d * y
        if parts.max() > 1e150 or parts.min() < -1e150:
            _, e = np.frexp(np.abs(m).max(axis=0))
            np.ldexp(parts, -e[:, None], out=parts)
            exp += e
    return m, exp


@pytest.mark.parametrize("n_cells", [50, 1000])
def test_real_cascade_matches_complex_reference_lossless(n_cells):
    """Lossless, the real-arithmetic cascade is the complex one bit for bit,
    on the 1000-cell chain through the overflow rescale as well."""
    spec = untapered_device(n_cells)
    grid = default_grid(spec.interior)
    m, exp = _cascade(spec.lower(), grid)
    m_ref, exp_ref = _complex_cascade(spec.lower(), grid)
    assert (exp.max() > 0) == (n_cells == 1000)
    assert np.array_equal(exp, exp_ref)
    assert np.array_equal(m, m_ref)


def test_real_cascade_matches_complex_reference_lossy(qubit_spec):
    """Lossy, the products round differently (numpy's complex multiply
    fuses them); on the qubit device with its bend the entries differ by
    1.0e-13 of each point's largest entry at most, bounded here by 1e-12."""
    grid = default_grid(qubit_spec.interior)
    m, exp = _cascade(qubit_spec.lower(), grid)
    m_ref, exp_ref = _complex_cascade(qubit_spec.lower(), grid)
    assert np.array_equal(exp, exp_ref)
    assert np.max(np.abs(m - m_ref) / np.abs(m_ref).max(axis=0)) < 1e-12


def _realizations(spec, n):
    j = tight_binding(spec.interior)["j_tb"]
    return [sample_disordered(spec, 0.1 * j * k, (11, k)) for k in range(n)]


def _stacked(realizations):
    return dataclasses.replace(realizations[0],
                               l=np.stack([r.l for r in realizations]))


@pytest.mark.parametrize("make_spec", [
    lambda: untapered_device(50),
    qubit_device,                                   # lossy, with its bend
    lambda: untapered_device(1000, q_internal=1e4),  # takes the rescale
], ids=["untapered_50", "qubit_device", "lossy_1000"])
def test_stacked_rows_equal_single_cascades(make_spec):
    """Row k of a stacked cascade is realization k cascaded alone, on the
    1000-cell chain through the overflow rescale as well."""
    spec = make_spec()
    grid = default_grid(spec.interior)
    reals = _realizations(spec, 3)
    stacked = cascade_abcd(_stacked(reals), grid)
    assert stacked.s21.shape == stacked.s11.shape == (3, grid.size)
    for k, r in enumerate(reals):
        one = cascade_abcd(r, grid)
        assert np.array_equal(stacked.s21[k], one.s21)
        assert np.array_equal(stacked.s11[k], one.s11)


def test_stacked_lossy_chain_passive(qubit_spec):
    resp = cascade_abcd(_stacked(_realizations(qubit_spec, 4)),
                        default_grid(qubit_spec.interior))
    total = np.abs(resp.s11) ** 2 + np.abs(resp.s21) ** 2
    assert np.all(np.isfinite(total))
    assert np.max(total) <= 1.0 + 1e-12


@pytest.mark.parametrize("l_shape", [(), (2, 2, 3), (3, 4), (4,)])
def test_malformed_chain_rejected(l_shape):
    """l must be (n_resonators,) or (realizations, n_resonators)."""
    with pytest.raises(ValidationError, match="Chain.l must have shape"):
        Chain(c_shunt=np.full(3, 3e-13), l=np.full(l_shape, 3e-9),
              couplers=np.full(4, 5e-15))


@pytest.mark.parametrize("name, reshape", [
    ("couplers", lambda c: c[:5]),
    ("couplers", lambda c: np.append(c, c[:1])),
    ("couplers", lambda c: c[:, None]),
    ("c_shunt", lambda c: c.reshape(2, -1)),
], ids=["5_couplers", "28_couplers", "2d_couplers", "2d_c_shunt"])
def test_chain_checks_coupler_count(test_spec, name, reshape):
    """c_shunt and couplers are 1-D, and couplers has n_resonators + 1
    entries (n_resonators for a lone unit cell): any other count describes
    a different circuit."""
    chain = test_spec.lower()
    with pytest.raises(ValidationError, match=r"Chain\.(c_shunt|couplers)"):
        dataclasses.replace(chain, **{name: reshape(getattr(chain, name))})


_BAD_VALUES = (math.inf, math.nan, 0.0, -1e-15)


@pytest.mark.parametrize("name, shape, bad", [
    pytest.param(name, shape, bad, id=f"{name}{list(shape) if shape else ''}={bad}")
    for name, shape in [("c_shunt", (3,)), ("l", (3,)), ("l", (2, 3)),
                        ("couplers", (4,)), ("port_impedance", ()),
                        ("q_internal", ()), ("cg", ())]
    for bad in _BAD_VALUES if not (name == "q_internal" and bad == math.inf)])
def test_non_positive_or_non_finite_circuit_value_rejected(name, shape, bad):
    """Every element of a lowered Chain is finite and positive (only
    q_internal takes inf), and so is a unit cell's cg: a zero series
    coupler is an open circuit."""
    if name == "cg":
        with pytest.raises(ValidationError, match="cg must be positive"):
            UnitCellParams(c0=353.2e-15, cg=bad, l0=3.151e-9)
        return
    values = np.ones(shape)     # every value good but the last
    values.flat[-1] = bad
    kw = {"c_shunt": np.full(3, 3e-13), "l": np.full(3, 3e-9),
          "couplers": np.full(4, 5e-15), name: values[()]}
    with pytest.raises(ValidationError, match=f"Chain.{name} must be"):
        Chain(**kw)


def test_state_space_rejects_stacked_chain(test_spec):
    with pytest.raises(ValidationError, match="one realization"):
        assemble_state_space(_stacked(_realizations(test_spec, 2)), None)


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


def test_fit_one_cell_template_keeps_its_inner_coupler(untapered_26):
    """A lone boundary cell keeps the template's boundary-to-interior
    coupler (9 fF here, not cg), so the template fits its own spectrum with
    cg free."""
    cell = untapered_26.interior
    edge = BoundaryCellParams(c_shunt=cell.c0 + 2 * cell.cg - 60e-15 - 9e-15,
                              c_left=60e-15, c_right=9e-15, l0=cell.l0)
    spec = dataclasses.replace(untapered_26, interior_count=24,
                               boundary_in=(edge,), boundary_out=(edge,))
    measured = cascade_abcd(spec, default_grid(cell, 401))
    report = fit_to_spectrum(measured, spec, free_params=("cg",))
    assert report.residual_db_rms < 1e-6
    assert report.spec.boundary_in[0].c_right == 9e-15


def _boundary_variant(spec, side, index, **changes):
    cells = list(getattr(spec, side))
    cells[index] = dataclasses.replace(cells[index], **changes)
    return dataclasses.replace(spec, **{side: tuple(cells)})


@pytest.mark.parametrize("variant", ["coupler_6fF", "l0_3.2nH", "port_80fF_out"])
def test_fit_no_free_params_scores_the_template(test_spec, variant):
    """With nothing free the template is scored as given, not projected
    onto the symmetric fit model: each variant fits its own spectrum."""
    if variant == "coupler_6fF":      # boundary-to-interior coupler != cg
        spec = _boundary_variant(test_spec, "boundary_in", 1, c_right=6e-15)
        spec = _boundary_variant(spec, "boundary_out", 1, c_right=6e-15)
    elif variant == "l0_3.2nH":       # boundary inductance != interior l0
        spec = _boundary_variant(test_spec, "boundary_in", 0, l0=3.2e-9)
        spec = _boundary_variant(spec, "boundary_out", 0, l0=3.2e-9)
    else:                             # asymmetric ends
        spec = _boundary_variant(test_spec, "boundary_out", 0, c_left=80e-15)
    measured = cascade_abcd(spec, default_grid(spec.interior, 801))
    report = fit_to_spectrum(measured, spec)
    assert report.spec == spec
    assert report.residual_db_rms < 1e-12


def test_fit_unknown_param_rejected(test_spec):
    grid = default_grid(test_spec.interior, 11)
    measured = cascade_abcd(test_spec, grid)
    with pytest.raises(ValidationError, match="zz"):
        fit_to_spectrum(measured, test_spec, free_params=("zz",))
