import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slowline.abcd
import slowline.devices
import slowline.fitting
from slowline.abcd import (TwoPortResponse, _abcd_rows, _cascade,
                           _end_scorer, bloch_analysis, cascade_abcd,
                           chain_abcd, default_grid, unit_cell_abcd)
from slowline.bands import (band_edges, dispersion, dispersion_curve,
                            tight_binding)
from slowline.devices import qubit_device, untapered_device
from slowline.disorder import extinction_curve, sample_disordered
from slowline.dynamics import _initial_state, total_energy
from slowline.fitting import _build_spec, _get_params, fit_to_spectrum
from slowline.params import (ArraySpec, Bend, BoundaryCellParams, Chain,
                             UnitCellParams, ValidationError)
from slowline.statespace import assemble_state_space
from slowline.taper import TaperProblem, optimize, ripple


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


def test_steady_state_s21_refuses_open_mirror():
    """The state space's S21 refuses an open mirror, whose output node has
    no port resistor, as cascade_abcd does: 2 V at that node is not S21
    there, and on this grid its magnitude reaches 1.29, more than any
    passive one-port gives."""
    spec = qubit_device(q_internal=math.inf, bend_c_series=None,
                        termination_out="open_mirror")
    model = assemble_state_space(spec, None)
    with pytest.raises(ValidationError, match="matched output port"):
        model.steady_state_s21(default_grid(spec.interior, 5))


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


def test_bloch_analysis_keeps_the_grid_shape(test_spec):
    """A 2-D grid gives its own shape and a float frequency a scalar, each
    bit-equal to those points of a 1-D call."""
    cell = test_spec.interior
    grid = default_grid(cell, 5)
    full = bloch_analysis(cell, grid)
    square = bloch_analysis(cell, grid[:4].reshape(2, 2))
    scalar = bloch_analysis(cell, float(grid[2]))
    for key, v in full.items():
        assert np.array_equal(square[key], v[:4].reshape(2, 2))
        assert np.ndim(scalar[key]) == 0 and scalar[key] == v[2]


@pytest.mark.parametrize("call", [
    cascade_abcd, chain_abcd, lambda spec, w: bloch_analysis(spec.interior, w),
], ids=["cascade_abcd", "chain_abcd", "bloch_analysis"])
def test_empty_grid_rejected(test_spec, call):
    with pytest.raises(ValidationError, match="grid must be non-empty"):
        call(test_spec, np.array([]))


@pytest.mark.parametrize("call", [
    cascade_abcd,
    lambda spec, w: assemble_state_space(spec, None).steady_state_s21(w),
], ids=["cascade_abcd", "steady_state_s21"])
def test_dc_rejected(test_spec, call):
    """S21 at DC is refused, not a singular solve or a NaN from the
    nodal form's 1/(jw)."""
    with pytest.raises(ValidationError, match="avoid DC and be positive"):
        call(test_spec, np.array([0.0, 2e10]))


@pytest.mark.parametrize("n_points", [0, -2])
def test_grids_need_a_point(test_spec, n_points):
    with pytest.raises(ValidationError, match="n_points must be >= 1"):
        default_grid(test_spec.interior, n_points)
    with pytest.raises(ValidationError, match="n_points must be >= 1"):
        dispersion_curve(test_spec.interior, n_points)


@pytest.mark.parametrize("n_points", [10.5, True, "11"])
def test_grid_sizes_must_be_integers(test_spec, n_points):
    """A fractional, bool or string point count is a ValidationError, not
    numpy's TypeError or a one-point grid."""
    with pytest.raises(ValidationError, match="n_points: expected an integer"):
        default_grid(test_spec.interior, n_points)
    with pytest.raises(ValidationError, match="n_points: expected an integer"):
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
    m = _abcd_rows(m)
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
    m = _abcd_rows(m)
    m_ref, exp_ref = _complex_cascade(qubit_spec.lower(), grid)
    assert np.array_equal(exp, exp_ref)
    assert np.max(np.abs(m - m_ref) / np.abs(m_ref).max(axis=0)) < 1e-12


@pytest.mark.parametrize("make_spec", [
    lambda: untapered_device(50),
    qubit_device,                                   # lossy, with its bend
    lambda: untapered_device(1000, q_internal=1e4),  # takes the rescale
], ids=["untapered_50", "qubit_device", "lossy_1000"])
def test_end_vectors_match_whole_cascade(make_spec):
    """|S21| from the two end vectors contracted with the middle's rows
    is the whole chain's to rounding, with the ends one cell and a third of
    the chain long, across the band and its margins; there the 1000-cell
    chain's middle takes the rescale.  Compared where the whole chain's
    |S21| is a normal float.  Measured worst case 2.4e-13 relative; the
    bound is 1e-11."""
    spec = make_spec()
    chain = spec.lower()
    grid = default_grid(spec.interior, 401)
    size = chain.n_resonators
    whole = np.abs(cascade_abcd(chain, grid).s21)
    normal = whole >= np.finfo(float).tiny
    for n in (1, size // 3):
        _, exp = _cascade(chain, grid, cells=range(n, size - n))
        assert (exp[normal].max() > 0) == (size == 1000)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            got = 10.0 ** (_end_scorer(chain, grid, n)(chain) / 20.0)
        assert np.max(np.abs(got[normal] / whole[normal] - 1.0)) < 1e-11


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


@pytest.mark.parametrize("make_spec", [
    lambda: untapered_device(50),
    qubit_device,                                   # lossy, with its bend
    lambda: untapered_device(1000, q_internal=1e4),  # takes the rescale
    lambda: untapered_device(1000),
], ids=["untapered_50", "qubit_device", "lossy_1000", "lossless_1000"])
def test_s_parameters_match_complex_abcd_formula(make_spec):
    """S21 and S11, read off the cascade rows, are the textbook conversion
    of the complex (a, b, c, d): 2/(a + b/z0 + c z0 + d) and
    (a + b/z0 - c z0 - d)/(a + b/z0 + c z0 + d), on a stack of four
    realizations.  Lossless they agree bit for bit; lossy the sums are
    grouped otherwise, and the measured worst cases are 6.7e-16 relative
    (S21, where |S21| is a normal float) and 6.5e-16 absolute (S11), bounded
    here by 1e-14."""
    spec = make_spec()
    grid = default_grid(spec.interior)
    chain = _stacked(_realizations(spec, 4))
    got = cascade_abcd(chain, grid)
    m, exp = _cascade(chain, grid)
    a, b, c, d = _abcd_rows(m)
    z0 = chain.port_impedance
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = a + b / z0 + c * z0 + d
        s21 = slowline.abcd._ldexp(2.0 / denom, -exp)
        s11 = (a + b / z0 - c * z0 - d) / denom
    normal = np.abs(s21) >= np.finfo(float).tiny
    assert normal.any()
    if math.isinf(chain.q_internal):
        assert np.array_equal(got.s21[normal], s21[normal])
        assert np.array_equal(got.s11, s11)
    rel = np.abs(got.s21[normal] / s21[normal] - 1.0)
    assert np.max(rel) < 1e-14
    assert np.max(np.abs(got.s11 - s11)) < 1e-14


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
    ("couplers", lambda c: c[:-1]),
    ("couplers", lambda c: c[:, None]),
    ("c_shunt", lambda c: c.reshape(2, -1)),
], ids=["5_couplers", "28_couplers", "26_couplers", "2d_couplers",
        "2d_c_shunt"])
def test_chain_checks_coupler_count(test_spec, name, reshape):
    """c_shunt and couplers are 1-D, and couplers has n_resonators + 1
    entries: any other count describes a different circuit.  Without its
    last coupler the 26-resonator chain would put the output port on the
    last shunt in the ABCD cascade and leave it disconnected in the
    state-space model."""
    chain = test_spec.lower()
    with pytest.raises(ValidationError, match=r"Chain\.(c_shunt|couplers)"):
        dataclasses.replace(chain, **{name: reshape(getattr(chain, name))})


@pytest.mark.parametrize("q_internal", [math.inf, 1e4])
def test_unit_cell_abcd_is_its_elements_cascaded(q_internal):
    """unit_cell_abcd, coupler then shunt branch, times one more coupler is
    the cascade of the one-resonator chain, which has two couplers; with one
    coupler, the unit cell's own layout, a one-resonator Chain is rejected
    like any other count."""
    cell = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9,
                          q_internal=q_internal)
    w = default_grid(cell, 201)
    a, b, c, d = unit_cell_abcd(cell, w)
    z = 1.0 / (1j * w * cell.cg)
    one = dict(c_shunt=np.array([cell.c0]), l=np.array([cell.l0]),
               q_internal=q_internal)
    ref = chain_abcd(Chain(couplers=np.full(2, cell.cg), **one), w)
    for got, want in zip((a, a * z + b, c, c * z + d), ref):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValidationError, match="Chain.couplers"):
        Chain(couplers=np.array([cell.cg]), **one)


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


def test_fit_repeated_param_rejected(test_spec):
    """A name freed twice would fit two coordinates for one element."""
    measured = cascade_abcd(test_spec, default_grid(test_spec.interior, 11))
    with pytest.raises(ValidationError,
                       match=r"repeated fit parameters: \['cg'\]"):
        fit_to_spectrum(measured, test_spec, free_params=("cg", "l0", "cg"))


def _one_cell_template(q_internal):
    base = untapered_device(26, q_internal=q_internal)
    cell = base.interior
    edge = BoundaryCellParams(c_shunt=cell.c0 + 2 * cell.cg - 60e-15 - 9e-15,
                              c_left=60e-15, c_right=9e-15, l0=cell.l0)
    return dataclasses.replace(base, interior_count=24, boundary_in=(edge,),
                               boundary_out=(edge,))


_FIT_TEMPLATES = {
    "0_cells": lambda: untapered_device(26),
    "0_cells_q1e4": lambda: untapered_device(26, q_internal=1e4),
    "1_cell": lambda: _one_cell_template(math.inf),
    "1_cell_q1e4": lambda: _one_cell_template(1e4),
    "2_cells": slowline.devices.test_device,
    "2_cells_q1e4": lambda: slowline.devices.test_device(1e4),
    "2_cells_bend": qubit_device,       # Q = 9e4, bend in the middle
}


@pytest.mark.parametrize("template", list(_FIT_TEMPLATES))
def test_fit_scores_match_full_cascade(template):
    """The fit's |S21| dB, its ends walked against a cached middle, is the
    full cascade's for 20 draws each (factors 0.8 to 1.25) of the template's
    share of ("cg", "c1g", "c2g"), ("c1g", "c2g") and ("c0", "l0"), scored in
    turn by one scorer, so the middle is reused and re-cascaded.  Measured
    worst case 3.1e-12 dB (the bend); the bound is 3e-11 dB."""
    spec = _FIT_TEMPLATES[template]()
    grid = default_grid(spec.interior, 401)
    base = _get_params(spec)
    s21_db = _end_scorer(spec.lower(), grid, len(spec.boundary_in))
    rng = np.random.default_rng(34)
    for names in (("cg", "c1g", "c2g"), ("c1g", "c2g"), ("c0", "l0")):
        names = [name for name in names if name in base]
        for factors in rng.uniform(0.8, 1.25, (20, len(names))):
            vals = dict(base)
            vals.update({k: f * base[k] for k, f in zip(names, factors)})
            candidate = _build_spec(spec, vals)
            want = cascade_abcd(candidate, grid).s21_db
            assert np.all(np.isfinite(want))
            got = s21_db(candidate.lower())
            assert np.max(np.abs(got - want)) < 3e-11


def test_fit_score_recascades_a_changed_middle(test_spec, monkeypatch):
    """Chain B differs from chain A only in its interior cg.  Scored after A
    by the same scorer, B scores bit for bit as a fresh scorer scores it, so
    the middle cached for A was cascaded again for B.  A scored again after
    B takes A's middle, kept beside B's: two middle cascades for the three
    scores, and A's second score is its first bit for bit."""
    grid = default_grid(test_spec.interior, 401)
    base = _get_params(test_spec)
    a = _build_spec(test_spec, base).lower()
    b = _build_spec(test_spec, {**base, "cg": 1.01 * base["cg"]}).lower()
    fresh = _end_scorer(b, grid, 2)(b)
    calls = []
    cascade = slowline.abcd._cascade

    def counted(*args, **kwargs):
        calls.append(args)
        return cascade(*args, **kwargs)

    monkeypatch.setattr(slowline.abcd, "_cascade", counted)
    s21_db = _end_scorer(a, grid, 2)
    first = s21_db(a)
    got = s21_db(b)
    assert not np.array_equal(first, got)
    assert np.array_equal(got, fresh)
    assert np.array_equal(s21_db(a), first)
    assert len(calls) == 2


_S_PARAMETER_CALLS = {
    "cascade_abcd": lambda spec, measured: cascade_abcd(
        spec, measured.freq_grid),
    "ripple": lambda spec, measured: ripple(spec),
    "optimize_0": lambda spec, measured: optimize(
        TaperProblem(spec, n_modified=0)),
    "optimize_2": lambda spec, measured: optimize(
        TaperProblem(spec, n_modified=2)),
    "fit": lambda spec, measured: fit_to_spectrum(measured, spec),
    "fit_free": lambda spec, measured: fit_to_spectrum(
        measured, spec, free_params=("cg", "c1g")),
    "extinction_curve": lambda spec, measured: extinction_curve(
        spec, [0.0, 0.1], 2, 0),
}


@pytest.mark.parametrize("call", list(_S_PARAMETER_CALLS))
def test_open_mirror_has_no_s_parameters(call, monkeypatch):
    """S-parameters are defined between two ports: every S21 reader refuses
    a spec whose output is an open mirror, before any cascade, so neither a
    taper search nor a fit scores its candidates as 1e3 and stops there."""
    matched = qubit_device()
    measured = cascade_abcd(matched, default_grid(matched.interior, 51))
    spec = dataclasses.replace(matched, termination_out="open_mirror")

    def cascade(*args, **kwargs):
        raise AssertionError("cascaded an open-mirror chain")

    monkeypatch.setattr(slowline.abcd, "_cascade", cascade)
    with pytest.raises(ValidationError, match="matched output port"):
        _S_PARAMETER_CALLS[call](spec, measured)


def test_fit_logs_what_it_scores_1e3(test_spec, monkeypatch, caplog):
    """The fit logs at INFO how many residual evaluations raised and how many
    residual points were set to 1e3: here the second evaluation raises and
    five measured points are 0 (-inf dB), so every other evaluation sets five
    points to 1e3 and the raised one all of them."""
    grid = default_grid(test_spec.interior, 101)
    clean = cascade_abcd(test_spec, grid)
    s21 = clean.s21.copy()
    s21[:5] = 0.0
    with np.errstate(divide="ignore"):
        measured = TwoPortResponse(grid, s21, clean.s11)
        calls = []
        build = slowline.fitting._build_spec

        def flaky_build(template, vals):
            calls.append(vals)
            if len(calls) == 2:
                raise ValidationError("flaky")
            return build(template, vals)

        monkeypatch.setattr(slowline.fitting, "_build_spec", flaky_build)
        with caplog.at_level("INFO", logger="slowline.fitting"):
            fit_to_spectrum(measured, test_spec)
            fit_to_spectrum(measured, test_spec, free_params=("cg",))
    evaluations = len(calls) - 1    # the last call builds the report's spec
    assert [r.args for r in caplog.records] == [
        (0, 1, 5), (1, evaluations, 5 * (evaluations - 1) + grid.size)]
    assert caplog.records[0].getMessage() == (
        "fit: 0 of 1 residual evaluations raised ValidationError; 5 residual "
        "points were set to 1e3")
