import cmath
import dataclasses
import math

import numpy as np
import pytest

from slowline.abcd import TwoPortResponse, cascade_abcd, default_grid
from slowline.bands import band_edges, group_velocity, tight_binding
from slowline.devices import qubit_device, qubit_q1, untapered_device
from slowline.dressed import (SingularPointError, bound_profile,
                              diagonalize_single_excitation, qubit_weight,
                              self_energy, single_excitation_hamiltonian,
                              solve_dressed_states)
from slowline.dynamics import DynamicsTrace, effective_rate, revival_onsets
from slowline.fitting import fit_to_spectrum
from slowline.params import EmitterParams, UnitCellParams, ValidationError
from slowline.statespace import assemble_state_space

CELL = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9)
J = tight_binding(CELL)["j_tb"]
W0 = CELL.omega0


def _emitter(g_over_j=0.3, omega=None):
    return EmitterParams(omega_ge=W0 if omega is None else omega,
                         g_uc=g_over_j * J)


def test_self_energy_closed_form():
    e = W0 + 0.5 * J
    g = 0.3 * J
    sigma = self_energy(e, g, CELL)
    assert sigma == pytest.approx(g**2 / (2 * math.sqrt(J * 0.5 * J)))


def test_self_energy_second_sheet_sign():
    e = W0 + 0.5 * J
    g = 0.3 * J
    assert self_energy(e, g, CELL, sheet="second") == pytest.approx(
        -self_energy(e, g, CELL))


def test_self_energy_at_edge_raises():
    with pytest.raises(SingularPointError):
        self_energy(W0, 0.3 * J, CELL)


def test_self_energy_exact_band_matches_effective_mass_near_edge():
    """Both models agree close to the edge where the band is quadratic."""
    g = 0.1 * J
    for de in (0.01, 0.003):
        e = W0 + de * J
        s_em = self_energy(e, g, CELL)
        s_ex = complex(self_energy(e, g, CELL, model="exact_band"))
        assert abs(s_ex - s_em) / abs(s_em) < 0.15


def test_self_energy_in_band_imaginary_part():
    """Im Sigma = -g^2 / v_g inside the band (retarded continuation)."""
    lo, hi = band_edges(CELL)
    e = 0.5 * (lo + hi)
    g = 0.1 * J
    kd_star = 2.0 * math.asin(math.sqrt((W0**2 / e**2 - 1) / (4 * CELL.coupling_ratio)))
    vg = abs(group_velocity(CELL, kd_star))
    sigma = complex(self_energy(e, g, CELL, model="exact_band"))
    assert sigma.imag == pytest.approx(-g**2 / vg, rel=1e-6)


@pytest.mark.parametrize("kw, match", [
    (dict(sheet="Second"), "sheet must be 'first' or 'second'"),
    (dict(sheet=2), "sheet must be 'first' or 'second'"),
    (dict(model="exact_band", sheet="Second"),
     "sheet must be 'first' or 'second'"),
    (dict(model="exact_band", sheet="second"), "exact_band"),
    (dict(model="exact_band", j=J), "exact_band"),
    (dict(model="exact_band", edge="upper"), "exact_band"),
    (dict(model="foo"), "unknown self-energy model: 'foo'"),
], ids=["sheet Second", "sheet 2", "exact_band sheet Second",
        "exact_band sheet second", "exact_band j", "exact_band edge",
        "model foo"])
def test_self_energy_inputs_select_something(kw, match):
    """A misspelt sheet or model is not read as the default, and the exact
    band, which reads the cell's own band, both edges, on the first sheet,
    refuses a j, an edge or the second sheet rather than ignoring it."""
    with pytest.raises(ValidationError, match=match):
        self_energy(W0 + 0.5 * J, 0.1 * J, CELL, **kw)


def test_dressed_state_anchor_closed_forms():
    """omega_ge = omega0: E_b, E_r, and arg from the cube-root closed forms."""
    em = _emitter(0.3)
    sol = solve_dressed_states(em, CELL, j=J)
    beta = (em.g_uc**4 / (4 * J)) ** (1.0 / 3.0)
    assert sol.e_bound - W0 == pytest.approx(beta, rel=1e-6)
    assert abs(sol.e_radiative - W0) == pytest.approx(beta, rel=1e-6)
    assert cmath.phase(W0 - sol.e_radiative) == pytest.approx(math.pi / 3, rel=1e-6)
    assert sol.e_radiative.imag < 0
    assert sol.splitting == pytest.approx(2 * beta, rel=1e-9)


def test_qubit_weight_limit_two_thirds():
    em = _emitter(0.3)
    sol = solve_dressed_states(em, CELL, j=J)
    assert sol.qubit_weight == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_qubit_weight_monotone_in_detuning():
    """Weight grows toward 1 as the qubit detunes into the gap."""
    prev = 0.0
    for dw in (0.0, 0.5 * J, 2 * J, 10 * J):
        sol = solve_dressed_states(_emitter(0.3, W0 + dw), CELL, j=J)
        assert sol.qubit_weight > prev
        prev = sol.qubit_weight
    assert prev > 0.9


@pytest.mark.parametrize("g_over_j", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("detuning", [-0.5, 0.0, 0.5, 2.0, 10.0])
def test_qubit_weight_forms_agree(g_over_j, detuning):
    """qubit_weight at the bound-state energy is the cubic solution's weight
    (the upper edge is omega0)."""
    omega_ge = W0 + detuning * J
    sol = solve_dressed_states(_emitter(g_over_j, omega_ge), CELL, j=J)
    assert abs(qubit_weight(sol.e_bound, omega_ge, W0)
               - sol.qubit_weight) < 1e-12


def test_qubit_weight_errors():
    with pytest.raises(SingularPointError):
        qubit_weight(W0, W0, W0)
    with pytest.raises(ValidationError):
        qubit_weight(W0 - J, W0, W0)


def test_localization_length_scaling():
    """lambda = sqrt(J / (E_b - omega0)) shrinks with coupling."""
    sols = [solve_dressed_states(_emitter(g), CELL, j=J) for g in (0.2, 0.5, 1.0)]
    lams = [s.localization_length for s in sols]
    assert lams[0] > lams[1] > lams[2]
    s = sols[1]
    assert s.localization_length == pytest.approx(
        math.sqrt(J / (s.e_bound - W0)), rel=1e-9)


def test_lower_edge_mirror():
    lo, _ = band_edges(CELL)
    sol = solve_dressed_states(_emitter(0.3, lo), CELL, j=J, edge="lower")
    beta = (_emitter(0.3).g_uc**4 / (4 * J)) ** (1.0 / 3.0)
    assert lo - sol.e_bound == pytest.approx(beta, rel=1e-6)


def test_bound_profile_normalized():
    sol = solve_dressed_states(_emitter(0.3), CELL, j=J)
    amp = bound_profile(sol.e_bound, CELL, 201, j=J)
    assert np.sum(amp**2) == pytest.approx(1.0)
    # exponential: log-slope constant away from the center
    center = 100
    logs = np.log(amp[center + 5:center + 20])
    slopes = np.diff(logs)
    assert np.max(np.abs(slopes - slopes[0])) < 1e-9


def test_bound_profile_with_weight():
    sol = solve_dressed_states(_emitter(0.3), CELL, j=J)
    amp = bound_profile(sol.e_bound, CELL, 201, omega_ge=W0, j=J)
    assert np.sum(amp**2) == pytest.approx(1.0 - sol.qubit_weight, rel=1e-6)


def test_bound_profile_requires_gap_energy():
    with pytest.raises(ValidationError):
        bound_profile(W0 - 0.1 * J, CELL, 51, j=J)


def test_single_excitation_hamiltonian_structure():
    em = _emitter(0.3)
    h = single_excitation_hamiltonian(CELL, em, m_cells=51)
    assert h.shape == (52, 52)
    assert np.allclose(h, h.T)
    center = 25
    assert h[51, center] == pytest.approx(em.g_uc)
    assert h[51, 51] == pytest.approx(em.omega_ge)
    assert np.array_equal(single_excitation_hamiltonian(CELL, em, 51.0), h)


def test_extra_couplings_offset():
    em = EmitterParams(omega_ge=W0, g_uc=0.3 * J,
                       extra_couplings={1: 0.13 * 0.3 * J})
    h = single_excitation_hamiltonian(CELL, em, m_cells=51)
    assert h[51, 26] == pytest.approx(0.13 * 0.3 * J)
    with pytest.raises(ValidationError):
        single_excitation_hamiltonian(
            CELL, EmitterParams(omega_ge=W0, g_uc=J,
                                extra_couplings={100: J}), m_cells=51)


@pytest.mark.parametrize("m_cells", [22, 23, 50, 51])
@pytest.mark.parametrize("extra", [{}, {-1: 0.04 * J, 2: -0.01 * J}],
                         ids=["bare", "extra"])
def test_single_excitation_hamiltonian_matches_scipy_construction(m_cells,
                                                                  extra):
    """The numpy Toeplitz block and emitter row and column equal, bit for
    bit, the matrix built by scipy.linalg.block_diag(toeplitz(...))."""
    import scipy.linalg
    from slowline.bands import coupling_spectrum
    em = EmitterParams(omega_ge=W0, g_uc=0.3 * J, extra_couplings=extra)
    hopping = np.zeros(m_cells)
    v = coupling_spectrum(CELL, m_cells if m_cells % 2 else m_cells + 1,
                          10).v
    hopping[:v.size] = v
    want = scipy.linalg.block_diag(scipy.linalg.toeplitz(hopping),
                                   em.omega_ge)
    center = (m_cells - 1) // 2
    for offset, g in {0: em.g_uc, **em.extra_couplings}.items():
        want[m_cells, center + offset] = want[center + offset, m_cells] = g
    h = single_excitation_hamiltonian(CELL, em, m_cells=m_cells)
    assert h.dtype == want.dtype and h.shape == want.shape
    assert h.tobytes() == want.tobytes()


_U26 = untapered_device(26)
_T = np.linspace(0, 4e-7, 4001)
_ECHO = DynamicsTrace(t=_T, p_e=np.exp(-1e8 * _T)
                      + 0.05 * np.exp(-((_T - 2.5e-7) / 2e-8) ** 2))


@pytest.mark.parametrize("call, match", [
    (lambda: revival_onsets(_ECHO, rise_fraction=1.5), "rise_fraction"),
    (lambda: revival_onsets(_ECHO, rise_fraction=0.0), "rise_fraction"),
    (lambda: revival_onsets(_ECHO, n_revivals=2.5),
     "n_revivals: expected an integer, got 2.5"),
    (lambda: revival_onsets(_ECHO, prominence=math.nan), "prominence"),
    (lambda: revival_onsets(_ECHO, prominence=math.inf), "prominence"),
    (lambda: revival_onsets(_ECHO, prominence=-1e-3), "prominence"),
    (lambda: revival_onsets(_ECHO, settle_level=2.0), "settle_level"),
    (lambda: revival_onsets(_ECHO, settle_level=0.0), "settle_level"),
    (lambda: bound_profile(W0 + J, CELL, 2.5, j=J),
     "n_cells: expected an integer, got 2.5"),
    (lambda: single_excitation_hamiltonian(CELL, _emitter(0.3), "201"),
     "m_cells: expected an integer"),
    (lambda: revival_onsets(DynamicsTrace(t=_T, p_e=np.ones_like(_T))),
     "never settles"),
    (lambda: effective_rate(_ECHO, window=(0.0, _T[1])),
     "fewer than 3 samples"),
    (lambda: DynamicsTrace(t=_T, p_e=_T[:-1]), "matching shapes"),
    (lambda: self_energy(band_edges(CELL)[0], 0.1 * J, CELL,
                         model="exact_band"), "exactly at the bandedge"),
    (lambda: TwoPortResponse(freq_grid=_T[::-1], s21=_T, s11=_T),
     "strictly increasing"),
    (lambda: assemble_state_space(qubit_device(), dataclasses.replace(
        qubit_q1(), couplings={60: 1e-15})),
     "index 60 outside resonator range 1..52"),
    (lambda: fit_to_spectrum(
        cascade_abcd(_U26, default_grid(_U26.interior, 11)), _U26, ("c1g",)),
     r"no boundary cells for parameters: \['c1g'\]"),
], ids=["rise_fraction 1.5", "rise_fraction 0", "n_revivals 2.5",
        "prominence nan", "prominence inf", "prominence -1e-3",
        "settle_level 2", "settle_level 0",
        "bound_profile 2.5 cells", "hamiltonian '201' cells",
        "flat trace", "2-sample window", "mismatched trace",
        "exact_band at band edge", "decreasing grid",
        "qubit on resonator 60 of 52", "fit c1g without boundary cells"])
def test_analysis_inputs_validated(call, match):
    """Counts are read as integers, rise_fraction and settle_level lie in
    (0, 1] and a revival's prominence is finite and >= 0: each bad input
    raises ValidationError naming it, not an IndexError or TypeError (nor,
    for a NaN or infinite prominence, an empty list), and 2.5 cells are not
    rounded up to 3.  A trace that never settles, a fit window of fewer
    than 3 samples, a trace whose t and p_e differ in shape, a real band
    edge on the exact band (SingularPointError), a decreasing grid, a
    qubit coupled past the last resonator and a fit parameter the template
    lacks are refused the same way."""
    with pytest.raises(ValidationError, match=match):
        call()


def test_diagonalization_finds_bound_state():
    em = _emitter(0.3)
    res = diagonalize_single_excitation(CELL, em, m_cells=201)
    lo, hi = band_edges(CELL)
    e_b = res["eigenvalues"][res["bound_index"]]
    assert e_b > hi
    sol = solve_dressed_states(em, CELL, j=J)
    assert abs(e_b - hi) == pytest.approx(sol.e_bound - hi, rel=0.02)


def test_avoided_crossing_splitting():
    """Sweeping omega_ge through the edge shows a minimum gap ~ splitting."""
    em = _emitter(0.3)
    sol = solve_dressed_states(em, CELL, j=J)
    res = diagonalize_single_excitation(CELL, em, m_cells=201)
    evals = res["eigenvalues"]
    weights = res["qubit_weights"]
    # the two most qubit-like states straddle the edge by ~ Omega_WG each
    top2 = np.argsort(weights)[-2:]
    gap = abs(evals[top2[0]] - evals[top2[1]])
    assert gap == pytest.approx(sol.splitting, rel=0.35)


@pytest.mark.parametrize("call", [
    lambda edge: solve_dressed_states(_emitter(0.3), CELL, j=J, edge=edge),
    lambda edge: bound_profile(W0 + J, CELL, 51, j=J, edge=edge),
    lambda edge: self_energy(W0 + J, _emitter(0.3).g_uc, CELL, j=J, edge=edge),
])
def test_unknown_edge_rejected(call):
    """A misspelt edge raises instead of silently meaning the lower edge."""
    with pytest.raises(ValidationError, match="uper"):
        call("uper")


@pytest.mark.parametrize("edge", ["upper", "lower"])
@pytest.mark.parametrize("g_over_j", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("detuning", [-2.0, -1.0, 0.0, 1.0, 10.0])
def test_dressed_roots_solve_the_self_energy_equation(edge, g_over_j,
                                                      detuning):
    """Both roots satisfy E = omega_ge + Sigma(E) on their own sheet, with
    the emitter detuned (in units of J) into the gap (> 0) or the band."""
    lo, hi = band_edges(CELL)
    w_edge, s = (hi, 1.0) if edge == "upper" else (lo, -1.0)
    omega, g = w_edge + s * detuning * J, g_over_j * J
    sol = solve_dressed_states(EmitterParams(omega_ge=omega, g_uc=g), CELL,
                               j=J, edge=edge)
    e_b, e_r = sol.e_bound, sol.e_radiative
    assert s * (e_b - w_edge) > 0
    assert abs(e_b - omega - self_energy(e_b, g, CELL, j=J, edge=edge)) \
        <= 1e-6 * abs(e_b - omega)
    assert e_r.imag <= 0
    sigma_r = self_energy(e_r, g, CELL, j=J, edge=edge, sheet="second")
    assert abs(e_r - omega - sigma_r) <= 1e-6 * abs(e_r - omega)


@pytest.mark.parametrize("edge", ["upper", "lower"])
def test_uncoupled_emitter_in_gap_is_its_own_bound_state(edge):
    lo, hi = band_edges(CELL)
    omega = hi + J if edge == "upper" else lo - J
    sol = solve_dressed_states(EmitterParams(omega_ge=omega, g_uc=0.0), CELL,
                               j=J, edge=edge)
    assert sol.e_bound == pytest.approx(omega, rel=1e-15)
    assert sol.qubit_weight == 1.0
    assert sol.splitting == 0.0


def test_uncoupled_emitter_in_band_has_no_bound_state():
    with pytest.raises(ValidationError, match="no bound state"):
        solve_dressed_states(EmitterParams(omega_ge=W0 - J, g_uc=0.0), CELL,
                             j=J)
