import dataclasses
import json
import math

import pytest

from slowline.dynamics import Modulation, Protocol
from slowline.params import (ArraySpec, Bend, BoundaryCellParams,
                             EmitterParams, QubitCircuitParams,
                             UnitCellParams, ValidationError)
from slowline.taper import TaperProblem


def test_unit_cell_properties():
    cell = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9)
    assert cell.omega0 == pytest.approx(1.0 / math.sqrt(3.151e-9 * 353.2e-15))
    assert cell.coupling_ratio == pytest.approx(5.05 / 353.2)


@pytest.mark.parametrize("kwargs", [
    dict(c0=-1e-15, cg=5e-15, l0=3e-9),
    dict(c0=1e-15, cg=-5e-15, l0=3e-9),
    dict(c0=1e-15, cg=5e-15, l0=0.0),
    dict(c0=1e-15, cg=5e-15, l0=3e-9, q_internal=-1),
])
def test_unit_cell_rejects_nonpositive(kwargs):
    with pytest.raises(ValidationError):
        UnitCellParams(**kwargs)


def test_unit_cell_round_trip():
    cell = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9, q_internal=9e4)
    assert UnitCellParams.from_dict(cell.to_dict()) == cell


def test_unit_cell_rejects_unknown_key():
    with pytest.raises(ValidationError, match="cg_F"):
        UnitCellParams.from_dict({"c0_f": 1e-13, "cg_F": 5e-15, "l0_h": 3e-9})


def test_boundary_cell_total_and_round_trip():
    b = BoundaryCellParams(c_shunt=275.5e-15, c_left=87.5e-15,
                           c_right=7.3e-15, l0=3.151e-9)
    assert b.c_total == pytest.approx(275.5e-15 + 87.5e-15 + 7.3e-15)
    assert BoundaryCellParams.from_dict(b.to_dict()) == b


def test_array_spec_element_lists(test_spec):
    shunts = test_spec.shunt_elements()
    couplers = test_spec.coupler_elements()
    assert len(shunts) == test_spec.n_resonators == 26
    assert len(couplers) == 27
    # symmetric device: element lists are palindromic
    assert couplers == couplers[::-1]
    assert shunts == shunts[::-1]
    # port couplers are the large matching capacitors
    assert couplers[0] == pytest.approx(87.5e-15)
    assert couplers[13] == pytest.approx(5.05e-15)


def test_array_spec_shared_coupler_mismatch():
    cell = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9)
    b1 = BoundaryCellParams(c_shunt=275e-15, c_left=87e-15, c_right=7e-15,
                            l0=cell.l0)
    b2 = BoundaryCellParams(c_shunt=352e-15, c_left=8e-15, c_right=5.05e-15,
                            l0=cell.l0)
    with pytest.raises(ValidationError, match="shared coupler"):
        ArraySpec(interior=cell, interior_count=5, boundary_in=(b1, b2))


def test_array_spec_round_trip(test_spec):
    assert ArraySpec.from_json(test_spec.to_json()) == test_spec


def test_array_spec_bend_round_trip(qubit_spec):
    assert qubit_spec.bend == Bend(position=26, c_series=2.5e-15)
    assert ArraySpec.from_json(qubit_spec.to_json()) == qubit_spec


def test_bend_inside_chain():
    cell = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9)
    with pytest.raises(ValidationError, match="bend position"):
        ArraySpec(interior=cell, interior_count=5,
                  bend=Bend(position=5, c_series=2e-15))


def test_qubit_params(q1):
    assert q1.c_node == pytest.approx(77.8e-15 + 0.16e-15 + 1.9e-15 + 0.25e-15)
    w = 2 * math.pi * 4.8e9
    l = q1.inductance_for(w)
    assert 1.0 / math.sqrt(l * q1.c_node) == pytest.approx(w)
    assert QubitCircuitParams.from_dict(q1.to_dict()) == q1
    for bad in (math.inf, math.nan, 0.0, -w):
        with pytest.raises(ValidationError,
                           match="omega_ge must be positive and finite"):
            dataclasses.replace(q1, omega_ge=bad)


def test_qubit_omega_ge_is_a_required_keyword():
    with pytest.raises(TypeError, match="omega_ge"):
        QubitCircuitParams(c_sigma=77.8e-15, couplings={3: 1.9e-15})
    with pytest.raises(TypeError):
        QubitCircuitParams(77.8e-15, {3: 1.9e-15}, 3e10)


_CELL = UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9)
_VALID = {
    "UnitCellParams": _CELL,
    "BoundaryCellParams": BoundaryCellParams(c_shunt=275.5e-15, c_left=87.5e-15,
                                             c_right=7.3e-15, l0=3.151e-9),
    "Bend": Bend(position=26, c_series=2.5e-15),
    "ArraySpec": ArraySpec(interior=_CELL, interior_count=5),
    "QubitCircuitParams": QubitCircuitParams(c_sigma=77.8e-15,
                                             couplings={3: 1.9e-15},
                                             omega_ge=3e10),
    "EmitterParams": EmitterParams(omega_ge=2e10, g_uc=1e8,
                                   extra_couplings={1: 1.3e7}),
    "Protocol": Protocol(omega_interact=3e10, t_max=1e-7),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("kind, name", [
    ("UnitCellParams", "c0"), ("UnitCellParams", "cg"),
    ("UnitCellParams", "l0"), ("BoundaryCellParams", "c_shunt"),
    ("BoundaryCellParams", "c_left"), ("BoundaryCellParams", "c_right"),
    ("BoundaryCellParams", "l0"), ("Bend", "c_series"),
    ("ArraySpec", "port_impedance"), ("QubitCircuitParams", "c_sigma"),
    ("QubitCircuitParams", "couplings"), ("EmitterParams", "omega_ge"),
    ("EmitterParams", "g_uc"), ("EmitterParams", "extra_couplings"),
    ("Protocol", "t_max"), ("Protocol", "dt_output")])
def test_fields_must_be_finite(kind, name, bad):
    """Each field named here rejects inf and NaN, and a coupling map any
    such entry; only the quality factors take inf (lossless)."""
    value = {3: bad} if name.endswith("couplings") else bad
    with pytest.raises(ValidationError, match="finite"):
        dataclasses.replace(_VALID[kind], **{name: value})


def test_emitter_round_trip():
    em = EmitterParams(omega_ge=2e10, g_uc=1e8, extra_couplings={1: 1.3e7})
    assert EmitterParams.from_dict(em.to_dict()) == em


def test_emitter_rejects_unknown_key():
    with pytest.raises(ValidationError, match="g_uc"):
        EmitterParams.from_dict({"omega_ge_hz": 3e9, "g_uc": 1e7})


@pytest.mark.parametrize("count, ok", [
    (22, True), (22.0, True), (2.7, False), ("22", False), (True, False)])
def test_integer_keys_reject_non_integral(test_spec, count, ok):
    d = {**test_spec.to_dict(), "interior_count": count}
    if ok:
        assert ArraySpec.from_dict(d) == test_spec
    else:
        with pytest.raises(ValidationError, match="ArraySpec.interior_count"):
            ArraySpec.from_dict(d)


def test_nested_error_names_key_path(test_spec):
    d = test_spec.to_dict()
    d["boundary_out"][1]["c_left_f"] = "7.3e-15"
    with pytest.raises(ValidationError, match=r"ArraySpec\.boundary_out\.1\."
                                              r"c_left_f: expected a finite number"):
        ArraySpec.from_dict(d)


# Fields written in Hz: rad/s -> Hz -> rad/s may move the last bit (3e10
# rad/s does), so these compare at rel 1e-15 and every other field exactly.
_HZ_FIELDS = {"omega_ge", "g_uc", "extra_couplings", "omega_interact",
              "omega_park", "omega_mod", "epsilon"}


def _assert_same(x, y):
    assert type(y) is type(x)
    for f in dataclasses.fields(x):
        a, b = getattr(x, f.name), getattr(y, f.name)
        if dataclasses.is_dataclass(a):
            _assert_same(a, b)
        elif f.name in _HZ_FIELDS:
            assert b == pytest.approx(a, rel=1e-15)
        else:
            assert b == a


_MODULATION = Modulation(omega_mod=6e8, epsilon=2.5e8)
_ROUND_TRIP = {
    **_VALID,
    "UnitCellParams_lossy": UnitCellParams(c0=353.2e-15, cg=5.05e-15,
                                           l0=3.151e-9, q_internal=9e4),
    "QubitCircuitParams_lossy": dataclasses.replace(
        _VALID["QubitCircuitParams"], couplings={1: 1.6e-16, 3: 1.9e-15},
        q_intrinsic=9e4),
    "EmitterParams_extra": EmitterParams(omega_ge=3e10, g_uc=1e8,
                                         extra_couplings={-1: 2e6, 2: 1.3e7},
                                         q_intrinsic=1e5),
    "Modulation": _MODULATION,
    "Protocol_ramp_modulation": Protocol(
        omega_interact=3e10, t_max=2e-7, dt_output=5e-10,
        initial_excited_population=0.5, modulation=_MODULATION,
        tune_time=4e-9, omega_park=3.1e10),
    "TaperProblem": TaperProblem(base=ArraySpec(interior=_CELL,
                                                interior_count=26),
                                 n_modified=3, band_window=0.4,
                                 max_iterations=50),
}


@pytest.mark.parametrize("name", sorted(_ROUND_TRIP))
def test_json_round_trip(name):
    """Every class with a JSON table reads back what it writes, through
    json text."""
    x = _ROUND_TRIP[name]
    _assert_same(x, type(x).from_dict(json.loads(json.dumps(x.to_dict()))))


def test_to_dict_omits_default_optionals():
    """An optional key is left out when its value is None, inf or an empty
    dict; dt_output_s, tune_time_s and initial_excited_population are
    always written, and ArraySpec writes q_internal and bend as null."""
    assert "q_internal" not in _CELL.to_dict()
    assert "q_intrinsic" not in _VALID["QubitCircuitParams"].to_dict()
    assert set(EmitterParams(omega_ge=2e10, g_uc=1e8).to_dict()) == {
        "omega_ge_hz", "g_uc_hz"}
    assert Protocol(omega_interact=3e10, t_max=1e-7).to_dict() == {
        "omega_interact_hz": 3e10 / (2 * math.pi), "t_max_s": 1e-7,
        "dt_output_s": 1e-10, "initial_excited_population": 1.0,
        "tune_time_s": 0.0}
    spec = _VALID["ArraySpec"].to_dict()
    assert spec["q_internal"] is None and spec["bend"] is None


_INTEGER_FIELDS = {
    "Bend.position": lambda v: Bend(position=v, c_series=2.5e-15),
    "ArraySpec.interior_count": lambda v: ArraySpec(interior=_CELL,
                                                    interior_count=v),
    "QubitCircuitParams.couplings": lambda v: QubitCircuitParams(
        c_sigma=77.8e-15, couplings={v: 1.9e-15}, omega_ge=3e10),
    "EmitterParams.extra_couplings": lambda v: EmitterParams(
        omega_ge=2e10, g_uc=1e8, extra_couplings={v: 1.3e7}),
    "TaperProblem.n_modified": lambda v: TaperProblem(
        base=_VALID["ArraySpec"], n_modified=v),
    "TaperProblem.max_iterations": lambda v: TaperProblem(
        base=_VALID["ArraySpec"], max_iterations=v),
}


@pytest.mark.parametrize("bad", [2.5, True, "a"])
@pytest.mark.parametrize("where", sorted(_INTEGER_FIELDS))
def test_integer_fields_reject_non_integral(where, bad):
    """Constructors read integer fields and index keys as JSON does."""
    with pytest.raises(ValidationError,
                       match=f"{where}: expected an integer, got"):
        _INTEGER_FIELDS[where](bad)


def test_integral_floats_become_integers():
    spec = ArraySpec(interior=_CELL, interior_count=22.0)
    assert type(spec.interior_count) is int
    assert spec.lower().n_resonators == 22
    assert type(Bend(position=2.0, c_series=2.5e-15).position) is int
    problem = TaperProblem(base=spec, n_modified=2.0, max_iterations=50.0)
    assert type(problem.n_modified) is type(problem.max_iterations) is int
