import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowline.dynamics import DynamicsTrace, Modulation, Protocol
from slowline.params import (ArraySpec, Bend, BoundaryCellParams, Chain,
                             EmitterParams, JsonFields, QubitCircuitParams,
                             UnitCellParams, ValidationError, _find_peaks,
                             _walls, boundary_cells)
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


@pytest.mark.parametrize("bend", [None, Bend(position=3, c_series=2.5e-15)],
                         ids=["straight", "bend"])
@pytest.mark.parametrize("m", range(4))
def test_boundary_cells_read_back_as_couplers(m, bend):
    """Couplers g (port inward, ending at cg) built into cells at each end
    read back as g, the interior couplers, then the output side's g
    reversed."""
    cg, total = _CELL.cg, _CELL.c0 + 2 * _CELL.cg
    ends = []
    for scale in (1.0, 1.5):
        g = [scale * c for c in (60e-15, 20e-15, 9e-15)[:m]] + [cg]
        shunts = [total - a - b for a, b in zip(g, g[1:])]
        ends.append((g, boundary_cells(g, shunts, _CELL.l0)))
    (g_in, cells_in), (g_out, cells_out) = ends
    spec = ArraySpec(interior=_CELL, interior_count=5, boundary_in=cells_in,
                     boundary_out=cells_out, bend=bend)
    expected = g_in + [cg] * 4 + g_out[::-1]
    if bend is not None:
        expected[bend.position] = bend.c_series
    assert spec.coupler_elements() == expected
    assert len(cells_in) == m
    assert all(b.c_total == pytest.approx(total, rel=1e-12) for b in cells_in)


def test_boundary_cells_need_one_coupler_more_than_shunts():
    for n_couplers, n_shunts in [(2, 2), (4, 2), (0, 0), (1, 2)]:
        with pytest.raises(ValidationError, match="one coupler more"):
            boundary_cells([5e-15] * n_couplers, [3e-13] * n_shunts, 3e-9)


def test_devices_spell_out_their_boundary_cells(test_spec, qubit_spec):
    """The built-in devices are these literal cells."""
    cells = (BoundaryCellParams(c_shunt=275.5e-15, c_left=87.5e-15,
                                c_right=7.3e-15, l0=3.151e-9),
             BoundaryCellParams(c_shunt=352.1e-15, c_left=7.3e-15,
                                c_right=5.05e-15, l0=3.151e-9))
    assert test_spec == ArraySpec(
        interior=UnitCellParams(c0=353.2e-15, cg=5.05e-15, l0=3.151e-9),
        interior_count=22, boundary_in=cells, boundary_out=cells)
    cells = (BoundaryCellParams(c_shunt=273e-15, c_left=92.5e-15,
                                c_right=7.8e-15, l0=3.099e-9),
             BoundaryCellParams(c_shunt=351.2e-15, c_left=7.8e-15,
                                c_right=5.02e-15, l0=3.099e-9))
    assert qubit_spec == ArraySpec(
        interior=UnitCellParams(c0=353.2e-15, cg=5.02e-15, l0=3.099e-9,
                                q_internal=9e4),
        interior_count=48, boundary_in=cells, boundary_out=cells,
        bend=Bend(position=26, c_series=2.5e-15))


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
    with pytest.raises(ValidationError,
                       match=r"unknown keys \['q_intrinsic'\]"):
        EmitterParams.from_dict({"omega_ge_hz": 3e9, "g_uc_hz": 1e7,
                                 "q_intrinsic": 1e5})


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
                                         extra_couplings={-1: 2e6, 2: 1.3e7}),
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


_REAL_FIELDS = {
    "UnitCellParams": (_CELL, "c0 cg l0 q_internal"),
    "BoundaryCellParams": (_VALID["BoundaryCellParams"],
                           "c_shunt c_left c_right l0"),
    "Bend": (_VALID["Bend"], "c_series"),
    "ArraySpec": (_VALID["ArraySpec"], "port_impedance"),
    "Chain": (_VALID["ArraySpec"].lower(), "q_internal port_impedance"),
    "QubitCircuitParams": (_VALID["QubitCircuitParams"],
                           "c_sigma couplings omega_ge q_intrinsic"),
    "EmitterParams": (_VALID["EmitterParams"],
                      "omega_ge g_uc extra_couplings"),
    "Modulation": (_MODULATION, "omega_mod epsilon"),
    "Protocol": (_ROUND_TRIP["Protocol_ramp_modulation"],
                 "omega_interact t_max dt_output initial_excited_population "
                 "tune_time omega_park"),
    "TaperProblem": (_ROUND_TRIP["TaperProblem"], "band_window"),
}


@pytest.mark.parametrize("bad", [True, np.True_, "1e-15"])
@pytest.mark.parametrize("where", [f"{kind}.{name}"
                                   for kind, (_, names) in _REAL_FIELDS.items()
                                   for name in names.split()])
def test_real_fields_reject_bool_and_non_numbers(where, bad):
    """Constructors reject what the JSON reader rejects as a number, naming
    class and field; a coupling map is checked entry by entry."""
    kind, name = where.split(".")
    value = {3: bad} if name.endswith("couplings") else bad
    with pytest.raises(ValidationError, match=f"{where}: expected a number"):
        dataclasses.replace(_REAL_FIELDS[kind][0], **{name: value})


_STRUCTURED_FIELDS = {
    "Protocol.modulation": 5,
    "ArraySpec.interior": "x",
    "ArraySpec.boundary_in": (1,),
    "ArraySpec.boundary_out": 5,
    "ArraySpec.bend": 5,
    "TaperProblem.base": "x",
    "QubitCircuitParams.couplings": [1e-15],
    "EmitterParams.extra_couplings": [1e6],
}


@pytest.mark.parametrize("where", sorted(_STRUCTURED_FIELDS))
def test_structured_fields_reject_wrong_types(where):
    """Constructors reject a wrongly typed nested object, cell tuple or
    coupling map, as the JSON reader does, naming class and field, rather
    than failing later with an AttributeError."""
    kind, name = where.split(".")
    with pytest.raises(ValidationError, match=f"{where}: expected"):
        dataclasses.replace(_REAL_FIELDS[kind][0],
                            **{name: _STRUCTURED_FIELDS[where]})


def test_real_fields_keep_what_they_are_given():
    cell = UnitCellParams(c0=np.float64(353.2e-15), cg=np.float32(5e-15),
                          l0=3.151e-9, q_internal=10**4)
    assert [type(v) for v in (cell.c0, cell.cg, cell.q_internal)] == [
        np.float64, np.float32, int]


_CHAIN = dict(c_shunt=np.full(3, 3e-13), l=np.full(3, 3e-9),
              couplers=np.full(4, 5e-15))


@pytest.mark.parametrize("name, bad, what", [
    ("matched_out", "open_mirror", "a bool"),
    ("matched_out", 1, "a bool"),
    ("c_shunt", np.array(["3e-13"] * 3), "an array of real numbers"),
    ("couplers", np.full(4, True), "an array of real numbers"),
])
def test_chain_rejects_wrongly_typed_fields(name, bad, what):
    """A string termination is not a matched flag, and the per-resonator
    arrays hold real numbers, so neither passes as a working chain."""
    with pytest.raises(ValidationError, match=f"Chain.{name}: expected {what}"):
        Chain(**{**_CHAIN, name: bad})


def test_chain_reads_lists_as_float64():
    chain = Chain(**{k: v.tolist() for k, v in _CHAIN.items()})
    for name, want in _CHAIN.items():
        assert getattr(chain, name).dtype == np.float64
        np.testing.assert_array_equal(getattr(chain, name), want)
    assert chain.n_resonators == 3 and chain.matched_out is True


def test_dynamics_trace_reads_lists_as_float64():
    trace = DynamicsTrace(t=[0, 1e-9, 2e-9], p_e=[1, 0.5, 0.25])
    assert trace.t.dtype == trace.p_e.dtype == np.float64
    np.testing.assert_array_equal(trace.p_e, [1.0, 0.5, 0.25])


def test_termination_is_checked_as_a_field():
    with pytest.raises(ValidationError, match="ArraySpec.termination_out: "
                       r"expected one of \['matched', 'open_mirror'\]"):
        dataclasses.replace(_VALID["ArraySpec"], termination_out="open")


@pytest.mark.parametrize("cls", [*JsonFields.__subclasses__(), ArraySpec,
                                 Chain, DynamicsTrace],
                         ids=lambda cls: cls.__name__)
def test_every_field_is_type_checked(cls):
    """Each field's type is declared in its class's table, so a field added
    without one fails here rather than going unchecked."""
    assert set(cls._FIELDS) == {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("name, bad", [
    ("c_shunt", [[3e-13], [3e-13, 3e-13]]), ("couplers", [5e-15, [5e-15]])])
def test_chain_rejects_ragged_arrays(name, bad):
    """A ragged nest of lists is not an array of real numbers."""
    with pytest.raises(ValidationError,
                       match=f"Chain.{name}: expected an array of real"):
        Chain(**{**_CHAIN, name: bad})


def test_dynamics_trace_rejects_ragged_arrays():
    with pytest.raises(ValidationError,
                       match="DynamicsTrace.t: expected an array of real"):
        DynamicsTrace(t=[[0.0], [1e-9, 2e-9]], p_e=[1.0, 0.5])


# Values outside each range; for an array None stands for no entries, any
# other value for the last entry of an otherwise good array.
_OUTSIDE = {
    "positive and finite": (0.0, -1e-15, math.inf, math.nan),
    "non-negative and finite": (-1e-15, math.inf, -math.inf, math.nan),
    "positive": (0.0, -1.0, math.nan),      # a quality factor: inf is lossless
    "finite": (math.inf, -math.inf, math.nan),
    "in [0, 1]": (-0.5, 1.5, math.nan),
    "in (0, 1]": (0.0, 1.5, math.nan),
    ">= 0": (-1, 2.5),
    ">= 1": (0, -1, 2.5),
    "non-empty, positive and finite": (None, 0.0, -1e-15, math.inf, math.nan),
}
_POSITIVE = "positive and finite"
_RANGED_FIELDS = {
    "UnitCellParams": (_ROUND_TRIP["UnitCellParams_lossy"], dict(
        c0=_POSITIVE, cg=_POSITIVE, l0=_POSITIVE, q_internal="positive")),
    "BoundaryCellParams": (_VALID["BoundaryCellParams"], dict.fromkeys(
        ("c_shunt", "c_left", "c_right", "l0"), _POSITIVE)),
    "Bend": (_VALID["Bend"], dict(position=">= 1", c_series=_POSITIVE)),
    "ArraySpec": (_VALID["ArraySpec"], dict(interior_count=">= 1",
                                            port_impedance=_POSITIVE)),
    "Chain": (_VALID["ArraySpec"].lower(), {
        **dict.fromkeys(("c_shunt", "l", "couplers"),
                        "non-empty, positive and finite"),
        "q_internal": "positive", "port_impedance": _POSITIVE}),
    "QubitCircuitParams": (_ROUND_TRIP["QubitCircuitParams_lossy"], dict(
        c_sigma=_POSITIVE, couplings="non-negative and finite",
        omega_ge=_POSITIVE, q_intrinsic="positive")),
    "EmitterParams": (_VALID["EmitterParams"], dict(
        omega_ge=_POSITIVE, g_uc="non-negative and finite",
        extra_couplings="finite")),
    "Modulation": (_MODULATION, dict(omega_mod=_POSITIVE,
                                     epsilon="non-negative and finite")),
    "Protocol": (_ROUND_TRIP["Protocol_ramp_modulation"], dict(
        omega_interact=_POSITIVE, t_max=_POSITIVE, dt_output=_POSITIVE,
        initial_excited_population="in [0, 1]",
        tune_time="non-negative and finite", omega_park=_POSITIVE)),
    "TaperProblem": (_ROUND_TRIP["TaperProblem"], dict(
        n_modified=">= 0", band_window="in (0, 1]", max_iterations=">= 1")),
}


@pytest.mark.parametrize("where, bad", [
    (f"{kind}.{name}", bad) for kind, (_, ranges) in _RANGED_FIELDS.items()
    for name, what in ranges.items() for bad in _OUTSIDE[what]])
def test_out_of_range_fields_are_rejected(where, bad):
    """Each field's range is part of its table entry: a value outside it is
    refused by the constructor, naming class and field, and by from_dict,
    naming the key (a coupling map's entry under it), whether the value is
    of the wrong kind (2.5 for a count, NaN in JSON) or out of range."""
    kind, name = where.split(".")
    obj, _ = _RANGED_FIELDS[kind]
    good = getattr(obj, name)
    if isinstance(good, np.ndarray):
        value = np.array([] if bad is None else [*good[:-1], bad])
    else:
        value = {3: bad} if name.endswith("couplings") else bad
    with pytest.raises(ValidationError,
                       match=rf"^{where}( must be |: expected )"):
        dataclasses.replace(obj, **{name: value})
    if kind == "Chain":
        return
    d = obj.to_dict()
    key, = (k for k in d if re.fullmatch(rf"{name}(_[a-z]+)?", k))
    value = {"3": bad} if name.endswith("couplings") else bad
    with pytest.raises(ValidationError,
                       match=rf"^{kind}\.{key}(\.3)?( must be |: expected )"):
        type(obj).from_dict({**d, key: value})


# Runs of samples: few levels, so ties and plateaus are common, with NaN
# and +-inf among them.
_SIGNAL = st.lists(
    st.tuples(st.one_of(st.integers(0, 4).map(float), st.floats(-10, 10),
                        st.sampled_from([math.nan, math.inf, -math.inf])),
              st.integers(1, 4)),
    max_size=400).map(lambda runs: np.repeat(
        np.array([v for v, _ in runs], dtype=float),
        np.array([k for _, k in runs], dtype=int))[:400])


@settings(max_examples=200, deadline=None)
@given(x=_SIGNAL)
def test_find_peaks_matches_scipy(x):
    """The peak finder returns scipy.signal.find_peaks(x, prominence=p)[0]
    bit for bit, dtype included, on plateaus, ties, NaN and +-inf of
    lengths 0 to 400, and on the same samples with ties collapsed, without
    a RuntimeWarning."""
    import scipy.signal
    untied = np.concatenate((x[:1], x[1:][x[1:] != x[:-1]]))    # no ties
    for y in (x, untied):
        for p in (0.0, 0.005, 0.5, 5.0):
            want = scipy.signal.find_peaks(y, prominence=p)[0]
            got = _find_peaks(y, p)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def _sawtooth_peaks(ramp):
    """Peaks whose heights run through ``ramp`` 256 times, each over
    valleys 0.005 below its lower neighbour."""
    top = np.tile(0.01 * ramp, 256)
    x = np.empty(2 * top.size + 1)
    x[1::2] = top
    x[2:-1:2] = np.minimum(top[:-1], top[1:]) - 0.005
    x[[0, -1]] = top[[0, -1]] - 0.005
    return x


def test_find_peaks_matches_scipy_on_long_walks():
    """On random walks of 5000 and 1e5 samples, a noisy ramp, and peaks
    whose heights form a sawtooth of 256-step ramps, rising and falling,
    most walls lie many barriers away, and the peak finder still returns
    scipy's peaks."""
    import scipy.signal
    rng = np.random.default_rng(7)
    for x in (np.cumsum(rng.normal(size=5000)),
              np.linspace(0.0, 1.0, 5000) + 0.01 * rng.normal(size=5000),
              np.cumsum(rng.normal(size=100_000)),
              _sawtooth_peaks(np.arange(256.0)),
              _sawtooth_peaks(np.arange(256.0)[::-1])):
        for p in (0.0, 0.05, 1.0, 10.0):
            assert np.array_equal(_find_peaks(x, p),
                                  scipy.signal.find_peaks(x, prominence=p)[0])


@settings(max_examples=200, deadline=None)
@given(h=st.lists(st.one_of(st.integers(0, 4).map(float),
                            st.sampled_from([math.nan, math.inf, -math.inf])),
                  max_size=300))
def test_walls_match_brute_force(h):
    """_walls gives, for every index, the nearest earlier height that is a
    NaN or higher, as a scan leftward does, on heights with ties, NaN and
    +-inf of lengths 0 to 300."""
    h = np.array(h, dtype=float)
    want = []
    for i in range(h.size):
        j = i - 1
        while j >= 0 and h[j] <= h[i]:
            j -= 1
        want.append(j)
    at = np.arange(h.size)[::-1]
    assert np.array_equal(_walls(h, at), np.array(want[::-1], dtype=int))
