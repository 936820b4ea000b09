"""Parameter containers for the resonator-array waveguide and the emitter.

All frequencies are angular (rad/s) internally.  JSON serialization uses Hz
and explicit unit suffixes in key names (_f, _h, _hz, _s, _ohm); conversion
happens only at that boundary, by the converters each class lists once in
its ``_JSON`` table.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

TWO_PI = 2.0 * math.pi


class ValidationError(ValueError):
    """Raised when a parameter set violates its invariants."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


# Rows formatted per write: holds write_csv's peak memory to about one
# block, whatever the table's length.
_CSV_BLOCK_ROWS = 512


def write_csv(path, header: str, columns, fmt="%.12e") -> None:
    """The equal-length ``columns`` as CSV rows under ``header``, formatted
    by ``fmt`` or by one format per column: the bytes np.savetxt writes with
    delimiter "," and comments "", formatted _CSV_BLOCK_ROWS rows at a
    time."""
    row = ",".join([fmt] * len(columns) if isinstance(fmt, str) else fmt) + "\n"
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, max(map(len, columns), default=0),
                           _CSV_BLOCK_ROWS):
            rows = zip(*(c[start:start + _CSV_BLOCK_ROWS].tolist()
                         for c in columns), strict=True)
            fh.write("".join(map(row.__mod__, rows)))


def write_json(path, obj) -> None:
    """``obj`` as JSON with indent 2, sorted keys and a final newline,
    written whole: to ``path + ".tmp"``, then renamed into place."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


# --------------------------------------------------------------------------
# JSON reading.  A converter returns the value read or raises
# ValidationError; ``read_object`` re-raises that naming the key path, which
# grows by one key per level of nesting.  Other exceptions are bugs and pass.

def _convert(where: str, key: str, convert, value):
    try:
        return convert(value)
    except ValidationError as exc:
        path = (key, *getattr(exc, "path", ()))
        reason = getattr(exc, "reason", str(exc))
        err = ValidationError(".".join((where, *path)) + ": " + reason)
        err.path, err.reason = path, reason
        raise err from None


def read_object(d, where: str, required: dict, optional: dict = None) -> dict:
    """The keys present in the JSON object ``d``, each read by its converter
    in ``required`` or ``optional``; ``where`` names ``d`` in errors."""
    _require(isinstance(d, dict),
             f"{where}: expected a JSON object, got {type(d).__name__}")
    converters = {**required, **(optional or {})}
    unknown = sorted(set(d) - set(converters))
    _require(not unknown, f"{where}: unknown keys {unknown}")
    missing = [k for k in required if k not in d]
    _require(not missing, f"{where}: missing required keys {missing}")
    return {k: _convert(where, k, converters[k], v) for k, v in d.items()}


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def real(v) -> float:
    """A finite number (Python's json also parses NaN and Infinity)."""
    _require(_is_number(v) and math.isfinite(v),
             f"expected a finite number, got {v!r}")
    return float(v)


def hz(v) -> float:
    """A frequency in Hz, read as rad/s."""
    return real(v) * TWO_PI


def integer(v) -> int:
    """A number with an integral value."""
    _require(not isinstance(v, bool) and (isinstance(v, numbers.Integral) or
             isinstance(v, float) and v.is_integer()),
             f"expected an integer, got {v!r}")
    return int(v)


def count(v, name: str, least: int) -> int:
    """The integer argument ``name``, at least ``least``."""
    try:
        v = integer(v)
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from None
    _require(v >= least, f"{name} must be >= {least}")
    return v


def _same(v):
    return v


# Each converter's ``write`` is its inverse, used by ``JsonFields.to_dict``.
real.write = integer.write = _same
hz.write = lambda v: v / TWO_PI


def one_of(options):
    def read(v):
        _require(isinstance(v, str) and v in options,
                 f"expected one of {list(options)}, got {v!r}")
        return v
    read.write = _same
    return read


def nullable(convert):
    def read(v):
        return None if v is None else convert(v)
    read.write = lambda v: None if v is None else convert.write(v)
    return read


def list_of(convert):
    """A JSON list, read item by item into a tuple."""
    def read(v):
        _require(isinstance(v, list), f"expected a JSON list, got {v!r}")
        return tuple(_convert("list", str(i), convert, x)
                     for i, x in enumerate(v))
    read.write = lambda v: [convert.write(x) for x in v]
    return read


def index_map(convert):
    """A JSON object keyed by integers, read into a dict."""
    def read(v):
        _require(isinstance(v, dict) and all(re.fullmatch(r"-?\d+", str(k))
                                             for k in v),
                 f"expected a JSON object keyed by integers, got {v!r}")
        return {int(k): _convert("map", str(k), convert, x)
                for k, x in v.items()}
    read.write = lambda v: {str(k): convert.write(x)
                            for k, x in sorted(v.items())}
    return read


def nested(cls):
    """A JSON object read by ``cls.from_dict``."""
    def read(v):
        return cls.from_dict(v)
    read.write = lambda v: v.to_dict()
    return read


def _field_name(key: str) -> str:
    """The dataclass field a JSON key names: the key minus its unit."""
    return re.sub(r"_(f|h|hz|s|ohm)$", "", key)


def as_fields(values: dict) -> dict:
    """``values`` keyed by dataclass field."""
    return {_field_name(k): v for k, v in values.items()}


def _integer_field(obj, name: str) -> None:
    """Set the frozen ``obj``'s field ``name`` to its value read by
    ``integer``, so 22.0 reads as 22 as it does in JSON."""
    object.__setattr__(obj, name, _convert(type(obj).__name__, name, integer,
                                           getattr(obj, name)))


def _instance_fields(obj, kind, *names, optional=False, items=False) -> None:
    """Check that ``obj``'s fields ``names`` each hold what the JSON reader
    builds for them: a ``kind``, None as well when ``optional``, or a tuple
    or list of ``kind`` when ``items``.  A wrong type then raises
    ValidationError naming class and field, rather than an AttributeError
    where the field is first read.  Converts nothing."""
    for name in names:
        v = getattr(obj, name)
        if items:
            ok = (isinstance(v, (tuple, list))
                  and all(isinstance(x, kind) for x in v))
        else:
            ok = isinstance(v, kind) or optional and v is None
        if not ok:          # the message is built only on failure
            what = (f"a tuple of {kind.__name__}" if items else
                    f"{kind.__name__} or None" if optional else kind.__name__)
            raise ValidationError(f"{type(obj).__name__}.{name}: expected "
                                  f"{what}, got {v!r}")


def _real_fields(obj, *names, maps=(), optional=()) -> None:
    """Check that ``obj``'s fields ``names``, every value of its dict fields
    ``maps`` (each checked to be a dict first) and each of its fields
    ``optional`` that is not None hold real numbers other than bool, so the
    range checks that follow raise ValidationError rather than TypeError.
    Converts nothing."""
    _instance_fields(obj, dict, *maps)
    values = [(n, getattr(obj, n)) for n in names]
    values += [(n, v) for n in maps for v in getattr(obj, n).values()]
    values += [(n, getattr(obj, n)) for n in optional
               if getattr(obj, n) is not None]
    for name, v in values:
        if not _is_number(v):   # the message is built only on failure
            raise ValidationError(f"{type(obj).__name__}.{name}: expected a "
                                  f"number, got {v!r}")


class JsonFields:
    """A dataclass whose JSON object is declared once, in ``_JSON =
    (required, optional)``: each maps a key (the field plus its unit) to
    the converter that reads it and writes it back.  ``to_dict`` leaves out
    an optional key whose value is None, inf or an empty dict."""

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**as_fields(read_object(d, cls.__name__, *cls._JSON)))

    def to_dict(self) -> dict:
        required, optional = self._JSON
        d = {}
        for key, convert in {**required, **optional}.items():
            v = getattr(self, _field_name(key))
            if key in required or v not in (None, math.inf, {}):
                d[key] = convert.write(v)
        return d


@dataclass(frozen=True)
class UnitCellParams(JsonFields):
    """One periodic cell: shunt capacitance c0 and inductance l0 to ground,
    coupling capacitance cg to each neighbour."""

    c0: float           # F
    cg: float           # F
    l0: float           # H
    q_internal: float = math.inf
    _JSON = ({"c0_f": real, "cg_f": real, "l0_h": real}, {"q_internal": real})

    def __post_init__(self):
        _real_fields(self, "c0", "cg", "l0", "q_internal")
        _require(0 < self.c0 < math.inf, "c0 must be positive and finite")
        _require(0 < self.cg < math.inf, "cg must be positive and finite")
        _require(0 < self.l0 < math.inf, "l0 must be positive and finite")
        _require(self.q_internal > 0, "q_internal must be positive")

    @property
    def omega0(self) -> float:
        """Bare resonance frequency 1/sqrt(l0*c0) in rad/s."""
        return 1.0 / math.sqrt(self.l0 * self.c0)

    @property
    def coupling_ratio(self) -> float:
        return self.cg / self.c0


@dataclass(frozen=True)
class BoundaryCellParams(JsonFields):
    """Impedance-matching boundary resonator (a pi-section).

    c_left couples toward the port side, c_right toward the interior.
    """

    c_shunt: float      # F
    c_left: float       # F
    c_right: float      # F
    l0: float           # H
    _JSON = (dict.fromkeys(("c_shunt_f", "c_left_f", "c_right_f", "l0_h"),
                           real), {})

    def __post_init__(self):
        _real_fields(self, "c_shunt", "c_left", "c_right", "l0")
        for name in ("c_shunt", "c_left", "c_right", "l0"):
            _require(0 < getattr(self, name) < math.inf,
                     f"{name} must be positive and finite")

    @property
    def c_total(self) -> float:
        """Total capacitance of the cell, the quantity held fixed during taper
        optimization."""
        return self.c_shunt + self.c_left + self.c_right


def boundary_cells(couplers, shunts, l0) -> tuple:
    """Matching cells from the port inward: cell i has shunt ``shunts[i]``
    between couplers ``couplers[i]`` (port side) and ``couplers[i + 1]``
    (interior side), so neighbouring cells share their coupler."""
    _require(len(couplers) == len(shunts) + 1,
             "boundary cells need one coupler more than shunts")
    return tuple(BoundaryCellParams(c_shunt=c, c_left=a, c_right=b, l0=l0)
                 for c, a, b in zip(shunts, couplers, couplers[1:]))


@dataclass(frozen=True)
class Bend(JsonFields):
    """Imperfect inter-row connection, modeled as a single series capacitance
    replacing the normal coupler between resonators ``position`` and
    ``position + 1`` (1-based, counted over the full chain)."""

    position: int
    c_series: float     # F
    _JSON = ({"position": integer, "c_series_f": real}, {})

    def __post_init__(self):
        _integer_field(self, "position")
        _real_fields(self, "c_series")
        _require(self.position >= 1, "bend position must be >= 1")
        _require(0 < self.c_series < math.inf,
                 "bend c_series must be positive and finite")


TERMINATIONS = ("matched", "open_mirror")

# Relative tolerance for the shared-capacitor consistency check between
# adjacent boundary cells.
_SHARED_CAP_RTOL = 1e-9


@dataclass(frozen=True)
class ArraySpec:
    """A finite chain: tapered boundary cells, identical interior cells, and
    port terminations.

    Boundary lists are ordered from the port inward on both sides, so
    ``boundary_out`` is traversed in reverse when cascading input to output.
    Adjacent boundary cells share their coupling capacitor: cell i's c_right
    must equal cell i+1's c_left.
    """

    interior: UnitCellParams
    interior_count: int
    boundary_in: tuple = ()
    boundary_out: tuple = ()
    port_impedance: float = 50.0
    termination_out: str = "matched"
    bend: Optional[Bend] = None

    def __post_init__(self):
        _instance_fields(self, UnitCellParams, "interior")
        _instance_fields(self, BoundaryCellParams, "boundary_in",
                         "boundary_out", items=True)
        _instance_fields(self, Bend, "bend", optional=True)
        object.__setattr__(self, "boundary_in", tuple(self.boundary_in))
        object.__setattr__(self, "boundary_out", tuple(self.boundary_out))
        _integer_field(self, "interior_count")
        _real_fields(self, "port_impedance")
        _require(self.interior_count >= 1, "interior_count must be >= 1")
        _require(0 < self.port_impedance < math.inf,
                 "port_impedance must be positive and finite")
        _require(self.termination_out in TERMINATIONS,
                 f"termination_out must be one of {TERMINATIONS}")
        for cells in (self.boundary_in, self.boundary_out):
            for a, b in zip(cells, cells[1:]):
                _require(abs(a.c_right - b.c_left) <= _SHARED_CAP_RTOL * a.c_right,
                         "adjacent boundary cells disagree on their shared coupler")
        if self.bend is not None:
            _require(self.bend.position < self.n_resonators,
                     "bend position must lie inside the chain")

    @property
    def n_resonators(self) -> int:
        return len(self.boundary_in) + self.interior_count + len(self.boundary_out)

    def shunt_elements(self) -> list:
        """Per-resonator (c_shunt, l) from input port to output port."""
        out = [(b.c_shunt, b.l0) for b in self.boundary_in]
        out += [(self.interior.c0, self.interior.l0)] * self.interior_count
        out += [(b.c_shunt, b.l0) for b in reversed(self.boundary_out)]
        return out

    def coupler_elements(self) -> list:
        """Series coupling capacitors, length n_resonators + 1.

        Element 0 couples the input port to resonator 1; element i couples
        resonator i to i+1; the last element couples to the output port.
        """
        cg = self.interior.cg

        def side(cells):    # port inward: each c_left, then the inner c_right
            return [b.c_left for b in cells] + [cells[-1].c_right if cells else cg]

        couplers = (side(self.boundary_in) + [cg] * (self.interior_count - 1)
                    + side(self.boundary_out)[::-1])
        if self.bend is not None:
            couplers[self.bend.position] = self.bend.c_series
        return couplers

    def lower(self) -> "Chain":
        """The chain as per-resonator arrays, the form every solver reads."""
        c_shunt, l = np.array(self.shunt_elements()).T
        return Chain(c_shunt=c_shunt, l=l,
                     couplers=np.array(self.coupler_elements()),
                     q_internal=self.interior.q_internal,
                     port_impedance=self.port_impedance,
                     matched_out=self.termination_out == "matched")

    def to_dict(self) -> dict:
        return {
            "c0_f": self.interior.c0,
            "cg_f": self.interior.cg,
            "l0_h": self.interior.l0,
            "q_internal": self.interior.q_internal if math.isfinite(self.interior.q_internal) else None,
            "boundary_in": [b.to_dict() for b in self.boundary_in],
            "boundary_out": [b.to_dict() for b in self.boundary_out],
            "interior_count": self.interior_count,
            "port_impedance_ohm": self.port_impedance,
            "termination_out": self.termination_out,
            "bend": self.bend.to_dict() if self.bend else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArraySpec":
        cells = list_of(nested(BoundaryCellParams))
        v = as_fields(read_object(
            d, cls.__name__,
            {"c0_f": real, "cg_f": real, "l0_h": real, "interior_count": integer},
            {"q_internal": nullable(real), "boundary_in": cells,
             "boundary_out": cells, "port_impedance_ohm": real,
             "termination_out": one_of(TERMINATIONS),
             "bend": nullable(nested(Bend))}))
        q = v.pop("q_internal", None)
        interior = UnitCellParams(c0=v.pop("c0"), cg=v.pop("cg"), l0=v.pop("l0"),
                                  q_internal=math.inf if q is None else q)
        return cls(interior=interior, **v)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArraySpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True, eq=False)
class Chain:
    """A chain lowered to per-resonator arrays, input port first.  ``couplers``
    is as in ``ArraySpec.coupler_elements``, n_resonators + 1 of them.

    ``l`` may stack realizations as shape (realizations, n_resonators);
    ``c_shunt`` and ``couplers`` are then shared by all of them.  The ABCD
    cascade reads a stack; the state-space model takes one realization."""

    c_shunt: np.ndarray     # F
    l: np.ndarray           # H
    couplers: np.ndarray    # F
    q_internal: float = math.inf
    port_impedance: float = 50.0
    matched_out: bool = True

    def __post_init__(self):
        _require(np.ndim(self.c_shunt) == 1 and np.ndim(self.couplers) == 1,
                 "Chain.c_shunt and Chain.couplers must be 1-D")
        _require(self.couplers.size == self.n_resonators + 1,
                 "Chain.couplers must have n_resonators + 1 entries")
        _real_fields(self, "q_internal", "port_impedance")
        _require(np.ndim(self.l) in (1, 2)
                 and np.shape(self.l)[-1] == self.n_resonators,
                 "Chain.l must have shape (n_resonators,) or "
                 "(realizations, n_resonators)")
        for name in ("c_shunt", "l", "couplers"):
            v = getattr(self, name)     # min and max propagate NaN
            _require(0 < v.min() and v.max() < math.inf,
                     f"Chain.{name} must be positive and finite")
        _require(0 < self.port_impedance < math.inf,
                 "Chain.port_impedance must be positive and finite")
        _require(self.q_internal > 0, "Chain.q_internal must be positive")

    @property
    def n_resonators(self) -> int:
        return self.c_shunt.size

    @property
    def g_loss(self) -> np.ndarray:
        """Parallel loss conductance omega_res * c_shunt / q, valid near
        resonance."""
        if math.isinf(self.q_internal):
            return np.zeros_like(self.c_shunt)
        return np.sqrt(self.c_shunt / self.l) / self.q_internal

    def lower(self) -> "Chain":
        return self


@dataclass(frozen=True)
class QubitCircuitParams(JsonFields):
    """Linearized qubit as circuit elements: shunt capacitance, per-resonator
    coupling capacitances, tunable bare frequency and intrinsic Q."""

    c_sigma: float                      # F, excluding couplings
    couplings: dict = field(default_factory=dict)  # resonator index (1-based) -> F
    omega_ge: float = field(kw_only=True)  # rad/s, bare frequency (node loaded by neighbours grounded)
    q_intrinsic: float = math.inf
    _JSON = ({"c_sigma_f": real, "couplings_f": index_map(real),
              "omega_ge_hz": hz}, {"q_intrinsic": real})

    def __post_init__(self):
        _real_fields(self, "c_sigma", "omega_ge", "q_intrinsic",
                     maps=("couplings",))
        _require(0 < self.c_sigma < math.inf, "c_sigma must be positive and finite")
        _require(len(self.couplings) > 0, "qubit needs at least one coupling")
        _require(all(0 <= c < math.inf for c in self.couplings.values()),
                 "coupling capacitance must be non-negative and finite")
        object.__setattr__(self, "couplings", {
            _convert(type(self).__name__, "couplings", integer, k): float(c)
            for k, c in self.couplings.items()})
        _require(min(self.couplings) >= 1, "coupling index must be >= 1")
        _require(0 < self.omega_ge < math.inf,
                 "omega_ge must be positive and finite")
        _require(self.q_intrinsic > 0, "q_intrinsic must be positive")

    @property
    def c_node(self) -> float:
        """Total node capacitance (shunt plus all couplers)."""
        return self.c_sigma + sum(self.couplings.values())

    def inductance_for(self, omega: float) -> float:
        """Inductance realizing bare frequency ``omega`` at this node."""
        return 1.0 / (omega**2 * self.c_node)


@dataclass(frozen=True)
class EmitterParams(JsonFields):
    """Physics-level emitter: bare transition frequency and rate-level coupling
    to one unit cell, plus optional parasitic couplings at cell offsets."""

    omega_ge: float                     # rad/s
    g_uc: float                         # rad/s
    extra_couplings: dict = field(default_factory=dict)  # cell offset -> rad/s
    _JSON = ({"omega_ge_hz": hz, "g_uc_hz": hz},
             {"extra_couplings_hz": index_map(hz)})

    def __post_init__(self):
        _real_fields(self, "omega_ge", "g_uc", maps=("extra_couplings",))
        _require(0 < self.omega_ge < math.inf, "omega_ge must be positive and finite")
        _require(0 <= self.g_uc < math.inf, "g_uc must be non-negative and finite")
        _require(all(map(math.isfinite, self.extra_couplings.values())),
                 "extra couplings must be finite")
        object.__setattr__(self, "extra_couplings", {
            _convert(type(self).__name__, "extra_couplings", integer, k): float(v)
            for k, v in self.extra_couplings.items()})
