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


def _walls(h, at) -> np.ndarray:
    """For each index i in ``at``, the nearest j < i whose ``h[j]`` is not
    <= ``h[i]`` (a NaN or a higher value), else -1.

    Binary lifting over a sparse table: level k holds the maxima of h over
    the blocks h[j:j + 2**k] (np.maximum carries a NaN, so a block holding
    one is never <= anything).  The left end c of every query starts at i
    and, for k from the top level down, moves to c - 2**k where that block
    is <= h[i]: ceil(log2(len(h))) rounds for all of ``at`` at once (the
    blocks below len(h) add up to at least i), in O(len(h) log len(h))
    memory.
    """
    levels = [h]
    while 2 ** len(levels) < h.size:
        top, half = levels[-1], 2 ** (len(levels) - 1)
        levels.append(np.maximum(top[:-half], top[half:]))
    c = np.array(at)
    for k in reversed(range(len(levels))):
        s = c - 2 ** k
        c = np.where((s >= 0) & (levels[k][np.maximum(s, 0)] <= h[at]), s, c)
    return c - 1


def _find_peaks(x, prominence: float) -> np.ndarray:
    """Indices of the peaks of the 1-D ``x`` with at least ``prominence``,
    bit for bit those SciPy's ``find_peaks(x, prominence=prominence)``
    returns.

    A peak is a run of equal samples whose neighbouring runs are both lower,
    placed at the run's midpoint (the left one of two); a NaN is a run of
    its own, lower and higher than nothing, so it is never a peak or a
    peak's neighbour.  Its prominence is its height over the higher of its
    two bases, the lowest samples on each side before a higher sample, a NaN
    or the end of ``x``.  Peaks and NaNs are the barriers: between two
    consecutive barriers the samples fall and then rise, so a base is the
    lowest valley minimum up to the nearest barrier that is a NaN or higher
    (its wall).
    """
    x = np.asarray(x, dtype=float)
    ne = x[1:] != x[:-1]
    if ne.all():        # no ties: every sample is a run of its own
        peaks = np.flatnonzero((x[:-2] < x[1:-1]) & (x[1:-1] > x[2:])) + 1
    else:               # run k + 1 ends at ends[k + 1], after ends[k]
        ends = np.flatnonzero(ne)
        a, b = x[ends], x[1:][ends]
        top = np.flatnonzero((a[:-1] < b[:-1]) & (a[1:] > b[1:]))
        peaks = (ends[top] + ends[top + 1] + 1) // 2
    if peaks.size == 0:
        return peaks
    bars = np.sort(np.concatenate((peaks, np.flatnonzero(np.isnan(x)))))
    # valley[s]: the lowest sample from barrier s - 1 (or the start) up to
    # barrier s (or the end), NaNs left out
    valley = np.fmin.reduceat(x, np.concatenate(([0], bars)))
    pos = np.searchsorted(bars, peaks)
    height = x[peaks]
    # the two adjacent valleys bound the prominence from below
    keep = height - np.maximum(valley[pos], valley[pos + 1]) >= prominence
    todo = np.flatnonzero(~keep)
    if todo.size:
        # both walls from one _walls call: the right ones on the reversed
        # barriers, behind a NaN that stands for the end
        m, p = bars.size, pos[todo]
        hb = x[bars]
        w = _walls(np.concatenate((hb, [np.nan], hb[::-1])),
                   np.concatenate((p, 2 * m - p)))
        # the valleys from wall to peak and from peak to wall
        base = np.minimum.reduceat(np.append(valley, np.inf), np.column_stack(
            (w[:p.size] + 1, p + 1, p + 1, 2 * m + 1 - w[p.size:])).ravel())
        keep[todo] = (height[todo] - np.maximum(base[0::4], base[2::4])
                      >= prominence)
    return peaks[keep]


# --------------------------------------------------------------------------
# JSON reading.  A converter returns the value read or raises
# ValidationError; ``read_object`` re-raises that naming the key path, which
# grows by one key per level of nesting ("path must be …" for a value out of
# range, "path: …" otherwise).  Other exceptions are bugs and pass.

def _convert(where: str, key: str, convert, value):
    try:
        return convert(value)
    except ValidationError as exc:
        path = (key, *getattr(exc, "path", ()))
        reason = getattr(exc, "reason", ": " + str(exc))
        err = ValidationError(".".join((where, *path)).lstrip(".") + reason)
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
    # float, the usual case, first: isinstance of numbers.Real costs more
    return type(v) is float or (isinstance(v, numbers.Real)
                                and not isinstance(v, bool))


def _expect(ok: bool, what: str, v):
    """``v`` if ``ok``, else ValidationError "expected ``what``, got ``v``",
    its message built only then."""
    if not ok:
        raise ValidationError(f"expected {what}, got {v!r}")
    return v


def real(v) -> float:
    """A finite number (Python's json also parses NaN and Infinity)."""
    return float(_expect(_is_number(v) and math.isfinite(v),
                         "a finite number", v))


def hz(v) -> float:
    """A frequency in Hz, read as rad/s."""
    return real(v) * TWO_PI


def integer(v) -> int:
    """A number with an integral value."""
    return int(_expect(not isinstance(v, bool) and (
        isinstance(v, numbers.Integral) or
        isinstance(v, float) and v.is_integer()), "an integer", v))


def _same(v):
    return v


# A converter's ``check`` reads a constructor argument as its field stores it
# (so ``hz.check`` converts nothing), for ``_check_fields``; its ``write`` is
# its inverse, used by ``JsonFields.to_dict``.
real.check = hz.check = lambda v: _expect(_is_number(v), "a number", v)
integer.check = integer
real.write = integer.write = _same
hz.write = lambda v: v / TWO_PI


def limited(convert, ok, what: str):
    """``convert`` (read and check) restricted to the values ``ok`` accepts,
    else ValidationError "must be ``what``, got …", its message built only
    then.  ``ok`` reads the value as converted, once its type is checked; the
    message shows the value as given (a Hz key in Hz)."""
    def restrict(read):
        def limited_read(v):
            if ok(out := read(v)):
                return out
            err = ValidationError(f"must be {what}, got {v!r}")
            err.reason = f" {err}"
            raise err
        return limited_read
    read = restrict(convert)
    vars(read).update(vars(convert), check=restrict(convert.check))
    return read


def positive(convert):
    return limited(convert, lambda v: 0 < v < math.inf, "positive and finite")


def non_negative(convert):
    return limited(convert, lambda v: 0 <= v < math.inf,
                   "non-negative and finite")


def at_least(least: int):
    """An integer, at least ``least``."""
    return limited(integer, lambda v: v >= least, f">= {least}")


# A quality factor: inf (lossless) passes a constructor; JSON leaves it out.
quality = limited(real, lambda v: v > 0, "positive")


def count(v, name: str, least: int) -> int:
    """The integer argument ``name``, at least ``least``."""
    return _convert("", name, at_least(least), v)


def one_of(options):
    what = f"one of {list(options)}"

    def read(v):
        return _expect(isinstance(v, str) and v in options, what, v)
    read.check = read
    read.write = _same
    return read


def nullable(convert):
    def read(v):
        return None if v is None else convert(v)
    read.check = lambda v: None if v is None else convert.check(v)
    read.write = lambda v: None if v is None else convert.write(v)
    return read


def list_of(convert):
    """A JSON list, read item by item into a tuple."""
    def read(v):
        _expect(isinstance(v, list), "a JSON list", v)
        return tuple(_convert("list", str(i), convert, x)
                     for i, x in enumerate(v))
    read.check = lambda v: tuple(map(convert.check, _expect(
        isinstance(v, (tuple, list)), "a tuple or list", v)))
    read.write = lambda v: [convert.write(x) for x in v]
    return read


def index_map(convert):
    """A JSON object keyed by integers, read into a dict."""
    def read(v):
        _expect(isinstance(v, dict) and all(re.fullmatch(r"-?\d+", str(k))
                                            for k in v),
                "a JSON object keyed by integers", v)
        return {int(k): _convert("map", str(k), convert, x)
                for k, x in v.items()}

    def check(v):
        _expect(isinstance(v, dict), "a dict keyed by integers", v)
        return {integer(k): float(convert.check(x)) for k, x in v.items()}
    read.check = check
    read.write = lambda v: {str(k): convert.write(x)
                            for k, x in sorted(v.items())}
    return read


def nested(cls):
    """A JSON object read by ``cls.from_dict``."""
    def read(v):
        return cls.from_dict(v)
    read.check = lambda v: _expect(isinstance(v, cls), cls.__name__, v)
    read.write = lambda v: v.to_dict()
    return read


def real_array(v) -> np.ndarray:
    """Real numbers other than bool, any shape, as float64.  Fields only."""
    try:
        a = np.asarray(v)
    except ValueError:      # numpy's "inhomogeneous shape": a ragged nest
        a = None
    _expect(a is not None and a.dtype.kind in "iuf",
            "an array of real numbers", v)
    return a.astype(np.float64, copy=False)


def boolean(v) -> bool:
    """A bool, numpy's included.  Fields only."""
    return bool(_expect(isinstance(v, (bool, np.bool_)), "a bool", v))


real_array.check = real_array
boolean.check = boolean
positive_array = limited(
    real_array, lambda a: a.size and 0 < a.min() and a.max() < math.inf,
    "non-empty, positive and finite")


def _field_name(key: str) -> str:
    """The dataclass field a JSON key names: the key minus its unit."""
    return re.sub(r"_(f|h|hz|s|ohm)$", "", key)


def as_fields(values: dict) -> dict:
    """``values`` keyed by dataclass field."""
    return {_field_name(k): v for k, v in values.items()}


def _check_fields(obj) -> None:
    """Store each field of the frozen ``obj`` as read by its converter's
    ``check`` in ``obj._FIELDS``, raising ValidationError that names class and
    field on a wrong type or a value out of range, before any rule that reads
    two fields runs."""
    for name, convert in obj._FIELDS.items():
        object.__setattr__(obj, name, _convert(
            type(obj).__name__, name, convert.check, getattr(obj, name)))


class JsonFields:
    """A dataclass whose fields are typed once, in ``_JSON = (required,
    optional)``: each maps a key (the field plus its unit) to the converter
    that reads it from JSON, writes it back and checks the constructor's
    argument, type and range (``_FIELDS``, derived once per class).
    ``to_dict`` omits an optional key whose value is None, inf or {}."""

    def __init_subclass__(cls):
        cls._FIELDS = as_fields({**cls._JSON[0], **cls._JSON[1]})

    __post_init__ = _check_fields

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
    _JSON = ({"c0_f": positive(real), "cg_f": positive(real),
              "l0_h": positive(real)}, {"q_internal": quality})

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
                           positive(real)), {})

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
    _JSON = ({"position": at_least(1), "c_series_f": positive(real)}, {})


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
    _FIELDS = {"interior": nested(UnitCellParams),
               "interior_count": at_least(1),
               **dict.fromkeys(("boundary_in", "boundary_out"),
                               list_of(nested(BoundaryCellParams))),
               "port_impedance": positive(real),
               "termination_out": one_of(TERMINATIONS),
               "bend": nullable(nested(Bend))}

    def __post_init__(self):
        _check_fields(self)
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
        fields = cls._FIELDS
        v = as_fields(read_object(      # with the interior cell's keys
            d, cls.__name__,
            {**UnitCellParams._JSON[0], "interior_count": fields["interior_count"]},
            {"q_internal": nullable(quality),
             "port_impedance_ohm": fields["port_impedance"],
             **{k: fields[k] for k in ("boundary_in", "boundary_out",
                                       "termination_out", "bend")}}))
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
    _FIELDS = {**dict.fromkeys(("c_shunt", "l", "couplers"), positive_array),
               "q_internal": quality, "port_impedance": positive(real),
               "matched_out": boolean}

    def __post_init__(self):
        _check_fields(self)
        _require(np.ndim(self.c_shunt) == 1 and np.ndim(self.couplers) == 1,
                 "Chain.c_shunt and Chain.couplers must be 1-D")
        _require(self.couplers.size == self.n_resonators + 1,
                 "Chain.couplers must have n_resonators + 1 entries")
        _require(np.ndim(self.l) in (1, 2)
                 and np.shape(self.l)[-1] == self.n_resonators,
                 "Chain.l must have shape (n_resonators,) or "
                 "(realizations, n_resonators)")

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
    _JSON = ({"c_sigma_f": positive(real),
              "couplings_f": index_map(non_negative(real)),
              "omega_ge_hz": positive(hz)}, {"q_intrinsic": quality})

    def __post_init__(self):
        _check_fields(self)
        _require(len(self.couplings) > 0, "qubit needs at least one coupling")
        _require(min(self.couplings) >= 1, "coupling index must be >= 1")

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
    _JSON = ({"omega_ge_hz": positive(hz), "g_uc_hz": non_negative(hz)},
             {"extra_couplings_hz": index_map(limited(hz, math.isfinite,
                                                      "finite"))})
