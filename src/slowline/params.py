"""Parameter containers for the resonator-array waveguide and the emitter.

All frequencies are angular (rad/s) internally.  JSON serialization uses Hz
and explicit unit suffixes in key names (_f, _h, _hz, _s, _ohm); conversion
happens only at that boundary.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

TWO_PI = 2.0 * math.pi


class ValidationError(ValueError):
    """Raised when a parameter set violates its invariants."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


@dataclass(frozen=True)
class UnitCellParams:
    """One periodic cell: shunt capacitance c0 and inductance l0 to ground,
    coupling capacitance cg to each neighbour."""

    c0: float           # F
    cg: float           # F
    l0: float           # H
    q_internal: float = math.inf

    def __post_init__(self):
        _require(self.c0 > 0, "c0 must be positive")
        _require(self.cg >= 0, "cg must be non-negative")
        _require(self.l0 > 0, "l0 must be positive")
        _require(self.q_internal > 0, "q_internal must be positive")

    @property
    def omega0(self) -> float:
        """Bare resonance frequency 1/sqrt(l0*c0) in rad/s."""
        return 1.0 / math.sqrt(self.l0 * self.c0)

    @property
    def coupling_ratio(self) -> float:
        return self.cg / self.c0

    def to_dict(self) -> dict:
        d = {"c0_f": self.c0, "cg_f": self.cg, "l0_h": self.l0}
        if math.isfinite(self.q_internal):
            d["q_internal"] = self.q_internal
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "UnitCellParams":
        known = {"c0_f", "cg_f", "l0_h", "q_internal"}
        unknown = set(d) - known
        _require(not unknown, f"unknown unit-cell keys: {sorted(unknown)}")
        for k in ("c0_f", "cg_f", "l0_h"):
            _require(k in d, f"missing unit-cell key: {k}")
        return cls(c0=float(d["c0_f"]), cg=float(d["cg_f"]),
                   l0=float(d["l0_h"]), q_internal=float(d.get("q_internal", math.inf)))


@dataclass(frozen=True)
class BoundaryCellParams:
    """Impedance-matching boundary resonator (a pi-section).

    c_left couples toward the port side, c_right toward the interior.
    """

    c_shunt: float      # F
    c_left: float       # F
    c_right: float      # F
    l0: float           # H

    def __post_init__(self):
        for name in ("c_shunt", "c_left", "c_right", "l0"):
            _require(getattr(self, name) > 0, f"{name} must be positive")

    @property
    def c_total(self) -> float:
        """Total capacitance of the cell, the quantity held fixed during taper
        optimization."""
        return self.c_shunt + self.c_left + self.c_right

    def to_dict(self) -> dict:
        return {"c_shunt_f": self.c_shunt, "c_left_f": self.c_left,
                "c_right_f": self.c_right, "l0_h": self.l0}

    @classmethod
    def from_dict(cls, d: dict) -> "BoundaryCellParams":
        known = {"c_shunt_f", "c_left_f", "c_right_f", "l0_h"}
        unknown = set(d) - known
        _require(not unknown, f"unknown boundary-cell keys: {sorted(unknown)}")
        for k in known:
            _require(k in d, f"missing boundary-cell key: {k}")
        return cls(c_shunt=float(d["c_shunt_f"]), c_left=float(d["c_left_f"]),
                   c_right=float(d["c_right_f"]), l0=float(d["l0_h"]))


@dataclass(frozen=True)
class Bend:
    """Imperfect inter-row connection, modeled as a single series capacitance
    replacing the normal coupler between resonators ``position`` and
    ``position + 1`` (1-based, counted over the full chain)."""

    position: int
    c_series: float     # F

    def __post_init__(self):
        _require(self.position >= 1, "bend position must be >= 1")
        _require(self.c_series > 0, "bend c_series must be positive")

    def to_dict(self) -> dict:
        return {"position": self.position, "c_series_f": self.c_series}

    @classmethod
    def from_dict(cls, d: dict) -> "Bend":
        known = {"position", "c_series_f"}
        unknown = set(d) - known
        _require(not unknown, f"unknown bend keys: {sorted(unknown)}")
        return cls(position=int(d["position"]), c_series=float(d["c_series_f"]))


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
        object.__setattr__(self, "boundary_in", tuple(self.boundary_in))
        object.__setattr__(self, "boundary_out", tuple(self.boundary_out))
        _require(self.interior_count >= 1, "interior_count must be >= 1")
        _require(self.port_impedance > 0, "port_impedance must be positive")
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
        couplers = []
        if self.boundary_in:
            couplers += [b.c_left for b in self.boundary_in]
            couplers.append(self.boundary_in[-1].c_right)
        else:
            couplers.append(cg)
        couplers += [cg] * (self.interior_count - 1)
        if self.boundary_out:
            couplers.append(self.boundary_out[-1].c_right)
            couplers += [b.c_left for b in reversed(self.boundary_out)]
        else:
            couplers.append(cg)
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
        d = {
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
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ArraySpec":
        known = {"c0_f", "cg_f", "l0_h", "q_internal", "boundary_in",
                 "boundary_out", "interior_count", "port_impedance_ohm",
                 "termination_out", "bend"}
        unknown = set(d) - known
        _require(not unknown, f"unknown array-spec keys: {sorted(unknown)}")
        for k in ("c0_f", "cg_f", "l0_h", "interior_count"):
            _require(k in d, f"missing array-spec key: {k}")
        q = d.get("q_internal")
        cell = UnitCellParams(c0=float(d["c0_f"]), cg=float(d["cg_f"]),
                              l0=float(d["l0_h"]),
                              q_internal=float(q) if q is not None else math.inf)
        bend = d.get("bend")
        return cls(
            interior=cell,
            interior_count=int(d["interior_count"]),
            boundary_in=tuple(BoundaryCellParams.from_dict(b)
                              for b in d.get("boundary_in", [])),
            boundary_out=tuple(BoundaryCellParams.from_dict(b)
                               for b in d.get("boundary_out", [])),
            port_impedance=float(d.get("port_impedance_ohm", 50.0)),
            termination_out=d.get("termination_out", "matched"),
            bend=Bend.from_dict(bend) if bend else None,
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArraySpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True, eq=False)
class Chain:
    """A chain lowered to per-resonator arrays, input port first.  ``couplers``
    is as in ``ArraySpec.coupler_elements``; a lone unit cell has one."""

    c_shunt: np.ndarray     # F
    l: np.ndarray           # H
    couplers: np.ndarray    # F
    q_internal: float = math.inf
    port_impedance: float = 50.0
    matched_out: bool = True

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
class QubitCircuitParams:
    """Linearized qubit as circuit elements: shunt capacitance, per-resonator
    coupling capacitances, tunable bare frequency and intrinsic Q."""

    c_sigma: float                      # F, excluding couplings
    couplings: dict = field(default_factory=dict)  # resonator index (1-based) -> F
    omega_ge: float = 0.0               # rad/s, bare frequency (node loaded by neighbours grounded)
    q_intrinsic: float = math.inf

    def __post_init__(self):
        _require(self.c_sigma > 0, "c_sigma must be positive")
        _require(len(self.couplings) > 0, "qubit needs at least one coupling")
        for idx, c in self.couplings.items():
            _require(int(idx) >= 1, "coupling index must be >= 1")
            _require(c >= 0, "coupling capacitance must be non-negative")
        _require(self.omega_ge > 0, "omega_ge must be positive")
        _require(self.q_intrinsic > 0, "q_intrinsic must be positive")
        object.__setattr__(self, "couplings",
                           {int(k): float(v) for k, v in self.couplings.items()})

    @property
    def c_node(self) -> float:
        """Total node capacitance (shunt plus all couplers)."""
        return self.c_sigma + sum(self.couplings.values())

    def inductance_for(self, omega: float) -> float:
        """Inductance realizing bare frequency ``omega`` at this node."""
        return 1.0 / (omega**2 * self.c_node)

    def to_dict(self) -> dict:
        d = {
            "c_sigma_f": self.c_sigma,
            "couplings_f": {str(k): v for k, v in sorted(self.couplings.items())},
            "omega_ge_hz": self.omega_ge / TWO_PI,
        }
        if math.isfinite(self.q_intrinsic):
            d["q_intrinsic"] = self.q_intrinsic
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "QubitCircuitParams":
        known = {"c_sigma_f", "couplings_f", "omega_ge_hz", "q_intrinsic"}
        unknown = set(d) - known
        _require(not unknown, f"unknown qubit keys: {sorted(unknown)}")
        for k in ("c_sigma_f", "couplings_f", "omega_ge_hz"):
            _require(k in d, f"missing qubit key: {k}")
        return cls(c_sigma=float(d["c_sigma_f"]),
                   couplings={int(k): float(v) for k, v in d["couplings_f"].items()},
                   omega_ge=float(d["omega_ge_hz"]) * TWO_PI,
                   q_intrinsic=float(d.get("q_intrinsic", math.inf)))


@dataclass(frozen=True)
class EmitterParams:
    """Physics-level emitter: bare transition frequency and rate-level coupling
    to one unit cell, plus optional parasitic couplings at cell offsets."""

    omega_ge: float                     # rad/s
    g_uc: float                         # rad/s
    extra_couplings: dict = field(default_factory=dict)  # cell offset -> rad/s
    q_intrinsic: float = math.inf

    def __post_init__(self):
        _require(self.omega_ge > 0, "omega_ge must be positive")
        _require(self.g_uc >= 0, "g_uc must be non-negative")
        _require(self.q_intrinsic > 0, "q_intrinsic must be positive")
        object.__setattr__(self, "extra_couplings",
                           {int(k): float(v) for k, v in self.extra_couplings.items()})

    def to_dict(self) -> dict:
        d = {"omega_ge_hz": self.omega_ge / TWO_PI, "g_uc_hz": self.g_uc / TWO_PI}
        if self.extra_couplings:
            d["extra_couplings_hz"] = {str(k): v / TWO_PI
                                       for k, v in sorted(self.extra_couplings.items())}
        if math.isfinite(self.q_intrinsic):
            d["q_intrinsic"] = self.q_intrinsic
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EmitterParams":
        known = {"omega_ge_hz", "g_uc_hz", "extra_couplings_hz", "q_intrinsic"}
        unknown = set(d) - known
        _require(not unknown, f"unknown emitter keys: {sorted(unknown)}")
        for k in ("omega_ge_hz", "g_uc_hz"):
            _require(k in d, f"missing emitter key: {k}")
        extra = {int(k): float(v) * TWO_PI
                 for k, v in d.get("extra_couplings_hz", {}).items()}
        return cls(omega_ge=float(d["omega_ge_hz"]) * TWO_PI,
                   g_uc=float(d["g_uc_hz"]) * TWO_PI,
                   extra_couplings=extra,
                   q_intrinsic=float(d.get("q_intrinsic", math.inf)))
