"""Control-system container and its versioned JSON file format.

A system is one optional drift, a list of amplitude-capped (bounded)
generators and a list of unbounded generators, all Hermitian and of one
common dimension. Generators are addressed by a flat index with the drift
first (index 0 when present), then bounded, then unbounded; distance
certificates use these indices. ControlSystem alone maps indices to roles
and caps, and a pulse's control columns to generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .linalg import (DEFAULT_TOL, HermitianOperator, ToleranceConfig, as_matrix,
                     as_operator, json_object, json_value, matrix_from_json,
                     matrix_to_json, traceless_part)

SYSTEM_FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class BoundedControl:
    """A control Hamiltonian whose pulse amplitude is capped by |g(t)| <= cap."""

    operator: HermitianOperator
    cap: float

    def __post_init__(self):
        if not np.isfinite(self.cap) or self.cap <= 0:
            raise InputError(f"amplitude cap must be finite and > 0, got {self.cap}")


@dataclass(frozen=True, eq=False)
class ControlSystem:
    """Drift + bounded + unbounded generators on one finite-dimensional space."""

    drift: HermitianOperator | None = None
    bounded: tuple[BoundedControl, ...] = ()
    unbounded: tuple[HermitianOperator, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "bounded", tuple(self.bounded))
        object.__setattr__(self, "unbounded", tuple(self.unbounded))
        # (role, operator, cap) per generator in flat order: the drift (cap
        # 1.0) if present, the bounded controls, then the unbounded (cap None)
        layout = () if self.drift is None else (("drift", self.drift, 1.0),)
        layout += tuple(("bounded", b.operator, b.cap) for b in self.bounded)
        layout += tuple(("unbounded", op, None) for op in self.unbounded)
        object.__setattr__(self, "_layout", layout)
        if not layout:
            raise InputError("control system has no generators")
        dims = {op.dim for _, op, _ in layout}
        if len(dims) != 1:
            raise InputError(f"generator dimensions disagree: {sorted(dims)}")
        if self.dim < 2:
            # su(1) is trivial: no control question to ask, and the two
            # controllability tests would disagree on it
            raise InputError(f"control system dimension must be >= 2, got {self.dim}")

    @property
    def dim(self) -> int:
        return self._layout[0][1].dim

    def generators(self) -> list[HermitianOperator]:
        """Flat generator list: drift (if present), bounded, then unbounded."""
        return [op for _, op, _ in self._layout]

    def indices(self, role: str) -> list[int]:
        """Flat indices of the generators whose role is "drift", "bounded"
        or "unbounded"."""
        return [i for i, (r, _, _) in enumerate(self._layout) if r == role]

    def amplitude_cap(self, index: int) -> float | None:
        """Cap of flat generator `index`, from its role: 1.0 for the drift (its
        amplitude is always 1), None for an unbounded control."""
        if not 0 <= index < len(self._layout):
            raise InputError(f"generator index {index} out of range "
                             f"0..{len(self._layout) - 1}")
        return self._layout[index][2]

    def generator_amplitudes(self, amplitudes) -> np.ndarray:
        """(segments x generators) amplitudes in flat order from a pulse's
        rows (one column per control, bounded first): a column of ones for
        the drift, then the pulse's columns. InputError unless the rows form
        a 2-D array of finite numbers, on a wrong column count, and on a
        bounded amplitude above its cap (1e-12 relative slack)."""
        try:
            amplitudes = np.asarray(amplitudes, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"pulse amplitudes are not numbers: {exc}") from exc
        if amplitudes.ndim != 2:
            raise InputError("pulse amplitudes must be a 2-D array, one row per "
                             f"segment, got ndim={amplitudes.ndim}")
        if not np.all(np.isfinite(amplitudes)):
            raise InputError("pulse amplitudes must be finite")
        n_controls = len(self.bounded) + len(self.unbounded)
        if amplitudes.shape[1] != n_controls:
            raise InputError(f"pulse has {amplitudes.shape[1]} amplitude columns, "
                             f"system has {n_controls} controls")
        for j, b in enumerate(self.bounded):
            worst = float(np.max(np.abs(amplitudes[:, j]), initial=0.0))
            if worst > b.cap * (1 + 1e-12):
                raise InputError(f"pulse violates cap on bounded control {j}: "
                                 f"|amplitude| {worst} > {b.cap}")
        n_drift = len(self._layout) - n_controls
        return np.hstack([np.ones((len(amplitudes), n_drift)), amplitudes])

    @cached_property
    def _traceless(self) -> tuple[np.ndarray, ...]:
        """The traceless generator matrices, read-only, computed on first use
        (a large model that is only written out never holds a second copy)."""
        mats = tuple(traceless_part(op.matrix) for op in self.generators())
        for m in mats:
            m.flags.writeable = False
        return mats

    def algebra_generators(self) -> list[np.ndarray]:
        """Traceless-shifted generator matrices for Lie/commutant tests.

        Identity shifts change neither the dynamics (global phase) nor any
        commutator, and the algebraic criteria count dimensions inside su(d).
        The matrices are read-only and shared between calls.
        """
        return list(self._traceless)

    def with_perturbations(self, perturbations, tol: ToleranceConfig = DEFAULT_TOL
                           ) -> "ControlSystem":
        """New system with delta added to each (index, delta) generator; delta
        is a matrix or a HermitianOperator (a certificate's perturbations
        pass as they are). Each index may appear once."""
        layout = list(self._layout)
        seen = set()
        for index, delta in perturbations:
            index = generator_index(index)
            if not 0 <= index < len(layout):
                raise InputError(f"perturbation index {index} out of range")
            if index in seen:
                raise InputError(f"perturbation list perturbs generator {index} twice")
            seen.add(index)
            dm = as_matrix(delta)
            if dm.shape != (self.dim, self.dim):
                raise InputError("perturbation dimension mismatch")
            role, op, cap = layout[index]
            layout[index] = (role, as_operator(op.matrix + dm, tol), cap)
        return ControlSystem(
            drift=next((op for role, op, _ in layout if role == "drift"), None),
            bounded=tuple(BoundedControl(op, cap) for role, op, cap in layout
                          if role == "bounded"),
            unbounded=tuple(op for role, op, _ in layout if role == "unbounded"))


def generator_index(value) -> int:
    """value as an index into a system's flat generator list: an int or a
    numpy integer, never a bool or a number or string that only converts
    to one. Anything else is an InputError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"generator index must be an integer, got {value!r}")
    return int(value)


def make_system(drift=None, bounded=(), unbounded=(),
                tol: ToleranceConfig = DEFAULT_TOL) -> ControlSystem:
    """Build a ControlSystem from raw matrices, each checked Hermitian
    (linalg.hermitian_matrix).

    `bounded` is a sequence of (matrix, cap) pairs.
    """
    drift_op = None if drift is None else as_operator(drift, tol)
    bounded_ops = tuple(BoundedControl(as_operator(m, tol), float(cap))
                        for m, cap in bounded)
    unbounded_ops = tuple(as_operator(m, tol) for m in unbounded)
    return ControlSystem(drift=drift_op, bounded=bounded_ops, unbounded=unbounded_ops)


def pair_system(drift, control, tol: ToleranceConfig = DEFAULT_TOL) -> ControlSystem:
    """The paper-style pair (H_d, H_c): one drift, one unbounded control."""
    return make_system(drift=traceless_part(drift),
                       unbounded=[traceless_part(control)], tol=tol)


def system_to_json(system: ControlSystem) -> dict:
    return {
        "format": SYSTEM_FORMAT_VERSION,
        "drift": None if system.drift is None else matrix_to_json(system.drift.matrix),
        "bounded": [{"matrix": matrix_to_json(b.operator.matrix), "cap": float(b.cap)}
                    for b in system.bounded],
        "unbounded": [matrix_to_json(op.matrix) for op in system.unbounded],
    }


def system_from_json(obj, tol: ToleranceConfig = DEFAULT_TOL) -> ControlSystem:
    """Parse the versioned system format: the integer format 1, and optionally
    a drift matrix or null, bounded entries (a matrix and a number cap) and
    unbounded matrices. Unknown keys are rejected."""
    obj = json_object(obj, "system", ("format",), ("drift", "bounded", "unbounded"))
    if json_value(obj["format"], int, "system format") != SYSTEM_FORMAT_VERSION:
        raise InputError(f"unsupported system format {obj['format']!r}, "
                         f"expected {SYSTEM_FORMAT_VERSION}")
    drift = obj.get("drift")
    entries, unbounded = obj.get("bounded", []), obj.get("unbounded", [])
    if not isinstance(entries, list) or not isinstance(unbounded, list):
        raise InputError("bounded and unbounded must be lists in system JSON")
    bounded = []
    for k, entry in enumerate(entries):
        entry = json_object(entry, f"system bounded[{k}]", ("matrix", "cap"))
        bounded.append((matrix_from_json(entry["matrix"]),
                        json_value(entry["cap"], float, f"bounded[{k}] cap")))
    unbounded = [matrix_from_json(m) for m in unbounded]
    return make_system(drift=None if drift is None else matrix_from_json(drift),
                       bounded=bounded, unbounded=unbounded, tol=tol)
