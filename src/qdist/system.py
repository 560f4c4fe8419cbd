"""Control-system container and its versioned JSON file format.

A system is one optional drift, a list of amplitude-capped (bounded)
generators and a list of unbounded generators, all Hermitian and of one
common dimension. Generators are addressed by a flat index with the drift
first (index 0 when present), then bounded, then unbounded; distance
certificates and CLI flags use these indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import (DEFAULT_TOL, HermitianOperator, ToleranceConfig, as_matrix,
                     matrix_from_json, matrix_to_json, traceless_part)

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
        ops = self.generators()
        if not ops:
            raise InputError("control system has no generators")
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise InputError(f"generator dimensions disagree: {sorted(dims)}")
        if self.dim < 2:
            # su(1) is trivial: no control question to ask, and the two
            # controllability tests would disagree on it
            raise InputError(f"control system dimension must be >= 2, got {self.dim}")

    @property
    def dim(self) -> int:
        return self.generators()[0].dim

    def generators(self) -> list[HermitianOperator]:
        """Flat generator list: drift (if present), bounded, then unbounded."""
        ops: list[HermitianOperator] = []
        if self.drift is not None:
            ops.append(self.drift)
        ops.extend(b.operator for b in self.bounded)
        ops.extend(self.unbounded)
        return ops

    @property
    def drift_index(self) -> int | None:
        return 0 if self.drift is not None else None

    def amplitude_cap(self, index: int) -> float | None:
        """Cap for generator `index`: 1.0 for the drift, None for unbounded."""
        n = len(self.generators())
        if not 0 <= index < n:
            raise InputError(f"generator index {index} out of range 0..{n - 1}")
        if self.drift is not None:
            if index == 0:
                return 1.0
            index -= 1
        if index < len(self.bounded):
            return self.bounded[index].cap
        return None

    def algebra_generators(self) -> list[np.ndarray]:
        """Traceless-shifted generator matrices for Lie/commutant tests.

        Identity shifts change neither the dynamics (global phase) nor any
        commutator, and the algebraic criteria count dimensions inside su(d).
        """
        return [traceless_part(op.matrix) for op in self.generators()]

    def with_perturbations(self, perturbations, tol: ToleranceConfig = DEFAULT_TOL
                           ) -> "ControlSystem":
        """New system with delta added to each (index, delta) generator; delta
        is a matrix or a HermitianOperator (a certificate's perturbations
        pass as they are)."""
        ops = self.generators()
        deltas: dict[int, np.ndarray] = {}
        for index, delta in perturbations:
            if not 0 <= index < len(ops):
                raise InputError(f"perturbation index {index} out of range")
            dm = as_matrix(delta)
            if dm.shape != ops[index].matrix.shape:
                raise InputError("perturbation dimension mismatch")
            deltas[index] = deltas.get(index, 0) + dm

        def rebuilt(index: int) -> HermitianOperator:
            if index not in deltas:
                return ops[index]
            return _as_operator(ops[index].matrix + deltas[index], tol)

        k = 0
        drift = None
        if self.drift is not None:
            drift = rebuilt(0)
            k = 1
        bounded = tuple(BoundedControl(rebuilt(k + j), b.cap)
                        for j, b in enumerate(self.bounded))
        k += len(self.bounded)
        unbounded = tuple(rebuilt(k + j) for j in range(len(self.unbounded)))
        return ControlSystem(drift=drift, bounded=bounded, unbounded=unbounded)


def _as_operator(m, tol: ToleranceConfig) -> HermitianOperator:
    if isinstance(m, HermitianOperator):
        return m
    return HermitianOperator(as_matrix(m), tol=tol)


def make_system(drift=None, bounded=(), unbounded=(),
                tol: ToleranceConfig = DEFAULT_TOL) -> ControlSystem:
    """Build a ControlSystem from raw matrices, each checked Hermitian within
    tol.hermiticity_tol.

    `bounded` is a sequence of (matrix, cap) pairs.
    """
    drift_op = None if drift is None else _as_operator(drift, tol)
    bounded_ops = tuple(BoundedControl(_as_operator(m, tol), float(cap))
                        for m, cap in bounded)
    unbounded_ops = tuple(_as_operator(m, tol) for m in unbounded)
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
    """Parse the versioned system format. Unknown fields are rejected."""
    if not isinstance(obj, dict):
        raise InputError("system JSON must be an object")
    extra = set(obj) - {"format", "drift", "bounded", "unbounded"}
    if extra:
        raise InputError(f"unknown keys in system JSON: {sorted(extra)}")
    if obj.get("format") != SYSTEM_FORMAT_VERSION:
        raise InputError(f"unsupported system format {obj.get('format')!r}, "
                         f"expected {SYSTEM_FORMAT_VERSION}")
    drift = obj.get("drift")
    entries, unbounded = obj.get("bounded", []), obj.get("unbounded", [])
    if not isinstance(entries, list) or not isinstance(unbounded, list):
        raise InputError("bounded and unbounded must be lists in system JSON")
    bounded = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"matrix", "cap"}:
            raise InputError(f"bounded[{k}] must be an object with keys matrix, cap")
        try:
            cap = float(entry["cap"])
        except (TypeError, ValueError) as exc:
            raise InputError(f"bounded[{k}] cap is not a number: {exc}") from exc
        bounded.append((matrix_from_json(entry["matrix"]), cap))
    unbounded = [matrix_from_json(m) for m in unbounded]
    return make_system(drift=None if drift is None else matrix_from_json(drift),
                       bounded=bounded, unbounded=unbounded, tol=tol)
