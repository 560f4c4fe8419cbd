import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from qdist import (InputError, distance, haar_unitary, make_system,
                   random_hermitian)
from qdist.commutant import commutant_dimension

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

SWAP_4 = np.array([[1, 0, 0, 0],
                   [0, 0, 1, 0],
                   [0, 1, 0, 0],
                   [0, 0, 0, 1]], dtype=complex)


def adjoint_action_matrix(b) -> np.ndarray:
    """Matrix of X -> [B, X] under row vectorization: B (x) 1 - 1 (x) B^T.
    The complex reference the real blocks of build_stacked_adjoint are
    checked against."""
    bm = np.asarray(b, dtype=np.complex128)
    eye = np.eye(bm.shape[0])
    return np.kron(bm, eye) - np.kron(eye, bm.T)


def vec_row(m) -> np.ndarray:
    """Row-major flattening of a matrix into a vector."""
    return np.asarray(m, dtype=np.complex128).ravel(order="C").copy()


def devec_row(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of vec_row. Raises on length mismatch."""
    a = np.asarray(v, dtype=np.complex128).ravel()
    if a.size != rows * cols:
        raise InputError(f"cannot reshape length-{a.size} vector to {rows}x{cols}")
    return a.reshape(rows, cols).copy()


@pytest.fixture
def rng():
    return np.random.default_rng(20240517)


class SvdInput(NamedTuple):
    shape: tuple
    dtype: np.dtype
    matrix: np.ndarray


@pytest.fixture
def svd_log(monkeypatch):
    """Record the input of every numpy.linalg.svd call, in call order: its
    shape, its dtype and the array itself (for identity checks)."""
    log = []
    svd = np.linalg.svd

    def logging_svd(a, *args, **kwargs):
        matrix = np.asarray(a)
        log.append(SvdInput(matrix.shape, matrix.dtype, matrix))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", logging_svd)
    return log


def random_pair_system(d, seed):
    """Random traceless (drift, control) pair; almost surely controllable."""
    drift = random_hermitian(d, seed, traceless=True)
    control = random_hermitian(d, seed + 10_000, traceless=True)
    return make_system(drift=drift.matrix, unbounded=[control.matrix])


def random_density(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def conjugate_all(system, seed):
    """Rebuild a system with every generator conjugated by one Haar unitary."""
    u = haar_unitary(system.dim, seed)

    def conj(m):
        return u @ m @ u.conj().T

    drift = None if system.drift is None else conj(system.drift.matrix)
    bounded = [(conj(b.operator.matrix), b.cap) for b in system.bounded]
    unbounded = [conj(op.matrix) for op in system.unbounded]
    return make_system(drift=drift, bounded=bounded, unbounded=unbounded)


def flip_commutant_verdicts(monkeypatch):
    """Make the commutant test in qdist.distance report the opposite verdict."""
    def flipped(*args, **kwargs):
        result = commutant_dimension(*args, **kwargs)
        return dataclasses.replace(result,
                                   controllable=not result.controllable)

    monkeypatch.setattr(distance, "commutant_dimension", flipped)
