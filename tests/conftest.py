import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from qdist import (DistanceCertificate, HermitianOperator, InputError,
                   commutant, distance, haar_unitary, hermitian_eigensystem,
                   make_system, operator_norm, random_hermitian)
from qdist.commutant import commutant_dimension, commutant_spectrum

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


@pytest.fixture
def spectrum_log(monkeypatch):
    """Record the generators of every commutant spectrum taken from the swap
    sectors (d >= SECTOR_MIN_DIM), one entry per call of
    commutant.sector_blocks, in call order: a marker that does not depend
    on how the sectors are split into SVD inputs."""
    log = []
    blocks = commutant.sector_blocks

    def logging_blocks(mats, *args, **kwargs):
        log.append([np.array(m) for m in mats])
        return blocks(mats, *args, **kwargs)

    monkeypatch.setattr(commutant, "sector_blocks", logging_blocks)
    return log


def drift_system(drift, *controls):
    """A system of this drift and unbounded controls, matrices as given:
    the input the distance estimators take."""
    return make_system(drift=drift, unbounded=controls)


def random_pair_system(d, seed):
    """Random traceless (drift, control) pair; almost surely controllable."""
    drift = random_hermitian(d, seed, traceless=True)
    control = random_hermitian(d, seed + 10_000, traceless=True)
    return make_system(drift=drift.matrix, unbounded=[control.matrix])


def manual_gap_merge(system):
    """The gap-merge perturbation of the drift (the closest eigenvalue pair
    of its traceless part shifted onto their midpoint) as a witness-free
    "manual" certificate. Its verified flag is verify_certificate's, so the
    Lie closure decides it, cross-checked by the commutant spectrum at
    d <= 4. It exists whether or not the merged system has a joint block
    for epsilon_upper_gap_merge to offer as its witness."""
    index = system.indices("drift")[0]
    w, v = hermitian_eigensystem(system.algebra_generators()[index])
    k = int(np.argmin(np.diff(w)))
    delta = (w[k + 1] - w[k]) / 2 * (np.outer(v[:, k], v[:, k].conj())
                                     - np.outer(v[:, k + 1], v[:, k + 1].conj()))
    delta = (delta + delta.conj().T) / 2
    cert = DistanceCertificate(perturbations=[(index, HermitianOperator(delta))],
                               op_norm=operator_norm(delta),
                               l11_norm=float(np.sum(np.abs(delta))),
                               method="manual", verified_uncontrollable=False)
    return dataclasses.replace(
        cert, verified_uncontrollable=distance.verify_certificate(system, cert))


def reference_propagator(system, pulse):
    """prod_s exp(+i H_s dt_s), H_s assembled here from the system's fields,
    one segment at a time: the oracle that evolve is tested against."""
    d = system.dim
    u = np.eye(d, dtype=complex)
    controls = [b.operator for b in system.bounded] + list(system.unbounded)
    for row, dt in zip(pulse.amplitudes, pulse.durations):
        h = np.zeros((d, d), dtype=complex)
        if system.drift is not None:
            h += system.drift.matrix
        for g, op in zip(row, controls):
            h += g * op.matrix
        w, v = np.linalg.eigh(h)
        u = v @ np.diag(np.exp(1j * w * dt)) @ v.conj().T @ u
    return u


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


def flip_spectrum_verdicts(monkeypatch):
    """Make every binding of commutant_spectrum report the opposite verdict
    (no spectrum stays none)."""
    def flipped(*args, **kwargs):
        result = commutant_spectrum(*args, **kwargs)
        return None if result is None else dataclasses.replace(
            result, controllable=not result.controllable)

    for module in (commutant, distance):
        monkeypatch.setattr(module, "commutant_spectrum", flipped)
