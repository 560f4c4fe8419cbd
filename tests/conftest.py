import os
import sys

# One BLAS thread, as perfbench runs: with two, OpenBLAS spins against any
# other busy process on a two-core machine, and the suite ran up to four
# times slower beside one. BLAS reads these when numpy loads, so they are
# set here, before anything imports numpy; an explicit setting in the
# environment wins. NUMPY_PRELOADED records whether the pin came too late.
NUMPY_PRELOADED = "numpy" in sys.modules
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses
from typing import NamedTuple

import numpy as np
import pytest

from qdist import (DistanceCertificate, HermitianOperator, InputError,
                   commutant, distance, haar_unitary, hermitian_eigensystem,
                   make_system, random_hermitian)
from qdist.commutant import commutant_dimension, commutant_spectrum
from qdist.errors import DimensionGuardError
from qdist.lie_closure import LIE_BUFFER_GUARD_BYTES, LieClosureResult
from qdist.linalg import (DEFAULT_TOL, ToleranceConfig, checked_generators,
                          traceless_part)

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


def original_space_adjoint(generators, tol: ToleranceConfig = DEFAULT_TOL
                           ) -> np.ndarray:
    """The stacked real blocks of X -> i[H_k, X] on the original space (K d^2
    x d^2, in the vec_herm basis), whose nullspace is the generators' joint
    commutant: build_stacked_adjoint's construction without the doubling,
    the full-width oracle joint_blocks and the sym sector are checked
    against."""
    mats, _ = checked_generators(generators, tol)
    return commutant._stacked_adjoint(mats)


def vec_row(m) -> np.ndarray:
    """Row-major flattening of a matrix into a vector."""
    return np.asarray(m, dtype=np.complex128).ravel(order="C").copy()


def devec_row(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of vec_row. Raises on length mismatch."""
    a = np.asarray(v, dtype=np.complex128).ravel()
    if a.size != rows * cols:
        raise InputError(f"cannot reshape length-{a.size} vector to {rows}x{cols}")
    return a.reshape(rows, cols).copy()


def real_vec(m: np.ndarray) -> np.ndarray:
    """Real and imaginary parts stacked into one real vector; Re tr(A^dagger B)
    equals the real dot product of these vectors."""
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def from_real_vec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of real_vec for a d x d matrix."""
    n = d * d
    return (v[:n] + 1j * v[n:]).reshape(d, d)


def reference_lie_closure(generators, tol: ToleranceConfig = DEFAULT_TOL
                          ) -> LieClosureResult:
    """The per-candidate Lie closure that lie_closure.lie_dimension is
    tested against: breadth-first, each bracket of a new element with a
    kept generator projected on its own, twice, out of a 2 d^2-wide real
    basis (real_vec), and kept when its remainder exceeds rank_rel_tol
    times its norm (never below the noise floor 0.1 rank_rel_tol, and
    never a bracket of norm below max(rank_rel_tol, 1e-13)). depth is the
    generation of the last element kept."""
    mats, d = checked_generators(generators, tol)
    mats = [traceless_part(m) for m in mats]

    max_dim = d * d - 1
    buffer_bytes = max_dim * 2 * d * d * 8
    if buffer_bytes > LIE_BUFFER_GUARD_BYTES:
        raise DimensionGuardError(
            f"Lie closure at d={d} needs a {buffer_bytes / 2 ** 30:.2f} GiB basis "
            f"buffer, above the {LIE_BUFFER_GUARD_BYTES / 2 ** 30:g} GiB guard")
    # BLAS runs the projections below markedly slower on a buffer at
    # malloc's 16-byte alignment than on a 64-byte-aligned one, so align it
    # here instead of leaving the speed to where the allocator puts it
    raw = np.empty(max_dim * 2 * d * d + 8)
    start = (-raw.ctypes.data % 64) // 8
    basis_vecs = raw[start:start + max_dim * 2 * d * d].reshape(max_dim, 2 * d * d)
    basis_mats: list[np.ndarray] = []
    depths: list[int] = []

    zero_floor = max(tol.rank_rel_tol, 1e-13)
    noise_floor = 0.1 * tol.rank_rel_tol

    def try_add(m: np.ndarray, depth: int, floor: float) -> bool:
        v = real_vec(m)
        norm0 = float(np.linalg.norm(v))
        if norm0 <= floor:
            return False
        k = len(basis_mats)
        for _ in range(2):  # second pass restores orthogonality at dim ~ d^2
            if k:
                v = v - basis_vecs[:k].T @ (basis_vecs[:k] @ v)
        rem = float(np.linalg.norm(v))
        if rem <= max(tol.rank_rel_tol * norm0, noise_floor):
            return False
        v /= rem
        basis_vecs[k] = v
        basis_mats.append(from_real_vec(v, d))
        depths.append(depth)
        return True

    scales = [float(np.linalg.norm(m)) for m in mats]
    scale_max = max(scales)
    for m, scale in zip(mats, scales):
        if scale <= tol.rank_rel_tol * scale_max:
            continue
        try_add(1j * m / scale, 0, floor=0.0)

    kept_gens = range(len(basis_mats))
    frontier = list(kept_gens)
    while frontier and len(basis_mats) < max_dim:
        new_frontier: list[int] = []
        for fi in frontier:
            a = basis_mats[fi]
            for gj in kept_gens:
                if gj == fi:
                    continue
                g = basis_mats[gj]
                if try_add(a @ g - g @ a, depths[fi] + 1, floor=zero_floor):
                    new_frontier.append(len(basis_mats) - 1)
                    if len(basis_mats) >= max_dim:
                        break
            if len(basis_mats) >= max_dim:
                break
        frontier = new_frontier

    return LieClosureResult(dimension=len(basis_mats),
                            depth=max(depths, default=0),
                            controllable=len(basis_mats) == max_dim)


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


class GramInput(NamedTuple):
    shape: tuple
    dtype: np.dtype
    matrix: np.ndarray
    certified: bool


@pytest.fixture
def gram_log(monkeypatch):
    """Record every sector block that commutant._gram_values reads, in call
    order: its shape, its dtype, the array itself (for identity checks
    against svd_log) and whether the Gram certified its values."""
    log = []
    gram_values = commutant._gram_values

    def logging_gram_values(block):
        values = gram_values(block)
        log.append(GramInput(block.matrix.shape, block.matrix.dtype,
                             block.matrix, values is not None))
        return values

    monkeypatch.setattr(commutant, "_gram_values", logging_gram_values)
    return log


def drift_system(drift, *controls):
    """A system of this drift and unbounded controls, matrices as given:
    the input the distance estimators take."""
    return make_system(drift=drift, unbounded=controls)


def block_symmetric_pair(seed, eta):
    """A (2 | 3) block-diagonal drift and control at d=5, in a Haar-random
    basis, each broken by eta times a traceless random Hermitian."""
    u = haar_unitary(5, 1000 + seed)
    gens = []
    for k in range(2):
        m = np.zeros((5, 5), dtype=complex)
        m[:2, :2] = random_hermitian(2, 10 * seed + 2 * k).matrix
        m[2:, 2:] = random_hermitian(3, 10 * seed + 2 * k + 1).matrix
        broken = m + eta * random_hermitian(5, 500 + 10 * seed + k,
                                            traceless=True).matrix
        gens.append(traceless_part(u @ broken @ u.conj().T))
    return gens


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
    d <= distance._CROSS_CHECK_MAX_DIM. It exists whether or not the
    merged system has a joint block for epsilon_upper_gap_merge to offer
    as its witness."""
    index = system.indices("drift")[0]
    w, v = hermitian_eigensystem(system.algebra_generators()[index])
    k = int(np.argmin(np.diff(w)))
    delta = (w[k + 1] - w[k]) / 2 * (np.outer(v[:, k], v[:, k].conj())
                                     - np.outer(v[:, k + 1], v[:, k + 1].conj()))
    delta = (delta + delta.conj().T) / 2
    cert = DistanceCertificate(perturbations=[(index, HermitianOperator(delta))],
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
