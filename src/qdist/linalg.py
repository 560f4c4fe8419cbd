"""Dense complex matrix substrate: norms, commutators, the doubled-space
construction, real vectorization, rank/nullity.

Conventions fixed for the whole package:

* matrices are flattened row-major (``real_vec``); the complex
  row-vectorized map ``X -> [B, X]``, ``kron(B, 1) - kron(1, B.T)``, is
  kept only in the tests, as the reference the real adjoint blocks of
  ``commutant.build_stacked_adjoint`` are checked against;
* Hermitian matrices also have real coordinates (``vec_herm``) in the
  orthonormal Hermitian basis laid on the row-major positions: E_jj at
  (j, j), (E_jk + E_kj)/sqrt(2) at (j, k) and i(E_jk - E_kj)/sqrt(2) at
  (k, j) for j < k. The Hilbert-Schmidt inner product of two Hermitian
  matrices is the real dot product of their coordinates;
* rank cutoffs are relative to the largest singular value (scale-free);
* Hamiltonians carry units of angular frequency with hbar = 1.
"""

from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerance policy shared by all modules.

    rank_rel_tol is the relative singular-value cutoff sigma_i > tol * sigma_max;
    commute_tol and hermiticity_tol are an order looser / tighter respectively
    because commutation certificates accumulate two matrix products;
    degeneracy_tol groups eigenvalues into degenerate blocks. Every field
    must be finite and >= 0. The field list is the one list of names:
    to_dict and the keys a CLI --tol-config file may set follow it.
    """

    hermiticity_tol: float = 1e-10
    rank_rel_tol: float = 1e-9
    commute_tol: float = 1e-9
    degeneracy_tol: float = 1e-8

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not np.isfinite(value) or value < 0:
                raise InputError(
                    f"tolerance {field.name} must be finite and >= 0, got {value}")
        if self.rank_rel_tol >= 1:
            raise InputError("rank_rel_tol must be < 1")

    def to_dict(self) -> dict:
        return asdict(self)


DEFAULT_TOL = ToleranceConfig()


def as_matrix(m, keep_real: bool = False) -> np.ndarray:
    """Coerce input (array-like or HermitianOperator) to a finite complex 2-D
    array; with keep_real, a real input becomes float64 instead."""
    if isinstance(m, HermitianOperator):
        return m.matrix
    a = np.asarray(m)
    real = keep_real and not np.iscomplexobj(a)
    a = np.asarray(a, dtype=np.float64 if real else np.complex128)
    if a.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise InputError("empty matrix")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix has non-finite entries")
    return a


def _as_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(m) -> float:
    """Max-entry deviation from self-adjointness, ||M - M^dagger||_max."""
    a = _as_square(m)
    return float(np.max(np.abs(a - a.conj().T)))


def traceless_part(m) -> np.ndarray:
    """Subtract the trace component tr(M)/d * identity (a global-phase shift)."""
    a = _as_square(m)
    d = a.shape[0]
    return a - (np.trace(a) / d) * np.eye(d)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A dense self-adjoint d x d matrix, Hermitian within tol.hermiticity_tol.

    The wrapped array is copied and frozen, so instances are safe to share.
    Its trace is kept: the algebraic tests shift it out where they need to.
    """

    matrix: np.ndarray
    tol: InitVar[ToleranceConfig | None] = None

    def __post_init__(self, tol):
        tol = tol or DEFAULT_TOL
        a = np.array(self.matrix, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InputError(f"Hermitian operator must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InputError("Hermitian operator has non-finite entries")
        defect = float(np.max(np.abs(a - a.conj().T)))
        if defect > tol.hermiticity_tol:
            raise InputError(
                f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} "
                f"> {tol.hermiticity_tol:.3e}")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def operator_norm(m) -> float:
    """Largest singular value (the operator norm ||.||_inf on matrices)."""
    return float(np.linalg.norm(as_matrix(m), 2))


def trace_norm(m) -> float:
    """Sum of singular values, ||.||_1."""
    return float(np.sum(np.linalg.svd(as_matrix(m), compute_uv=False)))


def hs_inner(a, b) -> float:
    """Real Hilbert-Schmidt inner product Re tr(A^dagger B)."""
    return float(np.real(np.sum(np.conj(as_matrix(a)) * as_matrix(b))))


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA for square matrices of equal dimension."""
    am, bm = _as_square(a), _as_square(b)
    if am.shape != bm.shape:
        raise InputError(f"commutator dimension mismatch: {am.shape} vs {bm.shape}")
    return am @ bm - bm @ am


def tensor_double(a) -> np.ndarray:
    """Doubled-space symbolisation A (x) 1 + 1 (x) A on the two-copy space."""
    am = _as_square(a)
    eye = np.eye(am.shape[0])
    return np.kron(am, eye) + np.kron(eye, am)


def real_vec(m: np.ndarray) -> np.ndarray:
    """Real and imaginary parts stacked into one real vector; Re tr(A^dagger B)
    equals the real dot product of these vectors."""
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def from_real_vec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of real_vec for a d x d matrix."""
    n = d * d
    return (v[:n] + 1j * v[n:]).reshape(d, d)


def vec_herm(m) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the orthonormal Hermitian
    basis on the row-major positions: M_jj at (j, j), sqrt(2) Re M_jk at
    (j, k) and sqrt(2) Im M_jk at (k, j) for j < k. Only the diagonal and
    the upper triangle are read."""
    a = _as_square(m)
    upper = np.triu(np.ones(a.shape, dtype=bool), 1)
    c = np.diag(np.diag(a).real)
    c[upper] = np.sqrt(2) * a.real[upper]
    c.T[upper] = np.sqrt(2) * a.imag[upper]
    return c.ravel()


def devec_herm(v, n: int) -> np.ndarray:
    """Inverse of vec_herm: the n x n Hermitian matrix (exactly Hermitian)
    with these real coordinates. Raises on length mismatch."""
    c = np.asarray(v, dtype=np.float64).ravel()
    if c.size != n * n:
        raise InputError(f"cannot reshape length-{c.size} vector to {n}x{n}")
    c = c.reshape(n, n)
    upper = np.triu(c, 1) / np.sqrt(2)
    lower = np.tril(c, -1) / np.sqrt(2)
    return (np.diag(np.diag(c)) + upper + upper.T) + 1j * (lower.T - lower)


class RankResult(NamedTuple):
    rank: int
    nullity: int
    null_basis: np.ndarray  # (cols, nullity), orthonormal columns
    singular_values: np.ndarray  # descending


def rank_and_nullity(m, tol: ToleranceConfig = DEFAULT_TOL,
                     want_null_basis: bool = True) -> RankResult:
    """Numerical rank, nullity, singular values and an orthonormal null-space
    basis via SVD.

    rank counts singular values above rank_rel_tol * sigma_max; each returned
    null vector v satisfies ||M v|| <= 10 * rank_rel_tol * sigma_max.
    Set want_null_basis=False to skip computing singular vectors (cheaper for
    large stacked matrices when only the counts are needed). A real input
    stays real (float64) all the way into LAPACK, and so does its null
    basis; anything else is decomposed in complex128.
    """
    a = as_matrix(m, keep_real=True)
    rows, cols = a.shape
    try:
        if want_null_basis:
            # wide matrices need the full V to expose all null directions
            _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
        else:
            s = np.linalg.svd(a, compute_uv=False)
            vh = None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD did not converge on a {rows}x{cols} matrix: {exc}") from exc
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol.rank_rel_tol * smax))
    nullity = cols - rank
    if vh is None:
        basis = np.empty((cols, 0), dtype=a.dtype)
    else:
        basis = vh[rank:].conj().T
    return RankResult(rank=rank, nullity=nullity, null_basis=basis,
                      singular_values=s)


def hermitian_eigensystem(h, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix.

    Returns (w, v) with columns of v the eigenvectors. The decomposition is
    validated: per-pair residual <= 1e-10 * ||H|| and v unitary to 1e-10.
    """
    a = _as_square(h)
    if hermiticity_defect(a) > tol.hermiticity_tol:
        raise InputError("hermitian_eigensystem requires a Hermitian matrix")
    sym = (a + a.conj().T) / 2
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigh failed: {exc}") from exc
    scale = max(float(np.max(np.abs(w))), 1e-300)
    resid = np.linalg.norm(sym @ v - v * w, axis=0)
    if np.any(resid > 1e-10 * scale + 1e-14):
        raise NumericalError(f"eigendecomposition residual {resid.max():.3e} too large")
    unit = np.max(np.abs(v.conj().T @ v - np.eye(a.shape[0])))
    if unit > 1e-10:
        raise NumericalError(f"eigenvector matrix not unitary: defect {unit:.3e}")
    return w, v


def random_hermitian(d: int, seed, traceless: bool = False) -> HermitianOperator:
    """Deterministic GUE-style random Hermitian operator, optionally traceless."""
    if d < 1:
        raise InputError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = (a + a.conj().T) / 2
    if traceless:
        m = m - (np.trace(m) / d) * np.eye(d)
    return HermitianOperator(m)


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed random unitary (QR of a Ginibre matrix with phase fix)."""
    if d < 1:
        raise InputError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(a)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases.conj()


def matrix_to_json(m) -> dict:
    """Serialize to the wire format {"rows", "cols", "re", "im"} (row-major)."""
    a = as_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": [float(x) for x in a.real.ravel(order="C")],
        "im": [float(x) for x in a.imag.ravel(order="C")],
    }


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix wire format; unknown keys are rejected."""
    if not isinstance(obj, dict):
        raise InputError("matrix JSON must be an object")
    extra = set(obj) - {"rows", "cols", "re", "im"}
    if extra:
        raise InputError(f"unknown keys in matrix JSON: {sorted(extra)}")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from exc
    if rows < 1 or cols < 1 or re.size != rows * cols or im.size != rows * cols:
        raise InputError("matrix JSON entry count does not match rows*cols")
    return as_matrix((re + 1j * im).reshape(rows, cols))
