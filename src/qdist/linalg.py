"""Dense complex matrix substrate: norms, commutators, the doubled-space
construction, real Hermitian coordinates, rank/nullity.

Conventions fixed for the whole package:

* matrices are flattened row-major; the complex row-vectorized map
  ``X -> [B, X]``, ``kron(B, 1) - kron(1, B.T)``, is kept only in the
  tests, as the reference the real adjoint blocks of
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

import sys
from dataclasses import InitVar, asdict, dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerance policy shared by all modules.

    rank_rel_tol (default 1e-9) is the relative singular-value cutoff
    sigma_i > tol * sigma_max; commute_tol (1e-9) bounds a symmetry
    witness's commutators relative to the operators' norms; hermiticity_tol
    (1e-10) bounds max |M - M^dagger| of an input; degeneracy_tol (1e-8)
    groups eigenvalues into degenerate blocks. Every field
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
    if not np.isfinite(a).all():
        raise InputError("matrix has non-finite entries")
    return a


def _as_square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    return a


def _defect(a: np.ndarray) -> float:
    return float(np.abs(a - a.conj().T).max())


def hermiticity_defect(m) -> float:
    """Max-entry deviation from self-adjointness, ||M - M^dagger||_max."""
    return _defect(_as_square(m))


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
        defect = _defect(a)
        if defect > tol.hermiticity_tol:
            raise InputError(
                f"matrix is not Hermitian: max |M - M^dagger| = {defect:.3e} "
                f"> {tol.hermiticity_tol:.3e}")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def as_operator(m, tol: ToleranceConfig) -> HermitianOperator:
    """m itself if it is a HermitianOperator, else m wrapped as one (checked
    Hermitian within tol.hermiticity_tol)."""
    if isinstance(m, HermitianOperator):
        return m
    return HermitianOperator(as_matrix(m), tol=tol)


def checked_generators(generators, tol: ToleranceConfig
                       ) -> tuple[list[np.ndarray], int]:
    """The generators as complex matrices, and their common dimension d.

    The one check every algebraic test runs on its input: at least one
    generator, all d x d with d >= 2, each Hermitian within
    tol.hermiticity_tol. Anything else is an InputError.
    """
    mats = [as_matrix(g) for g in generators]
    if not mats:
        raise InputError("need at least one generator")
    d = mats[0].shape[0]
    if d < 2:
        raise InputError(f"generator dimension must be >= 2, got {d}")
    for k, m in enumerate(mats):
        if m.shape != (d, d):
            raise InputError(f"generator {k} has shape {m.shape}, expected {(d, d)}")
        defect = _defect(m)
        if defect > tol.hermiticity_tol:
            raise InputError(
                f"generator {k} is not Hermitian: max |M - M^dagger| = "
                f"{defect:.3e} > {tol.hermiticity_tol:.3e}")
    return mats, d


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
    n = am.shape[0]
    eye = np.eye(n)
    # entry ((i, j), (k, l)) is A[i, k] d[j, l] + d[i, k] A[j, l], broadcast
    # instead of two np.kron calls
    doubled = (am[:, None, :, None] * eye[None, :, None, :]
               + eye[:, None, :, None] * am[None, :, None, :])
    return doubled.reshape(n * n, n * n)


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


@lru_cache(maxsize=16)
def real_symmetric_positions(n: int) -> np.ndarray:
    """Mask of the n^2 vec_herm positions that a real symmetric n x n
    matrix can have nonzero: the diagonal and the upper triangle. An
    imaginary antisymmetric matrix has its coordinates at the others, the
    lower triangle. Read-only, cached per n."""
    mask = np.triu(np.ones((n, n), dtype=bool)).ravel()
    mask.setflags(write=False)
    return mask


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


def singular_decomposition(m, want_vectors: bool = True):
    """Singular values (descending) of m and, with want_vectors, the rows
    of V^dagger: all of them, so that a wide matrix exposes every null
    direction (None without want_vectors). A real input stays real
    (float64) all the way into LAPACK; anything else is decomposed in
    complex128. An SVD that does not converge is a NumericalError."""
    a = as_matrix(m, keep_real=True)
    rows, cols = a.shape
    try:
        if want_vectors:
            _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
            return s, vh
        return np.linalg.svd(a, compute_uv=False), None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD did not converge on a {rows}x{cols} matrix: {exc}") from exc


def rank_and_nullity(m, tol: ToleranceConfig = DEFAULT_TOL,
                     want_null_basis: bool = True) -> RankResult:
    """Numerical rank, nullity, singular values and an orthonormal null-space
    basis via SVD (singular_decomposition).

    rank counts singular values above rank_rel_tol * sigma_max; each returned
    null vector v satisfies ||M v|| <= 10 * rank_rel_tol * sigma_max.
    Set want_null_basis=False to skip computing singular vectors (cheaper for
    large stacked matrices when only the counts are needed). A real input
    keeps a real null basis.
    """
    a = as_matrix(m, keep_real=True)
    s, vh = singular_decomposition(a, want_null_basis)
    # with sigma_max = 0 the cutoff is 0 and the rank 0
    rank = int(np.count_nonzero(s > tol.rank_rel_tol * (s[0] if s.size else 0.0)))
    nullity = a.shape[1] - rank
    if vh is None:
        basis = np.empty((a.shape[1], 0), dtype=a.dtype)
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
    """Parse the matrix wire format: integers rows, cols >= 1 and flat lists
    re, im of rows*cols numbers each (json_value's rule), no other key."""
    obj = json_object(obj, "matrix", ("rows", "cols", "re", "im"))
    rows = json_value(obj["rows"], int, "matrix rows")
    cols = json_value(obj["cols"], int, "matrix cols")
    re, im = json_numbers(obj["re"], "matrix re"), json_numbers(obj["im"], "matrix im")
    if rows < 1 or cols < 1 or not re.shape == im.shape == (rows * cols,):
        raise InputError("matrix JSON entry count does not match rows*cols")
    return as_matrix((re + 1j * im).reshape(rows, cols))


def json_object(obj, kind: str, required=(), optional=()) -> dict:
    """obj as a `kind` JSON object: every key of `required` present and no
    key outside `required` and `optional`, else an InputError naming kind."""
    if not isinstance(obj, dict):
        raise InputError(f"{kind} JSON must be an object")
    missing = [key for key in required if key not in obj]
    if missing:
        raise InputError(f"{kind} JSON lacks keys {missing}")
    extra = obj.keys() - {*required, *optional}
    if extra:
        raise InputError(f"unknown keys in {kind} JSON: {sorted(extra)}")
    return obj


# the one rule for a JSON value is its exact type: a bool (a subclass of int)
# is never a number, and a number may be written as an int
_JSON_NUMBER = {int, float}
_JSON_KINDS = {bool: ({bool}, "a boolean"), int: ({int}, "an integer"),
               str: ({str}, "a string"), float: (_JSON_NUMBER, "a finite number")}


def json_value(value, kind: type, name: str):
    """value as a JSON `kind`: bool, int, str or float (a finite number,
    returned as a float). Nothing is converted from another type: "1" is no
    number, 1.0 no int, true neither. Anything else is an InputError naming
    `name`."""
    types, what = _JSON_KINDS[kind]
    if type(value) in types and (kind is not float or abs(value) <= sys.float_info.max):
        return float(value) if kind is float else value
    raise InputError(f"{name} must be {what}, got {value!r}")


def json_numbers(value, name: str) -> np.ndarray:
    """value, a JSON list of finite numbers (json_value's rule) or a list of
    equally long such lists, as a 1-D or 2-D float64 array. Anything else is
    an InputError naming `name`."""
    rows = value if isinstance(value, list) and value and all(
        isinstance(row, list) for row in value) else [value]
    if all(isinstance(row, list) and _JSON_NUMBER.issuperset(map(type, row))
           for row in rows):
        try:
            array = np.array(value, dtype=float)
            if np.isfinite(array).all():
                return array
        except (OverflowError, ValueError):  # an int beyond floats; ragged rows
            pass
    raise InputError(f"{name} must be a list, or a list of equally long lists, "
                     "of finite numbers")
