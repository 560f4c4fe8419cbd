"""Path-independent controllability test via the doubled-space commutant.

For generators {H_k}, build one adjoint-representation block of
i * (H_k (x) 1 + 1 (x) H_k) per generator and stack them into a
(K d^4) x d^4 matrix. Each block maps Hermitian operators to Hermitian
operators, so it is written as a real matrix in the orthonormal Hermitian
basis of linalg.vec_herm: a unitary change of basis from the complex
row-vectorized matrix, with the same singular values, decomposed in float64.
Its nullspace holds the coordinates of the Hermitian part of the commutant
of the doubled generators: dimension 2 (identity and swap) means
controllable, anything larger exposes explicit symmetry operators.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionGuardError, InputError
from .linalg import (DEFAULT_TOL, HermitianOperator, ToleranceConfig,
                     as_matrix, devec_herm, hermiticity_defect,
                     rank_and_nullity, tensor_double, vec_herm)
from .system import _as_operator

# no d^4-column SVD at or above this d, and no override: the stacked matrix
# has K d^8 float64 entries (6.9 GB for K = 2 generators at d = 12)
COMMUTANT_DIM_GUARD = 7


@dataclass(frozen=True, eq=False)
class CommutantResult:
    """Nullity/rank and singular values (descending) of the stacked
    doubled-space adjoint matrix plus the Hermitian symmetry operators whose
    coordinates span its nullspace."""

    nullity: int
    rank: int
    symmetry_basis: list
    controllable: bool
    singular_values: np.ndarray

    @property
    def expected_rank(self) -> int:
        # controllable systems sit exactly at rank d^4 - 2
        n = self.rank + self.nullity
        return n - 2


def _common_dim(generators, tol: ToleranceConfig
                ) -> tuple[list[np.ndarray], int]:
    mats = [as_matrix(g) for g in generators]
    if not mats:
        raise InputError("need at least one generator")
    d = mats[0].shape[0]
    if d < 2:
        raise InputError(f"generator dimension must be >= 2, got {d}")
    for k, m in enumerate(mats):
        if m.shape != (d, d):
            raise InputError(f"generator {k} has shape {m.shape}, expected {(d, d)}")
        # the real Hermitian-basis blocks exist only for Hermitian generators
        defect = hermiticity_defect(m)
        if defect > tol.hermiticity_tol:
            raise InputError(
                f"generator {k} is not Hermitian: max |M - M^dagger| = "
                f"{defect:.3e} > {tol.hermiticity_tol:.3e}")
    return mats, d


def _hermitian_adjoint_entries(n: int):
    """Where the nonzero entries of X -> i[H, X] sit in the Hermitian basis.

    With H = R + iS (R symmetric, S antisymmetric) and X = Xr + iXi, the map
    is Re Y = -[R, Xi] - [S, Xr], Im Y = [R, Xr] - [S, Xi]. A basis element
    is Xr = E_ce + E_ec (c <= e) or Xi = E_ec - E_ce (c > e), up to scale,
    so [Z, X] is the four Kronecker-delta terms of
    [Z, E_uv][x, y] = Z[x, u] d[v, y] - d[x, u] Z[v, y]: 4 n^3 candidate
    entries instead of n^4. Returns, per candidate, its flat index in the
    n^2 x n^2 block, the index of the Z entry in concat(R.ravel(),
    S.ravel()), and its real weight. Repeated flat indices add up.
    """
    i, j, k = (a.ravel() for a in np.indices((n, n, n)))
    # (row x, row y, column c, column e), (Z row, Z column), source term, sign
    terms = (((i, k, j, k), (i, j), 0, 1.0),     # Z[x, c] d[e, y]
             ((i, j, i, k), (k, j), 0, -1.0),    # -d[x, c] Z[e, y]
             ((i, j, j, k), (i, k), 1, 1.0),     # Z[x, e] d[c, y]
             ((k, j, i, k), (i, j), 1, -1.0))    # -d[x, e] Z[c, y]
    flat, z_index, weight = [], [], []
    root2 = np.sqrt(2)
    for (x, y, c, e), (zr, zc), source, sign in terms:
        row_real = x <= y   # coordinate read from Re Y (diagonal, upper)
        col_real = c <= e   # basis element with Xr (diagonal, upper)
        # Re Y rows: sqrt(2) off the diagonal; Im Y rows: -sqrt(2)
        row_w = np.where(x == y, 1.0, np.where(row_real, root2, -root2))
        col_w = np.where(c == e, 0.5, 1 / root2)
        # the E_ce coefficient of the basis element is -1 for Xi elements
        source_w = np.where(col_real | (source == 1), 1.0, -1.0)
        # Im Y from an Xr element is +[R, Xr]; every other pairing has a minus
        map_w = np.where(col_real & ~row_real, 1.0, -1.0)
        flat.append((x * n + y) * n * n + c * n + e)
        z_index.append(np.where(row_real == col_real, n * n, 0) + zr * n + zc)
        weight.append(sign * row_w * col_w * source_w * map_w)
    return np.concatenate(flat), np.concatenate(z_index), np.concatenate(weight)


def build_stacked_adjoint(generators, doubled: bool = True,
                          tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Stack the real blocks of X -> i[H_k^(2), X], one per generator.

    Each block is the matrix of that map on Hermitian X in the orthonormal
    Hermitian basis of linalg.vec_herm, so the result is float64 with
    K n^2 rows and n^2 columns (n = d^2). It is built from Re H and Im H in
    real arithmetic, and it has the same singular values as the stacked
    complex row-vectorized blocks (i H_k^(2))^(ad). A generator that is not
    Hermitian within tol.hermiticity_tol is an InputError. With
    doubled=False the blocks are those of X -> i[H_k, X] on the original
    space (n = d), which is what original-space symmetry extraction needs.
    """
    mats, _ = _common_dim(generators, tol)
    lifted = [tensor_double(m) if doubled else m for m in mats]
    n = lifted[0].shape[0]
    flat, z_index, weight = _hermitian_adjoint_entries(n)
    values = np.stack([np.concatenate([h.real.ravel(), h.imag.ravel()])
                       for h in lifted])[:, z_index] * weight
    # one accumulation fills all K blocks: block k starts at k n^4
    flat = (np.arange(len(lifted))[:, None] * n ** 4 + flat).ravel()
    stacked = np.bincount(flat, weights=values.ravel(),
                          minlength=len(lifted) * n ** 4)
    return stacked.reshape(len(lifted) * n * n, n * n)


def _null_symmetries(null_basis: np.ndarray, n: int,
                     project_out: list | None = None) -> Iterator[np.ndarray]:
    """Yield the null vectors as Hermitian n x n operators.

    The null vectors are Hermitian-basis coordinates, so each is an exact
    Hermitian operator, and the orthonormal columns give operators
    orthonormal under the Hilbert-Schmidt inner product. Given Hermitian
    directions (e.g. the identity) are projected out first, and the
    survivors re-orthonormalized; a null vector inside their span drops out.
    Matrices are built as the caller asks for them, so a caller that needs
    only the first pays for the candidates up to it, not for the whole null
    basis.
    """
    fixed = [vec_herm(m) / np.linalg.norm(vec_herm(m))
             for m in project_out or []]
    kept: list[np.ndarray] = []
    for v in null_basis.T:
        for _ in range(2):
            for b in fixed + kept:
                v = v - b * (b @ v)
        rem = float(np.linalg.norm(v))
        if rem <= 1e-7:
            continue
        v = v / rem
        kept.append(v)
        yield devec_herm(v, n)


def commutant_dimension(generators, tol: ToleranceConfig = DEFAULT_TOL,
                        want_symmetries: bool = True) -> CommutantResult:
    """Nullity of the stacked doubled-space adjoint matrix.

    Controllable iff the nullity is exactly 2 (rank d^4 - 2): the identity
    and the swap always commute with every doubled generator. At
    d >= COMMUTANT_DIM_GUARD it raises DimensionGuardError (no override);
    generators below 2 x 2 are an InputError.
    """
    mats, d = _common_dim(generators, tol)
    if d >= COMMUTANT_DIM_GUARD:
        raise DimensionGuardError(
            f"commutant test at d={d} needs an SVD with {d ** 4} columns; "
            "use the Lie-closure test")
    stacked = build_stacked_adjoint(mats, doubled=True, tol=tol)
    r = rank_and_nullity(stacked, tol=tol, want_null_basis=want_symmetries)
    symmetries = []
    if want_symmetries:
        symmetries = list(_null_symmetries(r.null_basis, d * d))
    return CommutantResult(nullity=r.nullity, rank=r.rank,
                           symmetry_basis=symmetries,
                           controllable=(r.nullity == 2),
                           singular_values=r.singular_values)


def commutant_spectrum(generators, tol: ToleranceConfig
                       ) -> CommutantResult | None:
    """commutant_dimension without the symmetry operators, or None at or
    above COMMUTANT_DIM_GUARD: the one decision whether the unperturbed
    spectrum exists, which analyze's commutant section and the SVD lower
    bound read."""
    try:
        return commutant_dimension(generators, tol=tol, want_symmetries=False)
    except DimensionGuardError:
        return None


def extract_original_space_symmetry(generators, tol: ToleranceConfig = DEFAULT_TOL
                                    ) -> HermitianOperator | None:
    """A non-trivial Hermitian M with [M, H_k] ~ 0 for all k, if one exists.

    Works on the original d-dimensional space: the nullspace of the stacked
    real blocks of X -> i[H_k, X] always contains the identity's
    coordinates; any Hermitian direction orthogonal to it is a genuine
    symmetry. Returns None when the joint commutant is trivial.
    """
    mats, d = _common_dim(generators, tol)
    stacked = build_stacked_adjoint(mats, doubled=False, tol=tol)
    r = rank_and_nullity(stacked, tol=tol)
    if r.nullity <= 1:
        return None
    first = next(_null_symmetries(r.null_basis, d, project_out=[np.eye(d)]),
                 None)
    if first is None:
        return None
    return _as_operator(first, tol)
