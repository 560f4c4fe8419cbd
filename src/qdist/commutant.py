"""Path-independent controllability test via the doubled-space commutant.

For generators {H_k}, build one adjoint-representation block
(i * (H_k (x) 1 + 1 (x) H_k))^(ad) per generator and stack them into a
(K d^4) x d^4 matrix. Its nullspace is the commutant of the doubled
generators: dimension 2 (identity and swap) means controllable, anything
larger exposes explicit symmetry operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionGuardError, InputError
from .linalg import (DEFAULT_TOL, HermitianOperator, ToleranceConfig,
                     adjoint_action_matrix, as_matrix, devec_row, from_real_vec,
                     rank_and_nullity, real_vec, tensor_double)
from .system import _as_operator

# dense d^4-column SVDs get expensive/memory hungry beyond this; callers
# should prefer the Lie-closure test or pass force=True deliberately
COMMUTANT_DIM_GUARD = 7


@dataclass(frozen=True, eq=False)
class CommutantResult:
    """Nullity/rank and singular values (descending) of the stacked
    doubled-space adjoint matrix plus the Hermitized symmetry operators
    devectorized from its nullspace."""

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


def _common_dim(generators) -> tuple[list[np.ndarray], int]:
    mats = [as_matrix(g) for g in generators]
    if not mats:
        raise InputError("need at least one generator")
    d = mats[0].shape[0]
    for k, m in enumerate(mats):
        if m.shape != (d, d):
            raise InputError(f"generator {k} has shape {m.shape}, expected {(d, d)}")
    return mats, d


def build_stacked_adjoint(generators, doubled: bool = True) -> np.ndarray:
    """Stack (i H_k^(2))^(ad) blocks, one per generator.

    With doubled=False the blocks are (i H_k)^(ad) on the original space,
    which is what original-space symmetry extraction needs.
    """
    mats, _ = _common_dim(generators)
    blocks = []
    for m in mats:
        lifted = tensor_double(m) if doubled else m
        blocks.append(adjoint_action_matrix(1j * lifted))
    return np.vstack(blocks)


def _hermitize_null_vectors(null_basis: np.ndarray, n: int,
                            project_out: list | None = None) -> list[np.ndarray]:
    """Split devectorized null vectors into (anti-)Hermitian parts and
    re-orthonormalize under the Hilbert-Schmidt inner product.

    The commutant is closed under the adjoint, so this loses nothing and
    yields testable Hermitian symmetries. Optionally projects out given
    Hermitian directions (e.g. the identity) first.
    """
    candidates = []
    for j in range(null_basis.shape[1]):
        x = devec_row(null_basis[:, j], n, n)
        candidates.append((x + x.conj().T) / 2)
        candidates.append((x - x.conj().T) / 2j)

    kept_vecs: list[np.ndarray] = []
    kept_mats: list[np.ndarray] = []
    fixed = []
    for m in project_out or []:
        v = real_vec(m)
        fixed.append(v / np.linalg.norm(v))
    for cand in candidates:
        v = real_vec(cand)
        norm0 = float(np.linalg.norm(v))
        if norm0 < 1e-14:
            continue
        for _ in range(2):
            for b in fixed:
                v = v - b * (b @ v)
            for b in kept_vecs:
                v = v - b * (b @ v)
        rem = float(np.linalg.norm(v))
        if rem <= 1e-7 * norm0:  # candidates come in +/- dagger pairs; half drop out
            continue
        v /= rem
        kept_vecs.append(v)
        kept_mats.append(from_real_vec(v, n))
    return kept_mats


def commutant_dimension(generators, tol: ToleranceConfig = DEFAULT_TOL,
                        force: bool = False,
                        want_symmetries: bool = True) -> CommutantResult:
    """Nullity of the stacked doubled-space adjoint matrix.

    Controllable iff the nullity is exactly 2 (rank d^4 - 2): the identity
    and the swap always commute with every doubled generator. Dimensions
    d >= 7 are guarded (the SVD has d^4 columns); pass force=True to insist.
    """
    mats, d = _common_dim(generators)
    if d >= COMMUTANT_DIM_GUARD and not force:
        raise DimensionGuardError(
            f"commutant test at d={d} needs an SVD with {d ** 4} columns; "
            "use the Lie-closure test or pass force=True")
    stacked = build_stacked_adjoint(mats, doubled=True)
    r = rank_and_nullity(stacked, tol=tol, want_null_basis=want_symmetries)
    symmetries = []
    if want_symmetries:
        symmetries = _hermitize_null_vectors(r.null_basis, d * d)
    return CommutantResult(nullity=r.nullity, rank=r.rank,
                           symmetry_basis=symmetries,
                           controllable=(r.nullity == 2),
                           singular_values=r.singular_values)


def is_controllable_commutant(generators, tol: ToleranceConfig = DEFAULT_TOL,
                              force: bool = False) -> bool:
    """True iff the stacked adjoint matrix has rank d^4 - 2."""
    return commutant_dimension(generators, tol=tol, force=force,
                               want_symmetries=False).controllable


def extract_original_space_symmetry(generators, tol: ToleranceConfig = DEFAULT_TOL
                                    ) -> HermitianOperator | None:
    """A non-trivial Hermitian M with [M, H_k] ~ 0 for all k, if one exists.

    Works on the original d-dimensional space: the nullspace of the stacked
    (i H_k)^(ad) matrix always contains the identity; any Hermitian direction
    orthogonal to it is a genuine symmetry. Returns None when the joint
    commutant is trivial.
    """
    mats, d = _common_dim(generators)
    stacked = build_stacked_adjoint(mats, doubled=False)
    r = rank_and_nullity(stacked, tol=tol)
    if r.nullity <= 1:
        return None
    eye = np.eye(d) / np.sqrt(d)
    herm = _hermitize_null_vectors(r.null_basis, d, project_out=[eye])
    if not herm:
        return None
    return _as_operator((herm[0] + herm[0].conj().T) / 2, tol)
