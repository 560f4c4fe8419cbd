"""Path-independent controllability test via the doubled-space commutant.

For generators {H_k}, the map X -> i[H_k^(2), X] with
H_k^(2) = H_k (x) 1 + 1 (x) H_k acts on Hermitian operators on the
d^2-dimensional doubled space. Its stacked blocks form a (K d^4) x d^4
matrix, written as a real matrix in the orthonormal Hermitian basis of
linalg.vec_herm: a unitary change of basis from the complex
row-vectorized matrix, with the same singular values. Its nullspace holds
the coordinates of the Hermitian part of the commutant of the doubled
generators: dimension 2 (identity and swap) means controllable, anything
larger exposes explicit symmetry operators.

Every H_k^(2) commutes with the swap, so the map does not mix three parts
of the operator space: the Sym^2 (x) Sym^2 block, the Lambda^2 (x) Lambda^2
block and the off-diagonal Sym^2-Lambda^2 block. From d = SECTOR_MIN_DIM
the spectrum is decomposed sector by sector (sector_blocks): two real
matrices with s^2 and a^2 columns and one complex matrix with s a
columns, s = d(d+1)/2 and a = d(d-1)/2, whose merged values are the d^4
singular values of the dense matrix. Below it the dense matrix of
build_stacked_adjoint is the one block; it stays the oracle the sectors
are tested against. Either way commutant_dimension merges the blocks'
values under one cutoff and maps their null vectors back one way.

Complex conjugation is a second exact symmetry when every generator is
real or imaginary up to the identity (conjugation_parity), as in every
model of qdist.models. A real generator maps real symmetric X to
imaginary antisymmetric i[H, X] and back, an imaginary one keeps each
kind, so the Sym^2 and Lambda^2 sectors each split into two real blocks
of about half the width, and the off-diagonal sector becomes one real
matrix of the same width: five float64 blocks in place of two real and one
complex. Generators without a parity take the three sectors unchanged.

A spectrum without symmetry operators (commutant_spectrum, the d <= 4
cross-check of distance.verify_uncontrollable, qdist commutant without
--emit-symmetries) reads each sector block's values off the eigenvalues of
its Gram matrix M^H M where they certify them (_gram_values): every value
but the sector identity at least _GRAM_FLOOR = 1e-2 times the block's
largest, where the Gram's error, about n eps sigma_max^2 / sigma, stays
near 1e-12 sigma_max and no rank is read near the cutoff. The identity of
Sym^2 or Lambda^2 then reads exactly 0.0. Every other block, the dense
matrix below SECTOR_MIN_DIM and every call that wants symmetry operators
take the SVD, the one route to null vectors.

The same construction on the original space (X -> i[H_k, X]) gives the
generators' joint commutant. joint_blocks reads their finest joint
invariant blocks from it, the one place they are found: min cut, block
search, the drift-removal witness, the gap-merge witness (through
extract_original_space_symmetry) and the reachable-distance bound
(speed_limit.reachable_distance_lower) all take theirs from there. For
several generators it is not built on all d^2 columns: the joint
commutant lies in the commutant of one random element R
of their span, which is block diagonal over R's eigenvalue clusters, so the
map is stacked in R's eigenbasis on the sum m_c^2 Hermitian positions
inside the clusters alone, d of them when R's spectrum is simple
(_joint_commutant; the random-element idea of Murota, Kanno, Kojima &
Kojima, JJIAM 27, 125 (2010)). The full d^2-column matrix, _stacked_adjoint
on the generators themselves, is the oracle the tests hold it to.
Each construction offers its witness to distance.verify_uncontrollable,
which only checks it. That is the commutant criterion of Zimboras et al.,
PRA 92, 042309 (2015).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionGuardError, NumericalError
from .linalg import (DEFAULT_TOL, HermitianOperator, ToleranceConfig,
                     checked_generators, devec_herm, hermitian_eigensystem,
                     real_symmetric_positions,
                     singular_decomposition, tensor_double)

# no commutant spectrum at or above this d, and no override. The three swap
# sectors hold K (s^4 + a^4) float64 and K s^2 a^2 complex128 entries,
# s = d(d+1)/2 and a = d(d-1)/2: 24 MB for K = 2 generators at d = 7 and
# 1.7 GB at d = 12 (the conjugation split holds the off sector in float64
# and copies half of the other two). The guard stays where the dense d^4-column matrix
# (K d^8 entries, 6.9 GB at d = 12) put it, since moving it changes what
# analyze and the lower bound report at d >= 7.
COMMUTANT_DIM_GUARD = 7
# from this d the spectrum comes from the swap sectors; below it the
# dense matrix has at most 81 columns and the split saves nothing
SECTOR_MIN_DIM = 4
# joint_blocks: eigenvalues of its random element R closer than this times
# R's spread lambda_max - lambda_min share a cluster. Coarser clusters only
# add columns, so the threshold errs that way.
_CLUSTER_REL_GAP = 1e-6
# joint_blocks draws R and the commutant element from this seed: fixed,
# since its results must be reproducible
_JOINT_SEED = 719
# a values-only sector block reads its singular values off the eigenvalues
# of its Gram matrix only when all of them, bar the sector identity, are at
# least this fraction of its largest. The Gram's error in sigma is about
# n eps sigma_max^2 / sigma, so above the floor it stays near 1e-12
# sigma_max, and seven decades above rank_rel_tol no rank is read near the
# cutoff; a block with a smaller value takes the SVD.
_GRAM_FLOOR = 1e-2


@dataclass(frozen=True, eq=False)
class CommutantResult:
    """Nullity/rank and the d^4 singular values (descending) of the stacked
    doubled-space adjoint matrix, merged from its blocks (the dense matrix
    or its swap sectors), plus the Hermitian symmetry operators whose
    coordinates span its nullspace (empty without want_symmetries). A
    values-only spectrum takes a sector block's values from its Gram
    eigenvalues where they are certified, with its sector identity at
    exactly 0.0, and from the SVD otherwise."""

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


@lru_cache(maxsize=8)
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

    The pattern depends on n alone, so it is built once per n (the last 8
    sizes are kept) and returned read-only: its 3 x 4 n^3 entries are a
    fraction of the K n^4 matrix that each caller builds from it.
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
    entries = tuple(np.concatenate(part) for part in (flat, z_index, weight))
    for part in entries:
        part.setflags(write=False)
    return entries


def build_stacked_adjoint(generators, tol: ToleranceConfig = DEFAULT_TOL
                          ) -> np.ndarray:
    """Stack the real blocks of X -> i[H_k^(2), X], one per generator.

    Each block is the matrix of that map on Hermitian X in the orthonormal
    Hermitian basis of linalg.vec_herm, so the result is float64 with
    K n^2 rows and n^2 columns (n = d^2). It is built from Re H and Im H in
    real arithmetic, and it has the same singular values as the stacked
    complex row-vectorized blocks (i H_k^(2))^(ad). A generator that is not
    Hermitian within tol.hermiticity_tol is an InputError. It is the dense
    oracle the swap sectors of commutant_dimension are tested against, and
    its one block below SECTOR_MIN_DIM.
    """
    mats, _ = checked_generators(generators, tol)
    return _stacked_adjoint([tensor_double(m) for m in mats])


def _stacked_adjoint(mats, columns: np.ndarray | None = None) -> np.ndarray:
    """The stacked real blocks of X -> i[H_k, X] on n x n Hermitian X, one
    per generator, for generators that are already Hermitian complex n x n
    matrices: build_stacked_adjoint's on the doubled generators, the joint
    commutant's map on the original ones. With columns, a mask of the n^2
    Hermitian basis positions, only those columns (all n^2 rows each),
    filled from the pattern's entries in them alone: bit for bit the
    columns of the full matrix, without building it."""
    n = mats[0].shape[0]
    flat, z_index, weight = _hermitian_adjoint_entries(n)
    width = n * n
    if columns is not None:
        width = int(np.count_nonzero(columns))
        row, col, z_index, weight = _column_entries(
            (flat, z_index, weight), columns)
        flat = row * width + col
    values = np.stack([np.concatenate([h.real.ravel(), h.imag.ravel()])
                       for h in mats])[:, z_index] * weight
    # one accumulation fills all K blocks: block k starts at k n^2 width
    size = n * n * width
    flat = (np.arange(len(mats))[:, None] * size + flat).ravel()
    stacked = np.bincount(flat, weights=values.ravel(),
                          minlength=len(mats) * size)
    return stacked.reshape(len(mats) * n * n, width)


def _column_entries(pattern, columns: np.ndarray):
    """The entries (flat, z_index, weight) of an adjoint pattern over n^2
    columns whose column lies in the mask columns, in their original order.
    Returns (row, column, z_index, weight), the column renumbered to its
    index among the kept ones."""
    flat, z_index, weight = pattern
    row, col = np.divmod(flat, columns.size)
    keep = columns[col]
    place = np.cumsum(columns) - 1  # a kept position's column index
    return row[keep], place[col[keep]], z_index[keep], weight[keep]


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


@lru_cache(maxsize=8)
def swap_sector_bases(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Real orthonormal bases of Sym^2 and Lambda^2 in C^d (x) C^d: the
    columns of V_s (d^2 x s, s = d(d+1)/2) are e_i (x) e_i and
    (e_i (x) e_j + e_j (x) e_i)/sqrt(2), one per pair i <= j, those of V_a
    (d^2 x a, a = d(d-1)/2) are (e_i (x) e_j - e_j (x) e_i)/sqrt(2), one
    per pair i < j, the pairs in row-major order. They depend on d alone,
    so they are built once per d (the last 8 sizes are kept) and returned
    read-only."""
    i, j = np.triu_indices(d)
    vs = np.zeros((d * d, len(i)))
    w = np.where(i == j, 1.0, 1 / np.sqrt(2))
    vs[i * d + j, np.arange(len(i))] = w
    vs[j * d + i, np.arange(len(i))] = w
    i, j = np.triu_indices(d, 1)
    va = np.zeros((d * d, len(i)))
    va[i * d + j, np.arange(len(i))] = 1 / np.sqrt(2)
    va[j * d + i, np.arange(len(i))] = -1 / np.sqrt(2)
    for basis in (vs, va):
        basis.setflags(write=False)
    return vs, va


class SectorBlock(NamedTuple):
    """One SVD input of the commutant spectrum: the stacked adjoint map of a
    swap sector ("sym", "anti" or "off", see sector_blocks) restricted to
    the sector coordinates listed in columns, its rows that can be nonzero
    there, or below SECTOR_MIN_DIM the whole dense matrix ("dense", every
    one of the d^4 coordinates). Its null vectors, placed at those
    coordinates, are the sector's null vectors."""

    matrix: np.ndarray
    sector: str
    columns: np.ndarray


def conjugation_parity(m: np.ndarray) -> int:
    """+1 when the traceless part of m is real (conj(H) = H up to the
    identity), -1 when it is imaginary (conj(H) = -H up to the identity),
    0 otherwise. Read exactly, without a tolerance: the imaginary or the
    real part must be a multiple of the identity, which commutes with
    everything and so drops out of every adjoint map. A zero traceless part
    counts as real."""
    for parity, part in ((1, m.imag), (-1, m.real)):
        diagonal = part.diagonal()
        # no nonzero entry off the diagonal, and a constant diagonal
        if np.count_nonzero(part) == np.count_nonzero(diagonal) and \
                (diagonal == diagonal[0]).all():
            return parity
    return 0


@lru_cache(maxsize=8)
def _parity_entries(n: int):
    """_hermitian_adjoint_entries(n) split by the kind of X and of i[H, X].

    The vec_herm positions of a real symmetric X (the diagonal and upper
    ones, linalg.real_symmetric_positions) and those of an imaginary
    antisymmetric X (the lower ones) form two groups. Returns the groups
    and, for column group c and row group r, the pattern's entries whose
    column lies in c and whose row lies in r, in their original order,
    with the flat index renumbered into the len(r) x len(c) block. Summed
    in that order they give each block bit for bit as the full n^2 x n^2
    matrix holds it. Read-only, built once per n (the last 8 sizes are
    kept) from an uncached pattern, which the split replaces.
    """
    pattern = _hermitian_adjoint_entries.__wrapped__(n)
    real = real_symmetric_positions(n)
    groups = np.flatnonzero(real), np.flatnonzero(~real)
    place = np.empty(n * n, dtype=np.intp)  # a position's index in its group
    for group in groups:
        place[group] = np.arange(len(group))
    entries = {}
    for c, cols in enumerate(groups):
        row, col, z_index, weight = _column_entries(
            pattern, real if c == 0 else ~real)
        for r in range(2):
            keep = real[row] == (r == 0)
            entries[c, r] = (place[row[keep]] * len(cols) + col[keep],
                             z_index[keep], weight[keep])
    for part in (*groups, *(a for e in entries.values() for a in e)):
        part.setflags(write=False)
    return groups, entries


def _parity_blocks(mats, parities) -> list:
    """The stacked real blocks of X -> i[H_k, X] (build_stacked_adjoint's,
    n^2 columns in the Hermitian basis of linalg.vec_herm) split by the
    kind of X: the columns of the real symmetric X and those of the
    imaginary antisymmetric X, each with the rows it reaches.

    A real generator maps real symmetric X to imaginary antisymmetric
    i[H, X] and back; an imaginary one keeps each kind. So in every block
    the two column groups reach disjoint rows, and the singular values of
    the stacked matrix are those of the two groups together. Each group's
    matrix is filled from _parity_entries alone, without the full matrix.
    Returns [(matrix, columns)] for the two groups."""
    groups, entries = _parity_entries(mats[0].shape[0])
    sources = [np.concatenate([h.real.ravel(), h.imag.ravel()]) for h in mats]
    out = []
    for c, cols in enumerate(groups):
        flats, values, rows = [], [], 0
        for source, parity in zip(sources, parities):
            reached = c if parity < 0 else 1 - c
            flat, z_index, weight = entries[c, reached]
            flats.append(rows * len(cols) + flat)
            values.append(source[z_index] * weight)
            rows += len(groups[reached])
        matrix = np.bincount(np.concatenate(flats),
                             weights=np.concatenate(values),
                             minlength=rows * len(cols))
        out.append((matrix.reshape(rows, len(cols)), cols))
    return out


def sector_blocks(mats, vs: np.ndarray, va: np.ndarray) -> list:
    """The stacked doubled-space adjoint map split by swap symmetry and,
    when every generator has a conjugation parity, by complex conjugation.

    Every doubled generator H^(2) = H (x) 1 + 1 (x) H commutes with the
    swap, so in the basis [V_s V_a] it is diag(H_s, H_a) with
    H_s = V_s^T H^(2) V_s and H_a = V_a^T H^(2) V_a, and X -> i[H^(2), X]
    maps each of three parts of a Hermitian X to itself: the Hermitian
    s x s block ("sym"), the Hermitian a x a block ("anti") and the complex
    s x a block Z ("off"). The sym and anti blocks are the stacked real
    blocks of X -> i[H_s, X] (K s^2 x s^2) and X -> i[H_a, X] (K a^2 x a^2),
    as _stacked_adjoint gives them. The off block is the stacked
    row-vectorized map Z -> i(H_s Z - Z H_a) (K s a x s a), whose singular
    values are those of the real map on Z, each counted twice: complex128
    in general.

    V_s and V_a are real, so a generator whose traceless part is real or
    imaginary (conjugation_parity) keeps that parity in H_s and H_a. When
    every generator has one, each sym and anti block splits into its real
    symmetric and its imaginary antisymmetric columns (_parity_blocks), and
    the off block of generator k is i R_k (real H) or -R_k (imaginary H)
    with R_k = P (x) 1 - 1 (x) Q^T real, (P, Q) the real or imaginary parts
    of (H_s, H_a): the stack of the R_k has the same singular values and
    the same null vectors, and is built in float64. That gives five real
    blocks instead of two real and one complex; the identity part of a
    generator is left out of the blocks it would only add roundoff to.

    Returns the list of SectorBlock. The generators must already be
    checked. H_s and H_a are symmetrized, not checked again: a generator
    accepted within hermiticity_tol can give sectors up to twice as far
    from Hermitian.
    """
    doubled = [tensor_double(m) for m in mats]
    hs = [_hermitian_part(vs.T @ h @ vs) for h in doubled]
    ha = [_hermitian_part(va.T @ h @ va) for h in doubled]
    s, a = vs.shape[1], va.shape[1]
    parities = [conjugation_parity(m) for m in mats]
    split = all(parities)
    blocks = []
    for name, sector in (("sym", hs), ("anti", ha)):
        if split:
            blocks += [SectorBlock(matrix, name, cols)
                       for matrix, cols in _parity_blocks(sector, parities)]
        else:
            stacked = _stacked_adjoint(sector)
            blocks.append(SectorBlock(stacked, name,
                                      np.arange(stacked.shape[1])))
    if split:
        # R_k from the real parts (i R_k) or the imaginary parts (-R_k)
        pairs = [(p.real, q.real) if parity > 0 else (p.imag, q.imag)
                 for p, q, parity in zip(hs, ha, parities)]
    else:
        pairs = [(1j * p, 1j * q) for p, q in zip(hs, ha)]  # the complex map
    # entry ((x, y), (c, e)) of block k is P[x, c] d[y, e] - d[x, c] Q[e, y];
    # filled by index, since np.kron builds the same matrix 20 times slower
    off = np.zeros((len(hs), s, a, s, a),
                   dtype=np.float64 if split else np.complex128)
    rows, cols = np.arange(s), np.arange(a)
    for block, (p, q) in zip(off, pairs):
        block[:, cols, :, cols] = p
        block[rows, :, rows, :] -= q.T
    blocks.append(SectorBlock(off.reshape(len(hs) * s * a, s * a), "off",
                              np.arange(s * a)))
    return blocks


def commutant_dimension(generators, tol: ToleranceConfig = DEFAULT_TOL,
                        want_symmetries: bool = True) -> CommutantResult:
    """Nullity of the stacked doubled-space adjoint matrix.

    Controllable iff the nullity is exactly 2 (rank d^4 - 2): the identity
    and the swap always commute with every doubled generator. The matrix
    is decomposed as SectorBlocks: below SECTOR_MIN_DIM one, the dense
    build_stacked_adjoint matrix; from there those of sector_blocks, three
    swap sectors or, for generators that are each real or imaginary, five
    real blocks split further by complex conjugation. Their merged values
    are the d^4 singular values, rank counts those above rank_rel_tol
    times the largest one, and each block's null vectors under that one
    cutoff give the symmetry operators (_sector_operators). Without
    want_symmetries a sector block whose Gram eigenvalues certify its
    values (_gram_values: all but the sector identity at least
    _GRAM_FLOOR times its largest) takes them from there and needs no SVD;
    every other block, the dense one and every block of a call with
    want_symmetries take singular_decomposition. At
    d >= COMMUTANT_DIM_GUARD it raises DimensionGuardError (no override);
    generators below 2 x 2 are an InputError.
    """
    mats, d = checked_generators(generators, tol)
    if d >= COMMUTANT_DIM_GUARD:
        raise DimensionGuardError(
            f"commutant test at d={d} is above the guard (its Sym^2 sector "
            f"alone has {(d * (d + 1) // 2) ** 2} columns); use the "
            "Lie-closure test")
    if d < SECTOR_MIN_DIM:
        blocks = [SectorBlock(build_stacked_adjoint(mats, tol=tol), "dense",
                              np.arange(d ** 4))]
    else:
        blocks = sector_blocks(mats, *swap_sector_bases(d))
    decompositions = [_decomposition(b, want_symmetries) for b in blocks]
    # an off-diagonal value is one of the real map on Z, counted twice
    values = np.sort(np.concatenate([
        np.repeat(sv, 2 if b.sector == "off" else 1)
        for b, (sv, _) in zip(blocks, decompositions)]))[::-1]
    # one cutoff for all blocks: relative to the largest value overall
    cutoff = tol.rank_rel_tol * values[0]
    rank = int(np.count_nonzero(values > cutoff))
    symmetries = []
    if want_symmetries:
        for block, decomposition in zip(blocks, decompositions):
            for y in _null_vectors(decomposition, cutoff):
                symmetries += _sector_operators(block, y, d)
    nullity = d ** 4 - rank
    return CommutantResult(nullity=nullity, rank=rank,
                           symmetry_basis=symmetries,
                           controllable=(nullity == 2),
                           singular_values=values)


def _decomposition(block: SectorBlock, want_vectors: bool):
    """singular_decomposition of a block, or for a sector block without
    vectors its values from the Gram matrix when _gram_values certifies
    them (with None for the vectors)."""
    if not want_vectors and block.sector != "dense":
        values = _gram_values(block)
        if values is not None:
            return values, None
    return singular_decomposition(block.matrix, want_vectors)


def _gram_values(block: SectorBlock) -> np.ndarray | None:
    """The singular values (descending) of a sector block from the
    eigenvalues lambda (ascending) of its Gram matrix M^H M, or None when
    the Gram does not certify them.

    k, the sector identity directions among the block's columns, is 1 for
    the sym or anti block that holds its sector's diagonal (column 0 is the
    E_00 position) and 0 otherwise: the identity of Sym^2 or Lambda^2 is an
    exact null vector there. The values are certified when
    lambda[k] >= _GRAM_FLOOR^2 lambda[-1] > 0; they are then sqrt(lambda[k:])
    and k exact zeros. A failed eigensolve is a NumericalError."""
    m = block.matrix
    k = int(block.sector != "off" and block.columns[0] == 0)
    try:
        lam = np.linalg.eigvalsh(m.conj().T @ m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigvalsh failed: {exc}") from exc
    if not lam[k] >= _GRAM_FLOOR ** 2 * lam[-1] > 0:
        return None
    return np.concatenate([np.sqrt(lam[k:])[::-1], np.zeros(k)])


def _sector_operators(block: SectorBlock, y: np.ndarray, d: int) -> list:
    """The doubled-space Hermitian operators of one null vector y of a
    block, y given on the block's columns.

    Orthonormal null vectors of a block, placed at its columns, are
    orthonormal coordinates of operators in its sector; mapped back they
    stay orthonormal in Hilbert-Schmidt, and are exactly Hermitian (a
    dense vector through devec_herm, a sector's symmetrized). A null
    vector Z of the off-diagonal sector gives two operators, from Z and
    iZ."""
    if block.sector == "dense":
        return [devec_herm(y, d * d)]
    vs, va = swap_sector_bases(d)
    s, a = vs.shape[1], va.shape[1]
    width = {"sym": s * s, "anti": a * a, "off": s * a}[block.sector]
    coords = np.zeros(width, dtype=y.dtype)
    coords[block.columns] = y
    if block.sector == "off":
        z = coords.reshape(s, a)
        return [np.sqrt(2) * _hermitian_part(vs @ w @ va.T)
                for w in (z, 1j * z)]
    v = vs if block.sector == "sym" else va
    return [_hermitian_part(v @ devec_herm(coords, v.shape[1]) @ v.T)]


def _null_vectors(decomposition, cutoff: float) -> np.ndarray:
    """Rows: the null vectors of a singular_decomposition, those of its
    right singular vectors whose values are at most cutoff."""
    s, vh = decomposition
    return vh[np.count_nonzero(s > cutoff):].conj()


def commutant_spectrum(generators, tol: ToleranceConfig
                       ) -> CommutantResult | None:
    """commutant_dimension without the symmetry operators, or None at or
    above COMMUTANT_DIM_GUARD: the one decision whether the unperturbed
    spectrum exists, asked once per command by distance.Invariants."""
    try:
        return commutant_dimension(generators, tol=tol, want_symmetries=False)
    except DimensionGuardError:
        return None


def _joint_commutant(mats, tol: ToleranceConfig, rng
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The joint commutant of several Hermitian generators, found inside
    the commutant of one random element of their span.

    R = sum_k g_k H_k, g drawn from rng, is diagonalized once (R = V L V^+).
    Every X that commutes with all H_k commutes with R, so in R's basis it
    is block diagonal over R's eigenvalue clusters: eigenvalues that differ
    by at most _CLUSTER_REL_GAP (lambda_max - lambda_min)(R) share one, a
    scale that, like the commutant, ignores identity shifts. The stacked
    blocks of X -> i[V^+ H_k V, X] are built only on the sum m_c^2
    Hermitian basis positions inside the clusters (d of them when R's
    spectrum is simple), not on all d^2, and their null vectors are the
    commutant. Its rank cutoff is rank_rel_tol times max_k ||ad H_k||,
    the largest spread lambda_max - lambda_min of a generator, which is
    within sqrt(K) of the largest singular value of the full stacked
    matrix. The restricted matrix's own largest value is no scale: when
    every generator is diagonal in R's basis it holds only roundoff.

    Returns V and, as rows, orthonormal vec_herm coordinates of the
    commutant's Hermitian elements in R's basis (V X V^+ is the element).
    A failed eigendecomposition or SVD is a NumericalError.
    """
    stack = np.stack(mats)
    r = np.tensordot(rng.standard_normal(len(mats)), stack, 1)
    lam, basis = hermitian_eigensystem(_hermitian_part(r), tol=tol)
    # cluster labels: a new cluster at each gap above the threshold
    split = np.diff(lam) > _CLUSTER_REL_GAP * np.ptp(lam)
    labels = np.concatenate([[0], np.cumsum(split)])
    columns = (labels[:, None] == labels).ravel()
    rotated = [_hermitian_part(basis.conj().T @ m @ basis) for m in mats]
    decomposition = singular_decomposition(_stacked_adjoint(rotated, columns))
    try:
        spread = np.ptp(np.linalg.eigvalsh(stack), axis=1).max()
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigvalsh failed: {exc}") from exc
    null = _null_vectors(decomposition, tol.rank_rel_tol * spread)
    coords = np.zeros((len(null), columns.size))
    coords[:, columns] = null
    return basis, coords


def joint_blocks(generators, tol: ToleranceConfig):
    """Finest invariant-subspace decomposition shared by all generators.

    For one generator these are its degenerate eigenspaces. For several, a
    random real combination of the Hermitian elements of their joint
    commutant (_joint_commutant, found in the eigenbasis of a random
    element of their span) is diagonalized; its spectral projectors
    commute with every generator. Adjacent eigenvalues of the diagonalized
    matrix share a block when they lie within degeneracy_tol times its
    spread (largest minus smallest eigenvalue). Both random draws come
    from one fixed seed. Returns (basis, blocks), blocks listing the basis
    columns of each, or None when there is a single block.
    """
    mats, d = checked_generators(generators, tol)
    if len(mats) == 1:
        w, v = hermitian_eigensystem(mats[0], tol=tol)
    else:
        rng = np.random.default_rng(_JOINT_SEED)
        r_basis, null = _joint_commutant(mats, tol, rng)
        if len(null) <= 1:
            return None
        # a real combination of Hermitian coordinates is Hermitian
        m = devec_herm(rng.standard_normal(len(null)) @ null, d)
        w, u = hermitian_eigensystem(m, tol=tol)
        v = r_basis @ u
    cutoff = tol.degeneracy_tol * (w[-1] - w[0])
    blocks = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] <= cutoff:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return (v, blocks) if len(blocks) > 1 else None


def block_projector(basis: np.ndarray, cols) -> np.ndarray:
    """Orthogonal projector onto the span of the given basis columns,
    symmetrized so that it is exactly Hermitian."""
    vp = basis[:, cols]
    return _hermitian_part(vp @ vp.conj().T)


def extract_original_space_symmetry(generators, tol: ToleranceConfig = DEFAULT_TOL
                                    ) -> HermitianOperator | None:
    """The projector onto the generators' first joint block (joint_blocks),
    or None when they have a single block.

    It commutes with every generator and is not a multiple of the identity,
    so it is a symmetry witness. distance.epsilon_upper_gap_merge offers it
    as its certificate's witness, and distance.verify_uncontrollable
    accepts it only through is_symmetry_witness; the verifier never
    extracts one itself.
    """
    joint = joint_blocks(generators, tol)
    if joint is None:
        return None
    basis, blocks = joint
    return HermitianOperator(block_projector(basis, blocks[0]), tol=tol)
