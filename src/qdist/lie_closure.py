"""Dimension of the dynamical Lie algebra generated by i * (the generators).

A pair/set of Hermitian generators, shifted to be traceless, is fully
controllable exactly when the iterated-commutator closure of {i H_k} spans
all of su(d), i.e. reaches dimension d^2 - 1.

The closure grows one breadth-first generation at a time. An element iH is
stored as the real coordinates of H in the orthonormal Hermitian basis of
linalg.vec_herm (d^2 reals; the Hilbert-Schmidt inner product is their dot
product). The brackets of a generation's new elements with the generators
come from one batched matrix product, and are projected out of the earlier
generations as matrix products, twice (block classical Gram-Schmidt with
re-orthogonalization, BCGS2: Barlow & Smoktunowicz, Numer. Math. 123, 395
(2013)).

When every generator is real or imaginary up to the identity
(linalg.conjugation_parity), as in every model of qdist.models, su(d)
is graded (Zeier & Schulte-Herbruggen, J. Math. Phys. 52, 113510 (2011)):
each element is a real symmetric H (grade +1) or an imaginary
antisymmetric one (grade -1), and the bracket i[A, B] has grade
-grade(A) grade(B). The two grades have disjoint coordinates
(linalg.real_symmetric_positions), so each keeps its own basis on its own
positions, about half as wide. Without a parity there is one grade, 0,
holding every coordinate, on the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import takewhile
from math import sqrt

import numpy as np

from .errors import DimensionGuardError
from .linalg import (DEFAULT_TOL, ToleranceConfig, checked_generators,
                     conjugation_parity, real_symmetric_positions)

# the closure holds each grade's coordinate rows, up to 8 d^4 bytes, plus
# one generation's brackets as complex d x d matrices while it runs. It is
# refused where d^2 - 1 such matrices (16 d^4 bytes) exceed this size
# (d >= 91): there those buffers alone can exhaust memory
LIE_BUFFER_GUARD_BYTES = 1 << 30


@dataclass(frozen=True, eq=False)
class LieClosureResult:
    """Closure summary: dimension, the right-normed bracket depth (see
    lie_dimension), and the verdict: controllable iff the dimension is
    d^2 - 1, i.e. the closure spans su(d). lie_dimension is the one place
    that verdict is decided. The basis it builds stays inside it."""

    dimension: int
    depth: int
    controllable: bool


@lru_cache(maxsize=16)
def _grade_pattern(d: int, grade: int):
    """Where a grade's coordinates sit in a complex d x d matrix.

    A grade's coordinates sit at vec_herm positions: the real symmetric
    ones for +1, the imaginary antisymmetric ones for -1, all for 0.
    Returns, for each of them, two indices into the float64 view of a
    complex matrix (real part of entry p at 2p, imaginary part at 2p + 1)
    and their read and write weights. The coordinates of the Hermitian H
    with iH = P - P^dagger are w0 * P[i0] + w1 * P[i1]; the skew-Hermitian
    iH of coordinates c has c w0 / w^2 at i0 and c w1 / w^2 at i1,
    w = |w0| the coordinate's scale (1 on the diagonal, sqrt(2) off it).
    Read-only, cached per (d, grade).
    """
    real = real_symmetric_positions(d)
    positions = np.flatnonzero(real if grade > 0 else
                               ~real if grade < 0 else np.ones_like(real))
    r, s = np.divmod(positions, d)
    # a diagonal or upper position holds w Re H[r, s] =
    # w (Im P[r, s] + Im P[s, r]), a lower one sqrt(2) Im H[s, r] =
    # sqrt(2) (Re P[r, s] - Re P[s, r])
    is_real = r <= s
    w = np.where(r == s, 1.0, np.sqrt(2))
    index = np.stack([2 * positions + is_real, 2 * (s * d + r) + is_real])
    read = np.stack([w, np.where(is_real, w, -w)])
    write = read / w ** 2
    pattern = (index, read, write)
    for part in pattern:
        part.setflags(write=False)
    return pattern


@lru_cache(maxsize=16)
def _pairs_above_diagonal(k: int) -> tuple:
    """The index pairs (a, b), a < b, of a k x k grid. Read-only."""
    pairs = np.triu_indices(k, 1)
    for part in pairs:
        part.setflags(write=False)
    return pairs


class _Grade:
    """One grade's orthonormal basis: rows of coordinates at its positions."""

    def __init__(self, d: int, grade: int):
        self.index, self.read, self.write = _grade_pattern(d, grade)
        n = self.index.shape[1]
        # the identity direction lies in grades 0 and +1 and is never reached
        self.rows = np.empty((n if grade < 0 else n - 1, n))
        self.size = 0

    def coordinates(self, p: np.ndarray) -> np.ndarray:
        """This grade's coordinates of each H with iH = P - P^dagger, for a
        contiguous stack p of complex d x d matrices."""
        flat = p.reshape(len(p), -1).view(np.float64)
        return np.add.reduce(flat[:, self.index] * self.read, axis=1)

    def write_elements(self, first: int, out: np.ndarray) -> None:
        """Write the skew-Hermitian iH of each basis row from row first on
        into out, a stack of complex d x d matrices that is zero at the
        other positions."""
        flat = out.reshape(len(out), -1).view(np.float64)
        flat[:, self.index] = \
            self.rows[first:first + len(out), None, :] * self.write


def _norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.add.reduce(rows * rows, axis=1))


def _extend(grade: _Grade, candidates: np.ndarray, floor: float,
            tol: ToleranceConfig) -> int:
    """Add to grade, in order, the candidates (rows of its coordinates)
    that are independent of its basis; return how many were added.

    The candidates are projected out of the basis kept so far, twice, as
    matrix products. A candidate of norm at most floor is dropped, and so is
    one whose remainder is within its cutoff: rank_rel_tol times its norm,
    but never below the noise floor 0.1 rank_rel_tol. Each survivor, in
    order, is then projected twice out of the elements this call has
    already added, and kept, normalized, when its remainder still exceeds
    its cutoff. Stops when the grade is full.
    """
    norms = _norms(candidates)
    start = grade.size
    rems = norms
    if start:
        basis = grade.rows[:start]
        for _ in range(2):
            candidates -= (candidates @ basis.T) @ basis
        rems = _norms(candidates)
    capacity = len(grade.rows)
    noise_floor = 0.1 * tol.rank_rel_tol
    for v, norm, rem in zip(candidates, norms.tolist(), rems.tolist()):
        cutoff = max(tol.rank_rel_tol * norm, noise_floor)
        if norm <= floor or rem <= cutoff:
            continue
        if grade.size == capacity:
            break
        if grade.size > start:
            added = grade.rows[start:grade.size]
            v = v - (added @ v) @ added
            v -= (added @ v) @ added
            rem = sqrt(v @ v)
            if rem <= cutoff:
                continue
        np.divide(v, rem, out=grade.rows[grade.size])
        grade.size += 1
    return grade.size - start


def lie_dimension(generators, tol: ToleranceConfig = DEFAULT_TOL
                  ) -> LieClosureResult:
    """Dimension of the real span of the iterated-commutator closure of {iH_k}.

    The algebra is spanned by the right-normed brackets
    [iH_a, [iH_b, ..., [iH_y, iH_z]]], so it is the smallest subspace that
    contains the generators and is closed under bracketing with a generator.
    Generation 0 is the normalized generators; generation t + 1 is the
    brackets of generation t's new elements with each kept generator, K D
    candidates in all for K generators and dimension D (not the D^2 of a
    basis-by-basis sweep). Each grade (see the module docstring) takes its
    candidates through _extend: projected out of the basis twice, and kept
    when the orthogonal remainder exceeds rank_rel_tol times the
    candidate's pre-projection norm. The sweep stops when a generation adds
    nothing or the dimension hits d^2 - 1.

    depth is the generation of the last element kept: the closure needs
    right-normed brackets of at most depth + 1 generators. In exact
    arithmetic it does not depend on generator order or basis choice.

    Generators are traceless-shifted first: an identity shift changes no
    commutator, so the closure counts dimensions inside su(d). Where d^2 - 1
    complex d x d matrices exceed LIE_BUFFER_GUARD_BYTES, room for each
    grade's coordinate rows plus one generation's brackets, it raises
    DimensionGuardError. Input that linalg.checked_generators rejects (no
    generators, unequal shapes, below 2 x 2 where su(1) is trivial, not
    Hermitian) is an InputError.
    """
    mats, d = checked_generators(generators, tol)
    max_dim = d * d - 1
    buffer_bytes = max_dim * d * d * 16
    if buffer_bytes > LIE_BUFFER_GUARD_BYTES:
        raise DimensionGuardError(
            f"Lie closure at d={d} sizes its buffers at "
            f"{buffer_bytes / 2 ** 30:.2f} GiB, above the "
            f"{LIE_BUFFER_GUARD_BYTES / 2 ** 30:g} GiB guard")
    # one generator without a parity puts every element in one grade, 0
    parities = list(takewhile(bool, map(conjugation_parity, mats)))
    graded = len(parities) == len(mats)
    grade_of = parities if graded else [0] * len(mats)
    grades = {g: _Grade(d, g) for g in ((1, -1) if graded else (0,))}

    # Basis elements are kept at unit Hilbert-Schmidt norm, so a bracket of
    # norm below rank_rel_tol is structure the package's rank semantics cannot
    # distinguish from zero: promoting it (a purely relative remainder test
    # would, after normalization) lets epsilon-broken symmetries cascade into
    # full junk directions and desynchronizes this test from the commutant SVD.
    # Remainders additionally carry absolute roundoff (~1e-12 for unit-norm
    # parents projected onto ~d^2 basis vectors), so _extend never lets a
    # candidate's relative cutoff fall below 0.1 rank_rel_tol.
    zero_floor = max(tol.rank_rel_tol, 1e-13)

    size = 0

    def add(g: int, candidates: np.ndarray, floor: float) -> list:
        """Extend grade g by its candidates: the run of its new elements,
        (grade, first row, count), or [] when there are none."""
        nonlocal size
        first = grades[g].size
        added = _extend(grades[g], candidates, floor, tol)
        size += added
        return [(g, first, added)] if added else []

    def matrices(run: tuple) -> tuple:
        """A run's grade and its elements as skew-Hermitian matrices."""
        g, first, count = run
        out = np.zeros((count, d, d), dtype=np.complex128)
        grades[g].write_elements(first, out)
        return g, out

    # generation 0: the generators' traceless parts H, grade by grade;
    # A = iH/2 gives iH = A - A^dagger
    coords = {}
    for g in dict.fromkeys(grade_of):
        stack = np.array([m for m, h in zip(mats, grade_of) if h == g]) * 0.5j
        stack.reshape(len(stack), -1)[:, ::d + 1] -= \
            stack.trace(axis1=1, axis2=2)[:, None] / d
        coords[g] = grades[g].coordinates(stack)
    # A generator far below the scale of the largest one is invisible at the
    # package's relative rank tolerance; normalizing it up would promote
    # roundoff residue (e.g. a drift cancelled by a certificate) into a
    # full-strength generator and desynchronize this test from the SVD-based
    # commutant verdict.
    scales = {g: _norms(c) for g, c in coords.items()}
    threshold = tol.rank_rel_tol * max(max(s.tolist()) for s in scales.values())
    gen_runs = []
    for g, c in coords.items():
        kept = scales[g] > threshold
        gen_runs += add(g, c[kept] / scales[g][kept, None], floor=0.0)

    # The kept generators span the same space as {iH_k}, and the algebra is
    # the smallest subspace containing them that ad_{iH_k} maps into itself,
    # so bracketing each new element with the generators alone suffices
    # (and a single generator brackets to zero).
    gens = [matrices(run) for run in gen_runs] if 1 < size < max_dim else []
    generation, depth, frontier = 0, 0, gens
    while frontier:
        # [A, G] = P - P^dagger with P = A G for skew-Hermitian A and G: one
        # batched matmul per pair of runs, of grade -grade(A) grade(G)
        products: dict[int, list] = {}
        for i, (fg, f) in enumerate(frontier):
            for j, (gg, g) in enumerate(gens):
                if generation == 0 and i > j:
                    continue  # [G_b, G_a] = -[G_a, G_b]
                p = np.matmul(f[:, None], g[None])
                if generation == 0 and i == j:
                    p = p[_pairs_above_diagonal(len(f))]
                products.setdefault(-fg * gg, []).append(p.reshape(-1, d, d))
        generation += 1
        new_runs = []
        for g, ps in products.items():
            p = ps[0] if len(ps) == 1 else np.concatenate(ps)
            if len(p):
                new_runs += add(g, grades[g].coordinates(p), floor=zero_floor)
        if new_runs:
            depth = generation
        frontier = [matrices(run) for run in new_runs] if size < max_dim else []
    return LieClosureResult(dimension=size, depth=depth,
                            controllable=size == max_dim)
