"""Dimension of the dynamical Lie algebra generated by i * (the generators).

A pair/set of Hermitian generators, shifted to be traceless, is fully
controllable exactly when the iterated-commutator closure of {i H_k} spans
all of su(d), i.e. reaches dimension d^2 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionGuardError, InputError
from .linalg import (DEFAULT_TOL, ToleranceConfig, as_matrix, from_real_vec,
                     real_vec, traceless_part)

# the closure preallocates its (d^2 - 1) x 2d^2 float64 basis buffer, 16 d^4
# bytes; above this size (d >= 91) the allocation alone can exhaust memory
LIE_BUFFER_GUARD_BYTES = 1 << 30


@dataclass(frozen=True, eq=False)
class LieClosureResult:
    """Closure summary: dimension, an orthonormal basis (Hilbert-Schmidt inner
    product) of skew-Hermitian traceless matrices, the right-normed bracket
    depth (see lie_dimension), and the verdict: controllable iff the
    dimension is d^2 - 1, i.e. the closure spans su(d). lie_dimension is the
    one place that verdict is decided."""

    dimension: int
    basis: list
    depth: int
    controllable: bool


def lie_dimension(generators, tol: ToleranceConfig = DEFAULT_TOL
                  ) -> LieClosureResult:
    """Dimension of the real span of the iterated-commutator closure of {iH_k}.

    The algebra is spanned by the right-normed brackets
    [iH_a, [iH_b, ..., [iH_y, iH_z]]], so it is the smallest subspace that
    contains the generators and is closed under bracketing with a generator.
    The basis starts from the normalized generators and grows breadth-first:
    each new element is bracketed once with each kept generator, K D
    candidates in all for K generators and dimension D (not the D^2 of a
    basis-by-basis sweep). A candidate is projected out of the basis twice
    (Gram-Schmidt with re-orthogonalization) and kept when its orthogonal
    remainder exceeds rank_rel_tol times its pre-projection norm.
    The sweep stops when a generation adds nothing or the dimension hits
    d^2 - 1.

    depth is the breadth-first generation of the last element kept: the
    closure needs right-normed brackets of at most depth + 1 generators. In
    exact arithmetic it does not depend on generator order or basis choice.

    Generators are traceless-shifted first: an identity shift changes no
    commutator, so the closure counts dimensions inside su(d). A basis buffer
    larger than LIE_BUFFER_GUARD_BYTES raises DimensionGuardError, and
    generators below 2 x 2 (su(1) is trivial) an InputError.
    """
    mats = [as_matrix(g) for g in generators]
    if not mats:
        raise InputError("lie_dimension needs at least one generator")
    d = mats[0].shape[0]
    if mats[0].shape[0] != mats[0].shape[1]:
        raise InputError("generators must be square")
    if d < 2:
        raise InputError(f"generator dimension must be >= 2, got {d}")
    for k, m in enumerate(mats):
        if m.shape != (d, d):
            raise InputError(f"generator {k} has shape {m.shape}, expected {(d, d)}")
        mats[k] = traceless_part(m)

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

    # Basis elements are kept at unit Hilbert-Schmidt norm, so a bracket of
    # norm below rank_rel_tol is structure the package's rank semantics cannot
    # distinguish from zero: promoting it (a purely relative remainder test
    # would, after normalization) lets epsilon-broken symmetries cascade into
    # full junk directions and desynchronizes this test from the commutant SVD.
    zero_floor = max(tol.rank_rel_tol, 1e-13)
    # Remainders additionally carry absolute roundoff (~1e-12 for unit-norm
    # parents projected onto ~d^2 basis vectors), so a candidate with a small
    # genuine norm must not have its relative cutoff fall below that noise.
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

    # A generator far below the scale of the largest one is invisible at the
    # package's relative rank tolerance; normalizing it up would promote
    # roundoff residue (e.g. a drift cancelled by a certificate) into a
    # full-strength generator and desynchronize this test from the SVD-based
    # commutant verdict.
    scales = [float(np.linalg.norm(m)) for m in mats]
    scale_max = max(scales)
    for m, scale in zip(mats, scales):
        if scale <= tol.rank_rel_tol * scale_max:
            continue
        try_add(1j * m / scale, 0, floor=0.0)

    # The kept generators span the same space as {iH_k}, and the algebra is
    # the smallest subspace containing them that ad_{iH_k} maps into itself,
    # so bracketing each new element with the generators alone suffices.
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

    return LieClosureResult(dimension=len(basis_mats), basis=list(basis_mats),
                            depth=max(depths, default=0),
                            controllable=len(basis_mats) == max_dim)
