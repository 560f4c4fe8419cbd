"""Estimators for the distance to uncontrollability.

Upper bounds come from explicit perturbation constructions, each verified
uncontrollable before it may be used: merging the closest drift eigenvalue
pair, an exhaustive block (projector) search that scores every
bipartition by the largest singular value of the drift's rectangle across
the cut in the joint block basis (a small Gram matrix per candidate, one
batched eigvalsh per inside size) and assembles and verifies only the
winner, and removing the drift (or a driftless system's bounded
generators) outright. Above its size guard the block search takes the one
bipartition of a Stoer-Wagner min cut over the same blocks instead of
scoring them all. Each construction offers its certificate's symmetry
witness, or declines where it has none (drift removal alone may offer
none; the Lie closure then decides), and verify_uncontrollable only checks
what it is offered. The lower bound is rigorous: a Weyl singular-value
argument on the stacked doubled-space adjoint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .commutant import (CommutantResult, block_projector, commutant_dimension,
                        commutant_spectrum, extract_original_space_symmetry,
                        joint_blocks)
from .errors import InputError, NumericalError, UncontrollableSystemError
from .lie_closure import LieClosureResult, lie_dimension
from .linalg import (DEFAULT_TOL, HermitianOperator, ToleranceConfig, as_matrix,
                     as_operator, checked_generators, commutator,
                     hermitian_eigensystem, json_object, json_value,
                     matrix_from_json, matrix_to_json, operator_norm,
                     traceless_part)
from .system import ControlSystem, generator_index

# bound on N d^2 for block search's N bipartitions at dimension d: a random
# d=12 pair's 2047 candidates are scored, a d=14 pair's 8191 give way to
# the min cut
BLOCK_SEARCH_MAX_ENTRIES = 2047 * 12 ** 2
# verify_uncontrollable cross-checks every verdict up to this d, where the
# second oracle is cheap (at most a 256-column spectrum)
_CROSS_CHECK_MAX_DIM = 4


@dataclass(frozen=True, eq=False)
class DistanceCertificate:
    """A concrete Hermitian perturbation and its verification state.

    perturbations: a non-empty list of (generator index, delta) pairs,
    indices into the owning system's flat generator list (drift first),
    each index at most once. op_norm, the largest single ||delta_j||, is
    no argument: it is read off them on construction.
    """

    perturbations: list
    method: str
    verified_uncontrollable: bool
    symmetry_witness: HermitianOperator | None = None
    detail: str = ""
    op_norm: float = field(init=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown certificate method {self.method!r}")
        if not self.perturbations:
            raise InputError("certificate carries no perturbation")
        seen = set()
        for index, delta in self.perturbations:
            if not isinstance(delta, HermitianOperator):
                raise InputError("certificate perturbations must wrap HermitianOperator")
            index = generator_index(index)
            if index < 0:
                raise InputError("negative generator index in certificate")
            # applied deltas of one generator add up, and op_norm would
            # read the largest part instead of their sum
            if index in seen:
                raise InputError(f"certificate perturbs generator {index} twice")
            seen.add(index)
        object.__setattr__(self, "op_norm", max(
            operator_norm(delta) for _, delta in self.perturbations))


@dataclass(frozen=True, eq=False)
class CutResult:
    """Global minimum cut: a bipartition of the vertices and its weight."""

    partition: tuple
    cut_weight: float


def is_symmetry_witness(m, gens, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff M is not a multiple of the identity (its traceless part
    exceeds 1e-8 ||M||, so a zero M fails) and commutes with every
    generator within commute_tol (relative to ||M|| ||H_k||), plus a floor
    of 1e-14 ||M|| max_k ||H_k|| for a generator that is zero up to the
    roundoff of the others. Both tests are relative to ||M||, so scaling M
    never changes the answer.

    Such an M proves uncontrollability, since su(d) has a trivial commutant.
    A witness whose dimension differs from the generators' is an InputError.
    """
    m = as_matrix(m)
    gens = [as_matrix(g) for g in gens]
    brackets = [commutator(m, g) for g in gens]
    # every operator norm in one stacked call: M, its traceless part, the
    # H_k, then the [M, H_k]
    norms = np.linalg.norm(np.stack([m, traceless_part(m), *gens, *brackets]),
                           2, axis=(1, 2))
    scale, k = norms[0], len(gens)
    gen_norms, bracket_norms = norms[2:2 + k], norms[2 + k:]
    floor = 1e-14 * scale * gen_norms.max(initial=0.0)
    if np.any(bracket_norms > tol.commute_tol * scale * gen_norms + floor):
        return False
    return bool(norms[1] > 1e-8 * scale)


def agreed_verdict(verdicts: dict, d: int) -> bool:
    """The first verdict of those that ran (name -> True if controllable, None
    if it did not run), once all agree; else a NumericalError naming each."""
    ran = {name: v for name, v in verdicts.items() if v is not None}
    if len(set(ran.values())) > 1:
        raise NumericalError(f"controllability oracles disagree at d={d}: "
                             + ", ".join(f"{k}={v}" for k, v in ran.items()))
    return next(iter(ran.values()))


# role the estimators perturb -> (fixed generators, perturbed ones, removal detail)
_PERTURBED_ROLES = {"drift": ("controls", "drift", ""),
                    "bounded": ("unbounded controls", "bounded generators",
                                "removed all bounded generators")}


@dataclass(frozen=True, eq=False)
class Invariants:
    """One command's unperturbed invariants, each computed on first read:
    lie and spectrum are lie_dimension and commutant_spectrum of
    system.algebra_generators() at tol (spectrum is None only where the
    guard gives none), and controllable is agreed_verdict over both.

    The estimators perturb the generators `perturbed` names and keep fixed();
    fixed_lie and fixed_blocks are their lie_dimension and joint_blocks."""

    system: ControlSystem
    tol: ToleranceConfig = DEFAULT_TOL

    @cached_property
    def lie(self) -> LieClosureResult:
        return lie_dimension(self.system.algebra_generators(), tol=self.tol)

    @cached_property
    def spectrum(self) -> CommutantResult | None:
        return commutant_spectrum(self.system.algebra_generators(), self.tol)

    @property
    def controllable(self) -> bool:
        verdicts = {"lie": self.lie.controllable,
                    "commutant": getattr(self.spectrum, "controllable", None)}
        return agreed_verdict(verdicts, self.system.dim)

    @cached_property
    def perturbed(self) -> tuple[str, list[int]]:
        """(role, flat indices): the drift, or else every bounded generator."""
        for role in _PERTURBED_ROLES:
            if indices := self.system.indices(role):
                return role, indices
        raise InputError("system has neither drift nor bounded generators to perturb")

    def fixed(self) -> list[np.ndarray]:
        """The other algebra generators; none is the zero algebra, one zero matrix."""
        gens = self.system.algebra_generators()
        return ([g for i, g in enumerate(gens) if i not in self.perturbed[1]]
                or [np.zeros_like(gens[0])])

    @cached_property
    def fixed_lie(self) -> LieClosureResult:
        return lie_dimension(self.fixed(), tol=self.tol)

    @cached_property
    def fixed_blocks(self) -> tuple | None:
        return joint_blocks(self.fixed(), self.tol)


def resolve_invariants(system: ControlSystem, tol: ToleranceConfig,
                       invariants: Invariants | None) -> Invariants:
    """invariants, checked against system and tol, or a new Invariants."""
    if invariants is None:
        return Invariants(system, tol)
    if invariants.system is not system or invariants.tol != tol:
        raise InputError("invariants belong to another system or tolerance")
    return invariants


def verify_uncontrollable(gens, tol: ToleranceConfig = DEFAULT_TOL, witness=None
                          ) -> tuple[bool, HermitianOperator | None]:
    """Decide from scratch whether the generators are uncontrollable.

    A checker only: it looks for no witness of its own. The offered
    witness decides if is_symmetry_witness accepts it; checking one costs
    O(K d^3) and, unlike a deep Lie closure, does not amplify noise.
    Otherwise (none offered, or the offered one rejected) the Lie closure
    decides, at every dimension. For d <= _CROSS_CHECK_MAX_DIM (4)
    agreed_verdict cross-checks every verdict: the Lie closure an accepted
    witness, the commutant spectrum the Lie closure. Returns the verdict
    and the accepted witness (None when none was accepted). The
    generators are checked by linalg.checked_generators first.
    """
    mats, d = checked_generators(gens, tol)
    if witness is not None and not is_symmetry_witness(witness, mats, tol):
        witness = None
    verdicts = {} if witness is None else {"witness": False}
    cross_check = d <= _CROSS_CHECK_MAX_DIM
    if witness is None or cross_check:
        verdicts["lie"] = lie_dimension(mats, tol=tol).controllable
    if witness is None and cross_check:
        verdicts["commutant"] = commutant_dimension(
            mats, tol=tol, want_symmetries=False).controllable
    return not agreed_verdict(verdicts, d), witness


def _certificate(system, deltas, method, tol, witness=None, detail=""):
    """Apply the (flat index, delta) pairs with system.with_perturbations,
    the one path every check of a certificate takes, verify the perturbed
    system from scratch offering the construction's witness (a projector
    matrix or HermitianOperator, or None), and wrap the deltas as a
    certificate."""
    perturbed = system.with_perturbations(deltas, tol=tol)
    offered = None if witness is None else as_operator(witness, tol)
    verified, witness = verify_uncontrollable(perturbed.algebra_generators(),
                                              tol, offered)
    return DistanceCertificate(
        perturbations=[(i, as_operator(d, tol)) for i, d in deltas],
        method=method, verified_uncontrollable=verified,
        symmetry_witness=witness, detail=detail)


def _drift(system: ControlSystem, tol: ToleranceConfig,
           invariants: Invariants | None, method: str) -> tuple:
    """(invariants, flat index, algebra generator) of the drift; InputError
    if there is none. Gap merge, min cut and block search perturb only it."""
    invariants = resolve_invariants(system, tol, invariants)
    role, indices = invariants.perturbed
    if role != "drift":
        raise InputError(f"{method} perturbs the drift, and the system has none")
    return invariants, indices[0], system.algebra_generators()[indices[0]]


def epsilon_upper_gap_merge(system: ControlSystem,
                            tol: ToleranceConfig = DEFAULT_TOL, *,
                            invariants: Invariants | None = None
                            ) -> DistanceCertificate:
    """Merge the closest adjacent drift eigenvalue pair into a degeneracy.

    The perturbation shifts the pair symmetrically onto their midpoint, so its
    norm is half the minimum gap (strictly below the one-sided gap bound).
    That creates a symmetry whenever the controls leave a vector of the
    merged eigenspace invariant (always for a rank-1 control). The witness
    is the projector onto the merged system's first joint block
    (extract_original_space_symmetry), offered to the verifier. No drift, a
    minimum gap below degeneracy_tol, or a merged system with a single
    joint block (no witness): InputError, before verifying.
    """
    _, index, hd = _drift(system, tol, invariants, "gap merge")
    w, v = hermitian_eigensystem(hd, tol=tol)
    gaps = np.diff(w)
    k = int(np.argmin(gaps))
    g = float(gaps[k])
    if g <= tol.degeneracy_tol:
        raise InputError("drift spectrum is already degenerate (minimum gap "
                         "below degeneracy_tol): no eigenvalue pair to merge")
    lo = np.outer(v[:, k], v[:, k].conj())
    hi = np.outer(v[:, k + 1], v[:, k + 1].conj())
    # raise the lower eigenvalue and lower the upper one onto their midpoint
    delta = (g / 2) * (lo - hi)
    delta = (delta + delta.conj().T) / 2
    merged = system.with_perturbations([(index, delta)], tol=tol)
    witness = extract_original_space_symmetry(merged.algebra_generators(), tol)
    if witness is None:
        raise InputError("merging the closest drift eigenvalue pair leaves the "
                         "system a single joint block: no symmetry witness")
    return _certificate(system, [(index, delta)], "gap_merge", tol,
                        witness=witness,
                        detail=f"merged eigenvalues {w[k]:.6g} and {w[k + 1]:.6g}")


def _cut_weights(hd: np.ndarray, basis: np.ndarray, blocks) -> np.ndarray:
    """Min-cut graph weights, one vertex per block: the weight between two
    blocks sums the entry moduli of the drift's inter-block rectangle in the
    block basis (the L11 convention). For a non-degenerate control this is
    |<e_i| H_d |e_j>|; basis freedom inside a degenerate block makes
    per-vector weights ill-defined."""
    h = basis.conj().T @ hd @ basis
    b = len(blocks)
    weights = np.zeros((b, b))
    for i in range(b):
        for j in range(i + 1, b):
            rect = h[np.ix_(blocks[i], blocks[j])]
            weights[i, j] = weights[j, i] = float(np.sum(np.abs(rect)))
    return weights


def cut_weight_of(weights: np.ndarray, side) -> float:
    """Canonical crossing-weight sum for a bipartition (sorted index order).

    Both Stoer-Wagner and the exhaustive-enumeration oracle in the tests
    report through this function, so that equal cuts compare bit-for-bit.
    """
    side = sorted(side)
    inside = set(side)
    other = [j for j in range(weights.shape[0]) if j not in inside]
    total = 0.0
    for i in side:
        for j in other:
            total += float(weights[i, j])
    return total


def stoer_wagner_min_cut(weights) -> CutResult:
    """Global minimum-weight cut of an undirected non-negative weighted graph.

    Classic maximum-adjacency / merge algorithm; ties in the adjacency search
    break toward the smallest vertex index so results are reproducible.
    """
    w0 = np.asarray(weights, dtype=float)
    if w0.ndim != 2 or w0.shape[0] != w0.shape[1]:
        raise InputError("weights must be a square matrix")
    n = w0.shape[0]
    if n < 2:
        raise InputError("min cut needs at least 2 vertices")
    if np.any(w0 < 0) or not np.all(np.isfinite(w0)):
        raise InputError("weights must be finite and non-negative")
    if np.max(np.abs(w0 - w0.T)) > 0:
        raise InputError("weights must be symmetric")

    g = w0.copy()
    np.fill_diagonal(g, 0.0)
    members: list[list[int]] = [[i] for i in range(n)]
    active = list(range(n))
    best_weight = np.inf
    best_side: list[int] = []

    while len(active) > 1:
        start = active[0]
        conn = {u: float(g[start, u]) for u in active if u != start}
        order = [start]
        while conn:
            # most tightly connected vertex; smallest index on ties
            v = min(conn, key=lambda u: (-conn[u], u))
            cut_of_phase = conn.pop(v)
            order.append(v)
            for u in conn:
                conn[u] += float(g[v, u])
        t = order[-1]
        s = order[-2]
        if cut_of_phase < best_weight:
            best_weight = cut_of_phase
            best_side = list(members[t])
        for u in active:
            if u not in (s, t):
                g[s, u] = g[u, s] = g[s, u] + g[t, u]
        members[s] = members[s] + members[t]
        active.remove(t)

    side = tuple(sorted(best_side))
    other = tuple(j for j in range(n) if j not in set(side))
    return CutResult(partition=(side, other),
                     cut_weight=cut_weight_of(w0, side))


def _block_cut_delta(hd: np.ndarray, basis: np.ndarray, blocks, side) -> tuple:
    """Perturbation zeroing the drift entries across a block bipartition.

    `side` lists block indices; returns (delta, projector) in the original
    basis with delta = -(P H Q + Q H P), P the projector onto those blocks.
    """
    p = block_projector(basis, [i for bi in side for i in blocks[bi]])
    q = np.eye(hd.shape[0]) - p
    delta = -(p @ hd @ q + q @ hd @ p)
    return (delta + delta.conj().T) / 2, p


def epsilon_upper_min_cut(system: ControlSystem,
                          tol: ToleranceConfig = DEFAULT_TOL, *,
                          invariants: Invariants | None = None
                          ) -> DistanceCertificate:
    """Disconnect the drift across the minimum cut of the control-basis graph:
    epsilon_upper_block_search's one candidate above its guard.

    The vertices are the controls' joint invariant blocks, the
    invariants.fixed_blocks that the block search enumerates. The removed
    entries make the perturbed drift block diagonal in that basis, so the
    block projector commutes with every control and the perturbed drift,
    and is offered to the verifier as the witness. The cut weight and the
    partition are named in the certificate's detail. No drift, or controls
    with no common block structure (no cut): InputError.
    """
    invariants, index, hd = _drift(system, tol, invariants, "min cut")
    if invariants.fixed_blocks is None:
        raise InputError("the controls share no invariant block structure: "
                         "no cut structure available")
    basis, blocks = invariants.fixed_blocks
    cut = stoer_wagner_min_cut(_cut_weights(hd, basis, blocks))
    delta, projector = _block_cut_delta(hd, basis, blocks, cut.partition[0])
    detail = f"cut weight {cut.cut_weight:.6g}, partition {cut.partition}"
    return _certificate(system, [(index, delta)], "min_cut", tol,
                        witness=projector, detail=detail)


def _bipartitions(blocks, d: int) -> np.ndarray:
    """Block search's candidates in enumeration order, as an
    (2^(nb-1) - 1) x d mask: row n - 1 is True at the basis vectors of the
    blocks in subset n, which holds block i < nb - 1 iff bit i of n is set.
    The last block is never inside, since n < 2^(nb - 1)."""
    label = np.empty(d, dtype=np.int64)
    for b, cols in enumerate(blocks):
        label[cols] = b
    subsets = np.arange(1, 2 ** (len(blocks) - 1))
    return (subsets[:, None] >> label) & 1 == 1


def _bipartition_norms(h: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Operator norms of the cut parts -(P h Q + Q h P) of a Hermitian h,
    one per row of inside (candidates x basis vectors, True where the
    vector lies in P's range).

    In the basis of h that matrix is [[0, B], [B^dagger, 0]] with
    B = h[in, out], the rectangle from the inside vectors to the outside
    ones, so its norm is sigma_max(B): the square root of the top
    eigenvalue of the Gram matrix of B on its shorter side, at most
    d/2 square. Candidates are grouped by how many vectors lie inside:
    one gather, one batched product and one eigvalsh per group.
    """
    d = inside.shape[1]
    counts = inside.sum(axis=1)
    norms = np.empty(len(inside))
    # a range, not np.unique: its first call raised small_batch's peak RSS
    # by about 1 MB
    for m in range(1, d):
        group = np.flatnonzero(counts == m)
        if not len(group):
            continue
        rows = inside[group]
        # the shorter side's vectors index the rectangle's rows
        short, long = (rows, ~rows) if 2 * m <= d else (~rows, rows)
        r = np.nonzero(short)[1].reshape(len(group), -1)
        c = np.nonzero(long)[1].reshape(len(group), -1)
        b = h[r[:, :, None], c[:, None, :]]
        top = np.linalg.eigvalsh(b @ b.conj().transpose(0, 2, 1))[:, -1]
        # a block-diagonal h gives an exactly zero rectangle, and its Gram
        # matrix's top eigenvalue may come out as -0 or a roundoff below
        norms[group] = np.sqrt(np.maximum(top, 0.0))
    return norms


def epsilon_upper_block_search(system: ControlSystem,
                               tol: ToleranceConfig = DEFAULT_TOL, *,
                               invariants: Invariants | None = None
                               ) -> DistanceCertificate:
    """Smallest operator-norm perturbation over the block-symmetry family.

    Enumerates bipartitions of the controls' joint invariant blocks
    (invariants.fixed_blocks) and keeps the one whose off-block drift part
    is smallest in operator norm: the first in enumeration order unless a
    later one is smaller by more than 1e-12 times the largest candidate
    norm. Norms that tie in exact arithmetic differ only by roundoff, far
    below that margin, so a tie always goes to the earliest candidate
    whatever the order of floating-point operations (a Haar-rotated basis,
    say). The pick's norm exceeds the smallest by at most that margin.
    All N = 2^(nb-1) - 1 candidates are scored in the joint block basis,
    where the norm of -(P H Q + Q H P) is the largest singular value of the
    drift's rectangle from the inside basis vectors to the outside ones
    (_bipartition_norms); only the winner is assembled and verified. No
    drift, or controls with no common block structure: InputError, before
    anything is verified. N d^2 above BLOCK_SEARCH_MAX_ENTRIES bounds the
    work, not the answer: none is scored, and epsilon_upper_min_cut's
    certificate (method "min_cut") is returned.
    """
    invariants, index, hd = _drift(system, tol, invariants, "block search")
    if invariants.fixed_blocks is None:
        raise InputError("the controls share no invariant block structure: "
                         "no block symmetry to search")
    basis, blocks = invariants.fixed_blocks
    d, nb = system.dim, len(blocks)
    if (2 ** (nb - 1) - 1) * d * d > BLOCK_SEARCH_MAX_ENTRIES:
        return epsilon_upper_min_cut(system, tol, invariants=invariants)
    h = basis.conj().T @ hd @ basis
    norms = _bipartition_norms(h, _bipartitions(blocks, d)).tolist()
    margin = 1e-12 * max(norms)
    best = 0
    for n, norm in enumerate(norms):
        if norm < norms[best] - margin:
            best = n
    side = tuple(i for i in range(nb - 1) if (best + 1) >> i & 1)
    delta, projector = _block_cut_delta(hd, basis, blocks, side)
    return _certificate(system, [(index, delta)], "block_search", tol,
                        witness=projector,
                        detail=f"best block subset {side} of {nb} blocks")


def epsilon_upper_drift_removal(system: ControlSystem,
                                tol: ToleranceConfig = DEFAULT_TOL, *,
                                invariants: Invariants | None = None
                                ) -> DistanceCertificate:
    """Remove the drift, or a driftless system's bounded generators (e.g. a
    cross-Kerr coupling): verified when the fixed generators are not
    controllable alone, always for a lone control. The verifier is offered
    the projector onto the first of invariants.fixed_blocks; with one block,
    none, unless the fixed generators are all zero within degeneracy_tol
    (or absent): every projector commutes with zero, so the projector onto
    the first basis vector is offered.
    """
    invariants = resolve_invariants(system, tol, invariants)
    role, indices = invariants.perturbed
    joint = invariants.fixed_blocks
    if joint is None and all(operator_norm(m) <= tol.degeneracy_tol
                             for m in invariants.fixed()):
        joint = np.eye(system.dim), [[0]]  # every projector commutes with zero
    projector = None if joint is None else block_projector(joint[0], joint[1][0])
    gens = system.algebra_generators()
    return _certificate(system, [(i, -traceless_part(gens[i])) for i in indices],
                        "drift_removal", tol, witness=projector,
                        detail=_PERTURBED_ROLES[role][2])


def _estimators() -> dict:
    """Method name -> f(system, tol, invariants=). Read from the module on each
    call, so a rebound estimator (as perfbench's tracer wraps them) runs."""
    return {"gap_merge": epsilon_upper_gap_merge,
            "block_search": epsilon_upper_block_search,
            "drift_removal": epsilon_upper_drift_removal}


ESTIMATORS = tuple(_estimators())
# min_cut labels block search's certificates above its guard, and stored ones
METHODS = ESTIMATORS + ("min_cut", "manual")


def epsilon_lower_svd(system: ControlSystem, perturbed_indices,
                      tol: ToleranceConfig = DEFAULT_TOL, *,
                      invariants: Invariants | None = None) -> float:
    """Rigorous lower bound on the distance to uncontrollability.

    Let sigma be the (d^4 - 2)-th largest singular value of the stacked
    doubled-space adjoint matrix of the (controllable) system. A perturbation
    delta_j of one generator moves its block by at most 4 ||delta_j|| in
    operator norm, and losing controllability requires driving sigma to zero,
    so by Weyl's inequality every uncontrollable perturbation of the given m
    generators satisfies max_j ||delta_j|| >= sigma / (4 m). Only the count
    m of distinct perturbed generators enters, not which they are. The stacked
    matrix is the real one of build_stacked_adjoint: each block is the
    complex row-vectorized block in an orthonormal Hermitian basis, a
    unitary change of basis, so sigma and the 4 ||delta_j|| bound are those
    of the complex blocks.

    sigma is read from resolve_invariants(system, tol, invariants).spectrum.
    The bound is 0.0 where the spectrum proves nothing: none exists, or its
    nullity exceeds 2 (an uncontrollable system is at distance 0). It
    decides no verdict.
    """
    indices = sorted(set(generator_index(i) for i in perturbed_indices))
    n = len(system.generators())
    if not indices:
        raise InputError("perturbed_indices must be non-empty")
    if indices[0] < 0 or indices[-1] >= n:
        raise InputError(f"perturbed index out of range 0..{n - 1}")
    spectrum = resolve_invariants(system, tol, invariants).spectrum
    if spectrum is None or not spectrum.controllable:
        return 0.0
    sigma = float(spectrum.singular_values[system.dim ** 4 - 3])
    return sigma / (4.0 * len(indices))


def verify_certificate(system: ControlSystem, cert: DistanceCertificate,
                       tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Apply the certificate's perturbations to the system, then decide
    from scratch with verify_uncontrollable, offering it the certificate's
    witness."""
    perturbed = system.with_perturbations(cert.perturbations, tol=tol)
    verified, _ = verify_uncontrollable(perturbed.algebra_generators(), tol,
                                        cert.symmetry_witness)
    return verified


def epsilon_best(system: ControlSystem, tol: ToleranceConfig = DEFAULT_TOL, *,
                 invariants: Invariants | None = None) -> DistanceCertificate:
    """Best verified upper-bound certificate.

    The estimators perturb the drift, or a driftless system's bounded
    generators, and keep the rest fixed (Invariants.perturbed). Requires a
    controllable system whose fixed generators are not controllable on
    their own (otherwise the distance is infinite). The checks run first,
    so the commutant spectrum is paid for only by a system that passes
    them: controllability from invariants.lie (UncontrollableSystemError),
    then the controls-alone gate invariants.fixed_lie (InputError), then
    invariants.controllable (agreed_verdict), the spectrum's first read.

    Each of the ESTIMATORS builds and verifies its certificate once, with
    the same invariants; one that does not apply (InputError) contributes
    nothing, and drift removal always applies. The smallest op_norm among
    the verified certificates wins, the earlier method on a tie.
    NumericalError when none verified. The lower bound on the generators
    it perturbs is epsilon_lower_svd's, which t_star_lower reports.
    """
    invariants = resolve_invariants(system, tol, invariants)
    if not invariants.lie.controllable:
        raise UncontrollableSystemError("system is already uncontrollable")
    if invariants.fixed_lie.controllable:
        fixed, perturbed, _ = _PERTURBED_ROLES[invariants.perturbed[0]]
        raise InputError(f"the {fixed} alone are controllable: no perturbation of "
                         f"the {perturbed} can render the system uncontrollable")
    invariants.controllable  # NumericalError if the spectrum's verdict disagrees
    certificates: list[DistanceCertificate] = []
    for estimator in _estimators().values():
        try:
            certificates.append(estimator(system, tol, invariants=invariants))
        except InputError:
            pass  # the construction does not apply to this system
    verified = [c for c in certificates if c.verified_uncontrollable]
    if not verified:
        raise NumericalError("no estimator produced a verified certificate")
    return min(verified, key=lambda c: c.op_norm)


def certificate_to_json(cert: DistanceCertificate) -> dict:
    return {
        "format": 1,
        "method": cert.method,
        "perturbations": [{"index": int(i), "matrix": matrix_to_json(d.matrix)}
                          for i, d in cert.perturbations],
        "op_norm": cert.op_norm,
        "verified_uncontrollable": bool(cert.verified_uncontrollable),
        "symmetry_witness": None if cert.symmetry_witness is None
        else matrix_to_json(cert.symmetry_witness.matrix),
        "detail": cert.detail,
    }


def certificate_from_json(obj, tol: ToleranceConfig = DEFAULT_TOL
                          ) -> DistanceCertificate:
    """Parse the certificate format (README, "File formats"): the integer
    format 1, method, a non-empty list of perturbations (each an integer
    index and a matrix), op_norm and verified_uncontrollable, and
    optionally a symmetry_witness matrix or null, a detail string and the
    l11_norm that earlier writers added. op_norm and l11_norm must be
    numbers, and neither is kept: op_norm is read off the perturbations.
    Unknown keys are rejected."""
    obj = json_object(obj, "certificate", (
        "format", "method", "perturbations", "op_norm", "verified_uncontrollable"),
        ("l11_norm", "symmetry_witness", "detail"))
    if json_value(obj["format"], int, "certificate format") != 1:
        raise InputError(f"unsupported certificate format {obj['format']!r}")
    entries = obj["perturbations"]
    if not isinstance(entries, list):
        raise InputError("perturbations must be a list in certificate JSON")
    entries = [json_object(e, "certificate perturbation", ("index", "matrix"))
               for e in entries]
    # DistanceCertificate checks each index (system.generator_index)
    perturbations = [(e["index"], as_operator(matrix_from_json(e["matrix"]), tol))
                     for e in entries]
    witness = obj.get("symmetry_witness")
    witness_op = None
    if witness is not None:
        witness_op = as_operator(matrix_from_json(witness), tol)
    for key in ("op_norm", "l11_norm"):
        if key in obj:
            json_value(obj[key], float, f"certificate {key}")
    return DistanceCertificate(
        perturbations=perturbations, symmetry_witness=witness_op,
        method=json_value(obj["method"], str, "certificate method"),
        verified_uncontrollable=json_value(obj["verified_uncontrollable"], bool,
                                           "certificate verified_uncontrollable"),
        detail=json_value(obj.get("detail", ""), str, "certificate detail"),
    )
