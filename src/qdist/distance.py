"""Estimators for the distance to uncontrollability.

Upper bounds come from explicit perturbation constructions, each verified
uncontrollable before it may be used: merging the closest drift eigenvalue
pair, disconnecting the drift across a graph min-cut in the control
eigenbasis, an exhaustive block (projector) search that scores every
bipartition in one stacked norm evaluation in the joint block basis and
assembles and verifies only the winner, and removing the drift outright.
The lower bound is rigorous: a Weyl singular-value argument on the stacked
doubled-space adjoint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutant import (CommutantResult, build_stacked_adjoint,
                        commutant_dimension, commutant_spectrum,
                        extract_original_space_symmetry)
from .errors import (DimensionGuardError, InputError, NumericalError,
                     UncontrollableSystemError)
from .lie_closure import LieClosureResult, lie_dimension
from .linalg import (DEFAULT_TOL, HermitianOperator, ToleranceConfig, as_matrix,
                     commutator, devec_herm, hermitian_eigensystem,
                     matrix_from_json, matrix_to_json, operator_norm,
                     rank_and_nullity, traceless_part)
from .system import ControlSystem, _as_operator

BLOCK_SEARCH_DIM_GUARD = 12


@dataclass(frozen=True, eq=False)
class DistanceCertificate:
    """A concrete Hermitian perturbation with its norms and verification state.

    perturbations: list of (generator index, delta) pairs, indices into the
    owning system's flat generator list (drift first). op_norm is the largest
    single ||delta_j||; l11_norm sums entry moduli (for min-cut certificates it
    is evaluated in the control eigenbasis where the cut lives).
    """

    perturbations: list
    op_norm: float
    l11_norm: float
    method: str
    verified_uncontrollable: bool
    symmetry_witness: HermitianOperator | None = None
    detail: str = ""

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown certificate method {self.method!r}")
        for index, delta in self.perturbations:
            if not isinstance(delta, HermitianOperator):
                raise InputError("certificate perturbations must wrap HermitianOperator")
            if index < 0:
                raise InputError("negative generator index in certificate")


@dataclass(frozen=True, eq=False)
class CutResult:
    """Global minimum cut: a bipartition of the vertices and its weight."""

    partition: tuple
    cut_weight: float


@dataclass(frozen=True, eq=False)
class DistanceEstimate:
    """Best verified certificate, the SVD lower bound on its perturbed
    generators, and the unperturbed system's commutant spectrum that bound
    read (None where commutant_spectrum gives none; the lower bound is then
    0.0)."""

    upper: DistanceCertificate
    lower: float
    commutant: CommutantResult | None = None


def _control_list(controls, drift: np.ndarray) -> list[np.ndarray]:
    if isinstance(controls, (list, tuple)):
        items = list(controls)
    else:
        items = [controls]
    if not items:
        raise InputError("need at least one control")
    mats = [as_matrix(c) for c in items]
    if any(m.shape != drift.shape for m in mats):
        raise InputError("drift/control dimension mismatch")
    return mats


def is_symmetry_witness(m, gens, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff M is not a multiple of the identity and commutes with every
    generator within commute_tol (relative to ||M|| ||H_k||).

    Such an M proves uncontrollability, since su(d) has a trivial commutant.
    A witness whose dimension differs from the generators' is an InputError.
    """
    m = as_matrix(m)
    scale = operator_norm(m)
    for g in gens:
        bound = tol.commute_tol * scale * operator_norm(g) + 1e-14
        if operator_norm(commutator(m, g)) > bound:
            return False
    return operator_norm(traceless_part(m)) > 1e-8 * max(scale, 1.0)


def verify_uncontrollable(gens, tol: ToleranceConfig = DEFAULT_TOL, witness=None
                          ) -> tuple[bool, HermitianOperator | None]:
    """Decide from scratch whether the generators are uncontrollable.

    The same order runs at every dimension. A symmetry witness is tried
    first: the given one, then the one extract_original_space_symmetry
    finds, each accepted only through is_symmetry_witness. Checking one
    costs O(K d^3) and, unlike a deep Lie closure, does not amplify noise.
    Without a witness the Lie closure decides, at every dimension. For
    d <= 4 a second oracle cross-checks every verdict, the Lie closure a
    witness and the commutant spectrum the Lie closure, and a disagreement
    raises NumericalError. Returns the verdict and the accepted witness
    (None when none was accepted).
    """
    mats = [as_matrix(g) for g in gens]
    if not mats:
        raise InputError("need at least one generator")
    d = mats[0].shape[0]
    if witness is None or not is_symmetry_witness(witness, mats, tol):
        witness = extract_original_space_symmetry(mats, tol=tol)
        if witness is not None and not is_symmetry_witness(witness, mats, tol):
            witness = None
    # the first verdict decides and any other cross-checks it
    verdicts = {} if witness is None else {"witness": True}
    if witness is None or d <= 4:
        verdicts["lie"] = not lie_dimension(mats, tol=tol).controllable
    if witness is None and d <= 4:
        verdicts["commutant"] = not commutant_dimension(
            mats, tol=tol, want_symmetries=False).controllable
    uncontrollable = next(iter(verdicts.values()))
    if len(set(verdicts.values())) > 1:
        raise NumericalError(
            f"controllability oracles disagree at d={d}: " + ", ".join(
                f"{name}={not v}" for name, v in verdicts.items()))
    return uncontrollable, witness


def _certificate(delta, method, tol, controls, drift, l11=None, witness=None,
                 detail=""):
    """Verify drift + delta against the controls from scratch (offering the
    witness) and wrap delta as a certificate of generator 0. l11 defaults to
    the sum of delta's entry moduli."""
    perturbed = [traceless_part(drift + delta)] + [traceless_part(c) for c in controls]
    verified, witness = verify_uncontrollable(perturbed, tol, witness)
    if l11 is None:
        l11 = np.sum(np.abs(delta))
    return DistanceCertificate(
        perturbations=[(0, _as_operator(delta, tol))],
        op_norm=float(operator_norm(delta)), l11_norm=float(l11), method=method,
        verified_uncontrollable=verified, symmetry_witness=witness, detail=detail)


def epsilon_upper_gap_merge(drift, control, tol: ToleranceConfig = DEFAULT_TOL
                            ) -> DistanceCertificate:
    """Merge the closest adjacent drift eigenvalue pair into a degeneracy.

    The perturbation shifts the pair symmetrically onto their midpoint, so its
    norm is half the minimum gap (strictly below the one-sided gap bound).
    Creates a symmetry whenever the control leaves a vector of the merged
    eigenspace invariant (always for a rank-1 control); verify_uncontrollable
    on the perturbed system decides the verified flag either way. A drift
    whose minimum gap is already below degeneracy_tol has nothing to merge:
    InputError, before anything is verified.
    """
    hd = as_matrix(drift)
    controls = _control_list(control, hd)
    w, v = hermitian_eigensystem(hd, tol=tol)
    if len(w) < 2:
        raise InputError("gap merge needs dimension >= 2")
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
    return _certificate(delta, "gap_merge", tol, controls, hd,
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
    cols = [i for bi in side for i in blocks[bi]]
    vp = basis[:, cols]
    p = vp @ vp.conj().T
    p = (p + p.conj().T) / 2
    q = np.eye(hd.shape[0]) - p
    delta = -(p @ hd @ q + q @ hd @ p)
    return (delta + delta.conj().T) / 2, p


def epsilon_upper_min_cut(drift, control, tol: ToleranceConfig = DEFAULT_TOL
                          ) -> DistanceCertificate:
    """Disconnect the drift across the minimum cut of the control-basis graph.

    The vertices are the control's degenerate eigenspaces, the same blocks
    of _joint_control_blocks that the block search enumerates. The removed
    entries make the perturbed drift block diagonal in an eigenbasis of the
    control, so the block projector is a symmetry of the perturbed pair.
    Minimal in the L_{1,1} norm over this family (l11_norm = 2 * cut weight,
    evaluated in the control eigenbasis); the operator norm of the assembled
    perturbation is reported alongside. A control that is a multiple of the
    identity has a single block and no cut: InputError.
    """
    hd = as_matrix(drift)
    controls = _control_list(control, hd)
    if len(controls) != 1:
        raise InputError("min cut is defined for a single control; "
                         "use the block search for control families")
    joint = _joint_control_blocks(controls, tol)
    if joint is None:
        raise InputError("control has a single degenerate eigenspace; "
                         "no cut structure available")
    basis, blocks = joint
    cut = stoer_wagner_min_cut(_cut_weights(hd, basis, blocks))
    delta, projector = _block_cut_delta(hd, basis, blocks, cut.partition[0])
    witness = HermitianOperator(projector, tol=tol)
    detail = f"cut weight {cut.cut_weight:.6g}, partition {cut.partition}"
    return _certificate(delta, "min_cut", tol, controls, hd,
                        l11=2 * cut.cut_weight, witness=witness, detail=detail)


def _joint_control_blocks(controls: list[np.ndarray], tol: ToleranceConfig):
    """Finest invariant-subspace decomposition shared by all controls.

    For one control these are its degenerate eigenspaces (eigenvalues
    within degeneracy_tol). For several, a generic Hermitian element of the
    joint commutant is diagonalized; its spectral projectors commute with
    every control. Returns (basis, blocks), blocks listing the basis columns
    of each, or None when there is a single block. Min cut, block search
    and the reachable-distance probe (on a symmetry witness) all read their
    blocks here.
    """
    if len(controls) == 1:
        w, v = hermitian_eigensystem(controls[0], tol=tol)
    else:
        stacked = build_stacked_adjoint(controls, doubled=False, tol=tol)
        r = rank_and_nullity(stacked, tol=tol)
        if r.nullity <= 1:
            return None
        d = controls[0].shape[0]
        rng = np.random.default_rng(719)  # fixed: results must be reproducible
        # null vectors are Hermitian coordinates: a real combination is Hermitian
        m = devec_herm(r.null_basis @ rng.standard_normal(r.nullity), d)
        w, v = np.linalg.eigh(m)
    blocks = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] <= tol.degeneracy_tol:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return (v, blocks) if len(blocks) > 1 else None


def epsilon_upper_block_search(drift, controls, tol: ToleranceConfig = DEFAULT_TOL
                               ) -> DistanceCertificate:
    """Smallest operator-norm perturbation over the block-symmetry family.

    Enumerates bipartitions of the controls' joint invariant blocks
    (degenerate eigenspaces are indivisible units) and keeps the one whose
    off-block drift part is smallest in operator norm: the first in
    enumeration order unless a later one is smaller by more than 1e-12 times
    the largest candidate norm. Norms that tie in exact arithmetic differ
    only by roundoff, far below that margin, so a tie always goes to the
    earliest candidate whatever the order of floating-point operations (a
    Haar-rotated basis, say). The pick's norm exceeds the smallest by at
    most that margin.
    All 2^(nb-1) - 1 candidates are scored in one stacked norm evaluation
    in the joint block basis, where the norm of -(P H Q + Q H P) is that of
    the drift masked to the entries crossing the cut; only the winner is
    assembled and verified. Controls with no common block structure leave
    only the drift removal, which is epsilon_upper_drift_removal's:
    InputError, before anything is verified.
    Above BLOCK_SEARCH_DIM_GUARD the search is a DimensionGuardError.
    """
    hd = as_matrix(drift)
    ctrls = _control_list(controls, hd)
    d = hd.shape[0]
    if d > BLOCK_SEARCH_DIM_GUARD:
        raise DimensionGuardError(
            f"block search enumerates subsets exhaustively; d={d} exceeds "
            f"{BLOCK_SEARCH_DIM_GUARD}. Use the min-cut estimator instead")
    joint = _joint_control_blocks(ctrls, tol)
    if joint is None:
        raise InputError("the controls share no invariant block structure: "
                         "no block symmetry to search")
    basis, blocks = joint
    nb = len(blocks)
    label = np.empty(d, dtype=np.int64)
    for b, cols in enumerate(blocks):
        label[cols] = b
    # subset mask n holds block i < nb - 1 iff bit i of n is set; the last
    # block is never inside, since n < 2^(nb - 1)
    subsets = np.arange(1, 2 ** (nb - 1))
    inside = (subsets[:, None] >> label) & 1 == 1
    cross = inside[:, :, None] != inside[:, None, :]
    # ||P H Q + Q H P|| is the norm of h masked to the entries crossing the cut
    h = basis.conj().T @ hd @ basis
    norms = np.linalg.norm(h * cross, 2, axis=(1, 2)).tolist()
    margin = 1e-12 * max(norms)
    best = 0
    for n, norm in enumerate(norms):
        if norm < norms[best] - margin:
            best = n
    side = tuple(i for i in range(nb - 1) if subsets[best] >> i & 1)
    delta, projector = _block_cut_delta(hd, basis, blocks, side)
    witness = HermitianOperator(projector, tol=tol)
    return _certificate(delta, "block_search", tol, ctrls, hd, witness=witness,
                        detail=f"best block subset {side} of {nb} blocks")


def epsilon_upper_drift_removal(drift, controls,
                                tol: ToleranceConfig = DEFAULT_TOL
                                ) -> DistanceCertificate:
    """Remove the drift entirely: for a single control this always verifies,
    since a lone control generates a one-dimensional algebra."""
    hd = as_matrix(drift)
    ctrls = _control_list(controls, hd)
    delta = -traceless_part(hd)
    return _certificate(delta, "drift_removal", tol, ctrls, hd)


def _estimators() -> dict:
    """Method name -> f(drift, controls, tol=tol). Read from the module on each
    call, so a rebound estimator (as perfbench's tracer wraps them) runs."""
    return {"gap_merge": epsilon_upper_gap_merge,
            "min_cut": epsilon_upper_min_cut,
            "block_search": epsilon_upper_block_search,
            "drift_removal": epsilon_upper_drift_removal}


ESTIMATORS = tuple(_estimators())
METHODS = ESTIMATORS + ("manual",)


def epsilon_lower_svd(system: ControlSystem, perturbed_indices,
                      tol: ToleranceConfig = DEFAULT_TOL, *,
                      commutant: CommutantResult | None = None) -> float:
    """Rigorous lower bound on the distance to uncontrollability.

    Let sigma be the (d^4 - 2)-th largest singular value of the stacked
    doubled-space adjoint matrix of the (controllable) system. A perturbation
    delta_j of one generator moves its block by at most 4 ||delta_j|| in
    operator norm, and losing controllability requires driving sigma to zero,
    so by Weyl's inequality every uncontrollable perturbation of the given m
    generators satisfies max_j ||delta_j|| >= sigma / (4 m). The stacked
    matrix is the real one of build_stacked_adjoint: each block is the
    complex row-vectorized block in an orthonormal Hermitian basis, a
    unitary change of basis, so sigma and the 4 ||delta_j|| bound are those
    of the complex blocks.

    commutant is commutant_spectrum's result for system.algebra_generators()
    at this tol, when the caller already has it; None computes it here. Where
    there is no spectrum (commutant_spectrum gives None) the bound is 0.0,
    which is trivially valid. A commutant whose spectrum does not have d^4
    values is an InputError.
    """
    indices = sorted(set(int(i) for i in perturbed_indices))
    gens = system.algebra_generators()
    if not indices:
        raise InputError("perturbed_indices must be non-empty")
    if indices[0] < 0 or indices[-1] >= len(gens):
        raise InputError(f"perturbed index out of range 0..{len(gens) - 1}")
    if commutant is None:
        commutant = commutant_spectrum(gens, tol)
        if commutant is None:
            return 0.0
    elif len(commutant.singular_values) != system.dim ** 4:
        raise InputError(
            f"commutant spectrum has {len(commutant.singular_values)} values; "
            f"a d={system.dim} system needs {system.dim ** 4}")
    if not commutant.controllable:
        raise UncontrollableSystemError(
            "system is not controllable; its distance to uncontrollability is zero")
    sigma = float(commutant.singular_values[system.dim ** 4 - 3])
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


def _remove_bounded_certificate(system: ControlSystem, tol: ToleranceConfig
                                ) -> DistanceCertificate:
    """Driftless analogue of drift removal: cancel every bounded generator.

    This is how amplitude-capped couplings (e.g. a cross-Kerr term) are
    priced: if the unbounded controls alone are not universal, removing the
    bounded set is a verified uncontrollable perturbation with
    max_j ||delta_j|| = the largest bounded generator norm. The check of the
    unbounded controls is the driftless "controls alone" gate; the witness
    it finds becomes the certificate's.
    """
    if not system.bounded:
        raise InputError("system has neither drift nor bounded generators "
                         "to perturb")
    remaining = [traceless_part(op.matrix) for op in system.unbounded]
    witness = None
    if remaining:
        uncontrollable, witness = verify_uncontrollable(remaining, tol)
        if not uncontrollable:
            raise InputError("the unbounded controls alone are controllable: "
                             "no perturbation of the bounded generators can "
                             "render the system uncontrollable")
    deltas = [-traceless_part(b.operator.matrix) for b in system.bounded]
    return DistanceCertificate(
        perturbations=[(j, _as_operator(d, tol)) for j, d in enumerate(deltas)],
        op_norm=max(operator_norm(d) for d in deltas),
        l11_norm=float(sum(np.sum(np.abs(d)) for d in deltas)),
        method="drift_removal", verified_uncontrollable=True,
        symmetry_witness=witness,
        detail="removed all bounded generators")


def epsilon_best(system: ControlSystem, tol: ToleranceConfig = DEFAULT_TOL,
                 methods=ESTIMATORS, *, commutant: CommutantResult | None = None,
                 lie: LieClosureResult | None = None) -> DistanceEstimate:
    """Best verified upper-bound certificate plus the SVD lower bound.

    The estimators perturb the drift; for a driftless system the bounded
    generators are removed instead. Requires a controllable system whose
    controls are not already controllable on their own (otherwise the
    distance is infinite). The checks run first, so the d^4-column commutant
    SVD is paid only by a system that passes them: controllability from the
    Lie closure (UncontrollableSystemError), then the controls-alone gate
    (InputError): the Lie closure of the controls with a drift, the
    bounded-removal check of the unbounded controls without one.

    Each method in `methods` builds and verifies its certificate once; one
    that does not apply (InputError) or is guarded off at this size
    (DimensionGuardError) contributes nothing. The smallest op_norm among
    the verified certificates wins, the earlier method on a tie. InputError
    when no selected method applies; NumericalError when none verified.

    lie and commutant are lie_dimension's and commutant_spectrum's results
    for system.algebra_generators() at this tol, for a caller that already
    has them; None computes either here. The lower bound is
    epsilon_lower_svd on that spectrum, 0.0 where commutant_spectrum gives
    none. The spectrum is returned on DistanceEstimate.commutant for the
    caller's other bounds. A lie whose basis is not d x d, or a commutant
    without d^4 values, is an InputError.
    """
    unknown = set(methods) - set(ESTIMATORS)
    if unknown:
        raise InputError(f"unknown distance methods: {sorted(unknown)}")
    gens = system.algebra_generators()
    d = system.dim
    if lie is None:
        lie = lie_dimension(gens, tol=tol)
    elif any(np.shape(b) != (d, d) for b in lie.basis):
        raise InputError(f"Lie closure basis is not {d} x {d}; it belongs to "
                         "another system")
    if not lie.controllable:
        raise UncontrollableSystemError("system is already uncontrollable")
    if system.drift is None:
        upper = _remove_bounded_certificate(system, tol)
        perturbed = list(range(len(system.bounded)))
    else:
        hd, controls = gens[0], gens[1:]
        if lie_dimension(controls, tol=tol).controllable:
            raise InputError("the controls alone are controllable: no drift "
                             "perturbation can render the system "
                             "uncontrollable")
        estimators = _estimators()
        certificates: list[DistanceCertificate] = []
        for method in methods:
            try:
                certificates.append(estimators[method](hd, controls, tol=tol))
            except (InputError, DimensionGuardError):
                pass  # the construction does not apply to this system
        if not certificates:
            raise InputError("none of the selected distance methods applies "
                             f"to this system: {', '.join(methods)}")
        verified = [c for c in certificates if c.verified_uncontrollable]
        if not verified:
            raise NumericalError("no estimator produced a verified certificate")
        upper = min(verified, key=lambda c: c.op_norm)
        perturbed = [0]
    if commutant is None:
        commutant = commutant_spectrum(gens, tol)
    lower = epsilon_lower_svd(system, perturbed, tol=tol, commutant=commutant)
    return DistanceEstimate(upper=upper, lower=lower, commutant=commutant)


def certificate_to_json(cert: DistanceCertificate) -> dict:
    return {
        "format": 1,
        "method": cert.method,
        "perturbations": [{"index": int(i), "matrix": matrix_to_json(d.matrix)}
                          for i, d in cert.perturbations],
        "op_norm": float(cert.op_norm),
        "l11_norm": float(cert.l11_norm),
        "verified_uncontrollable": bool(cert.verified_uncontrollable),
        "symmetry_witness": None if cert.symmetry_witness is None
        else matrix_to_json(cert.symmetry_witness.matrix),
        "detail": cert.detail,
    }


def certificate_from_json(obj, tol: ToleranceConfig = DEFAULT_TOL
                          ) -> DistanceCertificate:
    if not isinstance(obj, dict):
        raise InputError("certificate JSON must be an object")
    keys = {"format", "method", "perturbations", "op_norm", "l11_norm",
            "verified_uncontrollable", "symmetry_witness", "detail"}
    extra = set(obj) - keys
    if extra:
        raise InputError(f"unknown keys in certificate JSON: {sorted(extra)}")
    if obj.get("format") != 1:
        raise InputError(f"unsupported certificate format {obj.get('format')!r}")
    entries = obj.get("perturbations", [])
    if not isinstance(entries, list) or any(
            not isinstance(e, dict) or set(e) != {"index", "matrix"} for e in entries):
        raise InputError("perturbations must be a list of objects with keys "
                         "index, matrix")
    try:
        indices = [int(e["index"]) for e in entries]
        op_norm, l11_norm = float(obj["op_norm"]), float(obj["l11_norm"])
        method = str(obj["method"])
        verified = bool(obj["verified_uncontrollable"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed certificate JSON: {exc}") from exc
    perturbations = [(i, _as_operator(matrix_from_json(e["matrix"]), tol))
                     for i, e in zip(indices, entries)]
    witness = obj.get("symmetry_witness")
    witness_op = None
    if witness is not None:
        witness_op = _as_operator(matrix_from_json(witness), tol)
    return DistanceCertificate(
        perturbations=perturbations, op_norm=op_norm, l11_norm=l11_norm,
        method=method, verified_uncontrollable=verified,
        symmetry_witness=witness_op, detail=str(obj.get("detail", "")),
    )
