"""Quantum-speed-limit bounds from distance certificates.

A verified perturbation of size epsilon that renders the system
uncontrollable forces a minimum control time T* >= delta / (c * epsilon):
any pulse of total time T moves the perturbed and unperturbed propagators
apart by at most c * epsilon * T, while some target unitary stays at least
delta away from everything the perturbed (uncontrollable) system can reach.
delta is sqrt(2) when the perturbed system has an original-space symmetry
and 1/4 universally.

Sign convention throughout: dU/dt = +i H(t) U(t), so a constant segment
contributes exp(+i H dt).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .commutant import block_projector, joint_blocks
from .distance import (DistanceCertificate, Invariants, certificate_to_json,
                       epsilon_lower_svd, is_symmetry_witness)
from .errors import InputError
from .linalg import (DEFAULT_TOL, ToleranceConfig, as_matrix, hermitian_part,
                     json_numbers, json_object, operator_norm)
from .system import ControlSystem

DELTA_UNIVERSAL = 0.25          # dimension-independent floor
DELTA_SYMMETRY = float(np.sqrt(2.0))  # orthogonal-state floor with a symmetry

PROVENANCE_UNIVERSAL = "universal_quarter"
PROVENANCE_SYMMETRY = "symmetry_sqrt2"

# absolute roundoff allowance of the propagation inequality's comparison
INEQUALITY_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class PiecewisePulse:
    """Piecewise-constant pulse: positive segment durations and one amplitude
    row per segment (bounded controls first, then unbounded; the drift is
    implicit with amplitude 1, see ControlSystem.generator_amplitudes)."""

    durations: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        durations = np.asarray(self.durations, dtype=float)
        amplitudes = np.asarray(self.amplitudes, dtype=float)
        if durations.ndim != 1 or durations.size == 0:
            raise InputError("durations must be a non-empty 1-D sequence")
        if np.any(~np.isfinite(durations)) or np.any(durations <= 0):
            raise InputError("all segment durations must be finite and > 0")
        if amplitudes.ndim != 2 or amplitudes.shape[0] != durations.size:
            raise InputError("amplitudes must be one row per segment")
        if not np.all(np.isfinite(amplitudes)):
            raise InputError("pulse amplitudes must be finite")
        durations.setflags(write=False)
        amplitudes.setflags(write=False)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "amplitudes", amplitudes)


@dataclass(frozen=True, eq=False)
class SpeedLimitReport:
    """Distance bounds, the geometric constant, and the resulting T* bound."""

    epsilon_upper: float
    epsilon_lower: float
    delta_lower: float
    delta_provenance: str
    amplitude_cap_c: float
    t_star_lower: float
    certificate: DistanceCertificate

    def to_dict(self) -> dict:
        return {
            "epsilon_upper": self.epsilon_upper,
            "epsilon_lower": self.epsilon_lower,
            "delta_lower": self.delta_lower,
            "delta_provenance": self.delta_provenance,
            "amplitude_cap_c": self.amplitude_cap_c,
            "t_star_lower": self.t_star_lower,
            "certificate": certificate_to_json(self.certificate),
        }


@dataclass(frozen=True, eq=False)
class InequalityCheck:
    lhs: float
    rhs: float
    holds: bool


# most complex entries in one chunk's (S, d, d) stack of segment
# Hamiltonians: what bounds evolve's working memory beyond the pulse
_CHUNK_ENTRIES = 1 << 14


def _ordered_product(unitaries: np.ndarray) -> np.ndarray:
    """unitaries[-1] @ ... @ unitaries[0] of an (S, d, d) stack, by pairwise
    products: each round multiplies neighbours (later one on the left) in
    one batched matmul, and an odd last entry waits for the next round."""
    while len(unitaries) > 1:
        even = len(unitaries) // 2 * 2
        paired = unitaries[1:even:2] @ unitaries[0:even:2]
        unitaries = (np.concatenate([paired, unitaries[even:]])
                     if even < len(unitaries) else paired)
    return unitaries[0]


def evolve(system: ControlSystem, pulse: PiecewisePulse) -> np.ndarray:
    """Propagator of the piecewise-constant pulse, later segments leftmost.

    Segment s evolves under H_s = sum_j A[s, j] H_j, with A the pulse's
    amplitudes in flat generator order (system.generator_amplitudes), as
    exp(+i H_s dt_s) from the eigendecomposition of the symmetrized H_s,
    which keeps it unitary at machine precision. The segments are taken a
    chunk at a time: one eigh over the chunk's (S, d, d) stack of
    Hamiltonians, one batched product for its unitaries, which are then
    multiplied pairwise, in order, and applied left of the running
    propagator. A chunk holds at most _CHUNK_ENTRIES complex entries (one
    segment when d^2 is larger), so beyond A, the pulse's size, memory is
    O(K d^2 + _CHUNK_ENTRIES) for K generators, whatever the number of
    segments."""
    amps = system.generator_amplitudes(pulse.amplitudes)
    d = system.dim
    stack = np.array([op.matrix for op in system.generators()],
                     dtype=complex).reshape(-1, d * d)
    step = max(1, _CHUNK_ENTRIES // (d * d))
    u = np.eye(d, dtype=complex)
    for start in range(0, len(amps), step):
        h = (amps[start:start + step] @ stack).reshape(-1, d, d)
        w, v = np.linalg.eigh(hermitian_part(h))
        phases = np.exp(1j * w * pulse.durations[start:start + step, None])
        segments = (v * phases[:, None, :]) @ v.conj().swapaxes(1, 2)
        u = _ordered_product(segments) @ u
    return u


def delta_lower_bound(system: ControlSystem, cert: DistanceCertificate,
                      tol: ToleranceConfig = DEFAULT_TOL) -> tuple[float, str]:
    """Geometric constant for the certificate: sqrt(2) if its symmetry witness
    re-verifies against every generator of the perturbed system (see
    distance.is_symmetry_witness), else 1/4."""
    if not cert.verified_uncontrollable:
        raise InputError("delta_lower_bound requires a verified certificate")
    witness = cert.symmetry_witness
    if witness is None:
        return DELTA_UNIVERSAL, PROVENANCE_UNIVERSAL
    perturbed = system.with_perturbations(cert.perturbations, tol=tol)
    if is_symmetry_witness(witness, perturbed.algebra_generators(), tol):
        return DELTA_SYMMETRY, PROVENANCE_SYMMETRY
    return DELTA_UNIVERSAL, PROVENANCE_UNIVERSAL


def t_star_lower(system: ControlSystem, cert: DistanceCertificate,
                 tol: ToleranceConfig = DEFAULT_TOL, *,
                 invariants: Invariants | None = None) -> SpeedLimitReport:
    """Speed-limit report T* >= delta / (c * epsilon_eff).

    epsilon_eff is ||delta H|| for a single perturbed generator and
    M * max_j ||delta_j|| (M * cert.op_norm) when M generators are
    perturbed simultaneously (the conservative inversion of the
    per-generator budget epsilon/M). c is the largest amplitude cap among
    the perturbed generators, 1 when only the drift is perturbed. delta
    always comes from delta_lower_bound. Certificates touching unbounded
    controls are rejected: an unbounded amplitude defeats the propagation
    bound.

    epsilon_lower is epsilon_lower_svd over the certificate's perturbed
    generators (0.0 where the spectrum proves nothing), always computed,
    with the invariants passed on to it: the one lower bound that analyze
    reports, as distance.lower and as epsilon_lower.
    """
    if not cert.verified_uncontrollable:
        raise InputError("t_star_lower requires a verified certificate")
    caps = []
    for index, _ in cert.perturbations:
        cap = system.amplitude_cap(index)
        if cap is None:
            raise InputError(
                f"certificate perturbs unbounded generator {index}; the "
                "speed-limit argument needs a bounded amplitude")
        caps.append(cap)
    eps_eff = len(cert.perturbations) * cert.op_norm
    if eps_eff <= 0:
        raise InputError("certificate has zero effective perturbation norm")
    cap_c = max(caps)
    delta, provenance = delta_lower_bound(system, cert, tol=tol)
    eps_lower = epsilon_lower_svd(system, [i for i, _ in cert.perturbations],
                                  tol=tol, invariants=invariants)
    return SpeedLimitReport(
        epsilon_upper=float(eps_eff), epsilon_lower=eps_lower,
        delta_lower=float(delta), delta_provenance=provenance,
        amplitude_cap_c=float(cap_c),
        t_star_lower=float(delta / (cap_c * eps_eff)),
        certificate=cert)


def verify_perturbation_inequality(system: ControlSystem,
                                   cert: DistanceCertificate,
                                   pulse: PiecewisePulse,
                                   tol: ToleranceConfig = DEFAULT_TOL
                                   ) -> InequalityCheck:
    """Check ||U_perturbed - U|| <= sum_segments dt * sum_j |g_j| ||delta_j||.

    The right-hand side is sum_j ||delta_j|| (durations @ |A|)[j], with A
    as in evolve (1 for the drift): the actual amplitudes, so the check is
    meaningful for bounded and unbounded perturbed generators alike. holds
    allows INEQUALITY_SLACK of absolute roundoff on top of the right-hand
    side.
    """
    u1 = evolve(system, pulse)
    perturbed = system.with_perturbations(cert.perturbations, tol=tol)
    u2 = evolve(perturbed, pulse)
    lhs = operator_norm(u2 - u1)

    amps = system.generator_amplitudes(pulse.amplitudes)
    weights = pulse.durations @ np.abs(amps)
    rhs = sum(operator_norm(delta_op.matrix) * float(weights[index])
              for index, delta_op in cert.perturbations)
    return InequalityCheck(lhs=float(lhs), rhs=float(rhs),
                           holds=bool(lhs <= rhs + INEQUALITY_SLACK))


def reachable_distance_lower(system: ControlSystem, target,
                             tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Certified lower bound on min ||V - target|| over the unitaries V the
    system can reach; 0.0 where it proves nothing.

    Each of the generators' finest joint blocks (commutant.joint_blocks)
    whose projector P passes is_symmetry_witness commutes with every
    reachable V. For a unit x in range(P), with Q = 1 - P, Vx lies in
    range(P), so ||(V - U)x||^2 = ||Vx - PUx||^2 + ||QUx||^2 >=
    (1 - ||PUx||)^2 + ||QUx||^2. x is the top right singular vector of QUP,
    and the bound is the largest over the accepted blocks: for a unitary
    target sqrt(2 - 2 sqrt(1 - ||QUP||^2)), sqrt(2) when the target maps a
    vector of the block wholly out of it. It holds for any target matrix.
    A controllable system, or one with no accepted block, gets 0.0.
    """
    u = as_matrix(target)
    if u.shape != (system.dim, system.dim):
        raise InputError("target dimension mismatch")
    gens = system.algebra_generators()
    # a single block (None) has no proper projector
    basis, blocks = joint_blocks(gens, tol) or (None, [])
    best = 0.0
    for block in blocks:
        p = block_projector(basis, block)
        if not is_symmetry_witness(p, gens, tol):
            continue
        # the block's basis columns are orthonormal, so x = basis[:, block] w
        # is a unit vector of range(P) even where QUP vanishes; ||QUx|| = s[0]
        uvp = u @ basis[:, block]
        inside = p @ uvp
        _, s, wh = np.linalg.svd(uvp - inside)
        best = max(best, float(np.hypot(
            1.0 - np.linalg.norm(inside @ wh[0].conj()), s[0])))
    return best


def pulse_to_json(pulse: PiecewisePulse) -> dict:
    return {"durations": [float(x) for x in pulse.durations],
            "amplitudes": [[float(x) for x in row] for row in pulse.amplitudes]}


def pulse_from_json(obj) -> PiecewisePulse:
    """Parse {"durations": [...], "amplitudes": [[...], ...]}: a list of
    numbers and a list of equally long rows of numbers, no other key."""
    obj = json_object(obj, "pulse", ("durations", "amplitudes"))
    return PiecewisePulse(
        durations=json_numbers(obj["durations"], "pulse durations"),
        amplitudes=json_numbers(obj["amplitudes"], "pulse amplitudes"))
