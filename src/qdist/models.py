"""Builders for the worked example systems plus their closed-form reference
quantities.

Operators that are not naturally traceless (site projectors, Fock-sector
number operators) enter the control system as traceless-shifted copies:
subtracting tr/d times the identity changes neither the dynamics (a global
phase) nor any commutator, while the algebraic tests count dimensions inside
su(d). The physical, unshifted operators are available from the helper
constructors in this module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DimensionGuardError, InputError
from .linalg import DEFAULT_TOL, ToleranceConfig, operator_norm
from .system import ControlSystem, make_system

MODEL_NAMES = ("two_qubit_ising", "global_control_chain", "hopping_chain",
               "cross_kerr")

# largest Hilbert-space dimension a model spec may imply; checked on the
# parameters with integer comparisons, before any array is built
MODEL_DIM_GUARD = 5000

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def pauli_on(n_qubits: int, site: int, which: str) -> np.ndarray:
    """Single-site Pauli operator embedded in an n-qubit register (site 0-based)."""
    if not 0 <= site < n_qubits:
        raise InputError(f"site {site} out of range for {n_qubits} qubits")
    op = np.eye(1, dtype=complex)
    for k in range(n_qubits):
        op = np.kron(op, _PAULI[which] if k == site else np.eye(2))
    return op


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Named example model with its parameter map (validated on construction)."""

    name: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise InputError(f"unknown model {self.name!r}; "
                             f"expected one of {MODEL_NAMES}")
        object.__setattr__(self, "parameters", _validated_params(self.name,
                                                                 self.parameters))


def _validated_params(name: str, params: dict) -> dict:
    params = dict(params)

    def take(key, kind, default=None, required=False):
        if key not in params:
            if required:
                raise InputError(f"model {name} requires parameter {key!r}")
            return default
        try:
            return kind(params.pop(key))
        except (TypeError, ValueError) as exc:  # also a malformed list
            raise InputError(f"model {name} parameter {key!r}: {exc}") from None

    def real(value) -> float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"must be a real number, got {value!r}")
        if not math.isfinite(value := float(value)):
            raise ValueError(f"must be finite, got {value}")
        return value

    def integer(value) -> int:
        if isinstance(value, bool) or not (
                isinstance(value, numbers.Integral)
                or isinstance(value, numbers.Real) and float(value).is_integer()):
            raise TypeError(f"must be an integer, got {value!r}")
        return int(value)

    if name == "two_qubit_ising":
        out = {"delta": take("delta", real, required=True)}
        if out["delta"] == 0:
            raise InputError("two_qubit_ising requires delta != 0")
    elif name == "global_control_chain":
        n = take("n_qubits", integer, required=True)
        # 2^n > MODEL_DIM_GUARD exactly when n reaches its bit length; checked
        # before the default edge list, whose length is n - 1
        if n >= MODEL_DIM_GUARD.bit_length():
            _refuse(f"2^{n}")
        gammas = take("gammas", lambda v: [real(x) for x in v], required=True)
        edges = take("edges", lambda v: [(integer(i), integer(j)) for i, j in v],
                     default=[(k, k + 1) for k in range(n - 1)])
        cap_c = take("cap_c", real, default=1.0)
        if n < 2:
            raise InputError("global_control_chain needs n_qubits >= 2")
        if len(gammas) != n:
            raise InputError(f"gammas has length {len(gammas)}, expected {n}")
        if not edges:
            raise InputError("coupling edge list must be non-empty")
        seen = set()
        for i, j in edges:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise InputError(f"bad coupling edge ({i}, {j})")
            key = frozenset((i, j))
            if key in seen:
                raise InputError(f"duplicate coupling edge ({i}, {j})")
            seen.add(key)
        if cap_c <= 0:
            raise InputError("cap_c must be > 0")
        out = {"n_qubits": n, "gammas": gammas, "edges": edges, "cap_c": cap_c}
    elif name == "hopping_chain":
        d = take("d", integer, required=True)
        if d < 2:
            raise InputError("hopping_chain needs d >= 2")
        if d > MODEL_DIM_GUARD:
            _refuse(str(d))
        out = {"d": d}
    else:  # cross_kerr
        n_modes = take("n_modes", integer, required=True)
        n_photons = take("n_photons", integer, required=True)
        cap_c = take("cap_c", real, default=1.0)
        if n_modes < 2 or n_photons < 1 or cap_c <= 0:
            raise InputError("cross_kerr needs n_modes >= 2, n_photons >= 1, cap_c > 0")
        if _binomial_exceeds(n_photons + n_modes - 1, n_photons, MODEL_DIM_GUARD):
            _refuse(f"C({n_photons + n_modes - 1}, {n_photons})")
        out = {"n_modes": n_modes, "n_photons": n_photons, "cap_c": cap_c}
    if params:
        raise InputError(f"unknown parameters for {name}: {sorted(params)}")
    return out


def _refuse(dim: str):
    raise DimensionGuardError(
        f"model dimension {dim} exceeds the {MODEL_DIM_GUARD} guard")


def _binomial_exceeds(n: int, k: int, bound: int) -> bool:
    """C(n, k) > bound, from the running products C(n - k + i, i), each an
    integer and growing with i, stopped as soon as one passes the bound."""
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > bound:
            return True
    return False


def build_two_qubit_ising(delta: float,
                          tol: ToleranceConfig = DEFAULT_TOL) -> ControlSystem:
    """Two qubits with full local control and drift delta * Z(x)Z."""
    delta = ModelSpec("two_qubit_ising", {"delta": delta}).parameters["delta"]
    drift = delta * np.kron(PAULI_Z, PAULI_Z)
    locals_ = [pauli_on(2, 0, "X"), pauli_on(2, 0, "Y"),
               pauli_on(2, 1, "X"), pauli_on(2, 1, "Y")]
    return make_system(drift=drift, unbounded=locals_, tol=tol)


def delta_gamma(gammas) -> float:
    """Spectral-crowding margin: min over distinct pairs of | |g_i| - |g_j| |."""
    gs = [abs(float(g)) for g in gammas]
    if len(gs) < 2:
        raise InputError("need at least two gamma values")
    return min(abs(a - b) for a, b in combinations(gs, 2))


def build_global_control_chain(n_qubits: int, gammas, edges=None, cap_c: float = 1.0,
                               tol: ToleranceConfig = DEFAULT_TOL) -> ControlSystem:
    """ZZ-coupled qubits with two globally applied, amplitude-capped controls
    sum_i gamma_i X_i and sum_i gamma_i Y_i. Controllable when all |gamma_i|
    are distinct."""
    spec = ModelSpec("global_control_chain",
                     {"n_qubits": n_qubits, "gammas": list(gammas),
                      **({} if edges is None else {"edges": list(edges)}),
                      "cap_c": cap_c})
    p = spec.parameters
    n = p["n_qubits"]
    d = 2 ** n
    drift = np.zeros((d, d), dtype=complex)
    for i, j in p["edges"]:
        drift += pauli_on(n, i, "Z") @ pauli_on(n, j, "Z")
    gx = sum(g * pauli_on(n, i, "X") for i, g in enumerate(p["gammas"]))
    gy = sum(g * pauli_on(n, i, "Y") for i, g in enumerate(p["gammas"]))
    return make_system(drift=drift, bounded=[(gx, p["cap_c"]), (gy, p["cap_c"])],
                       tol=tol)


def hopping_drift(d: int) -> np.ndarray:
    """Nearest-neighbour hopping Hamiltonian sum |n><n+1| + |n+1><n|."""
    if d < 2:
        raise InputError("hopping chain needs d >= 2")
    return (np.diag(np.ones(d - 1), 1) + np.diag(np.ones(d - 1), -1)).astype(complex)


def site_projector(d: int, site: int = 0) -> np.ndarray:
    """Physical (unshifted) projector |site><site|."""
    if not 0 <= site < d:
        raise InputError(f"site {site} out of range")
    p = np.zeros((d, d), dtype=complex)
    p[site, site] = 1.0
    return p


def hopping_spectrum(d: int) -> np.ndarray:
    """Closed-form spectrum 2 cos(k pi / (d+1)), k = 1..d, sorted ascending."""
    k = np.arange(1, d + 1)
    return np.sort(2.0 * np.cos(k * np.pi / (d + 1)))


def build_hopping_chain(d: int, tol: ToleranceConfig = DEFAULT_TOL) -> ControlSystem:
    """Hopping chain with a single unbounded control on the first site."""
    d = ModelSpec("hopping_chain", {"d": d}).parameters["d"]
    drift = hopping_drift(d)
    control = site_projector(d, 0) - np.eye(d) / d
    return make_system(drift=drift, unbounded=[control], tol=tol)


def fock_sector_basis(n_modes: int, n_photons: int) -> list[tuple]:
    """Occupation tuples with total photon number N, in ascending
    lexicographic order (fixes the matrix representation bit-for-bit)."""
    if n_modes < 1 or n_photons < 0:
        raise InputError("need n_modes >= 1 and n_photons >= 0")
    states: list[tuple] = []

    def fill(prefix, remaining, modes_left):
        if modes_left == 1:
            states.append(prefix + (remaining,))
            return
        for k in range(remaining + 1):
            fill(prefix + (k,), remaining - k, modes_left - 1)

    fill((), n_photons, n_modes)
    states.sort()
    return states


def fock_number_operator(basis: list[tuple], mode: int) -> np.ndarray:
    """n_mode restricted to the fixed-N sector (diagonal)."""
    return np.diag([float(occ[mode]) for occ in basis]).astype(complex)


def fock_hopping_operators(basis: list[tuple], k: int, l: int) -> tuple:
    """Hermitian quadratures of a_k^dag a_l on the sector, k != l:
    (a_k^dag a_l + a_l^dag a_k, i (a_k^dag a_l - a_l^dag a_k))."""
    if k == l:
        raise InputError("use fock_number_operator for the diagonal terms")
    index = {occ: i for i, occ in enumerate(basis)}
    dim = len(basis)
    t = np.zeros((dim, dim), dtype=complex)  # a_k^dag a_l
    for occ, col in index.items():
        if occ[l] == 0:
            continue
        new = list(occ)
        new[l] -= 1
        new[k] += 1
        row = index[tuple(new)]
        t[row, col] = math.sqrt((occ[k] + 1) * occ[l])
    return t + t.conj().T, 1j * (t - t.conj().T)


def cross_kerr_coupling(basis: list[tuple], j: int) -> np.ndarray:
    """Physical cross-Kerr interaction n_j n_{j+1} on the sector (diagonal)."""
    return np.diag([float(occ[j] * occ[j + 1]) for occ in basis]).astype(complex)


def cross_kerr_sector_dim(n_modes: int, n_photons: int) -> int:
    return math.comb(n_photons + n_modes - 1, n_photons)


def build_cross_kerr(n_modes: int, n_photons: int, cap_c: float = 1.0,
                     tol: ToleranceConfig = DEFAULT_TOL) -> ControlSystem:
    """Fixed-photon-number sector of n_modes bosonic modes: unbounded linear
    optics (all hopping quadratures and number operators) plus bounded
    nearest-neighbour cross-Kerr couplings with cap c. The passive
    linear-optics-only system is the result's unbounded generators alone.
    """
    p = ModelSpec("cross_kerr", {"n_modes": n_modes, "n_photons": n_photons,
                                 "cap_c": cap_c}).parameters
    n_modes, n_photons, cap_c = p["n_modes"], p["n_photons"], p["cap_c"]
    dim = cross_kerr_sector_dim(n_modes, n_photons)
    basis = fock_sector_basis(n_modes, n_photons)
    eye = np.eye(dim)

    def shifted(m):
        return m - (np.trace(m) / dim) * eye

    bounded = [(shifted(cross_kerr_coupling(basis, j)), cap_c)
               for j in range(n_modes - 1)]
    unbounded = []
    for k in range(n_modes):
        for l in range(k + 1, n_modes):
            re_part, im_part = fock_hopping_operators(basis, k, l)
            unbounded.append(shifted(re_part))
            unbounded.append(shifted(im_part))
    for k in range(n_modes):
        unbounded.append(shifted(fock_number_operator(basis, k)))
    return make_system(bounded=bounded, unbounded=unbounded, tol=tol)


def build_model(spec: ModelSpec, tol: ToleranceConfig = DEFAULT_TOL) -> ControlSystem:
    p = spec.parameters
    if spec.name == "two_qubit_ising":
        return build_two_qubit_ising(p["delta"], tol=tol)
    if spec.name == "global_control_chain":
        return build_global_control_chain(p["n_qubits"], p["gammas"], p["edges"],
                                          p["cap_c"], tol=tol)
    if spec.name == "hopping_chain":
        return build_hopping_chain(p["d"], tol=tol)
    return build_cross_kerr(p["n_modes"], p["n_photons"], p["cap_c"], tol=tol)


def reference_bounds(spec: ModelSpec) -> dict:
    """Closed-form reference quantities used by the reproduction table."""
    p = spec.parameters
    if spec.name == "two_qubit_ising":
        delta = abs(p["delta"])
        return {"exact_t_star": math.pi / (2 * delta),
                "bound_t_star": 1.0 / (4 * delta)}
    if spec.name == "global_control_chain":
        dg = delta_gamma(p["gammas"])
        c = p["cap_c"]
        t_bound = math.inf if dg == 0 else math.sqrt(2.0) / (c * dg)
        return {"delta_gamma": dg, "t_bound": t_bound}
    if spec.name == "hopping_chain":
        d = p["d"]
        spectrum = hopping_spectrum(d)
        return {"min_gap_formula": float(np.min(np.diff(spectrum))),
                "gap_bound": 3 * math.pi ** 2 / d ** 2,
                "t_bound": math.sqrt(2.0) * d ** 2 / (3 * math.pi ** 2)}
    # cross_kerr
    n = p["n_photons"]
    c = p["cap_c"]
    basis = fock_sector_basis(p["n_modes"], n)
    coupling = sum(cross_kerr_coupling(basis, j) for j in range(p["n_modes"] - 1))
    return {"kerr_norm": operator_norm(coupling),
            "paper_norm": n ** 2 / 4.0,
            "paper_norm_is_exact": n % 2 == 0 and p["n_modes"] == 2,
            "t_bound": 1.0 / (c * n ** 2)}
