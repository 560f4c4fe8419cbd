"""Controllability analysis, distance to uncontrollability, and
quantum-speed-limit lower bounds for finite-dimensional control systems."""

from .commutant import (CommutantResult, build_stacked_adjoint,
                        commutant_dimension, extract_original_space_symmetry)
from .distance import (CutResult, DistanceCertificate, DistanceEstimate,
                       certificate_from_json, certificate_to_json,
                       cut_weight_of, epsilon_best, epsilon_lower_svd,
                       epsilon_upper_block_search, epsilon_upper_drift_removal,
                       epsilon_upper_gap_merge, epsilon_upper_min_cut,
                       is_symmetry_witness, stoer_wagner_min_cut,
                       verify_certificate, verify_uncontrollable)
from .errors import (DimensionGuardError, InputError, NumericalError,
                     QdistError, UncontrollableSystemError)
from .lie_closure import LieClosureResult, lie_dimension
from .linalg import (DEFAULT_TOL, HermitianOperator, RankResult,
                     ToleranceConfig, commutator, devec_herm, haar_unitary,
                     hermitian_eigensystem, hs_inner, matrix_from_json,
                     matrix_to_json, operator_norm, random_hermitian,
                     rank_and_nullity, tensor_double, trace_norm,
                     traceless_part, vec_herm)
from .models import (ModelSpec, build_cross_kerr, build_global_control_chain,
                     build_hopping_chain, build_model, build_two_qubit_ising,
                     delta_gamma, reference_bounds)
from .speed_limit import (InequalityCheck, PiecewisePulse, ProbeResult,
                          SpeedLimitReport, delta_lower_bound, evolve,
                          pulse_from_json, pulse_to_json,
                          reachable_distance_probe, t_star_lower,
                          verify_perturbation_inequality)
from .system import (BoundedControl, ControlSystem, make_system, pair_system,
                     system_from_json, system_to_json)

__version__ = "0.1.0"

__all__ = [
    "BoundedControl", "CommutantResult", "ControlSystem",
    "CutResult", "DEFAULT_TOL", "DimensionGuardError", "DistanceCertificate",
    "DistanceEstimate", "HermitianOperator", "InequalityCheck", "InputError",
    "LieClosureResult", "ModelSpec", "NumericalError", "PiecewisePulse",
    "ProbeResult", "QdistError", "RankResult", "SpeedLimitReport",
    "ToleranceConfig", "UncontrollableSystemError", "build_cross_kerr",
    "build_global_control_chain", "build_hopping_chain", "build_model",
    "build_stacked_adjoint", "build_two_qubit_ising", "certificate_from_json",
    "certificate_to_json", "commutant_dimension", "commutator",
    "cut_weight_of", "delta_gamma", "delta_lower_bound", "devec_herm",
    "epsilon_best", "epsilon_lower_svd", "epsilon_upper_block_search",
    "epsilon_upper_drift_removal", "epsilon_upper_gap_merge",
    "epsilon_upper_min_cut", "evolve", "extract_original_space_symmetry",
    "haar_unitary", "hermitian_eigensystem", "hs_inner",
    "is_symmetry_witness",
    "lie_dimension",
    "make_system", "matrix_from_json", "matrix_to_json", "operator_norm",
    "pair_system", "pulse_from_json", "pulse_to_json", "random_hermitian",
    "rank_and_nullity", "reachable_distance_probe", "reference_bounds",
    "stoer_wagner_min_cut", "system_from_json", "system_to_json",
    "t_star_lower", "tensor_double", "trace_norm", "traceless_part",
    "vec_herm", "verify_certificate", "verify_perturbation_inequality",
    "verify_uncontrollable",
]
