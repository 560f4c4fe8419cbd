import math
import re

import numpy as np
import pytest

from qdist import (ControlSystem, DimensionGuardError, InputError, commutator,
                   lie_dimension, operator_norm)
from qdist.commutant import commutant_dimension, extract_original_space_symmetry
from qdist.models import (ModelSpec, build_cross_kerr,
                          build_global_control_chain, build_hopping_chain,
                          build_model, build_two_qubit_ising,
                          cross_kerr_coupling, cross_kerr_sector_dim,
                          delta_gamma, fock_hopping_operators,
                          fock_number_operator, fock_sector_basis,
                          hopping_drift, hopping_eigenvectors,
                          hopping_spectrum, reference_bounds, site_projector)

from conftest import SWAP_4


class TestTwoQubitIsing:
    def test_structure(self):
        system = build_two_qubit_ising(1.0)
        assert system.dim == 4
        assert len(system.unbounded) == 4
        assert operator_norm(system.drift.matrix) == pytest.approx(1.0)

    def test_controllable_by_both_tests(self):
        system = build_two_qubit_ising(1.0)
        gens = system.algebra_generators()
        assert lie_dimension(gens).controllable
        res = commutant_dimension(gens)
        assert res.nullity == 2

    def test_drift_norm_scales(self):
        assert operator_norm(build_two_qubit_ising(2.5).drift.matrix) \
            == pytest.approx(2.5)

    def test_zero_delta_rejected(self):
        with pytest.raises(InputError):
            build_two_qubit_ising(0.0)

    def test_builder_validates_through_the_spec(self):
        with pytest.raises(InputError, match="must be finite"):
            build_two_qubit_ising(math.inf)

    def test_reference_bounds(self):
        ref = reference_bounds(ModelSpec("two_qubit_ising", {"delta": 2.0}))
        assert ref["exact_t_star"] == pytest.approx(math.pi / 4, abs=1e-15)
        assert ref["bound_t_star"] == pytest.approx(1 / 8, abs=1e-15)


class TestGlobalControlChain:
    def test_distinct_gammas_controllable(self):
        system = build_global_control_chain(2, [1.0, 1.2])
        assert lie_dimension(system.algebra_generators()).controllable

    def test_three_qubits_distinct_controllable(self):
        system = build_global_control_chain(3, [1.0, 1.2, 0.9])
        assert lie_dimension(system.algebra_generators()).controllable

    def test_equal_gammas_swap_symmetry(self):
        system = build_global_control_chain(2, [1.0, 1.0])
        gens = system.algebra_generators()
        assert not commutant_dimension(gens, want_symmetries=False).controllable
        sym = extract_original_space_symmetry(gens)
        assert sym is not None
        a = np.column_stack([np.eye(4).ravel(), sym.matrix.ravel()])
        coef, *_ = np.linalg.lstsq(a, SWAP_4.ravel(), rcond=None)
        assert np.linalg.norm(a @ coef - SWAP_4.ravel()) < 1e-9

    def test_delta_gamma(self):
        assert delta_gamma([1.0, 1.2, 0.9]) == pytest.approx(0.1, abs=1e-12)
        assert delta_gamma([1.0, -1.0]) == 0.0  # only magnitudes matter

    def test_reference_bounds(self):
        ref = reference_bounds(ModelSpec(
            "global_control_chain",
            {"n_qubits": 3, "gammas": [1.0, 1.2, 0.9], "cap_c": 2.0}))
        assert ref["delta_gamma"] == pytest.approx(0.1, abs=1e-12)
        assert ref["t_bound"] == pytest.approx(math.sqrt(2) / (2.0 * 0.1),
                                               rel=1e-12)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(InputError):
            build_global_control_chain(2, [1.0, 1.2], edges=[(0, 1), (1, 0)])

    def test_gamma_length_mismatch(self):
        with pytest.raises(InputError):
            build_global_control_chain(3, [1.0, 1.2])


class TestHoppingChain:
    def test_spectrum_closed_form(self):
        for d in range(3, 51):
            w = np.linalg.eigvalsh(hopping_drift(d))
            assert np.max(np.abs(np.sort(w) - hopping_spectrum(d))) < 1e-10

    def test_min_gap_bound(self):
        for d in range(3, 101):
            gaps = np.diff(hopping_spectrum(d))
            assert np.min(gaps) <= 3 * np.pi ** 2 / d ** 2 + 1e-12

    def test_controllable_small_dims_both_tests(self):
        for d in range(3, 7):
            system = build_hopping_chain(d)
            gens = system.algebra_generators()
            assert lie_dimension(gens).controllable, f"lie failed at d={d}"
            assert commutant_dimension(gens, want_symmetries=False).controllable, \
                f"commutant failed at d={d}"

    def test_drift_reconstruction_from_closed_form(self):
        for d in (3, 5, 8):
            v = hopping_eigenvectors(d)
            w = hopping_spectrum(d)
            np.testing.assert_allclose((v * w) @ v.conj().T, hopping_drift(d),
                                       atol=1e-10)

    def test_control_traceless_shift(self):
        system = build_hopping_chain(5)
        control = system.unbounded[0].matrix
        assert abs(np.trace(control)) < 1e-12
        np.testing.assert_allclose(control + np.eye(5) / 5, site_projector(5, 0),
                                   atol=1e-12)

    def test_reference_bounds(self):
        ref = reference_bounds(ModelSpec("hopping_chain", {"d": 10}))
        assert ref["t_bound"] == pytest.approx(
            math.sqrt(2) * 100 / (3 * math.pi ** 2), abs=1e-12)
        assert ref["t_bound"] == pytest.approx(4.7763, abs=1e-3)
        assert ref["min_gap_formula"] <= ref["gap_bound"]


class TestCrossKerr:
    def test_sector_dimension_and_order(self):
        basis = fock_sector_basis(2, 4)
        assert basis == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
        assert cross_kerr_sector_dim(2, 4) == 5
        assert cross_kerr_sector_dim(3, 2) == 6

    def test_coupling_norms(self):
        for n, expected in ((2, 1.0), (3, 2.0), (4, 4.0), (5, 6.0), (6, 9.0)):
            basis = fock_sector_basis(2, n)
            assert operator_norm(cross_kerr_coupling(basis, 0)) \
                == pytest.approx(expected, abs=1e-12)
            assert expected == math.floor(n ** 2 / 4)

    def test_operators_match_full_space_restriction(self):
        # build a_0^dag a_1 on the full (truncated) two-mode Fock space and
        # restrict to the N=2 sector; must agree with the direct construction
        n_max = 2
        dim1 = n_max + 1
        a = np.diag(np.sqrt(np.arange(1, dim1)), 1)
        a0 = np.kron(a, np.eye(dim1))
        a1 = np.kron(np.eye(dim1), a)
        basis = fock_sector_basis(2, 2)
        full_index = [occ[0] * dim1 + occ[1] for occ in basis]
        hop_full = a0.conj().T @ a1
        hop_restricted = hop_full[np.ix_(full_index, full_index)]
        re_part, im_part = fock_hopping_operators(basis, 0, 1)
        np.testing.assert_allclose(re_part,
                                   hop_restricted + hop_restricted.conj().T,
                                   atol=1e-12)
        np.testing.assert_allclose(im_part,
                                   1j * (hop_restricted - hop_restricted.conj().T),
                                   atol=1e-12)
        n_full = a0.conj().T @ a0
        np.testing.assert_allclose(fock_number_operator(basis, 0),
                                   n_full[np.ix_(full_index, full_index)],
                                   atol=1e-12)

    def test_generators_commute_with_total_number(self):
        # total photon number is constant on the sector by construction;
        # equivalently every generator is block diagonal there
        system = build_cross_kerr(2, 3)
        n_total = sum(fock_number_operator(fock_sector_basis(2, 3), k)
                      for k in range(2))
        for op in system.generators():
            assert operator_norm(commutator(op.matrix, n_total)) < 1e-12

    def test_with_kerr_controllable(self):
        system = build_cross_kerr(2, 4)
        assert lie_dimension(system.algebra_generators()).controllable

    def test_linear_optics_only_uncontrollable(self):
        system = ControlSystem(unbounded=build_cross_kerr(3, 2).unbounded)
        assert system.dim == 6
        res = commutant_dimension(system.algebra_generators(),
                                  want_symmetries=False)
        assert res.nullity > 2

    def test_traceless_shift(self):
        system = build_cross_kerr(2, 4)
        for op in system.generators():
            assert abs(np.trace(op.matrix)) < 1e-12

    def test_sector_guard(self):
        with pytest.raises(DimensionGuardError):
            build_cross_kerr(6, 12)

    def test_reference_bounds_odd_photon_number(self):
        ref = reference_bounds(ModelSpec("cross_kerr",
                                         {"n_modes": 2, "n_photons": 3}))
        assert ref["kerr_norm"] == pytest.approx(2.0, abs=1e-12)
        assert ref["paper_norm"] == pytest.approx(9 / 4)
        assert not ref["paper_norm_is_exact"]
        ref_even = reference_bounds(ModelSpec("cross_kerr",
                                              {"n_modes": 2, "n_photons": 4}))
        assert ref_even["paper_norm_is_exact"]


class TestModelSpec:
    def test_dispatch(self):
        system = build_model(ModelSpec("hopping_chain", {"d": 3}))
        assert system.dim == 3

    def test_unknown_model(self):
        with pytest.raises(InputError):
            ModelSpec("bogus", {})

    def test_unknown_parameter(self):
        with pytest.raises(InputError):
            ModelSpec("hopping_chain", {"d": 3, "oops": 1})

    def test_missing_parameter(self):
        with pytest.raises(InputError):
            ModelSpec("cross_kerr", {"n_modes": 2})

    def test_default_path_edges(self):
        spec = ModelSpec("global_control_chain",
                         {"n_qubits": 3, "gammas": [1.0, 2.0, 3.0]})
        assert spec.parameters["edges"] == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("name, params", [
        ("two_qubit_ising", {"delta": math.nan}),
        ("two_qubit_ising", {"delta": -math.inf}),
        ("global_control_chain", {"n_qubits": 2, "gammas": [1.0, math.nan]}),
        ("global_control_chain", {"n_qubits": 2, "gammas": [1.0, 1.2],
                                  "cap_c": math.inf}),
        ("cross_kerr", {"n_modes": 2, "n_photons": 2, "cap_c": math.nan})])
    def test_non_finite_parameters_rejected(self, name, params):
        with pytest.raises(InputError, match="must be finite"):
            ModelSpec(name, params)

    @pytest.mark.parametrize("make, message", [
        (lambda: ModelSpec("hopping_chain", {"d": 2.7}),
         "parameter 'd': must be an integer, got 2.7"),
        (lambda: build_global_control_chain(2.5, [1, 2]),
         "parameter 'n_qubits': must be an integer, got 2.5"),
        (lambda: build_hopping_chain(2.7),
         "parameter 'd': must be an integer, got 2.7"),
        (lambda: build_cross_kerr(2, 1.5),
         "parameter 'n_photons': must be an integer, got 1.5"),
        (lambda: ModelSpec("two_qubit_ising", {"delta": "abc"}),
         "parameter 'delta': must be a real number, got 'abc'"),
        (lambda: ModelSpec("two_qubit_ising", {"delta": None}),
         "parameter 'delta': must be a real number, got None"),
        (lambda: ModelSpec("hopping_chain", {"d": "3"}),
         "parameter 'd': must be an integer, got '3'"),
        (lambda: ModelSpec("global_control_chain",
                           {"n_qubits": 2, "gammas": [1.0, "x"]}),
         "parameter 'gammas': must be a real number, got 'x'"),
        (lambda: ModelSpec("global_control_chain",
                           {"n_qubits": 2, "gammas": [1.0, 1.2], "edges": [(0, 1.5)]}),
         "parameter 'edges': must be an integer, got 1.5"),
        (lambda: ModelSpec("global_control_chain", {"n_qubits": 2, "gammas": 5}),
         "parameter 'gammas': 'int' object is not iterable"),
        (lambda: ModelSpec("global_control_chain",
                           {"n_qubits": 2, "gammas": [1.0, 1.2], "edges": [(0, 1, 1)]}),
         "parameter 'edges': too many values to unpack"),
        (lambda: ModelSpec("two_qubit_ising", {"delta": True}),
         "parameter 'delta': must be a real number, got True"),
        (lambda: build_cross_kerr(2, True),
         "parameter 'n_photons': must be an integer, got True")],
        ids=["spec_d_float", "chain_n_float", "hopping_d_float",
             "kerr_photons_float", "delta_string", "delta_none", "d_string",
             "gamma_string", "edge_float", "gammas_scalar", "edge_triple",
             "delta_bool", "kerr_photons_bool"])
    def test_non_numeric_parameters_rejected(self, make, message):
        with pytest.raises(InputError, match=re.escape(message)):
            make()

    def test_integral_values_accepted(self):
        assert ModelSpec("hopping_chain", {"d": 3.0}).parameters == {"d": 3}
        assert ModelSpec("hopping_chain", {"d": np.int64(4)}).parameters == {"d": 4}
        assert build_cross_kerr(2, 2.0, cap_c=np.float64(0.5)).bounded[0].cap == 0.5
