"""The stacked adjoint matrix is real: each block is the complex
row-vectorized block in the orthonormal Hermitian basis of vec_herm."""

import json

import numpy as np
import pytest

from qdist import (DEFAULT_TOL, InputError, commutant_dimension,
                   devec_herm, hs_inner, random_hermitian, tensor_double,
                   vec_herm)
from qdist.cli import analyze_system, main
from qdist.commutant import build_stacked_adjoint
from qdist.distance import certificate_to_json, epsilon_best
from qdist.linalg import rank_and_nullity
from qdist.models import (build_cross_kerr, build_hopping_chain,
                          build_two_qubit_ising)
from qdist.system import system_to_json

from conftest import adjoint_action_matrix, random_pair_system

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODELS = {
    "hopping_d3": lambda: build_hopping_chain(3),
    "hopping_d4": lambda: build_hopping_chain(4),
    "hopping_d5": lambda: build_hopping_chain(5),
    "ising": lambda: build_two_qubit_ising(1.0),
    "cross_kerr_2_3": lambda: build_cross_kerr(2, 3),
}


def complex_reference(gens, doubled):
    """The stacked complex row-vectorized blocks (i H_k^(2))^(ad)."""
    return np.vstack([adjoint_action_matrix(
        1j * (tensor_double(g) if doubled else g)) for g in gens])


def assert_same_spectrum(gens, doubled):
    real = build_stacked_adjoint(gens, doubled=doubled)
    reference = complex_reference(gens, doubled)
    assert real.dtype == np.float64 and real.shape == reference.shape
    s_real = rank_and_nullity(real, want_null_basis=False)
    s_ref = rank_and_nullity(reference, want_null_basis=False)
    scale = s_ref.singular_values[0]
    assert np.max(np.abs(s_real.singular_values - s_ref.singular_values)) \
        <= 1e-12 * scale
    assert s_real.nullity == s_ref.nullity


@hypothesis.settings(max_examples=12, deadline=None, database=None)
@hypothesis.given(d=st.integers(2, 5), seed=st.integers(0, 2 ** 16),
                  doubled=st.booleans())
def test_random_pairs_keep_the_complex_spectrum(d, seed, doubled):
    assert_same_spectrum(random_pair_system(d, seed).algebra_generators(),
                         doubled)


@pytest.mark.parametrize("doubled", [True, False])
@pytest.mark.parametrize("name", MODELS)
def test_models_keep_the_complex_spectrum(name, doubled):
    assert_same_spectrum(MODELS[name]().algebra_generators(), doubled)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_coordinates_round_trip_and_keep_the_inner_product(n):
    a = random_hermitian(n, 3).matrix
    b = random_hermitian(n, 4).matrix
    np.testing.assert_allclose(devec_herm(vec_herm(a), n), a, atol=1e-14)
    assert vec_herm(a).dtype == np.float64
    assert vec_herm(a) @ vec_herm(b) == pytest.approx(hs_inner(a, b),
                                                      rel=1e-12)
    m = devec_herm(np.arange(n * n, dtype=float), n)
    np.testing.assert_array_equal(m, m.conj().T)


def test_block_is_the_map_on_coordinates():
    h = random_hermitian(3, 7).matrix
    x = random_hermitian(3, 8).matrix
    block = build_stacked_adjoint([h], doubled=False)
    np.testing.assert_allclose(block @ vec_herm(x),
                               vec_herm(1j * (h @ x - x @ h)), atol=1e-12)


def test_non_hermitian_generator_is_an_input_error():
    # the complex row-vectorized block exists for any matrix; the real one
    # only for Hermitian generators, so anything else is refused
    raising = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InputError, match="not Hermitian"):
        build_stacked_adjoint([raising])
    with pytest.raises(InputError, match="generator 1 is not Hermitian"):
        commutant_dimension([np.diag([1.0, -1.0]), raising])


def test_analyze_hands_only_real_inputs_to_the_svd(svd_log):
    # hopping d=4: one d^4-column SVD, the unperturbed spectrum
    analyze_system(build_hopping_chain(4), DEFAULT_TOL)
    assert {c.dtype for c in svd_log} == {np.dtype(np.float64)}
    assert sum(c.shape[-1] == 4 ** 4 for c in svd_log) == 1


def test_qsl_cert_hands_only_real_inputs_to_the_svd(tmp_path, capsys,
                                                    svd_log):
    # Ising delta=1: the d <= 4 cross-check of the certificate and the
    # lower bound each take one d^4-column SVD
    system = build_two_qubit_ising(1.0)
    cert = epsilon_best(system).upper
    system_path, cert_path = tmp_path / "ising.json", tmp_path / "cert.json"
    system_path.write_text(json.dumps(system_to_json(system)))
    cert_path.write_text(json.dumps(certificate_to_json(cert)))
    svd_log.clear()
    assert main(["qsl", "--system", str(system_path),
                 "--cert", str(cert_path)]) == 0
    capsys.readouterr()
    assert {c.dtype for c in svd_log} == {np.dtype(np.float64)}
    assert sum(c.shape[-1] == 4 ** 4 for c in svd_log) == 2
