"""Values-only commutant spectra read each sector block's singular values
off its Gram matrix where the Gram certifies them far above the cutoff,
and take the SVD everywhere else: the values, the rank, the nullity and
the verdict are those of the SVD path (want_symmetries=True)."""

import numpy as np
import pytest

from qdist import DEFAULT_TOL, NumericalError, random_hermitian
from qdist.commutant import commutant_dimension, commutant_spectrum
from qdist.models import (build_cross_kerr, build_global_control_chain,
                          build_hopping_chain, build_two_qubit_ising)

from conftest import block_symmetric_pair, random_pair_system

CERTIFIED = {
    **{f"hopping_d{d}": (lambda d=d: build_hopping_chain(d))
       for d in (4, 5, 6)},
    **{f"cross_kerr_{m}_{p}": (lambda m=m, p=p: build_cross_kerr(m, p))
       for m, p in ((2, 3), (2, 4), (3, 2))},
    **{f"ising_{delta}": (lambda delta=delta: build_two_qubit_ising(delta))
       for delta in (0.5, 1.0, 2.0)},
    "global_chain_1_1.2": lambda: build_global_control_chain(2, [1.0, 1.2]),
    **{f"random_d{d}_seed{seed}":
       (lambda d=d, seed=seed: random_pair_system(d, seed))
       for d in (4, 5, 6) for seed in (0, 1)},
}


def assert_same_as_svd(gens, spectrum):
    reference = commutant_dimension(gens, tol=DEFAULT_TOL,
                                    want_symmetries=True)
    assert (spectrum.rank, spectrum.nullity, spectrum.controllable) == (
        reference.rank, reference.nullity, reference.controllable)
    smax = reference.singular_values[0]
    np.testing.assert_allclose(spectrum.singular_values,
                               reference.singular_values,
                               rtol=0, atol=1e-12 * smax)


@pytest.mark.parametrize("name", CERTIFIED)
def test_certified_blocks_match_the_svd(name, svd_log, gram_log):
    gens = CERTIFIED[name]().algebra_generators()
    spectrum = commutant_spectrum(gens, DEFAULT_TOL)
    # every sector block was certified, so none reached the SVD
    assert gram_log and all(c.certified for c in gram_log)
    assert svd_log == []
    assert spectrum.controllable
    # the identities of Sym^2 and Lambda^2 read exactly zero
    assert np.count_nonzero(spectrum.singular_values == 0.0) == 2
    assert_same_as_svd(gens, spectrum)


def fallback_cases():
    cases = {f"block_symmetric_eta{eta:g}_seed{seed}":
             (lambda eta=eta, seed=seed: block_symmetric_pair(seed, eta))
             for eta in (1e-11, 1e-9, 3e-9, 1e-8, 1e-6) for seed in (0, 1)}
    cases["global_chain_1_1"] = lambda: build_global_control_chain(
        2, [1.0, 1.0]).algebra_generators()
    cases["one_generator_d4"] = lambda: [
        random_hermitian(4, 3, traceless=True).matrix]
    return cases


@pytest.mark.parametrize("name", fallback_cases())
def test_rejected_blocks_reach_the_svd(name, svd_log, gram_log):
    gens = fallback_cases()[name]()
    spectrum = commutant_spectrum(gens, DEFAULT_TOL)
    rejected = [id(c.matrix) for c in gram_log if not c.certified]
    assert rejected
    # exactly the blocks the Gram rejected were decomposed, in order
    assert [id(c.matrix) for c in svd_log] == rejected
    assert_same_as_svd(gens, spectrum)


def test_dense_block_and_symmetry_calls_keep_the_svd(svd_log, gram_log):
    # below SECTOR_MIN_DIM the dense d^4-column matrix is the one block and
    # the oracle; a call that wants symmetry operators needs the vectors
    commutant_spectrum(build_hopping_chain(3).algebra_generators(),
                       DEFAULT_TOL)
    assert [c.shape[-1] for c in svd_log] == [3 ** 4]
    svd_log.clear()
    result = commutant_dimension(build_hopping_chain(4).algebra_generators())
    assert result.controllable and len(svd_log) == 5
    assert gram_log == []


def test_gram_failure_is_a_numerical_error(monkeypatch):
    def failing_eigvalsh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    with pytest.raises(NumericalError, match="did not converge"):
        commutant_spectrum(build_hopping_chain(4).algebra_generators(),
                           DEFAULT_TOL)
