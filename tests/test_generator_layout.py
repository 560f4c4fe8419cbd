"""The flat generator layout of ControlSystem: drift (if present), bounded,
then unbounded. Pulse columns, caps, perturbation indices and the role
indices of ControlSystem.indices must all follow the order of
generators()."""

import itertools

import numpy as np
import pytest

from qdist import (DistanceCertificate, HermitianOperator, InputError,
                   PiecewisePulse, evolve, make_system, operator_norm,
                   random_hermitian, verify_perturbation_inequality)
from conftest import reference_propagator

LAYOUTS = [(drift, nb, nu)
           for drift, nb, nu in itertools.product((False, True), range(3), range(3))
           if drift or nb or nu]


def mixed_system(has_drift, n_bounded, n_unbounded, d=3, seed=0):
    """Random system of the given roles; bounded control j has cap 0.5 + j."""
    mats = iter(random_hermitian(d, [seed, k]).matrix for k in itertools.count())
    return make_system(
        drift=next(mats) if has_drift else None,
        bounded=[(next(mats), 0.5 + j) for j in range(n_bounded)],
        unbounded=[next(mats) for _ in range(n_unbounded)])


def roles(system):
    """(role, position within the role) of each flat generator, found by
    identity against the system's own fields."""
    out = []
    for op in system.generators():
        if op is system.drift:
            out.append(("drift", 0))
        elif any(op is b.operator for b in system.bounded):
            out.append(("bounded", [b.operator for b in system.bounded].index(op)))
        else:
            out.append(("unbounded", [u is op for u in system.unbounded].index(True)))
    return out


def pulse_column(system, role, j):
    """Pulse-file column of a control: bounded first, then unbounded."""
    return j if role == "bounded" else len(system.bounded) + j


@pytest.mark.parametrize("has_drift, n_bounded, n_unbounded", LAYOUTS)
class TestFlatOrder:
    def test_amplitude_columns_and_caps(self, has_drift, n_bounded, n_unbounded):
        system = mixed_system(has_drift, n_bounded, n_unbounded)
        n_controls = n_bounded + n_unbounded
        rows = 0.1 * np.arange(1, 4)[:, None] * np.arange(1, n_controls + 1)[None, :]
        amps = system.generator_amplitudes(rows)
        assert amps.shape == (3, len(system.generators()))
        for i, (role, j) in enumerate(roles(system)):
            if role == "drift":
                np.testing.assert_array_equal(amps[:, i], 1.0)
                assert system.amplitude_cap(i) == 1.0
            else:
                np.testing.assert_array_equal(amps[:, i],
                                              rows[:, pulse_column(system, role, j)])
                cap = system.bounded[j].cap if role == "bounded" else None
                assert system.amplitude_cap(i) == cap
        with pytest.raises(InputError, match="out of range"):
            system.amplitude_cap(len(system.generators()))

    def test_perturbations_keep_roles_and_caps(self, has_drift, n_bounded,
                                               n_unbounded):
        system = mixed_system(has_drift, n_bounded, n_unbounded)
        gens = system.generators()
        deltas = [0.01 * (i + 1) * random_hermitian(3, [99, i]).matrix
                  for i in range(len(gens))]
        perturbed = system.with_perturbations(list(enumerate(deltas)))
        assert (perturbed.drift is None) == (system.drift is None)
        assert [b.cap for b in perturbed.bounded] == [b.cap for b in system.bounded]
        assert len(perturbed.unbounded) == len(system.unbounded)
        assert roles(perturbed) == roles(system)
        for i, (op, new) in enumerate(zip(gens, perturbed.generators())):
            np.testing.assert_allclose(new.matrix, op.matrix + deltas[i], atol=1e-15)
            assert perturbed.amplitude_cap(i) == system.amplitude_cap(i)

    def test_role_indices(self, has_drift, n_bounded, n_unbounded):
        system = mixed_system(has_drift, n_bounded, n_unbounded)
        for role in ("drift", "bounded", "unbounded"):
            assert system.indices(role) == [
                i for i, (r, _) in enumerate(roles(system)) if r == role]


@pytest.mark.parametrize("rows, match", [
    ([0.5, 0.5], "2-D"), (0.5, "2-D"), ([["x", 0.5]], "not numbers"),
    ([[np.nan, 0.5]], "finite"), ([[0.5, np.inf]], "finite")])
def test_malformed_amplitudes_are_input_errors(rows, match):
    # one bounded (cap 0.5) and one unbounded control; NaN is never above a cap
    system = mixed_system(True, 1, 1)
    with pytest.raises(InputError, match=match):
        system.generator_amplitudes(rows)


def capped_pulse(system, rng, segments):
    cols = [rng.uniform(-b.cap, b.cap, segments) for b in system.bounded]
    cols += [rng.normal(0.0, 1.5, segments) for _ in system.unbounded]
    return PiecewisePulse(durations=rng.uniform(0.05, 0.5, segments),
                          amplitudes=np.column_stack(cols))


@pytest.mark.parametrize("has_drift", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_evolve_matches_assembled_hamiltonians(has_drift, seed):
    rng = np.random.default_rng([7, seed])
    system = mixed_system(has_drift, 1 + seed % 2, 1 + seed // 2, d=2 + seed % 3,
                          seed=seed)
    pulse = capped_pulse(system, rng, segments=5)
    np.testing.assert_allclose(evolve(system, pulse),
                               reference_propagator(system, pulse), atol=1e-12)


def manual_certificate(system, indices, seed):
    perturbations = [(i, HermitianOperator(
        0.05 * random_hermitian(system.dim, [seed, i]).matrix)) for i in indices]
    return DistanceCertificate(perturbations=perturbations, method="manual",
                               verified_uncontrollable=True)


@pytest.mark.parametrize("has_drift", [False, True])
def test_inequality_rhs_weights_each_perturbed_generator(has_drift):
    """rhs = sum_j ||delta_j|| sum_s dt_s |g_j(s)|, with g = 1 for the drift;
    the certificate perturbs the drift (if any), the second bounded control
    and the second unbounded control."""
    rng = np.random.default_rng(11)
    system = mixed_system(has_drift, 2, 2)
    pulse = capped_pulse(system, rng, segments=6)
    roles_of = roles(system)
    picked = [i for i, rj in enumerate(roles_of)
              if rj in {("drift", 0), ("bounded", 1), ("unbounded", 1)}]
    cert = manual_certificate(system, picked, seed=5)
    expected = 0.0
    for i, delta in cert.perturbations:
        role, j = roles_of[i]
        g = (np.ones(len(pulse.durations)) if role == "drift"
             else pulse.amplitudes[:, pulse_column(system, role, j)])
        expected += operator_norm(delta.matrix) * float(np.sum(pulse.durations
                                                               * np.abs(g)))
    check = verify_perturbation_inequality(system, cert, pulse)
    assert len(picked) == (3 if has_drift else 2)
    assert check.rhs == pytest.approx(expected, rel=1e-14)
    assert check.holds and check.lhs <= check.rhs



@pytest.mark.parametrize("index", [0.7, 1.0, "0", True, None])
def test_perturbation_index_that_is_no_integer_is_an_input_error(index):
    # checked, not truncated or compared: True would perturb generator 1
    system = mixed_system(True, 1, 1)
    with pytest.raises(InputError, match="must be an integer"):
        system.with_perturbations([(index, np.zeros((3, 3)))])
    delta = 0.1 * np.eye(3)
    by_numpy = system.with_perturbations([(np.int64(1), delta)])
    np.testing.assert_array_equal(by_numpy.generators()[1].matrix,
                                  system.generators()[1].matrix + delta)


def test_algebra_generators_are_computed_once_and_read_only():
    system = mixed_system(True, 1, 1)
    # nothing is held until the first call: a large model that is only
    # written out keeps one copy of its matrices
    assert "_traceless" not in vars(system)
    first, second = system.algebra_generators(), system.algebra_generators()
    assert first is not second
    for a, b, op in zip(first, second, system.generators()):
        assert a is b and not a.flags.writeable
        assert abs(np.trace(a)) < 1e-12
        np.testing.assert_allclose(a, op.matrix - np.trace(op.matrix) / 3 * np.eye(3),
                                   atol=1e-15)
    with pytest.raises(ValueError, match="read-only"):
        first[0][0, 0] = 1.0
