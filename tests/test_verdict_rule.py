"""One rule for controllability oracles that disagree: distance.agreed_verdict.

The first verdict decides and every other must agree with it, or the result
is a NumericalError (exit 4). analyze, distance and qsl apply the rule to the
unperturbed Lie closure and commutant spectrum before any estimator runs, and
the SVD lower bound never decides a verdict.
"""

import json

import numpy as np
import pytest

from qdist import (DistanceCertificate, HermitianOperator, NumericalError,
                   UncontrollableSystemError, distance, epsilon_best,
                   epsilon_lower_svd, haar_unitary, make_system,
                   random_hermitian, t_star_lower)
from qdist.cli import main
from qdist.commutant import commutant_dimension
from qdist.distance import ESTIMATORS, agreed_verdict
from qdist.models import build_hopping_chain
from qdist.system import system_to_json

from conftest import flip_spectrum_verdicts

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def test_first_verdict_decides_when_all_agree():
    assert agreed_verdict({"lie": True, "commutant": True}, 3) is True
    assert agreed_verdict({"witness": False, "lie": False}, 5) is False
    assert agreed_verdict({"lie": False}, 8) is False
    # an oracle that did not run (no spectrum above its guard) has no say
    assert agreed_verdict({"lie": True, "commutant": None}, 8) is True


def test_disagreement_names_each_oracle_and_its_verdict():
    with pytest.raises(NumericalError) as info:
        agreed_verdict({"witness": False, "lie": True, "commutant": False}, 4)
    assert str(info.value) == ("controllability oracles disagree at d=4: "
                               "witness=False, lie=True, commutant=False")
    with pytest.raises(NumericalError, match="d=5: lie=True, commutant=False$"):
        agreed_verdict({"witness": None, "lie": True, "commutant": False}, 5)


def test_commands_reject_a_disagreement_alike_before_any_estimator(
        tmp_path, capsys, monkeypatch):
    # the Lie closure calls hopping d=3 controllable, the flipped spectrum
    # does not
    path = tmp_path / "hop3.json"
    path.write_text(json.dumps(system_to_json(build_hopping_chain(3))))
    flip_spectrum_verdicts(monkeypatch)
    calls = []

    def counted(name):
        estimator = getattr(distance, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return estimator(*args, **kwargs)
        return wrapper

    for method in ESTIMATORS:
        name = f"epsilon_upper_{method}"
        monkeypatch.setattr(distance, name, counted(name))
    errors = set()
    for argv in (["analyze"], ["distance"], ["distance", "--perturb", "all"],
                 ["qsl"]):
        code = main(argv + ["--system", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (4, ""), argv
        errors.add(err)
    assert errors == {"numerical error: controllability oracles disagree at "
                      "d=3: lie=True, commutant=False\n"}
    assert calls == []


def rotated_block_system(d, k, seed):
    """A drift and a control that are both block diagonal (k | d - k) in one
    Haar-random basis, so the system is uncontrollable."""
    u = haar_unitary(d, seed)

    def blocks(offset):
        m = np.zeros((d, d), dtype=complex)
        m[:k, :k] = random_hermitian(k, seed + offset).matrix
        m[k:, k:] = random_hermitian(d - k, seed + offset + 1).matrix
        m = u @ m @ u.conj().T
        return (m + m.conj().T) / 2

    return make_system(drift=blocks(10), unbounded=[blocks(20)])


@hypothesis.settings(max_examples=12, deadline=None, database=None)
@hypothesis.given(data=st.data(), d=st.integers(2, 4),
                  seed=st.integers(0, 2 ** 16))
def test_lower_bound_of_an_uncontrollable_system_is_zero(data, d, seed):
    k = data.draw(st.integers(1, d - 1))
    system = rotated_block_system(d, k, seed)
    gens = system.algebra_generators()
    assert not commutant_dimension(gens, want_symmetries=False).controllable
    assert epsilon_lower_svd(system, [0]) == 0.0
    assert epsilon_lower_svd(system, [0, 1]) == 0.0
    cert = DistanceCertificate(
        perturbations=[(0, HermitianOperator(-system.drift.matrix))],
        method="manual", verified_uncontrollable=True)
    assert t_star_lower(system, cert).epsilon_lower == 0.0
    with pytest.raises(UncontrollableSystemError):
        epsilon_best(system)
