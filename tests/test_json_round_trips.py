"""Systems, certificates and pulses survive their JSON wire formats bit for
bit: to_json, json.dumps, json.loads, from_json gives every array back
with equal values and dtype, and every scalar back equal. A document with
one leaf of the wrong kind parses or is an InputError, nothing else."""

import json

import numpy as np
import pytest

from qdist.distance import (METHODS, DistanceCertificate, certificate_from_json,
                            certificate_to_json)
from qdist.errors import InputError
from qdist.linalg import HermitianOperator, matrix_from_json, matrix_to_json
from qdist.speed_limit import PiecewisePulse, pulse_from_json, pulse_to_json
from qdist.system import make_system, system_from_json, system_to_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, database=None)
REALS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def through_json(doc):
    return json.loads(json.dumps(doc))


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@st.composite
def hermitian(draw, d):
    """An exactly Hermitian d x d matrix, (A + A^dagger) / 2."""
    entries = draw(st.lists(REALS, min_size=2 * d * d, max_size=2 * d * d))
    a = np.array(entries[:d * d]) + 1j * np.array(entries[d * d:])
    a = a.reshape(d, d)
    return (a + a.conj().T) / 2


@st.composite
def systems(draw):
    d = draw(st.integers(2, 4))
    drift = draw(st.none() | hermitian(d))
    caps = draw(st.lists(st.floats(1e-6, 1e6), max_size=2))
    bounded = [(draw(hermitian(d)), cap) for cap in caps]
    n_unbounded = draw(st.integers(0 if drift is not None or caps else 1, 2))
    unbounded = [draw(hermitian(d)) for _ in range(n_unbounded)]
    return make_system(drift=drift, bounded=bounded, unbounded=unbounded)


@SETTINGS
@hypothesis.given(system=systems())
def test_system_round_trip(system):
    back = system_from_json(through_json(system_to_json(system)))
    assert (back.drift is None) == (system.drift is None)
    if system.drift is not None:
        assert_same_array(back.drift.matrix, system.drift.matrix)
    assert len(back.bounded) == len(system.bounded)
    for got, want in zip(back.bounded, system.bounded):
        assert_same_array(got.operator.matrix, want.operator.matrix)
        assert got.cap == want.cap
    assert len(back.unbounded) == len(system.unbounded)
    for got, want in zip(back.unbounded, system.unbounded):
        assert_same_array(got.matrix, want.matrix)


@st.composite
def certificates(draw):
    d = draw(st.integers(2, 4))
    indices = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3,
                            unique=True))
    witness = draw(st.none() | hermitian(d))
    return DistanceCertificate(
        perturbations=[(i, HermitianOperator(draw(hermitian(d))))
                       for i in indices],
        method=draw(st.sampled_from(sorted(METHODS))),
        verified_uncontrollable=draw(st.booleans()),
        symmetry_witness=None if witness is None else HermitianOperator(witness),
        detail=draw(st.text(max_size=20)))


@SETTINGS
@hypothesis.given(cert=certificates())
def test_certificate_round_trip(cert):
    back = certificate_from_json(through_json(certificate_to_json(cert)))
    # the verdict is checked as a bool but not kept: a loaded certificate
    # is unverified until verify_certificate passes on it
    assert (back.method, back.detail, back.verified_uncontrollable) == (
        cert.method, cert.detail, False)
    assert back.op_norm == cert.op_norm
    assert [i for i, _ in back.perturbations] == [
        i for i, _ in cert.perturbations]
    for (_, got), (_, want) in zip(back.perturbations, cert.perturbations):
        assert_same_array(got.matrix, want.matrix)
    assert (back.symmetry_witness is None) == (cert.symmetry_witness is None)
    if cert.symmetry_witness is not None:
        assert_same_array(back.symmetry_witness.matrix,
                          cert.symmetry_witness.matrix)


@st.composite
def pulses(draw):
    segments = draw(st.integers(1, 6))
    columns = draw(st.integers(0, 3))
    durations = draw(st.lists(st.floats(1e-9, 1e3), min_size=segments,
                              max_size=segments))
    amplitudes = draw(st.lists(REALS, min_size=segments * columns,
                               max_size=segments * columns))
    return PiecewisePulse(
        durations=durations,
        amplitudes=np.reshape(np.array(amplitudes, dtype=float),
                              (segments, columns)))


@SETTINGS
@hypothesis.given(pulse=pulses())
def test_pulse_round_trip(pulse):
    back = pulse_from_json(through_json(pulse_to_json(pulse)))
    assert_same_array(back.durations, pulse.durations)
    assert back.amplitudes.shape == pulse.amplitudes.shape
    assert_same_array(back.amplitudes, pulse.amplitudes)


BAD_LEAVES = [None, True, "1", float("inf"), float("nan"), [], {}, [[1]]]


def leaf_paths(doc, path=()):
    """Paths to every scalar and every empty list or object in doc."""
    if isinstance(doc, (dict, list)) and doc:
        for key, child in (doc.items() if isinstance(doc, dict)
                           else enumerate(doc)):
            yield from leaf_paths(child, path + (key,))
    else:
        yield path


def replaced(doc, path, value):
    """A copy of doc with the leaf at path replaced by value."""
    doc = through_json(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@SETTINGS
@hypothesis.given(case=st.one_of(
    hermitian(2).map(lambda m: (matrix_from_json, matrix_to_json(m))),
    systems().map(lambda s: (system_from_json, system_to_json(s))),
    certificates().map(lambda c: (certificate_from_json, certificate_to_json(c))),
    pulses().map(lambda p: (pulse_from_json, pulse_to_json(p)))))
def test_one_bad_leaf_parses_or_is_an_input_error(case):
    # the parsers' one rule for JSON values: any leaf swapped for a value of
    # the wrong kind is an InputError, never another exception
    parse, doc = case
    for path in leaf_paths(doc):
        for value in BAD_LEAVES:
            try:
                parse(replaced(doc, path, value))
            except InputError:
                pass
