"""The Lie closure's dimension and right-normed bracket depth are properties
of the generated algebra, not of how its generators are presented."""

import pytest

from qdist import lie_dimension

from conftest import conjugate_all, random_pair_system

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

scales = st.floats(1e-3, 1e3).flatmap(
    lambda x: st.sampled_from([x, -x]))


def closure(gens):
    result = lie_dimension(gens, require_traceless=False)
    return result.dimension, result.depth


@hypothesis.settings(max_examples=25, deadline=None, database=None)
@hypothesis.given(d=st.integers(2, 5), seed=st.integers(0, 2 ** 16),
                  haar_seed=st.integers(0, 2 ** 16), a=scales, b=scales)
def test_dimension_and_depth_are_presentation_invariant(d, seed, haar_seed,
                                                        a, b):
    system = random_pair_system(d, seed)
    drift, control = system.algebra_generators()
    expected = closure([drift, control])
    assert closure([control, drift]) == expected
    assert closure(conjugate_all(system, haar_seed).algebra_generators()) \
        == expected
    assert closure([a * drift, b * control]) == expected
