"""analyze_system does not depend on the frame, the order or the trace of
the generators, and scales with them: the verdict, the Lie dimension and
the commutant nullity stay equal under a Haar conjugation of every
generator, a permutation of the generators within each role, an identity
shift of each generator and a rescaling of all of them by c; upper.op_norm
and lower stay equal too, times c under the rescaling, and T* divided by
c. T* under rescaling has its own test over every system and scale
(test_t_star_scales_by_one_over_c)."""

from functools import lru_cache

import numpy as np
import pytest

from qdist import DEFAULT_TOL, cli, haar_unitary, make_system
from qdist.models import (build_cross_kerr, build_global_control_chain,
                          build_hopping_chain, build_two_qubit_ising)

from conftest import random_pair_system

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

MODELS = {
    "ising_1": lambda: build_two_qubit_ising(1.0),
    "chain_1_1": lambda: build_global_control_chain(2, [1.0, 1.0]),
    "chain_1_1.2": lambda: build_global_control_chain(2, [1.0, 1.2]),
    **{f"hopping_d{d}": (lambda d=d: build_hopping_chain(d))
       for d in (2, 3, 4, 5)},
    "cross_kerr_2_3": lambda: build_cross_kerr(2, 3),
    "cross_kerr_2_4": lambda: build_cross_kerr(2, 4),
    "cross_kerr_3_1": lambda: build_cross_kerr(3, 1),
}


SCALES = (1e-3, 0.25, 3.0, 1e3)


def rebuild(system, change, permutation=None):
    """The system with change applied to each generator, in flat order, and
    the bounded and the unbounded controls each reordered by
    permutation(n), a permutation of range(n)."""
    def reorder(items):
        return [items[i] for i in (permutation or range)(len(items))]

    drift = None if system.drift is None else change(system.drift.matrix)
    bounded = [(change(b.operator.matrix), b.cap) for b in system.bounded]
    unbounded = [change(op.matrix) for op in system.unbounded]
    return make_system(drift=drift, bounded=reorder(bounded),
                       unbounded=reorder(unbounded))


def summary(system):
    """(verdicts, (op_norm, lower, T*) or None without a distance stage)."""
    report, code = cli.analyze_system(system, DEFAULT_TOL)
    verdicts = {"code": code, "controllable": report["lie"]["controllable"],
                "lie_dimension": report["lie"]["dimension"],
                "nullity": report["commutant"]["nullity"]}
    if report["distance"] is None:
        return verdicts, None
    return verdicts, (report["distance"]["upper"]["op_norm"],
                      report["distance"]["lower"],
                      report["qsl"]["t_star_lower"])


def systems():
    models = st.sampled_from(sorted(MODELS)).map(lambda n: MODELS[n]())
    pairs = st.builds(random_pair_system, st.integers(2, 5),
                      st.integers(0, 2 ** 16))
    return st.one_of(models, pairs)


@st.composite
def transformed(draw):
    """(system, its transform, c): the transform scales op_norm and lower
    by c and T* by 1/c."""
    system = draw(systems())
    d = system.dim
    kind = draw(st.sampled_from(["haar", "permute", "shift", "rescale"]))
    if kind == "haar":
        u = haar_unitary(d, draw(st.integers(0, 2 ** 16)))
        return system, rebuild(system, lambda m: u @ m @ u.conj().T), 1.0
    if kind == "permute":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        return system, rebuild(system, lambda m: m, rng.permutation), 1.0
    if kind == "shift":
        count = len(system.generators())
        shifts = iter(draw(st.lists(st.floats(-3, 3), min_size=count,
                                    max_size=count)))
        return system, rebuild(system, lambda m: m + next(shifts) * np.eye(d)), 1.0
    c = draw(st.sampled_from(SCALES))
    return system, rebuild(system, lambda m: c * m), c


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(case=transformed())
def test_analyze_is_invariant_and_scales(case):
    system, changed, c = case
    (verdicts, bounds), (new_verdicts, new_bounds) = map(summary,
                                                         (system, changed))
    assert new_verdicts == verdicts
    assert (new_bounds is None) == (bounds is None)
    if bounds is not None:
        upper, lower, t_star = bounds
        expected = (c * upper, c * lower, t_star / c)
        scaled = 2 if c != 1.0 else 3  # T* under rescaling: the test below
        np.testing.assert_allclose(new_bounds[:scaled], expected[:scaled],
                                   rtol=1e-9, atol=0)


# the bundled models with a distance stage (chain_1_1 is uncontrollable,
# and the controls of cross_kerr_3_1 alone are controllable) and random
# pairs at d <= 5
T_STAR_SYSTEMS = {
    **{name: build for name, build in MODELS.items()
       if name not in ("chain_1_1", "cross_kerr_3_1")},
    **{f"random_d{d}_{seed}": (lambda d=d, seed=seed: random_pair_system(d, seed))
       for d in range(2, 6) for seed in (11, 12)},
}


@lru_cache(maxsize=None)
def unscaled_t_star(name):
    return summary(T_STAR_SYSTEMS[name]())[1][2]


@pytest.mark.parametrize("name, c", [(name, c) for name in T_STAR_SYSTEMS
                                     for c in SCALES])
def test_t_star_scales_by_one_over_c(name, c):
    # the gap-merge witness of hopping d=2 is checked against the merged
    # drift, zero up to roundoff of size c * 1e-16: is_symmetry_witness's
    # floor scales with the generators, so delta stays sqrt(2) at c = 1e3
    scaled = rebuild(T_STAR_SYSTEMS[name](), lambda m: c * m)
    np.testing.assert_allclose(summary(scaled)[1][2], unscaled_t_star(name) / c,
                               rtol=1e-9, atol=0)
