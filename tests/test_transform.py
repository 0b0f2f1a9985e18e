import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glab.exact import DenseDistribution, Pinning, enumerate_gibbs, entropy_functional, total_variation
from glab.transform import (
    bucket_field_average,
    k_transform,
    ktrans_influence_check,
    lift_function,
    lifted_entropy_identity,
    pinning_pushforward_pair,
    star_projection_table,
    star_pushforward,
)

from oracles import oracle_k_transform_weights
from util import random_dist, random_gibbs, random_positive_f, regime_grid


def test_star_projection_counts():
    feasible, base_index, plus_total = star_projection_table(2, 2)
    assert feasible.size == 16
    # any +1 copy in a bucket projects that site to +1
    assert base_index[0b1111] == 0b11
    assert base_index[0b0011] == 0b01
    assert base_index[0b0000] == 0b00
    assert plus_total[0b1011] == 3
    # at most one +1 per bucket is feasible for the lift
    assert not feasible[0b0011]
    assert feasible[0b0110]
    assert feasible[0b0000]


def test_pushforward_inverts_transform():
    for seed in range(6):
        d = random_dist(3, seed)
        td = k_transform(d, 2)
        assert total_variation(star_pushforward(td), d) < 1e-12


def test_transform_mass_split_is_uniform():
    d = random_dist(1, 3)
    td = k_transform(d, 2).dist
    # -1 keeps its whole weight on the all-minus bucket; +1 splits over
    # the k single-plus patterns
    assert td.prob[0b00] == pytest.approx(d.prob[0], rel=1e-12)
    assert td.prob[0b01] == pytest.approx(d.prob[1] / 2.0, rel=1e-12)
    assert td.prob[0b10] == pytest.approx(d.prob[1] / 2.0, rel=1e-12)
    assert td.prob[0b11] == 0.0


def test_lift_function_composes():
    f = random_positive_f(2, 4)
    lifted = lift_function(k_transform(random_dist(2, 4), 2), f)
    _, base_index, _ = star_projection_table(2, 2)
    assert np.array_equal(lifted, f[base_index])


def test_lifted_entropy_identity():
    for seed in range(10):
        d = random_dist(3, seed + 10)
        td = k_transform(d, 3)
        for i in range(3):
            f = random_positive_f(3, seed + 20 + 100 * i)
            base, lifted = lifted_entropy_identity(td, f)
            assert lifted == pytest.approx(base, rel=1e-10, abs=1e-12)
            assert base == pytest.approx(entropy_functional(d, f), rel=1e-12)
            # one lift reused across the fs gives what a fresh lift per f gives
            assert (base, lifted) == lifted_entropy_identity(k_transform(d, 3), f)


def test_pinned_pushforward_minus():
    for seed in range(5):
        d = random_gibbs(3, seed + 40)
        lhs, rhs = pinning_pushforward_pair(k_transform(d, 2), Pinning((0,), (-1,)))
        assert total_variation(lhs, rhs) < 1e-10


def test_pinned_pushforward_plus_and_mixed():
    d = random_gibbs(3, 77)
    lhs, rhs = pinning_pushforward_pair(k_transform(d, 3), Pinning((0,), (1,)))
    assert total_variation(lhs, rhs) < 1e-10
    # one +1 copy in bucket 0, one -1 copy in bucket 1
    pin = Pinning((0, 3), (1, -1))
    lhs, rhs = pinning_pushforward_pair(k_transform(d, 3), pin)
    assert total_variation(lhs, rhs) < 1e-10
    # two -1 copies in the same bucket
    pin = Pinning((3, 4), (-1, -1))
    lhs, rhs = pinning_pushforward_pair(k_transform(d, 3), pin)
    assert total_variation(lhs, rhs) < 1e-10


def test_bucket_field_average():
    phi = np.array([[1.0, 3.0], [2.0, 2.0]])
    assert bucket_field_average(phi) == pytest.approx([2.0, 2.0])


def test_ktrans_influence_check_passes():
    gen = np.random.default_rng(5)
    for seed in range(6):
        d = random_gibbs(3, seed + 60)
        phi = np.exp(gen.uniform(math.log(0.25), math.log(4.0), size=(3, 2)))
        rep = ktrans_influence_check(k_transform(d, 2), phi)
        assert rep.passed, rep.to_json()
        assert rep.max_cross_violation <= 1e-9
        assert rep.max_self_violation <= 1e-9
        assert rep.max_rowsum_violation <= 1e-9


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_plus_total_consistency(seed):
    feasible, base_index, plus_total = star_projection_table(2, 2)
    gen = np.random.default_rng(seed)
    idx = int(gen.integers(16))
    # plus_total counts the +1 copies regardless of feasibility bucketing
    assert plus_total[idx] == bin(idx).count("1")


def test_k_transform_table_matches_dense_formula():
    dists = [enumerate_gibbs(model) for _, model in regime_grid()]
    dists.append(random_dist(4, 141, zero_frac=0.3))
    for d in dists:
        for k in (1, 2, 3):
            want = DenseDistribution(d.n * k, oracle_k_transform_weights(d, k)).prob
            assert k_transform(d, k).dist.prob.tobytes() == want.tobytes()
