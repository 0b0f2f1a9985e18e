import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glab.exact import (
    DenseDistribution,
    FieldAssignment,
    Pinning,
    as_values,
    boundary_split,
    condition,
    distribution_from_weights,
    entropy_functional,
    enumerate_gibbs,
    flip,
    kl_divergence,
    magnetize,
    magnetized_partition,
    marginal,
    point_mass,
    site_conditional_plus,
    site_ment_profile,
    site_split,
    total_variation,
    uniform_distribution,
)
from glab.model import IsingModel

from oracles import oracle_entropy
from util import random_dist, random_positive_f

SINGLE_EDGE = IsingModel(n=2, edges=[(0, 1)], beta=0.5, lam=(1.0, 1.0))


def test_single_edge_table():
    d = enumerate_gibbs(SINGLE_EDGE)
    # weights 1/2, 1, 1, 1/2 over --, +-, -+, ++ and Z = 3
    assert d.prob == pytest.approx([1 / 6, 1 / 3, 1 / 3, 1 / 6], abs=1e-15)
    assert math.exp(d.log_partition) == pytest.approx(3.0, rel=1e-12)


def test_single_vertex_field():
    d = enumerate_gibbs(IsingModel(n=1, edges=[], beta=1.0, lam=(3.0,)))
    assert d.prob == pytest.approx([1 / 4, 3 / 4], abs=1e-15)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DenseDistribution(1, np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        DenseDistribution(1, np.array([1.0, -0.0000001 - 1e-9]))
    with pytest.raises(ValueError):
        DenseDistribution(2, np.array([1.0, 0.0]))


def test_condition_and_marginal():
    d = enumerate_gibbs(SINGLE_EDGE)
    c = condition(d, Pinning((0,), (1,)))
    # given sigma_0 = +1 the weights at indices 1, 3 are 1/3, 1/6
    assert c.prob == pytest.approx([0, 2 / 3, 0, 1 / 3], abs=1e-12)
    m = marginal(d, [1])
    assert m.prob == pytest.approx([1 / 2, 1 / 2], abs=1e-12)


def test_condition_infeasible():
    d = point_mass(2, 0)
    with pytest.raises(ValueError):
        condition(d, Pinning((0,), (1,)))


def test_magnetize_theta_one_is_identity():
    d = random_dist(3, 5)
    m = magnetize(d, FieldAssignment.uniform(3, 1.0))
    assert total_variation(d, m) < 1e-14


def test_magnetize_tilts_plus_down():
    d = enumerate_gibbs(SINGLE_EDGE)
    m = magnetize(d, FieldAssignment.uniform(2, 0.5))
    # each +1 coordinate is reweighted by 1/2
    w = np.array([1 / 6, 1 / 6, 1 / 6, 1 / 24])
    assert m.prob == pytest.approx(w / w.sum(), abs=1e-12)


def test_magnetized_partition_single_edge():
    d = enumerate_gibbs(SINGLE_EDGE)
    assert magnetized_partition(d, 0.5) == pytest.approx(13 / 24, rel=1e-12)


def test_magnetized_partition_bounds():
    for seed in range(5):
        d = random_dist(4, seed)
        z = magnetized_partition(d, 0.3)
        assert 0.3 ** 4 - 1e-12 <= z <= 1.0 + 1e-12


def test_flip_involution():
    d = random_dist(4, 9)
    chi = [1, -1, -1, 1]
    assert total_variation(flip(flip(d, chi), chi), d) < 1e-14


def test_flip_moves_mass():
    d = point_mass(2, 0b00)
    f = flip(d, [-1, -1])
    assert f.prob[0b11] == pytest.approx(1.0)


def test_entropy_functional_known_value():
    d = uniform_distribution(1)
    assert entropy_functional(d, np.array([2.0, 0.0])) == pytest.approx(math.log(2.0), rel=1e-12)


def test_entropy_against_oracle():
    for seed in range(10):
        d = random_dist(3, seed)
        f = random_positive_f(3, seed + 100)
        assert entropy_functional(d, f) == pytest.approx(
            oracle_entropy(d.prob, f), rel=1e-10, abs=1e-12
        )


@given(st.integers(min_value=0, max_value=500), st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=50, deadline=None)
def test_entropy_scales_linearly(seed, c):
    d = random_dist(3, seed)
    f = random_positive_f(3, seed + 1)
    assert entropy_functional(d, c * f) == pytest.approx(
        c * entropy_functional(d, f), rel=1e-9, abs=1e-12
    )


def test_entropy_nonnegative_zero_on_constants():
    d = random_dist(4, 77)
    assert entropy_functional(d, np.full(16, 3.7)) == pytest.approx(0.0, abs=1e-12)
    f = random_positive_f(4, 78)
    assert entropy_functional(d, f) >= 0.0


def test_kl_and_tv():
    a = point_mass(1, 0)
    b = uniform_distribution(1)
    assert kl_divergence(a, b) == pytest.approx(math.log(2.0), rel=1e-12)
    assert total_variation(a, b) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        kl_divergence(b, a)


def test_site_conditional_plus_matches_brute():
    d = random_dist(3, 12)
    for v in range(3):
        mass, cond = site_conditional_plus(d, v)
        minus, plus = site_split(d, v)
        assert mass == pytest.approx(minus + plus, rel=1e-12)
        ok = mass > 0
        assert cond[ok] == pytest.approx((plus / np.where(mass > 0, mass, 1.0))[ok], rel=1e-12)


def test_site_ment_profile_sums_to_expectation():
    d = random_dist(4, 21)
    f = random_positive_f(4, 22)
    for v in range(4):
        mass, ment = site_ment_profile(d, f, v)
        assert float(np.dot(mass, ment)) == pytest.approx(
            boundary_split(d, v).expected_ment(as_values(f, 4)), rel=1e-12, abs=1e-14
        )
        assert np.all(ment >= -1e-12)


def test_distribution_from_weights_normalizes():
    d = distribution_from_weights([2.0, 6.0])
    assert d.prob == pytest.approx([0.25, 0.75])
