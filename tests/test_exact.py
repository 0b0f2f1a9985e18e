import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glab.exact import (
    DenseDistribution,
    _kl,
    Pinning,
    condition,
    entropy_functional,
    entropy_of_values,
    enumerate_gibbs,
    magnetize,
    magnetized_partition,
    marginal,
    site_conditional_plus,
    total_variation,
)
from glab.model import IsingModel

from oracles import (distribution_from_weights, flip, kl_divergence, oracle_entropy,
                     oracle_magnetize, point_mass, table_of, uniform_distribution)
from util import random_dist, random_positive_f

SINGLE_EDGE = IsingModel(n=2, edges=[(0, 1)], beta=0.5, lam=(1.0, 1.0))


def test_single_edge_table():
    d = enumerate_gibbs(SINGLE_EDGE)
    # weights 1/2, 1, 1, 1/2 over --, +-, -+, ++ and Z = 3
    assert d.prob == pytest.approx([1 / 6, 1 / 3, 1 / 3, 1 / 6], abs=1e-15)


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
    m = magnetize(d, np.ones(3))
    assert total_variation(d, m) < 1e-14


def test_magnetize_tilts_plus_down():
    d = enumerate_gibbs(SINGLE_EDGE)
    m = magnetize(d, np.full(2, 0.5))
    # each +1 coordinate is reweighted by 1/2
    w = np.array([1 / 6, 1 / 6, 1 / 6, 1 / 24])
    assert m.prob == pytest.approx(w / w.sum(), abs=1e-12)


def test_magnetize_matches_oracle_product_of_fields():
    gen = np.random.default_rng(31)
    for seed in range(6):
        d = random_dist(4, seed, zero_frac=0.2)
        phi = np.exp(gen.normal(0.0, 1.0, size=4))
        phi[seed % 4] = 1.0  # a site left alone
        if seed % 2:
            phi[(seed + 1) % 4] = 0.0  # a site where +1 is forbidden
        want = oracle_magnetize(d, phi)
        got = table_of(magnetize(d, list(phi)))
        for spins, p in want.items():
            assert got[spins] == pytest.approx(p, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("phi", [[1.0, 1.0], [1.0, 1.0, 1.0, 1.0], [1.0, -0.5, 1.0],
                                 [1.0, math.nan, 1.0], [math.inf, 1.0, 1.0]],
                         ids=["short", "long", "negative", "nan", "inf"])
def test_magnetize_refuses_a_bad_field_vector(phi):
    with pytest.raises(ValueError):
        magnetize(random_dist(3, 4), phi)


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
    # the same functional on plain vectors, as the down-up walk levels use it
    assert entropy_of_values([0.5, 0.5], [2.0, 0.0]) == pytest.approx(math.log(2.0), rel=1e-12)
    assert entropy_of_values(d.prob, f) == entropy_functional(d, f)
    with pytest.raises(ValueError, match="nonnegative"):
        entropy_of_values([0.5, 0.5], [2.0, -1.0])


def test_kl_and_tv():
    a = point_mass(1, 0)
    b = uniform_distribution(1)
    assert kl_divergence(a, b) == pytest.approx(math.log(2.0), rel=1e-12)
    assert total_variation(a, b) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        kl_divergence(b, a)
    # the same divergence on plain vectors, as the down-up walk levels use it
    assert _kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(math.log(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        _kl(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_site_conditional_plus_matches_brute():
    d = random_dist(3, 12, zero_frac=0.4)
    for v in range(3):
        mass, cond = site_conditional_plus(d, v)
        # boundary b packs the other sites in increasing order
        want_mass, want_plus = np.zeros(4), np.zeros(4)
        for x in range(8):
            b = (x & ((1 << v) - 1)) | ((x >> (v + 1)) << v)
            want_mass[b] += d.prob[x]
            want_plus[b] += d.prob[x] if x >> v & 1 else 0.0
        assert mass == pytest.approx(want_mass, rel=1e-12)
        ok = want_mass > 0
        assert cond[ok] == pytest.approx(want_plus[ok] / want_mass[ok], rel=1e-12)
        assert np.all(np.isnan(cond[~ok]))


def test_distribution_from_weights_normalizes():
    d = distribution_from_weights([2.0, 6.0])
    assert d.prob == pytest.approx([0.25, 0.75])
