import itertools

import numpy as np
import pytest

from glab.capacity import CapacityError
from glab.exact import entropy_functional
from glab.factorization import kappa, ubf_average
from glab.spectral import homogenize, homogenized_faces
from glab.walks import (
    build_levels,
    down_matrix,
    entropy_contraction_check,
    homogenized_law,
    homogenized_levels,
    kl_by_level,
    level_distribution,
    lift_level_function,
    local_entropy_decay_check,
    ubf_ed_identity,
    ubf_ed_identity_check,
    uniform_slice_levels,
    up_matrix,
)

from oracles import (distribution_from_weights, mask_bits, oracle_down_matrix, oracle_levels,
                     oracle_up_matrix)
from util import random_dist, random_gibbs, random_positive_f


def seeded_nu(mu, seed):
    gen = np.random.default_rng(seed)
    raw = mu * np.exp(gen.normal(0.0, 1.0, size=mu.size))
    return raw / raw.sum()


def uniform_law(levels):
    return np.full(levels.face_count(levels.k), 1.0 / levels.face_count(levels.k))


def homogenized(dist):
    """(levels, law) of a distribution's homogenization."""
    levels = homogenized_levels(dist.n)
    return levels, homogenized_law(levels, dist)


def test_mask_bits():
    assert mask_bits(0b1011) == (0, 1, 3)
    assert mask_bits(0) == ()


def test_uniform_slice_structure():
    levels = uniform_slice_levels(4, 2)
    assert levels.face_count(2) == 6
    assert levels.face_count(1) == 4
    assert levels.face_count(0) == 1
    # every level law of the uniform slice is uniform
    for j in (0, 1, 2):
        assert np.allclose(level_distribution(levels, uniform_law(levels), j),
                           1.0 / levels.face_count(j))


def test_down_matrix_stochastic():
    levels = uniform_slice_levels(5, 3)
    for frm, to in [(3, 2), (2, 1), (3, 1)]:
        m = down_matrix(levels, frm, to)
        assert np.allclose(m.sum(axis=1), 1.0)
        assert np.all(m >= 0)


def test_up_matrix_stochastic():
    levels, mu = homogenized(random_gibbs(3, 3))
    for j in range(levels.k):
        m = up_matrix(levels, mu, j)
        assert np.allclose(m.sum(axis=1), 1.0)


def test_push_down_matches_matrix():
    levels = uniform_slice_levels(5, 3)
    nu = seeded_nu(uniform_law(levels), 1)
    direct = level_distribution(levels, nu, 1)
    via = nu @ down_matrix(levels, 3, 1)
    assert np.allclose(direct, via, atol=1e-14)
    assert float(direct.sum()) == pytest.approx(1.0, abs=1e-12)


def test_build_levels_rejects_bad_faces():
    with pytest.raises(ValueError):
        build_levels(3, 2, [0b011, 0b001])  # mixed face sizes
    with pytest.raises(ValueError):
        build_levels(3, 2, [0b011, 0b011])  # duplicate face
    with pytest.raises(ValueError, match="outside ground set"):
        build_levels(3, 2, [0b011, 0b1001])
    with pytest.raises(ValueError, match="outside ground set"):
        build_levels(3, 2, [0b011, -1])
    with pytest.raises(ValueError, match="nonempty"):
        build_levels(3, 2, [])


def test_law_must_align_with_the_top_faces():
    levels = uniform_slice_levels(4, 2)
    with pytest.raises(ValueError, match="align"):
        level_distribution(levels, np.full(5, 0.2), 1)
    with pytest.raises(ValueError):
        lift_level_function(levels, uniform_law(levels), np.ones(5), 1)
    with pytest.raises(ValueError, match="homogenized 3-site"):
        homogenized_law(levels, random_gibbs(3, 1))
    with pytest.raises(ValueError, match="probability vectors"):
        entropy_contraction_check(levels, np.full(6, 0.2), uniform_law(levels), 1, alpha=1.0)


ORACLE_GRID = (
    [("slice", n, k) for n, k in ((4, 2), (5, 2), (5, 3), (6, 3))]
    + [("gibbs", n, n) for n in range(2, 6)]
    # knocked-out configurations leave some top faces absent
    + [("sparse", n, n) for n in range(3, 6)]
    # unsorted faces, one of them with zero probability
    + [("raw", 5, 3)]
)


def _grid_levels(kind, n, k):
    """(levels, the faces and probabilities they were built from)."""
    if kind == "slice":
        faces = [sum(1 << b for b in c) for c in itertools.combinations(range(n), k)]
        return uniform_slice_levels(n, k), faces, [1.0 / len(faces)] * len(faces)
    if kind == "raw":
        faces, probs = [0b10110, 0b00111, 0b11001, 0b01011], [0.4, 0.1, 0.0, 0.5]
        return build_levels(n, k, faces), faces, probs
    dist = random_gibbs(n, 40 + n) if kind == "gibbs" else random_dist(n, 50 + n, zero_frac=0.3)
    ground, faces, probs = homogenize(dist)
    return build_levels(ground, n, faces), faces, probs


@pytest.mark.parametrize("kind,n,k", ORACLE_GRID)
def test_levels_match_combination_loops(kind, n, k):
    levels, faces, probs = _grid_levels(kind, n, k)
    want_faces, mu = oracle_levels(k, faces, probs)
    assert levels.faces == want_faces
    f = np.exp(np.random.default_rng(n).normal(size=mu.size))
    for frm in range(k + 1):
        for to in range(frm + 1):
            np.testing.assert_allclose(
                down_matrix(levels, frm, to), oracle_down_matrix(levels, frm, to),
                rtol=1e-12, atol=0)
        up = oracle_up_matrix(levels, mu, frm)
        np.testing.assert_allclose(up_matrix(levels, mu, frm), up, rtol=1e-12, atol=0)
        np.testing.assert_allclose(lift_level_function(levels, mu, f, frm), up @ f,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            level_distribution(levels, mu, frm),
            mu @ oracle_down_matrix(levels, k, frm), rtol=1e-12, atol=0)


@pytest.mark.parametrize("n,zero_frac", [(2, 0.0), (3, 0.3), (4, 0.0), (5, 0.3)])
def test_homogenized_levels_carry_every_law(n, zero_frac):
    dist = random_dist(n, 70 + n, zero_frac=zero_frac)
    levels = homogenized_levels(n)
    # every configuration's face is a top face, whatever the law
    all_faces = homogenized_faces(n, np.arange(1 << n, dtype=np.int64))
    want_faces, want_mu = oracle_levels(n, all_faces, dist.prob)
    assert levels.faces == want_faces
    mu = homogenized_law(levels, dist)
    np.testing.assert_allclose(mu, want_mu, rtol=1e-12, atol=0)
    # the faces the law reaches are the downward closure of the support
    support_faces, _ = oracle_levels(n, *homogenize(dist)[1:])
    f = np.exp(np.random.default_rng(n).normal(size=mu.size))
    for j in range(n + 1):
        low = level_distribution(levels, mu, j)
        reached = np.asarray(levels.faces[j])[low > 0]
        assert tuple(reached.tolist()) == support_faces[j]
        lift = lift_level_function(levels, mu, f, j)
        assert np.all(np.isfinite(lift))
        assert np.all(lift[low == 0] == 0.0)


def test_level_byte_budget(monkeypatch):
    import glab.walks as walks

    # 6 top faces of size 2, each with 2^2 subfaces of 64 bytes
    monkeypatch.setattr(walks, "LEVEL_BYTE_BUDGET", 1536)
    assert uniform_slice_levels(4, 2).face_count(2) == 6
    monkeypatch.setattr(walks, "LEVEL_BYTE_BUDGET", 1535)
    with pytest.raises(CapacityError,
                       match="6 top faces of size 2 needs 1536 bytes, above the budget of 1535"):
        uniform_slice_levels(4, 2)


def test_kl_contracts_down_the_levels():
    levels, mu = homogenized(random_gibbs(4, 11))
    nu = seeded_nu(mu, 2)
    series = kl_by_level(levels, mu, nu)
    # pushing through a channel can only lose divergence
    assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
    assert series[-1] == pytest.approx(0.0, abs=1e-12)


def test_uniform_slice_contraction():
    levels = uniform_slice_levels(6, 3)
    mu = uniform_law(levels)
    for seed in range(10):
        nu = seeded_nu(mu, seed)
        for j in (1, 2):
            rep = entropy_contraction_check(levels, mu, nu, j, alpha=1.0)
            assert rep.passed, (seed, j, rep.lhs, rep.rhs)


def test_homogenized_product_contraction():
    # product measures homogenize to a log-concave generating polynomial
    gen = np.random.default_rng(13)
    w = np.ones(16)
    for v in range(4):
        lam = gen.uniform(0.4, 2.5)
        for idx in range(16):
            if (idx >> v) & 1:
                w[idx] *= lam

    prod = distribution_from_weights(w)
    levels, mu = homogenized(prod)
    for seed in range(5):
        nu = seeded_nu(mu, seed + 50)
        f = np.exp(np.random.default_rng(seed + 60).normal(size=mu.size))
        for j in range(1, levels.k):
            assert entropy_contraction_check(levels, mu, nu, j, alpha=1.0).passed
            assert local_entropy_decay_check(
                levels, mu, f, j, contraction=kappa(j, levels.k, 1.0)
            ).passed


def test_walk_density_identity():
    # the up-walk average of f is the density of (mu f) D against mu D,
    # with the down matrix D built face by face
    levels, mu = homogenized(random_gibbs(4, 17))
    f = np.exp(np.random.default_rng(18).normal(0.0, 1.0, size=mu.size))
    nu = mu * f
    for j in range(levels.k + 1):
        down = oracle_down_matrix(levels, levels.k, j)
        np.testing.assert_allclose(lift_level_function(levels, mu, f, j),
                                   (nu @ down) / (mu @ down), rtol=1e-12)


def test_ubf_ed_identity_all_j():
    d = random_gibbs(4, 23)
    f = random_positive_f(4, 24)
    levels = homogenized_levels(4)
    for j in range(1, 5):
        lhs, rhs = ubf_ed_identity(d, levels, f, j)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
        assert ubf_ed_identity_check(d, levels, f, j).passed
    # j = n is the plain entropy
    lhs, _ = ubf_ed_identity(d, levels, f, 4)
    assert lhs == pytest.approx(entropy_functional(d, f), rel=1e-10)
    # the level structure must be that of the distribution's homogenization
    with pytest.raises(ValueError, match="homogenized 4-site"):
        ubf_ed_identity(d, homogenized_levels(3), f, 2)


def test_ubf_ed_identity_matches_ubf_average():
    d = random_gibbs(3, 29)
    f = random_positive_f(3, 30)
    levels = homogenized_levels(3)
    for j in (1, 2, 3):
        lhs, _ = ubf_ed_identity(d, levels, f, j)
        assert lhs == pytest.approx(ubf_average(d, j, f), rel=1e-12)


def test_lift_level_function_averages():
    levels = uniform_slice_levels(4, 2)
    f = np.arange(1.0, 7.0)
    mu = uniform_law(levels)
    f1 = lift_level_function(levels, mu, f, 1)
    # each singleton averages f over the pairs containing it, weighted by
    # the reverse (up) channel
    want = np.zeros(4)
    top = level_distribution(levels, mu, 2)
    low = level_distribution(levels, mu, 1)
    down = down_matrix(levels, 2, 1)
    for i, mask in enumerate(levels.faces[1]):
        acc = 0.0
        for t, tmask in enumerate(levels.faces[2]):
            if mask & tmask == mask:
                acc += top[t] * down[t, i] * f[t]
        want[i] = acc / low[i]
    assert np.allclose(f1, want, atol=1e-12)
    assert np.allclose(up_matrix(levels, mu, 1) @ f, want, atol=1e-12)
