import itertools

import numpy as np
import pytest

from glab.capacity import CapacityError
from glab.exact import entropy_functional
from glab.factorization import kappa, ubf_average
from glab.spectral import homogenize
from glab.walks import (
    build_levels,
    down_matrix,
    entropy_contraction_check,
    kl_by_level,
    level_distribution,
    levels_from_homogenized,
    lift_level_function,
    local_entropy_decay_check,
    push_down,
    ubf_ed_identity,
    ubf_ed_identity_check,
    uniform_slice_levels,
    up_matrix,
)

from oracles import mask_bits, oracle_down_matrix, oracle_levels, oracle_up_matrix
from util import random_dist, random_gibbs, random_positive_f


def seeded_nu(levels, seed):
    gen = np.random.default_rng(seed)
    raw = levels.top_prob * np.exp(gen.normal(0.0, 1.0, size=levels.top_prob.size))
    return raw / raw.sum()


def test_mask_bits():
    assert mask_bits(0b1011) == (0, 1, 3)
    assert mask_bits(0) == ()


def test_uniform_slice_structure():
    levels = uniform_slice_levels(4, 2)
    assert levels.face_count(2) == 6
    assert levels.face_count(1) == 4
    assert levels.face_count(0) == 1
    assert np.allclose(levels.top_prob, 1 / 6)
    # every level law of the uniform slice is uniform
    for j in (0, 1, 2):
        assert np.allclose(level_distribution(levels, j), 1.0 / levels.face_count(j))


def test_down_matrix_stochastic():
    levels = uniform_slice_levels(5, 3)
    for frm, to in [(3, 2), (2, 1), (3, 1)]:
        m = down_matrix(levels, frm, to)
        assert np.allclose(m.sum(axis=1), 1.0)
        assert np.all(m >= 0)


def test_up_matrix_stochastic():
    levels = levels_from_homogenized(homogenize(random_gibbs(3, 3)))
    for j in range(levels.k):
        m = up_matrix(levels, j)
        assert np.allclose(m.sum(axis=1), 1.0)


def test_push_down_matches_matrix():
    levels = uniform_slice_levels(5, 3)
    nu = seeded_nu(levels, 1)
    direct = push_down(levels, nu, 1)
    via = nu @ down_matrix(levels, 3, 1)
    assert np.allclose(direct, via, atol=1e-14)
    assert float(direct.sum()) == pytest.approx(1.0, abs=1e-12)


def test_level_distribution_is_top_pushed_down():
    levels = levels_from_homogenized(homogenize(random_gibbs(3, 8)))
    for j in range(levels.k + 1):
        assert np.allclose(
            level_distribution(levels, j), push_down(levels, levels.top_prob, j), atol=1e-13
        )


def test_build_levels_rejects_bad_faces():
    with pytest.raises(ValueError):
        build_levels(3, 2, [0b011, 0b001], [0.5, 0.5])  # mixed face sizes
    with pytest.raises(ValueError):
        build_levels(3, 2, [0b011, 0b011], [0.5, 0.5])  # duplicate face
    with pytest.raises(ValueError, match="outside ground set"):
        build_levels(3, 2, [0b011, 0b1001], [0.5, 0.5])
    with pytest.raises(ValueError, match="outside ground set"):
        build_levels(3, 2, [0b011, -1], [0.5, 0.5])


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
        return build_levels(n, k, faces, probs), faces, probs
    dist = random_gibbs(n, 40 + n) if kind == "gibbs" else random_dist(n, 50 + n, zero_frac=0.3)
    hom = homogenize(dist)
    _, faces, probs = hom
    return levels_from_homogenized(hom), faces, probs


@pytest.mark.parametrize("kind,n,k", ORACLE_GRID)
def test_levels_match_combination_loops(kind, n, k):
    levels, faces, probs = _grid_levels(kind, n, k)
    want_faces, want_prob = oracle_levels(k, faces, probs)
    assert levels.faces == want_faces
    np.testing.assert_allclose(levels.top_prob, want_prob, rtol=1e-12, atol=0)
    f = np.exp(np.random.default_rng(n).normal(size=levels.top_prob.size))
    for frm in range(k + 1):
        for to in range(frm + 1):
            np.testing.assert_allclose(
                down_matrix(levels, frm, to), oracle_down_matrix(levels, frm, to),
                rtol=1e-12, atol=0)
        up = oracle_up_matrix(levels, frm)
        np.testing.assert_allclose(up_matrix(levels, frm), up, rtol=1e-12, atol=0)
        np.testing.assert_allclose(lift_level_function(levels, f, frm), up @ f,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            level_distribution(levels, frm),
            levels.top_prob @ oracle_down_matrix(levels, k, frm), rtol=1e-12, atol=0)


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
    levels = levels_from_homogenized(homogenize(random_gibbs(4, 11)))
    nu = seeded_nu(levels, 2)
    series = kl_by_level(levels, nu)
    # pushing through a channel can only lose divergence
    assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))
    assert series[-1] == pytest.approx(0.0, abs=1e-12)


def test_uniform_slice_contraction():
    levels = uniform_slice_levels(6, 3)
    for seed in range(10):
        nu = seeded_nu(levels, seed)
        for j in (1, 2):
            rep = entropy_contraction_check(levels, nu, j, alpha=1.0)
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
    from glab.exact import distribution_from_weights

    prod = distribution_from_weights(w)
    levels = levels_from_homogenized(homogenize(prod))
    for seed in range(5):
        nu = seeded_nu(levels, seed + 50)
        f = np.exp(np.random.default_rng(seed + 60).normal(size=levels.top_prob.size))
        for j in range(1, levels.k):
            assert entropy_contraction_check(levels, nu, j, alpha=1.0).passed
            assert local_entropy_decay_check(
                levels, f, j, contraction=kappa(j, levels.k, 1.0)
            ).passed


def test_walk_density_identity():
    # the up-walk average of f is the density of (mu f) D against mu D,
    # with the down matrix D built face by face
    levels = levels_from_homogenized(homogenize(random_gibbs(4, 17)))
    f = random_positive_f_for(levels, 18)
    nu = levels.top_prob * f
    for j in range(levels.k + 1):
        down = oracle_down_matrix(levels, levels.k, j)
        np.testing.assert_allclose(lift_level_function(levels, f, j),
                                   (nu @ down) / (levels.top_prob @ down), rtol=1e-12)


def random_positive_f_for(levels, seed):
    gen = np.random.default_rng(seed)
    return np.exp(gen.normal(0.0, 1.0, size=levels.top_prob.size))


def test_ubf_ed_identity_all_j():
    d = random_gibbs(4, 23)
    f = random_positive_f(4, 24)
    levels = levels_from_homogenized(homogenize(d))
    for j in range(1, 5):
        lhs, rhs = ubf_ed_identity(d, levels, f, j)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
        assert ubf_ed_identity_check(d, levels, f, j).passed
    # j = n is the plain entropy
    lhs, _ = ubf_ed_identity(d, levels, f, 4)
    assert lhs == pytest.approx(entropy_functional(d, f), rel=1e-10)
    # the level structure must be that of the distribution's homogenization
    with pytest.raises(ValueError, match="homogenized 4-site"):
        ubf_ed_identity(d, levels_from_homogenized(homogenize(random_gibbs(3, 23))), f, 2)


def test_ubf_ed_identity_matches_ubf_average():
    d = random_gibbs(3, 29)
    f = random_positive_f(3, 30)
    levels = levels_from_homogenized(homogenize(d))
    for j in (1, 2, 3):
        lhs, _ = ubf_ed_identity(d, levels, f, j)
        assert lhs == pytest.approx(ubf_average(d, j, f), rel=1e-12)


def test_lift_level_function_averages():
    levels = uniform_slice_levels(4, 2)
    f = np.arange(1.0, 7.0)
    f1 = lift_level_function(levels, f, 1)
    # each singleton averages f over the pairs containing it, weighted by
    # the reverse (up) channel
    want = np.zeros(4)
    top = level_distribution(levels, 2)
    low = level_distribution(levels, 1)
    down = down_matrix(levels, 2, 1)
    for i, mask in enumerate(levels.faces[1]):
        acc = 0.0
        for t, tmask in enumerate(levels.faces[2]):
            if mask & tmask == mask:
                acc += top[t] * down[t, i] * f[t]
        want[i] = acc / low[i]
    assert np.allclose(f1, want, atol=1e-12)
    assert np.allclose(up_matrix(levels, 1) @ f, want, atol=1e-12)
