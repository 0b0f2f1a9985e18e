import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import glab.capacity as capacity
import glab.transform as transform
from glab.capacity import CapacityError
from glab.exact import (
    DenseDistribution,
    Pinning,
    condition,
    enumerate_gibbs,
    entropy_functional,
    magnetize,
    total_variation,
)
from glab.spectral import signed_influence_matrix
from glab.transform import (
    bucket_field_average,
    k_transform,
    ktrans_influence_check,
    lift_function,
    lifted_entropy_identity,
    pinning_pushforward_pair,
    star_pushforward,
)

from oracles import oracle_k_transform, oracle_k_transform_weights, star_projection_table
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
    td = k_transform(d, 2)
    # -1 keeps its whole weight on the all-minus bucket; +1 splits over
    # the k single-plus patterns; the two-plus pattern 0b11 has no mass
    # and is not held
    assert td.states.tolist() == [0b00, 0b01, 0b10]
    assert td.prob == pytest.approx([d.prob[0], d.prob[1] / 2.0, d.prob[1] / 2.0], rel=1e-12)


def test_lift_function_composes():
    f = random_positive_f(2, 4)
    td = k_transform(random_dist(2, 4), 2)
    _, base_index, _ = star_projection_table(2, 2)
    assert np.array_equal(lift_function(td, f), f[base_index[td.states]])


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
        assert rep["pass"], rep
        assert rep["max_cross_violation"] <= 1e-9
        assert rep["max_self_violation"] <= 1e-9
        assert rep["max_rowsum_violation"] <= 1e-9


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
            td = k_transform(d, k)
            lifted, base_index = oracle_k_transform(d, k)
            # the held states are the feasible ones, in increasing order,
            # and every other lifted configuration has no mass
            feasible, _, _ = star_projection_table(d.n, k)
            assert np.array_equal(td.states, np.flatnonzero(feasible))
            assert np.array_equal(td.base_index, base_index[td.states])
            weights = oracle_k_transform_weights(d, k)
            assert np.all(weights[~feasible] == 0.0)
            # the weights agree bit for bit; the two totals they are
            # normalized by (math.fsum here, a pairwise sum over the whole
            # cube there) may differ in the last place
            assert transform.feasible_lift(d, k)[1].tobytes() == weights[feasible].tobytes()
            np.testing.assert_allclose(td.prob, lifted.prob[td.states], rtol=1e-15, atol=0.0)


def _lift_cases():
    """(table, k) for the regime grid and random tables with zeros, at
    k = 1, 2, 3 with nk <= 12; the last table has no plus mass at site 0."""
    dists = [enumerate_gibbs(model) for _, model in regime_grid()]
    dists += [random_dist(n, 150 + n, zero_frac=0.3) for n in (2, 3, 4)]
    w = random_dist(3, 160).prob.copy()
    w[1::2] = 0.0
    dists.append(DenseDistribution(3, w / w.sum()))
    return [(d, k) for d in dists for k in (1, 2, 3) if d.n * k <= 12]


def _pins(n, k):
    """Every single-copy pin of both signs, a two-copy pin across buckets
    (or two copies of one bucket when n = 1), a site past the last copy,
    and two +1 copies in one bucket, which the lift never has, when k >= 2."""
    pins = [Pinning((s,), (spin,)) for s in range(n * k) for spin in (-1, 1)]
    pins.append(Pinning((0, min(k, n * k - 1)), (1, -1)) if n * k > 1 else Pinning((0,), (1,)))
    pins.append(Pinning((n * k,), (1,)))
    if k >= 2:
        pins.append(Pinning((0, 1), (1, 1)))
    return pins


def _oracle_pushforward(lifted, base_index, n):
    return DenseDistribution(n, np.bincount(base_index, weights=lifted.prob, minlength=1 << n))


def test_lift_matches_dense_oracle():
    raised = 0
    for case, (d, k) in enumerate(_lift_cases()):
        td = k_transform(d, k)
        lifted, base_index = oracle_k_transform(d, k)
        for i in range(3):
            f = random_positive_f(d.n, 170 + 10 * case + i)
            _, got = lifted_entropy_identity(td, f)
            assert got == pytest.approx(entropy_functional(lifted, f[base_index]), rel=1e-12)
        assert total_variation(star_pushforward(td), _oracle_pushforward(lifted, base_index, d.n)) <= 1e-12
        for pin in _pins(d.n, k):
            try:
                want = _oracle_pushforward(condition(lifted, pin), base_index, d.n)
            except ValueError as exc:
                with pytest.raises(ValueError) as got_exc:
                    pinning_pushforward_pair(td, pin)
                assert str(got_exc.value) == str(exc)
                raised += 1
                continue
            lhs, rhs = pinning_pushforward_pair(td, pin)
            assert total_variation(lhs, want) <= 1e-12
            assert total_variation(rhs, want) <= 1e-12
    # 60 out-of-range pins, 38 infeasible ones (22 cases at k = 2, 16 at
    # k = 3), and the 9 that pin a copy of site 0 to +1 in the last table
    assert raised == 107


def test_lifted_influence_matches_dense_oracle(monkeypatch):
    gen = np.random.default_rng(190)
    separated = 0
    for d, k in _lift_cases():
        td = k_transform(d, k)
        lifted, _ = oracle_k_transform(d, k)
        phi = np.exp(gen.uniform(math.log(0.25), math.log(4.0), size=(d.n, k)))
        want = signed_influence_matrix(magnetize(lifted, phi.reshape(-1)))
        got = transform._lifted_influence(td, phi)
        # relative to the largest entry; the 1e-15 covers the matrices that
        # are 0 in exact arithmetic (k = 1 on the product tables at beta = 1),
        # which both routes leave as a few ulps
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)) + 1e-15

        # the report read off the dense matrix: the same verdict, violations
        # within what the matrix difference can move, and the same
        # witnesses unless the oracle's largest gap ties its runner-up to
        # within that much, where our witness must still attain the maximum
        rep = ktrans_influence_check(td, phi)
        with monkeypatch.context() as m:
            m.setattr(transform, "_lifted_influence", lambda tdist, phi: want)
            oracle_rep = ktrans_influence_check(td, phi)
        assert rep["pass"] == oracle_rep["pass"]
        # influences lie in [-1, 1], and a row sum adds nk of them
        tol = 1e-12 * d.n * k
        inf_base = signed_influence_matrix(magnetize(d, bucket_field_average(phi)))
        oracle_gaps = transform._violation_gaps(want, inf_base, phi)
        for kind, gaps in zip(("cross", "self", "rowsum"), oracle_gaps):
            top = oracle_rep[f"max_{kind}_violation"]
            assert rep[f"max_{kind}_violation"] == pytest.approx(top, rel=0.0, abs=tol)
            witness, oracle_witness = rep[f"{kind}_witness"], oracle_rep[f"{kind}_witness"]
            if oracle_witness is None:
                assert witness is None
                continue
            assert gaps[witness] >= top - tol
            if np.sort(gaps, axis=None)[-2] < top - 2 * tol:
                assert witness == oracle_witness
                separated += 1
    # on x86 with OpenBLAS, 102 of the witnesses stand clear of the runner-up
    assert separated >= 90, separated


def test_k_transform_refuses_lifts_past_the_exact_limit(monkeypatch):
    def no_lift(dist, k):
        raise AssertionError("the lift was built before the capacity check")

    monkeypatch.setattr(capacity, "EXACT_LIMIT", 7)
    monkeypatch.setattr(transform, "feasible_lift", no_lift)
    d = random_dist(4, 200)
    with pytest.raises(CapacityError):
        k_transform(d, 2)
    monkeypatch.undo()
    monkeypatch.setattr(capacity, "EXACT_LIMIT", 8)
    assert k_transform(d, 2).states.size == 3 ** 4
