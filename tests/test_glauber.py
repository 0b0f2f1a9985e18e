import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glab.capacity import CapacityError
from glab.exact import (
    DenseDistribution,
    FieldAssignment,
    enumerate_gibbs,
    entropy_functional,
    flip,
    magnetize,
    magnetized_partition,
    uniform_distribution,
)
from glab.glauber import (
    compare_identity_check,
    dirichlet_form,
    dirichlet_form_inner,
    dirichlet_form_sites,
    dobrushin_contraction_norm,
    dobrushin_mls_check,
    dobrushin_mls_threshold,
    margin_monotonicity_violation,
    marginal_lower_bound,
    mixing_time_exact,
    mls_estimate,
    mls_min_estimate,
    mls_mixing_bound,
    mls_ratio,
    power_iteration_two_norm,
    run_chain,
    stationary_distance_profile,
    tensorization_chain_check,
    tensorization_change_base_check,
    transition_matrix,
    verification_bounds_check,
)
from glab.model import IsingModel, cycle_edges

from oracles import oracle_pinned_dobrushin_worst, oracle_tmix, oracle_transition
from util import random_dist, random_gibbs, random_positive_f, regime_grid

SINGLE_EDGE = IsingModel(n=2, edges=[(0, 1)], beta=0.5, lam=(1.0, 1.0))


# ---------------------------------------------------------------------------
# transition matrix


def test_single_edge_transition_entry():
    d = enumerate_gibbs(SINGLE_EDGE)
    tm = transition_matrix(d)
    p = tm.dense()
    # P(++ -> +-) = (1/2) * p(+-)/(p(+-) + p(++)) = (1/2)(1/3)/(1/2) = 1/3
    assert p[3, 1] == pytest.approx(1 / 3, rel=1e-12)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_transition_matches_oracle():
    for seed in range(6):
        d = random_gibbs(3, seed)
        got = transition_matrix(d).dense()
        assert np.allclose(got, oracle_transition(d), atol=1e-12)


def test_detailed_balance_random():
    for seed in range(6):
        d = random_gibbs(3, seed + 10)
        tm = transition_matrix(d)  # validation runs inside
        p = tm.dense()
        flow = tm.stationary[:, None] * p
        assert np.max(np.abs(flow - flow.T)) < 1e-12


def test_spectrum_real_and_bounded():
    d = random_gibbs(4, 3)
    eigs = transition_matrix(d).symmetrized_eigenvalues()
    assert np.all(eigs >= -1e-9)
    assert np.max(eigs) == pytest.approx(1.0, abs=1e-10)


def test_partial_support_stays_put():
    d = DenseDistribution(2, np.array([0.5, 0.0, 0.0, 0.5]))
    tm = transition_matrix(d)
    # both neighbors of each support state have zero mass
    assert np.allclose(tm.dense(), np.eye(2))


# ---------------------------------------------------------------------------
# Dirichlet forms and the MLS ratio


def test_dirichlet_single_vertex_value():
    d = uniform_distribution(1)
    f = np.array([1.0, math.e])
    assert dirichlet_form(d, f) == pytest.approx((math.e - 1) / 4, rel=1e-12)


def test_dirichlet_routes_agree():
    for seed in range(8):
        d = random_gibbs(3, seed + 20)
        f = random_positive_f(3, seed + 30)
        a = dirichlet_form(d, f)
        assert dirichlet_form_sites(d, f) == pytest.approx(a, rel=1e-10, abs=1e-13)
        assert dirichlet_form_inner(d, f) == pytest.approx(a, rel=1e-10, abs=1e-13)


def test_mls_ratio_scale_invariant():
    d = random_gibbs(3, 41)
    f = random_positive_f(3, 42)
    base = mls_ratio(d, f)
    for c in (1e-3, 1.0, 1e3):
        assert mls_ratio(d, c * f) == pytest.approx(base, rel=1e-9)


def test_mls_estimate_is_upper_bound():
    d = random_gibbs(3, 51)
    est = mls_estimate(d, restarts=6, seed=0)
    assert est.rho_hat > 0
    # the reported value is achieved by the reported minimizer
    assert mls_ratio(d, est.minimizer) == pytest.approx(est.rho_hat, rel=1e-6)
    # and no sampled f may beat a true upper bound by being below it
    for seed in range(20):
        f = random_positive_f(3, seed + 800)
        assert mls_ratio(d, f) >= est.rho_hat - 1e-6


def test_mls_estimate_deterministic():
    d = random_gibbs(3, 52)
    a = mls_estimate(d, restarts=4, seed=9)
    b = mls_estimate(d, restarts=4, seed=9)
    assert a.rho_hat == b.rho_hat


def test_mls_min_estimate_table():
    d = random_gibbs(3, 53)
    out = mls_min_estimate(d, restarts=2, seed=1)
    assert out.value <= min(v for _, v in out.table) + 1e-12
    keys = [k for k, _ in out.table]
    assert ":" in keys[0]
    assert len(keys) == len(set(keys))
    # empty pinning is included
    assert any(k == ":" for k in keys)


def test_mls_mixing_bound_frozen():
    val = mls_mixing_bound(1.0, math.exp(-math.e), 1 / math.sqrt(2))
    assert val == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        mls_mixing_bound(1.0, 0.9, 0.25)  # mu_min must be <= 1/e
    with pytest.raises(ValueError):
        mls_mixing_bound(0.0, 0.01, 0.25)


# ---------------------------------------------------------------------------
# exact mixing time


def test_mixing_single_vertex():
    d = enumerate_gibbs(IsingModel(n=1, edges=[], beta=1.0, lam=(3.0,)))
    assert mixing_time_exact(d, 0.1) == 1


def test_mixing_matches_oracle_on_cycle():
    d = enumerate_gibbs(IsingModel(n=4, edges=cycle_edges(4), beta=0.5, lam=(1.0,) * 4))
    eps = 0.25
    assert mixing_time_exact(d, eps) == oracle_tmix(d, eps)


def test_mixing_flip_invariant():
    d = random_gibbs(3, 61)
    chi = [-1, 1, -1]
    assert mixing_time_exact(d, 0.2) == mixing_time_exact(flip(d, chi), 0.2)


def test_worst_tv_monotone():
    d = random_gibbs(3, 62)
    tm = transition_matrix(d)
    power = tm.dense()
    prev = stationary_distance_profile(tm, power)
    for _ in range(4):
        power = power @ tm.dense()
        cur = stationary_distance_profile(tm, power)
        assert cur <= prev + 1e-12
        prev = cur


def test_mixing_support_cap(monkeypatch):
    import glab.glauber as gl

    d = random_gibbs(3, 63)
    # 8 support states need 7 * 8 * 8^2 = 3584 bytes of dense arrays
    monkeypatch.setattr(gl, "MIXING_BYTE_BUDGET", 3584)
    assert mixing_time_exact(d, 0.25) >= 1
    monkeypatch.setattr(gl, "MIXING_BYTE_BUDGET", 3583)
    with pytest.raises(CapacityError, match="8 support states needs 3584 bytes"):
        mixing_time_exact(d, 0.25)


# ---------------------------------------------------------------------------
# chain simulation


def test_chain_modes_agree_exactly():
    model = IsingModel(n=4, edges=cycle_edges(4), beta=0.7, lam=(0.5, 1.0, 2.0, 1.0))
    dist = enumerate_gibbs(model)
    a = run_chain(model, 200, seed=5)
    b = run_chain(dist, 200, seed=5)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.steps, b.steps)


def test_chain_determinism_and_thinning():
    model = IsingModel(n=3, edges=cycle_edges(3), beta=0.8, lam=(1.0,) * 3)
    a = run_chain(model, 100, seed=3, thin=10)
    b = run_chain(model, 100, seed=3, thin=10)
    assert np.array_equal(a.states, b.states)
    assert list(a.steps) == list(range(0, 101, 10))
    assert a.rows()[0] == (0, 0)


def test_chain_start_state():
    model = IsingModel(n=3, edges=[], beta=1.0, lam=(1.0,) * 3)
    t = run_chain(model, 0, seed=1, init=5)
    assert t.states[0] == 5
    assert t.start == 5


def test_chain_long_run_frequency():
    # single site, lambda = 3: long-run plus frequency 3/4
    model = IsingModel(n=1, edges=[], beta=1.0, lam=(3.0,))
    trace = run_chain(model, 100_000, seed=11)
    freq = float(np.mean(trace.states[1000:]))
    sigma = math.sqrt(0.75 * 0.25 / 99_000)
    # correlated samples; allow a generous window
    assert abs(freq - 0.75) < 6 * sigma


def test_chain_rejects_zero_conditional():
    from glab.exact import point_mass

    # starting off-support where every neighbor is off-support too
    with pytest.raises(ValueError):
        run_chain(point_mass(3, 0), 5, seed=0, init=7)


def test_chain_rejects_other_sources():
    with pytest.raises(TypeError):
        run_chain("nope", 3, seed=0)


# ---------------------------------------------------------------------------
# comparison identities


def test_compare_identity_random():
    for seed in range(6):
        d = random_gibbs(3, seed + 70)
        f = random_positive_f(3, seed + 80)
        for v in range(3):
            rep = compare_identity_check(d, 0.5, v, f)
            assert rep.passed, rep.to_json()


def test_compare_identity_single_site():
    d = random_dist(1, 5)
    f = random_positive_f(1, 6)
    rep = compare_identity_check(d, 0.3, 0, f)
    assert rep.passed
    # both sides equal theta times the site entropy term of the tilted law
    from glab.exact import FieldAssignment, expected_site_ment, magnetize

    pi = magnetize(d, FieldAssignment.uniform(1, 0.3))
    assert rep.lhs == pytest.approx(0.3 * expected_site_ment(pi, f, 0), rel=1e-10)


def test_margin_monotonicity():
    for seed in range(5):
        d = random_gibbs(3, seed + 90)
        assert margin_monotonicity_violation(d, 0.5) <= 1e-12


def test_tensorization_chain():
    for seed in range(5):
        d = random_gibbs(3, seed + 100)
        f = random_positive_f(3, seed + 110)
        rep = tensorization_chain_check(d, 0.5, f)
        assert rep.passed, rep.to_json()
        for v in range(3):
            assert tensorization_change_base_check(d, 0.5, v, f).passed


def test_tensorization_constant_is_partition():
    d = random_gibbs(2, 115)
    f = random_positive_f(2, 116)
    rep = tensorization_change_base_check(d, 0.4, 0, f)
    assert rep.constant == pytest.approx(1.0 / magnetized_partition(d, 0.4), rel=1e-12)


# ---------------------------------------------------------------------------
# Dobrushin route to an MLS bound


def test_contraction_norm_single_edge():
    d = enumerate_gibbs(SINGLE_EDGE)
    assert dobrushin_contraction_norm(d) == pytest.approx(1 / 3, abs=1e-9)
    assert dobrushin_mls_threshold(d) == pytest.approx(1 / 27, abs=1e-9)


def test_power_iteration_matches_numpy():
    gen = np.random.default_rng(8)
    for _ in range(5):
        m = gen.normal(size=(5, 5))
        assert power_iteration_two_norm(m) == pytest.approx(
            np.linalg.norm(m, 2), rel=1e-8
        )


def test_dobrushin_mls_inequality():
    d = enumerate_gibbs(SINGLE_EDGE)
    fs = [random_positive_f(2, s) for s in range(10)]
    reps = dobrushin_mls_check(d, fs)
    assert len(reps) == 10
    assert all(r.passed for r in reps)
    thr = dobrushin_mls_threshold(d)
    for f, rep in zip(fs, reps):
        assert rep.lhs == pytest.approx(thr * entropy_functional(d, f), rel=1e-12)


def test_dobrushin_not_applicable():
    from glab.model import complete_edges

    model = IsingModel(n=4, edges=complete_edges(4), beta=8.0, lam=(1.0,) * 4)
    d = enumerate_gibbs(model)
    assert dobrushin_contraction_norm(d) >= 1.0
    reps = dobrushin_mls_check(d, [random_positive_f(4, 1)])
    assert len(reps) == 1
    assert reps[0].passed
    assert "not applicable" in reps[0].witness


def test_marginal_lower_bound_brute():
    d = random_gibbs(3, 121)
    import itertools

    worst = 1.0
    for v in range(3):
        others = [u for u in range(3) if u != v]
        for spins in itertools.product((-1, 1), repeat=2):
            sel_num = np.ones(8, dtype=bool)
            for u, s in zip(others, spins):
                sel_num &= ((np.arange(8) >> u) & 1) == (1 if s == 1 else 0)
            den = float(d.prob[sel_num].sum())
            for sv in (0, 1):
                sel = sel_num & (((np.arange(8) >> v) & 1) == sv)
                worst = min(worst, float(d.prob[sel].sum()) / den)
    assert marginal_lower_bound(d) == pytest.approx(worst, rel=1e-12)


# ---------------------------------------------------------------------------
# instance verification


def test_verification_example_passes():
    model = IsingModel(n=4, edges=cycle_edges(4), beta=0.6, lam=(0.5, 2.0, 0.5, 2.0))
    rep = verification_bounds_check(model, 0.5)
    assert rep.passed, rep.to_json()
    assert rep.in_interior
    assert rep.lambda_extremes_ok
    assert rep.c_hypothesis == pytest.approx(0.5)
    assert rep.alpha >= rep.alpha_bound
    assert rep.dobrushin_worst_norm <= rep.dobrushin_bound + 1e-12
    assert rep.mu_min >= rep.mu_min_bound


def test_verification_unpinned_norm_bounds_every_pinning():
    from glab.glauber import EXTREME_FIELD
    from glab.model import flip_direction, star_edges

    models = [IsingModel(n=6, edges=star_edges(6), beta=0.9, lam=(2.0, 0.5) * 3),
              IsingModel(n=6, edges=cycle_edges(6), beta=0.6, lam=(0.5, 2.0) * 3)]
    models += [model for _, model in regime_grid()]
    for model in models:
        phi = np.where(flip_direction(model) == 1, EXTREME_FIELD, 1.0 / EXTREME_FIELD)
        extreme = magnetize(enumerate_gibbs(model), FieldAssignment.full(phi))
        single = verification_bounds_check(model, 0.5).dobrushin_worst_norm
        swept = oracle_pinned_dobrushin_worst(extreme)
        assert swept >= single
        assert abs(swept - single) <= 1e-13 * single + 1e-15, (model, swept, single)


def test_verification_flags_out_of_interior():
    model = IsingModel(n=3, edges=cycle_edges(3), beta=0.1, lam=(1.0,) * 3)
    rep = verification_bounds_check(model, 0.5)
    assert not rep.in_interior


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=20, deadline=None)
def test_dirichlet_nonnegative(seed):
    d = random_dist(3, seed)
    f = random_positive_f(3, seed + 1)
    assert dirichlet_form(d, f) >= -1e-12
