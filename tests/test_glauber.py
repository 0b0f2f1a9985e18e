import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from glab.capacity import CapacityError
from glab.exact import (
    DenseDistribution,
    FieldAssignment,
    enumerate_gibbs,
    entropy_functional,
    flip,
    magnetize,
    uniform_distribution,
)
from glab.glauber import (
    _mixing_bracket,
    compare_identity_check,
    dirichlet_form,
    dirichlet_form_inner,
    dirichlet_form_sites,
    dobrushin_contraction_norm,
    dobrushin_mls_check,
    dobrushin_mls_threshold,
    marginal_lower_bound,
    mixing_time_exact,
    mls_estimate,
    mls_mixing_bound,
    orbit_representatives,
    power_iteration_two_norm,
    run_chain,
    tensorization_chain_check,
    transition_matrix,
    verification_bounds_check,
)
from glab.model import IsingModel, complete_edges, cycle_edges, path_edges, star_edges

from oracles import (
    conditional_plus,
    mls_ratio,
    oracle_compare_subset_route,
    oracle_mixing_bracket,
    oracle_mls_estimate_bfgs,
    oracle_pinned_dobrushin_worst,
    oracle_run_chain,
    oracle_tmix,
    oracle_transition,
    oracle_tv_profile,
    stationary_distance_profile,
    table_of,
)
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
    assert a.runs == b.runs
    assert len(a.runs) == a.restarts == 4
    assert a.rho_hat == min(run.rho for run in a.runs)


def test_mls_estimate_runs_the_module_minimize(monkeypatch):
    # perfbench/tracer.py counts L-BFGS-B runs by wrapping glauber.minimize;
    # mls_estimate must look the name up there on every call
    import glab.glauber as gl

    real = gl.minimize
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return real(*args, **kwargs)

    monkeypatch.setattr(gl, "minimize", counted)
    est = mls_estimate(random_gibbs(3, 53), restarts=3, seed=1)
    assert calls == ["L-BFGS-B"] * 3
    assert len(est.runs) == 3


@pytest.fixture(scope="module")
def grid_estimates():
    """(dist, estimate) on every regime-grid model, seed 7, 8 restarts,
    searched with floating-point overflow and invalid values raising."""
    out = []
    for _, model in regime_grid():
        d = enumerate_gibbs(model)
        with np.errstate(over="raise", invalid="raise"):
            out.append((d, mls_estimate(d, restarts=8, seed=7)))
    return out


def test_mls_estimate_never_overflows_on_regime_grid(grid_estimates):
    for _, est in grid_estimates:
        assert math.isfinite(est.rho_hat) and est.rho_hat > 0
        assert np.all(np.isfinite(est.minimizer))
        assert all(math.isfinite(run.rho) and run.nit >= 1 for run in est.runs)


def test_mls_estimate_not_above_bfgs_oracle(grid_estimates):
    for d, est in grid_estimates:
        old, _ = oracle_mls_estimate_bfgs(d, restarts=8, seed=7)
        assert est.rho_hat <= old * (1 + 1e-6)


def test_mls_estimate_below_spectral_limit(grid_estimates):
    # Bobkov-Tetali: rho_0 <= 2 * gap.  On cycle-3 and cycle-5 at beta 1.5
    # the infimum is this spectral limit itself, which the ratio approaches
    # from above as f flattens toward a constant: rho_hat / (2 gap) - 1
    # reads +7.8e-9 and -1.35e-6 there, and the slack covers the first.
    for d, est in grid_estimates:
        gap = 1.0 - transition_matrix(d).symmetrized_eigenvalues()[-2]
        assert est.rho_hat <= 2.0 * gap * (1 + 1e-6)


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


def test_mixing_bracket_reads_every_step():
    eps = 0.25
    for d in (random_gibbs(3, 62),
              enumerate_gibbs(IsingModel(n=4, edges=cycle_edges(4), beta=0.5, lam=(1.0,) * 4))):
        t_mix, tvs = _mixing_bracket(d, eps)
        assert t_mix == mixing_time_exact(d, eps)
        assert tvs.shape == (t_mix + 1,)
        tm = transition_matrix(d)
        for t, tv in enumerate(tvs):
            want = stationary_distance_profile(tm, np.linalg.matrix_power(tm.dense(), t))
            assert tv == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert np.all(tvs[:-1] > eps) and tvs[-1] <= eps


def _mixing_grid():
    """(table, full support) per instance of the orbit-route oracle checks."""
    def gibbs(label, n, edges, beta, lam):
        d = enumerate_gibbs(IsingModel(n=n, edges=edges, beta=beta, lam=lam))
        return pytest.param(d, True, id=label)

    out = []
    for n in range(4, 10):
        alt = tuple((2.0, 0.5)[v % 2] for v in range(n))
        out.append(gibbs(f"cycle{n}-uniform", n, cycle_edges(n), 0.6, (1.0,) * n))
        out.append(gibbs(f"cycle{n}-alternating", n, cycle_edges(n), 0.6, alt))
    out.append(gibbs("star6", 6, star_edges(6), 0.9, (1.0,) * 6))
    for beta in (1.3, 2.5):
        out.append(gibbs(f"K5-beta{beta}", 5, complete_edges(5), beta, (1.0,) * 5))
    out.append(gibbs("path6", 6, path_edges(6), 0.6, (1.0,) * 6))
    for n, seed in ((3, 62), (4, 64), (5, 65)):
        out.append(pytest.param(random_gibbs(n, seed), True, id=f"random-gibbs-{n}-{seed}"))
    out.append(pytest.param(random_dist(4, 3, zero_frac=0.3), False, id="random-dist-partial"))
    return out


@pytest.mark.parametrize("d,full", _mixing_grid())
def test_mixing_orbit_route_matches_oracles(d, full):
    eps = 0.25
    tm = transition_matrix(d)
    assert connected_components(tm.matrix, directed=False, return_labels=False) == 1
    assert full == d.full_support()
    t_mix, tvs = _mixing_bracket(d, eps)
    want_t, bracket = oracle_mixing_bracket(d, eps)
    assert t_mix == want_t
    if full:
        assert t_mix == oracle_tmix(d, eps)
    np.testing.assert_allclose(tvs, oracle_tv_profile(d, t_mix), rtol=1e-12, atol=0)
    for t, tv in bracket:
        if t <= t_mix:
            assert tvs[t] == pytest.approx(tv, rel=1e-12)


def test_mixing_orbit_route_steps_fewer_rows():
    d = enumerate_gibbs(IsingModel(n=6, edges=cycle_edges(6), beta=0.6, lam=(1.0,) * 6))
    # 64 states of the uniform 6-cycle: 13 bracelets, 8 orbits once the
    # global flip joins them
    assert orbit_representatives(d).size == 8
    assert orbit_representatives(flip(d, [1] * 6)).size == 64


def test_mixing_falls_back_to_every_row_at_the_threshold(monkeypatch):
    import glab.glauber as gl

    d = enumerate_gibbs(IsingModel(n=6, edges=cycle_edges(6), beta=0.6, lam=(1.0,) * 6))
    eps = float(oracle_tv_profile(d, 5)[5])
    want_t, _ = oracle_mixing_bracket(d, eps)
    calls = []
    real = gl._step_rows

    def spy(tm, rows, eps):
        calls.append(rows.size)
        return real(tm, rows, eps)

    monkeypatch.setattr(gl, "_step_rows", spy)
    assert mixing_time_exact(d, eps) == want_t
    assert calls == [8, 64]
    # the fallback is held to the byte budget too: 3 * 8 * 64 * 8 bytes
    # admit the orbit rows, not all 64
    monkeypatch.setattr(gl, "MIXING_BYTE_BUDGET", 3 * 8 * 64 * 8)
    with pytest.raises(CapacityError, match="64 support states needs 98304 bytes for 64 rows"):
        mixing_time_exact(d, eps)


def test_mixing_reducible_chain_raises():
    d = DenseDistribution(2, np.array([0.5, 0.0, 0.0, 0.5]))
    with pytest.raises(RuntimeError, match="reducible"):
        mixing_time_exact(d, 0.25)


def test_mixing_support_cap(monkeypatch):
    import glab.glauber as gl

    d = random_gibbs(3, 63)
    # a table of a model without symmetry steps all 8 support rows: three
    # live 8 x 8 float64 arrays are 3 * 8 * 8 * 8 = 1536 bytes
    monkeypatch.setattr(gl, "MIXING_BYTE_BUDGET", 1536)
    assert mixing_time_exact(d, 0.25) >= 1
    monkeypatch.setattr(gl, "MIXING_BYTE_BUDGET", 1535)
    with pytest.raises(CapacityError, match="8 support states needs 1536 bytes"):
        mixing_time_exact(d, 0.25)


def test_mixing_runs_past_the_dense_budget():
    import glab.glauber as gl

    d = enumerate_gibbs(IsingModel(n=13, edges=cycle_edges(13), beta=0.6, lam=(1.0,) * 13))
    m = d.prob.size
    # squaring dense m x m kernels held 7 of them, beyond the budget here
    assert 7 * 8 * m * m > gl.MIXING_BYTE_BUDGET
    assert mixing_time_exact(d, 0.25) == 35


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
    assert next(iter(a.rows())) == (0, 0)


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


CHAIN_MODELS = {
    1: IsingModel(n=1, edges=[], beta=1.0, lam=(3.0,)),
    3: IsingModel(n=3, edges=cycle_edges(3), beta=0.8, lam=(0.5, 1.0, 2.0)),
    4: IsingModel(n=4, edges=cycle_edges(4), beta=1.7, lam=(0.5, 1.0, 2.0, 1.0)),
    6: IsingModel(n=6, edges=star_edges(6), beta=0.6, lam=(2.0, 0.5, 0.5, 2.0, 1.3, 0.7)),
}


def _assert_chain_matches_oracle(source, steps, seed, init=None, thin=1):
    trace = run_chain(source, steps, seed, init=init, thin=thin)
    want_steps, want_states = oracle_run_chain(source, steps, seed, init=init, thin=thin)
    assert trace.steps.tolist() == want_steps
    assert trace.states.dtype == np.uint64
    assert trace.states.tolist() == want_states


@pytest.mark.parametrize("n", sorted(CHAIN_MODELS))
@pytest.mark.parametrize("mode", ["model", "table"])
def test_chain_matches_oracle(mode, n):
    model = CHAIN_MODELS[n]
    source = model if mode == "model" else enumerate_gibbs(model)
    for thin in (1, 3, 10):
        for init in (None, (1 << n) - 1):
            _assert_chain_matches_oracle(source, 700, seed=n + thin, init=init, thin=thin)
    # crosses the 2^14-step draw chunk twice
    _assert_chain_matches_oracle(source, 40_000, seed=21, init=1, thin=3)


def test_chain_matches_oracle_on_a_table_with_zeros():
    dist = random_dist(5, 17, zero_frac=0.3)
    init = int(np.argmax(dist.prob))
    _assert_chain_matches_oracle(dist, 3000, seed=2, init=init, thin=1)


def test_chain_64_sites_in_model_mode():
    model = IsingModel(n=64, edges=cycle_edges(64), beta=0.6, lam=(2.0, 0.5) * 32)
    trace = run_chain(model, 40_000, seed=7)
    assert trace.states.dtype == np.uint64
    assert int(trace.states.max()) >= 1 << 63
    want_steps, want_states = oracle_run_chain(model, 40_000, seed=7)
    assert trace.steps.tolist() == want_steps
    assert trace.states.tolist() == want_states
    _assert_chain_matches_oracle(model, 5000, seed=8, init=(1 << 64) - 1, thin=10)


def test_chain_refuses_65_sites_before_stepping(monkeypatch):
    import glab.glauber as gl

    def no_draws(*args, **kwargs):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(gl, "uniform_pairs", no_draws)
    model = IsingModel(n=65, edges=cycle_edges(65), beta=1.0, lam=(1.0,) * 65)
    with pytest.raises(ValueError, match="64-bit"):
        run_chain(model, 10, seed=0)


def test_chain_zero_conditional_matches_oracle():
    from glab.exact import point_mass

    for run in (run_chain, oracle_run_chain):
        with pytest.raises(ValueError, match="no conditional mass"):
            run(point_mass(3, 0), 5, seed=0, init=7)


# ---------------------------------------------------------------------------
# comparison identities


def test_compare_identity_random():
    # the boundary-average side against one conditioned table per block
    for seed in range(6):
        d = random_gibbs(3, seed + 70)
        f = random_positive_f(3, seed + 80)
        for v in range(3):
            got = compare_identity_check(d, 0.5, v, f).rhs
            want = oracle_compare_subset_route(d, 0.5, v, f)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_compare_identity_subset_route_matches_oracle():
    from glab.exact import enumerate_gibbs

    dists = [enumerate_gibbs(m) for _, m in regime_grid()]
    dists += [random_dist(n, 90 + n, zero_frac=0.3) for n in range(3, 7)]
    for d in dists:
        f = random_positive_f(d.n, 93)
        for theta in (0.3, 0.5, 0.75):
            for v in range(d.n):
                got = compare_identity_check(d, theta, v, f).lhs
                want = oracle_compare_subset_route(d, theta, v, f)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_compare_identity_single_site():
    d = random_dist(1, 5)
    f = random_positive_f(1, 6)
    rep = compare_identity_check(d, 0.3, 0, f)
    assert rep.passed
    # both sides equal theta times the site entropy term of the tilted law
    from glab.exact import FieldAssignment, as_values, boundary_split, magnetize

    pi = magnetize(d, FieldAssignment.uniform(1, 0.3))
    assert rep.lhs == pytest.approx(0.3 * boundary_split(pi, 0).expected_ment(as_values(f, 1)),
                                    rel=1e-10)


def test_margin_monotonicity():
    # magnetizing lowers every conditional plus-probability; the oracle
    # conditions both spin tables one boundary at a time
    import glab.glauber as gl

    for seed in range(5):
        d = random_gibbs(3, seed + 90)
        pi = magnetize(d, FieldAssignment.uniform(3, 0.5))
        mu_table, pi_table = table_of(d), table_of(pi)
        want = -math.inf
        for v in range(3):
            others = [u for u in range(3) if u != v]
            for boundary in itertools.product((-1, 1), repeat=2):
                fixed = dict(zip(others, boundary))
                want = max(want, conditional_plus(pi_table, 3, v, fixed)
                           - conditional_plus(mu_table, 3, v, fixed))
        assert gl._margin_violation(d, pi) == pytest.approx(want, rel=0.0, abs=1e-12)
        assert want <= 1e-12


def test_tensorization_chain():
    for seed in range(5):
        d = random_gibbs(3, seed + 100)
        f = random_positive_f(3, seed + 110)
        [rep] = tensorization_chain_check(d, 0.5, [f])
        assert rep.passed, rep.to_json()


def test_tensorization_chain_fails_on_any_failing_vertex(monkeypatch):
    # CheckReport.le's slack is relative: vertex 0 has the larger gap and
    # passes at scale 1, vertex 1 has the smaller gap and fails at 1e-3
    import glab.glauber as gl
    from glab.factorization import CheckReport

    pairs = [(1.0 + 5e-10, 1.0), (1e-3 + 1e-10, 1e-3)]

    def fake_report(dist, pi, z_pi, weights, vals, v, instance, name):
        lhs, rhs = pairs[v]
        return CheckReport.le(name, instance, lhs, rhs, constant=1.0)

    monkeypatch.setattr(gl, "_change_base_report", fake_report)
    d = random_gibbs(2, 117)
    [rep] = tensorization_chain_check(d, 0.5, [random_positive_f(2, 118)])
    assert not rep.passed
    assert (rep.lhs, rep.rhs) == pairs[1]
    assert rep.witness == "per-vertex covariance comparison failed"


def test_tensorization_chain_batch_magnetizes_once(monkeypatch):
    import glab.glauber as gl

    d = random_gibbs(3, 119)
    fs = [random_positive_f(3, 120 + j) for j in range(4)]
    singles = [tensorization_chain_check(d, 0.5, [f])[0] for f in fs]
    calls = []
    real = gl.magnetize

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gl, "magnetize", counted)
    # one report per function, each what a batch of one gives
    reports = tensorization_chain_check(d, 0.5, fs)
    assert reports == singles
    assert len(calls) == 1
    # each lhs is some vertex's weighted boundary average, which is the
    # identity's subset-route sum over theta^n
    for rep, f in zip(reports, fs):
        assert any(rep.lhs == pytest.approx(oracle_compare_subset_route(d, 0.5, v, f) / 0.5 ** 3,
                                            rel=1e-10) for v in range(3))


def test_tensorization_constant_is_partition():
    d = random_gibbs(2, 115)
    f = random_positive_f(2, 116)
    [rep] = tensorization_chain_check(d, 0.4, [f])
    # Z_pi = sum_x mu(x) 0.4^(plus count of x), summed state by state
    z_pi = sum(p * 0.4 ** bin(x).count("1") for x, p in enumerate(d.prob))
    assert rep.constant == pytest.approx(1.0 / z_pi, rel=1e-12)


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
