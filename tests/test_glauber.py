import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from glab.capacity import CapacityError
from glab.exact import (
    DenseDistribution,
    Pinning,
    boundary_split,
    condition,
    enumerate_gibbs,
    entropy_functional,
    magnetize,
)
from glab.factorization import CheckReport
from glab.glauber import (
    _mixing_bracket,
    _pair_arrays,
    compare_identity_check,
    dirichlet_form,
    dirichlet_form_inner,
    dirichlet_form_sites,
    dobrushin_bound,
    marginal_lower_bound,
    mixing_time_exact,
    mls_estimate,
    mls_mixing_bound,
    orbit_representatives,
    run_chain,
    tensorization_chain_check,
    transition_matrix,
    verification_bounds_check,
)
from glab.model import IsingModel, complete_edges, cycle_edges, path_edges, star_edges

from oracles import (
    conditional_plus,
    flip,
    mls_ratio,
    oracle_compare_subset_route,
    oracle_mixing_bracket,
    oracle_mls_estimate_bfgs,
    oracle_pair_arrays,
    oracle_pinned_dobrushin_worst,
    oracle_run_chain,
    oracle_step_rows,
    oracle_tmix,
    oracle_transition,
    oracle_tv_profile,
    point_mass,
    stationary_distance_profile,
    table_of,
    uniform_distribution,
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
        tm = transition_matrix(d)
        p = tm.dense()
        flow = tm.stationary[:, None] * p
        assert np.max(np.abs(flow - flow.T)) < 1e-12
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


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


def test_kernel_product_bits_match_scipy():
    # full, pinned and zero-field tables, and a one-state support: P @ x
    # in numpy is scipy's csr_matvec bit for bit
    gen = np.random.default_rng(5)
    tables = [DenseDistribution(2, np.array([0.0, 0.0, 1.0, 0.0]))]
    for n, edges in ((5, cycle_edges), (6, star_edges), (4, complete_edges)):
        full = enumerate_gibbs(IsingModel(n=n, edges=edges(n), beta=0.7,
                                          lam=tuple((2.0, 0.5, 1.5)[v % 3] for v in range(n))))
        tables += [full, condition(full, Pinning((0,), (1,))),
                   magnetize(full, np.r_[np.ones(n - 1), 0.0])]
    for d in tables:
        tm = transition_matrix(d)
        matrix = tm.matrix
        assert np.array_equal(tm.dense(), matrix.toarray())
        for x in (gen.normal(size=tm.size), np.log(gen.random(tm.size))):
            got, want = tm.apply(x), matrix @ x
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Dirichlet forms and the MLS ratio


def test_pair_arrays_match_brute_force():
    # the same pairs, in the same order, with the same weight bits, on
    # full and partial support
    for seed in range(4):
        for d in (random_gibbs(4, seed + 50), random_dist(4, seed + 60, zero_frac=0.4)):
            for got, want in zip(_pair_arrays(d), oracle_pair_arrays(d)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


def test_dirichlet_single_vertex_value():
    d = uniform_distribution(1)
    f = np.array([1.0, math.e])
    assert dirichlet_form(d, [f]) == pytest.approx([(math.e - 1) / 4], rel=1e-12)


def test_dirichlet_routes_agree():
    for seed in range(8):
        d = random_gibbs(3, seed + 20)
        fs = [random_positive_f(3, seed + 30), random_positive_f(3, seed + 40)]
        a = dirichlet_form(d, fs)
        assert dirichlet_form_sites(d, fs) == pytest.approx(a, rel=1e-10, abs=1e-13)
        assert dirichlet_form_inner(d, fs) == pytest.approx(a, rel=1e-10, abs=1e-13)


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
    assert len(a.runs) == 4
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


def _assert_steps_like_oracle(d, rows, eps=0.25):
    import glab.glauber as gl

    tm = transition_matrix(d)
    t_mix, tvs, margin = gl._step_rows(tm, tm.matrix.T.tocsr(), rows, eps)
    want_t, want_tvs, want_margin = oracle_step_rows(tm, rows, eps)
    assert (t_mix, margin) == (want_t, want_margin)
    assert tvs.tobytes() == want_tvs.tobytes()


@pytest.mark.parametrize("d,full", _mixing_grid())
def test_step_rows_in_blocks_matches_the_one_array_loop(d, full):
    _assert_steps_like_oracle(d, orbit_representatives(d))
    _assert_steps_like_oracle(d, np.arange(d.support_indices.size)[::-1])


def _alternating_cycle(n):
    return enumerate_gibbs(IsingModel(n=n, edges=cycle_edges(n), beta=0.6,
                                      lam=tuple((2.0, 0.5)[v % 2] for v in range(n))))


@pytest.mark.parametrize("width", [lambda r: 1, lambda r: 3, lambda r: r - 1, lambda r: r + 1],
                         ids=["1", "3", "R-1", "R+1"])
def test_step_rows_matches_the_one_array_loop_at_any_width(monkeypatch, width):
    import glab.glauber as gl

    # the alternating 9-cycle has R = 272 orbits, not a multiple of 3:
    # at width 3 the blocks are 2 or 3 columns wide, at width 1 every
    # block is one column, and at width R + 1 there is one block
    d = _alternating_cycle(9)
    rows = orbit_representatives(d)
    assert rows.size == 272
    monkeypatch.setattr(gl, "_STEP_COLUMNS", width(rows.size))
    for lanes in (1, 2, 3):
        monkeypatch.setattr(gl, "_lane_count", lambda: lanes)
        _assert_steps_like_oracle(d, rows)


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_step_rows_matches_the_one_array_loop_on_every_row(monkeypatch, lanes):
    import sys

    import glab.glauber as gl

    # the all-rows fallback of the uniform 6-cycle at its threshold eps:
    # 64 rows in blocks of at most 5 columns, with the lanes switching
    # threads as often as the interpreter allows
    d = enumerate_gibbs(IsingModel(n=6, edges=cycle_edges(6), beta=0.6, lam=(1.0,) * 6))
    eps = float(oracle_tv_profile(d, 5)[5])
    monkeypatch.setattr(gl, "_STEP_COLUMNS", 5)
    monkeypatch.setattr(gl, "_lane_count", lambda: lanes)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_steps_like_oracle(d, np.arange(64), eps)
    finally:
        sys.setswitchinterval(interval)


class _PoolSpy:
    """Counts the thread pools _step_rows builds."""

    def __init__(self, monkeypatch):
        import concurrent.futures

        self.built = 0
        real = concurrent.futures.ThreadPoolExecutor

        def build(*args, **kwargs):
            self.built += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", build)


def test_step_rows_leaves_no_thread_running(monkeypatch):
    import threading

    import glab.glauber as gl

    d = _alternating_cycle(9)
    tm = transition_matrix(d)
    step_op = tm.matrix.T.tocsr()
    rows = orbit_representatives(d)
    spy = _PoolSpy(monkeypatch)
    monkeypatch.setattr(gl, "_STEP_COLUMNS", 16)
    monkeypatch.setattr(gl, "_lane_count", lambda: 3)
    before = threading.active_count()
    assert gl._step_rows(tm, step_op, rows, 0.25)[0] == 26
    assert threading.active_count() == before
    # the step budget stops the run after 5 of its 26 steps
    monkeypatch.setattr(gl, "MIXING_STEP_BUDGET", 6 * rows.size * step_op.nnz - 1)
    with pytest.raises(CapacityError, match="stopped after 5 steps"):
        gl._step_rows(tm, step_op, rows, 0.25)
    assert threading.active_count() == before
    assert spy.built == 2


def test_step_rows_on_one_block_starts_no_thread(monkeypatch):
    import glab.glauber as gl

    # the alternating 8-cycle steps 30 orbit rows, one block
    d = _alternating_cycle(8)
    assert orbit_representatives(d).size == 30
    spy = _PoolSpy(monkeypatch)
    monkeypatch.setattr(gl, "_lane_count", lambda: 3)
    assert mixing_time_exact(d, 0.25) == 25
    assert spy.built == 0


def test_mixing_step_budget(monkeypatch):
    import glab.glauber as gl

    d = random_gibbs(3, 63)
    t_mix = mixing_time_exact(d, 0.25)
    # 8 rows over a kernel with 8 + 8 * 3 = 32 nonzeros: 256 multiply-adds a step
    nnz = transition_matrix(d).matrix.nnz
    assert nnz == 32
    monkeypatch.setattr(gl, "MIXING_STEP_BUDGET", t_mix * 8 * nnz)
    assert mixing_time_exact(d, 0.25) == t_mix
    monkeypatch.setattr(gl, "MIXING_STEP_BUDGET", t_mix * 8 * nnz - 1)
    with pytest.raises(CapacityError, match=f"after {t_mix - 1} steps of 8 rows .* "
                                            f"budget of {t_mix * 8 * nnz - 1} multiply-adds"):
        mixing_time_exact(d, 0.25)


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

    def spy(tm, step_op, rows, eps):
        calls.append(rows.size)
        return real(tm, step_op, rows, eps)

    monkeypatch.setattr(gl, "_step_rows", spy)
    assert mixing_time_exact(d, eps) == want_t
    assert calls == [8, 64]
    # the fallback is held to the byte budget too: 16 * 64 * 8 bytes
    # admit the 8 orbit rows, not all 64
    monkeypatch.setattr(gl, "MIXING_BYTE_BUDGET", 16 * 64 * 8)
    with pytest.raises(CapacityError, match="64 support states needs 65536 bytes for 64 rows"):
        mixing_time_exact(d, eps)


def test_mixing_byte_budget_counts_two_buffers_per_row(monkeypatch):
    import glab.glauber as gl

    d = random_gibbs(3, 63)
    # 8 rows in blocks of 3, each block stepping between two buffers of
    # its own: 16 * 8 * 8 = 1024 bytes at any lane count
    monkeypatch.setattr(gl, "_STEP_COLUMNS", 3)
    for lanes in (1, 2, 3):
        monkeypatch.setattr(gl, "_lane_count", lambda: lanes)
        monkeypatch.setattr(gl, "MIXING_BYTE_BUDGET", 1024)
        assert mixing_time_exact(d, 0.25) >= 1
        monkeypatch.setattr(gl, "MIXING_BYTE_BUDGET", 1023)
        with pytest.raises(CapacityError, match="8 support states needs 1024 bytes"):
            mixing_time_exact(d, 0.25)


def test_mixing_reducible_chain_raises():
    d = DenseDistribution(2, np.array([0.5, 0.0, 0.0, 0.5]))
    with pytest.raises(RuntimeError, match="reducible"):
        mixing_time_exact(d, 0.25)


def test_mixing_support_cap(monkeypatch):
    import glab.glauber as gl

    d = random_gibbs(3, 63)
    # a table of a model without symmetry steps all 8 support rows: two
    # live 8 x 8 float64 arrays are 2 * 8 * 8 * 8 = 1024 bytes
    monkeypatch.setattr(gl, "MIXING_BYTE_BUDGET", 1024)
    assert mixing_time_exact(d, 0.25) >= 1
    monkeypatch.setattr(gl, "MIXING_BYTE_BUDGET", 1023)
    with pytest.raises(CapacityError, match="8 support states needs 1024 bytes"):
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
    assert np.array_equal(a.rows(), b.rows())


def test_chain_determinism_and_thinning():
    model = IsingModel(n=3, edges=cycle_edges(3), beta=0.8, lam=(1.0,) * 3)
    a = run_chain(model, 100, seed=3, thin=10)
    b = run_chain(model, 100, seed=3, thin=10)
    assert np.array_equal(a.states, b.states)
    assert a.rows()[:, 0].tolist() == list(range(0, 101, 10))
    assert a.rows()[0].tolist() == [0, 0]


def test_chain_start_state():
    model = IsingModel(n=3, edges=[], beta=1.0, lam=(1.0,) * 3)
    t = run_chain(model, 0, seed=1, init=5)
    assert t.states[0] == 5


def test_chain_long_run_frequency():
    # single site, lambda = 3: long-run plus frequency 3/4
    model = IsingModel(n=1, edges=[], beta=1.0, lam=(3.0,))
    trace = run_chain(model, 100_000, seed=11)
    freq = float(np.mean(trace.states[1000:]))
    sigma = math.sqrt(0.75 * 0.25 / 99_000)
    # correlated samples; allow a generous window
    assert abs(freq - 0.75) < 6 * sigma


def test_chain_rejects_zero_conditional():
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
    assert trace.rows()[:, 0].tolist() == want_steps
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
    assert trace.rows()[:, 0].tolist() == want_steps
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
    from glab.exact import as_values

    pi = magnetize(d, [0.3])
    assert rep.lhs == pytest.approx(0.3 * boundary_split(pi, 0).expected_ment(as_values(f, 1)),
                                    rel=1e-10)


def test_margin_monotonicity():
    # magnetizing lowers every conditional plus-probability; the oracle
    # conditions both spin tables one boundary at a time
    import glab.glauber as gl

    for seed in range(5):
        d = random_gibbs(3, seed + 90)
        pi = magnetize(d, np.full(3, 0.5))
        mu_table, pi_table = table_of(d), table_of(pi)
        want = -math.inf
        for v in range(3):
            others = [u for u in range(3) if u != v]
            for boundary in itertools.product((-1, 1), repeat=2):
                fixed = dict(zip(others, boundary))
                want = max(want, conditional_plus(pi_table, 3, v, fixed)
                           - conditional_plus(mu_table, 3, v, fixed))
        splits = [[boundary_split(table, v) for v in range(3)] for table in (d, pi)]
        assert gl._margin_violation(*splits) == pytest.approx(want, rel=0.0, abs=1e-12)
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
    _, bound = dobrushin_bound(d)
    assert bound["contraction_norm"] == pytest.approx(1 / 3, abs=1e-9)
    assert bound["alpha"] == marginal_lower_bound(d)
    assert bound["threshold"] == pytest.approx(1 / 27, abs=1e-9)


def test_contraction_norm_is_the_two_norm():
    from glab.spectral import dobrushin_matrix

    # on the 5-path at beta 1.5 a power iteration stops 3.6e-14 below the norm
    path = IsingModel(n=5, edges=path_edges(5), beta=1.5, lam=(2.0, 0.5, 2.0, 0.5, 2.0))
    for d in [enumerate_gibbs(path)] + [random_gibbs(5, seed + 600) for seed in range(4)]:
        a, bound = dobrushin_bound(d)
        assert np.array_equal(a, dobrushin_matrix(d))
        s = bound["contraction_norm"]
        # the largest singular value, below the sqrt(|A|_1 |A|_inf) bound
        assert s == pytest.approx(math.sqrt(np.linalg.eigvalsh(a.T @ a)[-1]), rel=1e-14, abs=0)
        one, inf = np.abs(a).sum(axis=0).max(), np.abs(a).sum(axis=1).max()
        assert s <= math.sqrt(one * inf) * (1 + 1e-15)


def test_dobrushin_mls_inequality():
    d = enumerate_gibbs(SINGLE_EDGE)
    fs = [random_positive_f(2, s) for s in range(10)]
    thr = dobrushin_bound(d)[1]["threshold"]
    for f, form in zip(fs, dirichlet_form(d, fs)):
        assert CheckReport.le("", "", thr * entropy_functional(d, f), form, abs_slack=1e-9).passed


def test_dobrushin_not_applicable():
    from glab.model import complete_edges

    model = IsingModel(n=4, edges=complete_edges(4), beta=8.0, lam=(1.0,) * 4)
    d = enumerate_gibbs(model)
    _, bound = dobrushin_bound(d)
    assert bound["contraction_norm"] >= 1.0
    assert bound["threshold"] is None
    assert bound["alpha"] == marginal_lower_bound(d)


def test_dobrushin_bound_without_full_support():
    # norm 3/7 < 1 asks for the marginal bound, which needs full support
    with pytest.raises(ValueError, match="fully supported"):
        dobrushin_bound(DenseDistribution(2, np.array([0.4, 0.3, 0.3, 0.0])))
    # at norm 1 there is no threshold, so no marginal bound is needed
    _, bound = dobrushin_bound(DenseDistribution(2, np.array([0.5, 0.0, 0.0, 0.5])))
    assert bound == {"contraction_norm": pytest.approx(1.0, abs=1e-15), "alpha": None,
                     "threshold": None}


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
    checks, rep = verification_bounds_check(model, 0.5)
    assert rep["pass"], rep
    assert rep["pass"] == all(c.passed for c in checks)
    assert rep["in_interior"]
    assert rep["lambda_extremes_ok"]
    assert rep["c_hypothesis"] == pytest.approx(0.5)
    assert rep["alpha"] >= rep["alpha_bound"]
    assert rep["dobrushin_worst_norm"] <= rep["dobrushin_bound"] + 1e-12
    assert rep["mu_min"] >= rep["mu_min_bound"]


def test_verification_unpinned_norm_bounds_every_pinning():
    from glab.glauber import EXTREME_FIELD
    from glab.model import flip_direction, star_edges

    models = [IsingModel(n=6, edges=star_edges(6), beta=0.9, lam=(2.0, 0.5) * 3),
              IsingModel(n=6, edges=cycle_edges(6), beta=0.6, lam=(0.5, 2.0) * 3)]
    models += [model for _, model in regime_grid()]
    for model in models:
        phi = np.where(flip_direction(model) == 1, EXTREME_FIELD, 1.0 / EXTREME_FIELD)
        extreme = magnetize(enumerate_gibbs(model), phi)
        single = verification_bounds_check(model, 0.5)[1]["dobrushin_worst_norm"]
        swept = oracle_pinned_dobrushin_worst(extreme)
        assert swept >= single
        assert abs(swept - single) <= 1e-13 * single + 1e-15, (model, swept, single)


def test_verification_flags_out_of_interior():
    model = IsingModel(n=3, edges=cycle_edges(3), beta=0.1, lam=(1.0,) * 3)
    _, rep = verification_bounds_check(model, 0.5)
    assert not rep["in_interior"]


@pytest.mark.parametrize("beta", [1e80, 1e200])
def test_verification_needs_full_support(beta):
    # the weights of the disagreeing states underflow to 0: at 1e80 the
    # Dobrushin norm reaches 1 and asks for no marginal bound, at 1e200
    # some boundaries have no mass; either way bound (1) is undefined
    model = IsingModel(n=4, edges=cycle_edges(4), beta=beta, lam=(1.0,) * 4)
    with pytest.raises(ValueError, match="fully supported"):
        verification_bounds_check(model, 0.5)


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=20, deadline=None)
def test_dirichlet_nonnegative(seed):
    d = random_dist(3, seed)
    f = random_positive_f(3, seed + 1)
    assert dirichlet_form(d, [f])[0] >= -1e-12
