import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glab.exact import (
    Pinning,
    condition,
    enumerate_gibbs,
    entropy_functional,
    magnetize,
    magnetized_partition,
)
import glab.factorization as factorization
from glab.cli import _block_checks
from glab.capacity import CapacityError
from glab.factorization import (
    CheckReport,
    HyperGeoSpec,
    hf_direct,
    hf_formula,
    hf_pair,
    hypergeo_concentration,
    hypergeo_pmf_table,
    kappa,
    kappa_binomial,
    lbf_convergence,
    mbf_constant,
    mbf_rhs,
    subset_conditional_entropy,
    superset_sums,
    ubf_average,
    ubf_chain_constant,
)
from glab.model import IsingModel, complete_edges, cycle_edges, path_edges, star_edges

from oracles import (distribution_from_weights, hypergeo_pmf, hypergeo_sample, hypergeo_support,
                     oracle_field_dynamics_entropy, oracle_hf_direct, oracle_mbf_rhs)
from util import random_dist, random_gibbs, random_positive_f, regime_grid


# ---------------------------------------------------------------------------
# CheckReport semantics


def test_check_report_le():
    assert CheckReport.le("t", "i", 1.0, 1.0).passed
    assert CheckReport.le("t", "i", 1.0 + 5e-10, 1.0).passed
    assert not CheckReport.le("t", "i", 1.0 + 1e-6, 1.0).passed
    assert CheckReport.le("t", "i", 1e-13, 0.0).passed
    assert not CheckReport.le("t", "i", 1e-6, 0.0).passed


def test_check_report_eq_and_json():
    rep = CheckReport.eq("name", "inst", 2.0, 2.0 + 1e-12)
    assert rep.passed
    out = rep.to_json()
    assert set(out) == {"name", "instance", "lhs", "rhs", "constant", "pass"}
    rep = CheckReport.eq("name", "inst", 1.0, 1.1, witness="f[0]")
    assert not rep.passed
    assert rep.to_json()["witness"] == "f[0]"


def test_check_report_keeps_a_witness_only_on_failure():
    for rep in (CheckReport.le("t", "i", 1.0, 1.0, witness="f[0]"),
                CheckReport.eq("t", "i", 2.0, 2.0 + 1e-12, witness="f[0]")):
        assert rep.passed and rep.witness is None
        assert "witness" not in rep.to_json()
    for rep in (CheckReport.le("t", "i", 1.0 + 1e-6, 1.0, witness="f[1]"),
                CheckReport.eq("t", "i", 1.0, 1.1, witness="f[1]")):
        assert not rep.passed and rep.witness == "f[1]"
    # the slack decides, not the caller: 1e-9 passes with abs_slack=1e-9
    assert CheckReport.le("t", "i", 1e-9, 0.0, witness="w", abs_slack=1e-9).witness is None
    assert CheckReport.le("t", "i", 2e-9, 0.0, witness="w", abs_slack=1e-9).witness == "w"
    skipped = CheckReport.skipped("t", "i", "skipped: too large")
    assert skipped.passed
    assert skipped.to_json() == {"name": "t", "instance": "i", "lhs": 0.0, "rhs": 0.0,
                                 "constant": 0.0, "pass": True,
                                 "witness": "skipped: too large"}


# ---------------------------------------------------------------------------
# contraction coefficients


def test_kappa_frozen_values():
    assert kappa(0, 3, 1.0) == pytest.approx(3 / 4, rel=1e-12)
    assert kappa(2, 4, 2.0) == pytest.approx(2 / 25, rel=1e-12)
    # integer c: prod (k-j-i) / (k+1)^c
    assert kappa(1, 5, 2.0) == pytest.approx(4 * 3 / 36, rel=1e-12)
    # fractional c interpolates with the extra base factor
    val = kappa(0, 4, 1.5)
    want = (4 + 1 - 0 - 1.5) ** (1.5 - 2) * (4 - 0) * (4 - 1) / 5**1.5
    assert val == pytest.approx(want, rel=1e-12)


def test_kappa_domain():
    with pytest.raises(ValueError):
        kappa(3, 4, 2.0)
    with pytest.raises(ValueError):
        kappa(0, 3, 0.5)
    kappa(2, 4, 2.0)  # boundary j = k - ceil(c) is allowed


def test_kappa_binomial_frozen():
    assert kappa_binomial(0, 3, 1) == pytest.approx(1.0)
    assert kappa_binomial(2, 4, 2) == pytest.approx(float(Fraction(1, 6)))
    with pytest.raises(ValueError):
        kappa_binomial(0, 3, 0)


def test_kappa_below_binomial():
    # the (k+1)^c denominator makes kappa strictly smaller
    for j, k, c in [(0, 3, 1), (1, 4, 2), (2, 6, 3), (0, 8, 1)]:
        assert kappa(j, k, float(c)) < kappa_binomial(j, k, c)


def test_block_constants():
    assert mbf_constant(0.5, 4.0) == pytest.approx((math.e / 0.5) ** 7.0, rel=1e-12)
    assert ubf_chain_constant(0.5, 4.0) == pytest.approx((math.e / 0.5) ** 6.0, rel=1e-12)
    with pytest.raises(ValueError):
        mbf_constant(0.0, 4.0)


# ---------------------------------------------------------------------------
# multivariate hypergeometric


def test_hypergeo_frozen_values():
    spec = HyperGeoSpec(n=2, k=2, ell=2)
    assert hypergeo_pmf(spec, (1, 1)) == pytest.approx(2 / 3, rel=1e-14)
    assert hypergeo_pmf(spec, (2, 0)) == pytest.approx(1 / 6, rel=1e-14)
    assert hypergeo_pmf(spec, (0, 2)) == pytest.approx(1 / 6, rel=1e-14)
    # off support: wrong total or over-capacity bucket
    assert hypergeo_pmf(spec, (2, 2)) == 0.0
    assert hypergeo_pmf(spec, (2, 1)) == 0.0
    with pytest.raises(ValueError):
        hypergeo_pmf(spec, (3, -1))


def test_hypergeo_pmf_sums_to_one():
    for n, k, ell in [(2, 2, 2), (3, 3, 4), (4, 2, 5), (2, 10, 7)]:
        _, probs = hypergeo_pmf_table(HyperGeoSpec(n=n, k=k, ell=ell))
        assert float(probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_hypergeo_pmf_table_divides_by_chunks(monkeypatch):
    # chunks of 7 rows give each row's own correctly rounded division
    spec = HyperGeoSpec(n=4, k=3, ell=6)
    monkeypatch.setattr(factorization, "_PMF_CHUNK_ROWS", 7)
    support, probs = hypergeo_pmf_table(spec)
    denom = math.comb(12, 6)
    want = [math.prod(math.comb(3, int(a)) for a in row) / denom for row in support]
    assert support.shape[0] > 3 * 7
    assert probs.tolist() == want


def test_hypergeo_row_count_is_the_table_height():
    for n in range(1, 6):
        for k in range(1, 5):
            for ell in range(n * k + 1):
                spec = HyperGeoSpec(n=n, k=k, ell=ell)
                assert factorization._hypergeo_rows(spec) == hypergeo_pmf_table(spec)[0].shape[0]
    # the hf suite's k = 8 tables at ell = 4n, counted without building them
    counts = [factorization._hypergeo_rows(HyperGeoSpec(n=n, k=8, ell=4 * n)) for n in (8, 9, 10)]
    assert counts == [2306025, 19610233, 167729959]


def test_hypergeo_pmf_table_budget(monkeypatch):
    # 10 count vectors at n = k = ell = 3, 10 * 4 + 110 = 150 bytes each
    spec = HyperGeoSpec(n=3, k=3, ell=3)
    assert factorization._hypergeo_rows(spec) == 10
    monkeypatch.setattr(factorization, "PMF_TABLE_BYTE_BUDGET", 1500)
    assert hypergeo_pmf_table(spec)[0].shape == (10, 3)
    monkeypatch.setattr(factorization, "PMF_TABLE_BYTE_BUDGET", 1499)
    with pytest.raises(CapacityError, match="10 count vectors .* needs 1500 bytes"):
        hypergeo_pmf_table(spec)
    # the default budget admits the 9-cycle's k = 8 table and refuses the 10-cycle's
    monkeypatch.undo()
    for n, admitted in ((9, True), (10, False)):
        rows = factorization._hypergeo_rows(HyperGeoSpec(n=n, k=8, ell=4 * n))
        assert (rows * (10 * 9 + 110) <= factorization.PMF_TABLE_BYTE_BUDGET) == admitted


def test_hypergeo_pmf_table_is_byte_identical_to_pmf():
    for n in range(1, 6):
        for k in range(1, 5):
            for ell in range(n * k + 1):
                spec = HyperGeoSpec(n=n, k=k, ell=ell)
                support, probs = hypergeo_pmf_table(spec)
                vectors = [tuple(int(a) for a in row) for row in support]
                assert vectors == list(hypergeo_support(spec))
                want = np.array([hypergeo_pmf(spec, a) for a in vectors])
                assert probs.tobytes() == want.tobytes()
    spec = HyperGeoSpec(n=8, k=8, ell=32)
    support, probs = hypergeo_pmf_table(spec)
    assert support.shape == (2306025, 8)
    for row in np.random.default_rng(33).choice(support.shape[0], 500, replace=False):
        assert probs[row] == hypergeo_pmf(spec, support[row])


def test_hypergeo_support_bounds():
    spec = HyperGeoSpec(n=3, k=2, ell=4)
    sup = list(hypergeo_support(spec))
    assert all(sum(a) == 4 and max(a) <= 2 for a in sup)
    assert len(sup) == len(set(sup))


def test_hypergeo_sampler_matches_pmf():
    spec = HyperGeoSpec(n=2, k=2, ell=2)
    draws = hypergeo_sample(spec, seed=4, size=40_000)
    freq = np.mean(draws[:, 0] == 1)
    sigma = math.sqrt((2 / 3) * (1 / 3) / draws.shape[0])
    assert abs(freq - 2 / 3) < 3 * sigma
    assert np.all(draws.sum(axis=1) == 2)


def test_hypergeo_sampler_deterministic():
    spec = HyperGeoSpec(n=3, k=2, ell=3)
    a = hypergeo_sample(spec, seed=9, size=50)
    b = hypergeo_sample(spec, seed=9, size=50)
    assert np.array_equal(a, b)


def test_hypergeo_concentration_tail():
    spec = HyperGeoSpec(n=4, k=12, ell=24)
    for eps in (0.1, 0.25, 0.5):
        tail, bound = hypergeo_concentration(spec, 0, eps)
        assert 0.0 <= tail <= 1.0
        assert tail <= bound + 1e-12
        # buckets are exchangeable, so bucket 0 carries the common marginal
        for v in range(1, spec.n):
            assert hypergeo_concentration(spec, v, eps) == (tail, bound)


# ---------------------------------------------------------------------------
# superset sums and conditional entropies


def brute_superset_sum(vec, b, r):
    total = 0.0
    for x in range(vec.size):
        if x & r == r:
            total += vec[x] * math.prod(b[v] for v in range(len(b)) if (x & ~r) >> v & 1)
    return total


def test_superset_sums_against_brute():
    gen = np.random.default_rng(3)
    vec = gen.random(16)
    for b in (np.ones(4), np.array([0.0, 0.3, 1.0, 0.75])):
        out = superset_sums(vec, b)
        for r in range(16):
            assert out[r] == pytest.approx(brute_superset_sum(vec, b, r), rel=1e-12)


def test_subset_conditional_entropy_matches_direct():
    import itertools

    d = random_dist(3, 31)
    f = random_positive_f(3, 32)
    for s_mask in range(1, 8):
        block = [v for v in range(3) if (s_mask >> v) & 1]
        sites_out = [v for v in range(3) if not (s_mask >> v) & 1]
        want = 0.0
        for spins in itertools.product((-1, 1), repeat=len(sites_out)):
            pin = Pinning(tuple(sites_out), spins)
            sel = np.ones(8, dtype=bool)
            for v, s in zip(sites_out, spins):
                sel &= ((np.arange(8) >> v) & 1) == (1 if s == 1 else 0)
            mass = float(d.prob[sel].sum())
            if mass == 0.0:
                continue
            want += mass * entropy_functional(condition(d, pin), f)
        got = subset_conditional_entropy(d, block, f)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# uniform block factorization


def test_ubf_full_block_is_equality():
    d = random_dist(3, 41)
    f = random_positive_f(3, 42)
    avg = ubf_average(d, 3, f)
    assert avg == pytest.approx(entropy_functional(d, f), rel=1e-12)
    assert abs(avg - entropy_functional(d, f)) < 1e-12


def test_ubf_product_single_site_blocks():
    # independent spins: entropy tensorizes, so C = n works at ell = 1
    gen = np.random.default_rng(7)
    w = np.ones(8)
    for v in range(3):
        lam = gen.uniform(0.5, 2.0)
        for idx in range(8):
            if (idx >> v) & 1:
                w[idx] *= lam

    d = distribution_from_weights(w)
    fs = [random_positive_f(3, s) for s in range(6)]
    for f in fs:
        assert CheckReport.le("", "", entropy_functional(d, f), 3.0 * ubf_average(d, 1, f)).passed


def test_ubf_negative_control():
    # the ubf suite's check fails at a constant far too small, naming f
    d = random_gibbs(3, 44)
    f = random_positive_f(3, 45)
    [rep] = _block_checks("ubf", "", d, 1e-6, [f], lambda g: ubf_average(d, 1, g))
    assert not rep.passed
    assert rep.witness == "f[0]"
    assert (rep.lhs, rep.rhs, rep.constant) == (entropy_functional(d, f),
                                                1e-6 * ubf_average(d, 1, f), 1e-6)


# ---------------------------------------------------------------------------
# magnetized block factorization


def test_mbf_rhs_single_site():
    # n = 1: the only nonempty R is {0}, so the sum collapses to
    # Z_pi * Ent_pi(f) with pi the theta-magnetized law
    d = random_dist(1, 51)
    f = random_positive_f(1, 52)
    theta = 0.5
    pi = magnetize(d, [theta])
    z = magnetized_partition(d, theta)
    want = z * entropy_functional(pi, f)
    assert mbf_rhs(d, theta, f) == pytest.approx(want, rel=1e-10)


def test_mbf_rhs_against_oracle():
    dists = [enumerate_gibbs(model) for _, model in regime_grid()]
    dists += [random_dist(n, 90 + n, zero_frac=0.3) for n in (3, 4, 5)]
    for d in dists:
        f = random_positive_f(d.n, 91)
        for theta in (0.3, 0.5, 0.75):
            assert mbf_rhs(d, theta, f) == pytest.approx(oracle_mbf_rhs(d, theta, f), rel=1e-12)


FIELD_DYNAMICS_MODELS = {
    "cycle4": IsingModel(n=4, edges=cycle_edges(4), beta=0.6, lam=(2.0, 0.5) * 2),
    "star5": IsingModel(n=5, edges=star_edges(5), beta=0.9, lam=(2.0, 0.5, 2.0, 0.5, 2.0)),
    "k5": IsingModel(n=5, edges=complete_edges(5), beta=1.3, lam=(1.0,) * 5),
    "cycle6": IsingModel(n=6, edges=cycle_edges(6), beta=0.6, lam=(2.0, 0.5) * 3),
    "path3": IsingModel(n=3, edges=path_edges(3), beta=0.8, lam=(0.5, 1.0, 2.0)),
}


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.75])
@pytest.mark.parametrize("name", sorted(FIELD_DYNAMICS_MODELS))
def test_mbf_rhs_is_the_field_dynamics_down_step_entropy(name, theta):
    # mbf_rhs is E[Ent(f | R)] under the down step of field dynamics,
    # the down-up walk the magnetized-block factorization speaks about
    d = enumerate_gibbs(FIELD_DYNAMICS_MODELS[name])
    f = random_positive_f(d.n, 93)
    want = oracle_field_dynamics_entropy(d, theta, f)
    assert mbf_rhs(d, theta, f) == pytest.approx(want, rel=1e-12, abs=0)


def test_mbf_holds_in_regime():
    from util import interior_model

    model = interior_model("cycle", 4, 3, delta=0.5)
    d = enumerate_gibbs(model)
    c = mbf_constant(0.5, 2.0 / 0.5)
    fs = [random_positive_f(4, s) for s in range(8)]
    for f in fs:
        assert CheckReport.le("", "", entropy_functional(d, f), c * mbf_rhs(d, 0.5, f)).passed


def test_mbf_negative_control():
    # the mbf suite's checks fail at a constant far too small, each naming its f
    d = random_gibbs(3, 61)
    fs = [random_positive_f(3, 62), random_positive_f(3, 63)]
    reps = _block_checks("mbf", "", d, 1e-6, fs, lambda g: mbf_rhs(d, 0.5, g))
    assert [(rep.passed, rep.witness) for rep in reps] == [(False, "f[0]"), (False, "f[1]")]
    assert reps[1].rhs == 1e-6 * mbf_rhs(d, 0.5, fs[1])


# ---------------------------------------------------------------------------
# hypergeometric block mixture


def test_hf_direct_equals_formula_small():
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        f = random_positive_f(n, n * 20 + k)
        for d in (random_gibbs(n, n * 10 + k), random_dist(n, n * 40 + k, zero_frac=0.3)):
            for ell in (1, (n * k) // 2, n * k):
                direct, formula = hf_pair(d, k, ell, f)
                assert formula == pytest.approx(direct, rel=1e-10, abs=1e-12)


# hf_formula on the 6-star at k = 8, ell = 24 (32,661 count vectors): a
# long enough mixture that OpenBLAS splits a dot product of it over threads
HF_CHILD = """
import numpy as np
from glab.exact import enumerate_gibbs
from glab.factorization import hf_formula
from glab.model import IsingModel, star_edges
dist = enumerate_gibbs(IsingModel(n=6, edges=star_edges(6), beta=0.9, lam=(2.0, 0.5) * 3))
f = np.exp(np.random.default_rng(0).normal(0.0, 1.0, size=64))
print(hf_formula(dist, 8, 24, f).hex())
"""


def test_hf_formula_bits_do_not_follow_blas_threads():
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": src}
        out.add(subprocess.run([sys.executable, "-c", HF_CHILD], env=env, check=True,
                               capture_output=True, text=True).stdout)
    assert len(out) == 1, out


def test_hf_direct_matches_oracle():
    dists = [enumerate_gibbs(model) for _, model in regime_grid()]
    dists += [random_dist(n, 110 + n, zero_frac=0.3) for n in range(2, 6)]
    for d in dists:
        f = random_positive_f(d.n, 111)
        for k in (1, 2, 3):
            nk = d.n * k
            if nk > 12:
                continue
            for ell in sorted({1, math.ceil(nk / 2), nk}):
                # abs covers values that are 0 in exact arithmetic (two-state
                # supports at ell = 1), which both routes leave as a few ulps
                want = oracle_hf_direct(d, k, ell, f)
                assert hf_direct(d, k, ell, f) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_hf_direct_one_block_chunks(monkeypatch):
    d = random_dist(4, 121, zero_frac=0.3)
    f = random_positive_f(4, 122)
    # the default chunk holds all C(8, 4) = 70 blocks of 81 states
    want = hf_direct(d, 2, 4, f)
    monkeypatch.setattr(factorization, "_BLOCK_CHUNK_BYTES", 1)
    assert hf_direct(d, 2, 4, f) == want


def test_block_kernel_peak_stays_at_one_chunk(monkeypatch):
    import tracemalloc

    d = random_dist(5, 141)
    vals = random_positive_f(5, 142)
    counts = np.random.default_rng(143).integers(0, 9, size=(4_000, 5), dtype=np.uint8)
    budget = 1 << 16  # 25 rows of 2^5 states per chunk
    monkeypatch.setattr(factorization, "_KERNEL_CHUNK_BYTES", budget)

    def peak(rows):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            factorization._magnetized_block_kernel(d, counts[:rows], vals, 8)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    # beyond one chunk, only the 8-byte result per row may grow; float
    # fields for every row at once would add 40 bytes per row
    assert peak(4_000) - peak(25) <= 8 * (4_000 - 25) + budget


def test_block_pair_budget(monkeypatch):
    d = random_dist(3, 131)
    f = random_positive_f(3, 132)
    # C(6, 3) = 20 blocks of the 27 feasible states of the 2-copy lift
    monkeypatch.setattr(factorization, "BLOCK_PAIR_BUDGET", 540)
    hf_direct(d, 2, 3, f)
    monkeypatch.setattr(factorization, "BLOCK_PAIR_BUDGET", 539)

    def no_lift(*args):
        raise AssertionError("lift built before the budget check")

    monkeypatch.setattr(factorization, "feasible_lift", no_lift)
    with pytest.raises(CapacityError):
        hf_direct(d, 2, 3, f)
    # ubf_average is the same average at k = 1: C(3, 2) = 3 blocks of 8 states
    monkeypatch.setattr(factorization, "BLOCK_PAIR_BUDGET", 23)
    with pytest.raises(CapacityError):
        ubf_average(d, 2, f)


def test_hf_full_block_recovers_entropy():
    d = random_dist(2, 71)
    f = random_positive_f(2, 72)
    direct = hf_direct(d, 2, 4, f)
    assert direct == pytest.approx(entropy_functional(d, f), rel=1e-10)


def test_lbf_convergence_shrinks():
    d = random_dist(2, 81)
    f = random_positive_f(2, 82)
    series = lbf_convergence(d, 0.5, f, (2, 8, 32))
    ks = [k for k, _ in series]
    gaps = [g for _, g in series]
    assert ks == [2, 8, 32]
    target = mbf_rhs(d, 0.5, f)
    assert gaps[-1] < 0.5 * gaps[0] or gaps[0] < 1e-9
    if target > 1e-6:
        assert gaps[-1] < 0.05 * target


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=25, deadline=None)
def test_hf_identity_property(seed):
    d = random_dist(2, seed)
    f = random_positive_f(2, seed + 1000)
    direct, formula = hf_pair(d, 2, 2, f)
    assert formula == pytest.approx(direct, rel=1e-9, abs=1e-12)
