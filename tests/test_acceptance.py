"""End-to-end acceptance battery.

Each test exercises one acceptance criterion on its full instance grid and
reports a single [acceptance] pass/fail line through the terminal reporter,
so the lines stay visible under pytest's default capture.  Budgets are wall
clock upper bounds for the whole criterion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from glab.exact import (
    DenseDistribution,
    enumerate_gibbs,
    magnetize,
)
from glab.factorization import (
    HyperGeoSpec,
    hypergeo_concentration_check,
    kappa,
    lbf_convergence,
    mbf_check,
    mbf_constant,
    mbf_rhs,
)
from glab.glauber import (
    compare_identity_check,
    dirichlet_form,
    dirichlet_form_inner,
    dirichlet_form_sites,
    dobrushin_bound,
    dobrushin_mls_check,
    mixing_time_exact,
    tensorization_chain_check,
    verification_bounds_check,
)
from glab.model import IsingModel, cycle_edges
from glab.spectral import (
    correlation_matrix,
    dobrushin_matrix,
    homog_spectrum_check,
    signed_influence_matrix,
)
from glab.transform import k_transform, ktrans_influence_check, lifted_entropy_identity
from glab.walks import (
    entropy_contraction_check,
    homogenized_law,
    homogenized_levels,
    local_entropy_decay_check,
    ubf_ed_identity_check,
    uniform_slice_levels,
)

from oracles import (distribution_from_weights, hypergeo_pmf, hypergeo_sample,
                     oracle_compare_subset_route, oracle_correlation, oracle_dobrushin,
                     oracle_influence)
from util import (family_edges, interior_model, random_dist, random_gibbs, random_positive_f,
                  regime_grid)


@pytest.fixture
def announce(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    start = time.time()

    def _announce(num, label, ok, budget, detail=""):
        elapsed = time.time() - start
        verdict = "PASS" if ok and elapsed < budget else "FAIL"
        line = f"[acceptance] criterion {num:02d} {label}: {verdict} ({elapsed:.1f}s)"
        if reporter is not None:
            reporter.write_line("")
            reporter.write_line(line)
        print(line)
        assert ok, f"{line} {detail}"
        assert elapsed < budget, f"{line} exceeded {budget}s budget"

    return _announce


def maxdiff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


GRID_INSTANCES = [
    ("path", 2), ("path", 3), ("path", 4),
    ("cycle", 3), ("cycle", 4),
    ("star", 3), ("star", 4),
    ("complete", 4),
]


def test_criterion_01_matrix_oracles(announce):
    bad = []
    for (fam, n), beta, lam in itertools.product(
        GRID_INSTANCES, (1 / 3, 1 / 2, 1.0, 2.0, 3.0), (0.25, 1.0, 4.0)
    ):
        model = IsingModel(n=n, edges=family_edges(fam, n), beta=beta, lam=(lam,) * n)
        d = enumerate_gibbs(model)
        for name, fast, slow in (
            ("influence", signed_influence_matrix, oracle_influence),
            ("correlation", correlation_matrix, oracle_correlation),
            ("dobrushin", dobrushin_matrix, oracle_dobrushin),
        ):
            gap = maxdiff(fast(d), slow(d))
            if gap > 1e-10:
                bad.append((fam, n, beta, lam, name, gap))
    # two-vertex closed form for the off-diagonal influence entry
    for beta in (1 / 3, 1 / 2, 1.0, 2.0, 3.0):
        m = IsingModel(n=2, edges=[(0, 1)], beta=beta, lam=(1.0, 1.0))
        inf = signed_influence_matrix(enumerate_gibbs(m))
        want = (beta - 1.0) / (beta + 1.0)
        if abs(inf[0, 1] - want) > 1e-12 or abs(inf[1, 0] - want) > 1e-12:
            bad.append(("closed-form", beta, inf[0, 1], want))
    announce(1, "matrix oracles on graph grid", not bad, 60, str(bad[:3]))


def test_criterion_02_lift_influence_bounds(announce):
    bad = []
    for i in range(200):
        n = 1 + i % 3
        k = 1 + (i // 3) % 3
        d = random_dist(n, 3000 + i)
        gen = np.random.default_rng(4000 + i)
        phi = np.exp(gen.uniform(np.log(0.25), np.log(4.0), size=(n, k)))
        rep = ktrans_influence_check(k_transform(d, k), phi)
        # a family with no bounded entry (cross at n = 1, self at k = 1)
        # reports None; the row sums always have one
        worst = max(gap for gap in (rep["max_cross_violation"], rep["max_self_violation"],
                                    rep["max_rowsum_violation"]) if gap is not None)
        if not rep["pass"] or worst > 1e-9:
            bad.append((i, n, k, worst))
    announce(2, "lifted influence entrywise and row-sum bounds", not bad, 120, str(bad[:3]))


def test_criterion_03_homogenized_spectrum(announce):
    bad = []
    for i in range(100):
        d = random_gibbs(2 + i % 3, 5000 + i)
        rep = homog_spectrum_check(d)
        if not rep["pass"]:
            bad.append((i, rep["matching_distance"]))
    announce(3, "homogenized correlation spectrum identity", not bad, 60, str(bad[:3]))


def test_criterion_04_lifted_entropy(announce):
    bad = []
    for i in range(100):
        n = 1 + i % 3
        k = 2 + (i // 3) % 3
        d = random_dist(n, 6000 + i)
        f = random_positive_f(n, 6500 + i)
        lhs, rhs = lifted_entropy_identity(k_transform(d, k), f)
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs), 1e-300):
            bad.append((i, n, k, lhs, rhs))
    announce(4, "lifted entropy identity", not bad, 60, str(bad[:3]))


def test_criterion_05_hf_routes_agree(announce):
    from glab.factorization import hf_pair

    bad = []
    for n, k, theta in itertools.product((2, 3), (2, 3), (0.3, 0.5)):
        ell = math.ceil(theta * n * k)
        for j in range(20):
            d = random_dist(n, 7000 + 100 * n + 10 * k + j)
            f = random_positive_f(n, 7500 + 100 * n + 10 * k + j)
            direct, formula = hf_pair(d, k, ell, f)
            if abs(direct - formula) > 1e-10 * max(abs(direct), abs(formula), 1e-300):
                bad.append((n, k, theta, j, direct, formula))
    announce(5, "subset average equals hypergeometric mixture", not bad, 180, str(bad[:3]))


def test_criterion_06_lift_convergence(announce):
    bad = []
    for n in (1, 2):
        for j in range(10):
            d = random_dist(n, 8000 + 10 * n + j)
            f = random_positive_f(n, 8500 + 10 * n + j)
            series = dict(lbf_convergence(d, 0.5, f, ks=(4, 32)))
            g4, g32 = series[4], series[32]
            target = mbf_rhs(d, 0.5, f)
            if g32 > 0.5 * g4 + 1e-15:
                bad.append((n, j, "halving", g4, g32))
            if target > 1e-6 and g32 > 0.05 * target:
                bad.append((n, j, "5% of target", g32, target))
    announce(6, "lift gap shrinks toward the magnetized value", not bad, 300, str(bad[:3]))


def test_criterion_07_magnetized_factorization(announce):
    theta, delta = 0.5, 0.5
    constant = mbf_constant(theta, 2.0 / delta)
    bad = []
    instances = [("path", 5), ("cycle", 5), ("star", 5), ("complete", 4)]
    for pos, (fam, n) in enumerate(instances):
        model = interior_model(fam, n, 900 + pos, delta=delta)
        d = enumerate_gibbs(model)
        fs = [random_positive_f(n, 9000 + 1000 * pos + j) for j in range(250)]
        for j, rep in enumerate(mbf_check(d, theta, constant, fs)):
            if not rep.passed:
                bad.append((fam, n, j, rep.lhs, rep.rhs))
    announce(7, "magnetized block factorization of entropy", not bad, 300, str(bad[:3]))


def test_criterion_08_covariance_comparisons(announce):
    # the identity's boundary-average side against one conditioned table
    # per block; the margins and every vertex's comparison through the
    # tensorization chain
    thetas = (0.3, 0.5, 0.7)
    bad = []
    count = 0
    for i in range(25):
        n = 2 + i % 3
        d = random_gibbs(n, 10_000 + i)
        for j in range(20):
            f = random_positive_f(n, 10_500 + 20 * i + j)
            theta = thetas[count % 3]
            rhs = compare_identity_check(d, theta, count % n, f).rhs
            lhs = oracle_compare_subset_route(d, theta, count % n, f)
            if abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs), 1e-300):
                bad.append((i, j, "identity", lhs, rhs))
            [rep] = tensorization_chain_check(d, theta, [f])
            if not rep.passed:
                bad.append((i, j, "tensorization", rep.witness))
            count += 1
    assert count == 500
    announce(8, "magnetized covariance identities and comparisons", not bad, 120, str(bad[:3]))


def test_criterion_09_dirichlet_routes(announce):
    bad = []
    for i in range(500):
        n = 2 + i % 3
        d = random_gibbs(n, 11_000 + i) if i % 2 else random_dist(n, 11_000 + i)
        f = random_positive_f(n, 11_500 + i)
        [pair] = dirichlet_form(d, [f])
        for name, [other] in (
            ("sites", dirichlet_form_sites(d, [f])),
            ("inner", dirichlet_form_inner(d, [f])),
        ):
            if abs(pair - other) > 1e-10 * max(abs(pair), abs(other), 1e-300):
                bad.append((i, name, pair, other))
    announce(9, "three Dirichlet form routes agree", not bad, 60, str(bad[:3]))


def product_distribution(n, seed):
    gen = np.random.default_rng(seed)
    w = np.ones(1 << n)
    for v in range(n):
        lam = gen.uniform(0.4, 2.5)
        idx = np.arange(1 << n)
        w[(idx >> v) & 1 == 1] *= lam
    return distribution_from_weights(w)


def test_criterion_10_walk_contraction(announce):
    bad = []
    batteries = []
    for n in (4, 5, 6):
        prod = product_distribution(n, 12_000 + n)
        levels = homogenized_levels(n)
        batteries.append((f"product-{n}", levels, homogenized_law(levels, prod)))
    for n, k in ((4, 2), (5, 2), (6, 3)):
        levels = uniform_slice_levels(n, k)
        size = levels.face_count(k)
        batteries.append((f"uniform-{n}-{k}", levels, np.full(size, 1.0 / size)))
    draw = 0
    for label, levels, mu in batteries:
        for rep_i in range(17):
            gen = np.random.default_rng(13_000 + draw)
            nu = mu * np.exp(gen.normal(size=mu.size))
            nu = nu / nu.sum()
            f = np.exp(np.random.default_rng(13_500 + draw).normal(size=mu.size))
            draw += 1
            for j in range(1, levels.k):
                if not entropy_contraction_check(levels, mu, nu, j, alpha=1.0).passed:
                    bad.append((label, rep_i, j, "contraction"))
                if not local_entropy_decay_check(
                    levels, mu, f, j, contraction=kappa(j, levels.k, 1.0)
                ).passed:
                    bad.append((label, rep_i, j, "decay"))
    assert draw >= 100
    for i in range(4):
        n = 2 + i % 3
        d = random_gibbs(n, 14_000 + i)
        f = random_positive_f(n, 14_500 + i)
        levels = homogenized_levels(n)
        for j in range(1, n + 1):
            rep = ubf_ed_identity_check(d, levels, f, j)
            if not rep.passed:
                bad.append(("ubf-ed", i, j, rep.lhs, rep.rhs))
    announce(10, "down-up walk contraction and level identities", not bad, 180, str(bad[:3]))


def test_criterion_11_hypergeometric(announce):
    bad = []
    for n, k, ell in ((2, 2, 2), (3, 4, 6), (4, 5, 10), (5, 3, 7), (6, 2, 6)):
        spec = HyperGeoSpec(n=n, k=k, ell=ell)
        total = 0.0
        count = 0
        for counts in itertools.product(range(k + 1), repeat=n):
            if sum(counts) == ell:
                total += hypergeo_pmf(spec, counts)
                count += 1
        assert count <= 100_000
        if abs(total - 1.0) > 1e-10:
            bad.append((n, k, ell, "pmf sum", total))
    spec = HyperGeoSpec(n=2, k=2, ell=2)
    draws = hypergeo_sample(spec, seed=2024, size=1_000_000)
    for a0, p in ((0, 1 / 6), (1, 2 / 3), (2, 1 / 6)):
        freq = float(np.mean(draws[:, 0] == a0))
        sigma = math.sqrt(p * (1 - p) / draws.shape[0])
        if abs(freq - p) > 3 * sigma:
            bad.append(("sampler", a0, freq, p))
    for k in (5, 10, 20, 50):
        spec = HyperGeoSpec(n=3, k=k, ell=k)
        for eps in (0.1, 0.2, 0.3, 0.5):
            if not hypergeo_concentration_check(spec, eps).passed:
                bad.append(("tail", k, eps))
    announce(11, "hypergeometric law, sampler, and tails", not bad, 120, str(bad[:3]))


def test_criterion_12_regime_verification(announce):
    bad = []
    for fam, model in regime_grid():
        checks, report = verification_bounds_check(model, 0.5)
        if not report["pass"]:
            bad.append((fam, model.n, model.beta,
                        [c.name for c in checks if not c.passed]))
    announce(12, "field-dependent regime bounds", not bad, 120, str(bad[:3]))


def test_criterion_13_dobrushin_mls(announce):
    bad = []
    dists = []
    seed = 0
    while len(dists) < 10 and seed < 500:
        n = 2 + seed % 3
        d = random_gibbs(n, 15_000 + seed)
        seed += 1
        threshold = dobrushin_bound(d)[1]["threshold"]
        if threshold is not None:
            dists.append((d, threshold))
    assert len(dists) == 10
    for i, (d, threshold) in enumerate(dists):
        fs = [random_positive_f(d.n, 16_000 + 100 * i + j) for j in range(100)]
        for j, rep in enumerate(dobrushin_mls_check(d, threshold, fs, dirichlet_form(d, fs))):
            if not rep.passed or (rep.witness and "not applicable" in rep.witness):
                bad.append((i, j, rep.lhs, rep.rhs))
    announce(13, "contraction norm lower bound on the entropy ratio", not bad, 60, str(bad[:3]))


def test_criterion_14_cycle_mixing_scaling(announce):
    ratios = []
    for n in range(4, 13):
        model = IsingModel(n=n, edges=cycle_edges(n), beta=0.6, lam=(1.0,) * n)
        t = mixing_time_exact(enumerate_gibbs(model), 0.25)
        ratios.append(t / (n * math.log(n)))
    spread = max(ratios) / min(ratios)
    announce(14, "cycle mixing time tracks n log n", spread <= 2.0, 300,
             f"ratios {[round(r, 3) for r in ratios]}")


def test_criterion_15_deterministic_reports(announce, tmp_path):
    import json

    from glab.cli import RunConfig, run_suite
    from glab.model import model_to_json

    model = IsingModel(n=3, edges=cycle_edges(3), beta=0.8, lam=(0.5, 1.0, 2.0))
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model_to_json(model)))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = RunConfig(command="all", model_path=str(model_path), seed=11,
                        out_dir=str(out))
        assert run_suite(cfg).passed
        outs.append(out)
    first = sorted(p.name for p in outs[0].iterdir() if not p.name.endswith("_meta.json"))
    second = sorted(p.name for p in outs[1].iterdir() if not p.name.endswith("_meta.json"))
    same = first == second and all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in first
    )
    announce(15, "reruns reproduce reports byte for byte", same and len(first) > 10, 60)
