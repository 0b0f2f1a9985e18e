import numpy as np
import pytest

from glab.capacity import CapacityError
from glab.exact import DenseDistribution, enumerate_gibbs
from glab.model import IsingModel, cycle_edges
from glab import spectral
from glab.spectral import (
    FieldSamplerConfig,
    correlation_matrix,
    dobrushin_matrix,
    homog_spectrum_check,
    homogenize,
    match_spectra,
    matrix_report,
    si_sup_estimate,
    signed_influence_matrix,
)

from oracles import (oracle_correlation, oracle_dobrushin, oracle_influence, oracle_match_spectra,
                     oracle_min_sum_total, oracle_si_sup_estimate, uniform_distribution)
from util import random_dist, random_gibbs, regime_grid


def edge_dist(beta, lam=(1.0, 1.0)):
    return enumerate_gibbs(IsingModel(n=2, edges=[(0, 1)], beta=beta, lam=lam))


def test_two_vertex_closed_form():
    for beta in (1 / 3, 0.5, 1.0, 2.0, 3.0):
        inf = signed_influence_matrix(edge_dist(beta))
        want = (beta - 1.0) / (beta + 1.0)
        assert inf[0, 1] == pytest.approx(want, abs=1e-12)
        assert inf[1, 0] == pytest.approx(want, abs=1e-12)
        assert inf[0, 0] == 0.0


def test_influence_matches_oracle():
    for seed in range(8):
        d = random_gibbs(3, seed)
        assert np.allclose(signed_influence_matrix(d), oracle_influence(d), atol=1e-10)


def test_correlation_matches_oracle():
    for seed in range(8):
        d = random_gibbs(3, seed + 50)
        assert np.allclose(correlation_matrix(d), oracle_correlation(d), atol=1e-10)


def test_dobrushin_matches_oracle():
    for seed in range(8):
        d = random_gibbs(3, seed + 100)
        assert np.allclose(dobrushin_matrix(d), oracle_dobrushin(d), atol=1e-10)


def test_dobrushin_single_edge():
    a = dobrushin_matrix(edge_dist(0.5))
    assert a[0, 1] == pytest.approx(1 / 3, abs=1e-12)
    assert a[1, 0] == pytest.approx(1 / 3, abs=1e-12)
    assert a[0, 0] == 0.0


def test_influence_uniform_is_zero():
    assert np.allclose(signed_influence_matrix(uniform_distribution(3)), 0.0)


def test_matrix_report_norms():
    m = np.array([[0.0, -0.5], [0.25, 0.0]])
    rep = matrix_report(m, "t")
    assert rep["inf_norm"] == pytest.approx(0.5)
    assert rep["one_norm"] == pytest.approx(0.5)
    assert rep["two_norm_upper"] == pytest.approx(0.5)
    # eigenvalues are +-i sqrt(1/8): complex, so no max real eig
    assert rep["max_real_eig"] is None
    assert len(rep["complex_eigs"]) == 2


def test_match_spectra_zero_on_identical():
    eigs = np.array([1.0 + 0j, 0.5 + 0j, -0.25 + 0j])
    assert match_spectra(eigs, eigs.copy()) == pytest.approx(0.0, abs=1e-15)


def test_min_sum_assignment_matches_scipy_totals():
    gen = np.random.default_rng(2024)
    for size in list(range(21)) * 4:
        cost = gen.random((size, size))
        if size > 2 and gen.random() < 0.5:
            # tied columns: several pairings reach the least total
            cost[:, gen.integers(size, size=size // 2)] = cost[:, :size // 2]
        cols = spectral._min_sum_assignment(cost)
        assert sorted(cols) == list(range(size))
        assert float(np.sum(cost[np.arange(size), cols])) == oracle_min_sum_total(cost)


def test_min_sum_assignment_refuses_bad_costs():
    for cost in (np.zeros((2, 3)), np.zeros(4), np.array([[0.0, np.nan], [1.0, 2.0]]),
                 np.array([[0.0, np.inf], [1.0, 2.0]])):
        with pytest.raises(ValueError):
            spectral._min_sum_assignment(cost)


def test_match_spectra_bits_match_scipy_on_regime_grid():
    for _, model in regime_grid():
        d = enumerate_gibbs(model)
        n = d.n
        cor = spectral._correlation(next(spectral._site_moments(homogenize(d),
                                                                np.zeros((1, 2 * n))))[0])
        a = np.linalg.eigvals(cor)
        b = np.concatenate([np.linalg.eigvals(signed_influence_matrix(d)) + 1.0, np.zeros(n)])
        assert match_spectra(a, b).hex() == oracle_match_spectra(a, b).hex()


def test_homogenize_structure():
    for d in (edge_dist(0.5), random_gibbs(4, 5), random_dist(4, 6, zero_frac=0.4)):
        n = d.n
        ground, faces, probs = homogenize(d)
        assert ground == 2 * n
        support = d.support_indices
        assert faces.size == probs.size == support.size
        if d.full_support():
            assert faces.size == 1 << n
        # increasing masks of n elements each: the +1 sites of sigma, then
        # the mirrors of its -1 sites
        assert np.all(np.diff(faces) > 0)
        assert all(bin(int(m)).count("1") == n for m in faces)
        states = faces & ((1 << n) - 1)
        assert np.array_equal(faces >> n, ~states & ((1 << n) - 1))
        assert sorted(states.tolist()) == support.tolist()
        assert np.array_equal(probs, d.prob[states])
        # its correlation matrix is that of the dense table over 2n sites
        dense = np.zeros(1 << ground)
        dense[faces] = probs
        want = oracle_correlation(DenseDistribution(ground, dense))
        got = spectral._correlation(next(spectral._site_moments(
            (ground, faces, probs), np.zeros((1, ground))))[0])
        assert np.allclose(got, want, atol=1e-12)


def test_homog_spectrum_single_edge_frozen():
    out = homog_spectrum_check(edge_dist(0.5))
    assert out["pass"]
    reals = sorted(z[0] for z in out["correlation_spectrum"])
    assert reals == pytest.approx([0.0, 0.0, 2 / 3, 4 / 3], abs=1e-9)


def test_homog_spectrum_random_fields():
    # the 12-cycle's homogenization lies past the exact limit of a table
    # over its 24 ground elements, but is held on its 4096 faces
    cycle12 = enumerate_gibbs(IsingModel(n=12, edges=cycle_edges(12), beta=0.6,
                                         lam=(2.0, 0.5) * 6))
    for d in [random_gibbs(4, seed + 300) for seed in range(10)] + [cycle12]:
        out = homog_spectrum_check(d)
        assert out["pass"], out["matching_distance"]
        assert len(out["correlation_spectrum"]) == 2 * d.n


def test_si_sup_estimate_dominates_plain_norm():
    d = edge_dist(3.0)
    base = matrix_report(signed_influence_matrix(d), "influence")["inf_norm"]
    est = si_sup_estimate(d, FieldSamplerConfig(grid_points=7))
    assert est["value"] >= base - 1e-12
    assert est["fields_evaluated"] == 49


def test_si_sup_estimate_budget():
    d = random_dist(3, 8)
    # 60^3 = 216,000 grid vectors, above the fixed cap of 100,000
    with pytest.raises(CapacityError, match="100000"):
        si_sup_estimate(d, FieldSamplerConfig(grid_points=60))


def test_si_sup_estimate_seeded_draws_are_stable():
    d = edge_dist(0.5)
    cfg = FieldSamplerConfig(grid_points=3, random_draws=5, seed=9)
    a = si_sup_estimate(d, cfg)
    b = si_sup_estimate(d, cfg)
    assert a["value"] == b["value"]
    assert a["maximizing_field"] == b["maximizing_field"]


def _sparse_tables():
    """Tables with zero entries: a random one, and one whose site 0 is
    frozen plus (a degenerate marginal, so a zero influence row)."""
    sparse = random_dist(4, 21, zero_frac=0.3)
    frozen = np.where(np.arange(16) & 1, random_dist(4, 22, zero_frac=0.3).prob, 0.0)
    return [sparse, DenseDistribution(4, frozen / frozen.sum())]


def test_influence_and_correlation_match_oracle_on_sparse_tables():
    for d in _sparse_tables():
        assert np.allclose(signed_influence_matrix(d), oracle_influence(d), atol=1e-12)
        assert np.allclose(correlation_matrix(d), oracle_correlation(d), atol=1e-12)
    assert np.all(signed_influence_matrix(_sparse_tables()[1])[0] == 0.0)


def test_si_sup_estimate_matches_per_field_oracle():
    # beta = 1 models are product measures: their influences are zero up
    # to rounding, hence the absolute floor next to the relative bound
    dists = [enumerate_gibbs(m) for _, m in regime_grid()] + _sparse_tables()
    for d in dists:
        cfg = FieldSamplerConfig(grid_points=3 if d.n == 3 else 2, random_draws=4, seed=5)
        fields = spectral._sampled_fields(cfg, d.n)
        got = si_sup_estimate(d, cfg)
        want, pairs = oracle_si_sup_estimate(d, cfg)
        assert [tuple(row) for row in fields.tolist()] == [phi for phi, _ in pairs]
        assert got["fields_evaluated"] == want["fields_evaluated"] == len(pairs)
        assert got["value"] == pytest.approx(want["value"], rel=1e-12, abs=1e-14)
        assert got["note"] == want["note"]
        # the batched maximizer reaches the oracle's maximum
        at = dict(pairs)[tuple(got["maximizing_field"])]
        assert at == pytest.approx(want["value"], rel=1e-12, abs=1e-14)
        top, second = sorted(v for _, v in pairs)[:-3:-1]
        if top - second > 1e-12 * abs(top) + 1e-14:
            assert got["maximizing_field"] == want["maximizing_field"]


def test_si_sup_estimate_small_chunks_agree(monkeypatch):
    d = random_dist(5, 17)
    cfg = FieldSamplerConfig(grid_points=3, random_draws=6, seed=2)
    whole = si_sup_estimate(d, cfg)
    # 5 of the 32 support states and 2 field rows per chunk
    monkeypatch.setattr(spectral, "_SWEEP_CHUNK_BYTES", 8 * 60 * 5)
    chunked = si_sup_estimate(d, cfg)
    monkeypatch.undo()
    assert chunked["value"] == pytest.approx(whole["value"], rel=1e-12)
    assert chunked["fields_evaluated"] == whole["fields_evaluated"] == 3 ** 5 + 6
    # a row's field never moves that row, so the inf-norm ties exactly
    # across the fields of its maximizing site: the two maximizers may
    # differ, but each reaches the maximum
    _, pairs = oracle_si_sup_estimate(d, cfg)
    for est in (whole, chunked):
        assert dict(pairs)[tuple(est["maximizing_field"])] == pytest.approx(whole["value"],
                                                                            rel=1e-12)


def test_site_moments_on_a_support_law():
    # the 2-copy lift of a table with zeros, as its feasible states and as
    # the dense table over all 2^8 lifted configurations
    from glab.transform import k_transform
    from oracles import oracle_k_transform

    d = random_dist(4, 19, zero_frac=0.3)
    td = k_transform(d, 2)
    lifted, _ = oracle_k_transform(d, 2)
    held = td.states[td.prob > 0]
    assert np.array_equal(held, lifted.support_indices)
    gen = np.random.default_rng(20)
    # one untilted row (per-row contraction) and 12 field rows (one GEMM)
    for logs in (np.zeros((1, 8)), gen.normal(0.0, 1.0, size=(12, 8))):
        want = np.concatenate(list(spectral._site_moments(spectral._support_law(lifted), logs)))
        # the same states in the same order: bit for bit
        got = np.concatenate(list(spectral._site_moments((8, held, lifted.prob[held]), logs)))
        assert got.tobytes() == want.tobytes()
        # every feasible state, zero-mass ones included, with the lift's
        # own normalization: to rounding
        got = np.concatenate(list(spectral._site_moments((8, td.states, td.prob), logs)))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-16)
