import numpy as np
import pytest
from hypothesis import given, strategies as st

from glab.model import (
    IsingModel,
    complete_edges,
    cycle_edges,
    delta_interior,
    flip_direction,
    in_delta_interior,
    load_model,
    model_to_json,
    normalize_edges,
    parse_model,
    path_edges,
    star_edges,
)

from oracles import config_index, spins_from_index, uniqueness_thresholds


def test_edge_families():
    assert path_edges(3) == [(0, 1), (1, 2)]
    assert cycle_edges(3) == [(0, 1), (1, 2), (2, 0)]
    assert star_edges(4) == [(0, 1), (0, 2), (0, 3)]
    assert len(complete_edges(4)) == 6
    assert path_edges(1) == []


def test_normalize_edges_rejects_bad():
    with pytest.raises(ValueError):
        normalize_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        normalize_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        normalize_edges(3, [(0, 1), (1, 0)])  # duplicate after sorting
    assert normalize_edges(3, [(2, 1)]) == ((1, 2),)


def test_model_validation():
    with pytest.raises(ValueError):
        IsingModel(n=2, edges=[(0, 1)], beta=-1.0, lam=(1.0, 1.0))
    with pytest.raises(ValueError):
        IsingModel(n=2, edges=[(0, 1)], beta=1.0, lam=(1.0,))
    m = IsingModel(n=3, edges=path_edges(3), beta=0.5, lam=(1.0, 2.0, 3.0))
    assert m.max_degree == 2
    assert m.neighbors()[1] == [0, 2]


def test_uniqueness_thresholds():
    lo, hi = uniqueness_thresholds(3)
    assert lo == pytest.approx(1.0 / 3.0)
    assert hi == pytest.approx(3.0)
    lo, hi = delta_interior(3, 0.5)
    assert lo == pytest.approx(1.5 / 2.5)
    assert hi == pytest.approx(2.5 / 1.5)
    assert in_delta_interior(1.0, 0.5, 3)
    assert not in_delta_interior(0.5, 0.5, 3)
    # the interval is closed
    assert in_delta_interior(1.5 / 2.5, 0.5, 3)


def test_degree_floor_in_interior():
    # degree below 3 is clamped to 3, so a 2-regular cycle uses (0.6, 5/3)
    assert in_delta_interior(0.61, 0.5, max(3, 2))
    assert not in_delta_interior(0.59, 0.5, max(3, 2))


def test_config_index_round_trip():
    spins = np.array([1, -1, 1])
    idx = config_index(spins)
    assert idx == 0b101
    assert np.array_equal(spins_from_index(idx, 3), spins)


def test_flip_direction():
    m = IsingModel(n=3, edges=[], beta=1.0, lam=(3.0, 0.5, 1.0))
    assert list(flip_direction(m)) == [1, -1, 1]


def test_parse_model_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_model({"n": 2, "edges": [], "beta": 1.0, "lambda": [1, 1], "zeta": 3})


def test_parse_model_rejects_delta():
    # the interior margin is a run option (--delta), not part of a model
    with pytest.raises(ValueError, match=r"unknown model fields: \['delta'\]"):
        parse_model({"n": 2, "edges": [], "beta": 1.0, "lambda": [1, 1], "delta": 0.3})


@pytest.mark.parametrize("n", [-1, 0])
@pytest.mark.parametrize("lam", [2.0, [2.0]], ids=["scalar", "list"])
def test_parse_model_without_sites_gets_the_model_message(n, lam):
    # a scalar lambda is broadcast only once n is known to be positive
    with pytest.raises(ValueError, match=f"need at least one vertex, got n={n}"):
        parse_model({"n": n, "edges": [], "beta": 1.0, "lambda": lam})


def test_scalar_lambda_is_broadcast():
    m = parse_model({"n": 3, "edges": [[0, 1]], "beta": 1.0, "lambda": 2})
    assert m.lam.tolist() == [2.0, 2.0, 2.0]


def same_model(a, b):
    return (
        a.n == b.n
        and a.edges == b.edges
        and a.beta == b.beta
        and np.array_equal(a.lam, b.lam)
    )


def test_model_json_round_trip(tmp_path):
    m = IsingModel(n=4, edges=cycle_edges(4), beta=0.6, lam=(0.5, 2.0, 0.5, 2.0))
    obj = model_to_json(m)
    assert same_model(parse_model(obj), m)
    path = tmp_path / "m.json"
    import json

    path.write_text(json.dumps(obj))
    assert same_model(load_model(str(path)), m)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
def test_round_trip_random_models(n, seed):
    from util import random_model

    m = random_model(n, seed)
    assert same_model(parse_model(model_to_json(m)), m)


@given(st.integers(min_value=0, max_value=63))
def test_spin_index_involution(idx):
    spins = spins_from_index(idx, 6)
    assert config_index(spins) == idx
    assert set(np.unique(spins)).issubset({-1, 1})


# ---------------------------------------------------------------------------
# automorphisms


def _group_closure(gens, n):
    """Every (image, flip) the generators compose to, with the identity."""
    ident = (tuple(range(n)), False)
    seen, todo = {ident}, [ident]
    while todo:
        image, flip = todo.pop()
        for g_image, g_flip in gens:
            comp = (tuple(g_image[image[v]] for v in range(n)), flip != g_flip)
            if comp not in seen:
                seen.add(comp)
                todo.append(comp)
    return seen


def _alternating(n):
    return tuple((2.0, 0.5)[v % 2] for v in range(n))


AUTOMORPHISM_CASES = (
    [pytest.param(IsingModel(n, cycle_edges(n), 0.6, (1.0,) * n), 4 * n, id=f"cycle{n}-uniform")
     for n in range(3, 7)]
    + [pytest.param(IsingModel(n, cycle_edges(n), 0.6, _alternating(n)),
                    2 * n if n % 2 == 0 else 2, id=f"cycle{n}-alternating")
       for n in range(3, 7)]
    + [pytest.param(IsingModel(6, star_edges(6), 0.9, (1.0,) * 6), 2 * 120, id="star6"),
       pytest.param(IsingModel(5, complete_edges(5), 1.3, (1.0,) * 5), 2 * 120, id="K5"),
       pytest.param(IsingModel(5, path_edges(5), 0.6, (1.0,) * 5), 4, id="path5")]
)


@pytest.mark.parametrize("model,order", AUTOMORPHISM_CASES)
def test_automorphism_generators(model, order):
    from glab.exact import enumerate_gibbs
    from glab.model import automorphism_generators

    from oracles import oracle_automorphisms

    n = model.n
    gens = automorphism_generators(model)
    table = enumerate_gibbs(model).prob
    idx = np.arange(1 << n)
    for image, flip in gens:
        assert sorted(image) == list(range(n))
        assert {tuple(sorted((image[u], image[v]))) for u, v in model.edges} == set(model.edges)
        want = 1.0 / model.lam if flip else model.lam
        assert np.array_equal(model.lam[list(image)], want)
        mapped = np.zeros_like(idx)
        for v in range(n):
            mapped |= ((idx >> v) & 1) << image[v]
        if flip:
            mapped ^= (1 << n) - 1
        np.testing.assert_allclose(table[mapped], table, rtol=1e-15, atol=0)
    group = _group_closure(gens, n)
    assert len(group) == order
    assert group == oracle_automorphisms(model)


def test_automorphisms_of_random_fields_are_trivial():
    from glab.model import automorphism_generators

    from util import random_model

    for seed in range(10):
        assert automorphism_generators(random_model(5, seed)) == []
