import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import glab
from glab.cli import (
    RunConfig,
    SUITES,
    _level_rows,
    emit_series,
    json_17g,
    main,
    model_fingerprint,
    run_suite,
)
from glab.exact import enumerate_gibbs
from glab.model import IsingModel, cycle_edges, model_to_json, star_edges

MODEL = IsingModel(n=3, edges=cycle_edges(3), beta=0.8, lam=(0.5, 1.0, 2.0))


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(MODEL)))
    return str(path)


# ---------------------------------------------------------------------------
# serialization


def test_json_17g_basics():
    assert json_17g({"b": 1, "a": True}) == '{"a":true,"b":1}'
    assert json_17g(None) == "null"
    assert json_17g([1.5, 2]) == "[1.5,2]"
    assert json_17g(1 / 3) == "0.33333333333333331"
    assert json_17g(np.float64(0.25)) == "0.25"
    assert json_17g(np.int32(7)) == "7"
    assert json_17g(np.array([1.0, 2.0])) == "[1,2]"


def test_json_17g_rejects_non_finite():
    with pytest.raises(ValueError):
        json_17g(float("nan"))
    with pytest.raises(ValueError):
        json_17g({"x": math.inf})
    with pytest.raises(TypeError):
        json_17g({1: "non-string key"})


def test_json_17g_round_trips_floats():
    vals = [1 / 3, 1e-300, 123456.789, math.pi]
    for v in vals:
        assert json.loads(json_17g(v)) == v


def test_emit_series(tmp_path):
    path = tmp_path / "s.csv"
    emit_series(path, ("k", "gap"), [np.array([2, 4]), np.array([0.5, 1 / 3])])
    text = path.read_text()
    assert text == "k,gap\n2,0.5\n4,0.33333333333333331\n"
    emit_series(path, ("k", "gap"), [np.array([], dtype=np.int64), np.array([])])
    assert path.read_text() == "k,gap\n"
    emit_series(path, None, np.array([[1.0, 0.5], [0.25, 0.0]]))
    assert path.read_text() == "1,0.5\n0.25,0\n"
    emit_series(path, ("n", "face"), [np.array([3], dtype=np.uint8), ["0|2"]])
    assert path.read_text() == "n,face\n3,0|2\n"
    with pytest.raises(ValueError):
        emit_series(path, ("a",), np.array([[1, 2]]))


def _rows(table):
    """The rows of a table in either form, cells as numpy scalars or str."""
    return list(table) if isinstance(table, np.ndarray) else list(zip(*table))


def test_emit_series_streams_the_oracle_bytes(tmp_path, monkeypatch):
    import glab.cli as cli
    from oracles import oracle_emit_series

    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 4)
    k = np.arange(11)
    columns = [k, k / 7, ["x" if i % 2 else "y|z" for i in range(11)], -k.astype(np.int8)]
    header = ("k", "ratio", "tag", "neg")
    cases = [(header, columns), (None, columns), (("k", "gap"), np.zeros((0, 2))),
             (None, []), (None, np.arange(33, dtype=np.uint16).reshape(11, 3))]
    for idx, (head, table) in enumerate(cases):
        got, want = tmp_path / f"got{idx}.csv", tmp_path / f"want{idx}.csv"
        emit_series(got, head, table)
        oracle_emit_series(want, head, _rows(table))
        assert got.read_bytes() == want.read_bytes()
    assert (tmp_path / "got2.csv").read_bytes() == b"k,gap\n"
    assert (tmp_path / "got3.csv").read_bytes() == b"\n"


def _homogenized(model):
    """(levels, law) of a model's homogenization."""
    from glab.walks import homogenized_law, homogenized_levels

    levels = homogenized_levels(model.n)
    return levels, homogenized_law(levels, enumerate_gibbs(model))


def test_level_rows_csv(tmp_path):
    levels, mu = _homogenized(MODEL)
    emit_series(tmp_path / "lv.csv", ("level", "face", "probability"), _level_rows(levels, mu))
    lv = (tmp_path / "lv.csv").read_text().splitlines()
    assert lv[0] == "level,face,probability"
    assert lv[1].startswith("0,,")  # the empty face
    assert any("|" in line for line in lv[2:])


class _RecordingStream:
    """A text stream that keeps every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_write_series_raises_before_the_first_write(monkeypatch):
    import glab.cli as cli

    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 4)
    late_nan = np.arange(11, dtype=np.float64)
    late_nan[-1] = math.nan
    bad = [
        (("a", "b"), [np.arange(9), np.arange(10)]),  # unequal lengths
        (("a", "b", "c"), [np.arange(9), np.arange(9)]),  # a header of another width
        (("a", "b"), [np.arange(11), late_nan]),  # a NaN in the third chunk
        (None, np.array([[1.0, 2.0], [3.0, math.inf]])),
        (None, [np.arange(4), np.arange(8).reshape(4, 2)]),  # a column that is not 1-D
        (None, np.arange(4)),  # a table array that is not 2-D
    ]
    for header, table in bad:
        stream = _RecordingStream()
        with pytest.raises(ValueError):
            cli._write_series(stream, header, table)
        assert stream.writes == []


@pytest.mark.parametrize("column", [
    np.array([True, False]),
    np.array([1 + 2j, 3j]),
    np.array([1, "a"], dtype=object),
    np.array(["a", "b"]),
    np.array(["2024-01-01", "2024-01-02"], dtype="datetime64[D]"),
    [1, 2],
    ["a", 2],
    ("a", "b"),
], ids=["bool", "complex", "object", "str-array", "datetime", "int-list", "mixed-list", "tuple"])
def test_emit_series_refuses_other_columns(tmp_path, column):
    # a refused series raises before the file is opened: no file is made,
    # and an existing one keeps its bytes
    path = tmp_path / "bad.csv"
    with pytest.raises(TypeError):
        emit_series(path, ("k", "x"), [np.arange(2), column])
    assert not path.exists()
    if isinstance(column, np.ndarray):
        path.write_bytes(b"k,x\n0,1\n")
        with pytest.raises(TypeError):
            emit_series(path, None, column.reshape(1, 2))
        assert path.read_bytes() == b"k,x\n0,1\n"


_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 1 / 3]))
# (dtype, values) of each numeric column kind; uint64 reaches 2^63 and above
_NUMERIC = [
    (np.int64, st.integers(-(1 << 63), (1 << 63) - 1)),
    (np.uint64, st.one_of(st.integers(1 << 63, (1 << 64) - 1), st.integers(0, (1 << 64) - 1))),
    (np.float64, _FLOATS),
]
_STRS = st.text(alphabet="ab|%-.,e09 ", max_size=6)


@st.composite
def _series(draw):
    """(header or None, table): a 2-D array of one numeric dtype, or
    columns of any numeric dtype or str."""
    width = draw(st.integers(1, 4))
    count = draw(st.integers(0, 12))
    header = draw(st.none() | st.just(tuple(f"c{c}" for c in range(width))))
    if draw(st.booleans()):
        dtype, values = draw(st.sampled_from(_NUMERIC))
        cells = draw(st.lists(values, min_size=count * width, max_size=count * width))
        return header, np.array(cells, dtype=dtype).reshape(count, width)
    columns = []
    for _ in range(width):
        kind = draw(st.sampled_from(_NUMERIC + [(None, _STRS)]))
        cells = draw(st.lists(kind[1], min_size=count, max_size=count))
        columns.append(cells if kind[0] is None else np.array(cells, dtype=kind[0]))
    return header, columns


@settings(max_examples=200, deadline=None)
@given(_series(), st.integers(1, 5))
def test_emit_series_matches_oracle_on_typed_columns(series, per_write):
    import glab.cli as cli
    from oracles import oracle_emit_series

    header, table = series
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_ROWS_PER_WRITE", per_write)
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        emit_series(got, header, table)
        oracle_emit_series(want, header, _rows(table))
        assert got.read_bytes() == want.read_bytes()


@settings(max_examples=50, deadline=None)
@given(_series(), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_emit_series_rejects_non_finite_like_oracle(series, bad, data):
    import glab.cli as cli
    from oracles import oracle_emit_series

    header, table = series
    width = table.shape[1] if isinstance(table, np.ndarray) else len(table)
    count = len(_rows(table))
    if not count:
        table = np.full((1, width), 0.5)
        count = 1
    r = data.draw(st.integers(0, count - 1))
    c = data.draw(st.integers(0, width - 1))
    if isinstance(table, np.ndarray):
        table = table.astype(np.float64)
        table[r, c] = bad
    else:
        table[c] = np.full(count, 0.5)
        table[c][r] = bad
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_ROWS_PER_WRITE", 3)
        got = Path(tmp) / "got.csv"
        with pytest.raises(ValueError):
            emit_series(got, header, table)
        assert not got.exists()
        with pytest.raises(ValueError):
            oracle_emit_series(Path(tmp) / "want.csv", header, _rows(table))


def test_emit_series_writes_chain_tables_as_the_oracle_bytes(tmp_path, monkeypatch):
    import glab.cli as cli
    from oracles import oracle_emit_series
    from glab.glauber import run_chain

    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 3)
    cycle64 = IsingModel(n=64, edges=cycle_edges(64), beta=0.6, lam=(2.0, 0.5) * 32)
    wide = run_chain(cycle64, 2000, 5)
    assert int(wide.states.max()) >= 1 << 63
    traces = [run_chain(MODEL, 50, 4, init=init, thin=thin)
              for thin in (1, 3, 10) for init in (None, 5)]
    traces += [wide, run_chain(MODEL, 0, 4, init=6), run_chain(MODEL, 4, 4, thin=10)]
    assert [len(t.rows()) for t in traces[-2:]] == [1, 1]
    for idx, trace in enumerate(traces):
        for head in (("step", "config_index"), None):
            got, want = tmp_path / f"got{idx}.csv", tmp_path / f"want{idx}.csv"
            emit_series(got, head, trace.rows())
            oracle_emit_series(want, head, zip(trace.rows()[:, 0].tolist(), trace.states.tolist()))
            assert got.read_bytes() == want.read_bytes()


def test_emit_series_writes_numeric_tables_as_the_oracle_bytes(tmp_path, monkeypatch):
    import glab.cli as cli
    from oracles import oracle_emit_series

    monkeypatch.setattr(cli, "_ROWS_PER_WRITE", 3)
    gen = np.random.default_rng(3)
    tables = [gen.integers(-(1 << 62), 1 << 62, size=(7, 3)),
              gen.integers(-128, 128, size=(5, 2)).astype(np.int8),
              gen.integers(0, 1 << 64, size=(7, 2), dtype=np.uint64),
              gen.normal(size=(7, 3)),
              gen.normal(size=(4, 4)).astype(np.float32),
              np.zeros((0, 2), dtype=np.int64)]
    for idx, table in enumerate(tables):
        for head in (tuple(f"c{c}" for c in range(table.shape[1])), None):
            got, want = tmp_path / f"got{idx}.csv", tmp_path / f"want{idx}.csv"
            emit_series(got, head, table)
            oracle_emit_series(want, head, table)
            assert got.read_bytes() == want.read_bytes()


def test_chain_table_is_written_in_bounded_chunks_without_a_copy():
    import glab.cli as cli
    from glab.glauber import run_chain

    trace = run_chain(MODEL, 2 * cli._ROWS_PER_WRITE + 5, 4)
    assert trace.rows() is trace.table
    assert trace.table.flags.c_contiguous
    assert np.shares_memory(trace.table, trace.states)
    stream = _RecordingStream()
    cli._write_series(stream, ("step", "config_index"), trace.rows())
    assert stream.writes[0] == "step,config_index\n"
    rows_per_write = [text.count("\n") for text in stream.writes[1:]]
    assert rows_per_write == [cli._ROWS_PER_WRITE, cli._ROWS_PER_WRITE, 6]


def test_level_rows_match_oracle(tmp_path):
    from oracles import oracle_emit_series, oracle_level_rows

    lam = (2.0, 0.5) * 4
    models = {"cycle8": IsingModel(n=8, edges=cycle_edges(8), beta=0.6, lam=lam),
              "star8": IsingModel(n=8, edges=star_edges(8), beta=0.9, lam=lam)}
    header = ("level", "face", "probability")
    for name, model in models.items():
        levels, mu = _homogenized(model)
        got, want = tmp_path / f"{name}.csv", tmp_path / f"{name}_oracle.csv"
        emit_series(got, header, _level_rows(levels, mu))
        oracle_emit_series(want, header, oracle_level_rows(levels, mu))
        assert got.read_bytes() == want.read_bytes()
        faces = [line.split(",")[1] for line in got.read_text().splitlines()[1:]]
        assert max(int(e) for face in faces if face for e in face.split("|")) >= 8


def test_model_fingerprint_stable():
    a = model_fingerprint(MODEL)
    b = model_fingerprint(IsingModel(n=3, edges=cycle_edges(3), beta=0.8, lam=(0.5, 1.0, 2.0)))
    c = model_fingerprint(IsingModel(n=3, edges=cycle_edges(3), beta=0.9, lam=(0.5, 1.0, 2.0)))
    assert a == b
    assert a != c
    assert len(a) == 12


# ---------------------------------------------------------------------------
# suite runner


def test_run_suite_writes_reports(tmp_path, model_file):
    cfg = RunConfig(command="dobrushin", model_path=model_file, seed=3,
                    out_dir=str(tmp_path / "out"))
    result = run_suite(cfg)
    assert result.passed
    body = json.loads((tmp_path / "out" / "dobrushin.json").read_text())
    assert body["suite"] == "dobrushin"
    assert body["version"] == glab.__version__
    assert body["pass"] is True
    assert "wall_time" not in json_17g(body)
    meta = json.loads((tmp_path / "out" / "dobrushin_meta.json").read_text())
    assert meta["suite"] == "dobrushin"
    assert meta["wall_time_seconds"] >= 0.0


def test_run_suite_reruns_byte_identical(tmp_path, model_file):
    for d in ("a", "b"):
        cfg = RunConfig(command="all", model_path=model_file, seed=11,
                        out_dir=str(tmp_path / d))
        run_suite(cfg)
    names = sorted(path.name for path in (tmp_path / "a").iterdir()
                   if not path.name.endswith("_meta.json"))
    assert sorted(path.name for path in (tmp_path / "b").iterdir()
                  if not path.name.endswith("_meta.json")) == names
    assert {f"{suite}.json" for suite in SUITES + ("all",)} <= set(names)
    # every series of every suite went through the writer
    assert [name for name in names if name.endswith(".csv")] == sorted(
        f"{name}.csv" for name in ("influence_matrix", "influence_spectrum", "hf_lbf_gap",
                                   "walks_levels", "walks_kl", "dobrushin_matrix",
                                   "mixing_scaling"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_refused_series_leaves_no_report(tmp_path, model_file, monkeypatch):
    import glab.cli as cli

    real = cli._SUITE_FUNCS["dobrushin"]

    def nan_matrix(model, dist, cfg, inst):
        checks, payload, series = real(model, dist, cfg, inst)
        (name, header, table), = series
        table = table.copy()
        table[0, 1] = math.nan
        return checks, payload, [(name, header, table)]

    monkeypatch.setitem(cli._SUITE_FUNCS, "dobrushin", nan_matrix)
    for command in ("dobrushin", "all"):
        out = tmp_path / command
        out.mkdir()
        (out / "dobrushin_matrix.csv").write_bytes(b"earlier,run\n")
        with pytest.raises(ValueError, match="non-finite"):
            run_suite(RunConfig(command=command, model_path=model_file, seed=7,
                                out_dir=str(out)))
        # the series goes out before the report, so neither JSON file nor
        # the all report exists, and the earlier CSV is untouched
        assert (out / "dobrushin_matrix.csv").read_bytes() == b"earlier,run\n"
        for name in ("dobrushin.json", "dobrushin_meta.json", "all.json", "all_meta.json"):
            assert not (out / name).exists(), (command, name)


def test_mixing_suite_checks_powers_of_two_up_to_t_mix(tmp_path):
    from glab.glauber import _mixing_bracket

    model = IsingModel(n=5, edges=cycle_edges(5), beta=0.6, lam=(2.0, 0.5, 2.0, 0.5, 2.0))
    path = tmp_path / "cycle5.json"
    path.write_text(json.dumps(model_to_json(model)))
    result = run_suite(RunConfig(command="mixing", model_path=str(path), seed=7,
                                 out_dir=str(tmp_path / "out")))
    assert result.payload["mixing_report"]["t_mix_exact"] == 11
    _, tvs = _mixing_bracket(enumerate_gibbs(model), 0.25)
    assert [(c.name, c.lhs, c.rhs) for c in result.checks] == [
        (f"worst-tv-monotone-t{t}", tvs[t], tvs[t // 2]) for t in (2, 4, 8)]


def test_hf_suite_reports_budget_skips(tmp_path, model_file, monkeypatch):
    import glab.factorization as factorization

    # the 3-cycle's 2-copy lift has 27 feasible states: ell = 1 (6 blocks)
    # and ell = 6 (1 block) fit 200 pairs, ell = 3 (20 blocks) does not
    monkeypatch.setattr(factorization, "BLOCK_PAIR_BUDGET", 200)
    result = run_suite(RunConfig(command="hf", model_path=model_file, seed=0,
                                 out_dir=str(tmp_path / "out")))
    assert result.passed
    checks = json.loads((tmp_path / "out" / "hf.json").read_text())["checks"]
    skipped = [c for c in checks if c.get("witness", "").startswith("skipped: ")]
    assert [c["name"] for c in skipped] == ["hf-identity-k2-ell-3"]
    assert skipped[0]["pass"] is True
    assert {"hf-identity-k2-ell-1", "hf-identity-k2-ell-6"} <= {c["name"] for c in checks}


def test_hf_suite_reports_pmf_table_budget_skips(tmp_path, model_file, monkeypatch):
    import glab.factorization as factorization

    # the 3-cycle's lbf series builds tables of 7, 19, 61 and 217 count
    # vectors at k = 2, 4, 8, 16; 61 * (10 * 9 + 110) bytes admit k = 8
    monkeypatch.setattr(factorization, "PMF_TABLE_BYTE_BUDGET", 61 * 200)
    result = run_suite(RunConfig(command="hf", model_path=model_file, seed=0,
                                 out_dir=str(tmp_path / "out")))
    assert result.passed
    report = json.loads((tmp_path / "out" / "hf.json").read_text())
    skipped = [c for c in report["checks"] if c.get("witness", "").startswith("skipped: ")]
    assert [c["name"] for c in skipped] == ["lbf-capacity-k16"]
    assert skipped[0]["pass"] is True
    assert "217 count vectors" in skipped[0]["witness"]
    assert "lbf-gap-trend" in {c["name"] for c in report["checks"]}
    assert report["payload"]["lbf_ks"] == [2, 4, 8]
    rows = (tmp_path / "out" / "hf_lbf_gap.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["k", "2", "4", "8"]


def _cycle(n):
    return IsingModel(n=n, edges=cycle_edges(n), beta=0.6, lam=((2.0, 0.5) * n)[:n])


def test_influence_suite_runs_on_twelve_sites():
    import glab.cli as cli

    # the 12-site homogenization is held on its 4096 faces, not a 24-site table
    model = _cycle(12)
    cfg = RunConfig(command="influence", model_path="", seed=7)
    checks, payload, _ = cli._suite_influence(model, enumerate_gibbs(model), cfg, "cycle12")
    assert [c.name for c in checks] == ["homogenized-correlation-spectrum"]
    assert checks[0].passed
    assert len(payload["homogenized_spectrum"]["correlation_spectrum"]) == 24


def test_influence_spectrum_series_is_sorted_like_python():
    import glab.cli as cli

    for model in (MODEL, _cycle(6), IsingModel(n=4, edges=star_edges(4), beta=0.9,
                                               lam=(2.0, 0.5, 1.0, 3.0))):
        cfg = RunConfig(command="influence", model_path="", seed=7, batch=1)
        _, _, series = cli._suite_influence(model, enumerate_gibbs(model), cfg, "x")
        (_, _, inf_m), (name, _, (re, im)) = series
        want = sorted(np.linalg.eigvals(inf_m).astype(complex).tolist(),
                      key=lambda z: (-z.real, z.imag))
        assert name == "influence_spectrum"
        assert (re.tolist(), im.tolist()) == ([z.real for z in want], [z.imag for z in want])


def test_walks_suite_skips_above_the_level_budget(monkeypatch):
    import glab.cli as cli
    import glab.walks as walks

    def build_nothing(*args):
        raise AssertionError("a level structure was built")

    # 2^13 top faces of size 13 need 4 GiB of levels: the budget refuses
    # them before any subface is listed
    monkeypatch.setattr(walks, "_combinations", build_nothing)
    model = _cycle(13)
    cfg = RunConfig(command="walks", model_path="", seed=7)
    checks, payload, series = cli._suite_walks(model, enumerate_gibbs(model), cfg, "cycle13")
    assert len(checks) == 1 and checks[0].passed
    assert checks[0].witness.startswith("skipped: ")
    assert "budget" in checks[0].witness
    assert (payload, series) == ({}, [])


def test_walks_suite_builds_each_incidence_once(monkeypatch):
    import glab.cli as cli
    import glab.walks as walks

    built = []
    build = walks.build_levels

    def counted(ground, k, faces):
        built.append((ground, k))
        return build(ground, k, faces)

    # the product law and the model law share the homogenized cube
    monkeypatch.setattr(walks, "build_levels", counted)
    model = _cycle(5)
    cfg = RunConfig(command="walks", model_path="", seed=7)
    checks, _, _ = cli._suite_walks(model, enumerate_gibbs(model), cfg, "cycle5")
    assert all(c.passed for c in checks)
    assert built == [(10, 5), (6, 3)]


def test_walks_suite_runs_without_full_support(tmp_path):
    from glab.spectral import homogenize

    from oracles import mask_bits, oracle_levels

    # the two tiny fields underflow: the 4 states with both sites plus
    # have probability 0
    model = IsingModel(n=4, edges=cycle_edges(4), beta=0.6, lam=(1e-300, 1e-300, 1.0, 1.0))
    dist = enumerate_gibbs(model)
    assert np.count_nonzero(dist.prob == 0) == 4
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model)))
    out = CliRunner().invoke(main, ["run", "--suite", "walks", "--model", str(path),
                                    "--seed", "7", "--out", str(tmp_path / "r")])
    assert out.exit_code == 0, out.output
    body = json.loads((tmp_path / "r" / "walks.json").read_text())
    assert body["pass"] is True
    assert body["payload"] == {"model_top_faces": 12, "product_top_faces": 12}
    for name in ("walks.json", "walks_levels.csv", "walks_kl.csv"):
        assert "nan" not in (tmp_path / "r" / name).read_text().lower()
    # the rows are the downward closure of the support faces, no more
    rows = [line.split(",") for line in
            (tmp_path / "r" / "walks_levels.csv").read_text().splitlines()[1:]]
    want_faces, _ = oracle_levels(4, *homogenize(dist)[1:])
    want = [(str(j), "|".join(map(str, mask_bits(m)))) for j in range(5) for m in want_faces[j]]
    assert [(level, face) for level, face, _ in rows] == want
    assert len(rows) == 72
    assert all(float(p) > 0 for _, _, p in rows)


def test_ktransform_suite_reports_capacity_skips(tmp_path):
    # the exact limit of 22 sites admits neither the 24-site nor the
    # 36-site lift of 12 sites
    path = tmp_path / "cycle12.json"
    path.write_text(json.dumps(model_to_json(_cycle(12))))
    result = run_suite(RunConfig(command="ktransform", model_path=str(path), seed=7,
                                 out_dir=str(tmp_path / "out")))
    assert result.passed
    body = json.loads((tmp_path / "out" / "ktransform.json").read_text())
    assert [c["name"] for c in body["checks"]] == ["lift-capacity-k2", "lift-capacity-k3"]
    assert [c["witness"] for c in body["checks"]] == [
        "skipped: k-copy lift over 24 sites exceeds the exact limit of 22",
        "skipped: k-copy lift over 36 sites exceeds the exact limit of 22"]
    assert all(c["pass"] for c in body["checks"])
    assert body["payload"]["ks"] == []


@pytest.mark.parametrize("budget", ["MIXING_STEP_BUDGET", "MIXING_BYTE_BUDGET"])
def test_mixing_suite_reports_budget_skips(tmp_path, monkeypatch, budget):
    import glab.glauber as gl

    monkeypatch.setattr(gl, budget, 1)
    path = tmp_path / "cycle5.json"
    path.write_text(json.dumps(model_to_json(_cycle(5))))
    out = tmp_path / "out"
    result = run_suite(RunConfig(command="mixing", model_path=str(path), seed=7,
                                 out_dir=str(out)))
    assert result.passed
    body = json.loads((out / "mixing.json").read_text())
    assert [c["name"] for c in body["checks"]] == ["mixing-capacity"]
    assert body["checks"][0]["pass"]
    assert body["checks"][0]["witness"].startswith("skipped: ")
    assert body["payload"] == {}
    assert not (out / "mixing_scaling.csv").exists()


def test_report_without_checks_fails(tmp_path, model_file, monkeypatch):
    import glab.cli as cli

    monkeypatch.setitem(cli._SUITE_FUNCS, "compare", lambda *args: ([], {}, []))
    result = run_suite(RunConfig(command="compare", model_path=model_file, seed=0,
                                 out_dir=str(tmp_path / "out")))
    assert not result.passed
    assert json.loads((tmp_path / "out" / "compare.json").read_text())["pass"] is False


def test_run_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite(RunConfig(command="bogus", model_path="x", seed=0))


def test_all_known_suites_registered():
    assert set(SUITES) == {
        "influence", "ktransform", "ubf", "mbf", "hf", "walks",
        "compare", "dobrushin", "verification", "mixing",
    }


# ---------------------------------------------------------------------------
# command line


def test_cli_run_exit_codes(tmp_path, model_file):
    runner = CliRunner()
    out = runner.invoke(main, [
        "run", "--suite", "compare", "--model", model_file,
        "--seed", "2", "--out", str(tmp_path / "r"),
    ])
    assert out.exit_code == 0, out.output
    assert "compare: pass" in out.output


def test_cli_run_past_the_exact_limit_exits_with_one_line(tmp_path):
    path = tmp_path / "cycle23.json"
    path.write_text(json.dumps(model_to_json(_cycle(23))))
    reports = tmp_path / "r"
    out = CliRunner().invoke(main, ["run", "--suite", "compare", "--model", str(path),
                                    "--out", str(reports)])
    assert out.exit_code == 1
    assert isinstance(out.exception, SystemExit)
    assert out.output.splitlines() == [
        "Error: Ising weight table over 23 sites exceeds the exact limit of 22"]
    assert not reports.exists()


@pytest.mark.parametrize("args, message", [
    (["run", "--suite", "all", "--theta", "1.5"],
     "Error: Invalid value for '--theta': 1.5 is not in the range 0<x<1."),
    (["run", "--suite", "mbf", "--delta", "0"],
     "Error: Invalid value for '--delta': 0.0 is not in the range 0<x<1."),
    (["mix", "--eps", "2"], "Error: Invalid value for '--eps': 2.0 is not in the range 0<x<1."),
    (["sample", "--steps", "3", "--init", "8"],
     "Error: Invalid value for '--init': 8 is not below 2^3."),
], ids=["theta", "delta", "eps", "init"])
def test_cli_refuses_values_outside_their_domain(tmp_path, model_file, args, message):
    outputs = {"run": ["--out", str(tmp_path / "r")], "sample": ["--out", str(tmp_path / "t.csv")]}
    out = CliRunner().invoke(main, args + ["--model", model_file] + outputs.get(args[0], []))
    assert out.exit_code == 2
    assert isinstance(out.exception, SystemExit)
    assert "Traceback" not in out.output
    assert [line for line in out.output.splitlines() if line.startswith("Error")] == [message]
    assert list(tmp_path.iterdir()) == [Path(model_file)]


@pytest.mark.parametrize("text, message", [
    (json.dumps({**model_to_json(MODEL), "delta": 0.3}), "unknown model fields: ['delta']"),
    ("n = 3", "Expecting value: line 1 column 1 (char 0)"),
], ids=["delta", "not-json"])
@pytest.mark.parametrize("command", [["run", "--suite", "all"], ["sample", "--steps", "3"],
                                     ["mix"]], ids=["run", "sample", "mix"])
def test_cli_refuses_a_model_file_it_cannot_read(tmp_path, command, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    outputs = {"run": ["--out", str(tmp_path / "r")], "sample": ["--out", str(tmp_path / "t.csv")]}
    out = CliRunner().invoke(main, command + ["--model", str(path)] + outputs.get(command[0], []))
    assert out.exit_code == 2
    assert isinstance(out.exception, SystemExit)
    assert "Traceback" not in out.output
    assert [line for line in out.output.splitlines() if line.startswith("Error")] == [
        f"Error: Invalid value for '--model': {message}"]
    assert list(tmp_path.iterdir()) == [path]


def test_cli_run_all_on_one_site(tmp_path):
    # one bucket has no cross pair of copies, and the chain mixes in one step
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "edges": [], "beta": 1.0, "lambda": [2.0]}))
    reports = tmp_path / "r"
    out = CliRunner().invoke(main, ["run", "--suite", "all", "--model", str(path), "--seed", "7",
                                    "--out", str(reports)])
    assert out.exit_code == 0, out.output
    body = json.loads((reports / "ktransform.json").read_text())
    assert body["pass"] is True
    for rep in body["payload"]["influence_comparisons"]:
        assert rep["max_cross_violation"] is None and rep["cross_witness"] is None
    cross = [c for c in body["checks"] if c["name"].startswith("ktrans-influence-cross")]
    assert [c["witness"] for c in cross] == ["not applicable: no bounded entry"] * 2
    mixing = json.loads((reports / "mixing.json").read_text())
    assert [c["name"] for c in mixing["checks"]] == ["worst-tv-monotone-t1"]


def test_cli_sample_takes_the_last_configuration_as_init(model_file):
    out = CliRunner().invoke(main, ["sample", "--model", model_file, "--steps", "0",
                                    "--init", "7"])
    assert out.exit_code == 0, out.output
    assert out.output == "step,config_index\n0,7\n"


def test_cli_sample_stdout_and_file(tmp_path, model_file):
    runner = CliRunner()
    out = runner.invoke(main, [
        "sample", "--model", model_file, "--steps", "5", "--seed", "4",
    ])
    assert out.exit_code == 0
    lines = out.output.strip().splitlines()
    assert lines[0] == "step,config_index"
    assert len(lines) == 7

    trace = tmp_path / "t.csv"
    out = runner.invoke(main, [
        "sample", "--model", model_file, "--steps", "10", "--seed", "4",
        "--thin", "5", "--out", str(trace),
    ])
    assert out.exit_code == 0
    assert trace.read_text().splitlines()[0] == "step,config_index"


def test_cli_sample_stdout_equals_out_file(tmp_path, model_file):
    runner = CliRunner()
    args = ["sample", "--model", model_file, "--steps", "40000", "--seed", "9", "--thin", "3"]
    out = runner.invoke(main, args)
    assert out.exit_code == 0, out.output
    trace = tmp_path / "t.csv"
    assert runner.invoke(main, args + ["--out", str(trace)]).exit_code == 0
    assert out.stdout_bytes == trace.read_bytes()
    assert out.stdout_bytes.count(b"\n") == 1 + 40000 // 3 + 1


def test_cli_sample_64_sites_matches_oracle_writer(tmp_path):
    from oracles import oracle_emit_series
    from glab.glauber import run_chain

    model = IsingModel(n=64, edges=cycle_edges(64), beta=0.6, lam=(2.0, 0.5) * 32)
    path = tmp_path / "cycle64.json"
    path.write_text(json.dumps(model_to_json(model)))
    got = tmp_path / "got.csv"
    out = CliRunner().invoke(main, ["sample", "--model", str(path), "--steps", "30000",
                                    "--seed", "5", "--out", str(got)])
    assert out.exit_code == 0, out.output
    trace = run_chain(model, 30000, 5)
    assert int(trace.states.max()) >= 1 << 63
    want = oracle_emit_series(tmp_path / "want.csv", ("step", "config_index"),
                              list(zip(trace.rows()[:, 0].tolist(), trace.states.tolist())))
    assert got.read_bytes() == Path(want).read_bytes()


def test_cli_mix_reports_required_keys(model_file):
    runner = CliRunner()
    out = runner.invoke(main, ["mix", "--model", model_file, "--eps", "0.25"])
    assert out.exit_code == 0, out.output
    body = json.loads(out.output.strip().splitlines()[-1])
    assert set(body) == {
        "epsilon", "t_mix_exact", "rho_hat", "rho_hat_method",
        "mls_bound_optimistic", "mu_min",
    }
    assert body["t_mix_exact"] >= 1


@pytest.mark.parametrize("limit, message", [
    ("MIXING_STEP_BUDGET", "Error: mixing over 32 support states stopped after 0 steps"),
    ("MIXING_BYTE_BUDGET", "Error: mixing over 32 support states needs"),
    ("EXACT_LIMIT", "Error: Ising weight table over 5 sites exceeds the exact limit of 4"),
], ids=["step-budget", "byte-budget", "exact-limit"])
def test_cli_mix_refused_by_a_limit_exits_with_one_line(tmp_path, monkeypatch, limit, message):
    import glab.capacity as capacity
    import glab.glauber as gl

    if limit == "EXACT_LIMIT":
        monkeypatch.setattr(capacity, limit, 4)
    else:
        monkeypatch.setattr(gl, limit, 1)
    path = tmp_path / "cycle5.json"
    path.write_text(json.dumps(model_to_json(_cycle(5))))
    out = CliRunner().invoke(main, ["mix", "--model", str(path)])
    assert out.exit_code == 1
    assert isinstance(out.exception, SystemExit)
    lines = out.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)


def test_cli_version():
    runner = CliRunner()
    out = runner.invoke(main, ["--version"])
    assert out.exit_code == 0
    assert glab.__version__ in out.output
