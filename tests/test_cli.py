import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

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
from glab.model import IsingModel, cycle_edges, model_to_json

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
    emit_series(path, ("k", "gap"), [(2, 0.5), (4, 1 / 3)])
    text = path.read_text()
    assert text == "k,gap\n2,0.5\n4,0.33333333333333331\n"
    emit_series(path, ("k", "gap"), [])
    assert path.read_text() == "k,gap\n"
    emit_series(path, None, [(1.0, 0.5), (0.25, 0.0)])
    assert path.read_text() == "1,0.5\n0.25,0\n"
    with pytest.raises(ValueError):
        emit_series(path, ("a",), [(1, 2)])


def test_level_rows_csv(tmp_path):
    from glab.spectral import homogenize
    from glab.walks import levels_from_homogenized

    levels = levels_from_homogenized(homogenize(enumerate_gibbs(MODEL)))
    emit_series(tmp_path / "lv.csv", ("level", "face", "probability"), _level_rows(levels))
    lv = (tmp_path / "lv.csv").read_text().splitlines()
    assert lv[0] == "level,face,probability"
    assert lv[1].startswith("0,,")  # the empty face
    assert any("|" in line for line in lv[2:])


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
        cfg = RunConfig(command="compare", model_path=model_file, seed=11,
                        out_dir=str(tmp_path / d))
        run_suite(cfg)
    a = (tmp_path / "a" / "compare.json").read_bytes()
    b = (tmp_path / "b" / "compare.json").read_bytes()
    assert a == b


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


def test_cli_version():
    runner = CliRunner()
    out = runner.invoke(main, ["--version"])
    assert out.exit_code == 0
    assert glab.__version__ in out.output
