"""scipy and concurrent.futures are imported where they are called, never
at start-up, and start-up starts no thread.  scipy is called only by the
mixing time and the MLS search: every other suite runs without it.

Each check runs in a fresh interpreter: the test process itself has
scipy loaded already (the test modules import it).
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent("""
    import json, sys, tempfile, threading
    from pathlib import Path

    def scipy_loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import glab, glab.cli
    from click.testing import CliRunner
    from glab.model import IsingModel, cycle_edges, model_to_json

    out = {"import": scipy_loaded(), "threads": threading.active_count(),
           "futures": sorted(m for m in sys.modules if m.startswith("concurrent"))}
    model = IsingModel(n=4, edges=tuple(cycle_edges(4)), beta=0.6, lam=[2.0, 0.5, 2.0, 0.5])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(model_to_json(model)))
        res = CliRunner().invoke(glab.cli.main, ["sample", "--model", str(path),
                                                 "--steps", "200", "--seed", "3"])
    out["sample_exit"] = res.exit_code
    out["sample_lines"] = len(res.output.splitlines())
    out["sample"] = scipy_loaded()

    import glab.glauber as gl
    from glab.exact import enumerate_gibbs

    dist = enumerate_gibbs(model)
    out["t_mix"] = gl.mixing_time_exact(dist, 0.25)
    out["mixing"] = scipy_loaded()
    est = gl.mls_estimate(dist, restarts=2, seed=0)
    out["mls_runs"] = len(est.runs)
    out["mls"] = scipy_loaded()
    out["minimize_bound"] = "minimize" in vars(gl)
    print(json.dumps(out))
""")


def test_start_up_loads_no_scipy_and_callers_load_it_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["import"] == []
    assert got["threads"] == 1
    assert got["futures"] == []
    assert (got["sample_exit"], got["sample_lines"]) == (0, 202)
    assert got["sample"] == []
    # the 4-cycle of perfbench's mixing ladder mixes in 10 steps at eps 1/4
    assert got["t_mix"] == 10
    assert "scipy.sparse.csgraph" in got["mixing"]
    assert "scipy.optimize" not in got["mixing"]
    assert got["mls_runs"] == 2
    assert "scipy.optimize" in got["mls"]
    assert got["minimize_bound"]


SUITE_SCRIPT = textwrap.dedent("""
    import json, sys, tempfile
    from pathlib import Path

    import glab.cli
    from click.testing import CliRunner
    from glab.model import IsingModel, cycle_edges, model_to_json

    model = IsingModel(n=4, edges=tuple(cycle_edges(4)), beta=0.6, lam=[2.0, 0.5, 2.0, 0.5])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(model_to_json(model)))
        res = CliRunner().invoke(glab.cli.main, [
            "run", "--suite", sys.argv[1], "--model", str(path), "--seed", "7",
            "--out", str(Path(tmp) / "reports")])
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps({"exit": res.exit_code, "scipy": scipy}))
""")


def test_only_the_mixing_suite_loads_scipy():
    # one fresh interpreter per suite, so that no suite's imports hide
    # another's
    from glab.cli import SUITES

    env = dict(os.environ, PYTHONPATH=str(SRC))
    got = {}
    for suite in SUITES:
        proc = subprocess.run([sys.executable, "-c", SUITE_SCRIPT, suite], env=env,
                              capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr
        got[suite] = json.loads(proc.stdout)
    mixing = got.pop("mixing")
    assert {suite: r["exit"] for suite, r in got.items()} == dict.fromkeys(got, 0)
    assert {suite: r["scipy"] for suite, r in got.items()} == dict.fromkeys(got, [])
    assert mixing["exit"] == 0
    assert "scipy.sparse.csgraph" in mixing["scipy"]
    assert "scipy.optimize" in mixing["scipy"]
