"""Pin the bytes of every deterministic report to recorded SHA-256 digests.

`tests/data/report_digests.json` holds, for `glab run --suite all --seed 7`
on each model of `DIGEST_MODELS`, the digest of every report file but the
`_meta.json` wall-time side files.  The runs go in a child process with
one BLAS thread, so the digests never rest on how a BLAS library splits
a product over threads (the hf mixture is summed with math.fsum for the
same reason).
Regenerate the file with

    PYTHONPATH=src python tests/test_report_digests.py

only when a change moves report digits on purpose, and say which files
moved in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from glab.cli import RunConfig, run_suite
from glab.model import IsingModel, complete_edges, cycle_edges, model_to_json, star_edges

DIGESTS = Path(__file__).parent / "data" / "report_digests.json"
SRC = Path(__file__).resolve().parent.parent / "src"
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

DIGEST_MODELS = {
    "cycle3": IsingModel(n=3, edges=cycle_edges(3), beta=0.8, lam=(0.5, 1.0, 2.0)),
    "cycle4": IsingModel(n=4, edges=cycle_edges(4), beta=0.6, lam=(2.0, 0.5, 2.0, 0.5)),
    "star6": IsingModel(n=6, edges=star_edges(6), beta=0.9, lam=(2.0, 0.5) * 3),
    "k5": IsingModel(n=5, edges=complete_edges(5), beta=1.3, lam=(1.0,) * 5),
}


def report_digests(root: Path) -> dict:
    """{model: {report file: sha256}} of `--suite all --seed 7` runs under root."""
    digests = {}
    for name, model in DIGEST_MODELS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(model_to_json(model)))
        out = root / name
        run_suite(RunConfig(command="all", model_path=str(path), seed=7, out_dir=str(out)))
        digests[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in sorted(out.iterdir()) if not p.name.endswith("_meta.json")}
    return digests


def pinned_digests(root: Path) -> dict:
    """report_digests of a child process that runs on one BLAS thread."""
    out = root / "digests.json"
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, __file__, "--child", str(out)], env=env, check=True)
    return json.loads(out.read_text())


def test_reports_match_recorded_digests(tmp_path):
    assert pinned_digests(tmp_path) == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        if sys.argv[1:2] == ["--child"]:
            Path(sys.argv[2]).write_text(json.dumps(report_digests(Path(tmp))))
        else:
            text = json.dumps(pinned_digests(Path(tmp)), indent=1, sort_keys=True) + "\n"
            (Path(sys.argv[1]) if len(sys.argv) > 1 else DIGESTS).write_text(text)
