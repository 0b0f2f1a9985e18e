"""Pin the bytes of every deterministic report to recorded SHA-256 digests.

`tests/data/report_digests.json` holds, for `glab run --suite all --seed 7`
on each model of `DIGEST_MODELS`, the digest of every report file but the
`_meta.json` wall-time side files.  Regenerate it with

    PYTHONPATH=src python tests/test_report_digests.py

only when a change moves report digits on purpose, and say which files
moved in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from glab.cli import RunConfig, run_suite
from glab.model import IsingModel, cycle_edges, model_to_json

DIGESTS = Path(__file__).parent / "data" / "report_digests.json"

DIGEST_MODELS = {
    "cycle3": IsingModel(n=3, edges=cycle_edges(3), beta=0.8, lam=(0.5, 1.0, 2.0)),
    "cycle4": IsingModel(n=4, edges=cycle_edges(4), beta=0.6, lam=(2.0, 0.5, 2.0, 0.5)),
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


def test_reports_match_recorded_digests(tmp_path):
    assert report_digests(tmp_path) == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        text = json.dumps(report_digests(Path(tmp)), indent=1, sort_keys=True) + "\n"
    (Path(sys.argv[1]) if len(sys.argv) > 1 else DIGESTS).write_text(text)
