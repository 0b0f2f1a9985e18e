"""One workload process: set up, run the ops in passes, report.

Started by run.py with the glab sources on PYTHONPATH and the BLAS thread
count pinned in the environment.  Prints one `OP <json>` line per
operation as it finishes and a final `RESULT <json>` line.  Roles:
`setup` stops after set-up (a set-up time sample), `run` measures with
tracing off, `trace` measures with every boundary in spec.TRACED wrapped.

While it sets up, and while an operation runs, the worker also times a
fixed reference kernel of that kind of work, in samples spread over
that time (see reference.py).  `setup_s` and `wall_ref_s` are the
set-up time and the operations' time per pass, net of the samples, at
reference speed.  A host that runs the process slower or faster for a
while moves the work and the samples alike, so the ratio cancels it.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import signal
import sys
import time
from collections import Counter
from pathlib import Path

from reference import Reference

SRC = Path(__file__).resolve().parent.parent / "src"


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no `except Exception` in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _blas_threads():
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return get()
    return None


def machine(seed: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def run_op(op, deadline: float, reference=None) -> dict:
    """Run one operation under its timeout and check its output.  `s` is
    its time net of the reference samples taken inside it."""
    record = {"op": op.name, "status": "ok", "s": 0.0}
    budget = min(op.timeout_s, deadline - time.perf_counter())
    if budget <= 0:
        record.update(status="dnf", detail="no time left to start", started=False)
        return record
    sampled = reference.time if reference else 0.0
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            value = reference.around(op.run) if reference else op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        record.update(status="dnf", detail=f"did not finish within {budget:.1f} s")
    except Exception as exc:
        record.update(status="error", detail=f"{type(exc).__name__}: {exc}")
    record["s"] = time.perf_counter() - start
    if reference:
        record["s"] -= reference.time - sampled
    if record["status"] == "ok":
        try:
            problems = op.check(value)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            record.update(status="wrong", detail="; ".join(problems))
    return record


def _suite_seconds(reports: Path) -> dict:
    out = {}
    for meta in reports.glob("*_meta.json"):
        body = json.loads(meta.read_text())
        if body["suite"] != "all":
            out[body["suite"]] = body["wall_time_seconds"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="perf_counter() of the parent when it started this process")
    ap.add_argument("--deadline", type=float, required=True,
                    help="perf_counter() value by which the last op must end")
    args = ap.parse_args()

    # set-up is interpreter work: imports, model files, small tables
    setup_ref = Reference("interp")
    setup_ref.start()
    import glab.cli  # noqa: F401  (imports every glab module)
    if not Path(sys.modules["glab"].__file__).resolve().is_relative_to(SRC):
        print(f"glab was imported from outside {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.role == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    ops = workloads.setup(args.workload, args.seed, args.out)
    setup_ref.stop()
    setup_wall_s = time.perf_counter() - args.spawned - setup_ref.time
    setup = {"setup_s": setup_ref.at_reference_speed(setup_wall_s), "setup_wall_s": setup_wall_s}
    if args.role == "setup":
        print("RESULT " + json.dumps(setup), flush=True)
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    kinds = dict.fromkeys(op.kind for op in ops)
    references = {} if tracer else {kind: Reference(kind) for kind in kinds}
    records, walls, op_time = [], [], Counter()
    suite_s = Counter()
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        sampled = sum(ref.time for ref in references.values())
        if tracer:
            tracer.enabled = True
        for op in ops:
            rec = run_op(op, args.deadline, references.get(op.kind))
            rec["pass"] = len(walls)
            records.append(rec)
            op_time[op.kind] += rec["s"]
            print("OP " + json.dumps(rec), flush=True)
            if op.reports is not None:
                suite_s.update(_suite_seconds(op.reports))
        if tracer:
            tracer.enabled = False
        now = time.perf_counter()
        # the pass's operations and checks, without the reference samples
        walls.append(now - started - (sum(ref.time for ref in references.values()) - sampled))
        # start another pass only if it should end within --seconds
        if 2 * now - started - begin > args.seconds or 2 * now - started > args.deadline:
            break

    steps = {op.name: op.chain_steps for op in ops}
    chain = [r for r in records if steps[r["op"]] and r.get("started", True)]
    ref_s = {kind: ref.mean_s() for kind, ref in references.items()}
    result = {
        **setup,
        "pass_walls": walls,
        "ref_mean_s": ref_s,
        "ref_samples": {kind: ref.samples for kind, ref in references.items()},
        "wall_ref_s": sum(ref.at_reference_speed(op_time[kind])
                          for kind, ref in references.items()) / len(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "chain_steps": sum(steps[r["op"]] for r in chain),
        "chain_s": sum(r["s"] for r in chain),
        "digests": {op.name: op.digests[0] for op in ops if op.digests},
        "machine": machine(args.seed),
        "suite_s": {k: v / len(walls) for k, v in suite_s.items()},
    }
    if tracer:
        result["layers"] = tracer.report(len(walls))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
