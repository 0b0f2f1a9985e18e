"""glab benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py                       # all workloads, seed 7
    python3 perfbench/run.py --workload mixing --seed 3 --seconds 25
    python3 perfbench/run.py --workload chain --trace 1

Run from anywhere inside a checkout; the glab sources are taken from its
`src/`.  Each workload runs in fresh processes (see worker.py), with the
BLAS thread count pinned to BLAS_THREADS.  An untraced run prints the
end-to-end metrics; `--trace 1` runs the workload untraced and then
traced, and prints the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import COMPUTED, END_TO_END, LAYERS, TRACED, WORKLOADS, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = "1"  # the single-threaded baseline; its run-to-run spread is the smallest
SETUP_SAMPLES = 5  # set-up time is the median over this many fresh processes
SETUP_LIMIT_S = 15.0  # per set-up-only process
RUN_BUDGET_S = 165.0  # everything one workload does, so a run exits within 180 s
GRACE_S = 5.0


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # glibc raises its mmap threshold after large frees, which made peak RSS
    # depend on the seed (nine-site suites: 167 or 203 MB); a fixed
    # threshold makes it track live memory.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def _spawn(workload: str, role: str, args, out: Path, deadline: float) -> dict:
    """Run one worker; return its RESULT (or None) and the ops it reported."""
    spawned = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out),
           "--role", role, "--spawned", repr(spawned), "--deadline", repr(deadline)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                              timeout=max(deadline - spawned, 1.0) + GRACE_S)
        stdout, killed = proc.stdout, False
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        stdout, killed = exc.stdout or b"", True
    result, ops = None, []
    for line in stdout.decode("utf-8", "replace").splitlines():
        tag, _, body = line.partition(" ")
        if tag == "OP":
            ops.append(dict(json.loads(body), role=role))
        elif tag == "RESULT":
            result = json.loads(body)
    if killed:
        ops.append({"op": "(in progress)", "role": role, "status": "dnf", "s": 0.0,
                    "detail": "worker stopped at the run's deadline"})
    return {"result": result, "ops": ops}


def _op_summary(ops) -> None:
    by_name = {}
    for rec in ops:
        name = rec["op"] if rec["role"] == "run" else f"{rec['op']} [{rec['role']}]"
        by_name.setdefault(name, []).append(rec)
    for name, recs in by_name.items():
        med = statistics.median(r["s"] for r in recs)
        statuses = ", ".join(f"{s} {sum(r['status'] == s for r in recs)}"
                             for s in dict.fromkeys(r["status"] for r in recs))
        print(f"  op {name:<44} x{len(recs):<3} median {med:9.4f} s  {statuses}")
        for r in recs:
            if r["status"] != "ok":
                print(f"     pass {r.get('pass', '?')}: {r['status']}: {r.get('detail', '')}")


def _fail(msg: str) -> int:
    print(f"benchmark failed: {msg}", file=sys.stderr)
    return 1


def run_workload(workload: str, args):
    """Measure one workload; return (result dict, None) or (None, error)."""
    out = ROOT / ".perfbench_out" / f"{workload}-{os.getpid()}"
    deadline = time.perf_counter() + RUN_BUDGET_S
    try:
        setups = []

        def sample_setups(count: int) -> bool:
            for _ in range(count):
                got = _spawn(workload, "setup", args, out, time.perf_counter() + SETUP_LIMIT_S)
                if got["result"] is None:
                    return False
                setups.append(got["result"])
            return True

        # set-up samples before and after the measuring process, so that
        # their median covers the whole run rather than its first seconds
        after = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
        if not args.trace and not sample_setups(SETUP_SAMPLES - 1 - after):
            return None, "set-up process failed"
        # a traced pass costs about twice an untraced one
        share = 1.0 / 3.0 if args.trace else 1.0
        plain = _spawn(workload, "run", args, out, time.perf_counter()
                       + share * (deadline - time.perf_counter() - after * SETUP_LIMIT_S))
        traced = _spawn(workload, "trace", args, out, deadline) if args.trace else None
        if not sample_setups(after):
            return None, "set-up process failed"
    finally:
        shutil.rmtree(out, ignore_errors=True)
    runs = [r for r in (plain, traced) if r is not None]
    if any(r["result"] is None or not r["result"]["pass_walls"] for r in runs):
        return None, "workload process ended without a result"
    ops = [op for r in runs for op in r["ops"]]
    summary = dict(plain["result"])
    summary.update(
        workload=workload,
        ops=ops,
        correct=not any(op["status"] == "wrong" for op in ops),
        attempted=len(ops),
        failed=sum(op["status"] != "ok" for op in ops),
        setup_s=statistics.median(r["setup_s"] for r in setups + [summary]),
        setup_wall_s=statistics.median(r["setup_wall_s"] for r in setups + [summary]),
        setup_samples=len(setups) + 1,
        wall_s=statistics.median(summary["pass_walls"]),
    )
    if traced:
        layers = dict(traced["result"]["layers"])
        for suite, seconds in traced["result"]["suite_s"].items():
            layers[f"cli.suite.{suite}.s"] = seconds
        for layer in LAYERS:
            layers[f"{layer}.errors"] = sum(layers[f"{layer}.{fn}.errors"]
                                            for lay, fn, _ in TRACED if lay == layer)
        traced_wall = statistics.median(traced["result"]["pass_walls"])
        layers["trace.overhead_s"] = traced_wall - summary["wall_s"]
        summary["layers"] = layers
        summary["traced_wall_s"] = traced_wall
    return summary, None


def report(s: dict, trace: bool) -> dict:
    """Print one workload's results for people; return its metrics."""
    print(f"== workload {s['workload']}  ({len(s['pass_walls'])} untraced passes)")
    print("machine " + json.dumps(s["machine"], sort_keys=True))
    _op_summary(s["ops"])
    for name, digest in s["digests"].items():
        print(f"  digest {name} {digest}")
    steps, chain_s = s["chain_steps"], s["chain_s"]
    frac = s["failed"] / s["attempted"]
    print(f"  setup_s            {s['setup_s']:.6f} s   (at reference speed; median of "
          f"{s['setup_samples']} processes, whose wall time had median {s['setup_wall_s']:.6f} s)")
    print(f"  wall_s             {s['wall_s']:.6f} s   (median of {len(s['pass_walls'])} passes: "
          + " ".join(f"{w:.3f}" for w in s["pass_walls"]) + ")")
    refs = ", ".join(f"{kind} {sec * 1e3:.3f} ms x{s['ref_samples'][kind]}"
                     for kind, sec in s["ref_mean_s"].items())
    print(f"  wall_ref_s         {s['wall_ref_s']:.6f} s   (operation time per pass at reference "
          f"speed; mean reference sample: {refs})")
    print(f"  peak_rss_mb        {s['peak_rss_mb']:.3f} MB")
    print(f"  ops_failed_frac    {frac:.6f} ratio   ({s['failed']} of {s['attempted']})")
    if steps:
        print(f"  chain_steps_per_s  {steps / chain_s:.1f} steps/s   "
              f"({steps} steps attempted in {chain_s:.3f} s)")
    if not trace:
        return {name: {"value": s[name], "unit": unit} for name, unit in END_TO_END}
    layers = s["layers"]
    print(f"  traced per-layer metrics (per pass; [computed] = derived from inputs and outputs)")
    for name, unit in per_layer_metrics():
        tag = "  [computed]" if name in COMPUTED else ""
        print(f"    {name:<52} {layers.get(name, 0.0):>16.6g} {unit}{tag}")
    errors = {f"{layer}.{fn}.errors": layers[f"{layer}.{fn}.errors"] for layer, fn, _ in TRACED
              if layers[f"{layer}.{fn}.errors"]}
    print("  exceptions per function: " + (json.dumps(errors) if errors else "none"))
    print(f"  tracing overhead: traced wall_s {s['traced_wall_s']:.6f} s - untraced "
          f"{s['wall_s']:.6f} s = {layers['trace.overhead_s']:.6f} s "
          f"({100.0 * layers['trace.overhead_s'] / s['wall_s']:.1f}%)")
    return {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in per_layer_metrics()}


def _manifest_mismatch():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    for key, want in (("end_to_end", END_TO_END), ("per_layer", tuple(per_layer_metrics()))):
        have = tuple((m["name"], m["unit"]) for m in spec[key])
        if have != tuple(want):
            return f"BENCHMARK.json {key} does not match perfbench/spec.py"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, each in fresh processes)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure whole passes until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # unwind on SIGTERM, so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "glab" / "__init__.py").is_file():
        return _fail(f"no glab sources under {ROOT / 'src'}")
    mismatch = _manifest_mismatch()
    if mismatch:
        return _fail(mismatch)

    names = (args.workload,) if args.workload else WORKLOADS
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        summary, error = run_workload(name, args)
        if error:
            return _fail(f"{name}: {error}")
        got = report(summary, bool(args.trace))
        correct &= summary["correct"]
        attempted += summary["attempted"]
        failed += summary["failed"]
        if args.workload:
            metrics = got
        else:
            metrics.update({f"{name}.{k}": v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
