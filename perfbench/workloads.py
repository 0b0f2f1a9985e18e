"""The benchmark's workloads: models, timed operations and output checks.

Every model is a cycle with beta = 0.6 and fields alternating 2.0 / 0.5
unless stated otherwise.  `setup` writes the models as JSON files (the
form `glab run` reads), loads them back and enumerates the tables the
workload needs; the operations it returns are the timed part.  Each
operation takes at most a few seconds, so that a run repeats every one
of them several times, and names the kind of work it is (`Op.kind`):
the worker times a reference kernel of that kind alongside it.
"""

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

import glab.cli as cli
import glab.exact as exact
import glab.factorization as factorization
import glab.glauber as glauber
import glab.model as model

BETA = 0.6
FIELDS = (2.0, 0.5)
EPS = 0.25
# Worst-start mixing times of the cycles n = 4..12 at EPS; they do not
# depend on the seed.  The workload runs n = 4..11: n = 12 alone takes
# over 20 s, one sample per run.
MIXING_LADDER = dict(zip(range(4, 13), (10, 11, 17, 19, 25, 26, 32, 34, 41)))
LADDER_NS = range(4, 12)
THETA = 0.5  # run_suite's default theta
HF_K = 2  # the hf suite's lift size for the identity checks
LBF_KS = (2, 4)  # the hf suite also runs k = 8, a single 15 s call
HF_FUNCTIONS = 4  # the hf suite's batch // 2
CHAIN_STEPS = 200_000
CHAIN_LABEL = "glauber-chain"  # run_chain's default stream label
SUITE_TIMEOUT_S = 150.0
OP_TIMEOUT_S = 90.0


@dataclass
class Op:
    """One timed call; `check` returns the problems found in its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    timeout_s: float
    # the reference kernel in worker.py: "interp" for Python-level loops
    # over small arrays, "dense" for products of large dense arrays
    kind: str = "interp"
    chain_steps: int = 0
    reports: Optional[Path] = None  # where the suites write <suite>_meta.json
    digests: List[str] = field(default_factory=list)  # chain trajectories, one per pass


def ising(n: int, edges, beta: float = BETA) -> "model.IsingModel":
    lam = [FIELDS[v % 2] for v in range(n)]
    return model.IsingModel(n=n, edges=tuple(edges), beta=beta, lam=np.asarray(lam))


def _write_model(out: Path, name: str, m) -> Path:
    path = out / "models" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(model.model_to_json(m)))
    return path


def _suite_check(expect_t_mix: Optional[int] = None):
    def check(result) -> List[str]:
        problems = [f"check {c.name} failed" for c in result.checks if not c.passed]
        if not result.passed and not problems:
            problems.append(f"suite {result.suite} reported failure")
        if expect_t_mix is not None:
            got = result.payload["mixing_report"]["t_mix_exact"]
            if got != expect_t_mix:
                problems.append(f"t_mix_exact {got}, expected {expect_t_mix}")
        return problems
    return check


def _suite_op(label: str, command: str, model_path: Path, seed: int, out: Path,
              expect_t_mix: Optional[int] = None) -> Op:
    reports = out / "reports" / label / command
    cfg = cli.RunConfig(command=command, model_path=str(model_path), seed=seed,
                        out_dir=str(reports))
    return Op(f"{label}/run_suite({command})", lambda: cli.run_suite(cfg),
              _suite_check(expect_t_mix), SUITE_TIMEOUT_S, reports=reports)


def _chain_draws(seed: int, steps: int) -> np.ndarray:
    """The chain's uniforms, re-derived from the documented stream layout:
    Philox keyed by (seed, SHA-256 of the label, counter 0), step t reads
    raws 2t and 2t+1."""
    key = int.from_bytes(hashlib.sha256(CHAIN_LABEL.encode("utf-8")).digest()[:16], "little")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(key, 0))
    return np.random.Generator(np.random.Philox(seq)).random(size=(steps, 2))


def _table_plus(table: np.ndarray):
    def plus_probability(prev: np.ndarray, v: np.ndarray, bit: np.ndarray) -> np.ndarray:
        hi = table[(prev | bit).astype(np.int64)]
        lo = table[(prev & ~bit).astype(np.int64)]
        return hi / (hi + lo)
    return plus_probability


def _model_plus(m):
    nbr = np.asarray(m.neighbors(), dtype=np.uint64)  # every site has the same degree here
    lam = np.asarray(m.lam)

    def plus_probability(prev: np.ndarray, v: np.ndarray, bit: np.ndarray) -> np.ndarray:
        mono_plus = np.zeros(prev.size, dtype=np.int64)
        for j in range(nbr.shape[1]):
            mono_plus += ((prev >> nbr[v, j]) & np.uint64(1)).astype(np.int64)
        w_plus = lam[v] * m.beta ** mono_plus
        w_minus = m.beta ** (nbr.shape[1] - mono_plus)
        return w_plus / (w_plus + w_minus)
    return plus_probability


def _chain_check(n: int, seed: int, csv: Path, plus_probability, digests: List[str]):
    """Length, range and every transition of a thin-1 trajectory against
    the draws; the digest must repeat on every pass of the run."""
    draws = _chain_draws(seed, CHAIN_STEPS)

    def check(trace) -> List[str]:
        states = np.asarray(trace.states).astype(np.uint64)
        if states.size != CHAIN_STEPS + 1:
            return [f"trajectory has {states.size} states, expected {CHAIN_STEPS + 1}"]
        problems = []
        if n < 64 and int(states.max()) >= 1 << n:
            problems.append("state index out of range")
        v = np.minimum((draws[:, 0] * n).astype(np.int64), n - 1)
        bit = np.left_shift(np.uint64(1), v.astype(np.uint64))
        prev, nxt = states[:-1], states[1:]
        if np.any((prev ^ nxt) & ~bit):
            problems.append("a step changed a site other than the one drawn")
        want_plus = draws[:, 1] < plus_probability(prev, v, bit)
        wrong = int(np.count_nonzero(want_plus != ((nxt & bit) != 0)))
        if wrong:
            problems.append(f"{wrong} steps disagree with the local conditional")
        with csv.open("rb") as fh:
            lines = sum(1 for _ in fh)
        if lines != CHAIN_STEPS + 2:
            problems.append(f"trace CSV has {lines} lines, expected {CHAIN_STEPS + 2}")
        digests.append(hashlib.sha256(states.tobytes()).hexdigest()[:16])
        if digests[-1] != digests[0]:
            problems.append(f"digest {digests[-1]} differs from the first pass's {digests[0]}")
        return problems

    return check


def _chain_op(label: str, source, n: int, seed: int, out: Path, plus_probability) -> Op:
    csv = out / "reports" / f"{label}.csv"
    csv.parent.mkdir(parents=True, exist_ok=True)

    def run():
        # the path `glab sample --out` takes
        trace = glauber.run_chain(source, CHAIN_STEPS, seed)
        cli.emit_series(csv, ("step", "config_index"), trace.rows())
        return trace

    digests: List[str] = []
    return Op(f"{label}/run_chain", run, _chain_check(n, seed, csv, plus_probability, digests),
              OP_TIMEOUT_S, chain_steps=CHAIN_STEPS, digests=digests)


def _positive_functions(n: int, count: int, seed: int) -> List[np.ndarray]:
    """Strictly positive test functions on the cube, made from the seed."""
    gen = np.random.default_rng(seed)
    return [np.exp(gen.normal(0.0, 1.0, size=1 << n)) for _ in range(count)]


def _hf_pair_check(direct_formula) -> List[str]:
    direct, formula = direct_formula
    if abs(direct - formula) <= 1e-10 * max(abs(direct), abs(formula)) + 1e-12:
        return []
    return [f"hf_direct {direct!r} != hf_formula {formula!r}"]


def _repeats(first: list, check):
    """Apply `check`, and require the same output on every pass."""
    def wrapped(value) -> List[str]:
        problems = check(value)
        if not first:
            first.append(value)
        elif value != first[0]:
            problems.append(f"output {value!r} differs from the first pass's {first[0]!r}")
        return problems
    return wrapped


def _lbf_check(rows) -> List[str]:
    gaps = [gap for _, gap in rows]
    if [k for k, _ in rows] != list(LBF_KS):
        return [f"lbf rows for k = {[k for k, _ in rows]}, expected {list(LBF_KS)}"]
    if not all(np.isfinite(g) and g >= 0.0 for g in gaps):
        return [f"lbf gaps {gaps} not finite and >= 0"]
    if gaps[0] > 1e-12 and gaps[-1] > gaps[0]:
        return [f"lbf gap grew from {gaps[0]!r} to {gaps[-1]!r}"]
    return []


def setup(workload: str, seed: int, out: Path) -> List[Op]:
    """Write, load and enumerate the workload's models; return its ops."""
    if workload == "hf-c5":
        # The hf suite's calls on the 5-cycle, without its k = 8 call.
        path = _write_model(out, "cycle5", ising(5, model.cycle_edges(5)))
        dist = exact.enumerate_gibbs(model.load_model(str(path)))
        fs = _positive_functions(5, HF_FUNCTIONS, seed)
        nk = dist.n * HF_K
        ops = []
        for ell in sorted({1, (nk + 1) // 2, nk}):
            for idx, f in enumerate(fs if ell == (nk + 1) // 2 else fs[:1]):
                ops.append(Op(f"cycle5/hf_pair(k={HF_K},ell={ell},f{idx})",
                              lambda ell=ell, f=f: factorization.hf_pair(dist, HF_K, ell, f),
                              _repeats([], _hf_pair_check), OP_TIMEOUT_S))
        ops.append(Op(f"cycle5/lbf_convergence(k={LBF_KS})",
                      lambda: factorization.lbf_convergence(dist, THETA, fs[0], LBF_KS),
                      _repeats([], _lbf_check), OP_TIMEOUT_S))
        return ops

    if workload == "mixing":
        ops = []
        for n in LADDER_NS:
            path = _write_model(out, f"cycle{n}", ising(n, model.cycle_edges(n)))
            dist = exact.enumerate_gibbs(model.load_model(str(path)))
            ops.append(Op(f"cycle{n}/mixing_time_exact",
                          lambda d=dist: glauber.mixing_time_exact(d, EPS),
                          lambda got, want=MIXING_LADDER[n]: [] if got == want else
                          [f"t_mix {got}, expected {want}"], OP_TIMEOUT_S, kind="dense"))
        ops.append(_suite_op("cycle5", "mixing", out / "models" / "cycle5.json", seed, out,
                             expect_t_mix=MIXING_LADDER[5]))
        return ops

    if workload == "wide-n8":
        ops = []
        for name, m in (("cycle8", ising(8, model.cycle_edges(8))),
                        ("star8", ising(8, model.star_edges(8), beta=0.9))):
            path = _write_model(out, name, m)
            exact.enumerate_gibbs(model.load_model(str(path)))
            ops.extend(_suite_op(name, suite, path, seed, out)
                       for suite in cli.SUITES if suite not in ("hf", "mixing"))
        return ops

    if workload == "chain":
        table_path = _write_model(out, "cycle16", ising(16, model.cycle_edges(16)))
        dist = exact.enumerate_gibbs(model.load_model(str(table_path)))
        big = model.load_model(str(_write_model(out, "cycle64", ising(64, model.cycle_edges(64)))))
        return [
            _chain_op("cycle16-table", dist, 16, seed, out, _table_plus(dist.prob)),
            # Known defect kept visible: packing the 64-site states into
            # int64 raises OverflowError after every step has run.
            _chain_op("cycle64-model", big, 64, seed, out, _model_plus(big)),
        ]

    raise ValueError(f"unknown workload {workload!r}")
