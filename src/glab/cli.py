"""Command-line front end: named check suites with deterministic reports.

Every suite consumes a model file and a single seed, fans the seed out to
its stochastic subroutines through labeled derivation, and writes JSON
and CSV reports whose bytes depend only on (model, seed, options).  Wall
time goes to a sibling metadata file so the reports themselves rerun
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import click
import numpy as np

from . import __version__
from .capacity import exact_limit
from .exact import (
    DenseDistribution,
    enumerate_gibbs,
    magnetized_partition,
)
from .factorization import (
    CheckReport,
    hypergeo_concentration_check,
    HyperGeoSpec,
    kappa,
    kappa_binomial,
    lbf_convergence,
    mbf_check,
    mbf_constant,
    mbf_rhs,
    hf_pair,
    ubf_chain_constant,
    ubf_check,
    ubf_kappa_constant,
)
from .glauber import (
    compare_identity_check,
    dirichlet_form,
    dirichlet_form_inner,
    dirichlet_form_sites,
    dobrushin_contraction_norm,
    dobrushin_mls_check,
    dobrushin_mls_threshold,
    marginal_lower_bound,
    mixing_time_exact,
    mls_estimate,
    mls_mixing_bound,
    run_chain,
    stationary_distance_profile,
    tensorization_chain_check,
    transition_matrix,
    verification_bounds_check,
)
from .model import IsingModel, load_model, model_to_json
from .rng import derive_generator
from .spectral import (
    FieldSamplerConfig,
    correlation_matrix,
    dobrushin_matrix,
    homog_spectrum_check,
    homogenize,
    matrix_report,
    si_sup_estimate,
    signed_influence_matrix,
)
from .transform import (
    k_transform,
    ktrans_influence_check,
    lifted_entropy_identity,
    pinning_pushforward_pair,
    star_pushforward,
)
from .exact import Pinning, total_variation
from .walks import (
    entropy_contraction_check,
    kl_by_level,
    level_distribution,
    levels_from_homogenized,
    local_entropy_decay_check,
    mask_bits,
    ubf_ed_identity_check,
    uniform_slice_levels,
    walk_density_pair,
)

SUITES = (
    "influence",
    "ktransform",
    "ubf",
    "mbf",
    "hf",
    "walks",
    "compare",
    "dobrushin",
    "verification",
    "mixing",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a suite run depends on."""

    command: str
    model_path: str
    seed: int
    theta: float = 0.5
    delta: float = 0.5
    batch: int = 8
    out_dir: str = "reports"
    capacity: Optional[int] = None


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    seed: int
    theta: float
    delta: float
    instance: str
    version: str
    checks: Tuple[CheckReport, ...]
    payload: dict
    passed: bool
    wall_time: float

    def to_json(self) -> dict:
        """Report body; wall time deliberately excluded (see meta file)."""
        return {
            "suite": self.suite,
            "seed": self.seed,
            "theta": self.theta,
            "delta": self.delta,
            "instance": self.instance,
            "version": self.version,
            "checks": [c.to_json() for c in self.checks],
            "payload": self.payload,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        raise TypeError("bool is not a number here")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    val = float(x)
    if math.isnan(val) or math.isinf(val):
        raise ValueError("non-finite value cannot be serialized")
    return format(val, ".17g")


def json_17g(obj) -> str:
    """Canonical JSON: sorted keys, 17 significant digits, no NaN/Inf."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer, float, np.floating)):
        return _fmt_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [json_17g(x) for x in obj]
        return "[" + ",".join(items) + "]"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            parts.append(json.dumps(key) + ":" + json_17g(obj[key]))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return _fmt_number(x)


def emit_series(path, header: Optional[Sequence[str]], rows: Sequence[Sequence]) -> str:
    """Write a CSV series: header line (if any) plus rows, LF endings."""
    path = Path(path)
    lines = []
    if header is not None:
        lines.append(",".join(header))
    width = len(header) if header is not None else None
    for row in rows:
        if width is not None and len(row) != width:
            raise ValueError("rows must match the header width")
        lines.append(",".join(_cell(x) for x in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return str(path)


def model_fingerprint(model: IsingModel) -> str:
    canon = json_17g(model_to_json(model))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _functions(n: int, count: int, seed: int, label: str) -> List[np.ndarray]:
    """Seeded strictly positive test functions on the full cube."""
    out = []
    for i in range(count):
        gen = derive_generator(seed, label, i)
        out.append(np.exp(gen.normal(0.0, 1.0, size=1 << n)))
    return out


def _clamp_gap(x: float) -> float:
    # max over an empty comparison set is -inf; report it as a zero gap
    return 0.0 if x == -math.inf else float(x)


# ---------------------------------------------------------------------------
# suite batteries

Series = List[Tuple[str, Optional[Tuple[str, ...]], List[tuple]]]


def _suite_influence(model, dist, cfg, inst):
    checks: List[CheckReport] = []
    inf_m = signed_influence_matrix(dist)
    cor_m = correlation_matrix(dist)
    hom = homog_spectrum_check(dist)
    checks.append(CheckReport.le(
        "homogenized-correlation-spectrum", inst,
        hom["matching_distance"], hom["tolerance"],
    ))
    n = dist.n
    if n <= 6:
        points = 5
    elif n == 7:
        points = 3
    elif n <= 16:
        points = 2
    else:
        points = 1
    sampler = FieldSamplerConfig(grid_points=points, random_draws=cfg.batch, seed=cfg.seed)
    sup = si_sup_estimate(dist, sampler)
    payload = {
        "influence": matrix_report(inf_m, "signed-influence").to_json(),
        "correlation": matrix_report(cor_m, "correlation").to_json(),
        "homogenized_spectrum": hom,
        "field_sup": sup.to_json(),
    }
    series: Series = [
        ("influence_matrix", None, [tuple(float(x) for x in row) for row in inf_m]),
        ("influence_spectrum", ("re", "im"),
         [(z.real, z.imag) for z in sorted((complex(w) for w in np.linalg.eigvals(inf_m)),
                                           key=lambda z: (-z.real, z.imag))]),
    ]
    return checks, payload, series


def _suite_ktransform(model, dist, cfg, inst):
    checks: List[CheckReport] = []
    n = dist.n
    fs = _functions(n, cfg.batch, cfg.seed, "ktransform-f")
    ks = [k for k in (2, 3) if n * k <= exact_limit()]
    reports = []
    for k in ks:
        for idx, f in enumerate(fs):
            base_ent, lifted_ent = lifted_entropy_identity(dist, k, f)
            checks.append(CheckReport.eq(
                f"lift-entropy-identity-k{k}", inst, base_ent, lifted_ent,
                witness=None if abs(base_ent - lifted_ent) <= 1e-9 * max(base_ent, lifted_ent) + 1e-12
                else f"f[{idx}]",
            ))
        tv = total_variation(star_pushforward(k_transform(dist, k)), dist)
        checks.append(CheckReport.le(f"lift-pushforward-tv-k{k}", inst, tv, 0.0))

        lhs, rhs = pinning_pushforward_pair(dist, k, Pinning((0,), (-1,)))
        checks.append(CheckReport.le(
            f"pinned-pushforward-tv-k{k}-minus", inst, total_variation(lhs, rhs), 0.0))
        plus_mass = float(np.sum(dist.prob[(np.arange(dist.prob.size) & 1) == 1]))
        if plus_mass > 0:
            lhs, rhs = pinning_pushforward_pair(dist, k, Pinning((0,), (1,)))
            checks.append(CheckReport.le(
                f"pinned-pushforward-tv-k{k}-plus", inst, total_variation(lhs, rhs), 0.0))

        gen = derive_generator(cfg.seed, f"ktransform-phi-{k}")
        phi = np.exp(gen.uniform(math.log(0.25), math.log(4.0), size=(n, k)))
        rep = ktrans_influence_check(dist, k, phi)
        reports.append(rep.to_json())
        checks.append(CheckReport.le(
            f"ktrans-influence-cross-k{k}", inst, _clamp_gap(rep.max_cross_violation), 0.0,
            witness=str(rep.cross_witness) if rep.cross_witness and not rep.passed else None,
            abs_slack=1e-9,
        ))
        checks.append(CheckReport.le(
            f"ktrans-influence-self-k{k}", inst, _clamp_gap(rep.max_self_violation), 0.0,
            abs_slack=1e-9,
        ))
        checks.append(CheckReport.le(
            f"ktrans-influence-rowsum-k{k}", inst, _clamp_gap(rep.max_rowsum_violation), 0.0,
            abs_slack=1e-9,
        ))
    payload = {"ks": ks, "influence_comparisons": reports}
    return checks, payload, []


def _suite_ubf(model, dist, cfg, inst):
    checks: List[CheckReport] = []
    n = dist.n
    eta = 2.0 / cfg.delta
    fs = _functions(n, cfg.batch, cfg.seed, "ubf-f")
    checks.extend(ubf_check(dist, n, 1.0, fs, instance=inst, name=f"ubf-ell-{n}-unit"))

    constants = []
    min_ell = math.ceil(eta + 1.0)
    for ell in range(max(1, min_ell), n + 1):
        c_kappa = ubf_kappa_constant(n, ell, eta)
        constants.append({
            "ell": ell,
            "kappa": kappa(n - ell, n, eta + 1.0),
            "kappa_binomial": kappa_binomial(n - ell, n, int(math.ceil(eta + 1.0))),
            "constant": c_kappa,
        })
        checks.extend(ubf_check(dist, ell, c_kappa, fs[:2], instance=inst,
                                name=f"ubf-ell-{ell}-kappa"))

    for grid_n in (8, 12, 16):
        for theta_p in (0.4, 0.5, 0.75):
            ell = math.ceil(theta_p * grid_n)
            if math.ceil(eta + 1.0) + 1 < ell <= grid_n:
                lhs = 1.0 / kappa(grid_n - ell, grid_n, eta + 1.0)
                rhs = ubf_chain_constant(theta_p, eta)
                checks.append(CheckReport.le(
                    f"ubf-constant-chain-n{grid_n}-theta{theta_p}", inst, lhs, rhs))
    payload = {"eta": eta, "kappa_constants": constants}
    return checks, payload, []


def _suite_mbf(model, dist, cfg, inst):
    n = dist.n
    eta = 2.0 / cfg.delta
    constant = mbf_constant(cfg.theta, eta)
    fs = _functions(n, cfg.batch, cfg.seed, "mbf-f")
    checks = mbf_check(dist, cfg.theta, constant, fs, instance=inst)
    z_pi = magnetized_partition(dist, cfg.theta)
    checks.append(CheckReport.le("magnetized-partition-lower", inst, cfg.theta ** n, z_pi))
    checks.append(CheckReport.le("magnetized-partition-upper", inst, z_pi, 1.0))
    payload = {"theta": cfg.theta, "eta": eta, "constant": constant, "z_pi": z_pi}
    return checks, payload, []


def _suite_hf(model, dist, cfg, inst):
    checks: List[CheckReport] = []
    n = dist.n
    fs = _functions(n, max(1, cfg.batch // 2), cfg.seed, "hf-f")
    k = 2
    nk = n * k
    ells = sorted({1, (nk + 1) // 2, nk})
    for ell in ells:
        for idx, f in enumerate(fs if ell == (nk + 1) // 2 else fs[:1]):
            direct, formula = hf_pair(dist, k, ell, f)
            checks.append(CheckReport.eq(
                f"hf-identity-k{k}-ell-{ell}", inst, direct, formula,
                rel_slack=1e-10,
                witness=None if abs(direct - formula) <= 1e-10 * max(abs(direct), abs(formula)) + 1e-12
                else f"f[{idx}]",
            ))
    ks = (2, 4, 8, 16) if n <= 3 else (2, 4, 8)
    series_rows = lbf_convergence(dist, cfg.theta, fs[0], ks)
    target = mbf_rhs(dist, cfg.theta, fs[0])
    first_gap = series_rows[0][1]
    last_gap = series_rows[-1][1]
    if first_gap > 1e-12:
        checks.append(CheckReport.le("lbf-gap-trend", inst, last_gap, first_gap))
    payload = {"k": k, "ells": ells, "mbf_rhs_target": target,
               "lbf_ks": list(ks)}
    series: Series = [("hf_lbf_gap", ("k", "gap"), [(kk, g) for kk, g in series_rows])]
    return checks, payload, series


def _suite_walks(model, dist, cfg, inst):
    checks: List[CheckReport] = []
    n = dist.n
    if 2 * n > exact_limit():
        return [CheckReport("walks-capacity", inst, 0.0, 0.0, 0.0, True,
                            witness="skipped: homogenization above capacity")], {}, []

    product = enumerate_gibbs(IsingModel(model.n, (), model.beta, model.lam))
    hom_prod = homogenize(product)
    prod_levels = levels_from_homogenized(hom_prod)
    k = prod_levels.k

    gen = derive_generator(cfg.seed, "walks-nu")
    raw = prod_levels.top_prob * np.exp(gen.normal(0.0, 1.0, size=prod_levels.top_prob.size))
    nu_top = raw / float(np.sum(raw))
    gen_f = derive_generator(cfg.seed, "walks-f")
    f_top = np.exp(gen_f.normal(0.0, 1.0, size=prod_levels.top_prob.size))

    for j in range(1, k):
        checks.append(entropy_contraction_check(
            prod_levels, nu_top, j, alpha=1.0, instance=inst,
            name=f"product-contraction-j{j}"))
        checks.append(local_entropy_decay_check(
            prod_levels, f_top, j, contraction=kappa(j, k, 1.0), instance=inst,
            name=f"product-entropy-decay-j{j}"))

    slice_levels = uniform_slice_levels(6, 3)
    gen_s = derive_generator(cfg.seed, "walks-slice-nu")
    raw_s = slice_levels.top_prob * np.exp(gen_s.normal(0.0, 1.0, size=slice_levels.top_prob.size))
    nu_s = raw_s / float(np.sum(raw_s))
    gen_sf = derive_generator(cfg.seed, "walks-slice-f")
    f_s = np.exp(gen_sf.normal(0.0, 1.0, size=slice_levels.top_prob.size))
    for j in range(1, 3):
        checks.append(entropy_contraction_check(
            slice_levels, nu_s, j, alpha=1.0, instance="uniform-6-3",
            name=f"slice-contraction-j{j}"))
        checks.append(local_entropy_decay_check(
            slice_levels, f_s, j, contraction=kappa(j, 3, 1.0), instance="uniform-6-3",
            name=f"slice-entropy-decay-j{j}"))

    fs = _functions(n, 2, cfg.seed, "walks-base-f")
    js = range(1, n + 1) if n <= 6 else sorted({1, n // 2, n})
    for j in js:
        checks.append(ubf_ed_identity_check(dist, fs[0], j, instance=inst,
                                            name=f"block-vs-level-j{j}"))

    model_levels = levels_from_homogenized(homogenize(dist))
    gen_mf = derive_generator(cfg.seed, "walks-model-f")
    f_model = np.exp(gen_mf.normal(0.0, 1.0, size=model_levels.top_prob.size))
    for j in range(0, model_levels.k + 1):
        f_j, dens = walk_density_pair(model_levels, f_model, j)
        gap = float(np.max(np.abs(f_j - dens))) if f_j.size else 0.0
        checks.append(CheckReport.le(f"walk-density-identity-j{j}", inst, gap, 0.0))

    raw_m = model_levels.top_prob * f_model
    nu_m = raw_m / float(np.sum(raw_m))
    kl_rows = [(model_levels.k - i, v) for i, v in enumerate(kl_by_level(model_levels, nu_m))]
    payload = {"product_top_faces": prod_levels.face_count(k),
               "model_top_faces": model_levels.face_count(model_levels.k)}
    series: Series = [
        ("walks_levels", ("level", "face", "probability"), _level_rows(model_levels)),
        ("walks_kl", ("level", "kl"), kl_rows),
    ]
    return checks, payload, series


def _level_rows(levels) -> List[tuple]:
    rows = []
    for j in range(levels.k + 1):
        probs = level_distribution(levels, j)
        for mask, p in zip(levels.faces[j], probs):
            rows.append((j, "|".join(str(e) for e in mask_bits(mask)), float(p)))
    return rows


def _suite_compare(model, dist, cfg, inst):
    checks: List[CheckReport] = []
    n = dist.n
    fs = _functions(n, cfg.batch, cfg.seed, "compare-f")
    for v in range(n):
        checks.append(compare_identity_check(
            dist, cfg.theta, v, fs[0], instance=inst,
            name=f"site-covariance-identity-v{v}"))
    for f in fs:
        checks.append(tensorization_chain_check(dist, cfg.theta, f, instance=inst))
    payload = {"theta": cfg.theta}
    return checks, payload, []


def _suite_dobrushin(model, dist, cfg, inst):
    n = dist.n
    fs = _functions(n, cfg.batch, cfg.seed, "dobrushin-f")
    checks = dobrushin_mls_check(dist, fs, instance=inst)
    for idx, f in enumerate(fs[:3]):
        a = dirichlet_form(dist, f)
        checks.append(CheckReport.eq(f"dirichlet-site-decomposition-f{idx}", inst,
                                     a, dirichlet_form_sites(dist, f), rel_slack=1e-10))
        checks.append(CheckReport.eq(f"dirichlet-inner-product-f{idx}", inst,
                                     a, dirichlet_form_inner(dist, f), rel_slack=1e-10))
    a_matrix = dobrushin_matrix(dist)
    threshold = dobrushin_mls_threshold(dist)
    payload = {
        "dobrushin": matrix_report(a_matrix, "dobrushin").to_json(),
        "contraction_norm": dobrushin_contraction_norm(dist),
        "alpha": marginal_lower_bound(dist) if dist.full_support() else None,
        "threshold": threshold,
    }
    series: Series = [
        ("dobrushin_matrix", None, [tuple(float(x) for x in row) for row in a_matrix]),
    ]
    return checks, payload, series


def _suite_verification(model, dist, cfg, inst):
    rep = verification_bounds_check(model, cfg.delta, instance=inst)
    payload = {key: val for key, val in rep.to_json().items() if key != "checks"}

    spec = HyperGeoSpec(n=max(2, min(model.n, 4)), k=20, ell=20)
    extra = [hypergeo_concentration_check(spec, eps, instance=inst,
                                          name=f"hypergeo-tail-eps{eps}")
             for eps in (0.2, 0.3, 0.5)]
    return list(rep.checks) + extra, payload, []


def _mixing_report(dist, eps: float, restarts: int, seed: int) -> dict:
    """Exact mixing time beside the MLS estimate and the bound it implies."""
    t_mix = mixing_time_exact(dist, eps)
    est = mls_estimate(dist, restarts=restarts, seed=seed)
    mu_min = dist.min_support_prob
    bound = mls_mixing_bound(est.rho_hat, mu_min, eps) if mu_min <= math.exp(-1.0) else None
    return {
        "epsilon": eps,
        "t_mix_exact": t_mix,
        "rho_hat": est.rho_hat,
        "rho_hat_method": est.method,
        "mls_bound_optimistic": bound,
        "mu_min": mu_min,
    }


def _suite_mixing(model, dist, cfg, inst):
    report = _mixing_report(dist, 0.25, min(8, max(2, cfg.batch)), cfg.seed)
    t_mix = report["t_mix_exact"]
    lam_ratio = 2.0 * float(np.max(model.lam) / np.min(model.lam))
    checks: List[CheckReport] = []
    tm = transition_matrix(dist, validate=False)
    if tm.size <= 2048:
        power = tm.dense()
        prev = stationary_distance_profile(tm, power)
        t = 1
        for _ in range(3):
            power = power @ power
            t *= 2
            cur = stationary_distance_profile(tm, power)
            checks.append(CheckReport.le(f"worst-tv-monotone-t{t}", inst, cur, prev))
            prev = cur
    payload = {
        "mixing_report": report,
        "bound_shapes": {
            "ratio_argument": lam_ratio,
            "log_term": math.log(lam_ratio),
            "loglog_term": math.log(math.log(lam_ratio)) if math.log(lam_ratio) > 0 else None,
            "note": "two published shapes disagree; both surfaced, neither asserted",
        },
    }
    series: Series = [("mixing_scaling", ("n", "t_mix"), [(model.n, t_mix)])]
    return checks, payload, series


_SUITE_FUNCS = {
    "influence": _suite_influence,
    "ktransform": _suite_ktransform,
    "ubf": _suite_ubf,
    "mbf": _suite_mbf,
    "hf": _suite_hf,
    "walks": _suite_walks,
    "compare": _suite_compare,
    "dobrushin": _suite_dobrushin,
    "verification": _suite_verification,
    "mixing": _suite_mixing,
}


def _run_single(suite: str, model: IsingModel, dist: DenseDistribution,
                cfg: RunConfig, out: Path) -> SuiteResult:
    inst = model_fingerprint(model)
    started = time.perf_counter()
    checks, payload, series = _SUITE_FUNCS[suite](model, dist, cfg, inst)
    wall = time.perf_counter() - started
    result = SuiteResult(
        suite=suite,
        seed=cfg.seed,
        theta=cfg.theta,
        delta=cfg.delta,
        instance=inst,
        version=__version__,
        checks=tuple(checks),
        payload=payload,
        passed=all(c.passed for c in checks),
        wall_time=wall,
    )
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{suite}.json").write_text(json_17g(result.to_json()) + "\n", newline="\n")
    (out / f"{suite}_meta.json").write_text(
        json_17g({"suite": suite, "wall_time_seconds": wall}) + "\n", newline="\n")
    for name, header, rows in series:
        emit_series(out / f"{name}.csv", header, rows)
    return result


def run_suite(cfg: RunConfig) -> SuiteResult:
    """Run a named suite (or all of them) and write its reports."""
    if cfg.command not in SUITES and cfg.command != "all":
        raise ValueError(f"unknown suite {cfg.command!r}")
    model = load_model(cfg.model_path)
    dist = enumerate_gibbs(model)
    out = Path(cfg.out_dir)
    if cfg.command != "all":
        return _run_single(cfg.command, model, dist, cfg, out)

    started = time.perf_counter()
    members = [_run_single(suite, model, dist, cfg, out) for suite in SUITES]
    wall = time.perf_counter() - started
    checks = tuple(c for member in members for c in member.checks)
    result = SuiteResult(
        suite="all",
        seed=cfg.seed,
        theta=cfg.theta,
        delta=cfg.delta,
        instance=model_fingerprint(model),
        version=__version__,
        checks=checks,
        payload={"suites": {member.suite: member.passed for member in members}},
        passed=all(member.passed for member in members),
        wall_time=wall,
    )
    (out / "all.json").write_text(json_17g(result.to_json()) + "\n", newline="\n")
    (out / "all_meta.json").write_text(
        json_17g({"suite": "all", "wall_time_seconds": wall}) + "\n", newline="\n")
    return result


# ---------------------------------------------------------------------------
# commands


@click.group()
@click.version_option(version=__version__, prog_name="glab")
def main() -> None:
    """Exact checks for Glauber dynamics and entropy factorization."""


@main.command("run")
@click.option("--suite", "suite", type=click.Choice(SUITES + ("all",)), required=True)
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--theta", type=float, default=0.5, show_default=True)
@click.option("--delta", type=float, default=0.5, show_default=True)
@click.option("--batch", type=click.IntRange(min=1), default=8, show_default=True,
              help="Seeded test functions per check family.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="reports",
              show_default=True)
def run_command(suite, model_path, seed, theta, delta, batch, out_dir) -> None:
    """Run a check suite and write JSON/CSV reports."""
    cfg = RunConfig(command=suite, model_path=model_path, seed=seed, theta=theta,
                    delta=delta, batch=batch, out_dir=out_dir)
    result = run_suite(cfg)
    for member, ok in (result.payload.get("suites") or {result.suite: result.passed}).items():
        click.echo(f"{member}: {'pass' if ok else 'FAIL'}")
    click.echo(f"reports in {out_dir}")
    raise SystemExit(0 if result.passed else 1)


@main.command("sample")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--steps", type=click.IntRange(min=0), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--thin", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--init", type=click.IntRange(min=0), default=None,
              help="Starting configuration index (default all minus).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Trace CSV path (default stdout).")
def sample_command(model_path, steps, seed, thin, init, out_path) -> None:
    """Simulate the chain from local conditionals and dump the trace."""
    model = load_model(model_path)
    trace = run_chain(model, steps, seed, init=init, thin=thin)
    rows = trace.rows()
    if out_path is None:
        click.echo("step,config_index")
        for step, state in rows:
            click.echo(f"{step},{state}")
    else:
        emit_series(out_path, ("step", "config_index"), rows)
        click.echo(f"trace in {out_path}")


@main.command("mix")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--eps", type=float, default=0.25, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def mix_command(model_path, eps, seed) -> None:
    """Print the exact mixing time report for a model."""
    dist = enumerate_gibbs(load_model(model_path))
    click.echo(json_17g(_mixing_report(dist, eps, restarts=8, seed=seed)))


if __name__ == "__main__":
    main()
