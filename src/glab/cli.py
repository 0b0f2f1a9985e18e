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
from dataclasses import asdict, dataclass
from pathlib import Path
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, TextIO, Tuple, Union

import click
import numpy as np

from . import __version__
from .capacity import CapacityError
from .exact import (
    DenseDistribution,
    Pinning,
    enumerate_gibbs,
    entropy_functional,
    entropy_of_values,
    magnetized_partition,
    total_variation,
)
from .factorization import (
    CheckReport,
    HyperGeoSpec,
    hypergeo_concentration,
    kappa,
    kappa_binomial,
    lbf_convergence,
    mbf_constant,
    mbf_rhs,
    hf_pair,
    ubf_average,
    ubf_chain_constant,
)
from .glauber import (
    _mixing_bracket,
    dirichlet_form,
    dirichlet_form_inner,
    dirichlet_form_sites,
    dobrushin_bound,
    mixing_time_exact,
    MLS_METHOD,
    MlsEstimate,
    mls_estimate,
    mls_mixing_bound,
    run_chain,
    tensorization_chain_check,
    verification_bounds_check,
)
from .model import IsingModel, load_model, model_to_json
from .rng import derive_generator
from .spectral import (
    FieldSamplerConfig,
    correlation_matrix,
    homog_spectrum_check,
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
from .walks import (
    homogenized_law,
    homogenized_levels,
    kl_by_level,
    level_distribution,
    level_entropy,
    ubf_ed_identity_check,
    uniform_slice_levels,
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


# a series: a 2-D numeric array, or equally long columns that are each
# a 1-D numeric array or a list of str
Table = Union[np.ndarray, Sequence[Union[np.ndarray, List[str]]]]

# rows formatted and written per write() call
_ROWS_PER_WRITE = 1 << 13


def _column_spec(values) -> str:
    """printf spec of a column: `%d` for an integer ndarray, `%.17g` for a
    float one (a NaN or an infinity raises ValueError), `%s` for a list
    of str; anything else raises TypeError."""
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind == "f" and not np.isfinite(values).all():
        raise ValueError("non-finite value cannot be serialized")
    if kind in ("i", "u", "f"):
        return "%.17g" if kind == "f" else "%d"
    if isinstance(values, list) and set(map(type, values)) <= {str}:
        return "%s"
    raise TypeError(f"cannot write a column of {getattr(values, 'dtype', type(values))}")


def _series_text(header: Optional[Sequence[str]], table: Table) -> Iterator[str]:
    """The text of a CSV series (see `Table`), piece by piece: header line
    (if any) plus rows, LF endings, a lone LF when there is nothing else.
    Every error (a refused column, a non-finite float, a shape or column
    lengths that do not fit, a header of another width) is raised by this
    call, before any text is made.  Rows come `_ROWS_PER_WRITE` at a time,
    each chunk flattened row by row into one tuple and formatted by one
    `%` of the columns' `_column_spec`s."""
    if isinstance(table, np.ndarray):
        count, width = table.shape  # ValueError unless 2-D
        specs = (_column_spec(table),) * width
    else:
        columns = list(table)
        specs = tuple(map(_column_spec, columns))
        if (any(isinstance(col, np.ndarray) and col.ndim != 1 for col in columns)
                or len(set(map(len, columns))) > 1):
            raise ValueError("columns must be 1-D and of one length")
        count, width = len(columns[0]) if columns else 0, len(columns)
    if header is not None and len(header) != width:
        raise ValueError("the header must name every column")
    line = ",".join(specs) + "\n"

    def pieces() -> Iterator[str]:
        if header is not None:
            yield ",".join(header) + "\n"
        elif not count:
            yield "\n"
        for lo in range(0, count, _ROWS_PER_WRITE):
            hi = min(lo + _ROWS_PER_WRITE, count)
            if isinstance(table, np.ndarray):
                cells = table[lo:hi].ravel().tolist()
            else:
                cells = [None] * ((hi - lo) * width)
                for c, col in enumerate(columns):
                    part = col[lo:hi]
                    cells[c::width] = part if isinstance(part, list) else part.tolist()
            # the list goes before formatting and the tuple before the next
            # chunk: the chain trace's CSV takes about 7% more CPU otherwise
            cells = tuple(cells)
            text = (line * (hi - lo)) % cells
            del cells
            yield text

    return pieces()


def _write_series(stream: TextIO, header: Optional[Sequence[str]], table: Table) -> None:
    """Stream a CSV series to an open text stream, one write per piece of
    `_series_text`; nothing is written when the series is refused."""
    for text in _series_text(header, table):
        stream.write(text)


def emit_series(path, header: Optional[Sequence[str]], table: Table) -> None:
    """Write a CSV series to `path`.  A refused series raises before the
    file is opened, so an existing file keeps its bytes."""
    pieces = _series_text(header, table)
    with Path(path).open("w", newline="\n") as fh:
        for text in pieces:
            fh.write(text)


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


# ---------------------------------------------------------------------------
# suite batteries

Series = List[Tuple[str, Optional[Tuple[str, ...]], Table]]


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
    payload = {
        "influence": matrix_report(inf_m, "signed-influence"),
        "correlation": matrix_report(cor_m, "correlation"),
        "homogenized_spectrum": hom,
        "field_sup": si_sup_estimate(dist, sampler),
    }
    spectrum = np.linalg.eigvals(inf_m).astype(complex)
    spectrum = spectrum[np.lexsort((spectrum.imag, -spectrum.real))]
    series: Series = [
        ("influence_matrix", None, inf_m),
        ("influence_spectrum", ("re", "im"), [spectrum.real, spectrum.imag]),
    ]
    return checks, payload, series


def _suite_ktransform(model, dist, cfg, inst):
    checks: List[CheckReport] = []
    n = dist.n
    fs = _functions(n, cfg.batch, cfg.seed, "ktransform-f")
    ks = []
    reports = []
    for k in (2, 3):
        try:
            tdist = k_transform(dist, k)
        except CapacityError as exc:
            checks.append(CheckReport.skipped(f"lift-capacity-k{k}", inst, f"skipped: {exc}"))
            continue
        ks.append(k)
        for idx, f in enumerate(fs):
            base_ent, lifted_ent = lifted_entropy_identity(tdist, f)
            checks.append(CheckReport.eq(f"lift-entropy-identity-k{k}", inst, base_ent,
                                         lifted_ent, witness=f"f[{idx}]"))
        tv = total_variation(star_pushforward(tdist), dist)
        checks.append(CheckReport.le(f"lift-pushforward-tv-k{k}", inst, tv, 0.0))

        lhs, rhs = pinning_pushforward_pair(tdist, Pinning((0,), (-1,)))
        checks.append(CheckReport.le(
            f"pinned-pushforward-tv-k{k}-minus", inst, total_variation(lhs, rhs), 0.0))
        plus_mass = float(np.sum(dist.prob[(np.arange(dist.prob.size) & 1) == 1]))
        if plus_mass > 0:
            lhs, rhs = pinning_pushforward_pair(tdist, Pinning((0,), (1,)))
            checks.append(CheckReport.le(
                f"pinned-pushforward-tv-k{k}-plus", inst, total_variation(lhs, rhs), 0.0))

        gen = derive_generator(cfg.seed, f"ktransform-phi-{k}")
        phi = np.exp(gen.uniform(math.log(0.25), math.log(4.0), size=(n, k)))
        rep = ktrans_influence_check(tdist, phi)
        reports.append(rep)
        for family in ("cross", "self", "rowsum"):
            name, gap = f"ktrans-influence-{family}-k{k}", rep[f"max_{family}_violation"]
            if gap is None:
                checks.append(CheckReport.skipped(name, inst, "not applicable: no bounded entry"))
            else:
                checks.append(CheckReport.le(name, inst, gap, 0.0, abs_slack=1e-9,
                                             witness=str(rep[f"{family}_witness"])))
    payload = {"ks": ks, "influence_comparisons": reports}
    return checks, payload, []


def _suite_ubf(model, dist, cfg, inst):
    checks: List[CheckReport] = []
    n = dist.n
    eta = 2.0 / cfg.delta
    fs = _functions(n, cfg.batch, cfg.seed, "ubf-f")
    checks.extend(_block_checks(f"ubf-ell-{n}-unit", inst, dist, 1.0, fs,
                                lambda f: ubf_average(dist, n, f)))

    constants = []
    min_ell = math.ceil(eta + 1.0)
    for ell in range(max(1, min_ell), n + 1):
        kappa_ell = kappa(n - ell, n, eta + 1.0)
        c_kappa = 1.0 / kappa_ell
        constants.append({
            "ell": ell,
            "kappa": kappa_ell,
            "kappa_binomial": kappa_binomial(n - ell, n, int(math.ceil(eta + 1.0))),
            "constant": c_kappa,
        })
        checks.extend(_block_checks(f"ubf-ell-{ell}-kappa", inst, dist, c_kappa, fs[:2],
                                    lambda f: ubf_average(dist, ell, f)))

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
    eta = 2.0 / cfg.delta
    constant = mbf_constant(cfg.theta, eta)
    fs = _functions(dist.n, cfg.batch, cfg.seed, "mbf-f")
    checks = _block_checks("magnetized-block-factorization", inst, dist, constant, fs,
                           lambda f: mbf_rhs(dist, cfg.theta, f))
    payload = {"theta": cfg.theta, "eta": eta, "constant": constant,
               "z_pi": magnetized_partition(dist, cfg.theta)}
    return checks, payload, []


def _block_checks(name, inst, dist, constant, fs, value) -> List[CheckReport]:
    """Ent[f] <= constant * value(f), one check per f, f[i] its witness."""
    return [CheckReport.le(name, inst, entropy_functional(dist, f), constant * value(f), constant,
                           witness=f"f[{idx}]")
            for idx, f in enumerate(fs)]


def _suite_hf(model, dist, cfg, inst):
    checks: List[CheckReport] = []
    n = dist.n
    fs = _functions(n, max(1, cfg.batch // 2), cfg.seed, "hf-f")
    k = 2
    nk = n * k
    ells = sorted({1, (nk + 1) // 2, nk})
    for ell in ells:
        for idx, f in enumerate(fs if ell == (nk + 1) // 2 else fs[:1]):
            try:
                direct, formula = hf_pair(dist, k, ell, f)
            except CapacityError as exc:
                checks.append(CheckReport.skipped(f"hf-identity-k{k}-ell-{ell}", inst,
                                                  f"skipped: {exc}"))
                break
            checks.append(CheckReport.eq(f"hf-identity-k{k}-ell-{ell}", inst, direct, formula,
                                         witness=f"f[{idx}]", rel_slack=1e-10))
    series_rows = []
    for kk in (2, 4, 8, 16) if n <= 3 else (2, 4, 8):
        try:
            series_rows += lbf_convergence(dist, cfg.theta, fs[0], (kk,))
        except CapacityError as exc:
            checks.append(CheckReport.skipped(f"lbf-capacity-k{kk}", inst, f"skipped: {exc}"))
    target = mbf_rhs(dist, cfg.theta, fs[0])
    if len(series_rows) > 1 and series_rows[0][1] > 1e-12:
        checks.append(CheckReport.le("lbf-gap-trend", inst, series_rows[-1][1],
                                     series_rows[0][1]))
    lbf_ks = [kk for kk, _ in series_rows]
    payload = {"k": k, "ells": ells, "mbf_rhs_target": target, "lbf_ks": lbf_ks}
    series: Series = [("hf_lbf_gap", ("k", "gap"),
                       [np.array(lbf_ks), np.array([g for _, g in series_rows])])]
    return checks, payload, series


def _suite_walks(model, dist, cfg, inst):
    n = dist.n
    try:
        levels = homogenized_levels(n)
    except CapacityError as exc:
        return [CheckReport.skipped("walks-capacity", inst, f"skipped: {exc}")], {}, []
    # the model without its edges and the model itself, on one incidence
    product = homogenized_law(levels, enumerate_gibbs(IsingModel(n, (), model.beta, model.lam)))
    mu = homogenized_law(levels, dist)
    checks = _walk_checks(levels, product, cfg.seed, "walks", "product", inst)
    slice_levels = uniform_slice_levels(6, 3)
    size = slice_levels.face_count(3)
    checks += _walk_checks(slice_levels, _normalized(np.full(size, 1.0 / size)), cfg.seed,
                           "walks-slice", "slice", "uniform-6-3")

    fs = _functions(n, 2, cfg.seed, "walks-base-f")
    js = range(1, n + 1) if n <= 6 else sorted({1, n // 2, n})
    for j in js:
        checks.append(ubf_ed_identity_check(dist, levels, fs[0], j, instance=inst,
                                            name=f"block-vs-level-j{j}"))

    gen_mf = derive_generator(cfg.seed, "walks-model-f")
    nu_m = _normalized(mu * np.exp(gen_mf.normal(0.0, 1.0, size=mu.size)))
    kl = np.array(kl_by_level(levels, mu, nu_m), dtype=np.float64)
    payload = {"product_top_faces": int(np.count_nonzero(product)),
               "model_top_faces": int(np.count_nonzero(mu))}
    series: Series = [
        ("walks_levels", ("level", "face", "probability"), _level_rows(levels, mu)),
        ("walks_kl", ("level", "kl"), [np.arange(n, n - kl.size, -1), kl]),
    ]
    return checks, payload, series


def _walk_checks(levels, mu, seed, label, name, inst) -> List[CheckReport]:
    """Divergence contraction of a seeded nu against mu, and entropy decay
    of a seeded f under mu, at every inner level j: each at most
    1 - kappa(j, k, 1) times its value at the top."""
    nu = _normalized(mu * np.exp(derive_generator(seed, f"{label}-nu").normal(size=mu.size)))
    f = np.exp(derive_generator(seed, f"{label}-f").normal(size=mu.size))
    k = levels.k
    kl = kl_by_level(levels, mu, nu)
    ent_top = entropy_of_values(mu, f)
    checks: List[CheckReport] = []
    for j in range(1, k):
        factor = 1.0 - kappa(j, k, 1.0)
        checks.append(CheckReport.le(f"{name}-contraction-j{j}", inst, kl[k - j],
                                     factor * kl[0], factor))
        checks.append(CheckReport.le(f"{name}-entropy-decay-j{j}", inst,
                                     level_entropy(levels, mu, f, j), factor * ent_top, factor))
    return checks


def _normalized(top: np.ndarray) -> np.ndarray:
    """A nonnegative vector divided by its own sum."""
    return top / float(np.sum(top))


_DROP_FIRST = itemgetter(slice(1, None))


def _level_rows(levels, mu) -> Table:
    """(level, face, probability) columns of the faces the top law mu
    reaches, the face as its elements joined by "|" in increasing order."""
    # labels[b][x]: "|e" for every element e = 8b + i with bit i set in
    # byte x; a face is its bytes' labels joined, less the leading "|"
    labels = [tuple("".join(f"|{8 * b + i}" for i in range(8) if x >> i & 1)
                    for x in range(256))
              for b in range(max(1, (levels.ground + 7) // 8))]
    level_cols, faces, prob_cols = [], [], []
    for j in range(levels.k + 1):
        probs = level_distribution(levels, mu, j)
        on = probs > 0
        masks = np.asarray(levels.faces[j], dtype=np.int64)[on]
        parts = [map(table.__getitem__, ((masks >> (8 * b)) & 255).tolist())
                 for b, table in enumerate(labels)]
        faces.extend(map(_DROP_FIRST, map("".join, zip(*parts))))
        level_cols.append(np.full(masks.size, j, dtype=np.int64))
        prob_cols.append(probs[on])
    return [np.concatenate(level_cols), faces, np.concatenate(prob_cols)]


def _suite_compare(model, dist, cfg, inst):
    fs = _functions(dist.n, cfg.batch, cfg.seed, "compare-f")
    checks = tensorization_chain_check(dist, cfg.theta, fs, instance=inst)
    return checks, {"theta": cfg.theta}, []


def _suite_dobrushin(model, dist, cfg, inst):
    n = dist.n
    fs = _functions(n, cfg.batch, cfg.seed, "dobrushin-f")
    a_matrix, bound = dobrushin_bound(dist)
    pair = dirichlet_form(dist, fs)
    # threshold * Ent[f] <= Dirichlet form of (f, log f); a contraction
    # norm of 1 or more leaves no threshold and asserts nothing
    threshold, name = bound["threshold"], "dobrushin-ratio-lower-bound"
    if threshold is None:
        checks = [CheckReport.skipped(name, inst, "not applicable: contraction norm >= 1")]
    else:
        checks = [CheckReport.le(name, inst, threshold * entropy_functional(dist, f), form,
                                 threshold, witness=f"f[{idx}]", abs_slack=1e-9)
                  for idx, (f, form) in enumerate(zip(fs, pair))]
    routes = zip(pair, dirichlet_form_sites(dist, fs[:3]), dirichlet_form_inner(dist, fs[:3]))
    for idx, (a, sites, inner) in enumerate(routes):
        checks.append(CheckReport.eq(f"dirichlet-site-decomposition-f{idx}", inst,
                                     a, sites, rel_slack=1e-10))
        checks.append(CheckReport.eq(f"dirichlet-inner-product-f{idx}", inst,
                                     a, inner, rel_slack=1e-10))
    payload = {"dobrushin": matrix_report(a_matrix, "dobrushin"), **bound}
    series: Series = [("dobrushin_matrix", None, a_matrix)]
    return checks, payload, series


def _suite_verification(model, dist, cfg, inst):
    checks, payload = verification_bounds_check(model, cfg.delta, instance=inst)
    spec = HyperGeoSpec(n=max(2, min(model.n, 4)), k=20, ell=20)
    # buckets are exchangeable (equal capacity k), so bucket 0 carries the
    # common marginal
    for eps in (0.2, 0.3, 0.5):
        tail, bound = hypergeo_concentration(spec, 0, eps)
        checks.append(CheckReport.le(f"hypergeo-tail-eps{eps}", inst, tail, bound, constant=2.0))
    return checks, payload, []


def _mixing_report(dist, eps: float, est: MlsEstimate, t_mix: int) -> dict:
    """Exact mixing time beside the MLS estimate and the bound it implies."""
    mu_min = dist.min_support_prob
    bound = mls_mixing_bound(est.rho_hat, mu_min, eps) if mu_min <= math.exp(-1.0) else None
    return {
        "epsilon": eps,
        "t_mix_exact": t_mix,
        "rho_hat": est.rho_hat,
        "rho_hat_method": MLS_METHOD,
        "mls_bound_optimistic": bound,
        "mu_min": mu_min,
    }


def _suite_mixing(model, dist, cfg, inst):
    try:
        t_mix, tvs = _mixing_bracket(dist, 0.25)
    except CapacityError as exc:
        return [CheckReport.skipped("mixing-capacity", inst, f"skipped: {exc}")], {}, []
    est = mls_estimate(dist, restarts=min(8, max(2, cfg.batch)), seed=cfg.seed)
    report = _mixing_report(dist, 0.25, est, t_mix)
    lam_ratio = 2.0 * float(np.max(model.lam) / np.min(model.lam))
    # worst-start TV at each power of two 1 < t <= t_mix against TV at
    # t // 2; a chain that mixes in one step (one site) compares t = 1 with 0
    ts = [1 << i for i in range(1, t_mix.bit_length())] or [1]
    checks = [CheckReport.le(f"worst-tv-monotone-t{t}", inst, tvs[t], tvs[t // 2]) for t in ts]
    payload = {
        "mixing_report": report,
        "mls_restarts": [asdict(run) for run in est.runs],
        "bound_shapes": {
            "ratio_argument": lam_ratio,
            "log_term": math.log(lam_ratio),
            "loglog_term": math.log(math.log(lam_ratio)) if math.log(lam_ratio) > 0 else None,
            "note": "two published shapes disagree; both surfaced, neither asserted",
        },
    }
    series: Series = [("mixing_scaling", ("n", "t_mix"), np.array([[model.n, t_mix]]))]
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
SUITES = tuple(_SUITE_FUNCS)


def _write_reports(out: Path, result: SuiteResult, series: Series) -> None:
    """Write a suite's CSV series, then `<suite>.json` and its meta file:
    a series the writer refuses raises before the report is written."""
    out.mkdir(parents=True, exist_ok=True)
    for name, header, table in series:
        emit_series(out / f"{name}.csv", header, table)
    (out / f"{result.suite}.json").write_text(json_17g(result.to_json()) + "\n", newline="\n")
    (out / f"{result.suite}_meta.json").write_text(
        json_17g({"suite": result.suite, "wall_time_seconds": result.wall_time}) + "\n",
        newline="\n")


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
        passed=bool(checks) and all(c.passed for c in checks),
        wall_time=wall,
    )
    _write_reports(out, result, series)
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
    result = SuiteResult(
        suite="all",
        seed=cfg.seed,
        theta=cfg.theta,
        delta=cfg.delta,
        instance=model_fingerprint(model),
        version=__version__,
        checks=tuple(c for member in members for c in member.checks),
        payload={"suites": {member.suite: member.passed for member in members}},
        passed=all(member.passed for member in members),
        wall_time=time.perf_counter() - started,
    )
    _write_reports(out, result, [])
    return result


# ---------------------------------------------------------------------------
# commands


_OPEN_UNIT = click.FloatRange(0, 1, min_open=True, max_open=True)


def _readable_model(ctx, param, path: str) -> str:
    """The --model path, once `load_model` reads it: a file glab cannot
    read (not JSON, an unknown key, a bad value) is a usage error."""
    try:
        load_model(path)
    except (OSError, ValueError, TypeError) as exc:
        raise click.BadParameter(str(exc), ctx=ctx, param=param) from exc
    return path


_MODEL_OPTION = click.option("--model", "model_path", required=True, callback=_readable_model,
                             type=click.Path(exists=True, dir_okay=False))


@click.group()
@click.version_option(version=__version__, prog_name="glab")
def main() -> None:
    """Exact checks for Glauber dynamics and entropy factorization."""


@main.command("run")
@click.option("--suite", "suite", type=click.Choice(SUITES + ("all",)), required=True)
@_MODEL_OPTION
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--theta", type=_OPEN_UNIT, default=0.5, show_default=True)
@click.option("--delta", type=_OPEN_UNIT, default=0.5, show_default=True)
@click.option("--batch", type=click.IntRange(min=1), default=8, show_default=True,
              help="Seeded test functions per check family.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="reports",
              show_default=True)
def run_command(suite, model_path, seed, theta, delta, batch, out_dir) -> None:
    """Run a check suite and write JSON/CSV reports."""
    cfg = RunConfig(command=suite, model_path=model_path, seed=seed, theta=theta,
                    delta=delta, batch=batch, out_dir=out_dir)
    try:
        result = run_suite(cfg)
    except CapacityError as exc:
        raise click.ClickException(str(exc)) from exc
    for member, ok in (result.payload.get("suites") or {result.suite: result.passed}).items():
        click.echo(f"{member}: {'pass' if ok else 'FAIL'}")
    click.echo(f"reports in {out_dir}")
    raise SystemExit(0 if result.passed else 1)


@main.command("sample")
@_MODEL_OPTION
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
    if init is not None and init >= 1 << model.n:
        raise click.BadParameter(f"{init} is not below 2^{model.n}.", param_hint="'--init'")
    trace = run_chain(model, steps, seed, init=init, thin=thin)
    if out_path is None:
        stdout = click.get_text_stream("stdout")
        _write_series(stdout, ("step", "config_index"), trace.rows())
        stdout.flush()
    else:
        emit_series(out_path, ("step", "config_index"), trace.rows())
        click.echo(f"trace in {out_path}")


@main.command("mix")
@_MODEL_OPTION
@click.option("--eps", type=_OPEN_UNIT, default=0.25, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def mix_command(model_path, eps, seed) -> None:
    """Print the exact mixing time report for a model."""
    try:
        dist = enumerate_gibbs(load_model(model_path))
        t_mix = mixing_time_exact(dist, eps)
    except CapacityError as exc:
        raise click.ClickException(str(exc)) from exc
    est = mls_estimate(dist, restarts=8, seed=seed)
    click.echo(json_17g(_mixing_report(dist, eps, est, t_mix)))


if __name__ == "__main__":
    main()
