"""Single-site Glauber dynamics and its functional inequalities.

The chain picks a uniformly random site and resamples its spin from the
conditional distribution given the rest.  This module builds the exact
transition matrix over the support, evaluates the Dirichlet form of
(f, log f) in three algebraically independent ways, estimates the
modified log-Sobolev ratio by multi-start minimization (an UPPER bound
on the true constant, and never used as a lower bound anywhere), finds
exact worst-start total-variation mixing times, runs the chain with
counter-based randomness, and packages the end-to-end verification of
the marginal, contraction, and support-size bounds used by the mixing
analysis of extreme-field models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
# unused, but perfbench/tracer.py wraps glauber.minimize_scalar by name
from scipy.optimize import minimize, minimize_scalar  # noqa: F401

from .capacity import MIXING_BYTE_BUDGET, CapacityError
from .exact import (
    DenseDistribution,
    FieldAssignment,
    FunctionLike,
    Pinning,
    as_values,
    condition,
    entropy_functional,
    expected_site_ment,
    magnetize,
    marginal,
    popcount_table,
)
from .factorization import CheckReport
from .model import IsingModel, flip_direction
from .spectral import dobrushin_matrix
from .rng import derive_generator, uniform_pairs
from .walks import mask_bits

EXTREME_FIELD = 1.0 / 500.0


@dataclass(frozen=True)
class TransitionMatrix:
    """Glauber kernel over the support states of a distribution."""

    n: int
    support: np.ndarray          # config indices, ascending
    stationary: np.ndarray       # stationary law over support states
    matrix: sp.csr_matrix

    @property
    def size(self) -> int:
        return int(self.support.size)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def symmetrized_eigenvalues(self) -> np.ndarray:
        """Spectrum via the similar symmetric kernel; real by reversibility."""
        p = self.dense()
        d = np.sqrt(self.stationary)
        s = (p * d[:, None]) / d[None, :]
        s = 0.5 * (s + s.T)
        return np.linalg.eigvalsh(s)


def transition_matrix(dist: DenseDistribution, validate: bool = True) -> TransitionMatrix:
    """Exact single-site resampling kernel on the support.

    Entries: moving from s to its site-v neighbor t has probability
    (1/n) p(t)/(p(s)+p(t)); staying collects the complementary mass.
    A neighbor of zero probability contributes its slot to the diagonal,
    so the chain never leaves the support.
    """
    n = dist.n
    support = dist.support_indices.astype(np.int64)
    m = support.size
    pos = -np.ones(dist.prob.size, dtype=np.int64)
    pos[support] = np.arange(m)
    ps = dist.prob[support]

    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    diag = np.zeros(m)
    for v in range(n):
        partner = support ^ (1 << v)
        pp = dist.prob[partner]
        move = pp / (ps + pp) / n
        stay = ps / (ps + pp) / n
        diag += stay
        # neighbors off the support have pp = 0, hence move = 0: no entry
        ok = pos[partner] >= 0
        rows.append(np.arange(m)[ok])
        cols.append(pos[partner][ok])
        vals.append(move[ok])
    rows.append(np.arange(m))
    cols.append(np.arange(m))
    vals.append(diag)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    w = np.concatenate(vals)
    matrix = sp.coo_matrix((w, (r, c)), shape=(m, m)).tocsr()

    tm = TransitionMatrix(n=n, support=support, stationary=ps, matrix=matrix)
    if validate:
        _validate_reversibility(tm)
    return tm


def _validate_reversibility(tm: TransitionMatrix, tol: float = 1e-12) -> None:
    flow = sp.diags(tm.stationary) @ tm.matrix
    diff = (flow - flow.T).tocoo()
    err = float(np.max(np.abs(diff.data))) if diff.nnz else 0.0
    scale = float(np.max(tm.stationary))
    if err > tol * max(1.0, scale * tm.size):
        raise AssertionError(f"detailed balance violated by {err}")

    rowsums = np.asarray(tm.matrix.sum(axis=1)).reshape(-1)
    if float(np.max(np.abs(rowsums - 1.0))) > 1e-12:
        raise AssertionError("rows must sum to one")


def _pair_arrays(dist: DenseDistribution) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support index pairs (s, t) with s < t differing at one site, and
    the edge weight pi(s) P(s,t) of each."""
    n = dist.n
    support = dist.support_indices.astype(np.int64)
    pos = -np.ones(dist.prob.size, dtype=np.int64)
    pos[support] = np.arange(support.size)
    ps = dist.prob[support]
    ii: List[np.ndarray] = []
    jj: List[np.ndarray] = []
    ww: List[np.ndarray] = []
    for v in range(n):
        partner = support ^ (1 << v)
        upper = (partner > support) & (pos[partner] >= 0)
        s_idx = np.arange(support.size)[upper]
        t_idx = pos[partner[upper]]
        p_s = ps[s_idx]
        p_t = ps[t_idx]
        ww.append(p_s * p_t / (p_s + p_t) / n)
        ii.append(s_idx)
        jj.append(t_idx)
    return np.concatenate(ii), np.concatenate(jj), np.concatenate(ww)


def _support_values(dist: DenseDistribution, f: FunctionLike) -> np.ndarray:
    vals = as_values(f, dist.n)
    out = vals[dist.support_indices]
    if np.any(out <= 0):
        raise ValueError("Dirichlet forms need f > 0 on the support")
    return out


def dirichlet_form(dist: DenseDistribution, f: FunctionLike) -> float:
    """Pair-sum Dirichlet form of (f, log f) along the chain's edges."""
    fv = _support_values(dist, f)
    lf = np.log(fv)
    i, j, w = _pair_arrays(dist)
    return float(np.sum(w * (fv[i] - fv[j]) * (lf[i] - lf[j])))


def dirichlet_form_sites(dist: DenseDistribution, f: FunctionLike) -> float:
    """Site decomposition: mean over sites of the expected conditional
    covariance of (f, log f) at that site."""
    total = math.fsum(expected_site_ment(dist, f, v) for v in range(dist.n))
    return total / dist.n


def dirichlet_form_inner(dist: DenseDistribution, f: FunctionLike) -> float:
    """Inner-product form <f, (I - P) log f> under the stationary law."""
    fv = _support_values(dist, f)
    lf = np.log(fv)
    tm = transition_matrix(dist, validate=False)
    plog = tm.matrix @ lf
    return float(np.sum(tm.stationary * fv * (lf - plog)))


def mls_ratio(dist: DenseDistribution, f: FunctionLike) -> float:
    """Dirichlet form over entropy; requires nondegenerate f."""
    ent = entropy_functional(dist, f)
    if ent <= 0:
        raise ValueError("entropy of f vanishes; the ratio is undefined")
    return dirichlet_form(dist, f) / ent


@dataclass(frozen=True)
class MlsEstimate:
    """Multi-start minimization result for the entropy-contraction ratio.

    rho_hat is an UPPER bound on the true ratio infimum: it is the best
    ratio the search found, and the true constant can only be lower.
    """

    rho_hat: float
    minimizer: np.ndarray
    restarts: int
    method: str = "multistart BFGS (upper bound)"

    def to_json(self) -> dict:
        return {
            "rho_hat": self.rho_hat,
            "restarts": self.restarts,
            "method": self.method,
        }


def _ratio_and_grad(
    g: np.ndarray,
    pi: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    w: np.ndarray,
) -> Tuple[float, np.ndarray]:
    g = g - float(np.mean(g))
    f = np.exp(g)
    s = float(np.sum(pi * f))
    ent = float(np.sum(pi * f * g)) - s * math.log(s)
    gi = g[i]
    gj = g[j]
    fi = f[i]
    fj = f[j]
    e = float(np.sum(w * (fi - fj) * (gi - gj)))
    if ent <= 1e-14 * s:
        return math.inf, np.zeros_like(g)
    de = np.zeros_like(g)
    np.add.at(de, i, w * (fi * (gi - gj) + (fi - fj)))
    np.add.at(de, j, w * (-fj * (gi - gj) - (fi - fj)))
    dent = pi * f * (g - math.log(s))
    ratio = e / ent
    grad = (de * ent - e * dent) / (ent * ent)
    return ratio, grad


def mls_estimate(
    dist: DenseDistribution,
    restarts: int = 32,
    seed: int = 0,
    label: str = "mls-estimate",
) -> MlsEstimate:
    """Minimize the Dirichlet-to-entropy ratio over f = exp(g).

    Multi-start: each restart draws a Gaussian g and runs BFGS on the
    ratio with its analytic gradient.  The best value found is rho_hat,
    an upper bound on the true infimum.  The reported minimizer is
    normalized to mean one.
    """
    support = dist.support_indices
    m = support.size
    if m < 2:
        raise ValueError("ratio minimization needs at least two support states")
    pi = dist.prob[support]
    i, j, w = _pair_arrays(dist)

    def objective(g: np.ndarray) -> Tuple[float, np.ndarray]:
        return _ratio_and_grad(g, pi, i, j, w)

    best_val = math.inf
    best_g = np.zeros(m)
    for r in range(restarts):
        gen = derive_generator(seed, label, r)
        g = gen.normal(0.0, 1.2, size=m)
        res = minimize(objective, g, jac=True, method="BFGS",
                       options={"maxiter": 400, "gtol": 1e-12})
        cand = float(res.fun)
        if cand < best_val:
            best_val = cand
            best_g = np.asarray(res.x, dtype=np.float64)

    best_g = best_g - float(np.mean(best_g))
    f = np.exp(best_g)
    f = f / float(np.sum(pi * f))
    full = np.ones(dist.prob.size)
    full[support] = f
    return MlsEstimate(rho_hat=best_val, minimizer=full, restarts=restarts)


@dataclass(frozen=True)
class MlsMinEstimate:
    """Minimum of the ratio estimate over all pinned sub-instances.

    `table` records every feasible pinning as ("sites:spins", rho_hat);
    the empty pinning is keyed by ":".
    """

    value: float
    pinned_sites: Tuple[int, ...]
    pinned_spins: Tuple[int, ...]
    table: Tuple[Tuple[str, float], ...]

    @property
    def instances(self) -> int:
        return len(self.table)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "pinned_sites": list(self.pinned_sites),
            "pinned_spins": list(self.pinned_spins),
            "table": [[key, val] for key, val in self.table],
            "note": "upper bound; minimum of sampled-minimization estimates",
        }


def _pinning_key(sites: Tuple[int, ...], spins: Tuple[int, ...]) -> str:
    return ",".join(str(v) for v in sites) + ":" + ",".join(str(s) for s in spins)


def mls_min_estimate(
    dist: DenseDistribution, restarts: int = 8, seed: int = 0
) -> MlsMinEstimate:
    """Minimize mls_estimate over every feasible pinning of a strict subset.

    Pinnings leaving fewer than two support states have no chain and are
    skipped.  The empty pinning is included, so the result is at most the
    unpinned estimate.
    """
    import itertools

    best = math.inf
    best_pin: Tuple[Tuple[int, ...], Tuple[int, ...]] = ((), ())
    rows: List[Tuple[str, float]] = []
    n = dist.n
    for size in range(n):
        for sites in itertools.combinations(range(n), size):
            sub = marginal(dist, sites) if sites else None
            for assignment in range(1 << size):
                if sites:
                    if sub.prob[assignment] <= 0:
                        continue
                    spins = tuple(1 if (assignment >> t) & 1 else -1 for t in range(size))
                    pinned = condition(dist, Pinning(tuple(sites), spins))
                else:
                    spins = ()
                    pinned = dist
                if pinned.support_indices.size < 2:
                    continue
                est = mls_estimate(pinned, restarts=restarts, seed=seed,
                                   label=f"mls-min:{sites}:{spins}")
                rows.append((_pinning_key(tuple(sites), spins), est.rho_hat))
                if est.rho_hat < best:
                    best = est.rho_hat
                    best_pin = (tuple(sites), spins)
                if sites == ():
                    break
    return MlsMinEstimate(value=best, pinned_sites=best_pin[0],
                          pinned_spins=best_pin[1], table=tuple(rows))


def mls_mixing_bound(rho: float, mu_min: float, eps: float) -> float:
    """(1/rho) (log log(1/mu_min) + log(1/(2 eps^2))).

    Valid as a mixing bound only for a true lower bound rho on the ratio;
    with an estimated rho_hat it is optimistic and is never asserted.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0 < mu_min <= math.exp(-1.0):
        raise ValueError("mu_min must lie in (0, 1/e] so the double log is defined")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    return (math.log(math.log(1.0 / mu_min)) + math.log(1.0 / (2.0 * eps * eps))) / rho


# ---------------------------------------------------------------------------
# exact mixing time


def stationary_distance_profile(tm: TransitionMatrix, power: np.ndarray) -> float:
    """Worst-start total variation between the rows of P^t and pi."""
    return 0.5 * float(np.max(np.sum(np.abs(power - tm.stationary[None, :]), axis=1)))


def mixing_time_exact(dist: DenseDistribution, eps: float, max_doublings: int = 40) -> int:
    """Smallest t with worst-start TV distance at most eps.

    Exact dense computation over m support states, capped by a byte
    budget.  Worst-start TV is nonincreasing in t, so doubling brackets
    the answer and a linear scan inside the bracket finds it.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    m = int(dist.support_indices.size)
    # live m x m float64 arrays at the peak: the kernel, the identity, the
    # bracketing powers, a new product and two TV temporaries
    need = 7 * 8 * m * m
    if need > MIXING_BYTE_BUDGET:
        raise CapacityError(
            f"mixing over {m} support states needs {need} bytes of dense "
            f"arrays, above the budget of {MIXING_BYTE_BUDGET} bytes")
    tm = transition_matrix(dist, validate=False)
    p_dense = tm.dense()
    ident = np.eye(m)
    if stationary_distance_profile(tm, ident) <= eps:
        return 0

    step_op = sp.csr_matrix(p_dense.T)

    prev_t, prev_m = 0, ident
    cur_t, cur_m = 1, p_dense
    while stationary_distance_profile(tm, cur_m) > eps:
        if cur_t >= (1 << max_doublings):
            raise RuntimeError(f"no mixing below 2^{max_doublings} steps; chain may be reducible")
        prev_t, prev_m = cur_t, cur_m
        cur_m = cur_m @ cur_m
        cur_t *= 2

    t = prev_t
    mat = prev_m
    while True:
        mat = (step_op @ mat.T).T
        t += 1
        if stationary_distance_profile(tm, mat) <= eps:
            return t


# ---------------------------------------------------------------------------
# chain simulation from local conditionals


@dataclass(frozen=True)
class ChainTrace:
    """Thinned trajectory of configuration indices, states[i] at steps[i]."""

    steps: np.ndarray
    states: np.ndarray
    seed: int
    start: int
    thin: int

    def rows(self) -> List[Tuple[int, int]]:
        return [(int(s), int(x)) for s, x in zip(self.steps, self.states)]


def run_chain(
    source,
    steps: int,
    seed: int,
    init: Optional[int] = None,
    thin: int = 1,
    label: str = "glauber-chain",
) -> ChainTrace:
    """Run Glauber dynamics from an IsingModel or a DenseDistribution.

    Model mode computes the resampling probability from the neighborhood
    alone, so it scales past enumeration capacity; table mode reads the
    two relevant entries of the dense table.  Both modes consume exactly
    the two uniforms of each step's counter slot (site pick, then spin),
    so a trace is reproducible from (seed, label) regardless of chunking.
    The start state (default all minus) is recorded at step 0, then every
    `thin` steps.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    if isinstance(source, IsingModel):
        n = source.n
        adj = source.neighbors()
        beta = source.beta
        lam = source.lam

        def plus_probability(state: int, v: int) -> float:
            mono_plus = 0
            deg = len(adj[v])
            for u in adj[v]:
                if (state >> u) & 1:
                    mono_plus += 1
            w_plus = lam[v] * beta ** mono_plus
            w_minus = beta ** (deg - mono_plus)
            return w_plus / (w_plus + w_minus)

    elif isinstance(source, DenseDistribution):
        n = source.n
        table = source.prob

        def plus_probability(state: int, v: int) -> float:
            hi = table[state | (1 << v)]
            lo = table[state & ~(1 << v)]
            if hi + lo <= 0:
                raise ValueError("chain reached a state with no conditional mass")
            return hi / (hi + lo)

    else:
        raise TypeError("source must be an IsingModel or a DenseDistribution")

    state = 0 if init is None else int(init)
    if not 0 <= state < (1 << n):
        raise ValueError("initial configuration out of range")
    start = state
    out_steps = [0]
    out_states = [state]
    chunk = 1 << 14
    done = 0
    while done < steps:
        take = min(chunk, steps - done)
        draws = uniform_pairs(seed, label, done, take)
        for r in range(take):
            t = done + r + 1
            v = int(draws[r, 0] * n)
            if v == n:
                v = n - 1
            if draws[r, 1] < plus_probability(state, v):
                state |= 1 << v
            else:
                state &= ~(1 << v)
            if t % thin == 0:
                out_steps.append(t)
                out_states.append(state)
        done += take
    return ChainTrace(
        steps=np.asarray(out_steps, dtype=np.int64),
        states=np.asarray(out_states, dtype=np.int64),
        seed=seed,
        start=start,
        thin=thin,
    )


# ---------------------------------------------------------------------------
# Dobrushin-condition ratio bound


def power_iteration_two_norm(matrix: np.ndarray, iters: int = 10000, tol: float = 1e-14) -> float:
    """Largest singular value by power iteration on M^T M."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.size == 0:
        return 0.0
    gram = m.T @ m
    dim = gram.shape[0]
    v = 1.0 + 1e-3 * np.arange(dim)
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(iters):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - prev) <= tol * norm:
            break
        prev = norm
    return math.sqrt(norm)


def marginal_lower_bound(dist: DenseDistribution) -> float:
    """Worst conditional single-site probability over all pinnings.

    Conditioning on fewer sites averages the full-boundary conditionals,
    so the minimum over all pinnings is attained at full boundaries and
    scanning those is exact.  Needs full support so that every
    conditional exists.
    """
    if not dist.full_support():
        raise ValueError("marginal lower bound needs a fully supported distribution")
    from .exact import site_conditional_plus

    worst = 1.0
    for v in range(dist.n):
        _, cond = site_conditional_plus(dist, v)
        worst = min(worst, float(np.min(cond)), float(np.min(1.0 - cond)))
    return worst


def dobrushin_contraction_norm(dist: DenseDistribution) -> float:
    """min of the sqrt(norm1*norminf) bound and the power-iteration value
    for the two-norm of the Dobrushin matrix."""
    a = dobrushin_matrix(dist)
    if a.size == 0:
        return 0.0
    one = float(np.max(np.sum(np.abs(a), axis=0)))
    inf = float(np.max(np.sum(np.abs(a), axis=1)))
    return min(math.sqrt(one * inf), power_iteration_two_norm(a))


def dobrushin_mls_threshold(dist: DenseDistribution) -> Optional[float]:
    """alpha (1 - |A|_2)^2 / (2n), or None when the contraction fails."""
    s = dobrushin_contraction_norm(dist)
    if s >= 1.0:
        return None
    alpha = marginal_lower_bound(dist)
    return alpha * (1.0 - s) ** 2 / (2.0 * dist.n)


def dobrushin_mls_check(
    dist: DenseDistribution, fs: Sequence[FunctionLike], instance: str = "",
    name: str = "dobrushin-ratio-lower-bound",
) -> List[CheckReport]:
    """threshold * Ent[f] <= Dirichlet form of (f, log f), per f.

    When the contraction norm reaches 1 the bound asserts nothing; a
    single vacuous report says so instead of raising.
    """
    threshold = dobrushin_mls_threshold(dist)
    if threshold is None:
        return [CheckReport(name, instance, 0.0, 0.0, 0.0, True,
                            witness="not applicable: contraction norm >= 1")]
    out = []
    for idx, f in enumerate(fs):
        lhs = threshold * entropy_functional(dist, f)
        rhs = dirichlet_form(dist, f)
        report = CheckReport.le(name, instance, lhs, rhs, threshold, abs_slack=1e-9)
        if not report.passed:
            report = CheckReport.le(name, instance, lhs, rhs, threshold,
                                    witness=f"f[{idx}]", abs_slack=1e-9)
        out.append(report)
    return out


# ---------------------------------------------------------------------------
# end-to-end verification of the extreme-field bounds


@dataclass(frozen=True)
class VerificationReport:
    """Marginal, contraction, and support-size bounds for a model.

    The checked distribution is the base model magnetized by the extreme
    field 1/500 raised to the sign of each site's field direction; the
    hypothesis constant C is the worst of min(lambda, 1/lambda) over the
    original fields.
    """

    n: int
    delta: float
    effective_degree: int
    in_interior: bool
    lambda_extremes_ok: bool
    c_hypothesis: float
    alpha: float
    alpha_bound: float
    dobrushin_worst_norm: float
    dobrushin_bound: float
    mu_min: float
    mu_min_bound: float
    checks: Tuple[CheckReport, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "effective_degree": self.effective_degree,
            "in_interior": self.in_interior,
            "lambda_extremes_ok": self.lambda_extremes_ok,
            "c_hypothesis": self.c_hypothesis,
            "alpha": self.alpha,
            "alpha_bound": self.alpha_bound,
            "dobrushin_worst_norm": self.dobrushin_worst_norm,
            "dobrushin_bound": self.dobrushin_bound,
            "mu_min": self.mu_min,
            "mu_min_bound": self.mu_min_bound,
            "checks": [c.to_json() for c in self.checks],
            "pass": self.passed,
        }


def verification_bounds_check(model: IsingModel, delta: float, instance: str = "") -> VerificationReport:
    """Verify the three numeric bounds behind the extreme-field analysis.

    (1) every conditional marginal of the extreme-field model is at least
        C / 20000, with C the worst of min(lambda, 1/lambda);
    (2) the Dobrushin matrix of every pinned sub-instance has one- and
        inf-norm at most 3/5;
    (3) the base model's smallest probability is at least
        (lambda_min / (14000 lambda_max))^n.

    For (2) one unpinned matrix suffices.  A pinned sub-instance compares
    the same full-boundary conditionals, over fewer boundary pairs, so its
    matrix is entrywise at most the unpinned one restricted to the free
    sites, and its norms are at most the unpinned norms.  The empty
    pinning attains them.  marginal_lower_bound rests on the same fact.
    """
    from .exact import enumerate_gibbs
    from .model import in_delta_interior

    n = model.n
    deg_eff = max(3, model.max_degree)
    interior = in_delta_interior(model.beta, delta, deg_eff)
    lam = model.lam
    lam_min = float(np.min(lam))
    lam_max = float(np.max(lam))
    extremes_ok = lam_min <= 500.0 and lam_max >= 1.0 / 500.0

    c_hyp = float(np.min(np.minimum(lam, 1.0 / lam)))
    base = enumerate_gibbs(model)

    chi = flip_direction(model)
    phi = np.where(chi == 1, EXTREME_FIELD, 1.0 / EXTREME_FIELD)
    extreme = magnetize(base, FieldAssignment.full(phi))

    alpha = marginal_lower_bound(extreme)
    alpha_bound = c_hyp / 2e4

    a = np.abs(dobrushin_matrix(extreme))
    worst_norm = max(float(np.max(np.sum(a, axis=0))), float(np.max(np.sum(a, axis=1))))

    mu_min = base.min_support_prob
    mu_min_bound = (lam_min / (14000.0 * lam_max)) ** n

    checks = (
        CheckReport.le("extreme-field-marginal-lower-bound", instance,
                       alpha_bound, alpha, constant=2e4),
        CheckReport.le("pinned-dobrushin-norms", instance, worst_norm, 3.0 / 5.0,
                       constant=3.0 / 5.0),
        CheckReport.le("support-minimum-probability", instance, mu_min_bound, mu_min,
                       constant=14000.0),
    )
    return VerificationReport(
        n=n,
        delta=delta,
        effective_degree=deg_eff,
        in_interior=interior,
        lambda_extremes_ok=extremes_ok,
        c_hypothesis=c_hyp,
        alpha=alpha,
        alpha_bound=alpha_bound,
        dobrushin_worst_norm=worst_norm,
        dobrushin_bound=3.0 / 5.0,
        mu_min=mu_min,
        mu_min_bound=mu_min_bound,
        checks=checks,
        passed=all(c.passed for c in checks),
    )


# ---------------------------------------------------------------------------
# comparison identities for the magnetized chain


def compare_identity_check(
    dist: DenseDistribution, theta: float, v: int, f: FunctionLike, instance: str = "",
    name: str = "magnetized-site-covariance-identity",
) -> CheckReport:
    """Subset-average and boundary-average forms of the site covariance.

    Averaging the all-plus-conditioned expected site covariance over a
    binomial random subset equals averaging theta^(n - plus count of the
    boundary) against the magnetized boundary law.
    """
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    n = dist.n
    if not 0 <= v < n:
        raise ValueError(f"site {v} out of range")
    vals = as_values(f, n)
    pi = magnetize(dist, FieldAssignment.uniform(n, theta))

    log_theta = math.log(theta)
    log_one_minus = math.log1p(-theta)

    # subset-average route
    from .exact import site_ment_profile
    from .factorization import superset_sums

    sup_p = superset_sums(pi.prob, n)
    sizes = popcount_table(n)
    lhs = 0.0
    for r_mask in range(1 << n):
        mass = sup_p[r_mask]
        if mass <= 0:
            continue
        size = int(sizes[r_mask])
        weight = math.exp(size * log_one_minus + (n - size) * log_theta)
        pinned = condition(pi, Pinning.all_plus(mask_bits(r_mask)))
        lhs += weight * mass * expected_site_ment(pinned, vals, v)

    # boundary-average route
    mass, ment = site_ment_profile(pi, vals, v)
    plus = popcount_table(n - 1)
    rhs = float(np.sum(mass * np.exp((n - plus) * log_theta) * ment))
    return CheckReport.eq(name, instance, lhs, rhs)


def margin_monotonicity_violation(dist: DenseDistribution, theta: float) -> float:
    """Max over sites and boundaries of (magnetized conditional plus
    probability minus the base conditional plus probability)."""
    if not 0 < theta <= 1:
        raise ValueError(f"theta must lie in (0,1], got {theta}")
    from .exact import site_conditional_plus

    pi = magnetize(dist, FieldAssignment.uniform(dist.n, theta))
    worst = -math.inf
    for v in range(dist.n):
        mass_mu, cond_mu = site_conditional_plus(dist, v)
        mass_pi, cond_pi = site_conditional_plus(pi, v)
        both = (mass_mu > 0) & (mass_pi > 0)
        if np.any(both):
            worst = max(worst, float(np.max(cond_pi[both] - cond_mu[both])))
    return worst


def tensorization_chain_check(
    dist: DenseDistribution, theta: float, f: FunctionLike, instance: str = "",
    name: str = "magnetized-tensorization-chain",
) -> CheckReport:
    """Margin monotonicity plus the per-vertex covariance comparison.

    Verifies that magnetizing by theta can only lower every conditional
    plus-probability, and that for every vertex the theta^(-plus count)
    weighted boundary average of the magnetized conditional covariance is
    at most 1/Z_pi times the base expected covariance.  The report's
    lhs/rhs are the worst vertex's pair.  No estimate of the chain's
    entropy-contraction constant enters: the assembled comparison of the
    two chains' constants is deliberately not asserted.
    """
    violation = margin_monotonicity_violation(dist, theta)
    worst: Optional[CheckReport] = None
    worst_gap = -math.inf
    for v in range(dist.n):
        rep = tensorization_change_base_check(dist, theta, v, f, instance=instance)
        gap = rep.lhs - rep.rhs
        if gap > worst_gap:
            worst_gap = gap
            worst = rep
    monotone_ok = violation <= 1e-12
    passed = bool(worst.passed and monotone_ok)
    witness = None
    if not monotone_ok:
        witness = f"margin monotonicity violated by {violation:.3e}"
    elif not worst.passed:
        witness = "per-vertex covariance comparison failed"
    return CheckReport(name, instance, worst.lhs, worst.rhs, worst.constant,
                       passed, witness)


def tensorization_change_base_check(
    dist: DenseDistribution, theta: float, v: int, f: FunctionLike, instance: str = "",
    name: str = "magnetized-site-covariance-comparison",
) -> CheckReport:
    """theta^(-plus) boundary average under pi vs base average over mu.

    E over the magnetized boundary law of theta^(-plus count) times the
    conditional covariance is at most 1/Z_pi times the base expected site
    covariance.
    """
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    n = dist.n
    vals = as_values(f, n)
    from .exact import magnetized_partition, site_ment_profile

    pi = magnetize(dist, FieldAssignment.uniform(n, theta))
    z_pi = magnetized_partition(dist, theta)
    mass, ment = site_ment_profile(pi, vals, v)
    plus = popcount_table(n - 1)
    lhs = float(np.sum(mass * np.exp(-plus * math.log(theta)) * ment))
    rhs = expected_site_ment(dist, vals, v) / z_pi
    return CheckReport.le(name, instance, lhs, rhs, constant=1.0 / z_pi)
