"""Single-site Glauber dynamics and its functional inequalities.

The chain picks a uniformly random site and resamples its spin from the
conditional distribution given the rest.  This module builds the exact
transition matrix over the support, evaluates the Dirichlet form of
(f, log f) in three algebraically independent ways, estimates the
modified log-Sobolev ratio by multi-start L-BFGS-B minimization, whose
memory per iteration is linear in the support size (an UPPER bound on
the true constant, and never used as a lower bound anywhere), finds
exact worst-start total-variation mixing times, runs the chain with
counter-based randomness, and packages the end-to-end verification of
the marginal, contraction, and support-size bounds used by the mixing
analysis of extreme-field models.

Exact mixing times step the rows P^t(x,.) with the sparse kernel, one
start x per orbit of the model's automorphism group (site permutations
that keep edges and fields, possibly composed with the global flip):
the chain commutes with each of them, so every start in an orbit is
equally far from stationarity.  A table without a model has the
trivial group and steps every support row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .capacity import MIXING_BYTE_BUDGET, CapacityError
from .exact import (
    BoundarySplit,
    DenseDistribution,
    FieldAssignment,
    FunctionLike,
    as_values,
    boundary_split,
    entropy_functional,
    magnetize,
    magnetized_partition,
    popcount_table,
    site_ment_profile,
)
from .factorization import CheckReport, superset_sums
from .model import IsingModel, automorphism_generators, flip_direction
from .spectral import dobrushin_matrix
from .rng import derive_generator, uniform_pairs

if TYPE_CHECKING:
    import scipy.sparse as sp

EXTREME_FIELD = 1.0 / 500.0

# scipy is imported where it is called: scipy.optimize and scipy.sparse
# take about 0.6 s and 40 MB to import, and most glab processes (sampling,
# the hf, walks and lift suites) never call either
_OPTIMIZERS = ("minimize", "minimize_scalar")


def __getattr__(name: str):
    """glauber.minimize and glauber.minimize_scalar: scipy.optimize's,
    imported on first access and kept as module globals, so a wrapper
    assigned to either name (perfbench/tracer.py counts their calls) is
    what mls_estimate runs."""
    if name not in _OPTIMIZERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.optimize

    value = globals()[name] = getattr(scipy.optimize, name)
    return value


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
    import scipy.sparse as sp

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
    import scipy.sparse as sp

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
    vals = as_values(f, dist.n)
    total = math.fsum(boundary_split(dist, v).expected_ment(vals) for v in range(dist.n))
    return total / dist.n


def dirichlet_form_inner(dist: DenseDistribution, f: FunctionLike) -> float:
    """Inner-product form <f, (I - P) log f> under the stationary law."""
    fv = _support_values(dist, f)
    lf = np.log(fv)
    tm = transition_matrix(dist, validate=False)
    plog = tm.matrix @ lf
    return float(np.sum(tm.stationary * fv * (lf - plog)))


@dataclass(frozen=True)
class MlsRestart:
    """One restart of the ratio search: its L-BFGS-B iteration count,
    whether scipy reported convergence, and the ratio it ended at."""

    nit: int
    converged: bool
    rho: float

    def to_json(self) -> dict:
        return {"nit": self.nit, "converged": self.converged, "rho": self.rho}


@dataclass(frozen=True)
class MlsEstimate:
    """Multi-start minimization result for the entropy-contraction ratio.

    rho_hat is an UPPER bound on the true ratio infimum: it is the best
    ratio the search found, and the true constant can only be lower.
    """

    rho_hat: float
    minimizer: np.ndarray
    runs: Tuple[MlsRestart, ...]
    method: str = "multistart L-BFGS-B (upper bound)"

    @property
    def restarts(self) -> int:
        return len(self.runs)

    def to_json(self) -> dict:
        return {
            "rho_hat": self.rho_hat,
            "restarts": self.restarts,
            "method": self.method,
        }


# L-BFGS-B settings of every restart: tight enough that the search stops
# on its own tests, not on the iteration cap.
_MLS_OPTIONS = {"maxiter": 4000, "gtol": 1e-12, "ftol": 1e-15}


def _ratio_and_grad(
    g: np.ndarray,
    pi: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    w: np.ndarray,
) -> Tuple[float, np.ndarray]:
    # The ratio and its gradient do not change under g -> g + c; centring
    # at the maximum keeps f <= 1, so no step of the search overflows exp.
    g = g - float(np.max(g))
    f = np.exp(g)
    s = float(np.sum(pi * f))
    ent = float(np.sum(pi * f * g)) - s * math.log(s)
    dg = g[i] - g[j]
    fi = f[i]
    fj = f[j]
    wdf = w * (fi - fj)
    e = float(np.sum(wdf * dg))
    if ent <= 1e-14 * s:
        return math.inf, np.zeros_like(g)
    m = g.size
    de = (np.bincount(i, weights=w * fi * dg + wdf, minlength=m)
          - np.bincount(j, weights=w * fj * dg + wdf, minlength=m))
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

    Multi-start: each restart draws a Gaussian g (sigma 1.2, stream
    (seed, label, r)) and runs L-BFGS-B on the ratio with its analytic
    gradient, keeping O(m) memory per iteration.  The best value found is
    rho_hat, an upper bound on the true infimum.  Each restart's
    iteration count, scipy's convergence flag and final ratio are kept in
    `runs`; a restart whose f flattens toward a constant can end without
    converging, near the spectral limit 2 * gap.  The reported minimizer
    is normalized to mean one.
    """
    support = dist.support_indices
    m = support.size
    if m < 2:
        raise ValueError("ratio minimization needs at least two support states")
    pi = dist.prob[support]
    i, j, w = _pair_arrays(dist)

    def objective(g: np.ndarray) -> Tuple[float, np.ndarray]:
        return _ratio_and_grad(g, pi, i, j, w)

    # the module binding, not a local import: a wrapper assigned to
    # glauber.minimize is what runs
    minimize = globals().get("minimize") or __getattr__("minimize")
    best_val = math.inf
    best_g = np.zeros(m)
    runs = []
    for r in range(restarts):
        gen = derive_generator(seed, label, r)
        g = gen.normal(0.0, 1.2, size=m)
        res = minimize(objective, g, jac=True, method="L-BFGS-B", options=_MLS_OPTIONS)
        cand = float(res.fun)
        runs.append(MlsRestart(nit=int(res.nit), converged=bool(res.success), rho=cand))
        if cand < best_val:
            best_val = cand
            best_g = np.asarray(res.x, dtype=np.float64)

    best_g = best_g - float(np.max(best_g))
    f = np.exp(best_g)
    f = f / float(np.sum(pi * f))
    full = np.ones(dist.prob.size)
    full[support] = f
    return MlsEstimate(rho_hat=best_val, minimizer=full, runs=tuple(runs))


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


def orbit_representatives(dist: DenseDistribution) -> np.ndarray:
    """Support positions of one state per orbit of the model's
    automorphism group, the smallest of each orbit.

    The group is the one automorphism_generators finds for dist.model; a
    table without a model has the trivial group, and every support state
    is its own representative.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    n = dist.n
    support = dist.support_indices.astype(np.int64)
    m = support.size
    pos = -np.ones(dist.prob.size, dtype=np.int64)
    pos[support] = np.arange(m)
    gens = automorphism_generators(dist.model) if dist.model is not None else []
    graph = sp.csr_matrix((m, m))
    for image, flipped in gens:
        mapped = np.zeros(m, dtype=np.int64)
        for v in range(n):
            mapped |= ((support >> v) & 1) << image[v]
        if flipped:
            mapped ^= (1 << n) - 1
        if np.any(pos[mapped] < 0):
            # float underflow broke the table's symmetry; skip the generator
            continue
        graph = graph + sp.csr_matrix((np.ones(m), (np.arange(m), pos[mapped])), shape=(m, m))
    _, labels = connected_components(graph, directed=False)
    return np.unique(labels, return_index=True)[1]


def mixing_time_exact(dist: DenseDistribution, eps: float) -> int:
    """Smallest t with worst-start TV distance at most eps."""
    return _mixing_bracket(dist, eps)[0]


# a worst-start TV this close to eps may fall on either side of it for
# states of one orbit, whose table entries can differ in the last bits
_ORBIT_MARGIN = 1e-12


def _mixing_bracket(dist: DenseDistribution, eps: float) -> Tuple[int, np.ndarray]:
    """(exact mixing time t, worst-start TV at every step 0..t).

    The kernel commutes with every automorphism of the model and the
    stationary law is invariant under it, so TV(P^t(x,.), pi) is the same
    for every x in an orbit: stepping the rows of one representative per
    orbit gives the exact worst start.  When some step's TV lies within
    _ORBIT_MARGIN of eps, every support row is stepped instead.  Both
    runs are capped by a byte budget on the live row arrays.
    """
    from scipy.sparse.csgraph import connected_components

    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    tm = transition_matrix(dist, validate=False)
    classes = connected_components(tm.matrix, directed=False, return_labels=False)
    if classes > 1:
        raise RuntimeError(f"chain is reducible: its kernel splits the support into "
                           f"{classes} classes, so it never mixes")
    reps = orbit_representatives(dist)
    t_mix, tvs, margin = _step_rows(tm, reps, eps)
    if margin < _ORBIT_MARGIN and reps.size < tm.size:
        t_mix, tvs, _ = _step_rows(tm, np.arange(tm.size), eps)
    return t_mix, tvs


def _step_rows(
    tm: TransitionMatrix, rows: np.ndarray, eps: float
) -> Tuple[int, np.ndarray, float]:
    """Step the rows P^t(x,.) for x in rows until their worst TV to pi is
    at most eps: (t, worst TV at every step 0..t, least |TV - eps| seen)."""
    m, r = tm.size, rows.size
    # live m x r float64 arrays at the peak: the rows, their next step
    # and the TV buffer
    need = 3 * 8 * m * r
    if need > MIXING_BYTE_BUDGET:
        raise CapacityError(
            f"mixing over {m} support states needs {need} bytes for {r} rows, "
            f"above the budget of {MIXING_BYTE_BUDGET} bytes")
    step_op = tm.matrix.T.tocsr()
    pi = tm.stationary[:, None]
    # column j holds P^t(rows[j], .), so one step is P^T @ x
    x = np.zeros((m, r))
    x[rows, np.arange(r)] = 1.0
    buf = np.empty((m, r))
    tvs: List[float] = []
    margin = math.inf
    while True:
        np.subtract(x, pi, out=buf)
        np.abs(buf, out=buf)
        tv = 0.5 * float(np.max(np.sum(buf, axis=0)))
        tvs.append(tv)
        margin = min(margin, abs(tv - eps))
        if tv <= eps:
            return len(tvs) - 1, np.asarray(tvs), margin
        x = step_op @ x


# ---------------------------------------------------------------------------
# chain simulation from local conditionals


# steps per draw batch, and rows per slice of ChainTrace.rows()
_CHAIN_CHUNK = 1 << 14


@dataclass(frozen=True)
class ChainTrace:
    """Thinned trajectory of configuration indices (uint64), states[i] at
    steps[i]."""

    steps: np.ndarray
    states: np.ndarray
    seed: int
    start: int
    thin: int

    def rows(self) -> Iterator[Tuple[int, int]]:
        """(step, config_index) pairs as Python ints, one slice at a time."""
        return chain.from_iterable(
            zip(self.steps[lo:lo + _CHAIN_CHUNK].tolist(),
                self.states[lo:lo + _CHAIN_CHUNK].tolist())
            for lo in range(0, self.steps.size, _CHAIN_CHUNK))


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
    alone, so it scales past enumeration capacity up to 64 sites (states
    are packed into uint64); table mode reads the two relevant entries of
    the dense table.  Both modes consume exactly the two uniforms of each
    step's counter slot (site pick, then spin), so a trace is reproducible
    from (seed, label) regardless of chunking.  The start state (default
    all minus) is recorded at step 0, then every `thin` steps.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    if isinstance(source, IsingModel):
        n = source.n
        if n > 64:
            raise ValueError(f"model mode packs states into 64-bit integers; "
                             f"{n} sites exceed 64")
        step = _model_stepper(source)
    elif isinstance(source, DenseDistribution):
        n = source.n
        step = _table_stepper(source)
    else:
        raise TypeError("source must be an IsingModel or a DenseDistribution")

    state = 0 if init is None else int(init)
    if not 0 <= state < (1 << n):
        raise ValueError("initial configuration out of range")
    start = state
    kept = [np.array([state], dtype=np.uint64)]
    done = 0
    while done < steps:
        take = min(_CHAIN_CHUNK, steps - done)
        draws = uniform_pairs(seed, label, done, take)
        sites = np.minimum((draws[:, 0] * n).astype(np.int64), n - 1).tolist()
        trail = step(state, sites, draws[:, 1].tolist())
        state = trail[-1]
        # trail[r] is the state after step done + r + 1
        kept.append(np.array(trail[(-done - 1) % thin::thin], dtype=np.uint64))
        done += take
    return ChainTrace(
        steps=np.arange(0, steps + 1, thin, dtype=np.int64),
        states=np.concatenate(kept),
        seed=seed,
        start=start,
        thin=thin,
    )


def _model_stepper(model: IsingModel):
    """Steps from the neighborhood alone: the plus probability of site v
    with c plus neighbors is tabulated once per (v, c)."""
    beta = model.beta
    masks, plus = [], []
    for v, nbrs in enumerate(model.neighbors()):
        deg = len(nbrs)
        masks.append(sum(1 << u for u in nbrs))
        row = []
        for mono_plus in range(deg + 1):
            w_plus = model.lam[v] * beta ** mono_plus
            w_minus = beta ** (deg - mono_plus)
            row.append(float(w_plus / (w_plus + w_minus)))
        plus.append(row)

    def step(state: int, sites: List[int], spins: List[float]) -> List[int]:
        trail = []
        append = trail.append
        for v, u in zip(sites, spins):
            bit = 1 << v
            if u < plus[v][(state & masks[v]).bit_count()]:
                state |= bit
            else:
                state &= ~bit
            append(state)
        return trail

    return step


def _table_stepper(dist: DenseDistribution):
    """Steps from the two table entries that differ only at the drawn site."""
    # zero-copy view: indexing it yields Python floats
    table = memoryview(np.ascontiguousarray(dist.prob, dtype=np.float64))

    def step(state: int, sites: List[int], spins: List[float]) -> List[int]:
        trail = []
        append = trail.append
        for v, u in zip(sites, spins):
            up = state | (1 << v)
            down = up ^ (1 << v)
            hi = table[up]
            lo = table[down]
            if hi + lo <= 0:
                raise ValueError("chain reached a state with no conditional mass")
            state = up if u < hi / (hi + lo) else down
            append(state)
        return trail

    return step


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
    mass, ment = site_ment_profile(pi, vals, v)
    plus = popcount_table(n - 1)

    # subset-average route: conditioning pi to all plus on R keeps the
    # site-v conditional at every boundary containing R, so pi(all plus
    # on R) times the conditioned expected covariance is the superset sum
    # of mass * ment at R when v is not in R, and 0 when v is in R (the
    # conditional at v is then a point mass)
    blocks = superset_sums(mass * ment, np.ones(n - 1))
    lhs = float(np.sum(np.exp(plus * log_one_minus + (n - plus) * log_theta) * blocks))

    # boundary-average route
    rhs = float(np.sum(mass * np.exp((n - plus) * log_theta) * ment))
    return CheckReport.eq(name, instance, lhs, rhs)


def _margin_violation(dist: DenseDistribution, pi: DenseDistribution) -> float:
    from .exact import site_conditional_plus

    worst = -math.inf
    for v in range(dist.n):
        mass_mu, cond_mu = site_conditional_plus(dist, v)
        mass_pi, cond_pi = site_conditional_plus(pi, v)
        both = (mass_mu > 0) & (mass_pi > 0)
        if np.any(both):
            worst = max(worst, float(np.max(cond_pi[both] - cond_mu[both])))
    return worst


def tensorization_chain_check(
    dist: DenseDistribution, theta: float, fs: Sequence[FunctionLike], instance: str = "",
    name: str = "magnetized-tensorization-chain",
) -> List[CheckReport]:
    """Margin monotonicity plus the per-vertex covariance comparison, per f.

    Verifies that magnetizing by theta can only lower every conditional
    plus-probability, and that for every vertex the theta^(-plus count)
    weighted boundary average of the magnetized conditional covariance is
    at most 1/Z_pi times the base expected covariance.  A function's
    check passes only if the margins and every vertex pass; the report's
    lhs/rhs are a failing vertex's pair if there is one, else the pair
    with the largest gap.  No estimate of the chain's entropy-contraction
    constant enters: the assembled comparison of the two chains'
    constants is deliberately not asserted.  The magnetized table, Z_pi,
    the margin scan, both tables' boundary splits at every site and the
    boundary weights theta^(-plus count) do not depend on f; they are
    computed once and shared by every function.
    """
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    pi = magnetize(dist, FieldAssignment.uniform(dist.n, theta))
    z_pi = magnetized_partition(dist, theta)
    violation = _margin_violation(dist, pi)
    monotone_ok = violation <= 1e-12
    weights = np.exp(-popcount_table(dist.n - 1) * math.log(theta))
    mu_splits = [boundary_split(dist, v) for v in range(dist.n)]
    pi_splits = [boundary_split(pi, v) for v in range(dist.n)]
    out = []
    for f in fs:
        vals = as_values(f, dist.n)
        # a failing vertex outranks every passing one: CheckReport.le's slack
        # is relative, so the largest gap need not be the one that fails
        worst = max((_change_base_report(mu_splits, pi_splits, z_pi, weights, vals, v, instance,
                                         "magnetized-site-covariance-comparison")
                     for v in range(dist.n)),
                    key=lambda r: (not r.passed, r.lhs - r.rhs))
        passed = bool(worst.passed and monotone_ok)
        witness = None
        if not monotone_ok:
            witness = f"margin monotonicity violated by {violation:.3e}"
        elif not worst.passed:
            witness = "per-vertex covariance comparison failed"
        out.append(CheckReport(name, instance, worst.lhs, worst.rhs, worst.constant,
                               passed, witness))
    return out


def _change_base_report(
    mu_splits: Sequence[BoundarySplit], pi_splits: Sequence[BoundarySplit], z_pi: float,
    weights: np.ndarray, vals: np.ndarray, v: int, instance: str, name: str,
) -> CheckReport:
    """Vertex v's comparison from the base and magnetized boundary splits;
    weights[b] = theta^(-plus count of boundary b)."""
    pi_v = pi_splits[v]
    lhs = float(np.sum(pi_v.mass * weights * pi_v.ment(vals)))
    rhs = mu_splits[v].expected_ment(vals) / z_pi
    return CheckReport.le(name, instance, lhs, rhs, constant=1.0 / z_pi)
