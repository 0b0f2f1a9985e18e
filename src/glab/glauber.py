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
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from .capacity import MIXING_BYTE_BUDGET, MIXING_STEP_BUDGET, CapacityError
from .exact import (
    _site_pairs,
    BoundarySplit,
    DenseDistribution,
    FunctionLike,
    as_values,
    boundary_split,
    entropy_functional,
    magnetize,
    magnetized_partition,
    popcount_table,
)
from .factorization import CheckReport, superset_sums
from .model import IsingModel, automorphism_generators, flip_direction
from .spectral import dobrushin_matrix
from .rng import derive_generator, uniform_pairs

if TYPE_CHECKING:
    import scipy.sparse as sp

EXTREME_FIELD = 1.0 / 500.0

# scipy is imported where it is called, and called only where no numpy
# route will do: the mixing time (scipy.sparse) and the MLS search
# (scipy.optimize).  Importing those takes about 0.6 s and 40 MB, and
# every other glab process (sampling, and every suite but mixing) runs
# without them.
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
    """Glauber kernel over the support states of a distribution, in
    ascending configuration index, as CSR arrays: row s holds the entries
    indices[indptr[s]:indptr[s+1]] (ascending) with values data[...]."""

    stationary: np.ndarray       # stationary law over support states
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def size(self) -> int:
        return int(self.stationary.size)

    @property
    def matrix(self) -> sp.csr_matrix:
        """scipy's CSR matrix as a view over the arrays, for the routes that
        run a scipy algorithm on the kernel."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=(self.size, self.size), copy=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """P @ x for a vector x, each row summed from 0 in index order, as
        scipy's csr_matvec adds it, so the product has scipy's bits."""
        lengths = np.diff(self.indptr)
        out = np.zeros(self.size)
        for slot in range(int(lengths.max(initial=0))):
            rows = np.flatnonzero(lengths > slot)
            k = self.indptr[rows] + slot
            out[rows] += self.data[k] * x[self.indices[k]]
        return out

    def dense(self) -> np.ndarray:
        out = np.zeros((self.size, self.size))
        out[np.repeat(np.arange(self.size), np.diff(self.indptr)), self.indices] = self.data
        return out

    def symmetrized_eigenvalues(self) -> np.ndarray:
        """Spectrum via the similar symmetric kernel; real by reversibility."""
        p = self.dense()
        d = np.sqrt(self.stationary)
        s = (p * d[:, None]) / d[None, :]
        s = 0.5 * (s + s.T)
        return np.linalg.eigvalsh(s)


def _support_pairs(
    dist: DenseDistribution,
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per site v, in site order: the support positions s < t of the pairs
    (sigma with -1 at v, sigma with +1 at v) that lie in the support,
    ascending in s, and their probabilities p_s and p_t."""
    # a support state's position is the number of support states below it
    pos = np.cumsum(dist.prob > 0) - 1
    out = []
    for v in range(dist.n):
        minus, plus, p_minus, p_plus = _site_pairs(dist, v)
        both = (p_minus > 0) & (p_plus > 0)
        out.append((pos[minus[both]], pos[plus[both]], p_minus[both], p_plus[both]))
    return out


def transition_matrix(dist: DenseDistribution) -> TransitionMatrix:
    """Exact single-site resampling kernel on the support.

    Entries: moving from s to its site-v neighbor t has probability
    (1/n) p(t)/(p(s)+p(t)); staying collects the complementary mass.
    A neighbor of zero probability contributes its slot to the diagonal,
    so the chain never leaves the support.
    """
    n = dist.n
    ps = dist.prob[dist.support_indices]
    m = ps.size
    rows, cols, vals = [np.arange(m)], [np.arange(m)], []
    diag = np.zeros(m)
    for s, t, p_s, p_t in _support_pairs(dist):
        total = p_s + p_t
        q_s = p_s / total / n    # staying at s, and moving from t to s
        q_t = p_t / total / n
        # a state whose site-v neighbor is off the support stays put
        stay = np.full(m, 1.0 / n)
        stay[s], stay[t] = q_s, q_t
        diag += stay
        rows += [s, t]
        cols += [t, s]
        vals += [q_t, q_s]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # every (row, col) is entered once; sorting by it gives scipy's
    # canonical CSR, with 32-bit indices wherever they fit, as scipy picks
    order = np.argsort(rows * m + cols, kind="stable")
    index = np.int32 if max(m, order.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(m + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return TransitionMatrix(stationary=ps, indptr=indptr, indices=cols[order].astype(index),
                            data=np.concatenate([diag] + vals)[order])


def _pair_arrays(dist: DenseDistribution) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Support index pairs (s, t) with s < t differing at one site, and
    the edge weight pi(s) P(s,t) of each."""
    s, t, p_s, p_t = (np.concatenate(column) for column in zip(*_support_pairs(dist)))
    return s, t, p_s * p_t / (p_s + p_t) / dist.n


def _support_values(dist: DenseDistribution, f: FunctionLike) -> np.ndarray:
    vals = as_values(f, dist.n)
    out = vals[dist.support_indices]
    if np.any(out <= 0):
        raise ValueError("Dirichlet forms need f > 0 on the support")
    return out


def dirichlet_form(dist: DenseDistribution, fs: Sequence[FunctionLike]) -> List[float]:
    """Pair-sum Dirichlet form of (f, log f) along the chain's edges, per
    f; the pair list is built once for all of them."""
    i, j, w = _pair_arrays(dist)
    out = []
    for f in fs:
        fv = _support_values(dist, f)
        lf = np.log(fv)
        out.append(float(np.sum(w * (fv[i] - fv[j]) * (lf[i] - lf[j]))))
    return out


def dirichlet_form_sites(dist: DenseDistribution, fs: Sequence[FunctionLike]) -> List[float]:
    """Site decomposition, per f: mean over sites of the expected
    conditional covariance of (f, log f) at that site.  Each site's
    boundary split is built once for all the functions."""
    splits = [boundary_split(dist, v) for v in range(dist.n)]
    out = []
    for f in fs:
        vals = as_values(f, dist.n)
        out.append(math.fsum(split.expected_ment(vals) for split in splits) / dist.n)
    return out


def dirichlet_form_inner(dist: DenseDistribution, fs: Sequence[FunctionLike]) -> List[float]:
    """Inner-product form <f, (I - P) log f> under the stationary law, per
    f; the kernel is built once for all of them."""
    tm = transition_matrix(dist)
    out = []
    for f in fs:
        fv = _support_values(dist, f)
        lf = np.log(fv)
        out.append(float(np.sum(tm.stationary * fv * (lf - tm.apply(lf)))))
    return out


@dataclass(frozen=True)
class MlsRestart:
    """One restart of the ratio search: its L-BFGS-B iteration count,
    whether scipy reported convergence, and the ratio it ended at."""

    nit: int
    converged: bool
    rho: float


# how every MlsEstimate is found, as the mixing report names it
MLS_METHOD = "multistart L-BFGS-B (upper bound)"


@dataclass(frozen=True)
class MlsEstimate:
    """Multi-start minimization result for the entropy-contraction ratio.

    rho_hat is an UPPER bound on the true ratio infimum: it is the best
    ratio the search found, and the true constant can only be lower.
    """

    rho_hat: float
    minimizer: np.ndarray
    runs: Tuple[MlsRestart, ...]


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
) -> MlsEstimate:
    """Minimize the Dirichlet-to-entropy ratio over f = exp(g).

    Multi-start: each restart draws a Gaussian g (sigma 1.2, stream
    (seed, "mls-estimate", r)) and runs L-BFGS-B on the ratio with its analytic
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
        gen = derive_generator(seed, "mls-estimate", r)
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
    _ORBIT_MARGIN of eps, every support row is stepped instead, with the
    same transposed kernel.  Both runs step their rows in place, in
    column blocks spread over one lane per CPU (see _step_rows), and are
    capped by a byte budget of 16 m R bytes for the live blocks and a
    step budget on the multiply-adds.
    """
    from scipy.sparse.csgraph import connected_components

    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    tm = transition_matrix(dist)
    matrix = tm.matrix
    classes = connected_components(matrix, directed=False, return_labels=False)
    if classes > 1:
        raise RuntimeError(f"chain is reducible: its kernel splits the support into "
                           f"{classes} classes, so it never mixes")
    step_op = matrix.T.tocsr()
    reps = orbit_representatives(dist)
    t_mix, tvs, margin = _step_rows(tm, step_op, reps, eps)
    if margin < _ORBIT_MARGIN and reps.size < tm.size:
        t_mix, tvs, _ = _step_rows(tm, step_op, np.arange(tm.size), eps)
    return t_mix, tvs


# most stepped rows per column block: each block steps between two
# (m, c) buffers of its own, so no step allocates
_STEP_COLUMNS = 128


def _lane_count() -> int:
    """CPUs this process may run on: one stepping lane each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _step_rows(
    tm: TransitionMatrix, step_op: sp.csr_matrix, rows: np.ndarray, eps: float
) -> Tuple[int, np.ndarray, float]:
    """Step the rows P^t(x,.) for x in rows until their worst TV to pi is
    at most eps: (t, worst TV at every step 0..t, least |TV - eps| seen).

    step_op is the transposed kernel P^T in CSR form.  The R rows are
    split into column blocks of at most _STEP_COLUMNS whose widths differ
    by at most one, dealt out evenly to lanes, one per CPU the process
    may run on and no more than there are blocks.  Column j of a block
    holds P^t(x_j, .).  One step of a block zeroes its other buffer and
    adds P^T times this one into it with scipy's csr_matvecs, the kernel
    behind `step_op @ x`; the block's TVs are then read in the buffer
    the step came from, which the block's next step zeroes.  Each step
    maps the lanes over a thread pool (both kernels release the GIL);
    with one lane no thread starts.  Every column is stepped and summed
    in the same order at any width and lane count, so the results do not
    depend on either.  Raises CapacityError before allocating when the
    16 m R bytes of the blocks exceed MIXING_BYTE_BUDGET, and before the
    step whose multiply-adds, steps x R x nnz(P), would exceed
    MIXING_STEP_BUDGET.
    """
    from scipy.sparse._sparsetools import csr_matvecs

    m, r = tm.size, rows.size
    need = 16 * m * r
    if need > MIXING_BYTE_BUDGET:
        raise CapacityError(
            f"mixing over {m} support states needs {need} bytes for {r} rows, "
            f"above the budget of {MIXING_BYTE_BUDGET} bytes")
    pi = tm.stationary[:, None]
    wanted = -(-r // _STEP_COLUMNS)
    nlanes = min(_lane_count(), wanted)
    nblocks = min(r, nlanes * -(-wanted // nlanes))
    lanes: List[list] = [[] for _ in range(nlanes)]
    for b in range(nblocks):
        lo, hi = r * b // nblocks, r * (b + 1) // nblocks
        src = np.zeros((m, hi - lo))
        src[rows[lo:hi], np.arange(hi - lo)] = 1.0
        lanes[b % nlanes].append((src, np.empty_like(src)))

    def worst_sum(x: np.ndarray, buf: np.ndarray) -> float:
        np.subtract(x, pi, out=buf)
        np.abs(buf, out=buf)
        if buf.shape[1] == 1 and r > 1:
            # np.sum adds a lone column pairwise, but row by row in a
            # wider array: keep the order the whole (m, R) array gets
            return float(np.add.accumulate(buf, axis=0, out=buf)[-1, 0])
        return float(np.max(np.sum(buf, axis=0)))

    def step_lane(lane: list) -> float:
        worst = 0.0
        for i, (src, dst) in enumerate(lane):
            dst.fill(0.0)
            csr_matvecs(m, m, src.shape[1], step_op.indptr, step_op.indices,
                        step_op.data, src.ravel(), dst.ravel())
            lane[i] = dst, src
            worst = max(worst, worst_sum(dst, src))
        return worst

    def run(step_all) -> Tuple[int, np.ndarray, float]:
        tvs: List[float] = []
        margin = math.inf
        worst = max(worst_sum(src, dst) for lane in lanes for src, dst in lane)
        while True:
            tv = 0.5 * worst
            tvs.append(tv)
            margin = min(margin, abs(tv - eps))
            if tv <= eps:
                return len(tvs) - 1, np.asarray(tvs), margin
            if len(tvs) * r * step_op.nnz > MIXING_STEP_BUDGET:
                raise CapacityError(
                    f"mixing over {m} support states stopped after {len(tvs) - 1} steps of "
                    f"{r} rows at TV {tv:.6g} > {eps}: one more step exceeds the budget of "
                    f"{MIXING_STEP_BUDGET} multiply-adds, {step_op.nnz} (the kernel's nonzeros) "
                    f"per row and step")
            worst = step_all()

    if nlanes == 1:
        return run(lambda: step_lane(lanes[0]))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=nlanes) as pool:
        return run(lambda: max(pool.map(step_lane, lanes)))


# ---------------------------------------------------------------------------
# chain simulation from local conditionals


# steps per draw batch
_CHAIN_CHUNK = 1 << 14


@dataclass(frozen=True)
class ChainTrace:
    """Thinned trajectory as one C-contiguous (rows, 2) uint64 table:
    row i is a step number (0, thin, 2 thin, ...) and the configuration
    index held after that many steps."""

    table: np.ndarray

    @property
    def states(self) -> np.ndarray:
        """Configuration indices (a view of column 1)."""
        return self.table[:, 1]

    def rows(self) -> np.ndarray:
        """The (step, config_index) rows: the table itself, not a copy."""
        return self.table


def run_chain(
    source,
    steps: int,
    seed: int,
    init: Optional[int] = None,
    thin: int = 1,
) -> ChainTrace:
    """Run Glauber dynamics from an IsingModel or a DenseDistribution.

    Model mode computes the resampling probability from the neighborhood
    alone, so it scales past enumeration capacity up to 64 sites (states
    are packed into uint64); table mode reads the two relevant entries of
    the dense table.  Both modes consume exactly the two uniforms of each
    step's counter slot (site pick, then spin), so a trace is reproducible
    from (seed, "glauber-chain") regardless of chunking.  The start state (default
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
    table = np.empty((steps // thin + 1, 2), dtype=np.uint64)
    table[:, 0] = np.arange(0, steps + 1, thin)
    table[0, 1] = state
    kept = 1
    done = 0
    while done < steps:
        take = min(_CHAIN_CHUNK, steps - done)
        draws = uniform_pairs(seed, "glauber-chain", done, take)
        sites = np.minimum((draws[:, 0] * n).astype(np.int64), n - 1).tolist()
        trail = step(state, sites, draws[:, 1].tolist())
        state = trail[-1]
        # trail[r] is the state after step done + r + 1
        picked = trail[(-done - 1) % thin::thin]
        table[kept:kept + len(picked), 1] = picked
        kept += len(picked)
        done += take
    return ChainTrace(table=table)


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


def dobrushin_bound(dist: DenseDistribution) -> Tuple[np.ndarray, dict]:
    """(A, bound): the Dobrushin matrix A and the ratio bound it gives.

    bound["contraction_norm"] is |A|_2, the largest singular value;
    bound["alpha"] the marginal lower bound, None without full support;
    bound["threshold"] alpha (1 - |A|_2)^2 / (2n), None when the norm
    reaches 1.  A norm below 1 on a table without full support raises
    ValueError, as marginal_lower_bound does.
    """
    a = dobrushin_matrix(dist)
    s = float(np.linalg.norm(a, 2)) if a.size else 0.0
    # a norm below 1 needs alpha, and marginal_lower_bound raises then
    # when the table lacks full support
    alpha = marginal_lower_bound(dist) if s < 1.0 or dist.full_support() else None
    threshold = alpha * (1.0 - s) ** 2 / (2.0 * dist.n) if s < 1.0 else None
    return a, {"contraction_norm": s, "alpha": alpha, "threshold": threshold}


def dobrushin_mls_check(
    dist: DenseDistribution, threshold: Optional[float], fs: Sequence[FunctionLike],
    forms: Sequence[float], instance: str = "",
) -> List[CheckReport]:
    """threshold * Ent[f] <= Dirichlet form of (f, log f), per f, for
    the threshold of dobrushin_bound; forms[i] is the Dirichlet form of
    fs[i] (dirichlet_form).

    When the contraction norm reaches 1 (threshold None) the bound
    asserts nothing; a single vacuous report says so instead of raising.
    """
    name = "dobrushin-ratio-lower-bound"
    if threshold is None:
        return [CheckReport.skipped(name, instance, "not applicable: contraction norm >= 1")]
    return [CheckReport.le(name, instance, threshold * entropy_functional(dist, f),
                           form, threshold, witness=f"f[{idx}]", abs_slack=1e-9)
            for idx, (f, form) in enumerate(zip(fs, forms, strict=True))]


# ---------------------------------------------------------------------------
# end-to-end verification of the extreme-field bounds


def verification_bounds_check(
    model: IsingModel, delta: float, instance: str = "",
) -> Tuple[List[CheckReport], dict]:
    """Verify the three numeric bounds behind the extreme-field analysis.

    (1) every conditional marginal of the extreme-field model (the base
        model magnetized by the field 1/500 raised to the sign of each
        site's field direction) is at least C / 20000, with C the worst
        of min(lambda, 1/lambda);
    (2) the Dobrushin matrix of every pinned sub-instance has one- and
        inf-norm at most 3/5;
    (3) the base model's smallest probability is at least
        (lambda_min / (14000 lambda_max))^n.

    For (2) one unpinned matrix suffices.  A pinned sub-instance compares
    the same full-boundary conditionals, over fewer boundary pairs, so its
    matrix is entrywise at most the unpinned one restricted to the free
    sites, and its norms are at most the unpinned norms.  The empty
    pinning attains them.  marginal_lower_bound rests on the same fact.

    Returns the three checks and the report payload: the bounds and the
    values they are checked against, and "pass" when all three hold.
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
    extreme = magnetize(base, phi)

    alpha = marginal_lower_bound(extreme)
    alpha_bound = c_hyp / 2e4

    a = np.abs(dobrushin_matrix(extreme))
    worst_norm = max(float(np.max(np.sum(a, axis=0))), float(np.max(np.sum(a, axis=1))))

    mu_min = base.min_support_prob
    mu_min_bound = (lam_min / (14000.0 * lam_max)) ** n

    checks = [
        CheckReport.le("extreme-field-marginal-lower-bound", instance,
                       alpha_bound, alpha, constant=2e4),
        CheckReport.le("pinned-dobrushin-norms", instance, worst_norm, 3.0 / 5.0,
                       constant=3.0 / 5.0),
        CheckReport.le("support-minimum-probability", instance, mu_min_bound, mu_min,
                       constant=14000.0),
    ]
    return checks, {
        "n": n,
        "delta": delta,
        "effective_degree": deg_eff,
        "in_interior": interior,
        "lambda_extremes_ok": extremes_ok,
        "c_hypothesis": c_hyp,
        "alpha": alpha,
        "alpha_bound": alpha_bound,
        "dobrushin_worst_norm": worst_norm,
        "dobrushin_bound": 3.0 / 5.0,
        "mu_min": mu_min,
        "mu_min_bound": mu_min_bound,
        "pass": all(c.passed for c in checks),
    }


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
    pi = magnetize(dist, np.full(n, theta))

    log_theta = math.log(theta)
    log_one_minus = math.log1p(-theta)
    split = boundary_split(pi, v)
    mass, ment = split.mass, split.ment(vals)
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


def _margin_violation(
    mu_splits: Sequence[BoundarySplit], pi_splits: Sequence[BoundarySplit],
) -> float:
    """Largest rise of a site's plus conditional from mu to pi, over the
    boundaries where both have mass."""
    worst = -math.inf
    for mu_v, pi_v in zip(mu_splits, pi_splits):
        both = (mu_v.mass > 0) & (pi_v.mass > 0)
        if np.any(both):
            rise = pi_v.p_plus[both] / pi_v.mass[both] - mu_v.p_plus[both] / mu_v.mass[both]
            worst = max(worst, float(np.max(rise)))
    return worst


def tensorization_chain_check(
    dist: DenseDistribution, theta: float, fs: Sequence[FunctionLike], instance: str = "",
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
    pi = magnetize(dist, np.full(dist.n, theta))
    z_pi = magnetized_partition(dist, theta)
    mu_splits = [boundary_split(dist, v) for v in range(dist.n)]
    pi_splits = [boundary_split(pi, v) for v in range(dist.n)]
    violation = _margin_violation(mu_splits, pi_splits)
    monotone_ok = violation <= 1e-12
    weights = np.exp(-popcount_table(dist.n - 1) * math.log(theta))
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
        out.append(CheckReport("magnetized-tensorization-chain", instance, worst.lhs, worst.rhs,
                               worst.constant, passed, witness))
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
