"""Block factorizations of the entropy functional and their constants.

Three ways of spreading Ent[f] over conditioned sub-instances:

  uniform blocks   average over all size-l subsets S of the expected
                   entropy of f under the conditional given the spins
                   outside S;
  magnetized blocks  a binomially weighted sum over subsets R of the
                   all-plus probability and conditional entropy of the
                   uniformly magnetized distribution;
  hypergeometric mixtures  the uniform-block average of the k-copy lift,
                   rewritten as a mixture of magnetized and partially
                   conditioned base instances weighted by a multivariate
                   hypergeometric law.

The module also carries the contraction factor kappa used by the
down-up-walk entropy decay bounds (in both of its published forms, which
disagree; see kappa and kappa_binomial), and the CheckReport record that
every verification routine in the package emits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .capacity import BLOCK_PAIR_BUDGET, EXACT_LIMIT, PMF_TABLE_BYTE_BUDGET, CapacityError
from .exact import DenseDistribution, FunctionLike, _xlogx, as_values, entropy_functional
from .transform import digit_outer_sum, feasible_lift

DEFAULT_REL_SLACK = 1e-9
DEFAULT_ABS_SLACK = 1e-12


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a single inequality or identity check.

    A witness names what made the check fail: `le` and `eq` keep the one
    they are given only when the check fails, so a caller passes it
    unconditionally.  A skipped check passes and keeps its reason as the
    witness.
    """

    name: str
    instance: str
    lhs: float
    rhs: float
    constant: float
    passed: bool
    witness: Optional[str]

    @classmethod
    def le(cls, name: str, instance: str, lhs: float, rhs: float, constant: float = 1.0,
           witness: Optional[str] = None, rel_slack: float = DEFAULT_REL_SLACK,
           abs_slack: float = DEFAULT_ABS_SLACK) -> "CheckReport":
        """lhs <= rhs up to relative and absolute slack."""
        passed = bool(lhs <= rhs * (1.0 + rel_slack) + abs_slack)
        return cls(name, instance, float(lhs), float(rhs), float(constant), passed,
                   None if passed else witness)

    @classmethod
    def eq(cls, name: str, instance: str, lhs: float, rhs: float, constant: float = 1.0,
           witness: Optional[str] = None, rel_slack: float = DEFAULT_REL_SLACK,
           abs_slack: float = DEFAULT_ABS_SLACK) -> "CheckReport":
        """|lhs - rhs| small relative to the larger magnitude."""
        passed = bool(abs(lhs - rhs) <= rel_slack * max(abs(lhs), abs(rhs)) + abs_slack)
        return cls(name, instance, float(lhs), float(rhs), float(constant), passed,
                   None if passed else witness)

    @classmethod
    def skipped(cls, name: str, instance: str, reason: str) -> "CheckReport":
        """A check that did not run: it passes, with reason as its witness."""
        return cls(name, instance, 0.0, 0.0, 0.0, True, reason)

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "instance": self.instance,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "pass": self.passed,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def kappa(j: int, k: int, c: float) -> float:
    """Entropy contraction factor of the k-to-j down-up walk.

    kappa(j, k, c) = (k+1-j-c)^(c-ceil(c)) * prod_{i<ceil(c)} (k-j-i) / (k+1)^c
    for real c >= 1 and integers 0 <= j <= k - ceil(c).
    """
    if c < 1:
        raise ValueError(f"c must be at least 1, got {c}")
    if not (isinstance(j, (int, np.integer)) and isinstance(k, (int, np.integer))):
        raise ValueError("j and k must be integers")
    cc = math.ceil(c)
    if not 0 <= j <= k - cc:
        raise ValueError(f"need 0 <= j <= k - ceil(c); got j={j}, k={k}, c={c}")
    frac_base = k + 1 - j - c
    log_val = (c - cc) * math.log(frac_base) if frac_base != 1.0 else 0.0
    for i in range(cc):
        log_val += math.log(k - j - i)
    log_val -= c * math.log(k + 1)
    return math.exp(log_val)


def kappa_binomial(j: int, k: int, c: int) -> float:
    """Binomial-ratio variant C(k-j, c)/C(k, c) of the contraction factor.

    Published alongside kappa for integer c but not equal to it: kappa has
    denominator (k+1)^c, which makes it strictly smaller whenever c >= 1.
    Both values are reported by the walk suites; the contraction checks
    themselves always use kappa.
    """
    if c < 1 or int(c) != c:
        raise ValueError(f"c must be a positive integer, got {c}")
    c = int(c)
    if not 0 <= j <= k - c:
        raise ValueError(f"need 0 <= j <= k - c; got j={j}, k={k}, c={c}")
    return float(Fraction(math.comb(k - j, c), math.comb(k, c)))


def mbf_constant(theta: float, eta: float) -> float:
    """(e/theta)^(eta+3), the magnetized-block constant of the boosting chain."""
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    return (math.e / theta) ** (eta + 3.0)


def ubf_chain_constant(theta: float, eta: float) -> float:
    """(e/theta)^(eta+2), the uniform-block constant of the lifted instance."""
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    return (math.e / theta) ** (eta + 2.0)


# ---------------------------------------------------------------------------
# multivariate hypergeometric law over bucket intersections


@dataclass(frozen=True)
class HyperGeoSpec:
    """|S cap C_v| for a uniform size-ell subset S of n buckets of k copies."""

    n: int
    k: int
    ell: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("need at least one bucket and one copy")
        if not 0 <= self.ell <= self.n * self.k:
            raise ValueError(f"ell must lie in [0, nk], got {self.ell}")


def _hypergeo_rows(spec: HyperGeoSpec) -> int:
    """Count vectors a in [0, k]^n with sum ell: the coefficient of x^ell
    in (1 + x + ... + x^k)^n, by exact integer convolution truncated at
    degree ell (each factor sums k + 1 neighbouring coefficients as a
    difference of prefix sums)."""
    k = spec.k
    coeffs = [1] + [0] * spec.ell
    for _ in range(spec.n):
        prefix = list(itertools.accumulate(coeffs))
        coeffs = prefix[:k + 1] + [a - b for a, b in zip(prefix[k + 1:], prefix)]
    return coeffs[-1]


# count vectors divided at a time: the Python int and float of each row
# live only while its chunk is divided
_PMF_CHUNK_ROWS = 1 << 16


def hypergeo_pmf_table(spec: HyperGeoSpec) -> Tuple[np.ndarray, np.ndarray]:
    """(support, probabilities): the count vectors a with sum ell and
    0 <= a_v <= k as rows, in lexicographic order, and their exact pmf
    values.

    The numerators prod_v C(k, a_v) are integers, so each value is one
    correctly rounded integer division.  Raises CapacityError before
    building when the rows times the build's 10 (k + 1) + 110 bytes per
    row exceed PMF_TABLE_BYTE_BUDGET.
    """
    n, k = spec.n, spec.k
    rows = _hypergeo_rows(spec)
    need = rows * (10 * (k + 1) + 110)
    if need > PMF_TABLE_BYTE_BUDGET:
        raise CapacityError(
            f"hypergeometric table of {rows} count vectors (n = {n}, k = {k}, "
            f"ell = {spec.ell}) needs {need} bytes, above the budget of "
            f"{PMF_TABLE_BYTE_BUDGET} bytes")
    support = np.zeros((1, 0), dtype=np.min_scalar_type(k))
    remaining = np.array([spec.ell])
    counts = np.arange(k + 1)
    for v in range(n):
        rest = remaining[:, None] - counts
        row, a = np.nonzero((rest >= 0) & (rest <= k * (n - v - 1)))
        support = np.concatenate([support[row], a[:, None].astype(support.dtype)], axis=1)
        remaining = rest[row, a]
    combs = [math.comb(k, a) for a in counts]
    comb = np.array(combs, dtype=np.int64 if max(combs) ** n < 2 ** 63 else object)
    num = np.ones(support.shape[0], dtype=comb.dtype)
    for v in range(n):
        num *= comb[support[:, v]]
    denom = math.comb(n * k, spec.ell)
    probs = np.empty(num.size)
    for lo in range(0, num.size, _PMF_CHUNK_ROWS):
        probs[lo:lo + _PMF_CHUNK_ROWS] = [x / denom for x in num[lo:lo + _PMF_CHUNK_ROWS].tolist()]
    return support, probs


def hypergeo_concentration(spec: HyperGeoSpec, v: int, eps: float) -> Tuple[float, float]:
    """(exact tail P[|a_v/k - ell/(nk)| >= eps], bound 2 exp(-2 eps^2 k))."""
    if not 0 <= v < spec.n:
        raise ValueError(f"bucket {v} out of range")
    if eps <= 0:
        raise ValueError("eps must be positive")
    total = spec.n * spec.k
    mean = Fraction(spec.ell, total)
    eps_exact = Fraction(eps)
    tail = Fraction(0)
    denom = math.comb(total, spec.ell)
    for a in range(0, min(spec.k, spec.ell) + 1):
        rest = spec.ell - a
        if rest < 0 or rest > total - spec.k:
            continue
        if abs(Fraction(a, spec.k) - mean) >= eps_exact:
            tail += Fraction(math.comb(spec.k, a) * math.comb(total - spec.k, rest), denom)
    return float(tail), 2.0 * math.exp(-2.0 * eps * eps * spec.k)


def hypergeo_concentration_check(
    spec: HyperGeoSpec, eps: float, instance: str = "",
    name: str = "hypergeometric-concentration",
) -> CheckReport:
    """Exact tail of a bucket's normalized count vs 2 exp(-2 eps^2 k).

    Buckets are exchangeable (equal capacity k), so bucket 0 carries the
    common marginal.
    """
    tail, bound = hypergeo_concentration(spec, 0, eps)
    return CheckReport.le(name, instance, tail, bound, constant=2.0)


# ---------------------------------------------------------------------------
# superset sums and conditional-entropy aggregation


def superset_sums(vec: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Weighted superset (zeta) transform over the last axis.

    out[..., R] = sum over supersets x of mask R of
    vec[..., x] * prod_{v in x minus R} b[..., v], for n = b.shape[-1]
    fields per row; leading axes of vec and b broadcast.  b = 1 gives the
    plain superset sums, and a zero field b_v keeps only the x that agree
    with R at v.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[-1]
    vec = np.asarray(vec, dtype=np.float64)
    arr = np.array(np.broadcast_to(vec, np.broadcast_shapes(vec.shape, b.shape[:-1] + (1 << n,))))
    lead = arr.shape[:-1]
    for v in range(n):
        pairs = arr.reshape(lead + (-1, 2, 1 << v))
        pairs[..., 0, :] += b[..., v, None, None] * pairs[..., 1, :]
    return arr


def _entropy_mass(gp: np.ndarray, gpf: np.ndarray, gpfl: np.ndarray) -> np.ndarray:
    """Per group: (group mass) * Ent of f under the group conditional.

    The inputs are the group sums of p, p*f and p*f*log f; groups with no
    mass or no f-mass contribute 0.
    """
    ok = (gp > 0) & (gpf > 0)
    vals = np.zeros(gp.shape)
    vals[ok] = gpfl[ok] - gpf[ok] * (np.log(gpf[ok]) - np.log(gp[ok]))
    return np.maximum(vals, 0.0)


# Byte bound on the (blocks, (k+1)^n) int64 group keys of one chunk of
# blocks in _lift_block_average; the three tiled weight tables take three
# times as much.  One chunk of the 8-cycle at k = 2 (one block, 52 KB of
# keys) peaks at 323 KB under tracemalloc: the keys, the three bincount
# sums and the entropy-mass intermediates.  Unless one block alone is
# larger, each per-chunk array stays under glibc's default 128 KiB mmap
# threshold, so chunks reuse heap memory instead of mapping fresh pages:
# at k = 2, ell = 8 on the 8-cycle, 256 KiB chunks took 1.4-1.5 s
# with the adaptive threshold but 3.0-3.6 s with it pinned at 128 KiB,
# and 64 KiB chunks 1.8-2.2 s under both.
_BLOCK_CHUNK_BYTES = 1 << 16


def _lift_block_average(dist: DenseDistribution, k: int, ell: int, f: FunctionLike) -> float:
    """Average over the size-ell blocks S of copy sites of the k-copy lift
    of the expected entropy of the lifted f given the copies off S.

    Runs on the (k+1)^n feasible lifts, listed by their bucket digits
    (feasible_lift).  The copies off S read the digit d_v of bucket v
    unless it is 0 or names a copy in S, so a state's group key keeps d_v
    at place (k+1)^v exactly when copy (v, d_v - 1) lies off S.  A chunk
    of blocks shares one bincount per weight, its keys offset by block.
    """
    n = dist.n
    nk = n * k
    if not 1 <= ell <= nk:
        raise ValueError(f"block size must lie in [1, nk], got {ell}")
    vals = as_values(f, n)
    count = math.comb(nk, ell)
    states = (k + 1) ** n
    # one block's tables hold a few arrays of `states` entries, so they are
    # capped like a table over EXACT_LIMIT sites
    if states > 1 << EXACT_LIMIT:
        raise CapacityError(f"{states} lifted states exceed the table of the exact limit")
    if count * states > BLOCK_PAIR_BUDGET:
        raise CapacityError(f"{count} blocks x {states} lifted states exceed the budget "
                            f"of {BLOCK_PAIR_BUDGET} (block, state) pairs")
    base_index, weights = feasible_lift(dist, k)
    lifted_f = vals[base_index]
    rows = min(count, max(1, _BLOCK_CHUNK_BYTES // (8 * states)))
    tables = [np.tile(t, rows) for t in (weights, weights * lifted_f, weights * _xlogx(lifted_f))]
    place_values = np.arange(k + 1) * (k + 1) ** np.arange(n)[:, None]
    blocks = itertools.combinations(range(nk), ell)
    per_block: List[float] = []
    for _ in range(0, count, rows):
        sites = np.array(list(itertools.islice(blocks, rows)))
        b = sites.shape[0]
        in_block = np.zeros((b, n, k + 1), dtype=bool)
        in_block[np.arange(b)[:, None], sites // k, sites % k + 1] = True
        keys = digit_outer_sum(np.where(in_block, 0, place_values))
        keys += np.arange(b)[:, None] * states
        size = b * states
        sums = [np.bincount(keys.ravel(), weights=t[:size], minlength=size) for t in tables]
        per_block.extend(_entropy_mass(*sums).reshape(b, states).sum(axis=1).tolist())
    return math.fsum(per_block) / count


def subset_conditional_entropy(dist: DenseDistribution, sites: Sequence[int], f: FunctionLike) -> float:
    """Expected entropy of f under the conditional given the spins off `sites`.

    Averages Ent of f under the conditional distribution on the block over
    the marginal law of the complement.
    """
    vals = as_values(f, dist.n)
    block = set(sites)
    if block and not all(0 <= v < dist.n for v in block):
        raise ValueError("block sites out of range")
    outside = [v for v in range(dist.n) if v not in block]
    idx = np.arange(dist.prob.size, dtype=np.int64)
    gidx = np.zeros(dist.prob.size, dtype=np.int64)
    for pos, v in enumerate(outside):
        gidx |= ((idx >> v) & 1) << pos
    groups = 1 << len(outside)
    p = dist.prob
    gp = np.bincount(gidx, weights=p, minlength=groups)
    gpf = np.bincount(gidx, weights=p * vals, minlength=groups)
    gpfl = np.bincount(gidx, weights=p * _xlogx(vals), minlength=groups)
    return float(np.sum(_entropy_mass(gp, gpf, gpfl)))


def ubf_average(dist: DenseDistribution, ell: int, f: FunctionLike) -> float:
    """Average of subset_conditional_entropy over all size-ell blocks.

    The one-copy lift is the table itself, so this is the lifted block
    average at k = 1.
    """
    if not 1 <= ell <= dist.n:
        raise ValueError(f"block size must lie in [1, n], got {ell}")
    return _lift_block_average(dist, 1, ell, f)


def ubf_check(
    dist: DenseDistribution,
    ell: int,
    constant: float,
    fs: Sequence[FunctionLike],
    instance: str = "",
    name: str = "uniform-block-factorization",
) -> List[CheckReport]:
    """Ent[f] <= constant * (average block entropy), one report per f."""
    out = []
    for idx, f in enumerate(fs):
        lhs = entropy_functional(dist, f)
        rhs = constant * ubf_average(dist, ell, f)
        out.append(CheckReport.le(name, instance, lhs, rhs, constant, witness=f"f[{idx}]"))
    return out


# ---------------------------------------------------------------------------
# magnetized block factorization


# Byte bound on the (rows, 2^n) float64 tables of one chunk of field rows
# in _magnetized_block_kernel, of which about ten are alive at once (three
# transforms, the weights, the entropy-mass intermediates).  hf_formula
# hands the kernel one row per count vector: 273,127 at n=7 and 2,306,025
# at n=8 for k=8.
_KERNEL_CHUNK_BYTES = 1 << 24


def _magnetized_block_kernel(
    dist: DenseDistribution, numerators: np.ndarray, vals: np.ndarray, denominator: int = 1
) -> np.ndarray:
    """sum_R prod_{v in R} (1-b_v) * EntMass_R(b) for each field row
    b = numerators[i] / denominator.

    The weight mu(x) * prod_{v in x minus R} b_v on the x containing R is
    mu magnetized by b off R and conditioned to all plus on R, before
    normalizing; EntMass_R(b) is its total times the entropy of f under
    it, and 0 where the total vanishes.  Each chunk divides its own rows,
    so only one chunk of float fields exists at a time.
    """
    n = dist.n
    p = dist.prob
    tables = (p, p * vals, p * _xlogx(vals))
    # superset sums of the point mass at all plus: prod over the
    # complement of R, so the reversed table is prod over R
    all_plus = np.zeros(1 << n)
    all_plus[-1] = 1.0
    rows = max(1, _KERNEL_CHUNK_BYTES // (10 * 8 << n))
    out = np.empty(numerators.shape[0])
    for lo in range(0, numerators.shape[0], rows):
        b = numerators[lo:lo + rows] / denominator
        ent_mass = _entropy_mass(*(superset_sums(t, b) for t in tables))
        weight = superset_sums(all_plus, 1.0 - b)[:, ::-1]
        out[lo:lo + rows] = np.sum(weight * ent_mass, axis=1)
    return out


def mbf_rhs(dist: DenseDistribution, theta: float, f: FunctionLike) -> float:
    """Magnetized-block functional

        (Z_pi / theta^n) * E_R [ pi_R(all plus) * Ent of f given all plus on R ]

    where pi is the uniformly theta-magnetized distribution, R collects
    each site independently with probability 1-theta, and zero-probability
    all-plus events contribute nothing.  Unfolding pi and E_R leaves the
    block kernel at the uniform field theta.
    """
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    vals = as_values(f, dist.n)
    return float(_magnetized_block_kernel(dist, np.full((1, dist.n), theta), vals)[0])


def mbf_check(
    dist: DenseDistribution,
    theta: float,
    constant: float,
    fs: Sequence[FunctionLike],
    instance: str = "",
) -> List[CheckReport]:
    """Ent[f] <= constant * mbf_rhs, one report per f."""
    out = []
    for idx, f in enumerate(fs):
        lhs = entropy_functional(dist, f)
        rhs = constant * mbf_rhs(dist, theta, f)
        out.append(CheckReport.le("magnetized-block-factorization", instance, lhs, rhs, constant,
                                  witness=f"f[{idx}]"))
    return out


# ---------------------------------------------------------------------------
# hypergeometric mixture of block entropies: two independent routes


def hf_direct(dist: DenseDistribution, k: int, ell: int, f: FunctionLike) -> float:
    """Uniform-block average over size-ell blocks of the k-copy lift.

    Brute force over blocks: for each of the C(nk, ell) blocks S of copy
    sites, the expected entropy of the lifted f given the copies off S,
    averaged.  Only the (k+1)^n feasible lifts (at most one plus copy per
    bucket) carry mass, so each block groups just those states by the
    copies off S.  Blocks are never merged by copy exchangeability; that
    is hf_formula's route, which this one checks.  Raises CapacityError
    when the C(nk, ell) * (k+1)^n (block, state) pairs exceed the budget.
    """
    return _lift_block_average(dist, k, ell, f)


def hf_formula(dist: DenseDistribution, k: int, ell: int, f: FunctionLike) -> float:
    """Hypergeometric-mixture form of the lifted block average.

    Averages, over the law of the bucket intersection counts a of a
    uniform size-ell block, the base-instance entropies of f after
    magnetizing by b = a/k off a subset R and conditioning to all plus
    on R, weighted by prod_R (1-b) * prod b over the plus set of each
    base configuration.  Summing those weights over the configurations
    leaves the block kernel at the field b, so the mixture is
    sum_a pmf(a) * kernel(a/k).  Terms whose magnetization or
    conditioning has zero mass are dropped, matching the convention that
    zero-probability blocks contribute nothing.
    """
    n = dist.n
    vals = as_values(f, n)
    if not 1 <= ell <= n * k:
        raise ValueError(f"block size must lie in [1, nk], got {ell}")
    support, probs = hypergeo_pmf_table(HyperGeoSpec(n=n, k=k, ell=ell))
    # correctly rounded, so the sum does not follow the BLAS thread count
    return math.fsum(probs * _magnetized_block_kernel(dist, support, vals, k))


def hf_pair(dist: DenseDistribution, k: int, ell: int, f: FunctionLike) -> Tuple[float, float]:
    """(direct, mixture) values of the lifted block average."""
    return hf_direct(dist, k, ell, f), hf_formula(dist, k, ell, f)


def lbf_convergence(
    dist: DenseDistribution, theta: float, f: FunctionLike, ks: Sequence[int]
) -> List[Tuple[int, float]]:
    """|mixture value at k - magnetized-block value| for increasing k.

    The mixture with block size ceil(theta*n*k) converges to mbf_rhs as
    k grows; the series records the gap at each requested k.
    """
    target = mbf_rhs(dist, theta, f)
    out = []
    for k in ks:
        ell = math.ceil(theta * dist.n * k)
        val = hf_formula(dist, k, ell, f)
        out.append((int(k), abs(val - target)))
    return out
