"""Exact tables for distributions on {-1,+1}^V.

Distributions are dense probability vectors indexed by bit-packed
configurations (vertex v is bit v, set bit means +1).  Everything here is
brute force on purpose: these tables are the ground truth against which
the structural machinery in the rest of the package is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .capacity import check_site_count
from .model import IsingModel, log_weight_table

_ATOL_SUM = 1e-12


def popcount_table(n: int) -> np.ndarray:
    """Number of set bits for every index in [0, 2^n)."""
    idx = np.arange(1 << n, dtype=np.int64)
    acc = np.zeros(idx.shape, dtype=np.int64)
    for v in range(n):
        acc += (idx >> v) & 1
    return acc


def insert_zero_bit(indices: np.ndarray, v: int) -> np.ndarray:
    """Map indices over n-1 sites to full indices with bit v cleared."""
    low = indices & ((1 << v) - 1)
    high = (indices >> v) << (v + 1)
    return low | high


@dataclass(frozen=True)
class DenseDistribution:
    """Probability table over {-1,+1}^n, bit-packed indexing.

    log_partition optionally records the log normalizing constant of the
    weights the table was built from, and model the Ising model itself
    (both set by enumerate_gibbs only; every derived table drops model).
    """

    n: int
    prob: np.ndarray
    log_partition: Optional[float] = None
    model: Optional[IsingModel] = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        p = np.asarray(self.prob, dtype=np.float64)
        if p.shape != (1 << self.n,):
            raise ValueError(f"prob table must have 2^{self.n} entries, got shape {p.shape}")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ValueError("probabilities must be finite and nonnegative")
        total = float(np.sum(p))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        if not np.any(p > 0):
            raise ValueError("distribution must have nonempty support")
        # renormalize residual float error so downstream sums stay tight
        if total != 1.0:
            p = p / total
        p.setflags(write=False)
        object.__setattr__(self, "prob", p)

    @property
    def support_mask(self) -> np.ndarray:
        return self.prob > 0

    @property
    def support_indices(self) -> np.ndarray:
        return np.nonzero(self.prob > 0)[0]

    @property
    def min_support_prob(self) -> float:
        return float(np.min(self.prob[self.prob > 0]))

    def full_support(self) -> bool:
        return bool(np.all(self.prob > 0))


@dataclass(frozen=True)
class FunctionTable:
    """Nonnegative test function on {-1,+1}^n, same indexing as the tables."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (1 << self.n,):
            raise ValueError(f"values must have 2^{self.n} entries, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("function values must be finite and nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


FunctionLike = Union[FunctionTable, np.ndarray, Sequence[float]]


def as_values(f: FunctionLike, n: int) -> np.ndarray:
    """Coerce a function table or array to a validated value vector."""
    if isinstance(f, FunctionTable):
        if f.n != n:
            raise ValueError(f"function is on {f.n} sites, expected {n}")
        return f.values
    vals = np.asarray(f, dtype=np.float64)
    if vals.shape != (1 << n,):
        raise ValueError(f"values must have 2^{n} entries, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)) or np.any(vals < 0):
        raise ValueError("function values must be finite and nonnegative")
    return vals


@dataclass(frozen=True)
class Pinning:
    """Fixed spins on a subset of sites."""

    sites: Tuple[int, ...]
    spins: Tuple[int, ...]

    def __post_init__(self):
        if len(self.sites) != len(self.spins):
            raise ValueError("sites and spins must align")
        if list(self.sites) != sorted(set(self.sites)):
            raise ValueError("sites must be sorted and distinct")
        if any(s not in (-1, 1) for s in self.spins):
            raise ValueError("pinned spins must be +-1")

    @property
    def mask(self) -> int:
        out = 0
        for v in self.sites:
            out |= 1 << v
        return out

    @property
    def bits(self) -> int:
        out = 0
        for v, s in zip(self.sites, self.spins):
            if s == 1:
                out |= 1 << v
        return out

    @classmethod
    def all_plus(cls, sites: Sequence[int]) -> "Pinning":
        sites = tuple(sorted(sites))
        return cls(sites, tuple(1 for _ in sites))


@dataclass(frozen=True)
class FieldAssignment:
    """External-field multipliers on a subset of sites (zeros allowed).

    Magnetizing by phi multiplies the weight of each configuration by
    prod over pinned-plus sites of phi_v; a zero field forbids +1 there.
    """

    sites: Tuple[int, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        if len(self.sites) != len(self.values):
            raise ValueError("sites and values must align")
        if list(self.sites) != sorted(set(self.sites)):
            raise ValueError("sites must be sorted and distinct")
        if any(not (math.isfinite(x) and x >= 0) for x in self.values):
            raise ValueError("field values must be finite and nonnegative")

    @classmethod
    def uniform(cls, n: int, theta: float) -> "FieldAssignment":
        return cls(tuple(range(n)), tuple(float(theta) for _ in range(n)))

    @classmethod
    def full(cls, values: Sequence[float]) -> "FieldAssignment":
        return cls(tuple(range(len(values))), tuple(float(x) for x in values))


def enumerate_gibbs(model: IsingModel) -> DenseDistribution:
    """Exact Gibbs table; log_partition carries log Z, model the source."""
    logw = log_weight_table(model)
    shift = float(np.max(logw))
    w = np.exp(logw - shift)
    total = float(np.sum(w))
    log_z = math.log(total) + shift
    return DenseDistribution(model.n, w / total, log_partition=log_z, model=model)


def distribution_from_weights(weights: Sequence[float]) -> DenseDistribution:
    """Normalize a nonnegative weight vector of length 2^n."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0 or (w.size & (w.size - 1)) != 0:
        raise ValueError("weights must have length 2^n")
    n = w.size.bit_length() - 1
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    total = float(np.sum(w))
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    return DenseDistribution(n, w / total)


def uniform_distribution(n: int) -> DenseDistribution:
    check_site_count(n, "uniform table")
    size = 1 << n
    return DenseDistribution(n, np.full(size, 1.0 / size))


def point_mass(n: int, index: int) -> DenseDistribution:
    p = np.zeros(1 << n)
    p[index] = 1.0
    return DenseDistribution(n, p)


def condition(dist: DenseDistribution, pin: Pinning) -> DenseDistribution:
    """Condition on pinned spins; stays a table over all n sites."""
    if pin.sites and (not all(0 <= v < dist.n for v in pin.sites)):
        raise ValueError("pinned sites out of range")
    idx = np.arange(1 << dist.n, dtype=np.int64)
    agree = (idx & pin.mask) == pin.bits
    mass = float(np.sum(dist.prob[agree]))
    if mass <= 0:
        raise ValueError(f"pinning {pin} has zero probability")
    p = np.where(agree, dist.prob, 0.0) / mass
    return DenseDistribution(dist.n, p)


def marginal(dist: DenseDistribution, sites: Sequence[int]) -> DenseDistribution:
    """Marginal table over the given sites (re-indexed in sorted order)."""
    sites = tuple(sorted(sites))
    if len(set(sites)) != len(sites):
        raise ValueError("marginal sites must be distinct")
    if sites and not all(0 <= v < dist.n for v in sites):
        raise ValueError("marginal sites out of range")
    m = len(sites)
    idx = np.arange(1 << dist.n, dtype=np.int64)
    sub = np.zeros(idx.shape, dtype=np.int64)
    for i, v in enumerate(sites):
        sub |= ((idx >> v) & 1) << i
    p = np.bincount(sub, weights=dist.prob, minlength=1 << m)
    return DenseDistribution(m, p)


def magnetize(dist: DenseDistribution, fields: FieldAssignment) -> DenseDistribution:
    """Reweight by prod_{v in domain, sigma_v=+1} phi_v and renormalize."""
    if fields.sites and not all(0 <= v < dist.n for v in fields.sites):
        raise ValueError("field sites out of range")
    idx = np.arange(1 << dist.n, dtype=np.int64)
    w = dist.prob.copy()
    for v, phi in zip(fields.sites, fields.values):
        plus = ((idx >> v) & 1) == 1
        w[plus] *= phi
    total = float(np.sum(w))
    if total <= 0:
        raise ValueError("magnetization left no mass (zero fields on the whole support)")
    return DenseDistribution(dist.n, w / total)


def magnetized_partition(dist: DenseDistribution, theta: float) -> float:
    """Mass sum_sigma mu(sigma) theta^(# plus spins); lies in [theta^n, 1] for theta in (0,1]."""
    if not (0 < theta <= 1):
        raise ValueError(f"theta must lie in (0,1], got {theta}")
    plus = popcount_table(dist.n)
    return float(np.sum(dist.prob * np.exp(plus * math.log(theta))))


def flip(dist: DenseDistribution, chi: Sequence[int]) -> DenseDistribution:
    """Pushforward under sigma -> sigma * chi (coordinatewise signs)."""
    chi = np.asarray(chi, dtype=np.int64)
    if chi.shape != (dist.n,) or not np.all(np.abs(chi) == 1):
        raise ValueError("chi must be a +-1 vector of length n")
    flipmask = 0
    for v in range(dist.n):
        if chi[v] == -1:
            flipmask |= 1 << v
    idx = np.arange(1 << dist.n, dtype=np.int64)
    return DenseDistribution(dist.n, dist.prob[idx ^ flipmask], dist.log_partition)


def entropy_functional(dist: DenseDistribution, f: FunctionLike) -> float:
    """Ent[f] = E[f log f] - E[f] log E[f] with 0 log 0 = 0; always >= 0."""
    return entropy_of_values(dist.prob, as_values(f, dist.n))


def entropy_of_values(p: np.ndarray, vals: np.ndarray) -> float:
    """Ent of vals under the probabilities p, both over the same states:
    a law held on part of its configurations (a lift's feasible states)
    needs no table over all of them."""
    flogf = np.where(vals > 0, vals * np.log(np.where(vals > 0, vals, 1.0)), 0.0)
    mean_flogf = float(np.sum(p * flogf))
    mean_f = float(np.sum(p * vals))
    if mean_f <= 0:
        return 0.0
    return max(0.0, mean_flogf - mean_f * math.log(mean_f))


def kl_divergence(nu: DenseDistribution, mu: DenseDistribution) -> float:
    """KL(nu || mu); requires support(nu) contained in support(mu)."""
    if nu.n != mu.n:
        raise ValueError("distributions must live on the same sites")
    on = nu.prob > 0
    if np.any(mu.prob[on] <= 0):
        raise ValueError("KL divergence needs support(nu) within support(mu)")
    return max(0.0, float(np.sum(nu.prob[on] * (np.log(nu.prob[on]) - np.log(mu.prob[on])))))


def total_variation(a: DenseDistribution, b: DenseDistribution) -> float:
    if a.n != b.n:
        raise ValueError("distributions must live on the same sites")
    return 0.5 * float(np.sum(np.abs(a.prob - b.prob)))


def _boundary_minus(n: int, v: int) -> np.ndarray:
    """Full index of (boundary b, spin -1 at v) for every boundary b."""
    if not 0 <= v < n:
        raise ValueError(f"site {v} out of range")
    return insert_zero_bit(np.arange(1 << (n - 1), dtype=np.int64), v)


def site_split(dist: DenseDistribution, v: int) -> Tuple[np.ndarray, np.ndarray]:
    """(p_minus, p_plus) over the 2^(n-1) boundary configurations at site v.

    Entry b is the joint probability of (boundary b, spin at v) where the
    boundary index packs the other sites in increasing order.
    """
    full_minus = _boundary_minus(dist.n, v)
    return dist.prob[full_minus], dist.prob[full_minus | (1 << v)]


def site_conditional_plus(dist: DenseDistribution, v: int) -> Tuple[np.ndarray, np.ndarray]:
    """(boundary mass, conditional P[sigma_v=+1 | boundary]) per boundary.

    The conditional entry is NaN on zero-mass boundaries.
    """
    p_minus, p_plus = site_split(dist, v)
    mass = p_minus + p_plus
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(mass > 0, p_plus / np.where(mass > 0, mass, 1.0), np.nan)
    return mass, cond


@dataclass(frozen=True)
class BoundarySplit:
    """A table's two-point conditionals at site v, one per boundary b.

    None of it depends on a function f, so one split serves every f:
    `mass` covers all 2^(n-1) boundaries, the rest only the boundaries
    `both` where the conditional is two-point.
    """

    mass: np.ndarray
    both: np.ndarray
    minus: np.ndarray    # full index of (b, spin -1) on `both`
    plus: np.ndarray     # full index of (b, spin +1) on `both`
    weight: np.ndarray   # q_minus * q_plus of the conditional on `both`

    def ment(self, vals: np.ndarray) -> np.ndarray:
        """Per-boundary covariance of (f, log f) under the conditional,
        0 where it is degenerate; vals are f's values on all states."""
        f_minus = vals[self.minus]
        f_plus = vals[self.plus]
        if np.any((f_minus <= 0) | (f_plus <= 0)):
            raise ValueError("f must be positive wherever the site conditional is two-point")
        ment = np.zeros(self.mass.shape)
        ment[self.both] = self.weight * (f_plus - f_minus) * (np.log(f_plus) - np.log(f_minus))
        return ment

    def expected_ment(self, vals: np.ndarray) -> float:
        """Boundary-averaged conditional covariance of (f, log f)."""
        return float(np.sum(self.mass * self.ment(vals)))


def boundary_split(dist: DenseDistribution, v: int) -> BoundarySplit:
    """Site v's boundary split of dist (see BoundarySplit)."""
    full_minus = _boundary_minus(dist.n, v)
    full_plus = full_minus | (1 << v)
    p_minus, p_plus = dist.prob[full_minus], dist.prob[full_plus]
    mass = p_minus + p_plus
    both = (p_minus > 0) & (p_plus > 0)
    m2 = mass[both]
    return BoundarySplit(mass, both, full_minus[both], full_plus[both],
                         (p_minus[both] * p_plus[both]) / (m2 * m2))


def site_ment_profile(dist: DenseDistribution, f: FunctionLike, v: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-boundary covariance of (f, log f) under the conditional at v.

    Returns (boundary mass, value) arrays over the 2^(n-1) boundaries.
    The value at boundary b is q_minus*q_plus*(f_plus-f_minus)*(log f_plus - log f_minus)
    for the two-point conditional there, 0 when the conditional is degenerate.
    """
    split = boundary_split(dist, v)
    return split.mass, split.ment(as_values(f, dist.n))
