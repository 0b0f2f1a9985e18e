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

from .model import IsingModel, log_weight_table

_ATOL_SUM = 1e-12


def popcount_table(n: int) -> np.ndarray:
    """Number of set bits for every index in [0, 2^n)."""
    idx = np.arange(1 << n, dtype=np.int64)
    acc = np.zeros(idx.shape, dtype=np.int64)
    for v in range(n):
        acc += (idx >> v) & 1
    return acc


@dataclass(frozen=True)
class DenseDistribution:
    """Probability table over {-1,+1}^n, bit-packed indexing.

    model optionally records the Ising model the table was built from
    (set by enumerate_gibbs only; every derived table drops it).
    """

    n: int
    prob: np.ndarray
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
    def support_indices(self) -> np.ndarray:
        return np.nonzero(self.prob > 0)[0]

    @property
    def min_support_prob(self) -> float:
        return float(np.min(self.prob[self.prob > 0]))

    def full_support(self) -> bool:
        return bool(np.all(self.prob > 0))


FunctionLike = Union[np.ndarray, Sequence[float]]


def as_values(f: FunctionLike, n: int) -> np.ndarray:
    """Coerce a function's values on {-1,+1}^n (same indexing as the
    tables) to a validated value vector."""
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


def enumerate_gibbs(model: IsingModel) -> DenseDistribution:
    """Exact Gibbs table; model records its source."""
    logw = log_weight_table(model)
    w = np.exp(logw - float(np.max(logw)))
    return DenseDistribution(model.n, w / float(np.sum(w)), model=model)


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


def _tilt(prob: np.ndarray, states: np.ndarray, phi: Sequence[float]) -> np.ndarray:
    """prob[i] * prod of phi[v] over the +1 sites v of states[i], site by
    site in increasing v; a field equal to 1 is skipped."""
    w = prob.copy()
    for v, field in enumerate(phi):
        if field != 1.0:
            w[(states >> v) & 1 == 1] *= field
    return w


def magnetize(dist: DenseDistribution, phi: Sequence[float]) -> DenseDistribution:
    """Reweight by prod_{v: sigma_v=+1} phi_v and renormalize.

    phi holds one finite, nonnegative field per site: 1 leaves a site
    alone, and 0 forbids +1 there.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (dist.n,):
        raise ValueError(f"phi must have {dist.n} entries, got shape {phi.shape}")
    if not np.all(np.isfinite(phi)) or np.any(phi < 0):
        raise ValueError("field values must be finite and nonnegative")
    w = _tilt(dist.prob, np.arange(1 << dist.n, dtype=np.int64), phi)
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


def entropy_functional(dist: DenseDistribution, f: FunctionLike) -> float:
    """Ent[f] = E[f log f] - E[f] log E[f] with 0 log 0 = 0; always >= 0."""
    return entropy_of_values(dist.prob, as_values(f, dist.n))


def _xlogx(vals: np.ndarray) -> np.ndarray:
    """x log x elementwise, with 0 log 0 = 0."""
    return np.where(vals > 0, vals * np.log(np.where(vals > 0, vals, 1.0)), 0.0)


def entropy_of_values(p: np.ndarray, vals: np.ndarray) -> float:
    """Ent of vals under the probabilities p, both over the same states:
    a law held on part of its configurations (a lift's feasible states,
    a level of a down-up walk) needs no table over all of them."""
    p = np.asarray(p, dtype=np.float64)
    vals = np.asarray(vals, dtype=np.float64)
    if np.any(vals < 0):
        raise ValueError("f must be nonnegative")
    mean_flogf = float(np.sum(p * _xlogx(vals)))
    mean_f = float(np.sum(p * vals))
    if mean_f <= 0:
        return 0.0
    return max(0.0, mean_flogf - mean_f * math.log(mean_f))


def _kl(nu: np.ndarray, mu: np.ndarray) -> float:
    """KL(nu || mu) of two probability vectors over the same states."""
    on = nu > 0
    if np.any(mu[on] <= 0):
        raise ValueError("KL divergence needs support(nu) within support(mu)")
    return max(0.0, float(np.sum(nu[on] * (np.log(nu[on]) - np.log(mu[on])))))


def total_variation(a: DenseDistribution, b: DenseDistribution) -> float:
    if a.n != b.n:
        raise ValueError("distributions must live on the same sites")
    return 0.5 * float(np.sum(np.abs(a.prob - b.prob)))


def _site_pairs(
    dist: DenseDistribution, v: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Site v's view of dist, the one place a site's pairs are formed:
    for every boundary b (the other sites, packed in increasing order)
    the full indices minus of (b, spin -1 at v) and plus of (b, spin +1
    at v), and the table's entries p_minus and p_plus there."""
    if not 0 <= v < dist.n:
        raise ValueError(f"site {v} out of range")
    # axis 1 of the (bits above v, spin at v, bits below v) view is the
    # spin at v; taking it first leaves the boundaries in packed order
    pairs = (-1, 2, 1 << v)
    minus, plus = np.arange(dist.prob.size).reshape(pairs).transpose(1, 0, 2).reshape(2, -1)
    p_minus, p_plus = dist.prob.reshape(pairs).transpose(1, 0, 2).reshape(2, -1)
    return minus, plus, p_minus, p_plus


def site_conditional_plus(dist: DenseDistribution, v: int) -> Tuple[np.ndarray, np.ndarray]:
    """(boundary mass, conditional P[sigma_v=+1 | boundary]) per boundary.

    Boundary b packs the other sites in increasing order; the conditional
    entry is NaN on zero-mass boundaries.
    """
    _, _, p_minus, p_plus = _site_pairs(dist, v)
    mass = p_minus + p_plus
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.where(mass > 0, p_plus / np.where(mass > 0, mass, 1.0), np.nan)
    return mass, cond


@dataclass(frozen=True)
class BoundarySplit:
    """A table's two-point conditionals at site v, one per boundary b.

    None of it depends on a function f, so one split serves every f:
    `mass` and `p_plus` cover all 2^(n-1) boundaries, the rest only the
    boundaries `both` where the conditional is two-point.
    """

    mass: np.ndarray
    p_plus: np.ndarray   # table entry at (b, spin +1)
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
    minus, plus, p_minus, p_plus = _site_pairs(dist, v)
    mass = p_minus + p_plus
    both = (p_minus > 0) & (p_plus > 0)
    m2 = mass[both]
    return BoundarySplit(mass, p_plus, both, minus[both], plus[both],
                         (p_minus[both] * p_plus[both]) / (m2 * m2))
