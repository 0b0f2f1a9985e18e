"""The k-copy transform of a distribution on {-1,+1}^V.

Each site v is replaced by a bucket of k copies.  A configuration is
lifted by sending -1 at v to all copies -1 and +1 at v to a uniformly
random single +1 copy, so the lifted distribution lives on configurations
with at most one +1 per bucket and splits the weight of a base
configuration with j plus spins equally over k^j lifts.

The star projection maps any lifted configuration back by declaring v
to be +1 exactly when some copy in its bucket is +1; pushing the lifted
distribution forward along it recovers the base distribution, and
composing a test function with it preserves its entropy functional.

Copy (v, i) sits at bit v*k + i, so bucket v occupies a contiguous bit
range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .capacity import check_site_count
from .exact import (
    DenseDistribution,
    FieldAssignment,
    FunctionLike,
    Pinning,
    as_values,
    condition,
    entropy_functional,
    magnetize,
    popcount_table,
)
from .spectral import signed_influence_matrix


def copy_site(v: int, i: int, k: int) -> int:
    """Bit position of copy i of base site v."""
    return v * k + i


@dataclass(frozen=True)
class TransformedDistribution:
    """k-copy lift of a base distribution."""

    base_n: int
    k: int
    dist: DenseDistribution

    @property
    def site_count(self) -> int:
        return self.base_n * self.k


def star_projection_table(base_n: int, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feasible, base_index, plus_total) over all lifted configurations.

    feasible marks configurations with at most one +1 per bucket;
    base_index applies the star projection (bucket has any +1 -> +1);
    plus_total counts +1 copies overall.
    """
    nk = base_n * k
    check_site_count(nk, "k-copy table")
    idx = np.arange(1 << nk, dtype=np.int64)
    bucket_mask = (1 << k) - 1
    pop_k = popcount_table(k)
    feasible = np.ones(idx.shape, dtype=bool)
    base_index = np.zeros(idx.shape, dtype=np.int64)
    plus_total = np.zeros(idx.shape, dtype=np.int64)
    for v in range(base_n):
        cnt = pop_k[(idx >> (v * k)) & bucket_mask]
        feasible &= cnt <= 1
        base_index |= (cnt >= 1).astype(np.int64) << v
        plus_total += cnt
    return feasible, base_index, plus_total


def k_transform(dist: DenseDistribution, k: int) -> TransformedDistribution:
    """Lift a base distribution to its k-copy version."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    feasible, base_index, plus_total = star_projection_table(dist.n, k)
    w = np.where(feasible, dist.prob[base_index] * np.exp(-plus_total * math.log(k)), 0.0)
    lifted = DenseDistribution(dist.n * k, w)
    return TransformedDistribution(base_n=dist.n, k=k, dist=lifted)


def star_pushforward(tdist: TransformedDistribution) -> DenseDistribution:
    """Pushforward of the lifted distribution along the star projection."""
    _, base_index, _ = star_projection_table(tdist.base_n, tdist.k)
    p = np.bincount(base_index, weights=tdist.dist.prob, minlength=1 << tdist.base_n)
    return DenseDistribution(tdist.base_n, p)


def lift_function(f: FunctionLike, base_n: int, k: int) -> np.ndarray:
    """Compose a base test function with the star projection."""
    vals = as_values(f, base_n)
    _, base_index, _ = star_projection_table(base_n, k)
    return vals[base_index]


def lifted_entropy_identity(dist: DenseDistribution, k: int, f: FunctionLike) -> Tuple[float, float]:
    """(base entropy of f, lifted entropy of the lifted f); these agree."""
    base_ent = entropy_functional(dist, f)
    tdist = k_transform(dist, k)
    lifted_ent = entropy_functional(tdist.dist, lift_function(f, dist.n, k))
    return base_ent, lifted_ent


def pinning_pushforward_pair(
    dist: DenseDistribution, k: int, pin: Pinning
) -> Tuple[DenseDistribution, DenseDistribution]:
    """Star pushforward of a pinned lift vs magnetized/conditioned base.

    pin fixes spins on a subset of the nk copy sites and must be feasible
    for the lifted distribution.  The pushforward of the conditioned lift
    equals the base distribution magnetized by phi(v) = (free copies in
    bucket v)/k on buckets without a pinned +1 and conditioned to +1 on
    buckets with one.
    """
    tdist = k_transform(dist, k)
    conditioned = condition(tdist.dist, pin)
    _, base_index, _ = star_projection_table(dist.n, k)
    lhs = DenseDistribution(
        dist.n, np.bincount(base_index, weights=conditioned.prob, minlength=1 << dist.n)
    )

    pinned_plus = set()
    pinned_by_bucket = {v: 0 for v in range(dist.n)}
    for site, spin in zip(pin.sites, pin.spins):
        v = site // k
        pinned_by_bucket[v] += 1
        if spin == 1:
            pinned_plus.add(v)
    free_sites = []
    free_values = []
    for v in range(dist.n):
        if v in pinned_plus:
            continue
        free_sites.append(v)
        free_values.append((k - pinned_by_bucket[v]) / k)
    rhs = magnetize(dist, FieldAssignment(tuple(free_sites), tuple(free_values)))
    if pinned_plus:
        rhs = condition(rhs, Pinning.all_plus(sorted(pinned_plus)))
    return lhs, rhs


def bucket_field_average(phi: np.ndarray) -> np.ndarray:
    """Per-bucket mean field, accumulated with compensated summation."""
    if phi.ndim != 2:
        raise ValueError("phi must be an (n, k) array")
    k = phi.shape[1]
    return np.asarray([math.fsum(row) / k for row in phi])


@dataclass(frozen=True)
class InfluenceComparisonReport:
    """Entrywise and row-sum comparison of lifted vs base influence.

    For fields phi on the copies, the influence matrix of the magnetized
    lift is dominated entrywise by the base influence of the bucket-mean
    magnetization, weighted by the field share of the target copy, and
    its row sums exceed the base row sums by at most 1.
    """

    base_n: int
    k: int
    max_cross_violation: float
    max_self_violation: float
    max_rowsum_violation: float
    cross_witness: Optional[Tuple[int, int, int, int]]
    self_witness: Optional[Tuple[int, int, int]]
    rowsum_witness: Optional[Tuple[int, int]]
    passed: bool

    def to_json(self) -> dict:
        return {
            "base_n": self.base_n,
            "k": self.k,
            "max_cross_violation": self.max_cross_violation,
            "max_self_violation": self.max_self_violation,
            "max_rowsum_violation": self.max_rowsum_violation,
            "cross_witness": list(self.cross_witness) if self.cross_witness else None,
            "self_witness": list(self.self_witness) if self.self_witness else None,
            "rowsum_witness": list(self.rowsum_witness) if self.rowsum_witness else None,
            "pass": self.passed,
        }


def ktrans_influence_check(
    dist: DenseDistribution, k: int, phi: np.ndarray, slack: float = 1e-9
) -> InfluenceComparisonReport:
    """Compare influence matrices of the magnetized lift and base."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (dist.n, k):
        raise ValueError(f"phi must have shape ({dist.n},{k})")
    if np.any(phi <= 0) or not np.all(np.isfinite(phi)):
        raise ValueError("copy fields must be positive and finite")
    n = dist.n
    tdist = k_transform(dist, k)
    lifted_fields = FieldAssignment.full(phi.reshape(-1))
    pik = magnetize(tdist.dist, lifted_fields)
    inf_k = signed_influence_matrix(pik)

    phibar = bucket_field_average(phi)
    pi = magnetize(dist, FieldAssignment.full(phibar))
    inf_base = signed_influence_matrix(pi)

    bucket_sums = phi.sum(axis=1)
    max_cross = -math.inf
    max_self = -math.inf
    cross_wit = None
    self_wit = None
    for u in range(n):
        for i in range(k):
            row = u * k + i
            for v in range(n):
                for j in range(k):
                    col = v * k + j
                    if row == col:
                        continue
                    got = abs(inf_k[row, col])
                    if u == v:
                        bound = phi[u, j] / (bucket_sums[u] - phi[u, i])
                        gap = got - bound
                        if gap > max_self:
                            max_self, self_wit = gap, (u, i, j)
                    else:
                        bound = phi[v, j] / bucket_sums[v] * abs(inf_base[u, v])
                        gap = got - bound
                        if gap > max_cross:
                            max_cross, cross_wit = gap, (u, i, v, j)

    base_rowsums = np.sum(np.abs(inf_base), axis=1)
    lifted_rowsums = np.sum(np.abs(inf_k), axis=1)
    max_rowsum = -math.inf
    rowsum_wit = None
    for u in range(n):
        for i in range(k):
            gap = lifted_rowsums[u * k + i] - (base_rowsums[u] + 1.0)
            if gap > max_rowsum:
                max_rowsum, rowsum_wit = gap, (u, i)

    passed = max(max_cross, max_self, max_rowsum) <= slack
    return InfluenceComparisonReport(
        base_n=n,
        k=k,
        max_cross_violation=max_cross,
        max_self_violation=max_self,
        max_rowsum_violation=max_rowsum,
        cross_witness=cross_wit,
        self_witness=self_wit,
        rowsum_witness=rowsum_wit,
        passed=passed,
    )
