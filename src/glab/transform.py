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
range.  The lift is held on its (k+1)^n feasible configurations only;
the other 2^(nk) - (k+1)^n have probability 0, and nothing here builds a
table over all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .capacity import check_site_count
from .exact import (
    DenseDistribution,
    FunctionLike,
    Pinning,
    _tilt,
    as_values,
    condition,
    entropy_functional,
    entropy_of_values,
    magnetize,
    popcount_table,
)
from .spectral import _influence, _site_moments, signed_influence_matrix


@dataclass(frozen=True)
class TransformedDistribution:
    """k-copy lift of a base distribution, on its feasible configurations.

    states lists the (k+1)^n lifted configurations with at most one +1
    copy per bucket, as bit indices in increasing order; prob[i] is the
    probability of states[i] (0 where its base configuration has none)
    and base_index[i] the base configuration it projects to.  Every other
    lifted configuration has probability 0, so every lifted test function
    and pushforward reads these states only.
    """

    base: DenseDistribution
    k: int
    states: np.ndarray
    prob: np.ndarray
    base_index: np.ndarray


def digit_outer_sum(per_digit: np.ndarray) -> np.ndarray:
    """sum_v per_digit[..., v, d_v] for every digit vector d.

    per_digit has shape (..., n, k+1).  The result has shape
    (..., (k+1)^n) and lists the digit vectors with bucket v at place
    (k+1)^v, which is the order of the feasible lifts (see feasible_lift).
    """
    per_digit = np.asarray(per_digit)
    acc = per_digit[..., 0, :]
    for v in range(1, per_digit.shape[-2]):
        acc = (per_digit[..., v, :, None] + acc[..., None, :]).reshape(acc.shape[:-1] + (-1,))
    return acc


def feasible_lift(dist: DenseDistribution, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """(base_index, weights) of the (k+1)^n feasible lifts.

    The feasible lifts have at most one +1 copy per bucket; every other
    lifted configuration has weight 0.  In increasing lifted index, the
    digit of bucket v sits at place (k+1)^v: 0 for no +1 copy, c for
    copy c-1 (bit v*k + c-1).  A base configuration with j plus spins
    has k^j lifts, each of weight p * k^-j.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    base_index = digit_outer_sum([np.concatenate(([0], np.full(k, 1 << v))) for v in range(dist.n)])
    plus = popcount_table(dist.n)[base_index]
    return base_index, dist.prob[base_index] * np.exp(-plus * math.log(k))


def k_transform(dist: DenseDistribution, k: int) -> TransformedDistribution:
    """Lift a base distribution to its k-copy version.

    The lift spans dist.n * k sites, which must be within the exact
    limit; the check comes before anything is allocated.  The weights are
    normalized by their correctly rounded total (math.fsum), which does
    not depend on how a pairwise sum groups them.
    """
    check_site_count(dist.n * k, "k-copy lift")
    base_index, weights = feasible_lift(dist, k)
    # digit c of bucket v is the lifted bit v*k + c-1, digit 0 no bit
    states = digit_outer_sum([np.concatenate(([0], 1 << np.arange(v * k, v * k + k)))
                              for v in range(dist.n)])
    return TransformedDistribution(base=dist, k=k, states=states,
                                   prob=weights / math.fsum(weights), base_index=base_index)


def _project(tdist: TransformedDistribution, prob: np.ndarray) -> DenseDistribution:
    """Pushforward of a law on the feasible states along the star projection."""
    n = tdist.base.n
    return DenseDistribution(n, np.bincount(tdist.base_index, weights=prob, minlength=1 << n))


def star_pushforward(tdist: TransformedDistribution) -> DenseDistribution:
    """Pushforward of the lifted distribution along the star projection."""
    return _project(tdist, tdist.prob)


def lift_function(tdist: TransformedDistribution, f: FunctionLike) -> np.ndarray:
    """A base test function composed with the star projection.

    The values are those on tdist.states, entry for entry; the lifted
    function on any other configuration never meets lifted mass.
    """
    return as_values(f, tdist.base.n)[tdist.base_index]


def lifted_entropy_identity(tdist: TransformedDistribution, f: FunctionLike) -> Tuple[float, float]:
    """(base entropy of f, lifted entropy of the lifted f); these agree."""
    base_ent = entropy_functional(tdist.base, f)
    return base_ent, entropy_of_values(tdist.prob, lift_function(tdist, f))


def pinning_pushforward_pair(
    tdist: TransformedDistribution, pin: Pinning
) -> Tuple[DenseDistribution, DenseDistribution]:
    """Star pushforward of a pinned lift vs magnetized/conditioned base.

    pin fixes spins on a subset of the nk copy sites and must be feasible
    for the lifted distribution.  The pushforward of the conditioned lift
    equals the base distribution magnetized by phi(v) = (free copies in
    bucket v)/k on buckets without a pinned +1 and conditioned to +1 on
    buckets with one.  On the feasible states, pinning copy v*k + c to
    +1 keeps the states whose bucket-v digit is c+1, and to -1 those
    whose digit is not.
    """
    dist, k = tdist.base, tdist.k
    if pin.sites and not all(0 <= s < dist.n * k for s in pin.sites):
        raise ValueError("pinned sites out of range")
    agree = (tdist.states & pin.mask) == pin.bits
    mass = float(np.sum(tdist.prob[agree]))
    if mass <= 0:
        raise ValueError(f"pinning {pin} has zero probability")
    lhs = _project(tdist, np.where(agree, tdist.prob, 0.0) / mass)

    pinned_plus = set()
    pinned_by_bucket = [0] * dist.n
    for site, spin in zip(pin.sites, pin.spins):
        v = site // k
        pinned_by_bucket[v] += 1
        if spin == 1:
            pinned_plus.add(v)
    rhs = magnetize(dist, [1.0 if v in pinned_plus else (k - pinned_by_bucket[v]) / k
                           for v in range(dist.n)])
    if pinned_plus:
        rhs = condition(rhs, Pinning.all_plus(sorted(pinned_plus)))
    return lhs, rhs


def bucket_field_average(phi: np.ndarray) -> np.ndarray:
    """Per-bucket mean field, accumulated with compensated summation."""
    if phi.ndim != 2:
        raise ValueError("phi must be an (n, k) array")
    k = phi.shape[1]
    return np.asarray([math.fsum(row) / k for row in phi])


def _lifted_influence(tdist: TransformedDistribution, phi: np.ndarray) -> np.ndarray:
    """Signed influence matrix of the lift magnetized by the copy fields phi.

    The feasible states are weighted by the fields of their +1 copies,
    as magnetize weights a table, and normalized; the matrix comes from
    their untilted moments.
    """
    nk = tdist.base.n * tdist.k
    w = _tilt(tdist.prob, tdist.states, phi.reshape(-1))
    law = (nk, tdist.states, w / float(np.sum(w)))
    return _influence(next(_site_moments(law, np.zeros((1, nk)))))[0]


def _violation_gaps(
    inf_k: np.ndarray, inf_base: np.ndarray, phi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cross, self, rowsum) excess of the lifted influence over its bounds.

    With S_v the sum of bucket v's copy fields, cross[u, i, v, j] (u != v)
    is |Inf_k((u,i),(v,j))| - phi[v, j] / S_v * |Inf(u, v)|, self[u, i, j]
    (i != j) is |Inf_k((u,i),(u,j))| - phi[u, j] / (S_u - phi[u, i]), and
    rowsum[u, i] is the row sum of |Inf_k| at (u, i) less the base row sum
    of u plus 1.  Entries that have no bound are -inf.
    """
    n, k = phi.shape
    diag = np.arange(n)
    got = np.abs(inf_k).reshape(n, k, n, k)
    sums = phi.sum(axis=1)
    cross = got - (phi / sums[:, None])[None, None] * np.abs(inf_base)[:, None, :, None]
    cross[diag, :, diag, :] = -math.inf
    with np.errstate(divide="ignore"):  # i == j at k = 1, overwritten below
        self_gap = got[diag, :, diag, :] - phi[:, None, :] / (sums[:, None, None] - phi[:, :, None])
    self_gap[:, np.arange(k), np.arange(k)] = -math.inf
    rowsum = (np.sum(np.abs(inf_k), axis=1).reshape(n, k)
              - (np.sum(np.abs(inf_base), axis=1) + 1.0)[:, None])
    return cross, self_gap, rowsum


def _worst(gaps: np.ndarray) -> Tuple[Optional[float], Optional[tuple]]:
    """(largest gap, its index), the first in C order among ties;
    (None, None) when no entry has a bound."""
    at = int(np.argmax(gaps))
    top = float(gaps.flat[at])
    if top == -math.inf:
        return None, None
    return top, tuple(int(x) for x in np.unravel_index(at, gaps.shape))


def ktrans_influence_check(tdist: TransformedDistribution, phi: np.ndarray) -> dict:
    """Compare influence matrices of the magnetized lift and base.

    For fields phi on the copies, the influence matrix of the magnetized
    lift is dominated entrywise by the base influence of the bucket-mean
    magnetization, weighted by the field share of the target copy, and
    its row sums exceed the base row sums by at most 1.  Returns the
    largest excess of each family (see _violation_gaps) and the index
    where it occurs, both None for a family with no bounded entry (the
    cross family of one site), and "pass" when no excess exceeds 1e-9.
    """
    dist, k = tdist.base, tdist.k
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (dist.n, k):
        raise ValueError(f"phi must have shape ({dist.n},{k})")
    if np.any(phi <= 0) or not np.all(np.isfinite(phi)):
        raise ValueError("copy fields must be positive and finite")
    n = dist.n
    inf_k = _lifted_influence(tdist, phi)

    phibar = bucket_field_average(phi)
    pi = magnetize(dist, phibar)
    inf_base = signed_influence_matrix(pi)

    cross, self_gap, rowsum = _violation_gaps(inf_k, inf_base, phi)
    max_cross, cross_wit = _worst(cross)
    max_self, self_wit = _worst(self_gap)
    max_rowsum, rowsum_wit = _worst(rowsum)

    return {
        "base_n": n,
        "k": k,
        "max_cross_violation": max_cross,
        "max_self_violation": max_self,
        "max_rowsum_violation": max_rowsum,
        "cross_witness": cross_wit,
        "self_witness": self_wit,
        "rowsum_witness": rowsum_wit,
        "pass": all(gap is None or gap <= 1e-9 for gap in (max_cross, max_self, max_rowsum)),
    }
