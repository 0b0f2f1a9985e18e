"""Influence, correlation, and Dobrushin matrices, and their spectra.

Three site-by-site interaction matrices of a distribution mu on {-1,+1}^V:

  signed influence  Inf(u,v) = mu_v^{u<-+1}(+1) - mu_v^{u<--1}(+1)
  correlation       Cor(i,i) = 1 - P[i in S], Cor(i,j) = P[j in S | i in S] - P[j in S]
                    (configurations viewed as the sets of +1 sites)
  Dobrushin         A(u,v)   = worst TV distance between the conditionals at v
                    over boundary pairs differing only at u

together with a sampled-field estimator for the supremum of the
influence inf-norm over all external fields, and the homogenization
construction that turns mu into a distribution over n-element subsets of
a 2n-element ground set with a rigidly related correlation spectrum.

Every matrix is read off the site and pair moments of a law held on its
support states (SupportLaw).  The homogenization is one such law: its
2^n faces, never a table over the 2n ground elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .capacity import MAX_FIELD_VECTORS, CapacityError
from .exact import DenseDistribution, site_conditional_plus

# Byte bound on one chunk of the moment kernel: a chunk of states holds at
# most its (states, 2n(n+1)) pair columns, a chunk of field rows its
# (rows, states) exponents, tilts and weights and its (rows, 2n(n+1))
# moments, about two budgets in all.  At n = 8 a chunk takes the whole
# support (256 states) and 496 field rows.  The 16-site 2-copy lift of an
# 8-site model comes as its 6,561 feasible states (transform.k_transform),
# never as a 2^16 table, and its one field row reads them 963 at a time.
_SWEEP_CHUNK_BYTES = 1 << 22

# A law on n sites given by the states that may carry its mass, as
# (n, states as bit indices, their probabilities); states outside have 0.
SupportLaw = Tuple[int, np.ndarray, np.ndarray]


def _support_law(dist: DenseDistribution) -> SupportLaw:
    """dist as (n, support states in increasing order, their probabilities)."""
    states = dist.support_indices
    return dist.n, states, dist.prob[states]


def _site_moments(law: SupportLaw, log_fields: np.ndarray) -> Iterator[np.ndarray]:
    """Site and pair moments of a law tilted by each row of log_fields.

    law is (n, states, probabilities); states may include some of
    probability 0, and the moments read no other state.  Row f tilts the
    law by exp(sum of log_fields[f, v] over the plus sites v) and
    normalizes.  Yields one (rows, 2, n, n+1) array per chunk of
    field rows, in order: entry [f, a, u, v] is P_f[sigma_u = a,
    sigma_v = +1] for v < n and P_f[sigma_u = a] at v = n (a = 0 for +1,
    1 for -1).  Both signs of u are summed directly, so a conditional
    given a rare spin keeps its relative precision.  Each chunk
    contracts its weights with the indicators of sigma_u = a and of
    sigma_v = +1: per field row when the chunk has at most n rows (the
    untilted tables), else as one GEMM against the pair columns, the
    flattened products of the two.
    """
    n, states, p = law
    width = 2 * n * (n + 1)
    span = min(states.size, max(1, _SWEEP_CHUNK_BYTES // (8 * width)))
    rows = max(1, _SWEEP_CHUNK_BYTES // (8 * (3 * span + 2 * width)))
    # the largest exponent over all configurations, so no tilt exceeds 1
    shift = np.sum(np.maximum(log_fields, 0.0), axis=1)[:, None]
    for lo in range(0, log_fields.shape[0], rows):
        logs, top = log_fields[lo:lo + rows], shift[lo:lo + rows]
        acc = np.zeros((logs.shape[0], width))
        total = np.zeros(logs.shape[0])
        for s in range(0, states.size, span):
            plus = ((states[s:s + span, None] >> np.arange(n)) & 1).astype(np.float64)
            side = np.concatenate([plus, 1.0 - plus], axis=1)                   # sigma_u = a
            right = np.concatenate([plus, np.ones((plus.shape[0], 1))], axis=1)  # sigma_v = +1, or 1
            w = p[s:s + span] * np.exp(logs @ plus.T - top)
            # Both orders do the same GEMM flops; the elementwise products
            # are rows * 2n per state one way and 2n(n+1) the other.
            if w.shape[0] <= n:
                acc += np.matmul(w[:, None, :] * side.T, right).reshape(w.shape[0], width)
            else:
                acc += w @ (side[:, :, None] * right[:, None, :]).reshape(plus.shape[0], width)
            total += np.sum(w, axis=1)
        yield (acc / total[:, None]).reshape(-1, 2, n, n + 1)


def _moments(dist: DenseDistribution) -> np.ndarray:
    """The (2, n, n+1) moments of dist itself (no tilt)."""
    return next(_site_moments(_support_law(dist), np.zeros((1, dist.n))))[0]


def _influence(moments: np.ndarray) -> np.ndarray:
    """Signed influence matrices, one per row of _site_moments output."""
    n = moments.shape[2]
    joint, side = moments[..., :n], moments[..., n:]
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = joint / side                 # P[sigma_v = +1 | sigma_u = a]
    out = cond[:, 0] - cond[:, 1]
    out[~np.all(side[..., 0] > 0, axis=1)] = 0.0
    out[:, np.arange(n), np.arange(n)] = 0.0
    return out


def signed_influence_matrix(dist: DenseDistribution) -> np.ndarray:
    """Signed pairwise influence; rows are the influencing site.

    Entry (u,v) is the shift in the marginal of v when u is conditioned
    from -1 to +1.  Rows of sites with degenerate marginals are zero, as
    is the diagonal.
    """
    return _influence(_moments(dist)[None])[0]


def _correlation(moments: np.ndarray) -> np.ndarray:
    """Correlation matrix of the +1 sets from one (2, n, n+1) moments array."""
    n = moments.shape[1]
    q = moments[0, :, n]                    # P[sigma_i = +1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = moments[0, :, :n] / q[:, None] - q
    out[q <= 0.0] = 0.0
    out[np.arange(n), np.arange(n)] = moments[1, :, n]
    return out


def correlation_matrix(dist: DenseDistribution) -> np.ndarray:
    """Correlation matrix of the +1 sets of the distribution."""
    return _correlation(_moments(dist))


def dobrushin_matrix(dist: DenseDistribution) -> np.ndarray:
    """Worst-case boundary influence matrix; zero diagonal.

    Requires every boundary to have positive mass, so that all the
    conditionals it compares exist.
    """
    n = dist.n
    out = np.zeros((n, n))
    for v in range(n):
        mass, cond = site_conditional_plus(dist, v)
        if np.any(mass <= 0):
            raise ValueError(
                f"boundary of site {v} has zero-mass configurations; "
                "Dobrushin conditionals are undefined"
            )
        # boundary bit i is the i-th other site, axis n-2-i of the cube
        cube = cond.reshape((2,) * (n - 1))
        for i, u in enumerate(w for w in range(n) if w != v):
            out[u, v] = np.max(np.abs(np.diff(cube, axis=n - 2 - i)))
    return out


def matrix_report(matrix: np.ndarray, label: str) -> dict:
    """Norm and eigenvalue summary of a real square matrix: its inf- and
    one-norms, their geometric mean (an upper bound on the two-norm) and
    its eigenvalues.

    Eigenvalues with |imag| > 1e-8 * (1 + |real|) are excluded from
    max_real_eig and real_eigs (largest first) and reported as
    [real, imag] pairs in complex_eigs.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    inf_norm = float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0
    one_norm = float(np.max(np.sum(np.abs(m), axis=0))) if m.size else 0.0
    eigs = np.linalg.eigvals(m) if m.size else np.array([])
    real_mask = np.abs(eigs.imag) <= 1e-8 * (1.0 + np.abs(eigs.real))
    real_eigs = sorted((float(x) for x in eigs.real[real_mask]), reverse=True)
    return {
        "label": label,
        "inf_norm": inf_norm,
        "one_norm": one_norm,
        "two_norm_upper": math.sqrt(inf_norm * one_norm),
        "max_real_eig": real_eigs[0] if real_eigs else None,
        "real_eigs": real_eigs,
        "complex_eigs": [[float(z.real), float(z.imag)] for z in eigs[~real_mask]],
    }


# The range of every sampled field value.
FIELD_LO = 1e-3
FIELD_HI = 1e3


@dataclass(frozen=True)
class FieldSamplerConfig:
    """Field vectors tried by si_sup_estimate.

    A full product grid of grid_points log-spaced values per site between
    FIELD_LO and FIELD_HI, plus random_draws log-uniform vectors.
    """

    grid_points: int = 7
    random_draws: int = 0
    seed: int = 0

    def grid_values(self) -> np.ndarray:
        return np.geomspace(FIELD_LO, FIELD_HI, self.grid_points)


def _sampled_fields(config: FieldSamplerConfig, n: int) -> np.ndarray:
    """The (F, n) field vectors: the product grid in itertools.product
    order, then the seeded log-uniform draws."""
    from .rng import derive_generator

    grid = config.grid_values()
    fields = grid[np.indices((grid.size,) * n).reshape(n, -1).T]
    if config.random_draws:
        gen = derive_generator(config.seed, "si-field-sampler")
        lo, hi = math.log(FIELD_LO), math.log(FIELD_HI)
        draws = np.exp(gen.uniform(lo, hi, size=(config.random_draws, n)))
        fields = np.concatenate([fields, draws])
    return fields


def si_sup_estimate(
    dist: DenseDistribution, config: FieldSamplerConfig = FieldSamplerConfig()
) -> dict:
    """Maximize the influence inf-norm over sampled field vectors.

    Every field's influence matrix comes from one batch of tilted support
    weights (_site_moments); the maximizer is the first field reaching
    the maximum, in sampling order.  The value is a LOWER bound on the
    supremum over all fields: only the sampled fields were evaluated.
    """
    n = dist.n
    total = config.grid_points ** n + config.random_draws
    if total > MAX_FIELD_VECTORS:
        raise CapacityError(
            f"field sampler would evaluate {total} vectors, "
            f"above the cap {MAX_FIELD_VECTORS}"
        )
    fields = _sampled_fields(config, n)
    values = np.concatenate([np.max(np.sum(np.abs(_influence(m)), axis=2), axis=1)
                             for m in _site_moments(_support_law(dist), np.log(fields))])
    best = int(np.argmax(values))
    return {
        "value": float(values[best]),
        "norm": "inf_norm",
        "maximizing_field": [float(x) for x in fields[best]],
        "fields_evaluated": int(values.size),
        "note": "lower bound on the all-fields supremum (sampled fields only)",
    }


def homogenize(dist: DenseDistribution) -> SupportLaw:
    """Pair each site with a mirror element so all faces have size n.

    Returns the law (2n, faces, probabilities) on the faces
    (homogenized_faces) of the support of dist, in increasing mask order;
    no table over the 2n sites is built.
    """
    # the mirror half holds the complement of sigma, so masks increase
    # as sigma's index decreases
    states = dist.support_indices[::-1]
    return 2 * dist.n, homogenized_faces(dist.n, states), dist.prob[states]


def homogenized_faces(n: int, states: np.ndarray) -> np.ndarray:
    """Face of each configuration index in a 2n-element ground set: its
    +1 sites i among the first n elements, and the mirror elements n+i of
    its -1 sites."""
    return states | ((~states & ((1 << n) - 1)) << n)


def _min_sum_assignment(cost: np.ndarray) -> List[int]:
    """Column of each row in an assignment of least total cost: the
    Hungarian method with row and column potentials, O(N^3) for an N x N
    cost.  Refuses a cost that is not square or not finite."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"need a square cost matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix has NaN or infinite entries")
    size = cost.shape[0]
    rows = cost.tolist()
    # 1-based: column 0 is a virtual column that holds the row being
    # placed; owner[j] is the row on column j (0 while it is free)
    u = [0.0] * (size + 1)
    v = [0.0] * (size + 1)
    owner = [0] * (size + 1)
    prev = [0] * (size + 1)
    for i in range(1, size + 1):
        owner[0] = i
        j0 = 0
        slack = [math.inf] * (size + 1)
        used = [False] * (size + 1)
        # grow a tree of tight edges from row i until it reaches a free column
        while owner[j0]:
            used[j0] = True
            i0 = owner[j0]
            row, ui = rows[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, size + 1):
                if not used[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < slack[j]:
                        slack[j], prev[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(size + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        # augment along the tree back to the virtual column
        while j0:
            j1 = prev[j0]
            owner[j0] = owner[j1]
            j0 = j1
    out = [0] * size
    for j in range(1, size + 1):
        out[owner[j] - 1] = j - 1
    return out


def match_spectra(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Largest gap |a_i - b_j| in a pairing of two same-size eigenvalue
    multisets that minimizes the summed gaps.  This is not the bottleneck
    distance, which minimizes the largest gap itself."""
    av = np.asarray(a, dtype=np.complex128)
    bv = np.asarray(b, dtype=np.complex128)
    if av.size != bv.size:
        raise ValueError("spectra must have equal sizes")
    if av.size == 0:
        return 0.0
    cost = np.abs(av[:, None] - bv[None, :])
    cols = _min_sum_assignment(cost)
    return float(np.max(cost[np.arange(av.size), cols]))


# largest matching distance homog_spectrum_check passes
_SPECTRUM_TOL = 1e-7


def homog_spectrum_check(dist: DenseDistribution) -> dict:
    """Correlation spectrum of the homogenization vs influence spectrum.

    The correlation matrix of the homogenized distribution must have the
    eigenvalues of the influence matrix shifted by +1, padded with n zeros.
    Reports the matching distance; never raises on mismatch.
    """
    n = dist.n
    inf_m = signed_influence_matrix(dist)
    cor = _correlation(next(_site_moments(homogenize(dist), np.zeros((1, 2 * n))))[0])
    cor_eigs = np.linalg.eigvals(cor)
    inf_eigs = np.linalg.eigvals(inf_m)
    expected = np.concatenate([inf_eigs + 1.0, np.zeros(n, dtype=np.complex128)])
    distance = match_spectra(cor_eigs, expected)
    return {
        "matching_distance": distance,
        "tolerance": _SPECTRUM_TOL,
        "pass": bool(distance <= _SPECTRUM_TOL),
        "correlation_spectrum": [[z.real, z.imag] for z in np.sort_complex(cor_eigs)],
        "expected_spectrum": [[z.real, z.imag] for z in np.sort_complex(expected)],
    }
