"""Influence, correlation, and Dobrushin matrices, and their spectra.

Three site-by-site interaction matrices of a distribution mu on {-1,+1}^V:

  signed influence  Inf(u,v) = mu_v^{u<-+1}(+1) - mu_v^{u<--1}(+1)
  correlation       Cor(i,i) = 1 - P[i in S], Cor(i,j) = P[j in S | i in S] - P[j in S]
                    (configurations viewed as the sets of +1 sites)
  Dobrushin         A(u,v)   = worst TV distance between the conditionals at v
                    over boundary pairs differing only at u

together with a sampled-field estimator for the supremum of an influence
norm over all external fields, and the homogenization construction that
turns mu into a distribution over n-element subsets of a 2n-element
ground set with a rigidly related correlation spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .capacity import CapacityError, check_site_count
from .exact import (
    DenseDistribution,
    FieldAssignment,
    insert_zero_bit,
    magnetize,
    site_conditional_plus,
)

REAL_EIG_IMAG_TOL = 1e-8


def _bit_matrix(n: int, size: int) -> np.ndarray:
    idx = np.arange(size, dtype=np.int64)
    return np.stack([((idx >> v) & 1).astype(np.float64) for v in range(n)])


def signed_influence_matrix(dist: DenseDistribution) -> np.ndarray:
    """Signed pairwise influence; rows are the influencing site.

    Entry (u,v) is the shift in the marginal of v when u is conditioned
    from -1 to +1.  Rows of sites with degenerate marginals are zero, as
    is the diagonal.
    """
    n = dist.n
    B = _bit_matrix(n, dist.prob.size)
    q = B @ dist.prob                       # P[sigma_v = +1]
    M11 = (B * dist.prob) @ B.T             # P[sigma_u = +1, sigma_v = +1]
    out = np.zeros((n, n))
    for u in range(n):
        if q[u] <= 0.0 or q[u] >= 1.0:
            continue
        row = M11[u] / q[u] - (q - M11[u]) / (1.0 - q[u])
        out[u] = row
        out[u, u] = 0.0
    return out


def correlation_matrix(dist: DenseDistribution) -> np.ndarray:
    """Correlation matrix of the +1 sets of the distribution."""
    n = dist.n
    B = _bit_matrix(n, dist.prob.size)
    q = B @ dist.prob
    M11 = (B * dist.prob) @ B.T
    out = np.zeros((n, n))
    for i in range(n):
        if q[i] > 0.0:
            out[i] = M11[i] / q[i] - q
        out[i, i] = 1.0 - q[i]
    return out


def dobrushin_matrix(dist: DenseDistribution) -> np.ndarray:
    """Worst-case boundary influence matrix; zero diagonal.

    Requires every boundary to have positive mass, so that all the
    conditionals it compares exist.
    """
    n = dist.n
    out = np.zeros((n, n))
    if n == 1:
        return out
    for v in range(n):
        mass, cond = site_conditional_plus(dist, v)
        if np.any(mass <= 0):
            raise ValueError(
                f"boundary of site {v} has zero-mass configurations; "
                "Dobrushin conditionals are undefined"
            )
        half = np.arange(1 << (n - 2), dtype=np.int64)
        for u in range(n):
            if u == v:
                continue
            upos = u if u < v else u - 1
            b_minus = insert_zero_bit(half, upos)
            b_plus = b_minus | (1 << upos)
            out[u, v] = float(np.max(np.abs(cond[b_plus] - cond[b_minus])))
    return out


@dataclass(frozen=True)
class MatrixReport:
    """Norms and spectrum summary of a real square matrix."""

    label: str
    inf_norm: float
    one_norm: float
    two_norm_upper: float
    max_real_eig: Optional[float]
    real_eigs: Tuple[float, ...]
    complex_eigs: Tuple[complex, ...]

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "inf_norm": self.inf_norm,
            "one_norm": self.one_norm,
            "two_norm_upper": self.two_norm_upper,
            "max_real_eig": self.max_real_eig,
            "real_eigs": list(self.real_eigs),
            "complex_eigs": [[z.real, z.imag] for z in self.complex_eigs],
        }


def matrix_report(matrix: np.ndarray, label: str = "") -> MatrixReport:
    """Norm and eigenvalue summary.

    Eigenvalues with |imag| > 1e-8 * (1 + |real|) are excluded from
    max_real_eig and reported separately.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    inf_norm = float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0
    one_norm = float(np.max(np.sum(np.abs(m), axis=0))) if m.size else 0.0
    eigs = np.linalg.eigvals(m) if m.size else np.array([])
    real_mask = np.abs(eigs.imag) <= REAL_EIG_IMAG_TOL * (1.0 + np.abs(eigs.real))
    real_eigs = tuple(sorted((float(x) for x in eigs.real[real_mask]), reverse=True))
    complex_eigs = tuple(complex(z) for z in eigs[~real_mask])
    return MatrixReport(
        label=label,
        inf_norm=inf_norm,
        one_norm=one_norm,
        two_norm_upper=math.sqrt(inf_norm * one_norm),
        max_real_eig=real_eigs[0] if real_eigs else None,
        real_eigs=real_eigs,
        complex_eigs=complex_eigs,
    )


@dataclass(frozen=True)
class FieldSamplerConfig:
    """Field vectors tried by si_sup_estimate.

    A full product grid of grid_points log-spaced values per site between
    grid_lo and grid_hi, plus random_draws log-uniform vectors.
    """

    grid_points: int = 7
    grid_lo: float = 1e-3
    grid_hi: float = 1e3
    random_draws: int = 0
    seed: int = 0
    max_evaluations: int = 100_000

    def grid_values(self) -> np.ndarray:
        return np.geomspace(self.grid_lo, self.grid_hi, self.grid_points)


@dataclass(frozen=True)
class SupEstimate:
    """Sampled-field maximum of an influence norm.

    This is a LOWER bound on the supremum over all fields: only the
    recorded field vectors were evaluated.
    """

    value: float
    norm: str
    maximizing_field: Tuple[float, ...]
    fields_evaluated: int
    note: str = "lower bound on the all-fields supremum (sampled fields only)"

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "norm": self.norm,
            "maximizing_field": list(self.maximizing_field),
            "fields_evaluated": self.fields_evaluated,
            "note": self.note,
        }


def si_sup_estimate(
    dist: DenseDistribution,
    config: FieldSamplerConfig = FieldSamplerConfig(),
    norm: str = "inf_norm",
) -> SupEstimate:
    """Maximize a norm of the influence matrix over sampled field vectors."""
    if norm not in ("inf_norm", "max_real_eig"):
        raise ValueError(f"unknown norm {norm!r}")
    n = dist.n
    total = config.grid_points ** n + config.random_draws
    if total > config.max_evaluations:
        raise CapacityError(
            f"field sampler would evaluate {total} vectors, "
            f"above the configured cap {config.max_evaluations}"
        )

    from .rng import derive_generator

    def evaluate(phi: np.ndarray) -> float:
        rho = magnetize(dist, FieldAssignment.full(phi))
        m = signed_influence_matrix(rho)
        if norm == "inf_norm":
            return float(np.max(np.sum(np.abs(m), axis=1)))
        rep = matrix_report(m)
        return rep.max_real_eig if rep.max_real_eig is not None else -math.inf

    import itertools

    best = -math.inf
    best_phi: Tuple[float, ...] = tuple(1.0 for _ in range(n))
    count = 0
    grid = config.grid_values()
    for combo in itertools.product(grid, repeat=n):
        phi = np.asarray(combo)
        val = evaluate(phi)
        count += 1
        if val > best:
            best, best_phi = val, tuple(float(x) for x in phi)
    if config.random_draws:
        gen = derive_generator(config.seed, "si-field-sampler")
        lo, hi = math.log(config.grid_lo), math.log(config.grid_hi)
        for _ in range(config.random_draws):
            phi = np.exp(gen.uniform(lo, hi, size=n))
            val = evaluate(phi)
            count += 1
            if val > best:
                best, best_phi = val, tuple(float(x) for x in phi)
    return SupEstimate(value=best, norm=norm, maximizing_field=best_phi, fields_evaluated=count)


@dataclass(frozen=True)
class HomogenizedDistribution:
    """Distribution over n-element subsets of a 2n-element ground set.

    Configuration sigma maps to the set of its +1 sites among the first n
    elements, together with the mirror images (index n+i) of its -1 sites.
    The dense table lives on 2n bit-packed coordinates.
    """

    base_n: int
    dense: DenseDistribution

    @property
    def ground_size(self) -> int:
        return 2 * self.base_n

    def face_masks(self) -> np.ndarray:
        """Bit masks of the support faces, aligned with face_probs."""
        return self.dense.support_indices

    def face_probs(self) -> np.ndarray:
        return self.dense.prob[self.dense.support_indices]


def homogenize(dist: DenseDistribution) -> HomogenizedDistribution:
    """Pair each site with a mirror element so all faces have size n."""
    n = dist.n
    check_site_count(2 * n, "homogenization")
    full = (1 << n) - 1
    idx = np.arange(1 << n, dtype=np.int64)
    hom_idx = idx | ((~idx & full) << n)
    p = np.zeros(1 << (2 * n))
    p[hom_idx] = dist.prob
    return HomogenizedDistribution(base_n=n, dense=DenseDistribution(2 * n, p))


def match_spectra(a: Sequence[complex], b: Sequence[complex]) -> float:
    """Max pairing distance between two same-size eigenvalue multisets."""
    av = np.asarray(a, dtype=np.complex128)
    bv = np.asarray(b, dtype=np.complex128)
    if av.size != bv.size:
        raise ValueError("spectra must have equal sizes")
    if av.size == 0:
        return 0.0
    cost = np.abs(av[:, None] - bv[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


def homog_spectrum_check(dist: DenseDistribution, tol: float = 1e-7) -> dict:
    """Correlation spectrum of the homogenization vs influence spectrum.

    The correlation matrix of the homogenized distribution must have the
    eigenvalues of the influence matrix shifted by +1, padded with n zeros.
    Reports the matching distance; never raises on mismatch.
    """
    n = dist.n
    inf_m = signed_influence_matrix(dist)
    hom = homogenize(dist)
    cor = correlation_matrix(hom.dense)
    cor_eigs = np.linalg.eigvals(cor)
    inf_eigs = np.linalg.eigvals(inf_m)
    expected = np.concatenate([inf_eigs + 1.0, np.zeros(n, dtype=np.complex128)])
    distance = match_spectra(cor_eigs, expected)
    return {
        "matching_distance": distance,
        "tolerance": tol,
        "pass": bool(distance <= tol),
        "correlation_spectrum": [[z.real, z.imag] for z in np.sort_complex(cor_eigs)],
        "expected_spectrum": [[z.real, z.imag] for z in np.sort_complex(expected)],
    }
