"""Down-up walks on the level sets of a homogeneous set distribution.

A distribution mu over size-k subsets (faces) of a ground set induces
level sets X(j) = all size-j subsets of support faces, a down walk
D(k->j) that deletes elements uniformly, and an up walk U(j->k) that
regrows a face proportionally to mu.  Pushing mu down gives the level
distributions mu_(j); averaging a test function up gives its level
versions f^(j), which coincide with the density of (mu f) against mu at
every level.

Entropy and divergence contract at rate kappa along the walk; the checks
here verify that contraction, its data-processing monotonicity, and the
identity expressing uniform-block entropy averages as differences of
level entropies of the homogenized distribution.

A level structure is built from its top faces alone: for a homogenization
these are the 2^n faces of spectral.homogenize, so the only limit is the
level byte budget (capacity.LEVEL_BYTE_BUDGET), never a table over the
2n ground elements.  Entropies and divergences are exact's, read on
plain probability vectors over the faces of one level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .capacity import LEVEL_BYTE_BUDGET, CapacityError
from .exact import DenseDistribution, FunctionLike, _kl, as_values, entropy_of_values
from .factorization import CheckReport, kappa, ubf_average
from .spectral import SupportLaw

# Bytes per (top face, subface) pair, the unit of a level structure's
# size.  Under tracemalloc build_levels peaked at 19-34 of them on
# homogenized, uniform-slice and random faces of size 4-10, and at 61 on
# faces of size 2, where the per-face input check dominates.
SUBFACE_BYTES = 64


@dataclass(frozen=True)
class Levels:
    """Level sets of the downward closure of a homogeneous support, and
    the incidence every walk operator is read from."""

    ground: int
    k: int
    faces: Tuple[Tuple[int, ...], ...]       # faces[j] = masks of X(j), lexicographic
    top_prob: np.ndarray                     # aligned with faces[k]
    cols: Tuple[np.ndarray, ...]             # cols[j][t] = level-j columns of t's subfaces

    def face_count(self, j: int) -> int:
        return len(self.faces[j])


def _combinations(k: int, j: int) -> np.ndarray:
    """The j-subsets of range(k) as a (C(k, j), j) index array, in itertools order."""
    combs = list(itertools.combinations(range(k), j))
    return np.array(combs, dtype=np.intp).reshape(len(combs), j)


def _reverse_bits(masks: np.ndarray, ground: int) -> np.ndarray:
    """Masks with element b moved to ground-1-b (an involution); for sets of
    one size, descending reversed masks list the sets lexicographically."""
    out = np.zeros_like(masks)
    for b in range(ground):
        out |= ((masks >> b) & 1) << (ground - 1 - b)
    return out


def build_levels(ground: int, k: int, faces: Sequence[int], probs: Sequence[float]) -> Levels:
    """Level sets of the downward closure of the given support faces."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= k <= ground <= 63:
        raise ValueError(f"need 0 <= k <= ground <= 63, got k={k}, ground={ground}")
    masks = np.asarray(faces, dtype=np.int64)
    if probs.shape != masks.shape:
        raise ValueError("faces and probs must align")
    if np.any(probs < 0) or abs(float(np.sum(probs)) - 1.0) > 1e-9:
        raise ValueError("probs must be a probability vector")
    if np.unique(masks).size != masks.size:
        raise ValueError("faces must be distinct")
    # bits[i, b] = element b of face i; a negative mask sets bit 63
    bits = np.unpackbits(masks.astype("<i8").view(np.uint8).reshape(-1, 8), axis=1,
                         bitorder="little")
    outside = masks[bits[:, ground:].any(axis=1)]
    if outside.size:
        raise ValueError(f"face {int(outside[0]):#x} outside ground set of size {ground}")
    wrong = masks[bits.sum(axis=1) != k]
    if wrong.size:
        raise ValueError(f"face {int(wrong[0]):#x} does not have {k} elements")
    on = probs > 0
    if not np.any(on):
        raise ValueError("support must be nonempty")

    top = int(np.count_nonzero(on))
    # every top face has sum_j C(k, j) = 2^k subfaces
    need = SUBFACE_BYTES * top * 2 ** k
    if need > LEVEL_BYTE_BUDGET:
        raise CapacityError(
            f"level structure of {top} top faces of size {k} needs {need} bytes, "
            f"above the budget of {LEVEL_BYTE_BUDGET} bytes")

    order = np.argsort(_reverse_bits(masks[on], ground))[::-1]
    top_prob = probs[on][order]
    top_prob /= float(np.sum(top_prob))
    # element bits of each top face, reversed so that subface keys sort
    rev = np.left_shift(1, ground - 1 - np.nonzero(bits[on][order])[1]).reshape(top, k)
    level_faces, cols = [], []
    for j in range(k + 1):
        keys = rev[:, _combinations(k, j)].sum(axis=2)
        uniq, inv = np.unique(keys.ravel(), return_inverse=True)
        level_faces.append(tuple(_reverse_bits(uniq[::-1], ground).tolist()))
        cols.append((uniq.size - 1 - inv).astype(np.int32).reshape(keys.shape))
    return Levels(ground=ground, k=k, faces=tuple(level_faces), top_prob=top_prob,
                  cols=tuple(cols))


def levels_from_homogenized(hom: SupportLaw) -> Levels:
    """Level sets of a homogenization (spectral.homogenize), whose faces
    have half the ground set each."""
    ground, faces, probs = hom
    return build_levels(ground, ground // 2, faces, probs)


def uniform_slice_levels(n: int, k: int) -> Levels:
    """Uniform distribution over all size-k subsets of [n]."""
    faces = np.left_shift(1, _combinations(n, k)).sum(axis=1)
    return build_levels(n, k, faces, np.full(faces.size, 1.0 / faces.size))


def _incidence(levels: Levels, j: int) -> np.ndarray:
    if not 0 <= j <= levels.k:
        raise ValueError(f"level must lie in [0, k], got {j}")
    return levels.cols[j]


def down_matrix(levels: Levels, frm: int, to: int) -> np.ndarray:
    """Row-stochastic matrix deleting frm-to elements uniformly."""
    if not 0 <= to <= frm <= levels.k:
        raise ValueError(f"need 0 <= to <= frm <= k, got {to}, {frm}")
    # every level-frm face is some combination a of a top face, and its
    # level-to subfaces are that top face's combinations b inside a
    inner = np.left_shift(1, _combinations(levels.k, to)).sum(axis=1)
    outer = np.left_shift(1, _combinations(levels.k, frm)).sum(axis=1)
    a, b = np.nonzero(inner[None, :] & ~outer[:, None] == 0)
    out = np.zeros((levels.face_count(frm), levels.face_count(to)))
    out[levels.cols[frm][:, a], levels.cols[to][:, b]] = 1.0 / math.comb(frm, to)
    return out


def _level_sums(levels: Levels, top: np.ndarray, j: int) -> np.ndarray:
    """Sum of the top vector over the top faces containing each level-j face."""
    cols = _incidence(levels, j)
    return np.bincount(cols.ravel(), weights=np.repeat(top, cols.shape[1]),
                       minlength=levels.face_count(j))


def level_distribution(levels: Levels, j: int) -> np.ndarray:
    """Down-walk image of the top distribution at level j."""
    return push_down(levels, levels.top_prob, j)


def push_down(levels: Levels, top: np.ndarray, j: int) -> np.ndarray:
    """Down-walk image at level j of any distribution on the top faces."""
    top = np.asarray(top, dtype=np.float64)
    if top.shape != (levels.face_count(levels.k),):
        raise ValueError("top vector must align with the top faces")
    return _level_sums(levels, top, j) / math.comb(levels.k, j)


def up_matrix(levels: Levels, j: int) -> np.ndarray:
    """Row-stochastic matrix regrowing a level-j face to a top face."""
    cols = _incidence(levels, j)
    out = np.zeros((levels.face_count(j), cols.shape[0]))
    out[cols, np.arange(cols.shape[0])[:, None]] = levels.top_prob[:, None]
    return out / out.sum(axis=1, keepdims=True)


def lift_level_function(levels: Levels, f_top: np.ndarray, j: int) -> np.ndarray:
    """f^(j) = up-walk average of the top function."""
    f_top = np.asarray(f_top, dtype=np.float64)
    if f_top.shape != (levels.face_count(levels.k),):
        raise ValueError("top function must align with the top faces")
    return (_level_sums(levels, levels.top_prob * f_top, j)
            / _level_sums(levels, levels.top_prob, j))


def entropy_contraction_check(
    levels: Levels,
    nu_top: np.ndarray,
    j: int,
    alpha: float,
    instance: str = "",
    name: str = "down-walk-divergence-contraction",
) -> CheckReport:
    """KL at level j <= (1 - kappa(j, k, 1/alpha)) * KL at the top.

    alpha is the log-concavity parameter of the generating polynomial of
    the top distribution; the caller is responsible for it being valid.
    """
    nu_top = np.asarray(nu_top, dtype=np.float64)
    if abs(float(np.sum(nu_top)) - 1.0) > 1e-9 or np.any(nu_top < 0):
        raise ValueError("nu_top must be a probability vector")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    factor = 1.0 - kappa(j, levels.k, 1.0 / alpha)
    kl_top = _kl(nu_top, levels.top_prob)
    kl_j = _kl(push_down(levels, nu_top, j), level_distribution(levels, j))
    return CheckReport.le(name, instance, kl_j, factor * kl_top, factor)


def local_entropy_decay_check(
    levels: Levels,
    f_top: np.ndarray,
    j: int,
    contraction: float,
    instance: str = "",
    name: str = "down-walk-entropy-decay",
) -> CheckReport:
    """Ent at level j of f^(j) <= (1 - contraction) * Ent at the top."""
    if not 0.0 <= contraction <= 1.0:
        raise ValueError("contraction must lie in [0, 1]")
    factor = 1.0 - contraction
    ent_top = entropy_of_values(levels.top_prob, f_top)
    ent_j = entropy_of_values(level_distribution(levels, j), lift_level_function(levels, f_top, j))
    return CheckReport.le(name, instance, ent_j, factor * ent_top, factor)


def kl_by_level(levels: Levels, nu_top: np.ndarray) -> List[float]:
    """KL divergence after pushing both measures down to each level, top first."""
    out = []
    for j in range(levels.k, -1, -1):
        out.append(_kl(push_down(levels, nu_top, j), level_distribution(levels, j)))
    return out


def ubf_ed_identity(
    dist: DenseDistribution, levels: Levels, f: FunctionLike, j: int
) -> Tuple[float, float]:
    """(uniform-block average at size j, level-entropy difference).

    levels is the level structure of the homogenization of dist.  The
    average over size-j blocks of the expected conditional entropy of f
    equals the drop in entropy of the homogenized lift of f between the
    top level and level n-j.
    """
    n = dist.n
    if not 1 <= j <= n:
        raise ValueError(f"block size must lie in [1, n], got {j}")
    if (levels.ground, levels.k) != (2 * n, n):
        raise ValueError(f"levels must come from the homogenized {n}-site distribution")
    vals = as_values(f, n)
    lhs = ubf_average(dist, j, f)

    # a top face's first n elements are the +1 sites of its configuration
    f_top = vals[np.asarray(levels.faces[levels.k]) & ((1 << n) - 1)]
    ent_top = entropy_of_values(levels.top_prob, f_top)
    ent_low = entropy_of_values(
        level_distribution(levels, n - j), lift_level_function(levels, f_top, n - j)
    )
    return lhs, ent_top - ent_low


def ubf_ed_identity_check(
    dist: DenseDistribution, levels: Levels, f: FunctionLike, j: int, instance: str = "",
    name: str = "block-average-vs-level-entropy-difference",
) -> CheckReport:
    lhs, rhs = ubf_ed_identity(dist, levels, f, j)
    return CheckReport.eq(name, instance, lhs, rhs)
