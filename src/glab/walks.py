"""Down-up walks on the level sets of a homogeneous set distribution.

A family of size-k subsets (top faces) of a ground set induces level
sets X(j) = all size-j subsets of top faces and a down walk D(k->j) that
deletes elements uniformly.  A distribution mu on the top faces is a
plain vector aligned with them, and the incidence serves every such
law: pushing mu down gives the level distributions mu_(j), and the up
walk U(j->k) regrows a face proportionally to mu.  Averaging a test
function up gives its level versions f^(j), which coincide with the
density of (mu f) against mu at every level mu reaches.

Entropy and divergence contract at rate kappa along the walk.  The
walks suite checks that contraction on two values computed here: the
divergence of two laws pushed down to each level (kl_by_level) and the
entropy of a function's level version (level_entropy).  The module also
checks the identity expressing uniform-block entropy averages as
differences of level entropies of the homogenized distribution.

A level structure is built from its top faces alone: for a homogenization
these are the 2^n faces of spectral.homogenized_faces, so the only limit
is the level byte budget (capacity.LEVEL_BYTE_BUDGET), never a table over
the 2n ground elements.  Entropies and divergences are exact's, read on
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
from .factorization import CheckReport, ubf_average
from .spectral import homogenized_faces

# Bytes per (top face, subface) pair, the unit of a level structure's
# size.  Under tracemalloc build_levels peaked at 19-34 of them on
# homogenized, uniform-slice and random faces of size 4-10, and at 61 on
# faces of size 2, where the per-face input check dominates.
SUBFACE_BYTES = 64


@dataclass(frozen=True)
class Levels:
    """Level sets of the downward closure of a family of top faces, and
    the incidence every walk operator is read from.  A law on the top
    faces is a vector aligned with faces[k]."""

    ground: int
    k: int
    faces: Tuple[Tuple[int, ...], ...]       # faces[j] = masks of X(j), lexicographic
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


def build_levels(ground: int, k: int, faces: Sequence[int]) -> Levels:
    """Level sets of the downward closure of the given top faces."""
    if not 0 <= k <= ground <= 63:
        raise ValueError(f"need 0 <= k <= ground <= 63, got k={k}, ground={ground}")
    masks = np.asarray(faces, dtype=np.int64)
    if masks.ndim != 1 or masks.size == 0:
        raise ValueError("faces must be a nonempty sequence of masks")
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

    top = masks.size
    # every top face has sum_j C(k, j) = 2^k subfaces
    need = SUBFACE_BYTES * top * 2 ** k
    if need > LEVEL_BYTE_BUDGET:
        raise CapacityError(
            f"level structure of {top} top faces of size {k} needs {need} bytes, "
            f"above the budget of {LEVEL_BYTE_BUDGET} bytes")

    order = np.argsort(_reverse_bits(masks, ground))[::-1]
    # element bits of each top face, reversed so that subface keys sort
    rev = np.left_shift(1, ground - 1 - np.nonzero(bits[order])[1]).reshape(top, k)
    level_faces, cols = [], []
    for j in range(k + 1):
        keys = rev[:, _combinations(k, j)].sum(axis=2)
        uniq, inv = np.unique(keys.ravel(), return_inverse=True)
        level_faces.append(tuple(_reverse_bits(uniq[::-1], ground).tolist()))
        cols.append((uniq.size - 1 - inv).astype(np.int32).reshape(keys.shape))
    return Levels(ground=ground, k=k, faces=tuple(level_faces), cols=tuple(cols))


def homogenized_levels(n: int) -> Levels:
    """Level sets of the homogenizations of n-site laws: the top faces are
    the images of all 2^n configurations, so one structure serves every
    law on n sites (homogenized_law)."""
    return build_levels(2 * n, n, homogenized_faces(n, np.arange(1 << n, dtype=np.int64)))


def _configurations(levels: Levels, n: int) -> np.ndarray:
    """The configuration of each top face of homogenized_levels(n)."""
    if (levels.ground, levels.k) != (2 * n, n):
        raise ValueError(f"levels must be the homogenized {n}-site levels")
    # a top face's first n elements are the +1 sites of its configuration
    return np.asarray(levels.faces[n], dtype=np.int64) & ((1 << n) - 1)


def homogenized_law(levels: Levels, dist: DenseDistribution) -> np.ndarray:
    """The homogenization of dist as a vector on the top faces of
    homogenized_levels(dist.n), zero off its support and divided by its
    own sum."""
    top = dist.prob[_configurations(levels, dist.n)]
    return top / float(np.sum(top))


def uniform_slice_levels(n: int, k: int) -> Levels:
    """All size-k subsets of [n] as top faces."""
    return build_levels(n, k, np.left_shift(1, _combinations(n, k)).sum(axis=1))


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
    top = np.asarray(top, dtype=np.float64)
    if top.shape != (levels.face_count(levels.k),):
        raise ValueError("top vector must align with the top faces")
    cols = _incidence(levels, j)
    return np.bincount(cols.ravel(), weights=np.repeat(top, cols.shape[1]),
                       minlength=levels.face_count(j))


def level_distribution(levels: Levels, top: np.ndarray, j: int) -> np.ndarray:
    """Down-walk image at level j of a distribution on the top faces."""
    return _level_sums(levels, top, j) / math.comb(levels.k, j)


def up_matrix(levels: Levels, mu: np.ndarray, j: int) -> np.ndarray:
    """Matrix regrowing a level-j face to a top face in proportion to mu;
    rows of faces mu does not reach are zero, the others stochastic."""
    cols = _incidence(levels, j)
    out = np.zeros((levels.face_count(j), cols.shape[0]))
    out[cols, np.arange(cols.shape[0])[:, None]] = np.asarray(mu)[:, None]
    sums = out.sum(axis=1, keepdims=True)
    return np.divide(out, sums, out=out, where=sums > 0)


def level_entropy(levels: Levels, mu: np.ndarray, f_top: np.ndarray, j: int) -> float:
    """Entropy under mu's level-j law of f^(j), the up-walk average under
    mu of the top function (0 on the level-j faces mu does not reach)."""
    den = _level_sums(levels, mu, j)
    num = _level_sums(levels, np.asarray(mu) * np.asarray(f_top), j)
    f_j = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return entropy_of_values(den / math.comb(levels.k, j), f_j)


def kl_by_level(levels: Levels, mu: np.ndarray, nu_top: np.ndarray) -> List[float]:
    """KL(nu || mu) after pushing both measures down to each level, top first."""
    return [_kl(level_distribution(levels, nu_top, j), level_distribution(levels, mu, j))
            for j in range(levels.k, -1, -1)]


def ubf_ed_identity(
    dist: DenseDistribution, levels: Levels, f: FunctionLike, j: int
) -> Tuple[float, float]:
    """(uniform-block average at size j, level-entropy difference).

    levels is homogenized_levels(dist.n), and the law on it is dist's
    homogenization.  The average over size-j blocks of the expected
    conditional entropy of f equals the drop in entropy of the
    homogenized lift of f between the top level and level n-j.
    """
    n = dist.n
    if not 1 <= j <= n:
        raise ValueError(f"block size must lie in [1, n], got {j}")
    mu = homogenized_law(levels, dist)
    lhs = ubf_average(dist, j, f)

    f_top = as_values(f, n)[_configurations(levels, n)]
    return lhs, entropy_of_values(mu, f_top) - level_entropy(levels, mu, f_top, n - j)


def ubf_ed_identity_check(
    dist: DenseDistribution, levels: Levels, f: FunctionLike, j: int, instance: str = "",
    name: str = "block-average-vs-level-entropy-difference",
) -> CheckReport:
    lhs, rhs = ubf_ed_identity(dist, levels, f, j)
    return CheckReport.eq(name, instance, lhs, rhs)
