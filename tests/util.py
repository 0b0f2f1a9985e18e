"""Seeded builders for random distributions, functions, and models."""

import numpy as np

from glab.exact import DenseDistribution, enumerate_gibbs, entropy_of_values
from glab.factorization import CheckReport, kappa
from glab.model import (
    IsingModel,
    complete_edges,
    cycle_edges,
    path_edges,
    star_edges,
)
from glab.walks import kl_by_level, level_entropy

FAMILIES = ("path", "cycle", "star", "complete")


def family_edges(family: str, n: int):
    if family == "path":
        return path_edges(n)
    if family == "cycle":
        return cycle_edges(n)
    if family == "star":
        return star_edges(n)
    if family == "complete":
        return complete_edges(n)
    raise ValueError(family)


def random_dist(n: int, seed: int, zero_frac: float = 0.0) -> DenseDistribution:
    """Exp-normal weight table; optionally knock out some entries."""
    gen = np.random.default_rng(seed)
    w = np.exp(gen.normal(0.0, 1.5, size=1 << n))
    if zero_frac > 0.0:
        kill = gen.random(w.size) < zero_frac
        if kill.sum() >= w.size - 1:
            kill[:2] = False
        w[kill] = 0.0
    return DenseDistribution(n, w / w.sum())


def random_positive_f(n: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    return np.exp(gen.normal(0.0, 1.0, size=1 << n))


def random_model(n: int, seed: int, beta_range=(0.25, 3.0), lam_range=(0.25, 4.0)) -> IsingModel:
    gen = np.random.default_rng(seed)
    allowed = [f for f in FAMILIES if n >= 3 or f in ("path", "complete")]
    family = allowed[int(gen.integers(len(allowed)))]
    edges = family_edges(family, n) if n >= 2 else []
    beta = float(np.exp(gen.uniform(np.log(beta_range[0]), np.log(beta_range[1]))))
    lam = tuple(np.exp(gen.uniform(np.log(lam_range[0]), np.log(lam_range[1]), size=n)))
    return IsingModel(n=n, edges=edges, beta=beta, lam=lam)


def random_gibbs(n: int, seed: int) -> DenseDistribution:
    return enumerate_gibbs(random_model(n, seed))


def interior_model(family: str, n: int, seed: int, delta: float = 0.5) -> IsingModel:
    """Ising model with beta inside the delta-interior of uniqueness."""
    from glab.model import delta_interior

    edges = family_edges(family, n)
    deg = max(3, max_degree_of(edges, n))
    lo, hi = delta_interior(deg, delta)
    gen = np.random.default_rng(seed)
    beta = float(gen.uniform(lo, hi))
    lam = tuple(np.exp(gen.uniform(np.log(0.5), np.log(2.0), size=n)))
    return IsingModel(n=n, edges=edges, beta=beta, lam=lam)


def max_degree_of(edges, n: int) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg) if deg else 0


def regime_grid():
    """Criterion 12's models: small cycles, paths and K4 at three betas,
    with fields rotated through a fixed pool."""
    lam_pool = (0.5, 2.0, 1.0, 0.8, 1.25)
    out = []
    for fam, n in (("cycle", 3), ("cycle", 4), ("cycle", 5),
                   ("path", 4), ("path", 5), ("complete", 4)):
        for beta in (0.65, 1.0, 1.5):
            lam = tuple(lam_pool[(len(out) + t) % len(lam_pool)] for t in range(n))
            out.append((fam, IsingModel(n=n, edges=family_edges(fam, n), beta=beta, lam=lam)))
    return out


def walk_contraction_failures(levels, mu, nu, f):
    """The inner levels j at which the divergence of nu from mu, or the
    entropy of f's level version under mu, is above 1 - kappa(j, k, 1)
    times its top value, with the walks suite's slack: a list of
    (j, "contraction" or "decay")."""
    k = levels.k
    kl = kl_by_level(levels, mu, nu)
    ent_top = entropy_of_values(mu, f)
    bad = []
    for j in range(1, k):
        factor = 1.0 - kappa(j, k, 1.0)
        if not CheckReport.le("", "", kl[k - j], factor * kl[0]).passed:
            bad.append((j, "contraction"))
        if not CheckReport.le("", "", level_entropy(levels, mu, f, j), factor * ent_top).passed:
            bad.append((j, "decay"))
    return bad
