"""Brute-force reference implementations, kept deliberately naive.

Everything here works on plain dicts of spin tuples so that none of the
package's vectorized index arithmetic is shared with the code under
test.
"""

import math
from itertools import product

import numpy as np


def table_of(dist):
    """{spin tuple: probability}, spins[v] in {-1,+1}."""
    n = dist.n
    out = {}
    for idx, p in enumerate(dist.prob):
        spins = tuple(1 if (idx >> v) & 1 else -1 for v in range(n))
        out[spins] = float(p)
    return out


def conditional_plus(table, n, v, fixed):
    """P[sigma_v = +1 | sigma_u = fixed[u] for u in fixed], or None."""
    num = 0.0
    den = 0.0
    for spins, p in table.items():
        if any(spins[u] != s for u, s in fixed.items()):
            continue
        den += p
        if spins[v] == 1:
            num += p
    if den <= 0.0:
        return None
    return num / den


def oracle_influence(dist):
    n = dist.n
    table = table_of(dist)
    out = np.zeros((n, n))
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            plus = conditional_plus(table, n, v, {u: 1})
            minus = conditional_plus(table, n, v, {u: -1})
            if plus is None or minus is None:
                continue
            out[u, v] = plus - minus
    return out


def oracle_correlation(dist):
    n = dist.n
    table = table_of(dist)
    q = [sum(p for s, p in table.items() if s[i] == 1) for i in range(n)]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                out[i, i] = 1.0 - q[i]
            elif q[i] > 0.0:
                joint = sum(p for s, p in table.items() if s[i] == 1 and s[j] == 1)
                out[i, j] = joint / q[i] - q[j]
    return out


def oracle_dobrushin(dist):
    """A[u,v] = worst swing of the conditional at v over flips of u."""
    n = dist.n
    table = table_of(dist)
    out = np.zeros((n, n))
    for v in range(n):
        others = [w for w in range(n) if w != v]
        for u in others:
            rest = [w for w in others if w != u]
            worst = 0.0
            for assignment in product((-1, 1), repeat=len(rest)):
                fixed = dict(zip(rest, assignment))
                fixed[u] = 1
                hi = conditional_plus(table, n, v, fixed)
                fixed[u] = -1
                lo = conditional_plus(table, n, v, fixed)
                if hi is None or lo is None:
                    continue
                worst = max(worst, abs(hi - lo))
            out[u, v] = worst
    return out


def oracle_entropy(probs, f):
    mean = sum(p * x for p, x in zip(probs, f))
    acc = 0.0
    for p, x in zip(probs, f):
        if p > 0.0 and x > 0.0:
            acc += p * x * math.log(x)
    return acc - mean * math.log(mean)


def oracle_transition(dist):
    """Dense kernel over all 2^n states, heat-bath site updates."""
    n = dist.n
    m = dist.prob.size
    out = np.zeros((m, m))
    for s in range(m):
        for v in range(n):
            t = s ^ (1 << v)
            tot = dist.prob[s] + dist.prob[t]
            if tot <= 0.0:
                out[s, s] += 1.0 / n
                continue
            out[s, t] += dist.prob[t] / tot / n
            out[s, s] += dist.prob[s] / tot / n
    return out


def oracle_tmix(dist, eps):
    """Step-by-step worst-start TV scan on the full state space."""
    p = oracle_transition(dist)
    pi = np.asarray(dist.prob)
    mat = np.eye(p.shape[0])
    t = 0
    while True:
        dist_t = 0.5 * np.max(np.sum(np.abs(mat - pi[None, :]), axis=1))
        if dist_t <= eps:
            return t
        mat = mat @ p
        t += 1
        if t > 1_000_000:
            raise RuntimeError("oracle did not mix")


def oracle_pinned_dobrushin_worst(dist):
    """Worst one- or inf-norm of the Dobrushin matrix over every pinning.

    Sweeps all 3^n - 2^n pinned sub-instances with at least one free site.
    Unlike the dict routines above it reuses the package's condition,
    marginal and dobrushin_matrix (each checked against those routines
    elsewhere): it checks the argument that the unpinned matrix bounds
    every pinning, not the arithmetic.
    """
    from itertools import combinations

    from glab.exact import Pinning, condition, marginal
    from glab.spectral import dobrushin_matrix

    n = dist.n
    worst = 0.0
    for free_size in range(1, n + 1):
        for free in combinations(range(n), free_size):
            pinned = tuple(v for v in range(n) if v not in free)
            for spins in product((-1, 1), repeat=len(pinned)):
                sub = marginal(condition(dist, Pinning(pinned, spins)), free) if pinned else dist
                a = np.abs(dobrushin_matrix(sub))
                worst = max(worst, float(np.max(np.sum(a, axis=0))),
                            float(np.max(np.sum(a, axis=1))))
    return worst
