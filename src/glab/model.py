"""Ising models on finite graphs with external fields.

A model assigns each spin configuration sigma in {-1,+1}^V the weight

    beta^(# monochromatic edges) * prod_{v: sigma_v = +1} lambda_v,

normalized by the partition function.  beta > 1 is ferromagnetic,
beta < 1 antiferromagnetic, beta = 1 a product measure.

Configurations are addressed by bit-packed indices throughout the
package: vertex v is bit v, and a set bit means spin +1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

Edge = Tuple[int, int]


def normalize_edges(n: int, edges: Iterable[Sequence[int]]) -> Tuple[Edge, ...]:
    """Validate and canonicalize an edge list (u < v, sorted, no repeats)."""
    seen = set()
    out: List[Edge] = []
    for e in edges:
        if len(e) != 2:
            raise ValueError(f"edge must have two endpoints, got {e!r}")
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
        out.append(key)
    out.sort()
    return tuple(out)


@dataclass(frozen=True)
class IsingModel:
    """Graph, edge activity beta, and per-vertex fields lambda."""

    n: int
    edges: Tuple[Edge, ...]
    beta: float
    lam: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one vertex, got n={self.n}")
        object.__setattr__(self, "edges", normalize_edges(self.n, self.edges))
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        lam = np.asarray(self.lam, dtype=np.float64)
        if lam.ndim == 0:
            lam = np.full(self.n, float(lam))
        if lam.shape != (self.n,):
            raise ValueError(f"lambda must have {self.n} entries, got shape {lam.shape}")
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
            raise ValueError("lambda entries must be positive and finite")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    @property
    def max_degree(self) -> int:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg) if deg else 0

    def neighbors(self) -> List[List[int]]:
        adj: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def log_weight_table(model: IsingModel) -> np.ndarray:
    """Vector of log-weights over all 2^n bit-packed configurations."""
    from .capacity import check_site_count

    check_site_count(model.n, "Ising weight table")
    idx = np.arange(1 << model.n, dtype=np.int64)
    logw = np.zeros(idx.shape, dtype=np.float64)
    logb = math.log(model.beta)
    for u, v in model.edges:
        same = ((idx >> u) & 1) == ((idx >> v) & 1)
        logw[same] += logb
    for v in range(model.n):
        plus = ((idx >> v) & 1) == 1
        logw[plus] += math.log(model.lam[v])
    return logw


# Graph constructors used throughout the test batteries.

def path_edges(n: int) -> List[Edge]:
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int) -> List[Edge]:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return [(i, (i + 1) % n) for i in range(n)]


def star_edges(n: int) -> List[Edge]:
    """Star on n vertices with center 0."""
    if n < 2:
        raise ValueError("a star needs at least 2 vertices")
    return [(0, i) for i in range(1, n)]


def complete_edges(n: int) -> List[Edge]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def delta_interior(max_degree: int, delta: float) -> Tuple[float, float]:
    """Closed interval of beta values delta-inside the uniqueness regime."""
    if max_degree < 3:
        raise ValueError(f"interior is defined for max degree >= 3, got {max_degree}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    lo = (max_degree - 2 + delta) / (max_degree - delta)
    hi = (max_degree - delta) / (max_degree - 2 + delta)
    return lo, hi


def in_delta_interior(beta: float, delta: float, max_degree: int) -> bool:
    """Whether beta lies in the closed delta-interior interval."""
    lo, hi = delta_interior(max_degree, delta)
    return lo <= beta <= hi


def flip_direction(model: IsingModel) -> np.ndarray:
    """Sign vector chi with chi_v = +1 exactly when lambda_v >= 1."""
    return np.where(model.lam >= 1.0, 1, -1).astype(np.int64)


Automorphism = Tuple[Tuple[int, ...], bool]


def automorphism_generators(model: IsingModel) -> List[Automorphism]:
    """Generators (image, flip) of the model's automorphism group.

    An automorphism is a site permutation g, site v going to image[v],
    that keeps the edge set and has lambda_{g(v)} == lambda_v for every
    v; with flip set it also negates every spin, and then needs
    lambda_{g(v)} == 1/lambda_v instead.  Fields are compared exactly, so
    the check is combinatorial and never a float tolerance on the table.

    The list is a strong generating set.  Going from the last site to
    the first, it adds for each site i an automorphism that fixes the
    sites before i and takes i to a site the generators so far cannot,
    until none is left.  The group order is the product over i of the
    orbit size of i under the generators fixing the sites before i,
    doubled when the pure flip is an automorphism.
    """
    n = model.n
    adj = [set(a) for a in model.neighbors()]
    lam = [float(x) for x in model.lam]
    inv = [1.0 / x for x in lam]

    def find(i: int, j: int, flip: bool) -> Optional[Automorphism]:
        """An automorphism fixing the sites before i and taking i to j."""
        # sites before i and i itself first, then breadth first, so that a
        # later site's image is a neighbor of an earlier site's image
        order = list(range(i + 1))
        placed = set(order)
        k = 0
        while len(order) < n:
            if k == len(order):
                order.append(min(set(range(n)) - placed))
                placed.add(order[-1])
            for u in sorted(adj[order[k]] - placed):
                order.append(u)
                placed.add(u)
            k += 1
        image = [-1] * n
        used = [False] * n

        def extend(k: int) -> bool:
            if k == n:
                return True
            v = order[k]
            if v <= i:
                cands = [v if v < i else j]
            else:
                anchor = next((u for u in adj[v] if image[u] >= 0), None)
                cands = sorted(adj[image[anchor]]) if anchor is not None else range(n)
            want = inv[v] if flip else lam[v]
            for w in cands:
                if used[w] or lam[w] != want or len(adj[w]) != len(adj[v]):
                    continue
                if any((u in adj[v]) != (image[u] in adj[w]) for u in order[:k]):
                    continue
                image[v], used[w] = w, True
                if extend(k + 1):
                    return True
                image[v], used[w] = -1, False
            return False

        return (tuple(image), flip) if extend(0) else None

    def orbit(i: int, gens: List[Automorphism]) -> set:
        seen, todo = {i}, [i]
        while todo:
            v = todo.pop()
            for image, _ in gens:
                if image[v] not in seen:
                    seen.add(image[v])
                    todo.append(image[v])
        return seen

    gens: List[Automorphism] = []
    if lam == inv:
        gens.append((tuple(range(n)), True))
    for i in reversed(range(n)):
        reached = orbit(i, gens)
        for j in range(i + 1, n):
            if j in reached:
                continue
            g = find(i, j, False) or find(i, j, True)
            if g is not None:
                gens.append(g)
                reached = orbit(i, gens)
    return gens


def parse_model(obj: dict) -> IsingModel:
    """Build a model from its JSON object form.

    Expected keys: n (int), edges (list of [u,v], 0-based), beta (float),
    and lambda (list of floats, or a scalar broadcast to all vertices).
    Any other key is rejected.
    """
    if not isinstance(obj, dict):
        raise ValueError("model JSON must be an object")
    fields = {"n", "edges", "beta", "lambda"}
    unknown = set(obj) - fields
    if unknown:
        raise ValueError(f"unknown model fields: {sorted(unknown)}")
    missing = fields - set(obj)
    if missing:
        raise ValueError(f"missing model fields: {sorted(missing)}")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    lam = obj["lambda"]
    if isinstance(lam, (int, float)) and not isinstance(lam, bool):
        lam_arr = np.full(n, float(lam))
    elif isinstance(lam, list):
        lam_arr = np.asarray([float(x) for x in lam], dtype=np.float64)
    else:
        raise ValueError("lambda must be a number or a list of numbers")
    return IsingModel(n=n, edges=tuple(tuple(e) for e in obj["edges"]),
                      beta=float(obj["beta"]), lam=lam_arr)


def load_model(path: str) -> IsingModel:
    """Read a model from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(json.load(fh))


def model_to_json(model: IsingModel) -> dict:
    return {
        "n": model.n,
        "edges": [list(e) for e in model.edges],
        "beta": model.beta,
        "lambda": [float(x) for x in model.lam],
    }
