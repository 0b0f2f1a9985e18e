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
from dataclasses import dataclass, field
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
    delta: Optional[float] = None

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
        if self.delta is not None and not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")

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

    def with_fields(self, lam) -> "IsingModel":
        return IsingModel(self.n, self.edges, self.beta, np.asarray(lam, dtype=np.float64), self.delta)


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


def config_index(spins: Sequence[int]) -> int:
    """Bit-packed index of a +-1 configuration (bit v set means +1 at v)."""
    out = 0
    for v, s in enumerate(spins):
        if s == 1:
            out |= 1 << v
        elif s != -1:
            raise ValueError(f"spin values must be +-1, got {s}")
    return out


def spins_from_index(index: int, n: int) -> np.ndarray:
    """Inverse of config_index."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} sites")
    bits = (index >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int64)


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


def uniqueness_thresholds(max_degree: int) -> Tuple[float, float]:
    """Antiferro/ferro uniqueness thresholds ((D-2)/D, D/(D-2)) for D >= 3."""
    if max_degree < 3:
        raise ValueError(f"thresholds are defined for max degree >= 3, got {max_degree}")
    return (max_degree - 2) / max_degree, max_degree / (max_degree - 2)


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


def potential_sup(beta: float) -> float:
    """sup over y of |(1-beta^2) e^y| / ((beta e^y + 1)(beta + e^y)).

    The supremum is attained at y = 0 and equals |1-beta|/(1+beta).
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return abs(1.0 - beta) / (1.0 + beta)


def potential_profile(beta: float, ys: np.ndarray) -> np.ndarray:
    """Pointwise values of the potential-derivative bound on a grid of y."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    ey = np.exp(np.asarray(ys, dtype=np.float64))
    return np.abs((1.0 - beta * beta) * ey) / ((beta * ey + 1.0) * (beta + ey))


def potential_sup_grid(beta: float, lo: float = -50.0, hi: float = 50.0, points: int = 200001) -> float:
    """Grid-search validator for potential_sup over y in [lo, hi]."""
    ys = np.linspace(lo, hi, points)
    return float(np.max(potential_profile(beta, ys)))


def flip_direction(model: IsingModel) -> np.ndarray:
    """Sign vector chi with chi_v = +1 exactly when lambda_v >= 1."""
    return np.where(model.lam >= 1.0, 1, -1).astype(np.int64)


def parse_model(obj: dict) -> IsingModel:
    """Build a model from its JSON object form.

    Expected keys: n (int), edges (list of [u,v], 0-based), beta (float),
    lambda (list of floats, or a scalar broadcast to all vertices), and
    optional delta.  Unknown keys are rejected.
    """
    if not isinstance(obj, dict):
        raise ValueError("model JSON must be an object")
    allowed = {"n", "edges", "beta", "lambda", "delta"}
    unknown = set(obj) - allowed
    if unknown:
        raise ValueError(f"unknown model fields: {sorted(unknown)}")
    missing = {"n", "edges", "beta", "lambda"} - set(obj)
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
    delta = obj.get("delta")
    return IsingModel(n=n, edges=tuple(tuple(e) for e in obj["edges"]),
                      beta=float(obj["beta"]), lam=lam_arr,
                      delta=None if delta is None else float(delta))


def load_model(path: str) -> IsingModel:
    """Read a model from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(json.load(fh))


def model_to_json(model: IsingModel) -> dict:
    out = {
        "n": model.n,
        "edges": [list(e) for e in model.edges],
        "beta": model.beta,
        "lambda": [float(x) for x in model.lam],
    }
    if model.delta is not None:
        out["delta"] = model.delta
    return out
