"""Pin the bits of the Glauber kernel and the site pairs it is built from.

The report digests cover only full-support models of at most six sites.
`tests/data/kernel_digests.json` holds, for cycle, star and complete
tables of 1 to 9 sites (each family where it is defined), each in full
support, conditioned on site 0 being +1, and magnetized with a zero
field at the last site, the SHA-256 of:

- `transition_matrix`: the CSR indptr, indices and data, and the
  stationary law;
- `_pair_arrays`: the pair positions and edge weights;
- every site's `boundary_split` (mass, both, minus, plus, weight);
- every site's `site_conditional_plus` (mass, conditional).

Each array enters its digest with its dtype and shape.  Regenerate the
file with

    PYTHONPATH=src python tests/test_kernel_digests.py

only when a change moves these bits on purpose, and say so in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from glab.exact import (Pinning, boundary_split, condition, enumerate_gibbs, magnetize,
                        site_conditional_plus)
from glab.glauber import _pair_arrays, transition_matrix
from glab.model import IsingModel, complete_edges, cycle_edges, star_edges

DIGESTS = Path(__file__).parent / "data" / "kernel_digests.json"

FAMILIES = {
    "cycle": (3, cycle_edges, 0.7),
    "star": (2, star_edges, 1.3),
    "complete": (1, complete_edges, 0.9),
}


def kernel_tables():
    """{name: table} over the families, sizes and support forms pinned here."""
    tables = {}
    for family, (smallest, edges, beta) in FAMILIES.items():
        for n in range(smallest, 10):
            lam = tuple((2.0, 0.5, 1.5)[v % 3] for v in range(n))
            full = enumerate_gibbs(IsingModel(n=n, edges=edges(n), beta=beta, lam=lam))
            tables[f"{family}{n}"] = full
            tables[f"{family}{n}-pinned"] = condition(full, Pinning((0,), (1,)))
            tables[f"{family}{n}-zero-field"] = magnetize(full, np.r_[np.ones(n - 1), 0.0])
    return tables


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def kernel_digests() -> dict:
    """{table: {object: sha256}} of every table of kernel_tables."""
    out = {}
    for name, dist in kernel_tables().items():
        tm = transition_matrix(dist)
        splits = [boundary_split(dist, v) for v in range(dist.n)]
        out[name] = {
            "transition_matrix": _digest(tm.matrix.indptr, tm.matrix.indices, tm.matrix.data,
                                         tm.stationary),
            "pair_arrays": _digest(*_pair_arrays(dist)),
            "boundary_split": _digest(*(a for s in splits
                                        for a in (s.mass, s.both, s.minus, s.plus, s.weight))),
            "site_conditional_plus": _digest(*(a for v in range(dist.n)
                                               for a in site_conditional_plus(dist, v))),
        }
    return out


def test_kernel_bits_match_recorded_digests():
    assert kernel_digests() == json.loads(DIGESTS.read_text())


if __name__ == "__main__":
    text = json.dumps(kernel_digests(), indent=1, sort_keys=True) + "\n"
    (Path(sys.argv[1]) if len(sys.argv) > 1 else DIGESTS).write_text(text)
