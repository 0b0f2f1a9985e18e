"""Brute-force reference implementations, kept deliberately naive.

Everything here works on plain dicts of spin tuples so that none of the
package's vectorized index arithmetic is shared with the code under
test.
"""

import math
from itertools import combinations, product

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


def oracle_si_sup_estimate(dist, config):
    """The sampled-field sweep one field at a time.

    Magnetizes by each field vector in turn (the product grid, then the
    seeded draws), builds its influence matrix with oracle_influence and
    keeps the first strictly larger inf-norm.  Returns the estimate and every
    (field, value) pair in evaluation order.
    """
    from itertools import product as grid_product

    from glab.exact import FieldAssignment, magnetize
    from glab.rng import derive_generator
    from glab.spectral import FIELD_HI, FIELD_LO, SupEstimate

    def evaluate(phi):
        m = oracle_influence(magnetize(dist, FieldAssignment.full(phi)))
        return float(np.max(np.sum(np.abs(m), axis=1)))

    fields = [np.asarray(combo) for combo in grid_product(config.grid_values(), repeat=dist.n)]
    if config.random_draws:
        gen = derive_generator(config.seed, "si-field-sampler")
        lo, hi = math.log(FIELD_LO), math.log(FIELD_HI)
        fields += [np.exp(gen.uniform(lo, hi, size=dist.n)) for _ in range(config.random_draws)]
    best = -math.inf
    best_phi = tuple(1.0 for _ in range(dist.n))
    pairs = []
    for phi in fields:
        val = evaluate(phi)
        pairs.append((tuple(float(x) for x in phi), val))
        if val > best:
            best, best_phi = val, pairs[-1][0]
    est = SupEstimate(value=best, maximizing_field=best_phi, fields_evaluated=len(pairs))
    return est, pairs


def hypergeo_support(spec):
    """All count vectors a with sum ell and 0 <= a_v <= k, lexicographic."""

    def rec(prefix, remaining, buckets_left):
        if buckets_left == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        lo = max(0, remaining - spec.k * (buckets_left - 1))
        hi = min(spec.k, remaining)
        for a in range(lo, hi + 1):
            yield from rec(prefix + [a], remaining - a, buckets_left - 1)

    yield from rec([], spec.ell, spec.n)


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


def stationary_distance_profile(tm, power):
    """Worst-start total variation between the rows of P^t and pi."""
    return 0.5 * float(np.max(np.sum(np.abs(power - tm.stationary[None, :]), axis=1)))


def oracle_mixing_bracket(dist, eps, max_doublings=40):
    """(exact mixing time, [(t, worst-start TV at t)] for t = 1, 2, 4, ...)
    by squaring the dense support kernel.

    The list holds every power of two that the doubling bracket squares
    to, ending at the first one within eps; it is empty when t = 0
    already is.  A linear scan inside the last bracket finds the time.
    The kernel is the package's, over the support only: starts off the
    support are not starts of the chain.
    """
    from glab.glauber import transition_matrix

    tm = transition_matrix(dist, validate=False)
    p_dense = tm.dense()
    ident = np.eye(tm.size)
    if stationary_distance_profile(tm, ident) <= eps:
        return 0, []
    prev_t, prev_m = 0, ident
    cur_t, cur_m = 1, p_dense
    bracket = [(cur_t, stationary_distance_profile(tm, cur_m))]
    while bracket[-1][1] > eps:
        if cur_t >= (1 << max_doublings):
            raise RuntimeError(f"no mixing below 2^{max_doublings} steps")
        prev_t, prev_m = cur_t, cur_m
        cur_m = cur_m @ cur_m
        cur_t *= 2
        bracket.append((cur_t, stationary_distance_profile(tm, cur_m)))
    t = prev_t
    mat = prev_m
    while True:
        mat = mat @ p_dense
        t += 1
        if stationary_distance_profile(tm, mat) <= eps:
            return t, bracket


def oracle_tv_profile(dist, t_max):
    """Worst-start TV at t = 0..t_max from dense powers of the support
    kernel, one product per step."""
    from glab.glauber import transition_matrix

    tm = transition_matrix(dist, validate=False)
    p_dense = tm.dense()
    mat = np.eye(tm.size)
    out = []
    for _ in range(t_max + 1):
        out.append(stationary_distance_profile(tm, mat))
        mat = mat @ p_dense
    return np.asarray(out)


def oracle_automorphisms(model):
    """Every (image, flip) automorphism of a model, by trying all n!
    site permutations with and without the global flip."""
    from itertools import permutations

    n = model.n
    edges = set(model.edges)
    lam = [float(x) for x in model.lam]
    out = set()
    for image in permutations(range(n)):
        if {tuple(sorted((image[u], image[v]))) for u, v in edges} != edges:
            continue
        if all(lam[image[v]] == lam[v] for v in range(n)):
            out.add((image, False))
        if all(lam[image[v]] == 1.0 / lam[v] for v in range(n)):
            out.add((image, True))
    return out


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


def oracle_mbf_rhs(dist, theta, f):
    """The magnetized-block functional, term by term over the blocks R.

    (Z_pi / theta^n) * sum_R (1-theta)^|R| theta^(n-|R|) * pi(all plus on R)
    * Ent of f under pi conditioned to all plus on R, where pi is the
    distribution magnetized by theta at every site; blocks whose all-plus
    event has no mass are skipped.  Like oracle_pinned_dobrushin_worst it
    reuses the package's magnetize, condition and entropy_functional.
    """
    from glab.exact import FieldAssignment, Pinning, condition, entropy_functional, magnetize

    n = dist.n
    z_pi = sum(p * theta ** bin(x).count("1") for x, p in enumerate(dist.prob))
    pi = magnetize(dist, FieldAssignment.uniform(n, theta))
    total = 0.0
    for r in range(1 << n):
        sites = [v for v in range(n) if (r >> v) & 1]
        mass = sum(p for x, p in enumerate(pi.prob) if x & r == r)
        if mass <= 0.0:
            continue
        ent = entropy_functional(condition(pi, Pinning.all_plus(sites)), f)
        total += (1.0 - theta) ** len(sites) * theta ** (n - len(sites)) * mass * ent
    return z_pi / theta ** n * total


def oracle_hf_direct(dist, k, ell, f):
    """The uniform-block average of the k-copy lift, block by block.

    Lifts the distribution and the function to the dense 2^(nk) cube
    (oracle_k_transform) and averages subset_conditional_entropy over
    every size-ell block of copy sites, one pass over the cube per block.
    """
    from glab.exact import as_values
    from glab.factorization import subset_conditional_entropy

    nk = dist.n * k
    lifted, base_index = oracle_k_transform(dist, k)
    fk = as_values(f, dist.n)[base_index]
    total = math.fsum(
        subset_conditional_entropy(lifted, S, fk) for S in combinations(range(nk), ell)
    )
    return total / math.comb(nk, ell)


def star_projection_table(base_n, k):
    """(feasible, base_index, plus_total) over all 2^(nk) lifted configurations.

    feasible marks configurations with at most one +1 per bucket;
    base_index applies the star projection (bucket has any +1 -> +1);
    plus_total counts +1 copies overall.  Copy (v, i) is bit v*k + i.
    """
    idx = np.arange(1 << (base_n * k), dtype=np.int64)
    feasible = np.ones(idx.shape, dtype=bool)
    base_index = np.zeros(idx.shape, dtype=np.int64)
    plus_total = np.zeros(idx.shape, dtype=np.int64)
    for v in range(base_n):
        cnt = sum((idx >> (v * k + i)) & 1 for i in range(k))
        feasible &= cnt <= 1
        base_index |= (cnt >= 1).astype(np.int64) << v
        plus_total += cnt
    return feasible, base_index, plus_total


def oracle_k_transform_weights(dist, k):
    """The k-copy lift's unnormalized weights over the whole 2^(nk) cube:
    p(base) * k^-(plus copies) on the feasible lifts, 0 elsewhere."""
    feasible, base_index, plus_total = star_projection_table(dist.n, k)
    return np.where(feasible, dist.prob[base_index] * np.exp(-plus_total * math.log(k)), 0.0)


def oracle_k_transform(dist, k):
    """(lifted table, star projection) of the k-copy lift, both over all
    2^(nk) lifted configurations: the lift as a DenseDistribution on nk
    sites, and the base configuration each lifted one projects to.  Every
    lifted function reads one or both."""
    from glab.exact import DenseDistribution

    _, base_index, _ = star_projection_table(dist.n, k)
    return DenseDistribution(dist.n * k, oracle_k_transform_weights(dist, k)), base_index


def oracle_compare_subset_route(dist, theta, v, f):
    """Subset-average side of the magnetized site-covariance identity.

    sum_R (1-theta)^|R| theta^(n-|R|) * pi(all plus on R) * the expected
    site-v covariance of (f, log f) under pi conditioned to all plus on R,
    one conditioned table per block R.  Like oracle_mbf_rhs it reuses the
    package's magnetize, condition, superset_sums and boundary_split.
    """
    from glab.exact import (FieldAssignment, Pinning, as_values, boundary_split, condition,
                            magnetize, popcount_table)
    from glab.factorization import superset_sums

    n = dist.n
    vals = as_values(f, n)
    pi = magnetize(dist, FieldAssignment.uniform(n, theta))
    log_theta = math.log(theta)
    log_one_minus = math.log1p(-theta)

    sup_p = superset_sums(pi.prob, np.ones(n))
    sizes = popcount_table(n)
    lhs = 0.0
    for r_mask in range(1 << n):
        mass = sup_p[r_mask]
        if mass <= 0:
            continue
        size = int(sizes[r_mask])
        weight = math.exp(size * log_one_minus + (n - size) * log_theta)
        pinned = condition(pi, Pinning.all_plus(mask_bits(r_mask)))
        lhs += weight * mass * boundary_split(pinned, v).expected_ment(vals)
    return lhs


def mask_bits(mask):
    """Elements of a face bitmask, increasing."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def _subface_masks(mask, j):
    """Masks of the j-element subsets of a face, one per combination."""
    from itertools import combinations

    out = []
    for comb in combinations(mask_bits(mask), j):
        sub = 0
        for b in comb:
            sub |= 1 << b
        out.append(sub)
    return out


def oracle_levels(k, faces, probs):
    """(faces, top_prob) of the downward closure of the support faces.

    Enumerates every subset of every support face into a set per level
    and sorts each level lexicographically by its elements.
    """
    support = [(int(m), float(p)) for m, p in zip(faces, probs) if p > 0]
    level_sets = [set() for _ in range(k + 1)]
    for m, _ in support:
        for j in range(k + 1):
            level_sets[j].update(_subface_masks(m, j))
    ordered = tuple(tuple(sorted(s, key=mask_bits)) for s in level_sets)
    top_index = {m: i for i, m in enumerate(ordered[k])}
    top_prob = np.zeros(len(ordered[k]))
    for m, p in support:
        top_prob[top_index[m]] = p
    return ordered, top_prob / float(np.sum(top_prob))


def oracle_down_matrix(levels, frm, to):
    """Row-stochastic matrix deleting frm - to elements uniformly."""
    col_index = {m: i for i, m in enumerate(levels.faces[to])}
    out = np.zeros((len(levels.faces[frm]), len(levels.faces[to])))
    w = 1.0 / math.comb(frm, to)
    for i, mask in enumerate(levels.faces[frm]):
        for sub in _subface_masks(mask, to):
            out[i, col_index[sub]] += w
    return out


def oracle_up_matrix(levels, j):
    """Row-stochastic matrix regrowing a level-j face to a top face in
    proportion to the top probabilities."""
    row_index = {m: i for i, m in enumerate(levels.faces[j])}
    out = np.zeros((len(levels.faces[j]), len(levels.faces[levels.k])))
    for t, mask in enumerate(levels.faces[levels.k]):
        for sub in _subface_masks(mask, j):
            out[row_index[sub], t] += levels.top_prob[t]
    return out / out.sum(axis=1, keepdims=True)


def oracle_run_chain(source, steps, seed, init=None, thin=1, label="glauber-chain"):
    """The per-step chain loop with a closure per mode, returning the
    thinned (steps, states) as lists of Python ints."""
    from glab.exact import DenseDistribution
    from glab.model import IsingModel
    from glab.rng import uniform_pairs

    if isinstance(source, IsingModel):
        n = source.n
        adj = source.neighbors()
        beta = source.beta
        lam = source.lam

        def plus_probability(state: int, v: int) -> float:
            mono_plus = 0
            deg = len(adj[v])
            for u in adj[v]:
                if (state >> u) & 1:
                    mono_plus += 1
            w_plus = lam[v] * beta ** mono_plus
            w_minus = beta ** (deg - mono_plus)
            return w_plus / (w_plus + w_minus)

    elif isinstance(source, DenseDistribution):
        n = source.n
        table = source.prob

        def plus_probability(state: int, v: int) -> float:
            hi = table[state | (1 << v)]
            lo = table[state & ~(1 << v)]
            if hi + lo <= 0:
                raise ValueError("chain reached a state with no conditional mass")
            return hi / (hi + lo)

    else:
        raise TypeError("source must be an IsingModel or a DenseDistribution")

    state = 0 if init is None else int(init)
    out_steps = [0]
    out_states = [state]
    chunk = 1 << 14
    done = 0
    while done < steps:
        take = min(chunk, steps - done)
        draws = uniform_pairs(seed, label, done, take)
        for r in range(take):
            t = done + r + 1
            v = int(draws[r, 0] * n)
            if v == n:
                v = n - 1
            if draws[r, 1] < plus_probability(state, v):
                state |= 1 << v
            else:
                state &= ~(1 << v)
            if t % thin == 0:
                out_steps.append(t)
                out_states.append(state)
        done += take
    return out_steps, out_states


def oracle_emit_series(path, header, rows):
    """The join-everything CSV writer: header line (if any) plus rows."""
    from glab.cli import _cell

    lines = []
    if header is not None:
        lines.append(",".join(header))
    width = len(header) if header is not None else None
    for row in rows:
        if width is None:
            width = len(row)  # without a header the first row sets the width
        if len(row) != width:
            raise ValueError("rows must match the header width")
        lines.append(",".join(_cell(x) for x in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return str(path)


def oracle_level_rows(levels):
    """(level, face, probability) rows, one `mask_bits` call per face."""
    from glab.walks import level_distribution

    rows = []
    for j in range(levels.k + 1):
        probs = level_distribution(levels, j)
        for mask, p in zip(levels.faces[j], probs):
            rows.append((j, "|".join(str(e) for e in mask_bits(mask)), float(p)))
    return rows


def mls_ratio(dist, f):
    """Dirichlet form over entropy; requires nondegenerate f."""
    from glab.exact import entropy_functional
    from glab.glauber import dirichlet_form

    ent = entropy_functional(dist, f)
    if ent <= 0:
        raise ValueError("entropy of f vanishes; the ratio is undefined")
    return dirichlet_form(dist, f) / ent


def _bfgs_ratio_and_grad(g, pi, i, j, w):
    g = g - float(np.mean(g))
    f = np.exp(g)
    s = float(np.sum(pi * f))
    ent = float(np.sum(pi * f * g)) - s * math.log(s)
    gi = g[i]
    gj = g[j]
    fi = f[i]
    fj = f[j]
    e = float(np.sum(w * (fi - fj) * (gi - gj)))
    if ent <= 1e-14 * s:
        return math.inf, np.zeros_like(g)
    de = np.zeros_like(g)
    np.add.at(de, i, w * (fi * (gi - gj) + (fi - fj)))
    np.add.at(de, j, w * (-fj * (gi - gj) - (fi - fj)))
    dent = pi * f * (g - math.log(s))
    ratio = e / ent
    grad = (de * ent - e * dent) / (ent * ent)
    return ratio, grad


def oracle_mls_estimate_bfgs(dist, restarts=32, seed=0, label="mls-estimate"):
    """The dense-BFGS multistart ratio search (maxiter 400, mean-centred
    objective, np.add.at gradient), returning (rho_hat, minimizer)."""
    from scipy.optimize import minimize

    from glab.glauber import _pair_arrays
    from glab.rng import derive_generator

    support = dist.support_indices
    m = support.size
    if m < 2:
        raise ValueError("ratio minimization needs at least two support states")
    pi = dist.prob[support]
    i, j, w = _pair_arrays(dist)

    def objective(g):
        return _bfgs_ratio_and_grad(g, pi, i, j, w)

    best_val = math.inf
    best_g = np.zeros(m)
    for r in range(restarts):
        gen = derive_generator(seed, label, r)
        g = gen.normal(0.0, 1.2, size=m)
        res = minimize(objective, g, jac=True, method="BFGS",
                       options={"maxiter": 400, "gtol": 1e-12})
        cand = float(res.fun)
        if cand < best_val:
            best_val = cand
            best_g = np.asarray(res.x, dtype=np.float64)

    best_g = best_g - float(np.mean(best_g))
    f = np.exp(best_g)
    f = f / float(np.sum(pi * f))
    full = np.ones(dist.prob.size)
    full[support] = f
    return best_val, full
