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


def oracle_magnetize(dist, phi):
    """{spin tuple: probability} of dist reweighted by the product of
    phi[v] over the plus sites v and renormalized."""
    weights = {}
    for spins, p in table_of(dist).items():
        for v, s in enumerate(spins):
            if s == 1:
                p *= float(phi[v])
        weights[spins] = p
    total = sum(weights.values())
    return {spins: w / total for spins, w in weights.items()}


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

    from glab.exact import magnetize
    from glab.rng import derive_generator
    from glab.spectral import FIELD_HI, FIELD_LO

    def evaluate(phi):
        m = oracle_influence(magnetize(dist, phi))
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
    est = {"value": best, "norm": "inf_norm", "maximizing_field": list(best_phi),
           "fields_evaluated": len(pairs),
           "note": "lower bound on the all-fields supremum (sampled fields only)"}
    return est, pairs


def oracle_min_sum_total(cost):
    """Least total of an assignment of rows to columns, by scipy's
    linear_sum_assignment."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(np.sum(cost[rows, cols]))


def oracle_match_spectra(a, b):
    """Largest gap in the pairing of least summed gaps that scipy's
    linear_sum_assignment finds."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(np.asarray(a, dtype=np.complex128)[:, None]
                  - np.asarray(b, dtype=np.complex128)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


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

    tm = transition_matrix(dist)
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


def oracle_step_rows(tm, rows, eps):
    """(t, worst TV at every step 0..t, least |TV - eps| seen) by stepping
    every start row at once in one m x R array, a fresh one per step."""
    m, r = tm.size, rows.size
    step_op = tm.matrix.T.tocsr()
    pi = tm.stationary[:, None]
    x = np.zeros((m, r))
    x[rows, np.arange(r)] = 1.0
    buf = np.empty((m, r))
    tvs = []
    margin = math.inf
    while True:
        np.subtract(x, pi, out=buf)
        np.abs(buf, out=buf)
        tv = 0.5 * float(np.max(np.sum(buf, axis=0)))
        tvs.append(tv)
        margin = min(margin, abs(tv - eps))
        if tv <= eps:
            return len(tvs) - 1, np.asarray(tvs), margin
        x = step_op @ x


def oracle_tv_profile(dist, t_max):
    """Worst-start TV at t = 0..t_max from dense powers of the support
    kernel, one product per step."""
    from glab.glauber import transition_matrix

    tm = transition_matrix(dist)
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
    from glab.exact import Pinning, condition, entropy_functional, magnetize

    n = dist.n
    z_pi = sum(p * theta ** bin(x).count("1") for x, p in enumerate(dist.prob))
    pi = magnetize(dist, np.full(n, theta))
    total = 0.0
    for r in range(1 << n):
        sites = [v for v in range(n) if (r >> v) & 1]
        mass = sum(p for x, p in enumerate(pi.prob) if x & r == r)
        if mass <= 0.0:
            continue
        ent = entropy_functional(condition(pi, Pinning.all_plus(sites)), f)
        total += (1.0 - theta) ** len(sites) * theta ** (n - len(sites)) * mass * ent
    return z_pi / theta ** n * total


def oracle_field_dynamics_entropy(dist, theta, f):
    """E[Ent of f given R] under the down step of field dynamics FD_theta.

    The down step keeps each plus site of sigma ~ dist with probability
    1-theta, forming R; the up step resamples from pi_theta (dist with
    the field theta at every site) conditioned to all plus on R.  Lists
    every sigma and R within the plus sites of sigma with the weight
    mu(sigma) (1-theta)^|R| theta^(|plus(sigma)| - |R|), groups the
    weights by R, and sums each group's mass times the entropy of f under
    the group's normalized law.
    """
    n = dist.n
    vals = np.asarray(f, dtype=np.float64)
    groups = {}
    for sigma, p in enumerate(dist.prob):
        plus = [v for v in range(n) if (sigma >> v) & 1]
        for size in range(len(plus) + 1):
            for kept in combinations(plus, size):
                r = sum(1 << v for v in kept)
                w = p * (1.0 - theta) ** size * theta ** (len(plus) - size)
                groups.setdefault(r, []).append((w, vals[sigma]))
    total = 0.0
    for pairs in groups.values():
        mass = sum(w for w, _ in pairs)
        if mass <= 0.0:
            continue
        mean = sum(w * x for w, x in pairs) / mass
        mean_xlogx = sum(w * x * math.log(x) for w, x in pairs if x > 0) / mass
        total += mass * (mean_xlogx - mean * math.log(mean))
    return total


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
    from glab.exact import (Pinning, as_values, boundary_split, condition, magnetize,
                            popcount_table)
    from glab.factorization import superset_sums

    n = dist.n
    vals = as_values(f, n)
    pi = magnetize(dist, np.full(n, theta))
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


def oracle_levels(k, faces, law):
    """(faces, top law) of the downward closure of the given top faces.

    Enumerates every subset of every top face into a set per level and
    sorts each level lexicographically by its elements; the law comes
    back aligned with the sorted top faces and divided by its sum.
    """
    level_sets = [set() for _ in range(k + 1)]
    for m in faces:
        for j in range(k + 1):
            level_sets[j].update(_subface_masks(int(m), j))
    ordered = tuple(tuple(sorted(s, key=mask_bits)) for s in level_sets)
    top_index = {m: i for i, m in enumerate(ordered[k])}
    top = np.zeros(len(ordered[k]))
    for m, p in zip(faces, law):
        top[top_index[int(m)]] = p
    return ordered, top / float(np.sum(top))


def oracle_down_matrix(levels, frm, to):
    """Row-stochastic matrix deleting frm - to elements uniformly."""
    col_index = {m: i for i, m in enumerate(levels.faces[to])}
    out = np.zeros((len(levels.faces[frm]), len(levels.faces[to])))
    w = 1.0 / math.comb(frm, to)
    for i, mask in enumerate(levels.faces[frm]):
        for sub in _subface_masks(mask, to):
            out[i, col_index[sub]] += w
    return out


def oracle_up_matrix(levels, mu, j):
    """Matrix regrowing a level-j face to a top face in proportion to the
    top law mu; zero rows for the faces mu does not reach."""
    row_index = {m: i for i, m in enumerate(levels.faces[j])}
    out = np.zeros((len(levels.faces[j]), len(levels.faces[levels.k])))
    for t, mask in enumerate(levels.faces[levels.k]):
        for sub in _subface_masks(mask, j):
            out[row_index[sub], t] += mu[t]
    for row in out:
        total = row.sum()
        if total > 0:
            row /= total
    return out


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


def _oracle_cell(x):
    """A cell as text: an int in decimal, a float to 17 significant
    digits, a str as it is."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not math.isfinite(x):
            raise ValueError("non-finite value cannot be serialized")
        return format(float(x), ".17g")
    raise TypeError(f"no text for a cell of type {type(x).__name__}")


def oracle_emit_series(path, header, rows):
    """The join-everything CSV writer: header line (if any) plus rows,
    each cell formatted on its own."""
    lines = []
    if header is not None:
        lines.append(",".join(header))
    width = len(header) if header is not None else None
    for row in rows:
        if width is None:
            width = len(row)  # without a header the first row sets the width
        if len(row) != width:
            raise ValueError("rows must match the header width")
        lines.append(",".join(_oracle_cell(x) for x in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return str(path)


def oracle_level_rows(levels, mu):
    """(level, face, probability) rows of the faces the top law mu
    reaches, one `mask_bits` call per face."""
    from glab.walks import level_distribution

    rows = []
    for j in range(levels.k + 1):
        probs = level_distribution(levels, mu, j)
        for mask, p in zip(levels.faces[j], probs):
            if p > 0:
                rows.append((j, "|".join(str(e) for e in mask_bits(mask)), float(p)))
    return rows


def mls_ratio(dist, f):
    """Dirichlet form over entropy; requires nondegenerate f."""
    from glab.exact import entropy_functional
    from glab.glauber import dirichlet_form

    ent = entropy_functional(dist, f)
    if ent <= 0:
        raise ValueError("entropy of f vanishes; the ratio is undefined")
    return dirichlet_form(dist, [f])[0] / ent


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


def oracle_pair_arrays(dist):
    """Brute-force pair list of the chain's edges: for each site v, then
    each support state s with -1 at v whose flip t at v is in the support,
    the support positions of s and t and the edge weight pi(s) P(s,t)."""
    support = [int(x) for x in dist.support_indices]
    pos = {x: k for k, x in enumerate(support)}
    ii, jj, ww = [], [], []
    for v in range(dist.n):
        for s in support:
            t = s | (1 << v)
            if s != t and t in pos:
                p_s, p_t = dist.prob[s], dist.prob[t]
                ii.append(pos[s])
                jj.append(pos[t])
                ww.append(p_s * p_t / (p_s + p_t) / dist.n)
    return np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64), np.array(ww)


def oracle_mls_estimate_bfgs(dist, restarts=32, seed=0, label="mls-estimate"):
    """The dense-BFGS multistart ratio search (maxiter 400, mean-centred
    objective, np.add.at gradient), returning (rho_hat, minimizer)."""
    from scipy.optimize import minimize

    from glab.rng import derive_generator

    support = dist.support_indices
    m = support.size
    if m < 2:
        raise ValueError("ratio minimization needs at least two support states")
    pi = dist.prob[support]
    i, j, w = oracle_pair_arrays(dist)

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


# ---------------------------------------------------------------------------
# tables, laws and conversions that only the tests use


def distribution_from_weights(weights):
    """Normalize a nonnegative weight vector of length 2^n."""
    from glab.exact import DenseDistribution

    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0 or (w.size & (w.size - 1)) != 0:
        raise ValueError("weights must have length 2^n")
    n = w.size.bit_length() - 1
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    total = float(np.sum(w))
    if total <= 0:
        raise ValueError("weights must have positive total mass")
    return DenseDistribution(n, w / total)


def uniform_distribution(n):
    from glab.capacity import check_site_count
    from glab.exact import DenseDistribution

    check_site_count(n, "uniform table")
    size = 1 << n
    return DenseDistribution(n, np.full(size, 1.0 / size))


def flip(dist, chi):
    """Pushforward under sigma -> sigma * chi (coordinatewise signs)."""
    from glab.exact import DenseDistribution

    chi = np.asarray(chi, dtype=np.int64)
    if chi.shape != (dist.n,) or not np.all(np.abs(chi) == 1):
        raise ValueError("chi must be a +-1 vector of length n")
    flipmask = 0
    for v in range(dist.n):
        if chi[v] == -1:
            flipmask |= 1 << v
    idx = np.arange(1 << dist.n, dtype=np.int64)
    return DenseDistribution(dist.n, dist.prob[idx ^ flipmask])


def point_mass(n, index):
    from glab.exact import DenseDistribution

    p = np.zeros(1 << n)
    p[index] = 1.0
    return DenseDistribution(n, p)


def kl_divergence(nu, mu):
    """KL(nu || mu); requires support(nu) contained in support(mu)."""
    from glab.exact import _kl

    if nu.n != mu.n:
        raise ValueError("distributions must live on the same sites")
    return _kl(nu.prob, mu.prob)


def hypergeo_pmf(spec, counts):
    """Exact pmf value prod_v C(k, a_v) / C(nk, ell); zero off support."""
    from fractions import Fraction

    a = list(counts)
    if len(a) != spec.n:
        raise ValueError(f"need {spec.n} counts, got {len(a)}")
    if any(int(x) != x for x in a):
        raise ValueError("counts must be integers")
    a = [int(x) for x in a]
    if any(x < 0 for x in a):
        raise ValueError("counts must be nonnegative")
    if sum(a) != spec.ell or any(x > spec.k for x in a):
        return 0.0
    num = 1
    for x in a:
        num *= math.comb(spec.k, x)
    return float(Fraction(num, math.comb(spec.n * spec.k, spec.ell)))


def hypergeo_sample(spec, seed, size):
    """Draw count vectors bucket by bucket; shape (size, n)."""
    from glab.rng import derive_generator

    gen = derive_generator(seed, "hypergeo")
    out = np.zeros((size, spec.n), dtype=np.int64)
    remaining = np.full(size, spec.ell, dtype=np.int64)
    for v in range(spec.n):
        nbad = spec.k * (spec.n - v - 1)
        if nbad == 0:
            draw = remaining.copy()
        else:
            draw = gen.hypergeometric(spec.k, nbad, remaining)
        out[:, v] = draw
        remaining = remaining - draw
    return out


def config_index(spins):
    """Bit-packed index of a +-1 configuration (bit v set means +1 at v)."""
    out = 0
    for v, s in enumerate(spins):
        if s == 1:
            out |= 1 << v
        elif s != -1:
            raise ValueError(f"spin values must be +-1, got {s}")
    return out


def spins_from_index(index, n):
    """Inverse of config_index."""
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} sites")
    bits = (index >> np.arange(n)) & 1
    return (2 * bits - 1).astype(np.int64)


def uniqueness_thresholds(max_degree):
    """Antiferro/ferro uniqueness thresholds ((D-2)/D, D/(D-2)) for D >= 3."""
    if max_degree < 3:
        raise ValueError(f"thresholds are defined for max degree >= 3, got {max_degree}")
    return (max_degree - 2) / max_degree, max_degree / (max_degree - 2)
