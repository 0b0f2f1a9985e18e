"""Names shared by run.py and its workload processes.

Standard library only: run.py imports this module before it knows
whether the glab sources are present.
"""

WORKLOADS = ("hf-c5", "mixing", "wide-n8", "chain")

# End-to-end metrics gated in BENCHMARK.json, as (name, unit).  setup_s
# and wall_ref_s are the set-up time and the program's time per pass at
# the speed its reference kernels measure (see reference.py), which a
# change in host speed moves far less than wall times.  An untraced run also prints wall_s, ops_failed_frac and
# chain_steps_per_s, which are not gated: wall_s follows the host's
# speed, the second is 0 on three of the four workloads and the third
# exists only on `chain`.  The result's `attempted`/`failed` counts and
# the chain workload's wall_ref_s carry them instead.
END_TO_END = (("setup_s", "s"), ("wall_ref_s", "s"), ("peak_rss_mb", "MB"))

# Functions traced at their boundary, as (layer, function, inclusive).
# Every one reports <layer>.<fn>.calls and .self_s; inclusive ones, the
# entry points, also report .s (outermost calls only).
TRACED = (
    ("factorization", "hf_formula", True),
    ("factorization", "lbf_convergence", True),
    ("factorization", "hf_direct", False),
    ("factorization", "mbf_rhs", False),
    ("factorization", "superset_sums", False),
    ("factorization", "subset_conditional_entropy", False),
    ("exact", "magnetize", False),
    ("exact", "condition", False),
    ("exact", "entropy_functional", False),
    ("exact", "marginal", False),
    ("exact", "site_conditional_plus", False),
    ("exact", "enumerate_gibbs", True),
    ("model", "log_weight_table", False),
    ("spectral", "dobrushin_matrix", False),
    ("spectral", "signed_influence_matrix", False),
    ("spectral", "si_sup_estimate", False),
    ("spectral", "homogenize", False),
    ("transform", "k_transform", False),
    ("transform", "lifted_entropy_identity", False),
    ("transform", "ktrans_influence_check", False),
    ("walks", "build_levels", False),
    ("walks", "down_matrix", False),
    ("walks", "up_matrix", False),
    ("walks", "level_distribution", False),
    ("walks", "ubf_ed_identity_check", True),
    ("glauber", "mixing_time_exact", True),
    ("glauber", "transition_matrix", False),
    ("glauber", "mls_estimate", True),
    ("glauber", "verification_bounds_check", True),
    ("glauber", "compare_identity_check", False),
    ("glauber", "run_chain", True),
    ("rng", "uniform_pairs", False),
    ("rng", "derive_generator", False),
    ("cli", "run_suite", True),
    ("cli", "json_17g", False),
    ("cli", "emit_series", False),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TRACED))

SUITES = ("influence", "ktransform", "ubf", "mbf", "hf", "walks", "compare",
          "dobrushin", "verification", "mixing")

# Counters that are not spans: calls across the glauber -> scipy boundary,
# and quantities computed from a traced call's inputs and outputs.
COUNTERS = (
    ("glauber.minimize_scalar.calls", "count"),
    ("glauber.minimize.nit", "count"),
    ("glauber.mixing.squarings", "count"),
    ("glauber.mixing.gemm_flops", "flop"),
    ("glauber.mixing.dense_bytes", "B"),
    ("exact.table_bytes", "B"),
)
COMPUTED = frozenset(("glauber.mixing.squarings", "glauber.mixing.gemm_flops",
                      "glauber.mixing.dense_bytes", "exact.table_bytes"))


def per_layer_metrics():
    """Every per-layer metric of a traced run, as (name, unit), in order."""
    out = []
    for layer, fn, inclusive in TRACED:
        out.append((f"{layer}.{fn}.calls", "count"))
        out.append((f"{layer}.{fn}.self_s", "s"))
        if inclusive:
            out.append((f"{layer}.{fn}.s", "s"))
    out.extend((f"cli.suite.{suite}.s", "s") for suite in SUITES)
    out.extend(COUNTERS)
    out.extend((f"{layer}.errors", "count") for layer in LAYERS)
    out.append(("trace.overhead_s", "s"))
    return out
