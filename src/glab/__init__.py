"""Exact desk-scale laboratory for Glauber dynamics on the spin cube.

Small models are enumerated exactly; influence and correlation matrices,
block factorization of entropy, down-up walk contraction, and mixing
claims are all checked against brute-force values with explicit
tolerances.  The cli module adds named check suites with deterministic
reports.
"""

__version__ = "0.1.0"

from .capacity import CapacityError
from .exact import (
    DenseDistribution,
    Pinning,
    condition,
    enumerate_gibbs,
    entropy_functional,
    magnetize,
    magnetized_partition,
    marginal,
    total_variation,
)
from .factorization import (
    CheckReport,
    HyperGeoSpec,
    hf_direct,
    hf_formula,
    hf_pair,
    hypergeo_concentration,
    kappa,
    kappa_binomial,
    lbf_convergence,
    mbf_constant,
    mbf_rhs,
    ubf_chain_constant,
)
from .glauber import (
    compare_identity_check,
    dirichlet_form,
    dobrushin_bound,
    mixing_time_exact,
    mls_estimate,
    mls_mixing_bound,
    run_chain,
    tensorization_chain_check,
    transition_matrix,
    verification_bounds_check,
)
from .model import (
    IsingModel,
    complete_edges,
    cycle_edges,
    delta_interior,
    in_delta_interior,
    load_model,
    model_to_json,
    parse_model,
    path_edges,
    star_edges,
)
from .spectral import (
    correlation_matrix,
    dobrushin_matrix,
    homog_spectrum_check,
    homogenize,
    matrix_report,
    si_sup_estimate,
    signed_influence_matrix,
)
from .transform import (
    k_transform,
    ktrans_influence_check,
    lift_function,
    lifted_entropy_identity,
    star_pushforward,
)
from .walks import (
    build_levels,
    homogenized_levels,
    ubf_ed_identity,
    ubf_ed_identity_check,
    uniform_slice_levels,
)

__all__ = [name for name in dir() if not name.startswith("_")]
