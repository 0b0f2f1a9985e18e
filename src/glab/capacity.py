"""Exact-enumeration capacity limits.

Every exact routine in this package materializes tables indexed by spin
configurations, so the number of sites it may enumerate is capped.  The
cap of 22 sites (4M configurations) keeps any single table under 64 MB
of float64.  The other limits are budgets in bytes or in work, each
checked before anything it counts is allocated or run.
"""

EXACT_LIMIT = 22

# Bytes an exact mixing-time computation may hold for R stepped rows
# over m support states: two m x R arrays the rows step between, in
# column blocks that read their TVs in the array each step came from,
# 16 m R bytes at any block width and CPU count.  2 GiB admits every row
# of m = 8192 states (13 sites without symmetry) and refuses m = 16384;
# the uniform-field cycle, stepping one row per orbit, fits up to 16
# sites (m = 65536, R = 1162) and not 17.
MIXING_BYTE_BUDGET = 2 ** 31

# Multiply-adds an exact mixing-time computation may spend: steps x R
# stepped rows x nonzeros of the kernel, checked before every step, so a
# torpid chain stops with CapacityError instead of stepping for hours.
# On a 2-core x86 machine (numpy 2.4, scipy 1.17) the 10-site complete
# graph at beta = 1.5 * 9/7, lambda = 1 (t_mix 207,170, R = 6: one block,
# so one lane) took 1.40e10 of them in 21 s, and the uniform 15-cycle at
# beta = 0.6 (t_mix 43, R = 612: six blocks over two lanes) 1.38e10 in
# 6.2 s, 13 s on one lane.  The budget is about 30 s of stepping on one
# lane and half that on two.  It admits both and stops the 16-site
# complete graph at beta = 1.5 * 15/13 (R = 9) after 3,426 steps, in 31 s.
MIXING_STEP_BUDGET = 2 ** 35

# Bytes a down-up walk level structure may take, counted per (top face,
# subface) pair: 1 GiB admits the homogenized 12-site distribution (4096
# faces of size 12, exactly 1 GiB by that count) and refuses 13 sites.
# It is the walks suite's only limit, since a homogenization is held on
# its 2^n faces.  On a 2-core x86 machine (numpy 2.4, one BLAS thread)
# build_levels took 1.9-2.5 s and peaked at 418 MB RSS on the 12-cycle,
# and the whole walks suite, which builds that one structure and the
# uniform 3-subsets of 6, 3.6-3.8 s and 419 MB.
LEVEL_BYTE_BUDGET = 2 ** 30

# (block, state) pairs a lifted block average may enumerate: C(nk, ell)
# blocks of copy sites times (k+1)^n feasible lifted states.  On a 2-core
# x86 machine (numpy 2.4) the 8-cycle at k = 2, ell = 8, 84.4M pairs,
# took 1.8-2.2 s, about 4e7 pairs/s, so the budget is about 25 s of work.
# It admits the 9-cycle at k = 2 (957M pairs at ell = 9).
BLOCK_PAIR_BUDGET = 2 ** 30

# Bytes the hypergeometric count-vector table may take to build, counted
# as 10 (k + 1) + 110 bytes per count vector.  That figure bounds the
# peak RSS growth of a build measured on a 2-core x86 machine (numpy
# 2.4): 131, 160, 199, 276 and 682 bytes per vector at k = 2, 4, 8, 16
# and 64 (the 8-cycle's k = 8 table, 2,306,025 vectors, grew RSS by
# 423 MB in 1.6 s).  4 GiB admits the 9-cycle at k = 8 (19,610,233
# vectors, 3.9e9 bytes) and refuses the 10-cycle (167,729,959 vectors).
PMF_TABLE_BYTE_BUDGET = 2 ** 32


# Field vectors one si_sup_estimate call may evaluate: its product grid
# of grid_points^n vectors plus its random draws.
MAX_FIELD_VECTORS = 100_000


class CapacityError(Exception):
    """Raised when a request exceeds the exact-enumeration budget."""


def check_site_count(n: int, what: str) -> None:
    """Fail fast when n sites exceed the exact limit."""
    if n > EXACT_LIMIT:
        raise CapacityError(f"{what} over {n} sites exceeds the exact limit of {EXACT_LIMIT}")
    if n < 0:
        raise ValueError(f"site count must be nonnegative, got {n}")
