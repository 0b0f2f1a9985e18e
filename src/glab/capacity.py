"""Exact-enumeration capacity limits.

Every exact routine in this package materializes tables indexed by spin
configurations, so the number of sites it may enumerate is capped.  The
default cap of 22 sites (4M configurations) keeps any single table under
64 MB of float64.  The environment variable GLAB_CAPACITY overrides the
cap for machines where a larger (or smaller) budget is appropriate.
"""

import os

DEFAULT_EXACT_LIMIT = 22

# Bytes of dense m x m arrays an exact mixing-time computation may hold at
# once: 2 GiB admits 4096 support states (the 12-site cycle) on an 8 GB
# machine and refuses 8192.
MIXING_BYTE_BUDGET = 2 ** 31


class CapacityError(Exception):
    """Raised when a request exceeds the exact-enumeration budget."""


def exact_limit() -> int:
    """Maximum number of sites exact enumeration will accept.

    Reads GLAB_CAPACITY on every call so tests can adjust it.
    """
    raw = os.environ.get("GLAB_CAPACITY")
    if raw is None:
        return DEFAULT_EXACT_LIMIT
    try:
        value = int(raw)
    except ValueError as exc:
        raise CapacityError(f"GLAB_CAPACITY must be an integer, got {raw!r}") from exc
    if value < 1:
        raise CapacityError(f"GLAB_CAPACITY must be positive, got {value}")
    return value


def check_site_count(n: int, what: str = "enumeration") -> None:
    """Fail fast when n sites exceed the exact budget."""
    limit = exact_limit()
    if n > limit:
        raise CapacityError(
            f"{what} over {n} sites exceeds the exact limit of {limit}; "
            "set GLAB_CAPACITY to raise it"
        )
    if n < 0:
        raise ValueError(f"site count must be nonnegative, got {n}")
