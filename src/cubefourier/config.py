"""Runtime limits and defaults.

The variable-count cap bounds every 2**n allocation (2**26 doubles is about
0.5 GiB, which keeps desk-scale guarantees).  Override with
``CUBEFOURIER_MAX_N`` / :func:`set_max_n`.  The variable goes through the
setter at import, so a bad value raises :class:`InputError` naming it.
"""

import numbers
import os

from .errors import InputError, ResourceError

DEFAULT_MAX_N = 26

_max_n = DEFAULT_MAX_N


def get_max_n() -> int:
    return _max_n


def check_integer(value, what: str) -> int:
    """``value`` as an int; numpy integers pass, and a bool or a non-integer
    raises InputError naming ``what`` (bool is an Integral: True would run as 1)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def set_max_n(n: int) -> None:
    global _max_n
    if check_integer(n, "max_n") < 1:
        raise InputError(f"max_n must be an integer of at least 1, got {n!r}")
    _max_n = n


_env = os.environ.get("CUBEFOURIER_MAX_N")
if _env is not None:
    try:
        set_max_n(int(_env))
    except ValueError as exc:
        raise InputError(f"CUBEFOURIER_MAX_N={_env!r} is not valid: {exc}") from None


def check_table_size(n: int, what: str = "table") -> None:
    """Refuse an n that is not an integer or is negative, and allocations of
    2**n entries beyond the configured cap."""
    if check_integer(n, "variable count n") < 0:
        raise InputError(f"a {what} needs a variable count of at least 0, got {n}")
    if n > _max_n:
        raise ResourceError(
            f"{what} on {n} variables needs 2^{n} entries, over the cap of "
            f"n <= {_max_n}; raise it with set_max_n(), --max-n, or CUBEFOURIER_MAX_N"
        )
