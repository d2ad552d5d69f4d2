"""Runtime limits and defaults.

The variable-count cap bounds every 2**n allocation (2**26 doubles is about
0.5 GiB, which keeps desk-scale guarantees).  Override with
``CUBEFOURIER_MAX_N`` / :func:`set_max_n`.  The thread count, set with
``CUBEFOURIER_THREADS`` / :func:`set_threads`, is the width of the pool an
exhaustive or sampled sweep maps its chunks on; the transforms always run
in the calling thread.  Both variables go through the setters at import, so
a bad value raises :class:`InputError` naming it.
"""

import numbers
import os

from .errors import InputError, ResourceError

DEFAULT_MAX_N = 26

_max_n = DEFAULT_MAX_N
_threads = 1


def get_max_n() -> int:
    return _max_n


def _check_count(value, what: str) -> None:
    if not isinstance(value, numbers.Integral) or value < 1:
        raise InputError(f"{what} must be an integer of at least 1, got {value!r}")


def set_max_n(n: int) -> None:
    global _max_n
    _check_count(n, "max_n")
    _max_n = n


def get_threads() -> int:
    return _threads


def set_threads(count: int) -> None:
    global _threads
    _check_count(count, "thread count")
    _threads = count


def _apply_env(name: str, setter) -> None:
    raw = os.environ.get(name)
    if raw is None:
        return
    try:
        setter(int(raw))
    except ValueError as exc:
        raise InputError(f"{name}={raw!r} is not valid: {exc}") from None


_apply_env("CUBEFOURIER_MAX_N", set_max_n)
_apply_env("CUBEFOURIER_THREADS", set_threads)


def check_table_size(n: int, what: str = "table") -> None:
    """Refuse a negative n, and allocations of 2**n entries beyond the configured cap."""
    if n < 0:
        raise InputError(f"a {what} needs a variable count of at least 0, got {n}")
    if n > _max_n:
        raise ResourceError(
            f"{what} on {n} variables needs 2^{n} entries, over the cap of "
            f"n <= {_max_n}; raise it with set_max_n(), --max-n, or CUBEFOURIER_MAX_N"
        )
