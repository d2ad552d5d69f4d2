"""Backend selection and stage driver for the cube transforms.

The C stage kernels (``_stages.c``, built on first import and loaded
through ctypes, see ``_stages``) are preferred; the numpy fallback is
selected automatically when they cannot be built or loaded, or explicitly
via ``CUBEFOURIER_PURE_PYTHON=1``.  ``LOAD_ERROR`` keeps the reason the C
kernels were not used (``None`` when they loaded).  Both backends run the
same stage schedule, so they agree to the last double.

The transforms take one table of 2^n entries or a C-contiguous (rows, 2^n)
batch.  Stage i pairs entries k and k + 2^i inside aligned runs of 2^(i+1)
entries, so in a flat buffer of whole rows no pair crosses a row: one call
transforms every row bitwise as it would be transformed alone.

The schedule has two phases.  Phase one runs the first ``_BLOCK_LOG2``
stages on one aligned run of 2^_BLOCK_LOG2 entries while it sits in cache,
run after run; for n <= _BLOCK_LOG2 a run holds whole rows, so a batch of
small tables costs a few long stage calls, not one per row.  Phase two runs
the remaining stages over the whole buffer.  Every element still goes
through the same stages in the same order, each produced by one fixed
arithmetic expression, so the output is bitwise identical to the plain
stage-after-stage loop, for every thread count.

Threading splits phase one's runs, and each phase-two stage's butterfly
blocks, into contiguous ranges on a module thread pool.  The C stages run
without the interpreter lock (ctypes releases it for each call), so the
workers run in parallel.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

import numpy as np

from . import _kernels_py, _stages
from .errors import InputError

LOAD_ERROR = None
if os.environ.get("CUBEFOURIER_PURE_PYTHON", "0") not in ("", "0"):
    _impl = _kernels_py
    BACKEND = "python"
    LOAD_ERROR = "compiled kernels not loaded: CUBEFOURIER_PURE_PYTHON is set"
else:
    try:
        _stages.load()
        _impl = _stages
        BACKEND = "compiled"
    except OSError as exc:  # no compiler, a failed build, an unwritable cache, a bad library
        _impl = _kernels_py
        BACKEND = "python"
        LOAD_ERROR = f"C stage kernels not loaded: {exc}"

# Phase one works on runs of 2^_BLOCK_LOG2 entries: 512 KiB of float64,
# which stays in a 2 MiB L2 across the run's stages.
_BLOCK_LOG2 = 16

# Below this table size, thread dispatch costs more than it saves.
_PARALLEL_MIN_SIZE = 1 << 16

_pool = None
_pool_size = 0
_pool_lock = threading.Lock()


def backend_name() -> str:
    return BACKEND


def get_pool(threads):
    """The module worker pool, created on first use and grown to `threads`."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool_size < threads:
            # A replaced pool's idle workers exit once it is collected.
            _pool = ThreadPoolExecutor(max_workers=threads, thread_name_prefix="cubefourier")
            _pool_size = threads
        return _pool


def _split(pool, fn, count, threads):
    """Run fn(lo, hi) over [0, count) as contiguous ranges, one per worker."""
    parts = min(threads, count)
    if pool is None or parts < 2:
        fn(0, count)
        return
    cuts = [(count * t) // parts for t in range(parts + 1)]
    futures = [pool.submit(fn, cuts[t], cuts[t + 1]) for t in range(parts)]
    wait(futures)
    for fut in futures:
        fut.result()


def _run_stages(v, stage, weights, threads):
    # The C stages write through a raw pointer, so check what they trust
    # first.  The float64 stage takes four weights, the int64 stage none.
    dtype = np.dtype(np.float64 if weights else np.int64)
    if not (
        isinstance(v, np.ndarray)
        and v.ndim
        and v.dtype == dtype
        and v.flags.c_contiguous
        and v.flags.writeable
    ):
        raise InputError(f"the transforms work in place on writable C-contiguous {dtype} arrays")
    if v.shape[-1] & (v.shape[-1] - 1):
        raise InputError(f"a table holds 2^n entries, not {v.shape[-1]}")
    flat = v.reshape(-1)  # a view: whole rows of 2^n entries, back to back
    size = flat.size
    n = v.shape[-1].bit_length() - 1
    low = min(n, _BLOCK_LOG2)
    use_pool = threads > 1 and size >= _PARALLEL_MIN_SIZE
    pool = get_pool(threads) if use_pool else None

    def low_stages(run_lo, run_hi):
        for r in range(run_lo, run_hi):
            # a short last run of a batch still ends on a row boundary
            start, end = r << _BLOCK_LOG2, min((r + 1) << _BLOCK_LOG2, size)
            for i in range(low):
                stage(flat, *weights, 1 << i, start >> (i + 1), end >> (i + 1))

    _split(pool, low_stages, -(-size >> _BLOCK_LOG2), threads)
    for i in range(low, n):
        _split(pool, partial(stage, flat, *weights, 1 << i), size >> (i + 1), threads)


def biased_forward_inplace(v, p: float, threads: int = 1) -> None:
    """Apply the n-stage forward butterfly for bias p to each float64 row."""
    c = math.sqrt(p * (1.0 - p))
    _run_stages(v, _impl.stage_f64, (1.0 - p, p, c, -c), threads)


def biased_inverse_inplace(v, p: float, threads: int = 1) -> None:
    """Apply the inverse butterfly (coefficients back to point values)."""
    r = math.sqrt(p / (1.0 - p))
    s = math.sqrt((1.0 - p) / p)
    _run_stages(v, _impl.stage_f64, (1.0, r, 1.0, -s), threads)


def wht_inplace(v, threads: int = 1) -> None:
    """Unnormalised integer Walsh-Hadamard transform of each int64 row."""
    _run_stages(v, _impl.stage_i64, (), threads)
