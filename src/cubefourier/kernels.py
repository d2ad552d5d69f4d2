"""Backend selection and stage driver for the cube transforms.

The compiled extension (``cubefourier._core``) is preferred; the numpy
fallback is selected automatically when the extension is unavailable, or
explicitly via ``CUBEFOURIER_PURE_PYTHON=1``.  ``LOAD_ERROR`` keeps the
reason the extension was not used (``None`` when it loaded).  Both backends
run the same stage schedule, so they agree to the last double.

The schedule has two phases.  Stage i pairs entries k and k + 2^i, so the
first ``_BLOCK_LOG2`` stages never cross a 2^_BLOCK_LOG2-entry block: phase
one runs all of them on one block while it sits in cache, block after
block.  Phase two runs the remaining stages over the whole table.  Every
element still goes through the same stages in the same order, each
produced by one fixed arithmetic expression, so the output is bitwise
identical to the plain stage-after-stage loop, for every thread count.

Threading splits phase one's blocks, and each phase-two stage's butterfly
blocks, into contiguous ranges on a module thread pool.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial

from . import _kernels_py

LOAD_ERROR = None
if os.environ.get("CUBEFOURIER_PURE_PYTHON", "0") not in ("", "0"):
    _impl = _kernels_py
    BACKEND = "python"
    LOAD_ERROR = "compiled kernels not loaded: CUBEFOURIER_PURE_PYTHON is set"
else:
    try:
        from . import _core as _impl

        BACKEND = "compiled"
    except ImportError as exc:
        _impl = _kernels_py
        BACKEND = "python"
        LOAD_ERROR = str(exc)

# Phase one works on blocks of 2^_BLOCK_LOG2 entries: 512 KiB of float64,
# which stays in a 2 MiB L2 across the block's stages.
_BLOCK_LOG2 = 16

# Below this table size, thread dispatch costs more than it saves.
_PARALLEL_MIN_SIZE = 1 << 16

_pool = None
_pool_size = 0
_pool_lock = threading.Lock()


def backend_name() -> str:
    return BACKEND


def _get_pool(threads):
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
    size = v.shape[0]
    n = size.bit_length() - 1
    low = min(n, _BLOCK_LOG2)
    use_pool = threads > 1 and size >= _PARALLEL_MIN_SIZE
    pool = _get_pool(threads) if use_pool else None

    def low_stages(block_lo, block_hi):
        for blk in range(block_lo, block_hi):
            for i in range(low):
                per = (1 << low) >> (i + 1)  # stage-i butterfly blocks per block
                stage(v, *weights, 1 << i, blk * per, (blk + 1) * per)

    _split(pool, low_stages, size >> low, threads)
    for i in range(low, n):
        _split(pool, partial(stage, v, *weights, 1 << i), size >> (i + 1), threads)


def biased_forward_inplace(v, p: float, threads: int = 1) -> None:
    """Apply the n-stage forward butterfly for bias p to a float64 array."""
    c = math.sqrt(p * (1.0 - p))
    _run_stages(v, _impl.stage_f64, (1.0 - p, p, c, -c), threads)


def biased_inverse_inplace(v, p: float, threads: int = 1) -> None:
    """Apply the inverse butterfly (coefficients back to point values)."""
    r = math.sqrt(p / (1.0 - p))
    s = math.sqrt((1.0 - p) / p)
    _run_stages(v, _impl.stage_f64, (1.0, r, 1.0, -s), threads)


def wht_inplace(v, threads: int = 1) -> None:
    """Unnormalised integer Walsh-Hadamard transform of an int64 array."""
    _run_stages(v, _impl.stage_i64, (), threads)
