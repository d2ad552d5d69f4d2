"""Backend selection and stage driver for the cube transforms.

Every transform runs one float64 butterfly stage with its own weights.
The C stage (``_stages.c``, built on first import and loaded through
ctypes, see ``_stages``) is preferred; the numpy fallback is selected
automatically when it cannot be built or loaded, or explicitly via
``CUBEFOURIER_PURE_PYTHON=1``.  ``LOAD_ERROR`` keeps the reason the C stage
was not used (``None`` when it loaded).  Both backends run the same stage
schedule, so they agree to the last double.

The transforms take one table of 2^n entries or a C-contiguous mask-major
(2^n, rows) batch: entry (S, r) is the coefficient at mask S of table r,
so each mask's row of the batch holds that entry of every table.  Stage i
pairs masks k and k + 2^i, which in the flat buffer are 2^i * rows entries
apart: it is the one-table stage at distance 2^i * rows, and it transforms
every table bitwise as it would be transformed alone.  A single table is
the case rows = 1.

The schedule has two phases.  Phase one runs the first ``low`` stages on
one run of 2^low consecutive masks of every table, at most
2^_BLOCK_LOG2 entries, while it sits in cache, run after run; for a single
table that run is an aligned 2^_BLOCK_LOG2-entry block, and for a batch of
small tables it can be the whole batch.  Phase two runs the remaining
stages over the whole buffer.  Every element still goes through the same
stages in the same order, each produced by one fixed arithmetic
expression, so the output is bitwise identical to the plain
stage-after-stage loop.

The transforms run in the calling thread: handing part of one transform
to a second thread was measured no faster on a 2-vCPU machine.  Callers
may transform separate arrays at once, each in its own thread, as the
sweep's chunk workers do; the C stages then run in parallel, since ctypes
releases the interpreter lock for each call.
"""

import math
import os

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
        LOAD_ERROR = f"C stage kernel not loaded: {exc}"

# Phase one works on runs of at most 2^_BLOCK_LOG2 entries: 512 KiB of
# float64, which stays in a 2 MiB L2 across the run's stages.
_BLOCK_LOG2 = 16


def backend_name() -> str:
    return BACKEND


def _run_stages(v, stage, weights):
    # The C stage writes through a raw pointer, so check what it trusts first.
    if not (
        isinstance(v, np.ndarray)
        and v.ndim
        and v.dtype == np.float64
        and v.flags.c_contiguous
        and v.flags.writeable
    ):
        raise InputError("the transforms work in place on writable C-contiguous float64 arrays")
    size = v.shape[0]
    if size < 1 or size & (size - 1):
        raise InputError(f"a table holds 2^n entries, not {size}")
    flat = v.reshape(-1)  # a view: 2^n rows of one entry per table
    n = size.bit_length() - 1
    rows = flat.size >> n
    if not rows:
        return
    # phase one covers the stages whose pairs stay inside 2^low masks of
    # every table, at most 2^_BLOCK_LOG2 entries
    low = min(n, max(0, _BLOCK_LOG2 - (rows - 1).bit_length()))
    run = rows << low
    for start in range(0, flat.size, run):
        for i in range(low):
            h = rows << i
            stage(flat, *weights, h, start // (2 * h), (start + run) // (2 * h))
    for i in range(low, n):
        h = rows << i
        stage(flat, *weights, h, 0, flat.size // (2 * h))


def biased_forward_inplace(v, p: float) -> None:
    """Apply the n-stage forward butterfly for bias p to each float64 table."""
    c = math.sqrt(p * (1.0 - p))
    _run_stages(v, _impl.stage_f64, (1.0 - p, p, c, -c))


def biased_inverse_inplace(v, p: float) -> None:
    """Apply the inverse butterfly (coefficients back to point values)."""
    r = math.sqrt(p / (1.0 - p))
    s = math.sqrt((1.0 - p) / p)
    _run_stages(v, _impl.stage_f64, (1.0, r, 1.0, -s))


def wht_inplace(v) -> None:
    """Unnormalised Walsh-Hadamard transform of each float64 table; on integer
    tables it is exact while every partial sum stays below 2^53."""
    _run_stages(v, _impl.stage_f64, (1.0, 1.0, 1.0, -1.0))
