"""Numpy fallback for the butterfly stage kernel.

Mirrors the compiled ``stage_f64`` exactly: same signature, same
per-element arithmetic (two multiplies then one add), so both backends
produce the same doubles.  The Walsh-Hadamard weights (1, 1, 1, -1) take
an add and a subtract instead, which give those same doubles.

A stage works through its pairs in pieces of at most ``_CHUNK`` pairs and
writes every result through ufunc ``out=`` into the table or into a small
per-thread scratch buffer, so it allocates nothing the size of the table.
"""

import threading

import numpy as np

# Pairs per piece.  A piece (512 KiB of float64) and its scratch (as much
# again) stay in a 2 MiB L2 across the piece's ufunc passes.  Smaller
# pieces cost more in per-call overhead, and, while callers in several
# threads run stages at once, in handing the interpreter lock back and forth.
_CHUNK = 1 << 15

# Scratch buffers, one per thread, for callers that transform in threads of
# their own: no two share one.  The package itself, sweeps included, runs
# every stage in the calling thread.
_local = threading.local()


def _scratch():
    buf = getattr(_local, "buf", None)
    if buf is None:
        buf = _local.buf = np.empty((2, _CHUNK), dtype=np.float64)
    return buf


def _pieces(v, h, block_lo, block_hi):
    """Yield (lo, hi) views of the stage's pairs, at most _CHUNK pairs each.

    For h <= _CHUNK a piece is a run of whole blocks; above it, a k-range
    inside one block.  Rows of 2 or 4 pairs are too short for numpy's inner
    loop, so for h <= 4 a run is split into its h strided columns.  ``lo``
    and ``hi`` have the same shape.
    """
    if h <= _CHUNK:
        step = _CHUNK // h
        for b in range(block_lo, block_hi, step):
            a = v[2 * h * b : 2 * h * min(b + step, block_hi)].reshape(-1, 2, h)
            if h <= 4:
                for j in range(h):
                    yield a[:, 0, j], a[:, 1, j]
            else:
                yield a[:, 0, :], a[:, 1, :]
    else:
        for b in range(block_lo, block_hi):
            base = 2 * h * b
            for k in range(base, base + h, _CHUNK):
                # a batch's h need not be a multiple of _CHUNK
                end = min(k + _CHUNK, base + h)
                yield v[k:end], v[k + h : end + h]


def stage_f64(v, w00, w01, w10, w11, h, block_lo, block_hi):
    s = _scratch()
    if (w00, w01, w10, w11) == (1.0, 1.0, 1.0, -1.0):
        # The Walsh-Hadamard weights: 1.0*x is exact and lo + (-hi) is
        # lo - hi, so an add and a subtract give the same doubles.
        for lo, hi in _pieces(v, h, block_lo, block_hi):
            t = s[0, : lo.size].reshape(lo.shape)
            np.add(lo, hi, out=t)
            np.subtract(lo, hi, out=hi)
            np.copyto(lo, t)
        return
    for lo, hi in _pieces(v, h, block_lo, block_hi):
        t, u = s[:, : lo.size].reshape(2, *lo.shape)
        np.multiply(lo, w10, out=t)
        np.multiply(lo, w00, out=lo)
        np.multiply(hi, w01, out=u)
        np.add(lo, u, out=lo)  # w00*lo + w01*hi
        np.multiply(hi, w11, out=hi)
        np.add(t, hi, out=hi)  # w10*lo + w11*hi
