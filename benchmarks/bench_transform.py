#!/usr/bin/env python3
"""Benchmark the butterfly kernels: C stages (through ctypes) vs numpy fallback.

Runs the full forward transform at several sizes with each backend driving
the same stage schedule, then reports times and the speedup.  Both produce
bitwise identical output, so only speed is at stake.  A second table times
the batched form that sweeps use: one mask-major (2**n, 4096) buffer of
small tables in one call, against a loop over the tables one at a time.

Usage: python benchmarks/bench_transform.py [--max-n 24]
"""

import argparse
import time

import numpy as np

from cubefourier import _kernels_py, _stages
from cubefourier.kernels import _run_stages

try:
    _stages.load()
    _compiled = _stages
except OSError as exc:
    print(f"C stage kernel not loaded: {exc}")
    _compiled = None


def bench(run, shape, repeats=3):
    rng = np.random.Generator(np.random.PCG64(42))
    base = rng.standard_normal(shape)
    best = float("inf")
    out = None
    for _ in range(repeats):
        v = base.copy()
        t0 = time.perf_counter()
        run(v)
        best = min(best, time.perf_counter() - t0)
        out = v
    return best, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=24)
    args = parser.parse_args()
    p = 0.3
    c = (p * (1.0 - p)) ** 0.5
    weights = (1.0 - p, p, c, -c)

    def driver(stage):
        return lambda v: _run_stages(v, stage, weights)

    print(f"{'n':>4} {'numpy':>12} {'compiled':>12} {'speedup':>9}  identical")
    for n in range(12, args.max_n + 1, 2):
        t_py, v_py = bench(driver(_kernels_py.stage_f64), 1 << n)
        if _compiled is None:
            print(f"{n:>4} {t_py:>11.4f}s {'n/a':>12} {'n/a':>9}")
            continue
        t_c, v_c = bench(driver(_compiled.stage_f64), 1 << n)
        same = np.array_equal(v_py, v_c)
        print(
            f"{n:>4} {t_py:>11.4f}s {t_c:>11.4f}s {t_py / t_c:>8.1f}x  {same}"
        )

    rows = 4096
    stage = (_compiled or _kernels_py).stage_f64
    run = driver(stage)
    print(f"\n{rows} rows, {'compiled' if _compiled else 'numpy'} stages")
    print(f"{'n':>4} {'batch':>12} {'row loop':>12}  identical")
    def loop(v):
        # the same tables, each copied out to a contiguous row and back
        tables = np.ascontiguousarray(v.T)
        for row in tables:
            run(row)
        v[...] = tables.T

    for n in range(3, 7):
        t_batch, v_batch = bench(run, (1 << n, rows))
        t_loop, v_loop = bench(loop, (1 << n, rows))
        same = np.array_equal(v_batch, v_loop)
        print(f"{n:>4} {t_batch * 1e3:>10.2f}ms {t_loop * 1e3:>10.2f}ms  {same}")


if __name__ == "__main__":
    main()
