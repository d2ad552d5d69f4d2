"""Reduction from a dyadically biased cube to the uniform cube.

A function f on n variables at bias p = t/2**m, given as the two integers t
and m, is pulled back to a function g on n*m uniform variables: each original coordinate i is decided by an
m-bit block, and reads 1 exactly when the block's integer value lies in the
top t of its 2**m possibilities.  Blocks occupy reduced mask bits
(i-1)*m .. i*m-1.

The construction preserves all the spectral structure this package checks:
squared coefficients of g aggregate exactly to those of f (per original
subset), total influence grows by at most the factor 6 p floor(log2(1/p))
when p <= 1/2, and spectral entropy never decreases.
"""

from __future__ import annotations

import numpy as np

from . import _SOURCES, kernels
from .boolfn import RealTable, TruthTable, as_bias, readonly
from .config import check_integer, check_table_size
from .conjecture import PROVEN_BOUND_SLACK, Check
from .errors import InputError
from .spectral import spectral_entropy, total_influence_spectral, transform

__all__ = list(_SOURCES["reduction"])


def _block_table(n: int, lut: np.ndarray) -> np.ndarray:
    """Bit i of entry y is lut[block i of y], for every mask y of n blocks of
    m bits, where lut has 2^m entries.

    Built from outer products: the table for blocks 1..i+1 is the table for
    blocks 1..i repeated once per value of block i+1, ORed with that
    block's bit.  Entries use the smallest unsigned type that holds them.
    """
    lut = lut.astype(np.min_scalar_type((1 << n) - 1))
    out = lut
    for i in range(1, n):
        out = ((lut << i)[:, None] | out[None, :]).ravel()
    return out


def _exact_bias(f: TruthTable | RealTable, t, m) -> tuple[int, int, float]:
    """t and m as ints and the bias t/2^m as a float, once t and m are
    integers with 1 <= t < 2^m and f's reduced table on f.n * m variables is
    within the size cap.

    Every check reads bit lengths or f.n * m, so a huge m is refused before
    2^m is built."""
    t = check_integer(t, "exact bias numerator t")
    m = check_integer(m, "exact bias exponent m")
    if not (t >= 1 and t.bit_length() <= m):
        raise InputError("exact bias needs integers 1 <= t < 2^m")
    if f.n < 1:
        raise InputError("need at least one original variable")
    check_table_size(f.n * m, "reduced table")
    return t, m, as_bias(t / (1 << m))


def reduce_table(f: TruthTable | RealTable, t: int, m: int):
    """Pull f back to the uniform cube on n*m variables at bias t/2^m."""
    t, m, _ = _exact_bias(f, t, m)
    # the original input mask selected by every reduced input mask: a block
    # makes its coordinate read 1 when its value is in the top t of 2^m
    x = _block_table(f.n, np.arange(1 << m) >= (1 << m) - t)
    if isinstance(f, TruthTable):
        return TruthTable(f.n * m, readonly(f.bits[x]))
    return RealTable(f.n * m, readonly(f.values[x]))


def floor_log2_reciprocal(t: int, m: int) -> int:
    """floor(log2(2^m / t)) computed in integer arithmetic."""
    return ((1 << m) // t).bit_length() - 1


def reduction_report(f: TruthTable | RealTable, t: int, m: int) -> dict:
    """Run all three reduction checks on one pair of spectra.

    The reduced table g is transformed at p = 1/2 in floating point.  Every
    butterfly weight there is +-1/2, so for a +-1 table each coefficient is
    exactly the dyadic rational the integer transform gives.
    """
    t, m, p = _exact_bias(f, t, m)
    g_spec = transform(reduce_table(f, t, m), 0.5)
    f_spec = transform(f, p)
    # the squares of g summed per block projection (the coordinates whose
    # block is nonempty), one run at a time; add.at adds into each bin in
    # index order, as bincount does
    proj, c = _block_table(f.n, np.arange(1 << m) != 0), g_spec.coeffs
    grouped = np.zeros(1 << f.n)
    step = 1 << kernels._BLOCK_LOG2
    for lo in range(0, c.size, step):
        w = c[lo : lo + step]
        np.add.at(grouped, proj[lo : lo + step], w * w)
    lhs = total_influence_spectral(g_spec)
    rhs = 6.0 * p * floor_log2_reciprocal(t, m) * total_influence_spectral(f_spec)
    reduced = spectral_entropy(g_spec)
    original = spectral_entropy(f_spec)
    return {
        "p": p,
        "t": t,
        "m": m,
        "red0_max_gap": float(np.max(np.abs(grouped - f_spec.squares()))),
        "red_fk": {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs + PROVEN_BOUND_SLACK)},
        "entropy": {
            "reduced": reduced,
            "original": original,
            "holds": bool(reduced >= original - PROVEN_BOUND_SLACK),
        },
    }


def reduction_checks(report: dict) -> tuple[Check, ...]:
    """The three inequalities of a :func:`reduction_report`.  The influence
    bound red_fk is proven for p <= 1/2 only: above it the floor term
    vanishes, and it is recorded.  The other two are proven at every bias."""
    gap, fk, ent = report["red0_max_gap"], report["red_fk"], report["entropy"]
    return (
        Check("red0", gap, 0.0, True, not gap > PROVEN_BOUND_SLACK),
        Check("red_fk", fk["lhs"], fk["rhs"], report["p"] <= 0.5, fk["holds"]),
        Check("entropy", ent["original"], ent["reduced"], True, ent["holds"]),
    )


def verify_red0(f: TruthTable | RealTable, t: int, m: int) -> float:
    """Max gap between aggregated reduced squares and original squares.

    Checks every original subset at once: squared coefficients of the
    reduced function, grouped by block projection, must reproduce the
    squared coefficients of f exactly.
    """
    return reduction_report(f, t, m)["red0_max_gap"]


def verify_red_fk(f: TruthTable | RealTable, t: int, m: int) -> tuple[float, float, bool]:
    """Check uniform influence of g against 6 p floor(log2(1/p)) I_p(f).

    The bound is proven for p <= 1/2 (see :func:`reduction_checks`).
    """
    fk = reduction_report(f, t, m)["red_fk"]
    return fk["lhs"], fk["rhs"], fk["holds"]


def verify_entropy_monotone(f: TruthTable | RealTable, t: int, m: int) -> tuple[float, float, bool]:
    """Spectral entropy may only grow under the reduction (up to slack)."""
    ent = reduction_report(f, t, m)["entropy"]
    return ent["reduced"], ent["original"], ent["holds"]
