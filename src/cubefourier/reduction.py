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

g is f composed with the block threshold h, so g's squares factor as
w_g(T) = w_f(S) * prod_{i in S} u(T_i), S the block projection of T and u
the nonempty squared uniform spectrum of (h - p)/sqrt(p(1 - p)), which sums
to 1 (O'Donnell and Tan, ICALP 2013).  :func:`reduction_report` reads its
numbers off f's spectrum at p and h's closed form; only :func:`reduce_table`
builds g.
"""

from __future__ import annotations

import math

import numpy as np

from . import _SOURCES
from .boolfn import TruthTable, readonly
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


def _exact_bias(f: TruthTable, t, m) -> tuple[int, int, float]:
    """t and m as ints and the bias t/2^m as a float, once t and m are integers
    with 1 <= t < 2^m and m <= 1074, the float is below 1, and f is within the cap.

    Every check reads bit lengths, m or f.n, so a huge m is refused before
    2^m is built."""
    t = check_integer(t, "exact bias numerator t")
    m = check_integer(m, "exact bias exponent m")
    if not (t >= 1 and t.bit_length() <= m):
        raise InputError("exact bias needs integers 1 <= t < 2^m")
    check_table_size(f.n)
    if m > 1074:
        raise InputError(f"exact bias exponent m must be at most 1074, got {m}:"
                         " 2^-1074 is the smallest positive double")
    p = t / (1 << m)
    if p == 1.0:
        raise InputError(f"exact bias t/2^m with t = {t}, m = {m} rounds to 1.0 as a double")
    return t, m, p


def reduce_table(f: TruthTable, t: int, m: int) -> TruthTable:
    """Pull f back to the uniform cube on n*m variables at bias t/2^m."""
    t, m, _ = _exact_bias(f, t, m)
    check_table_size(f.n * m, "reduced table")
    # the original input mask selected by every reduced input mask: a block
    # makes its coordinate read 1 when its value is in the top t of 2^m
    x = _block_table(f.n, np.arange(1 << m) >= (1 << m) - t)
    return TruthTable(f.n * m, readonly(f.bits[x]))


def floor_log2_reciprocal(t: int, m: int) -> int:
    """floor(log2(2^m / t)) computed in integer arithmetic."""
    return ((1 << m) // t).bit_length() - 1


def _block_influence(t: int, m: int) -> float:
    """B, the total influence of the block threshold h, as the double nearest
    2(m t - 2 P(t))/2^m.  h's top t values are the complements of 0 .. t-1,
    a segment with P(t) edges inside and m t - 2 P(t) leaving it, where P(t)
    counts the 1 bits of 0 .. t-1: bit k is 1 in 2^k of every 2^(k+1)
    consecutive values."""
    ones = sum((t >> (k + 1) << k) + max(0, (t & ((2 << k) - 1)) - (1 << k)) for k in range(m))
    return 2 * (m * t - 2 * ones) / (1 << m)


def _block_spectrum(t: int, m: int) -> tuple[float, float]:
    """H(u), the entropy of the block's squares u, and the sum of u in doubles.

    Split h on its top bit: one half is constant, the other the threshold
    on m - 1 bits with t_(m-1) = t, or t - 2^(m-1) when t is larger.  Each
    nonempty square of that threshold becomes two a quarter its size, and
    its mean gives one more.  So u holds a_j^2 / (t(2^m - t)), 2^(m-j)
    times, with a_j = min(t_j, 2^j - t_j) for j = m .. 1.  Terms go through
    log2 of the integers, so a bias of 3 * 2^-600 does not underflow.
    """
    d = t * ((1 << m) - t)
    log_d = math.log2(d)
    entropy = mass = 0.0
    for j in range(m, 0, -1):
        half = 1 << (j - 1)
        a = min(t, 2 * half - t)
        if a == 0:  # t_j = 2^j: the threshold is constant from here down
            break
        w = (a * a << (m - j)) / d
        entropy += w * (log_d - 2 * math.log2(a))
        mass += w
        t -= half if t > half else 0
    return entropy, mass


def reduction_report(f: TruthTable, t: int, m: int) -> dict:
    """Run all three reduction checks from f's spectrum at p and h's closed form.

    By the factorisation in the module docstring, I(g) = B I_p(f) and
    Ent(g) = Ent_p(f) + H(u) sum_S |S| w_f(S).  g's squares summed per block
    projection are w_f(S) sigma^|S|, sigma the sum of u: the red0 gap is
    the largest w_f(S) |sigma^|S| - 1| for sigma summed in doubles.
    """
    t, m, p = _exact_bias(f, t, m)
    f_spec = transform(f, p)
    block_entropy, sigma = _block_spectrum(t, m)
    infl = total_influence_spectral(f_spec)
    peaks = f_spec.level_sums().peaks[0]
    gap = np.max(peaks * peaks * np.abs(sigma ** np.arange(f.n + 1) - 1.0))
    lhs = _block_influence(t, m) * infl
    rhs = 6.0 * p * floor_log2_reciprocal(t, m) * infl
    original = spectral_entropy(f_spec)
    reduced = original + block_entropy * float(f_spec.sums().level_mass[0])
    return {
        "p": p,
        "t": t,
        "m": m,
        "red0_max_gap": float(gap),
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


def verify_red0(f: TruthTable, t: int, m: int) -> float:
    """Max gap between aggregated reduced squares and original squares.

    Checks every original subset at once: squared coefficients of the
    reduced function, grouped by block projection, must reproduce the
    squared coefficients of f exactly.
    """
    return reduction_report(f, t, m)["red0_max_gap"]


def verify_red_fk(f: TruthTable, t: int, m: int) -> tuple[float, float, bool]:
    """Check uniform influence of g against 6 p floor(log2(1/p)) I_p(f).

    The bound is proven for p <= 1/2 (see :func:`reduction_checks`).
    """
    fk = reduction_report(f, t, m)["red_fk"]
    return fk["lhs"], fk["rhs"], fk["holds"]


def verify_entropy_monotone(f: TruthTable, t: int, m: int) -> tuple[float, float, bool]:
    """Spectral entropy may only grow under the reduction (up to slack)."""
    ent = reduction_report(f, t, m)["entropy"]
    return ent["reduced"], ent["original"], ent["holds"]
