"""Reduction from a dyadically biased cube to the uniform cube.

A function f on n variables at bias p = t/2**m is pulled back to a function
g on n*m uniform variables: each original coordinate i is decided by an
m-bit block, and reads 1 exactly when the block's integer value lies in the
top t of its 2**m possibilities.  Blocks occupy reduced mask bits
(i-1)*m .. i*m-1.

The construction preserves all the spectral structure this package checks:
squared coefficients of g aggregate exactly to those of f (per original
subset), total influence grows by at most the factor 6 p floor(log2(1/p))
when p <= 1/2, and spectral entropy never decreases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .boolfn import Bias, RealTable, TruthTable, readonly
from .config import check_table_size
from .conjecture import PROVEN_BOUND_SLACK
from .errors import InputError
from .spectral import spectral_entropy, total_influence_spectral, transform

__all__ = [
    "ReductionLayout",
    "layout_for",
    "reduce_table",
    "block_projection",
    "floor_log2_reciprocal",
    "verify_red0",
    "verify_red_fk",
    "verify_entropy_monotone",
    "reduction_report",
]


@dataclass(frozen=True)
class ReductionLayout:
    """Index bookkeeping for one reduction instance."""

    n_original: int
    t: int
    m: int

    def __post_init__(self):
        if self.n_original < 1:
            raise InputError("need at least one original variable")
        Bias.exact(self.t, self.m)
        check_table_size(self.n_reduced, "reduced table")

    @property
    def n_reduced(self) -> int:
        return self.n_original * self.m

    @property
    def threshold(self) -> int:
        """Block values >= threshold make the original coordinate read 1."""
        return (1 << self.m) - self.t


def _block_table(layout: ReductionLayout, lut: np.ndarray) -> np.ndarray:
    """Bit i of entry y is lut[block i of y], for every reduced mask y.

    Built from outer products: the table for blocks 1..i+1 is the table for
    blocks 1..i repeated once per value of block i+1, ORed with that
    block's bit.  Entries use the smallest unsigned type that holds them.
    """
    lut = lut.astype(np.min_scalar_type((1 << layout.n_original) - 1))
    out = lut
    for i in range(1, layout.n_original):
        out = ((lut << i)[:, None] | out[None, :]).ravel()
    return out


def _original_table(layout: ReductionLayout) -> np.ndarray:
    """Original input mask selected by every reduced input mask."""
    return _block_table(layout, np.arange(1 << layout.m) >= layout.threshold)


def _projection_table(layout: ReductionLayout) -> np.ndarray:
    """Block projection of every reduced subset mask."""
    return _block_table(layout, np.arange(1 << layout.m) != 0)


def _exact_bias(p: Bias) -> tuple[int, int]:
    if not isinstance(p, Bias) or not p.is_exact:
        raise InputError(
            "the reduction is defined only for exact dyadic biases t/2^m; "
            "construct one with Bias.exact(t, m)"
        )
    return p.t, p.m


def layout_for(n: int, p: Bias) -> ReductionLayout:
    t, m = _exact_bias(p)
    return ReductionLayout(n, t, m)


def reduce_table(f: TruthTable | RealTable, p: Bias):
    """Pull f back to the uniform cube on n*m variables."""
    layout = layout_for(f.n, p)
    x = _original_table(layout)
    if isinstance(f, TruthTable):
        return TruthTable(layout.n_reduced, readonly(f.bits[x]))
    return RealTable(layout.n_reduced, readonly(f.values[x]))


def block_projection(layout: ReductionLayout, masks: np.ndarray) -> np.ndarray:
    """Original subset mask whose block pattern matches each reduced mask.

    A reduced subset S projects to the original subset containing exactly
    the coordinates whose block in S is nonempty.
    """
    masks = np.asarray(masks, dtype=np.int64)
    if masks.size and (masks.min() < 0 or masks.max() >= 1 << layout.n_reduced):
        raise InputError(
            f"reduced masks must lie in [0, 2^{layout.n_reduced}) for this layout"
        )
    return _projection_table(layout)[masks].astype(np.int64)


def floor_log2_reciprocal(t: int, m: int) -> int:
    """floor(log2(2^m / t)) computed in integer arithmetic."""
    return ((1 << m) // t).bit_length() - 1


def reduction_report(f: TruthTable | RealTable, p: Bias) -> dict:
    """Run all three reduction checks on one pair of spectra.

    The reduced table g is transformed at p = 1/2 in floating point.  Every
    butterfly weight there is +-1/2, so for a +-1 table each coefficient is
    exactly the dyadic rational the integer transform gives.
    """
    t, m = _exact_bias(p)
    layout = ReductionLayout(f.n, t, m)
    g_spec = transform(reduce_table(f, p), 0.5)
    f_spec = transform(f, p)
    # the squares of g summed per block projection, one block at a time;
    # add.at adds into each bin in index order, as bincount does
    proj, c = _projection_table(layout), g_spec.coeffs
    grouped = np.zeros(1 << f.n)
    step = 1 << kernels._BLOCK_LOG2
    for lo in range(0, c.size, step):
        w = c[lo : lo + step]
        np.add.at(grouped, proj[lo : lo + step], w * w)
    lhs = total_influence_spectral(g_spec)
    rhs = 6.0 * (t / (1 << m)) * floor_log2_reciprocal(t, m) * total_influence_spectral(f_spec)
    reduced = spectral_entropy(g_spec)
    original = spectral_entropy(f_spec)
    return {
        "p": t / (1 << m),
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


def verify_red0(f: TruthTable | RealTable, p: Bias) -> float:
    """Max gap between aggregated reduced squares and original squares.

    Checks every original subset at once: squared coefficients of the
    reduced function, grouped by block projection, must reproduce the
    squared coefficients of f exactly.
    """
    return reduction_report(f, p)["red0_max_gap"]


def verify_red_fk(f: TruthTable | RealTable, p: Bias) -> tuple[float, float, bool]:
    """Check uniform influence of g against 6 p floor(log2(1/p)) I_p(f).

    The bound is proven for p <= 1/2; above that the floor term vanishes
    and the comparison is reported but not meaningful.
    """
    fk = reduction_report(f, p)["red_fk"]
    return fk["lhs"], fk["rhs"], fk["holds"]


def verify_entropy_monotone(f: TruthTable | RealTable, p: Bias) -> tuple[float, float, bool]:
    """Spectral entropy may only grow under the reduction (up to slack)."""
    ent = reduction_report(f, p)["entropy"]
    return ent["reduced"], ent["original"], ent["holds"]
