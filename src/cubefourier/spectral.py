"""Fourier analysis on the (possibly biased) discrete cube.

Under the product measure where each stored bit is 1 with probability p,
the orthonormal characters are indexed by subset masks S and the transform
is computed in place by n butterfly stages, one per coordinate, in O(n 2^n)
time.  Stage order is fixed (coordinate 1 first) so results are bitwise
reproducible across backends.

The coefficient at subset mask S lives at index S of the coefficient array;
coordinate i corresponds to mask bit i-1.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import numbers
import struct
from contextlib import nullcontext

import numpy as np

from . import _SOURCES, kernels
from .boolfn import (
    Frozen,
    TruthTable,
    _check_coordinate,
    as_bias,
    frozen_array,
    frozen_table,
    level_array,
    mask_array,
    readonly,
    table_entries,
)
from .config import check_table_size
from .errors import InputError

__all__ = list(_SOURCES["spectral"])


class Spectrum(Frozen):
    """Transform coefficients of one function at one bias."""

    _fields = ("n", "p", "coeffs")
    __slots__ = (*_fields, "_sums", "_level_sums")
    n: int
    p: float
    coeffs: np.ndarray  # float64, index = subset mask, read-only

    def __init__(self, n: int, p: float, coeffs):
        arr = frozen_table(n, coeffs, np.float64, "spectrum", "coefficients")
        self._set(n=n, p=as_bias(p), coeffs=arr, _sums=None, _level_sums=None)

    @property
    def size(self) -> int:
        return 1 << self.n

    def sums(self) -> "SquareSums":
        """The sums of :func:`square_sums`, computed on first use and shared."""
        return self._cached("_sums", square_sums)

    def level_sums(self) -> "LevelSums":
        """The sums of :func:`level_sums`, computed on first use and shared."""
        return self._cached("_level_sums", level_sums)

    def _cached(self, key: str, compute):
        value = getattr(self, key)
        if value is None:
            value = compute(self.coeffs.reshape(-1, 1))
            self._set(**{key: value})
        return value

    def squares(self) -> np.ndarray:
        """Squared coefficients, as a fresh read-only table on every call."""
        return readonly(self.coeffs * self.coeffs)


_NUMERATOR_LIMIT = 2.0**53


class DyadicSpectrum(Spectrum):
    """Exact uniform-measure coefficients: the p = 1/2 spectrum with
    coeff(S) = numerators[S] / 2**n for integer numerators.

    The float64 butterfly computes them exactly (see ``exact_transform``).
    For a +-1 valued function the numerators always fit: their squares sum
    to 4**n.  Numerators must be integers of magnitude below 2**53, where
    doubles hold every integer and every quotient by 2**n exactly; 2**53
    itself is refused, as the integer 2**53 + 1 rounds onto it.
    """

    __slots__ = ()

    def __init__(self, n: int, numerators):
        # read once into the rint buffer, so the numerators need no frozen copy
        nums = table_entries(n, numerators, np.float64, "spectrum", "numerators")
        coeffs = np.rint(nums)
        if not (
            np.array_equal(coeffs, nums)
            and -_NUMERATOR_LIMIT < coeffs.min()
            and coeffs.max() < _NUMERATOR_LIMIT
        ):
            raise InputError("exact spectrum numerators must be integers of magnitude below 2^53")
        super().__init__(n, 0.5, readonly(np.ldexp(coeffs, -n, out=coeffs)))

    @classmethod
    def _from_buffer(cls, n: int, numerators: np.ndarray) -> "DyadicSpectrum":
        """The spectrum of numerators the caller computed and hands over:
        a writable float64 buffer of integers below 2**53 by construction,
        scaled in place and not checked again."""
        self = cls.__new__(cls)
        Spectrum.__init__(self, n, 0.5, readonly(np.ldexp(numerators, -n, out=numerators)))
        return self

    @property
    def numerators(self) -> np.ndarray:
        """coeffs * 2**n: integer-valued float64, as a fresh read-only table."""
        return readonly(np.ldexp(self.coeffs, self.n))


class LevelProfile(Frozen):
    """Squared coefficient mass per level |S| = 0 .. n.

    ``exact`` carries the same numbers as Fractions when the profile came
    from exact arithmetic; float ``weights`` are always present.
    """

    _fields = ("n", "weights")
    __slots__ = (*_fields, "exact")
    n: int
    weights: np.ndarray  # float64, length n + 1, read-only
    exact: tuple[Fraction, ...] | None

    def __init__(self, n: int, weights, exact: tuple[Fraction, ...] | None = None):
        arr = frozen_array(weights, np.float64, n + 1, f"{n + 1} level weights")
        if exact is not None and len(exact) != n + 1:
            raise InputError("exact profile length mismatch")
        self._set(n=n, weights=arr, exact=exact)

    @classmethod
    def from_numerators(cls, n: int, numerators, denom: int) -> "LevelProfile":
        """Exact profile with weights numerators[k] / denom, floats rounded from them."""
        from fractions import Fraction

        exact = tuple(Fraction(num, denom) for num in numerators)
        return cls(n, np.array([float(x) for x in exact], dtype=np.float64), exact=exact)

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))

    def mean_level(self) -> float:
        return float(np.sum(np.arange(self.n + 1) * self.weights))

    def variance(self) -> float:
        levels = np.arange(self.n + 1, dtype=np.float64)
        mean = self.mean_level()
        return float(np.sum((levels - mean) ** 2 * self.weights))


# ---------------------------------------------------------------------------
# transforms


def transform(f: TruthTable, p=0.5) -> Spectrum:
    """Coefficients of f in the orthonormal basis of the p-biased measure."""
    p = as_bias(p)
    v = f.sign_values()  # fresh, writable copy
    kernels.biased_forward_inplace(v, p)
    return Spectrum(f.n, p, readonly(v))


def inverse_transform(spec: Spectrum) -> np.ndarray:
    """The function's values from its coefficients: a read-only float64 array."""
    v = spec.coeffs.copy()
    kernels.biased_inverse_inplace(v, spec.p)
    return readonly(v)


def exact_transform(f: TruthTable) -> DyadicSpectrum:
    """Uniform-measure coefficients as exact integer numerators over 2**n.

    The butterfly runs in doubles on the +-1 values: every partial sum is an
    integer of magnitude at most 2**n, below the 2**53 limit of ``DyadicSpectrum``
    up to n = 32, so the result is scaled in place without that check.
    """
    if f.n > 32:
        raise InputError("exact transform needs 1 to 32 variables")
    v = f.sign_values()  # fresh, writable
    kernels.wht_inplace(v)
    return DyadicSpectrum._from_buffer(f.n, v)


# ---------------------------------------------------------------------------
# derived quantities


class SquareSums(Frozen):
    """Sums over the squared coefficients w = c*c of each table of a (2^n, rows) batch.

    Built by :func:`square_sums`.  Every array is read-only and has one
    entry (or one row) per table; ``coords`` is None only where the sweep
    skipped the coordinate fold, which no caller of ``square_sums`` sees.
    """

    __slots__ = _fields = ("n", "total", "plogp", "level_mass", "coords")
    n: int
    total: np.ndarray  # sum of w
    plogp: np.ndarray  # sum of w log2 w over w > 0
    level_mass: np.ndarray  # sum of |S| w
    coords: np.ndarray | None  # (rows, n): sum of w over the sets containing i + 1

    def __init__(self, n: int, total: np.ndarray, plogp: np.ndarray,
                 level_mass: np.ndarray, coords: np.ndarray | None):
        self._set(n=n, total=readonly(total), plogp=readonly(plogp),
                  level_mass=readonly(level_mass),
                  coords=coords if coords is None else readonly(coords))

    def entropy(self) -> np.ndarray:
        """Shannon entropy (bits) of each table's squares.

        The squares of a +-1 valued function sum to 1, so this is the entropy
        of a probability distribution; for other tables it is the same sum
        taken literally.
        """
        # + 0.0 turns the -0.0 of a point-mass spectrum into plain zero
        return -self.plogp + 0.0

    def influence(self, p: float) -> np.ndarray:
        """Sum of |S| times squared coefficient, over 4p(1-p)."""
        return self.level_mass / (4.0 * p * (1.0 - p))

    def coordinate_influences(self, p: float) -> np.ndarray:
        """Inf_i: the squared mass on the sets containing i, over 4p(1-p)."""
        return self.coords / (4.0 * p * (1.0 - p))


class LevelSums(Frozen):
    """Per-level sums of each table of a (2^n, rows) coefficient batch.

    Built by :func:`level_sums`; both arrays are read-only, (rows, n + 1).
    """

    __slots__ = _fields = ("n", "levels", "peaks")
    n: int
    levels: np.ndarray  # sum of c*c over |S| = k
    peaks: np.ndarray  # largest |c| over |S| = k, NaN ignored

    def __init__(self, n: int, levels: np.ndarray, peaks: np.ndarray):
        self._set(n=n, levels=readonly(levels), peaks=readonly(peaks))

    def degree(self, tol: float) -> np.ndarray:
        """Largest level holding a coefficient above ``tol`` in magnitude, else 0."""
        return np.max(np.where(self.peaks > tol, np.arange(self.n + 1), 0), axis=-1)


# w log2 w is taken as w log2 max(w, _TINY): the smallest subnormal leaves
# every w > 0 unchanged and gives 0 * -1074 = 0 for w = 0.
_TINY = 5e-324


@functools.lru_cache(maxsize=None)
def _level_layout(m: int):
    """|S| of each of 2^m masks as a float64 column, the masks sorted by
    level, and where each level starts in that order."""
    levels = level_array(m)
    order = np.argsort(levels, kind="stable")
    starts = np.searchsorted(levels[order], np.arange(m + 1))
    floats = levels.astype(np.float64)[:, None]
    for arr in (floats, order, starts):
        arr.setflags(write=False)
    return floats, order, starts


def _mask_sum(x: np.ndarray, out: np.ndarray, acc: np.ndarray | None = None) -> None:
    """out[r] = np.add.reduce(x[:, r]), bit for bit, for x of shape (N, rows).

    One column is that reduce itself.  Wider arrays repeat its pairwise
    order one whole row of x at a time: runs of 8 to 128 rows go into eight
    strided accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
    and followed by the rows left over; shorter runs are added in order
    onto 0.0; longer runs are split in two, the first part a multiple of 8
    rows.  The partial sums live in the rows of ``acc``, which has x's
    shape and defaults to x itself, which is then overwritten.
    """
    if x.shape[1] == 1:
        np.add.reduce(x, axis=0, out=out)
    else:
        np.add(_pairwise(x, x if acc is None else acc), 0.0, out=out)


def _pairwise(x: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of the rows of x, left in a row of acc (returned)."""
    size = x.shape[0]
    if size < 8:
        r = acc[0]
        np.add(x[0], 0.0, out=r)
        for i in range(1, size):
            np.add(r, x[i], out=r)
        return r
    if size <= 128:
        r = acc[:8]
        np.copyto(r, x[:8])
        whole = size - size % 8
        for i in range(8, whole, 8):
            np.add(r, x[i : i + 8], out=r)
        np.add(r[0::2], r[1::2], out=r[0::2])
        np.add(r[0::4], r[2::4], out=r[0::4])
        np.add(r[0], r[4], out=r[0])
        for i in range(whole, size):
            np.add(r[0], x[i], out=r[0])
        return r[0]
    half = size // 2 - size // 2 % 8
    lo = _pairwise(x[:half], acc[:half])
    return np.add(lo, _pairwise(x[half:], acc[half:]), out=lo)


def _fold_coordinates(x: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """out[:, i] = sum of x[j] over the masks j with bit i set, for x of shape (2^m, rows).

    Folds from the top bit: the upper half sums to that bit's value, and
    the upper half added onto the lower half leaves the same problem on
    the bits below.  The folded halves go into ``scratch``, of x's shape;
    x and scratch are overwritten.
    """
    for i in reversed(range(x.shape[0].bit_length() - 1)):
        h = 1 << i
        upper = x[h : 2 * h]
        if i:
            np.add(x[:h], upper, out=scratch[:h])
        _mask_sum(upper, out[:, i])
        x = scratch[:h]


def _pair_sums(a: np.ndarray) -> np.ndarray:
    """Sum along axis 0 in adjacent pairs, as np.sum halves a power-of-two length."""
    while a.shape[0] > 1:
        a = a[0::2] + a[1::2]
    return a[0]


def _mask_blocks(coeffs: np.ndarray, what: str):
    """Check a (2^n, rows) batch; return it as float64, n and the block size m.

    A block is 2^m = 2^min(n, _BLOCK_LOG2) consecutive masks of every table:
    for one table, an aligned block of the butterfly's phase-one size.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    size = coeffs.shape[0] if coeffs.ndim == 2 else 0
    if size < 1 or size & (size - 1):
        raise InputError(f"{what} takes a (2^n, rows) array, not shape {coeffs.shape}")
    n = size.bit_length() - 1
    return coeffs, n, min(n, kernels._BLOCK_LOG2)


def square_sums(coeffs: np.ndarray, work: np.ndarray | None = None, coords=True) -> SquareSums:
    """All of :class:`SquareSums` for a (2^n, rows) coefficient batch in one pass.

    The pass walks blocks of 2^min(n, _BLOCK_LOG2) masks of every table,
    each squared into the first row of ``work``, a (2, k) float64 array of
    at least one block per row, whose second row is scratch; without it two
    block buffers are allocated.  That first row may be the memory of
    ``coeffs`` itself, which is then overwritten with squares: a caller done
    with its coefficients needs no third buffer.  Every sum over masks
    takes numpy's pairwise order (see ``_mask_sum``), so each table gets the
    bits it gets alone, and a single table's Σw is ``np.sum`` of its
    squares.  For n > _BLOCK_LOG2 the block results are combined in a
    fixed order:

    * total, plogp and level_mass add the block sums in adjacent pairs,
      which reproduces the pairwise sum of the whole table bit for bit;
    * the coordinates above the block take the block totals, folded as the
      masks are inside a block.

    With ``coords`` false the coordinate fold is skipped and
    ``SquareSums.coords`` is None; the other sums keep the same bits.
    """
    coeffs, n, m = _mask_blocks(coeffs, "square_sums")
    rows = coeffs.shape[1]
    blocks = 1 << (n - m)
    if work is None:
        work = np.empty((2, rows << m))
    floats = _level_layout(m)[0]
    total, plogp, level_mass = (np.empty((blocks, rows)) for _ in range(3))
    part_coords = np.empty((blocks, rows, m)) if coords else None
    for b in range(blocks):
        c = coeffs[b << m : (b + 1) << m]
        w, t = (buf[: c.size].reshape(c.shape) for buf in work)
        np.multiply(c, c, out=w)
        _mask_sum(w, total[b], acc=t)
        np.maximum(w, _TINY, out=t)
        np.log2(t, out=t)
        np.multiply(w, t, out=t)
        _mask_sum(t, plogp[b])
        # every mask of block b has popcount(b) more set bits than its index
        np.add(floats, b.bit_count(), out=t)
        np.multiply(t, w, out=t)
        _mask_sum(t, level_mass[b])
        if coords:
            _fold_coordinates(w, t, part_coords[b])
    sums = _pair_sums(total)
    folded = None
    if coords:
        folded = np.empty((rows, n))
        folded[:, :m] = _pair_sums(part_coords)
        _fold_coordinates(total, np.empty_like(total), folded[:, m:])
    return SquareSums(n, sums, _pair_sums(plogp), _pair_sums(level_mass), folded)


def level_sums(coeffs: np.ndarray) -> LevelSums:
    """All of :class:`LevelSums` for a (2^n, rows) coefficient batch.

    Walks the same blocks as :func:`square_sums`.  Each block is gathered
    once in level order, so the level sums and maxima are one ``reduceat``
    along the masks each, which adds every table's entries as it adds them
    alone; a block's levels then move up by the popcount of its index.
    Only the quantities that read the level profile pay for the gather.
    """
    coeffs, n, m = _mask_blocks(coeffs, "level_sums")
    rows = coeffs.shape[1]
    blocks = 1 << (n - m)
    _, order, starts = _level_layout(m)
    part_levels = np.empty((blocks, m + 1, rows))
    part_peaks = np.empty((blocks, m + 1, rows))
    buf = np.empty((1 << m, rows))  # reused by every block
    for b in range(blocks):
        c = coeffs[b << m : (b + 1) << m]
        # |c| in level order ("wrap" never acts on these indices; it skips a
        # buffered copy), and |c| * |c| is c * c to the bit
        np.abs(np.take(c, order, axis=0, out=buf, mode="wrap"), out=buf)
        np.fmax.reduceat(buf, starts, axis=0, out=part_peaks[b])
        np.add.reduceat(np.multiply(buf, buf, out=buf), starts, axis=0, out=part_levels[b])
    offsets = np.bitwise_count(np.arange(blocks))
    levels = np.zeros((rows, n + 1))
    peaks = np.zeros((rows, n + 1))
    for k in range(n - m + 1):
        sel = offsets == k
        levels[:, k : k + m + 1] += np.sum(part_levels[sel], axis=0).T
        np.fmax(peaks[:, k : k + m + 1], np.fmax.reduce(part_peaks[sel], axis=0).T,
                out=peaks[:, k : k + m + 1])
    return LevelSums(n, levels, peaks)


def spectral_entropy(spec: Spectrum) -> float:
    """Shannon entropy (bits) of the squared-coefficient distribution."""
    return float(spec.sums().entropy()[0])


def total_influence_spectral(spec: Spectrum) -> float:
    """Sum of |S| times squared coefficient, scaled by 1/(4p(1-p))."""
    return float(spec.sums().influence(spec.p)[0])


def coordinate_influences(spec: Spectrum) -> np.ndarray:
    """All n coordinate influences from the spectrum."""
    return spec.sums().coordinate_influences(spec.p)[0]


def _level_probabilities(n: int, p: float) -> np.ndarray:
    """p^k (1-p)^(n-k) for k = 0 .. n: the mass of one mask at each level."""
    ones = np.arange(n + 1, dtype=np.float64)
    return np.power(p, ones) * np.power(1.0 - p, n - ones)


def measure_weights(n: int, p: float) -> np.ndarray:
    """Probability of each mask under the product measure (bit 1 w.p. p)."""
    return _level_probabilities(n, p)[level_array(n)]


def influence_combinatorial(f: TruthTable, i: int, p=0.5) -> float:
    """Probability that flipping coordinate i changes the output."""
    p = as_bias(p)
    _check_coordinate(f.n, i)
    masks = mask_array(f.n)
    flipped = f.bits[masks ^ (1 << (i - 1))]
    diff = f.bits != flipped
    return float(np.sum(measure_weights(f.n, p)[diff]))


def influence_vector(f: TruthTable, p=0.5) -> np.ndarray:
    """All n coordinate influences from their definition (the oracle path).

    Independent of the spectrum; :func:`coordinate_influences` is the fast
    path and is checked against this one.
    """
    return np.array(
        [influence_combinatorial(f, i, p) for i in range(1, f.n + 1)], dtype=np.float64
    )


def level_profile(spec: Spectrum) -> LevelProfile:
    if isinstance(spec, DyadicSpectrum):
        return exact_level_profile(spec)
    return LevelProfile(spec.n, spec.level_sums().levels[0])


def exact_level_profile(dspec: DyadicSpectrum) -> LevelProfile:
    """Squared mass per level as Fractions over the common denominator 4**n.

    The float level sums of the coefficients, scaled by 4**n, are sums of
    squared integer numerators.  When their computed total is at most 2**52
    the true total is below 2**53, so every square and every partial sum
    was an integer that doubles hold exactly.  Otherwise the numerators of
    the nonzero coefficients are squared and summed as Python integers.
    """
    n = dspec.n
    sums = np.ldexp(dspec.level_sums().levels[0], 2 * n)
    if np.sum(sums) <= 2.0**52:
        sums = [int(x) for x in sums.tolist()]
    else:
        live = np.flatnonzero(dspec.coeffs)
        nums = np.ldexp(dspec.coeffs[live], n).tolist()
        sums = [0] * (n + 1)
        for lvl, num in zip(level_array(n)[live].tolist(), nums):
            sums[lvl] += int(num) ** 2
    return LevelProfile.from_numerators(n, sums, 1 << (2 * n))


def degree(spec: Spectrum, tol: float = 1e-9) -> int:
    """Largest |S| carrying a coefficient; exact spectra ignore ``tol``."""
    if isinstance(spec, DyadicSpectrum):
        tol = 0.0
    return int(spec.level_sums().degree(tol)[0])


def top_masks(values: np.ndarray, k: int, key=None) -> np.ndarray:
    """Indices of the k largest keys: decreasing, ties by ascending index.

    The key of each entry is ``key(values)`` for a unary ufunc such as
    ``np.abs`` or ``np.square``, or the value itself when ``key`` is None.
    Equal to ``np.argsort(-keys, kind="stable")[:k]`` (NaN keys come last),
    but the keys are taken one aligned block of 2^_BLOCK_LOG2 entries at a
    time in one reused buffer.  Each block passes on its own first k entries
    in that order: those strictly above its k-th largest key, then the ties
    with it by ascending index.  Only those candidates are sorted.  ``k`` is
    clipped to the array size.
    """
    k = min(max(int(k), 0), values.size)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    step = 1 << kernels._BLOCK_LOG2
    buf = np.empty(min(values.size, step))
    masks, negs = [], []
    for lo in range(0, values.size, step):
        v = buf[: min(step, values.size - lo)]
        block = values[lo : lo + v.size]
        if key is None:
            np.negative(block, out=v)
        else:
            np.negative(key(block, out=v), out=v)
        if v.size <= k:
            keep = np.arange(v.size)
        else:
            # the k smallest of -key: ascending sort order puts NaN last
            cut = np.partition(v, k - 1)[k - 1]
            if np.isnan(cut):
                tied = np.isnan(v)
                ahead = np.flatnonzero(~tied)
            else:
                tied = v == cut
                ahead = np.flatnonzero(v < cut)
            keep = np.concatenate((ahead, np.flatnonzero(tied)[: k - ahead.size]))
        masks.append(keep + lo)
        negs.append(v[keep])
    masks, negs = np.concatenate(masks), np.concatenate(negs)
    return masks[np.argsort(negs, kind="stable")[:k]]


def support_size(spec: Spectrum, epsilon: float) -> tuple[int, float]:
    """Size and captured weight of the epsilon-support of :func:`min_support`.

    Taking squares in decreasing order gives the same partial sums whatever
    the order among ties, so a plain sort replaces the stable argsort and
    both numbers are bitwise equal to the ones ``min_support`` reports.
    Only the nonzero squares are sorted: the zeros trail and never change
    the running sum.  The one working array is a copy of the nonzero
    coefficients, squared, sorted and summed in place.
    """
    if not (isinstance(epsilon, numbers.Real) and math.isfinite(epsilon) and epsilon >= 0.0):
        raise InputError(f"epsilon must be finite and nonnegative, got {epsilon!r}")
    c = spec.coeffs
    total = float(spec.sums().total[0])
    if not math.isfinite(total):
        # a NaN or infinite square: no cut exists, every mask is kept
        return c.size, total
    if total <= epsilon:
        return 0, 0.0
    live = c[c != 0.0]
    np.multiply(live, live, out=live)
    live.sort()
    # squares that underflow to 0 sort first; drop them as well
    live = live[np.searchsorted(live, 0.0, side="right") :]
    captured = live[::-1]
    np.cumsum(captured, out=captured)
    # the complement weight total - captured[i] only shrinks with i, so the
    # first i where it is <= epsilon is found by bisection; when rounding
    # keeps it above epsilon to the end (the pairwise total can exceed the
    # running sum by an ulp), every mask is kept
    cut = bisect.bisect_left(captured, True, key=lambda s: total - s <= epsilon)
    if cut == captured.size:
        return c.size, float(captured[-1])
    return cut + 1, float(captured[cut])


def min_support(spec: Spectrum, epsilon: float):
    """Smallest set of subset masks whose complement weight is <= epsilon.

    Masks are taken in order of decreasing squared coefficient, ties broken
    by ascending mask, so the answer is deterministic.  Returns the mask
    array and the weight it captures.
    """
    keep, captured = support_size(spec, epsilon)
    return top_masks(spec.coeffs, keep, key=np.square), captured


def parseval_gap(spec: Spectrum, f: TruthTable) -> float:
    """|sum of squared coefficients - E[f^2]| under the spectrum's measure,
    where E[f^2] = 1 is the sum over levels k of C(n, k) masks of
    probability p^k (1-p)^(n-k)."""
    if f.n != spec.n:
        raise InputError("function and spectrum sizes differ")
    per_level = np.array([math.comb(f.n, k) for k in range(f.n + 1)], dtype=np.float64)
    energy = float(np.sum(per_level * _level_probabilities(f.n, spec.p)))
    return abs(float(spec.sums().total[0]) - energy)


# ---------------------------------------------------------------------------
# serialization
#
# JSON: {"n": ..., "p": ..., "coeffs": [...]} in mask order.
# Binary: 8-byte magic, u32 little-endian n, f64 little-endian p, then
# 2**n little-endian f64 coefficients.  Binary roundtrips are bit exact.

_MAGIC = b"CUBEFSP1"


def spectrum_from_json(text: str) -> Spectrum:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad spectrum JSON: {exc}") from exc
    if not isinstance(obj, dict) or not {"n", "p", "coeffs"} <= set(obj):
        raise InputError('spectrum JSON must carry "n", "p" and "coeffs"')
    n, p = obj["n"], obj["p"]
    # bool is an int subclass: true would load as n = 1
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f'spectrum JSON "n" must be an integer, got {n!r}')
    if not isinstance(p, (int, float)) or isinstance(p, bool):
        raise InputError(f'spectrum JSON "p" must be a number, got {p!r}')
    try:
        p = float(p)
        coeffs = np.asarray(obj["coeffs"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad spectrum JSON value: {exc}") from exc
    return Spectrum(n, p, readonly(coeffs))


def _writing(target, mode: str, **kwargs):
    """A file for ``target``: opened on it if it is a path, or the open file
    itself, left open."""
    return nullcontext(target) if hasattr(target, "write") else open(target, mode, **kwargs)


def save_spectrum_json(spec: Spectrum, target) -> None:
    """Write the JSON layout above to a path or to an open text file."""
    with _writing(target, "w", encoding="ascii") as fh:
        fh.write(
            json.dumps({"n": spec.n, "p": spec.p, "coeffs": [float(c) for c in spec.coeffs]})
        )
        fh.write("\n")


def load_spectrum_json(path) -> Spectrum:
    with open(path, "r", encoding="ascii") as fh:
        return spectrum_from_json(fh.read())


_HEAD = len(_MAGIC) + 4 + 8


def save_spectrum_binary(spec: Spectrum, target) -> None:
    """Write the binary layout above, the body straight from the coefficient
    array, to a path or to an open binary file."""
    with _writing(target, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<Id", spec.n, spec.p))
        fh.write(np.ascontiguousarray(spec.coeffs, dtype="<f8").data)


def load_spectrum_binary(path) -> Spectrum:
    """Read a file of :func:`save_spectrum_binary`, or a pipe, to its end.

    The header, with the table-size cap, is checked before the body is
    allocated; the body is read straight into the coefficient array, and
    any byte after it is an error.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEAD)
        if len(head) < _HEAD or head[: len(_MAGIC)] != _MAGIC:
            raise InputError("not a spectrum file (bad magic)")
        (n,) = struct.unpack_from("<I", head, len(_MAGIC))
        (p,) = struct.unpack_from("<d", head, len(_MAGIC) + 4)
        if n < 1 or n > 48:
            raise InputError(f"corrupt spectrum file: n={n}")
        check_table_size(n, "spectrum")
        coeffs = np.empty(1 << n, dtype="<f8")
        expected = _HEAD + coeffs.nbytes
        got = _HEAD + fh.readinto(coeffs)
        if got < expected:
            raise InputError(f"corrupt spectrum file: expected {expected} bytes, got {got}")
        if fh.read(1):
            raise InputError(f"corrupt spectrum file: longer than the {expected} bytes expected")
        return Spectrum(n, p, readonly(coeffs.astype(np.float64, copy=False)))
