"""Fourier analysis on the (possibly biased) discrete cube.

Under the product measure where each stored bit is 1 with probability p,
the orthonormal characters are indexed by subset masks S and the transform
is computed in place by n butterfly stages, one per coordinate, in O(n 2^n)
time.  Stage order is fixed (coordinate 1 first) so results are bitwise
reproducible across backends and thread counts.

The coefficient at subset mask S lives at index S of the coefficient array;
coordinate i corresponds to mask bit i-1.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .boolfn import (
    RealTable,
    TruthTable,
    as_bias,
    level_array,
    mask_array,
)
from .config import check_table_size, get_threads
from .errors import InputError

__all__ = [
    "Spectrum",
    "DyadicSpectrum",
    "LevelProfile",
    "transform",
    "inverse_transform",
    "exact_transform",
    "reconstruct_exact",
    "spectral_entropy",
    "total_influence_spectral",
    "squares_entropy",
    "squares_influence",
    "squares_coordinate_influences",
    "influence_combinatorial",
    "influence_vector",
    "coordinate_influences",
    "total_influence_combinatorial",
    "measure_weights",
    "level_profile",
    "exact_level_profile",
    "degree",
    "support_size",
    "min_support",
    "top_masks",
    "dyadic_check",
    "parseval_gap",
    "spectrum_to_json",
    "spectrum_from_json",
    "save_spectrum_json",
    "load_spectrum_json",
    "spectrum_to_bytes",
    "spectrum_from_bytes",
    "save_spectrum_binary",
    "load_spectrum_binary",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Transform coefficients of one function at one bias."""

    n: int
    p: float
    coeffs: np.ndarray  # float64, index = subset mask, read-only

    def __post_init__(self):
        if self.n < 1:
            raise InputError("a spectrum needs at least one variable")
        if not 0.0 < self.p < 1.0:
            raise InputError(f"bias must lie strictly between 0 and 1, got {self.p}")
        check_table_size(self.n, "spectrum")
        arr = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.size != 1 << self.n:
            raise InputError(
                f"expected 2^{self.n} = {1 << self.n} coefficients, got {arr.size}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def size(self) -> int:
        return 1 << self.n

    def squares(self) -> np.ndarray:
        """Squared coefficients, computed on first use and shared (read-only)."""
        w = self.__dict__.get("_squares")
        if w is None:
            w = self.coeffs * self.coeffs
            w.setflags(write=False)
            object.__setattr__(self, "_squares", w)
        return w

    def coefficient(self, mask: int) -> float:
        return float(self.coeffs[mask])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Spectrum)
            and self.n == other.n
            and self.p == other.p
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )


@dataclass(frozen=True, eq=False)
class DyadicSpectrum:
    """Exact uniform-measure coefficients: coeff(S) = numerators[S] / 2**n.

    Computed with 64-bit integer butterflies, so every arithmetic step is
    exact.  For a +-1 valued function the numerators always fit: their
    squares sum to 4**n.
    """

    n: int
    numerators: np.ndarray  # int64, index = subset mask, read-only

    def __post_init__(self):
        if self.n < 1:
            raise InputError("a spectrum needs at least one variable")
        check_table_size(self.n, "spectrum")
        arr = np.ascontiguousarray(self.numerators, dtype=np.int64)
        if arr.ndim != 1 or arr.size != 1 << self.n:
            raise InputError(
                f"expected 2^{self.n} = {1 << self.n} numerators, got {arr.size}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "numerators", arr)

    @property
    def size(self) -> int:
        return 1 << self.n

    def coefficient(self, mask: int) -> Fraction:
        return Fraction(int(self.numerators[mask]), 1 << self.n)

    def square(self, mask: int) -> Fraction:
        num = int(self.numerators[mask])
        return Fraction(num * num, 1 << (2 * self.n))

    def to_spectrum(self) -> Spectrum:
        return Spectrum(self.n, 0.5, self.numerators.astype(np.float64) / (1 << self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DyadicSpectrum)
            and self.n == other.n
            and bool(np.array_equal(self.numerators, other.numerators))
        )


@dataclass(frozen=True, eq=False)
class LevelProfile:
    """Squared coefficient mass per level |S| = 0 .. n.

    ``exact`` carries the same numbers as Fractions when the profile came
    from exact arithmetic; float ``weights`` are always present.
    """

    n: int
    weights: np.ndarray  # float64, length n + 1, read-only
    exact: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.weights, dtype=np.float64)
        if arr.ndim != 1 or arr.size != self.n + 1:
            raise InputError(f"expected {self.n + 1} level weights, got {arr.size}")
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)
        if self.exact is not None and len(self.exact) != self.n + 1:
            raise InputError("exact profile length mismatch")

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))

    def mean_level(self) -> float:
        return float(np.sum(np.arange(self.n + 1) * self.weights))

    def variance(self) -> float:
        levels = np.arange(self.n + 1, dtype=np.float64)
        mean = self.mean_level()
        return float(np.sum((levels - mean) ** 2 * self.weights))

    def tail(self, k: int) -> float:
        """Mass on levels strictly above k."""
        if k >= self.n:
            return 0.0
        return float(np.sum(self.weights[max(k + 1, 0) :]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LevelProfile)
            and self.n == other.n
            and bool(np.array_equal(self.weights, other.weights))
        )


# ---------------------------------------------------------------------------
# transforms


def _resolve_threads(threads: int | None) -> int:
    return get_threads() if threads is None else max(1, int(threads))


def transform(f: TruthTable | RealTable, p=0.5, threads: int | None = None) -> Spectrum:
    """Coefficients of f in the orthonormal basis of the p-biased measure."""
    bias = as_bias(p)
    v = f.sign_values()  # fresh, writable copy
    kernels.biased_forward_inplace(v, bias.p, threads=_resolve_threads(threads))
    return Spectrum(f.n, bias.p, v)


def inverse_transform(spec: Spectrum, threads: int | None = None) -> RealTable:
    """Rebuild the function table from its coefficients."""
    v = spec.coeffs.copy()
    kernels.biased_inverse_inplace(v, spec.p, threads=_resolve_threads(threads))
    return RealTable(spec.n, v)


_EXACT_VALUE_BOUND = 1 << 20


def exact_transform(f: TruthTable | RealTable, threads: int | None = None) -> DyadicSpectrum:
    """Uniform-measure coefficients in exact integer arithmetic.

    Accepts any integer-valued table whose entries are small enough that the
    2**n-term sums cannot overflow 64 bits.
    """
    if isinstance(f, TruthTable):
        v = 1 - 2 * f.bits.astype(np.int64)
    else:
        vals = f.values
        rounded = np.rint(vals)
        if not np.array_equal(vals, rounded):
            raise InputError("exact transform needs integer-valued tables")
        if vals.size and np.max(np.abs(vals)) > _EXACT_VALUE_BOUND:
            raise InputError(
                f"exact transform supports integer values up to {_EXACT_VALUE_BOUND}"
            )
        v = rounded.astype(np.int64)
    if f.n < 1:
        raise InputError("exact transform needs at least one variable")
    kernels.wht_inplace(v, threads=_resolve_threads(threads))
    return DyadicSpectrum(f.n, v)


def reconstruct_exact(dspec: DyadicSpectrum, threads: int | None = None):
    """Invert an exact spectrum; returns a TruthTable when the values are +-1."""
    v = dspec.numerators.copy()
    kernels.wht_inplace(v, threads=_resolve_threads(threads))
    size = 1 << dspec.n
    if np.any(v % size):
        raise InputError("numerators are not a valid exact spectrum")
    vals = v // size
    if np.all((vals == 1) | (vals == -1)):
        return TruthTable(dspec.n, ((1 - vals) // 2).astype(np.uint8))
    return RealTable(dspec.n, vals.astype(np.float64))


# ---------------------------------------------------------------------------
# derived quantities


def squares_entropy(w: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of squared coefficients along the last axis.

    Zero squares contribute nothing.  The squares of a +-1 valued function
    sum to 1, so this is the entropy of a probability distribution; for
    other tables it is the same sum taken literally.
    """
    logs = np.log2(w, out=np.zeros_like(w), where=w > 0.0)
    # + 0.0 turns the -0.0 of a point-mass spectrum into plain zero
    return -np.sum(np.multiply(w, logs, out=logs), axis=-1) + 0.0


def squares_influence(w: np.ndarray, p: float) -> np.ndarray:
    """Sum of |S| times squared coefficient along the last axis, over 4p(1-p)."""
    levels = level_array(w.shape[-1].bit_length() - 1)
    return np.sum(levels * w, axis=-1) / (4.0 * p * (1.0 - p))


def squares_coordinate_influences(w: np.ndarray, p: float) -> np.ndarray:
    """The n coordinate influences of squared coefficients along the last axis.

    Inf_i is the squared mass on the sets containing i, scaled by
    1/(4p(1-p)).  With h = 2**(i-1), those sets are the odd h-blocks of
    each row, so each coordinate is one strided sum.
    """
    n = w.shape[-1].bit_length() - 1
    lead = w.shape[:-1]
    out = np.empty((*lead, n), dtype=np.float64)
    for i in range(n):
        out[..., i] = np.sum(w.reshape(*lead, -1, 2, 1 << i)[..., 1, :], axis=(-2, -1))
    return out / (4.0 * p * (1.0 - p))


def spectral_entropy(spec: Spectrum | DyadicSpectrum) -> float:
    """Shannon entropy (bits) of the squared-coefficient distribution."""
    if isinstance(spec, DyadicSpectrum):
        spec = spec.to_spectrum()
    return float(squares_entropy(spec.squares()))


def total_influence_spectral(spec: Spectrum | DyadicSpectrum) -> float:
    """Sum of |S| times squared coefficient, scaled by 1/(4p(1-p))."""
    if isinstance(spec, DyadicSpectrum):
        spec = spec.to_spectrum()
    return float(squares_influence(spec.squares(), spec.p))


def coordinate_influences(spec: Spectrum | DyadicSpectrum) -> np.ndarray:
    """All n coordinate influences from the spectrum."""
    if isinstance(spec, DyadicSpectrum):
        spec = spec.to_spectrum()
    return squares_coordinate_influences(spec.squares(), spec.p)


def _level_probabilities(n: int, p: float) -> np.ndarray:
    """p^k (1-p)^(n-k) for k = 0 .. n: the mass of one mask at each level."""
    ones = np.arange(n + 1, dtype=np.float64)
    return np.power(p, ones) * np.power(1.0 - p, n - ones)


def measure_weights(n: int, p: float) -> np.ndarray:
    """Probability of each mask under the product measure (bit 1 w.p. p)."""
    return _level_probabilities(n, p)[level_array(n)]


def influence_combinatorial(f: TruthTable, i: int, p=0.5) -> float:
    """Probability that flipping coordinate i changes the output."""
    bias = as_bias(p)
    if not 1 <= i <= f.n:
        raise InputError(f"coordinate {i} out of range 1..{f.n}")
    masks = mask_array(f.n)
    flipped = f.bits[masks ^ (1 << (i - 1))]
    diff = f.bits != flipped
    return float(np.sum(measure_weights(f.n, bias.p)[diff]))


def influence_vector(f: TruthTable, p=0.5) -> np.ndarray:
    """All n coordinate influences from their definition (the oracle path).

    Independent of the spectrum; :func:`coordinate_influences` is the fast
    path and is checked against this one.
    """
    return np.array(
        [influence_combinatorial(f, i, p) for i in range(1, f.n + 1)], dtype=np.float64
    )


def total_influence_combinatorial(f: TruthTable, p=0.5) -> float:
    return float(np.sum(influence_vector(f, p)))


def level_profile(spec: Spectrum | DyadicSpectrum) -> LevelProfile:
    if isinstance(spec, DyadicSpectrum):
        return exact_level_profile(spec)
    weights = np.bincount(level_array(spec.n), weights=spec.squares(), minlength=spec.n + 1)
    return LevelProfile(spec.n, weights)


def exact_level_profile(dspec: DyadicSpectrum) -> LevelProfile:
    """Squared mass per level as Fractions over the common denominator 4**n.

    The squared numerators are summed per level in int64 when every square
    and every level sum provably fits (squares below 2**62, and a float
    estimate of their total below 2**62), and in Python integers otherwise.
    """
    n = dspec.n
    levels = level_array(n)
    nums = dspec.numerators
    peak = int(np.max(np.abs(nums)))
    if peak < 1 << 31 and float(np.sum(np.square(nums, dtype=np.float64))) < 2.0**62:
        sums = np.zeros(n + 1, dtype=np.int64)
        np.add.at(sums, levels, nums * nums)
        sums = sums.tolist()
    else:
        live = np.flatnonzero(nums)
        sums = [0] * (n + 1)
        for lvl, num in zip(levels[live].tolist(), nums[live].tolist()):
            sums[lvl] += num * num
    denom = 1 << (2 * n)
    exact = tuple(Fraction(total, denom) for total in sums)
    weights = np.array([float(x) for x in exact], dtype=np.float64)
    return LevelProfile(n, weights, exact=exact)


def degree(spec: Spectrum | DyadicSpectrum, tol: float = 1e-9) -> int:
    """Largest |S| carrying a coefficient; exact spectra ignore ``tol``."""
    if isinstance(spec, DyadicSpectrum):
        live = spec.numerators != 0
    else:
        live = np.abs(spec.coeffs) > tol
    return int(np.max(level_array(spec.n), where=live, initial=0))


def top_masks(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values: decreasing, ties by ascending index.

    Equal to ``np.argsort(-values, kind="stable")[:k]``, but only the
    entries at or above the k-th largest value are sorted.  ``k`` is
    clipped to the array size.
    """
    k = min(max(int(k), 0), values.size)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    cut = np.partition(values, values.size - k)[values.size - k]
    candidates = np.flatnonzero(values >= cut)
    return candidates[np.argsort(-values[candidates], kind="stable")[:k]]


def support_size(spec: Spectrum | DyadicSpectrum, epsilon: float) -> tuple[int, float]:
    """Size and captured weight of the epsilon-support of :func:`min_support`.

    Taking squares in decreasing order gives the same partial sums whatever
    the order among ties, so a plain sort replaces the stable argsort and
    both numbers are bitwise equal to the ones ``min_support`` reports.
    """
    if epsilon < 0.0:
        raise InputError("epsilon must be nonnegative")
    if isinstance(spec, DyadicSpectrum):
        spec = spec.to_spectrum()
    w = spec.squares()
    total = float(np.sum(w))
    if total <= epsilon:
        return 0, 0.0
    captured = np.cumsum(np.sort(w)[::-1])
    # the complement weight only shrinks along the partial sums; when
    # rounding keeps it above epsilon to the end (the pairwise total can
    # exceed the running sum by an ulp), every mask is kept
    enough = total - captured <= epsilon
    keep = int(np.argmax(enough)) + 1 if enough[-1] else w.size
    return keep, float(captured[keep - 1])


def min_support(spec: Spectrum | DyadicSpectrum, epsilon: float):
    """Smallest set of subset masks whose complement weight is <= epsilon.

    Masks are taken in order of decreasing squared coefficient, ties broken
    by ascending mask, so the answer is deterministic.  Returns the mask
    array and the weight it captures.
    """
    if isinstance(spec, DyadicSpectrum):
        spec = spec.to_spectrum()
    keep, captured = support_size(spec, epsilon)
    return top_masks(spec.squares(), keep), captured


def dyadic_check(dspec: DyadicSpectrum, k: int) -> bool:
    """Exact structural test for "behaves like a degree-k function".

    Two conditions, both checked on the integer numerators:

    * no weight strictly above level k (the degree really is at most k), and
    * every numerator is divisible by 2**(n - k).

    Divisibility alone is necessary but not sufficient -- parity's single
    numerator is +-2**n and divides everything, and majority-of-3 has
    numerators 0/+-4 which pass the k = 1 divisibility test despite having
    degree 3.  The level condition rules those out.
    """
    if k < 0:
        return not bool(np.any(dspec.numerators))
    if k >= dspec.n:
        return True
    if bool(np.any(dspec.numerators[level_array(dspec.n) > k])):
        return False
    step = np.int64(1) << (dspec.n - k)
    return not bool(np.any(dspec.numerators % step))


def parseval_gap(spec: Spectrum, f: TruthTable | RealTable) -> float:
    """|sum of squared coefficients - E[f^2]| under the spectrum's measure.

    E[f^2] is taken from the table's values, grouped by level: every mask
    of level k has probability p^k (1-p)^(n-k).  A Boolean f has f^2 = 1, so
    its level sums are the counts C(n, k), exactly what summing ones gives.
    """
    if f.n != spec.n:
        raise InputError("function and spectrum sizes differ")
    if isinstance(f, TruthTable):
        per_level = np.array([math.comb(f.n, k) for k in range(f.n + 1)], dtype=np.float64)
    else:
        vals = f.sign_values()
        per_level = np.bincount(
            level_array(f.n), weights=np.square(vals, out=vals), minlength=f.n + 1
        )
    energy = float(np.sum(per_level * _level_probabilities(f.n, spec.p)))
    return abs(float(np.sum(spec.squares())) - energy)


# ---------------------------------------------------------------------------
# serialization
#
# JSON: {"n": ..., "p": ..., "coeffs": [...]} in mask order.
# Binary: 8-byte magic, u32 little-endian n, f64 little-endian p, then
# 2**n little-endian f64 coefficients.  Binary roundtrips are bit exact.

_MAGIC = b"CUBEFSP1"


def spectrum_to_json(spec: Spectrum) -> str:
    return json.dumps(
        {"n": spec.n, "p": spec.p, "coeffs": [float(c) for c in spec.coeffs]}
    )


def spectrum_from_json(text: str) -> Spectrum:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad spectrum JSON: {exc}") from exc
    if not isinstance(obj, dict) or not {"n", "p", "coeffs"} <= set(obj):
        raise InputError('spectrum JSON must carry "n", "p" and "coeffs"')
    return Spectrum(int(obj["n"]), float(obj["p"]), np.asarray(obj["coeffs"], dtype=np.float64))


def save_spectrum_json(spec: Spectrum, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(spectrum_to_json(spec))
        fh.write("\n")


def load_spectrum_json(path) -> Spectrum:
    with open(path, "r", encoding="ascii") as fh:
        return spectrum_from_json(fh.read())


def _header(spec: Spectrum) -> bytes:
    return _MAGIC + struct.pack("<I", spec.n) + struct.pack("<d", spec.p)


def _body(spec: Spectrum) -> np.ndarray:
    return np.ascontiguousarray(spec.coeffs, dtype="<f8")


def spectrum_to_bytes(spec: Spectrum) -> bytes:
    return _header(spec) + _body(spec).tobytes()


def spectrum_from_bytes(data: bytes) -> Spectrum:
    head = len(_MAGIC) + 4 + 8
    if len(data) < head or data[: len(_MAGIC)] != _MAGIC:
        raise InputError("not a spectrum file (bad magic)")
    (n,) = struct.unpack_from("<I", data, len(_MAGIC))
    (p,) = struct.unpack_from("<d", data, len(_MAGIC) + 4)
    if n < 1 or n > 48:
        raise InputError(f"corrupt spectrum file: n={n}")
    expected = head + (1 << n) * 8
    if len(data) != expected:
        raise InputError(
            f"corrupt spectrum file: expected {expected} bytes, got {len(data)}"
        )
    coeffs = np.frombuffer(data, dtype="<f8", offset=head).astype(np.float64)
    return Spectrum(int(n), float(p), coeffs)


def save_spectrum_binary(spec: Spectrum, path) -> None:
    """Write the bytes of :func:`spectrum_to_bytes` without building them in memory."""
    with open(path, "wb") as fh:
        fh.write(_header(spec))
        fh.write(_body(spec).data)


def load_spectrum_binary(path) -> Spectrum:
    with open(path, "rb") as fh:
        return spectrum_from_bytes(fh.read())
