"""Boolean functions on the discrete cube: representations and constructors.

A function on n variables is stored as a dense table over all 2**n input
masks.  Coordinate i (1-based) lives at mask bit i-1, least significant
first.  Output bit b stands for the +-1 value (-1)**b, so bit 0 means +1;
this one convention is fixed everywhere for reproducible spectra, and is
what makes ``parity(n, s)`` coincide with the uniform-measure character of
the set s.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from . import _SOURCES
from .config import check_integer, check_table_size
from .errors import InputError

__all__ = list(_SOURCES["boolfn"])


def mask_array(n: int) -> np.ndarray:
    """All input masks 0 .. 2**n - 1 as an int64 array."""
    check_table_size(n, "truth table")
    return np.arange(1 << n, dtype=np.int64)


def sign_array(bits: np.ndarray, dtype) -> np.ndarray:
    """The +-1 values (-1)**b of output bits b, as a fresh ``dtype`` array."""
    v = np.multiply(bits, -2, dtype=dtype)
    v += 1
    return v


def level_array(n: int) -> np.ndarray:
    """|S| for every mask S of n bits: one shared, read-only uint8 array per n."""
    check_table_size(n)
    return _level_array(n)


@functools.lru_cache(maxsize=4)
def _level_array(n: int) -> np.ndarray:
    # built by doubling (masks with the top bit set are the lower half plus
    # one), so no 2**n int64 mask array is allocated
    levels = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        levels = np.concatenate((levels, levels + 1))
    return readonly(levels)


def readonly(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only and return it; a table keeps such an array without a copy."""
    arr.setflags(write=False)
    return arr


def _entries(value, dtype, length: int, entries: str) -> np.ndarray:
    """``value`` as a C-contiguous 1-d ``dtype`` array of ``length`` entries,
    converted only if it is not one already.  ``entries`` names what is
    expected, for the error message."""
    try:
        arr = np.ascontiguousarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"expected {entries}: {exc}") from None
    if arr.ndim != 1 or arr.size != length:
        raise InputError(f"expected {entries}, got shape {arr.shape}")
    return arr


def _writable_memory(arr: np.ndarray) -> bool:
    """Whether ``arr`` or any array it is a view of can still be written."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return True
        arr = arr.base
    return False


def _frozen(arr: np.ndarray, value) -> np.ndarray:
    """``arr``, converted from ``value``, read-only and owned by the table.

    An array that shares memory the caller can still write (``value``
    itself, a view of it, or a read-only view of a writable array) is
    copied, so later writes to it leave the table alone; a fresh conversion
    is kept as is.
    """
    if (arr is value or arr.base is not None) and _writable_memory(arr):
        arr = arr.copy()
    return readonly(arr)


def frozen_array(value, dtype, length: int, entries: str) -> np.ndarray:
    """``value`` as a read-only, C-contiguous 1-d ``dtype`` array of ``length`` entries.

    See :func:`_frozen` for when it is copied; ``entries`` names what is
    expected, for the error message.
    """
    return _frozen(_entries(value, dtype, length, entries), value)


def table_entries(n: int, value, dtype, what: str, entries: str) -> np.ndarray:
    """``value`` checked as the 2**n entries of a ``what`` on n >= 1
    variables, and converted only if it must be: a caller that reads it once
    into a buffer of its own needs no frozen copy."""
    if n < 1:
        raise InputError(f"a {what} needs at least one variable")
    check_table_size(n, what)
    return _entries(value, dtype, 1 << n, f"2^{n} = {1 << n} {entries}")


def frozen_table(n: int, value, dtype, what: str, entries: str) -> np.ndarray:
    """``value`` as the frozen 2**n-entry array of a ``what`` on n >= 1 variables."""
    return _frozen(table_entries(n, value, dtype, what, entries), value)


class Frozen:
    """Base of the immutable types.

    Each type names its fields once, in ``_fields``: its ``__slots__``, or
    the part of them that makes its value.  ``__init__`` sets them with
    ``_set``, and any later assignment or deletion raises AttributeError.
    Two values of the same type are equal when ``np.array_equal`` holds on
    each field, NaN equal to NaN, so a value equals its copy; the hash is
    that of the field tuple, so a type holding an array is unhashable; the
    repr shows the fields.
    """

    __slots__ = _fields = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def __setstate__(self, state):
        # pickle and copy restore the fields here, as (instance dict, slots);
        # an unpickled or deep-copied array is a fresh, writable one
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                if isinstance(value, np.ndarray):
                    readonly(value)
                object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, k), getattr(other, k), equal_nan=True)
            for k in self._fields
        )

    def __hash__(self):
        return hash(tuple(getattr(self, k) for k in self._fields))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__name__}({fields})"


class TruthTable(Frozen):
    """A Boolean function, one output bit per input mask."""

    __slots__ = _fields = ("n", "bits")
    n: int
    bits: np.ndarray  # uint8 in {0,1}, length 2**n, read-only

    def __init__(self, n: int, bits):
        # a fraction, NaN or value past 255 casts to some byte: refused below
        with np.errstate(invalid="ignore"):
            arr = frozen_table(n, bits, np.uint8, "truth table", "output bits")
        if arr.max() > 1 or (arr is not bits and not np.array_equal(arr, bits)):
            raise InputError("output bits must be 0 or 1")
        self._set(n=n, bits=arr)

    @property
    def size(self) -> int:
        return 1 << self.n

    def sign_values(self) -> np.ndarray:
        """The +-1 view as a fresh float64 array: bit b maps to (-1)**b."""
        return sign_array(self.bits, np.float64)

    def __hash__(self):
        return hash((self.n, self.bits.tobytes()))

    def __repr__(self) -> str:
        if self.n <= 4:
            return f"TruthTable(n={self.n}, bits={''.join(map(str, self.bits))})"
        return f"TruthTable(n={self.n}, hex={table_to_hex(self)})"


def as_bias(p) -> float:
    """The bias p of a product measure as a float, checked to lie strictly
    between 0 and 1.  The exact dyadic form t/2**m that the reduction needs
    is passed to it as the two integers."""
    try:
        p = float(p)
    except (TypeError, ValueError) as exc:
        raise InputError(f"bias must be a number, got {p!r}") from exc
    if not 0.0 < p < 1.0:
        raise InputError(f"bias must lie strictly between 0 and 1, got {p}")
    return p


class GraphPropertySpec(Frozen):
    """Clique-containment property of graphs on labelled vertices.

    Edge variable k corresponds to the k-th vertex pair (u, v), u < v, in
    lexicographic order, so spectra are deterministic across runs.
    """

    __slots__ = _fields = ("n_vertices", "r")
    n_vertices: int
    r: int

    def __init__(self, n_vertices: int, r: int):
        n_vertices = check_integer(n_vertices, "vertex count")
        r = check_integer(r, "clique size r")
        if not 2 <= r <= n_vertices:
            raise InputError("need 2 <= r <= n_vertices")
        self._set(n_vertices=n_vertices, r=r)

    @property
    def n_edges(self) -> int:
        return self.n_vertices * (self.n_vertices - 1) // 2

    def edge_index(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if not 0 <= u < v < self.n_vertices:
            raise InputError("vertex pair out of range")
        # pairs (0,1)..(0,nv-1) come first, then (1,2)..; closed form below
        nv = self.n_vertices
        return u * nv - u * (u + 1) // 2 + (v - u - 1)

    def clique_edge_masks(self) -> list[int]:
        """Edge-set mask of every r-subset of vertices, in subset order."""
        from itertools import combinations

        masks = []
        for verts in combinations(range(self.n_vertices), self.r):
            m = 0
            for i, u in enumerate(verts):
                for v in verts[i + 1 :]:
                    m |= 1 << self.edge_index(u, v)
            masks.append(m)
        return masks


# ---------------------------------------------------------------------------
# constructors


def from_bits(n: int, bits) -> TruthTable:
    """Build a table from 2**n output bits in mask order.

    ``bits`` may be any integer sequence or a string of '0'/'1' characters.
    """
    if isinstance(bits, str):
        if set(bits) - {"0", "1"}:
            raise InputError("bit string may contain only '0' and '1'")
        bits = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0")
    return TruthTable(n, np.asarray(bits))


def constant(n: int, value: int = 1) -> TruthTable:
    """The constant function with +-1 value ``value``."""
    if value not in (1, -1):
        raise InputError("constant value must be +1 or -1")
    bit = 0 if value == 1 else 1
    check_table_size(n, "truth table")
    return TruthTable(n, np.full(1 << n, bit, dtype=np.uint8))


def dictator(n: int, i: int) -> TruthTable:
    """Output bit equals input bit i."""
    _check_coordinate(n, i)
    return TruthTable(n, ((mask_array(n) >> (i - 1)) & 1).astype(np.uint8))


def parity(n: int, s: int) -> TruthTable:
    """+-1 value at x is (-1)**|s & x|; equals the character u_s at p=1/2."""
    masks = mask_array(n)
    if not 0 <= check_integer(s, "subset mask s") < masks.size:
        raise InputError(f"subset mask {s} out of range for n={n}")
    return TruthTable(n, (np.bitwise_count(masks & s) & 1).astype(np.uint8))


def majority(n: int) -> TruthTable:
    if n % 2 == 0:
        raise InputError("majority needs an odd variable count")
    return TruthTable(n, (np.bitwise_count(mask_array(n)) > n // 2).astype(np.uint8))


def tribes(w: int, s: int) -> TruthTable:
    """OR of s disjoint ANDs of width w; tribe j sits at bits (j-1)w .. jw-1."""
    if w < 1 or s < 1:
        raise InputError("tribes needs positive width and tribe count")
    n = w * s
    masks = mask_array(n)
    sat = np.zeros(masks.size, dtype=bool)
    tribe = (1 << w) - 1
    for j in range(s):
        tm = tribe << (j * w)
        sat |= (masks & tm) == tm
    return TruthTable(n, sat.astype(np.uint8))


def and_fn(n: int) -> TruthTable:
    return TruthTable(n, (mask_array(n) == (1 << n) - 1).astype(np.uint8))


def or_fn(n: int) -> TruthTable:
    return TruthTable(n, (mask_array(n) != 0).astype(np.uint8))


def mux3() -> TruthTable:
    """f(x1, x2, x3) = x2 if x1 = 1 else x3; a depth-2 decision tree."""
    masks = mask_array(3)
    bits = np.where(masks & 1, (masks >> 1) & 1, (masks >> 2) & 1)
    return TruthTable(3, bits.astype(np.uint8))


def clique_indicator(spec: GraphPropertySpec) -> TruthTable:
    """Bit 1 at edge mask T iff the graph with edge set T contains K_r.

    Built as the superset closure of the clique edge masks: stage j ORs
    every mask without edge j into the same mask with edge j added, the
    monotone analogue of a butterfly stage.  The closure runs on the bits
    packed eight masks to a byte, mask 8k + i at bit i of byte k: stages 0-2
    shift within each byte, and stage j >= 3 ORs whole runs of 2^(j-3) bytes.
    """
    n = spec.n_edges
    check_table_size(n, "clique indicator")
    packed = np.zeros(-(-(1 << n) // 8), dtype=np.uint8)
    masks = np.array(spec.clique_edge_masks(), dtype=np.int64)
    np.bitwise_or.at(packed, masks >> 3, np.left_shift(1, masks & 7).astype(np.uint8))
    for j, low in zip(range(min(n, 3)), (0x55, 0x33, 0x0F)):
        packed |= (packed & low) << (1 << j)
    for j in range(3, n):
        pairs = packed.reshape(-1, 2, 1 << (j - 3))
        pairs[:, 1, :] |= pairs[:, 0, :]
    sat = np.unpackbits(packed, count=1 << n, bitorder="little")
    return TruthTable(n, readonly(sat))


def critical_p0(spec: GraphPropertySpec) -> float:
    """The bias where the expected K_r count condition C(n,r) p^C(r,2) = 1/2 holds."""
    subsets = math.comb(spec.n_vertices, spec.r)
    exponent = math.comb(spec.r, 2)
    return as_bias((0.5 / subsets) ** (1.0 / exponent))


def random_function(n: int, seed: int, density: float = 0.5) -> TruthTable:
    """Each output bit independently 1 with probability ``density``.

    Drawn from a PCG64-backed numpy Generator, so identical (n, seed,
    density) reproduce the same table on every platform.
    """
    if not (isinstance(density, numbers.Real) and 0.0 <= density <= 1.0):
        raise InputError("density must lie in [0, 1]")
    check_table_size(n, "truth table")
    if check_integer(seed, "seed") < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return TruthTable(n, (rng.random(1 << n) < density).astype(np.uint8))


def _check_coordinate(n: int, i: int) -> None:
    if not 1 <= check_integer(i, "coordinate i") <= n:
        raise InputError(f"coordinate {i} out of range 1..{n}")


# ---------------------------------------------------------------------------
# text format
#
# Line 1: "n=<n>".  Line 2: 2**n characters '0'/'1' in mask order, or the
# same bit string packed as "hex:<digits>" (the bit string read as a binary
# number, mask 0 first).  Writers always emit the character form.


def format_truth_table(f: TruthTable) -> str:
    return f"n={f.n}\n" + (f.bits + ord("0")).tobytes().decode("ascii") + "\n"


def table_to_hex(f: TruthTable) -> str:
    return rows_to_hex(f.bits)[0]


def rows_to_hex(bits: np.ndarray) -> list[str]:
    """Hex text of each row of a (rows, 2**n) bit matrix, as ``table_to_hex``."""
    bits = np.atleast_2d(bits)
    size = bits.shape[-1]
    width = (size + 3) // 4
    # n <= 2 fills less than one byte: pad on the left, keep the last digit
    pad = np.zeros((bits.shape[0], -size % 8), dtype=np.uint8)
    digits = np.packbits(np.concatenate((pad, bits), axis=1), axis=1).tobytes().hex()
    step = 2 * ((size + 7) // 8)
    return [digits[end - width : end] for end in range(step, len(digits) + 1, step)]


def parse_truth_table(text: str) -> TruthTable:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    if len(lines) < 2 or not lines[0].startswith("n="):
        raise InputError('truth-table text must start with an "n=<count>" line')
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise InputError(f"bad variable count {lines[0][2:]!r}") from exc
    if n < 1:
        raise InputError("variable count must be at least 1")
    check_table_size(n, "truth table")
    body = lines[1]
    size = 1 << n
    if body.startswith("hex:"):
        digits = body[4:]
        expected = (size + 3) // 4
        if len(digits) != expected:
            raise InputError(
                f"hex body must have {expected} digits for n={n}, got {len(digits)}"
            )
        # n <= 2 has a single digit: pad it to a whole byte
        padded = digits.zfill(2 * ((size + 7) // 8))
        try:
            packed = bytes.fromhex(padded)
        except ValueError as exc:
            raise InputError("hex body contains non-hex characters") from exc
        if 2 * len(packed) != len(padded):
            # fromhex skips whitespace between digit pairs
            raise InputError("hex body contains non-hex characters")
        bits = readonly(np.unpackbits(np.frombuffer(packed, dtype=np.uint8)))
        return TruthTable(n, bits[bits.size - size :])
    if len(body) != size:
        raise InputError(f"expected 2^{n} = {size} characters of '0'/'1', got {len(body)}")
    # one byte per character ('?' for non-ASCII); every byte but '0' and '1' wraps past 1
    bits = np.frombuffer(body.encode("ascii", "replace"), dtype=np.uint8) - np.uint8(ord("0"))
    if bits.max() > 1:
        raise InputError("table body may contain only '0' and '1'")
    return TruthTable(n, readonly(bits))


def load_truth_table(path) -> TruthTable:
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: byte {exc.start} is not ASCII text") from None
    return parse_truth_table(text)
