"""Tensor products and virtual tensor powers.

The product of two functions on disjoint variable sets multiplies their
+-1 values, so stored bits combine by XOR.  The first factor occupies the
low mask bits.  Spectral entropy and total influence are additive over
tensor factors, and the level profile of a power is the repeated
self-convolution of the base profile — which is why large powers can be
analysed "virtually", without materialising a 2**(N*n) table.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _SOURCES, conjecture
from .boolfn import TruthTable, as_bias, readonly
from .config import check_integer, check_table_size, get_max_n
from .errors import InputError, ResourceError
from .spectral import (
    LevelProfile,
    exact_level_profile,
    exact_transform,
    level_profile,
    spectral_entropy,
    total_influence_spectral,
    transform,
)

__all__ = list(_SOURCES["tensor"])


def tensor_product(f: TruthTable, g: TruthTable) -> TruthTable:
    """(f (x) g)(x, y) = f(x) * g(y) in +-1 values; f takes the low bits."""
    n = f.n + g.n
    check_table_size(n, "tensor product")
    low = np.tile(f.bits, 1 << g.n)
    high = np.repeat(g.bits, 1 << f.n)
    return TruthTable(n, readonly(low ^ high))


def tensor_power(f: TruthTable, N: int) -> TruthTable:
    N = check_integer(N, "tensor power N")
    if N < 1:
        raise InputError("tensor power needs N >= 1")
    check_table_size(f.n * N, "tensor power")
    out = f
    for _ in range(N - 1):
        out = tensor_product(out, f)
    return out


def profile_convolve(a: LevelProfile, b: LevelProfile) -> LevelProfile:
    """Level profile of a tensor product from the factors' profiles."""
    if a.exact is None or b.exact is None:
        return LevelProfile(a.n + b.n, np.convolve(a.weights, b.weights))
    (na, da), (nb, db) = _numerators(a), _numerators(b)
    count = a.n + b.n + 1
    slot = _slot_bytes(sum(na).bit_length() + sum(nb).bit_length(), count)
    packed = _pack(na, slot) * _pack(nb, slot)
    return LevelProfile.from_numerators(a.n + b.n, _unpack(packed, count, slot), da * db)


def profile_power(base: LevelProfile, N: int) -> LevelProfile:
    """Level profile of the N-th tensor power: the N-fold self-convolution.

    Exact profiles are raised in one step by Kronecker substitution: the
    numerators over a common denominator D sit in fixed-width slots of one
    integer, and the slots of its N-th power are the numerators over D**N.
    A slot of N * bit_length(sum of numerators) bits cannot overflow, since
    every coefficient of the power is at most (sum of numerators)**N.
    """
    N = check_integer(N, "profile power N")
    if N < 1:
        raise InputError("profile power needs N >= 1")
    if base.exact is None:
        out = base
        for _ in range(N - 1):
            out = profile_convolve(out, base)
        return out
    nums, denom = _numerators(base)
    count = base.n * N + 1
    slot = _slot_bytes(N * sum(nums).bit_length(), count)
    packed = pow(_pack(nums, slot), N)
    return LevelProfile.from_numerators(base.n * N, _unpack(packed, count, slot), denom**N)


def _numerators(profile: LevelProfile) -> tuple[list[int], int]:
    """Exact level weights as integers over their least common denominator."""
    denom = math.lcm(*(x.denominator for x in profile.exact))
    nums = [x.numerator * (denom // x.denominator) for x in profile.exact]
    if min(nums) < 0:
        raise InputError("a level profile holds squared mass; got a negative exact weight")
    return nums, denom


def _slot_bytes(bits: int, count: int) -> int:
    """Whole bytes per slot, refusing results above the table memory cap."""
    slot = max(1, -(-bits // 8))
    limit = 8 << get_max_n()
    if count * slot > limit:
        raise ResourceError(
            f"exact profile of {count} levels needs {count * slot} bytes, over the "
            f"cap of {limit} (8 * 2^{get_max_n()}); raise it with set_max_n(), "
            "--max-n, or CUBEFOURIER_MAX_N"
        )
    return slot


def _pack(nums: list[int], slot: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(slot, "little") for c in nums), "little")


def _unpack(packed: int, count: int, slot: int) -> list[int]:
    raw = packed.to_bytes(count * slot, "little")
    return [int.from_bytes(raw[i : i + slot], "little") for i in range(0, len(raw), slot)]


class VirtualPowerStats(NamedTuple):
    """Spectral summary of f**(x)N computed from f alone."""

    base_n: int
    N: int
    p: float
    entropy: float
    total_influence: float
    profile: LevelProfile

    @property
    def n(self) -> int:
        return self.base_n * self.N

    @property
    def ei_ratio(self) -> float | None:
        """Ent/I normalised for the measure, as ``analyze`` reports it."""
        return conjecture.ei_ratio(self.entropy, self.total_influence, self.p)


def virtual_power_stats(
    f: TruthTable,
    N: int,
    p=0.5,
    exact: bool = False,
) -> VirtualPowerStats:
    """Entropy, influence and level profile of the N-th tensor power.

    Everything is derived from one transform of the base function: entropy
    and total influence are N times the base values, and the profile is the
    N-fold self-convolution.  With ``exact=True`` (uniform measure only) the
    profile is convolved in rational arithmetic.
    """
    N = check_integer(N, "tensor power N")
    if N < 1:
        raise InputError("tensor power needs N >= 1")
    bias = as_bias(p)
    if exact:
        if bias.p != 0.5:
            raise InputError("exact virtual powers are supported at p = 1/2 only")
        spec = exact_transform(f)
        base_profile = exact_level_profile(spec)
    else:
        spec = transform(f, bias)
        base_profile = level_profile(spec)
    return VirtualPowerStats(
        base_n=f.n,
        N=N,
        p=bias.p,
        entropy=N * spectral_entropy(spec),
        total_influence=N * total_influence_spectral(spec),
        profile=profile_power(base_profile, N),
    )
