"""Shared oracles for the test suite.

The naive transform below is an independent implementation straight from
the definition: build the full character matrix and take expectations as
explicit double sums.  It is O(4^n) and never shares code with the fast
butterfly path, which is the point — agreement between the two is the main
correctness evidence.

``integer_wht`` is the oracle for the exact transform: a literal int64
butterfly, one ``(a + b, a - b)`` reshape per coordinate, that shares no
code with the float64 stage the package runs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def naive_character(n: int, p: float, s: int, x: int) -> float:
    """u_s(x) from the definition, one coordinate at a time."""
    out = 1.0
    for i in range(n):
        sbit = (s >> i) & 1
        xbit = (x >> i) & 1
        if not sbit:
            continue
        if xbit:
            out *= -np.sqrt((1.0 - p) / p)
        else:
            out *= np.sqrt(p / (1.0 - p))
    return out


def naive_measure(n: int, p: float, x: int) -> float:
    ones = bin(x).count("1")
    return (p**ones) * ((1.0 - p) ** (n - ones))


def naive_transform(values: np.ndarray, n: int, p: float) -> np.ndarray:
    """Coefficients as explicit expectations E[f * u_s]."""
    size = 1 << n
    out = np.zeros(size, dtype=np.float64)
    for s in range(size):
        acc = 0.0
        for x in range(size):
            acc += naive_measure(n, p, x) * values[x] * naive_character(n, p, s, x)
        out[s] = acc
    return out


def integer_wht(values) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of 2^n integers, in int64."""
    v = np.array(values, dtype=np.int64)
    for i in range(v.size.bit_length() - 1):
        a = v.reshape(-1, 2, 1 << i)
        v = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1).reshape(-1)
    return v


@pytest.fixture
def naive():
    return naive_transform


def peak_bytes(fn) -> int:
    """Peak bytes traced while fn() runs, above those live when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
