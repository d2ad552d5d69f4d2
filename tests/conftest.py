"""Shared oracles for the test suite.

The naive transform below is an independent implementation straight from
the definition: build the full character matrix and take expectations as
explicit double sums.  It is O(4^n) and never shares code with the fast
butterfly path, which is the point — agreement between the two is the main
correctness evidence.

``integer_wht`` is the oracle for the exact transform: a literal int64
butterfly, one ``(a + b, a - b)`` reshape per coordinate, that shares no
code with the float64 stage the package runs.

``dyadic_check``, ``reconstruct_exact``, ``discrete_derivative`` and
``total_influence_combinatorial`` build inputs for, or check, the exact
transform and the influences; no command needs them, so they live here.

``materialised_reduction`` is the oracle for the closed-form reduction
report: it builds the reduced table g on n*m variables, transforms it at
p = 1/2 and groups its squares by block projection.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import cubefourier as cf
from cubefourier import kernels

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


@pytest.fixture
def tightened(monkeypatch):
    """The additive bound lowered by 0.95.  No function breaks a proven
    bound, so this makes the violation paths run on real spectra."""
    from cubefourier import conjecture

    real = conjecture.entropy_upper_bounds

    def lowered(n, influence, infl_vec):
        bounds = real(n, influence, infl_vec)
        bounds["logn_bound"] = bounds["logn_bound"] - 0.95
        return bounds

    monkeypatch.setattr(conjecture, "entropy_upper_bounds", lowered)


def peak_bytes(fn) -> int:
    """Peak bytes traced while fn() runs, above those live when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def dyadic_check(dspec, k: int) -> bool:
    """Exact structural test for "behaves like a degree-k function".

    Two conditions on the integer numerators, both read off the coefficients:

    * no weight strictly above level k (the degree really is at most k), and
    * every numerator is divisible by 2**(n - k).

    Divisibility alone is necessary but not sufficient -- parity's single
    numerator is +-2**n and divides everything, and majority-of-3 has
    numerators 0/+-4 which pass the k = 1 divisibility test despite having
    degree 3.  The level condition rules those out.
    """
    if k < 0:
        return not bool(np.any(dspec.coeffs))
    if k >= dspec.n:
        return True
    if cf.degree(dspec) > k:
        return False
    # 2**(n - k) divides a numerator exactly when coeff * 2**k is an integer
    return not bool(np.any(np.ldexp(dspec.coeffs, k) % 1))


def reconstruct_exact(dspec):
    """Invert an exact spectrum: a TruthTable when the values are +-1, else
    the float64 values in mask order.

    The butterfly of the coefficients is the one of the numerators scaled
    by 2**-n, so it is exact whenever every partial sum of the numerators'
    butterfly is an integer below 2**53.
    """
    v = dspec.coeffs.copy()
    kernels.wht_inplace(v)
    if np.all((v == 1) | (v == -1)):
        return cf.TruthTable(dspec.n, ((1 - v) // 2).astype(np.uint8))
    return v


def discrete_derivative(f, i: int) -> np.ndarray:
    """Half the difference of f across coordinate i: 2^(n-1) float64 values.

    "Across coordinate i" is between stored bits 0 and 1; the remaining
    coordinates keep their relative order.  For Boolean f every output lies
    in {-1, 0, 1}.
    """
    pairs = f.sign_values().reshape(-1, 2, 1 << (i - 1))
    return ((pairs[:, 0, :] - pairs[:, 1, :]) / 2.0).reshape(-1)


def total_influence_combinatorial(f, p=0.5) -> float:
    """Total influence from the definition: the sum of the flip probabilities."""
    return sum(cf.influence_vector(f, p))


def materialised_reduction(f, t: int, m: int) -> dict:
    """The numbers of ``reduction_report`` read off g's own spectrum: the
    largest gap between g's squares summed per block projection and f's
    squares at t/2^m, g's influence and g's entropy."""
    from cubefourier import reduction

    g_spec = cf.transform(cf.reduce_table(f, t, m), 0.5)
    f_spec = cf.transform(f, t / (1 << m))
    proj = reduction._block_table(f.n, np.arange(1 << m) != 0)
    grouped = np.zeros(1 << f.n)
    np.add.at(grouped, proj, g_spec.coeffs * g_spec.coeffs)
    return {
        "red0_max_gap": float(np.max(np.abs(grouped - f_spec.squares()))),
        "influence": cf.total_influence_spectral(g_spec),
        "entropy": cf.spectral_entropy(g_spec),
    }
