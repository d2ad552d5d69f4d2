from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cubefourier as cf
from cubefourier.errors import InputError, ResourceError
from cubefourier.spectral import LevelProfile, exact_level_profile


def test_product_multiplies_sign_values():
    f = cf.majority(3)
    g = cf.dictator(2, 1)
    prod = cf.tensor_product(f, g)
    assert prod.n == 5
    for mask in range(32):
        assert prod.value(mask) == f.value(mask & 0b111) * g.value(mask >> 3)


def test_product_spectrum_is_the_outer_product():
    f = cf.majority(3)
    g = cf.mux3()
    sf = cf.exact_transform(f)
    sg = cf.exact_transform(g)
    sp = cf.exact_transform(cf.tensor_product(f, g))
    for s in range(1 << 6):
        lo, hi = s & 0b111, s >> 3
        assert sp.coefficient(s) == sf.coefficient(lo) * sg.coefficient(hi)


@given(st.integers(0, 200), st.integers(0, 200), st.sampled_from([0.5, 0.3]))
def test_entropy_and_influence_are_additive(seed_a, seed_b, p):
    f = cf.random_function(3, seed_a)
    g = cf.random_function(2, seed_b)
    sf, sg = cf.transform(f, p), cf.transform(g, p)
    sp = cf.transform(cf.tensor_product(f, g), p)
    assert cf.spectral_entropy(sp) == pytest.approx(
        cf.spectral_entropy(sf) + cf.spectral_entropy(sg), abs=1e-9
    )
    assert cf.total_influence_spectral(sp) == pytest.approx(
        cf.total_influence_spectral(sf) + cf.total_influence_spectral(sg), abs=1e-9
    )


def test_dictator_squares_to_parity():
    prod = cf.tensor_product(cf.dictator(1, 1), cf.dictator(1, 1))
    assert prod == cf.parity(2, 0b11)


def test_product_with_constant_keeps_the_spectrum():
    f = cf.majority(3)
    prod = cf.tensor_product(f, cf.constant(2, 1))
    sp, sf = cf.transform(prod), cf.transform(f)
    assert cf.spectral_entropy(sp) == pytest.approx(cf.spectral_entropy(sf), abs=1e-12)
    assert cf.total_influence_spectral(sp) == pytest.approx(
        cf.total_influence_spectral(sf), abs=1e-12
    )


def test_power_one_is_identity():
    f = cf.majority(3)
    assert cf.tensor_power(f, 1) == f


def test_virtual_power_one_matches_direct_analysis():
    f = cf.random_function(4, 23)
    stats = cf.virtual_power_stats(f, 1, p=0.3)
    sp = cf.transform(f, 0.3)
    assert stats.entropy == pytest.approx(cf.spectral_entropy(sp), abs=1e-12)
    assert stats.total_influence == pytest.approx(
        cf.total_influence_spectral(sp), abs=1e-12
    )
    assert np.array_equal(stats.profile.weights, cf.level_profile(sp).weights)


def test_virtual_stats_match_explicit_power():
    f = cf.majority(3)
    stats = cf.virtual_power_stats(f, 2)
    sp = cf.transform(cf.tensor_power(f, 2))
    assert stats.entropy == pytest.approx(cf.spectral_entropy(sp), abs=1e-10)
    assert stats.total_influence == pytest.approx(
        cf.total_influence_spectral(sp), abs=1e-10
    )
    prof = cf.level_profile(sp)
    assert np.max(np.abs(stats.profile.weights - prof.weights)) < 1e-10


def test_exact_virtual_profile_of_majority3_squared():
    stats = cf.virtual_power_stats(cf.majority(3), 2, exact=True)
    assert stats.profile.exact == (
        Fraction(0),
        Fraction(0),
        Fraction(9, 16),
        Fraction(0),
        Fraction(3, 8),
        Fraction(0),
        Fraction(1, 16),
    )
    assert stats.profile.tail(2) == pytest.approx(7 / 16, abs=1e-15)


@given(st.integers(1, 20))
def test_ratio_is_invariant_under_powers(N):
    f = cf.majority(3)
    stats = cf.virtual_power_stats(f, N)
    assert stats.ei_ratio == pytest.approx(4 / 3, abs=1e-9)


@pytest.mark.parametrize("p", [0.3, 0.71])
def test_power_ratio_is_the_analyze_ratio_at_any_bias(p):
    for f in (cf.majority(3), cf.tribes(2, 3), cf.random_function(6, 4)):
        assert cf.virtual_power_stats(f, 1, p).ei_ratio == cf.analyze(f, p).ratio


@given(st.integers(1, 20), st.integers(0, 100))
def test_mean_level_scales_linearly(N, seed):
    f = cf.random_function(3, seed)
    base = cf.virtual_power_stats(f, 1)
    stats = cf.virtual_power_stats(f, N)
    assert stats.mean_level() == pytest.approx(N * base.mean_level(), rel=1e-9, abs=1e-9)
    assert stats.level_variance() == pytest.approx(
        N * base.level_variance(), rel=1e-9, abs=1e-9
    )


def test_exact_mode_requires_uniform_measure():
    with pytest.raises(InputError):
        cf.virtual_power_stats(cf.majority(3), 2, p=0.3, exact=True)


def test_power_needs_positive_exponent():
    with pytest.raises(InputError):
        cf.tensor_power(cf.majority(3), 0)
    with pytest.raises(InputError):
        cf.virtual_power_stats(cf.majority(3), 0)


def test_profile_convolution_agrees_with_float_path():
    f = cf.random_function(4, 17)
    base = cf.level_profile(cf.transform(f))
    twice = cf.profile_power(base, 2)
    explicit = cf.level_profile(cf.transform(cf.tensor_power(f, 2)))
    assert np.max(np.abs(twice.weights - explicit.weights)) < 1e-12


# --- exact profile powers against independent oracles -----------------------


def _sequential_fraction_convolve(a, b):
    """The schoolbook Fraction convolution, one product at a time."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _exact_profile(f):
    return exact_level_profile(cf.exact_transform(f))


@given(st.integers(2, 4), st.integers(1, 7), st.integers(0, 10_000))
def test_exact_power_matches_the_explicit_tensor_power(n, N, seed):
    N = min(N, 14 // n)
    f = cf.random_function(n, seed)
    power = cf.profile_power(_exact_profile(f), N)
    explicit = _exact_profile(cf.tensor_power(f, N))
    assert power.n == explicit.n == n * N
    assert power.exact == explicit.exact
    assert np.array_equal(power.weights, explicit.weights)


@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10_000), st.integers(0, 10_000))
def test_exact_convolution_matches_the_explicit_product(na, nb, seed_a, seed_b):
    f, g = cf.random_function(na, seed_a), cf.random_function(nb, seed_b)
    prod = cf.profile_convolve(_exact_profile(f), _exact_profile(g))
    explicit = _exact_profile(cf.tensor_product(f, g))
    assert prod.exact == explicit.exact
    assert np.array_equal(prod.weights, explicit.weights)


def test_exact_power_of_majority3_matches_sequential_fraction_convolution():
    base = _exact_profile(cf.majority(3))
    expected = base.exact
    for _ in range(199):
        expected = _sequential_fraction_convolve(expected, base.exact)
    power = cf.profile_power(base, 200)
    assert power.exact == expected
    assert np.array_equal(power.weights, [float(x) for x in expected])


def test_exact_convolution_mixes_denominators():
    a = LevelProfile(1, np.array([0.25, 0.75]), exact=(Fraction(1, 4), Fraction(3, 4)))
    b = LevelProfile(2, np.array([1 / 3, 0.5, 1 / 6]),
                     exact=(Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)))
    prod = cf.profile_convolve(a, b)
    assert prod.exact == _sequential_fraction_convolve(a.exact, b.exact)
    zero = LevelProfile(1, np.zeros(2), exact=(Fraction(0), Fraction(0)))
    assert cf.profile_power(zero, 3).exact == (Fraction(0),) * 4


@given(st.integers(1, 12), st.integers(0, 100))
def test_float_power_keeps_its_sequential_convolution(N, seed):
    base = cf.level_profile(cf.transform(cf.random_function(3, seed), 0.3))
    expected = base.weights
    for _ in range(N - 1):
        expected = np.convolve(expected, base.weights)
    assert np.array_equal(cf.profile_power(base, N).weights, expected)


def test_exact_power_refuses_a_result_over_the_memory_cap():
    base = _exact_profile(cf.majority(3))
    with pytest.raises(ResourceError):
        cf.profile_power(base, 10**6)
    with pytest.raises(ResourceError):
        cf.virtual_power_stats(cf.majority(3), 10**6, exact=True)


def test_exact_power_refuses_negative_weights():
    bad = LevelProfile(1, np.array([1.5, -0.5]), exact=(Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(InputError):
        cf.profile_power(bad, 10**6)
    with pytest.raises(InputError):
        cf.profile_convolve(bad, bad)
