import bisect
import math
import os
import struct
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cubefourier as cf
from cubefourier import kernels
from cubefourier.boolfn import level_array
from cubefourier.config import get_max_n, set_max_n
from cubefourier.errors import InputError, ResourceError
from cubefourier.spectral import _square_sums, level_sums, measure_weights, square_sums, top_masks
from conftest import (
    discrete_derivative,
    dyadic_check,
    integer_wht,
    naive_character,
    naive_transform,
    peak_bytes,
    reconstruct_exact,
    total_influence_combinatorial,
)
from test_kernels import STAGE_BACKENDS

BIASES = [0.5, 0.25, 0.125, 0.3, 0.71]


# --- agreement with the naive definition ----------------------------------


@given(st.integers(1, 7), st.integers(0, 10_000), st.sampled_from(BIASES))
def test_transform_matches_naive_definition(n, seed, p):
    f = cf.random_function(n, seed)
    fast = cf.transform(f, p)
    slow = naive_transform(f.sign_values(), n, p)
    assert np.max(np.abs(fast.coeffs - slow)) < 1e-12


def test_known_majority3_spectrum():
    sp = cf.transform(cf.majority(3))
    expected = np.array([0, 4, 4, 0, 4, 0, 0, -4]) / 8.0
    assert np.max(np.abs(sp.coeffs - expected)) < 1e-15


def test_known_dictator_biased_spectrum():
    sp = cf.transform(cf.dictator(1, 1), 0.25)
    assert sp.coeffs[0] == pytest.approx(0.5, abs=1e-15)
    assert sp.coeffs[1] == pytest.approx(2 * math.sqrt(0.25 * 0.75), abs=1e-15)


def test_parity_spectrum_is_a_single_coefficient():
    sp = cf.transform(cf.parity(4, 0b1011))
    expected = np.zeros(16)
    expected[0b1011] = 1.0
    assert np.array_equal(sp.coeffs, expected)


@given(st.integers(1, 6), st.integers(0, 10_000), st.sampled_from(BIASES))
def test_empty_set_coefficient_is_the_mean(n, seed, p):
    f = cf.random_function(n, seed)
    sp = cf.transform(f, p)
    mean = float(np.sum(measure_weights(n, p) * f.sign_values()))
    assert sp.coeffs[0] == pytest.approx(mean, abs=1e-12)


# --- roundtrip and Parseval ------------------------------------------------


@given(st.integers(1, 10), st.integers(0, 10_000), st.sampled_from(BIASES))
def test_roundtrip_recovers_the_table(n, seed, p):
    f = cf.random_function(n, seed)
    back = cf.inverse_transform(cf.transform(f, p))
    assert np.max(np.abs(back.values - f.sign_values())) < 1e-9


@given(st.integers(1, 10), st.integers(0, 10_000), st.sampled_from(BIASES))
def test_parseval_energy_is_one(n, seed, p):
    f = cf.random_function(n, seed)
    sp = cf.transform(f, p)
    assert abs(np.sum(sp.squares()) - 1.0) < 1e-10
    assert cf.parseval_gap(sp, f) < 1e-10
    # a Boolean table takes the binomial level counts: bitwise the same gap
    assert cf.parseval_gap(sp, cf.RealTable(n, f.sign_values())) == cf.parseval_gap(sp, f)


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_parseval_gap_of_a_large_boolean_table_matches_the_real_path(p):
    f = cf.random_function(20, 4)
    sp = cf.transform(f, p)
    assert cf.parseval_gap(sp, cf.RealTable(20, f.sign_values())) == cf.parseval_gap(sp, f)


@given(st.integers(1, 5), st.sampled_from(BIASES))
def test_inverse_of_unit_spectrum_is_a_character(n, p):
    """A single unit coefficient at S inverts to the character u_S itself."""
    for s in (0, (1 << n) - 1, 1 << (n - 1)):
        coeffs = np.zeros(1 << n)
        coeffs[s] = 1.0
        table = cf.inverse_transform(cf.Spectrum(n, p, coeffs))
        expected = [naive_character(n, p, s, x) for x in range(1 << n)]
        assert np.max(np.abs(table.values - expected)) < 1e-12


def test_inverse_of_zero_spectrum_is_zero():
    table = cf.inverse_transform(cf.Spectrum(3, 0.3, np.zeros(8)))
    assert not table.values.any()


# --- influences -------------------------------------------------------------


@given(st.integers(1, 7), st.integers(0, 10_000), st.sampled_from(BIASES))
def test_per_coordinate_influence_identity(n, seed, p):
    """Crossing probability times 4p(1-p) equals the mass on sets containing i."""
    f = cf.random_function(n, seed)
    sp = cf.transform(f, p)
    w = sp.squares()
    masks = np.arange(1 << n)
    for i in range(1, n + 1):
        spectral_side = float(np.sum(w[(masks >> (i - 1)) & 1 == 1]))
        combinatorial = cf.influence_combinatorial(f, i, p)
        assert abs(combinatorial * 4 * p * (1 - p) - spectral_side) < 1e-9


@given(st.integers(1, 7), st.integers(0, 10_000), st.sampled_from(BIASES))
def test_total_influence_agrees_spectral_vs_combinatorial(n, seed, p):
    f = cf.random_function(n, seed)
    spectral = cf.total_influence_spectral(cf.transform(f, p))
    combinatorial = total_influence_combinatorial(f, p)
    assert abs(spectral - combinatorial) < 1e-9


def test_dictator_influence_vector():
    v = cf.influence_vector(cf.dictator(3, 2))
    assert v.tolist() == [0.0, 1.0, 0.0]


@given(st.integers(2, 6), st.integers(0, 2_000))
def test_derivative_spectrum_is_a_slice(n, seed):
    """Coefficients of the i-derivative equal those of f on sets containing i."""
    f = cf.random_function(n, seed)
    sp = cf.exact_transform(f)
    for i in range(1, n + 1):
        dsp = cf.exact_transform(discrete_derivative(f, i))
        low = (1 << (i - 1)) - 1
        for s_rest in range(1 << (n - 1)):
            s = (s_rest & low) | ((s_rest & ~low) << 1) | (1 << (i - 1))
            # derivative table has n-1 variables: its denominator is 2^(n-1)
            assert dsp.coeffs[s_rest] == sp.coeffs[s]


# --- exact arithmetic -------------------------------------------------------


@given(st.integers(1, 14), st.integers(0, 10_000))
def test_exact_transform_matches_float_transform(n, seed):
    # every weight at p = 1/2 is +-1/2, so the float butterfly is exact; the
    # reduction checks rely on this to transform reduced tables in floats
    f = cf.random_function(n, seed)
    exact = cf.exact_transform(f).coeffs
    fast = cf.transform(f, 0.5).coeffs
    assert np.array_equal(exact, fast)
    assert np.array_equal(np.signbit(exact), np.signbit(fast))


@pytest.mark.parametrize("n", range(1, 15))
def test_exact_transform_matches_integer_butterfly_on_sign_tables(n):
    f = cf.random_function(n, seed=n)
    want = integer_wht(1 - 2 * f.bits.astype(np.int64))
    assert np.array_equal(cf.exact_transform(f).numerators, want)


def _extreme_integer_tables(n):
    """Integer tables at the exact transform's bound 2^20, where the partial
    sums reach 2^(20 + n): random, both constants, and a full-scale parity."""
    bound = 1 << 20
    rng = np.random.Generator(np.random.PCG64(n))
    signs = 1 - 2 * (np.bitwise_count(np.arange(1 << n)).astype(np.int64) & 1)
    return {
        "random": rng.integers(-bound, bound, size=1 << n, endpoint=True),
        "max": np.full(1 << n, bound),
        "min": np.full(1 << n, -bound),
        "parity": bound * signs,
    }


@pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 17, 20])
def test_exact_transform_matches_integer_butterfly_on_integer_tables(n):
    for label, vals in _extreme_integer_tables(n).items():
        table = cf.RealTable(n, vals.astype(np.float64))
        d = cf.exact_transform(table)
        assert np.array_equal(d.numerators, integer_wht(vals)), (n, label)
        back = reconstruct_exact(d)
        assert np.array_equal(back.values, table.values), (n, label)


@given(st.integers(1, 8), st.integers(0, 10_000))
def test_exact_reconstruction_is_lossless(n, seed):
    f = cf.random_function(n, seed)
    assert reconstruct_exact(cf.exact_transform(f)) == f


def test_exact_transform_accepts_integer_real_tables():
    t = cf.RealTable(2, np.array([3.0, -1.0, 0.0, 2.0]))
    d = cf.exact_transform(t)
    back = reconstruct_exact(d)
    assert np.array_equal(back.values, t.values)


def test_exact_transform_rejects_non_integers():
    with pytest.raises(InputError):
        cf.exact_transform(cf.RealTable(1, np.array([0.5, 1.0])))


def test_constant_function_is_a_point_mass_at_the_empty_set():
    d = cf.exact_transform(cf.constant(3))
    assert d.numerators.tolist() == [8, 0, 0, 0, 0, 0, 0, 0]
    assert cf.exact_transform(cf.constant(3, -1)).numerators[0] == -8


@given(st.integers(1, 8), st.integers(0, 10_000))
def test_exact_parseval_is_an_identity(n, seed):
    f = cf.random_function(n, seed)
    d = cf.exact_transform(f)
    total = sum(Fraction(int(v) * int(v), 1 << (2 * n)) for v in d.numerators)
    assert total == 1


# --- entropy, degree, profiles ----------------------------------------------


def test_majority3_entropy_and_influence():
    sp = cf.transform(cf.majority(3))
    assert cf.spectral_entropy(sp) == pytest.approx(2.0, abs=1e-12)
    assert cf.total_influence_spectral(sp) == pytest.approx(1.5, abs=1e-12)


def test_dictator_biased_entropy_is_binary_entropy():
    sp = cf.transform(cf.dictator(1, 1), 0.25)
    assert cf.spectral_entropy(sp) == pytest.approx(0.8112781244591329, abs=1e-12)


def test_parity_has_zero_entropy():
    assert cf.spectral_entropy(cf.transform(cf.parity(5, 0b10110))) == 0.0


@given(st.integers(1, 8), st.integers(0, 10_000), st.sampled_from(BIASES))
def test_entropy_lies_between_zero_and_n(n, seed, p):
    # the squared coefficients of a +-1 function form a distribution on
    # 2^n atoms, so its Shannon entropy cannot exceed n bits
    ent = cf.spectral_entropy(cf.transform(cf.random_function(n, seed), p))
    assert -1e-12 <= ent <= n + 1e-9


def test_degree_of_known_functions():
    assert cf.degree(cf.transform(cf.parity(4, 0b1111))) == 4
    assert cf.degree(cf.transform(cf.dictator(4, 2))) == 1
    assert cf.degree(cf.exact_transform(cf.mux3())) == 2


def test_level_profile_sums_to_one():
    f = cf.random_function(6, 42)
    prof = cf.level_profile(cf.transform(f, 0.3))
    assert prof.total == pytest.approx(1.0, abs=1e-10)


def test_exact_level_profile_of_majority3():
    prof = cf.level_profile(cf.exact_transform(cf.majority(3)))
    assert prof.exact == (Fraction(0), Fraction(3, 4), Fraction(0), Fraction(1, 4))
    assert sum(prof.weights[2:]) == pytest.approx(0.25)
    assert sum(prof.weights[4:]) == 0.0


def test_parity_profile_is_a_point_mass():
    prof = cf.level_profile(cf.transform(cf.parity(3, 0b111)))
    assert prof.weights.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert sum(prof.weights[3:]) == 1.0


def test_mean_level_equals_total_influence_at_half():
    f = cf.random_function(5, 8)
    sp = cf.transform(f)
    prof = cf.level_profile(sp)
    assert prof.mean_level() == pytest.approx(cf.total_influence_spectral(sp), abs=1e-10)


# --- dyadic structure --------------------------------------------------------


def test_low_degree_numerators_are_divisible():
    # a 2-junta on 5 variables: numerators divisible by 2^(5-2)
    f2 = cf.from_bits(2, [0, 1, 1, 1])
    bits = np.tile(f2.bits, 8)
    f = cf.TruthTable(5, bits)
    d = cf.exact_transform(f)
    assert dyadic_check(d, 2)
    assert cf.spectral_entropy(d) <= 2 * 2 + 1e-12


def test_dyadic_check_requires_low_degree_not_just_divisibility():
    # majority(3) has numerators of magnitude 4 = 2^2, so divisibility by
    # 2^(3-1) holds -- but its degree is 3, so the check must still fail
    d = cf.exact_transform(cf.majority(3))
    assert not dyadic_check(d, 1)
    assert not dyadic_check(d, 0)
    assert dyadic_check(d, 3)
    # parity's lone numerator +-2^n divides everything; only the level
    # condition can reject it below full degree
    dp = cf.exact_transform(cf.parity(3, 0b111))
    assert not dyadic_check(dp, 2)
    assert dyadic_check(dp, 3)


def test_dyadic_check_accepts_genuinely_low_degree_functions():
    # a dictator sitting inside three variables is degree 1
    d1 = cf.exact_transform(cf.dictator(3, 2))
    assert dyadic_check(d1, 1)
    # the 3-bit multiplexer has degree 2
    dm = cf.exact_transform(cf.mux3())
    assert dyadic_check(dm, 2)
    assert not dyadic_check(dm, 1)
    # k = n is vacuous; negative k admits only the zero spectrum
    assert dyadic_check(dm, 3)
    assert not dyadic_check(dm, -1)


# --- minimal support ---------------------------------------------------------


def test_min_support_of_majority3():
    sp = cf.transform(cf.majority(3))
    masks, captured = cf.min_support(sp, 0.3)
    # each of the four live coefficients carries 1/4; three suffice for 3/4
    assert masks.size == 3
    assert captured == pytest.approx(0.75, abs=1e-12)
    # ties break by ascending mask
    assert masks.tolist() == [1, 2, 4]


def test_min_support_tightening_epsilon_forces_full_support():
    # after the three level-1 coefficients, 1/4 of the mass remains,
    # so epsilon = 0.2 has to take the level-3 coefficient as well
    sp = cf.transform(cf.majority(3))
    masks, captured = cf.min_support(sp, 0.2)
    assert masks.size == 4
    assert captured == pytest.approx(1.0, abs=1e-12)


def test_min_support_of_parity_is_a_single_set():
    masks, captured = cf.min_support(cf.transform(cf.parity(4, 0b1011)), 0.01)
    assert masks.tolist() == [0b1011]
    assert captured == pytest.approx(1.0, abs=1e-12)


def test_min_support_epsilon_zero_returns_support():
    sp = cf.transform(cf.majority(3))
    masks, captured = cf.min_support(sp, 0.0)
    assert sorted(masks.tolist()) == [1, 2, 4, 7]
    assert captured == pytest.approx(1.0, abs=1e-12)


@given(st.integers(1, 7), st.integers(0, 10_000), st.floats(0.001, 0.9))
def test_min_support_is_minimal_and_sufficient(n, seed, eps):
    sp = cf.transform(cf.random_function(n, seed))
    masks, captured = cf.min_support(sp, eps)
    total = float(np.sum(sp.squares()))
    assert total - captured <= eps + 1e-12
    if masks.size:
        # dropping the last (smallest) retained square must overshoot
        w = sp.squares()
        assert total - (captured - w[masks[-1]]) > eps - 1e-12


# --- serialization -----------------------------------------------------------


def _spectrum_bytes(sp):
    """The documented binary layout: magic, u32 n, f64 p, then the coefficients."""
    head = b"CUBEFSP1" + struct.pack("<I", sp.n) + struct.pack("<d", sp.p)
    return head + sp.coeffs.astype("<f8").tobytes()


def test_spectrum_json_roundtrip(tmp_path):
    sp = cf.transform(cf.random_function(5, 1), 0.3)
    path = tmp_path / "s.json"
    cf.save_spectrum_json(sp, path)
    back = cf.load_spectrum_json(path)
    assert back.n == sp.n and back.p == sp.p
    assert np.max(np.abs(back.coeffs - sp.coeffs)) < 1e-15


def test_spectrum_binary_roundtrip_is_bit_exact(tmp_path):
    sp = cf.transform(cf.random_function(7, 2), 0.71)
    path = tmp_path / "s.spec"
    cf.save_spectrum_binary(sp, path)
    assert path.read_bytes() == _spectrum_bytes(sp)
    back = cf.load_spectrum_binary(path)
    assert back == sp


def test_binary_format_rejects_corruption(tmp_path):
    sp = cf.transform(cf.majority(3))
    path = tmp_path / "s.spec"
    cf.save_spectrum_binary(sp, path)
    data = path.read_bytes()
    for bad in (b"WRONGMAG" + data[8:], data[:-8]):
        path.write_bytes(bad)
        with pytest.raises(InputError):
            cf.load_spectrum_binary(path)


def test_binary_file_loader_rejects_what_the_bytes_parser_rejects(tmp_path):
    sp = cf.transform(cf.random_function(5, 1), 0.3)
    data = _spectrum_bytes(sp)
    path = tmp_path / "s.spec"
    for bad in (b"", b"WRONGMAG" + data[8:], data[:-8], data + b"\0", data[:20]):
        path.write_bytes(bad)
        with pytest.raises(InputError):
            cf.load_spectrum_binary(path)
    path.write_bytes(data)
    back = cf.load_spectrum_binary(path)
    assert back == sp
    assert not back.coeffs.flags.writeable


def test_binary_file_loader_reads_a_pipe(tmp_path):
    sp = cf.transform(cf.random_function(5, 1), 0.3)
    data = _spectrum_bytes(sp)
    fifo = tmp_path / "s.fifo"
    os.mkfifo(fifo)
    for body in (data, data[:-8], data + b"\0"):
        writer = threading.Thread(target=fifo.write_bytes, args=(body,), daemon=True)
        writer.start()
        try:
            if body is data:
                assert cf.load_spectrum_binary(fifo) == sp
            else:
                with pytest.raises(InputError):
                    cf.load_spectrum_binary(fifo)
        finally:
            writer.join(timeout=10)


def test_binary_pipe_header_is_checked_before_the_body(tmp_path):
    # only a header claiming n = 30, over the default cap of 26: refused at
    # the header, before a 2^30-entry body is allocated or waited for
    head = cf.spectral._MAGIC + struct.pack("<I", 30) + struct.pack("<d", 0.5)
    fifo = tmp_path / "s.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(head,), daemon=True)
    writer.start()
    try:
        with pytest.raises(ResourceError):
            cf.load_spectrum_binary(fifo)
    finally:
        writer.join(timeout=10)


def test_tables_name_the_shape_they_refuse():
    two_by_one = np.zeros((2, 1))
    for make in (
        lambda: cf.Spectrum(1, 0.5, two_by_one),
        lambda: cf.DyadicSpectrum(1, two_by_one),
        lambda: cf.TruthTable(1, two_by_one),
        lambda: cf.RealTable(1, two_by_one),
        lambda: cf.LevelProfile(1, two_by_one),
    ):
        with pytest.raises(InputError, match=r"got shape \(2, 1\)"):
            make()


@pytest.mark.parametrize("numerators", [[0.5, 1.5], [0.0, 2.0**63], [0, 2**70], [0.0, np.nan]])
def test_exact_spectrum_refuses_numerators_that_are_not_int64_integers(numerators):
    with pytest.raises(InputError):
        cf.DyadicSpectrum(1, numerators)


@pytest.mark.parametrize("numerators", [[0, 2**53 + 2], [0, 2**53 + 1]])
def test_exact_spectrum_refuses_numerators_at_or_above_2_to_the_53(numerators):
    with pytest.raises(InputError):
        cf.DyadicSpectrum(1, numerators)


def test_measure_weights_checks_the_cap():
    saved = get_max_n()
    set_max_n(4)
    try:
        with pytest.raises(ResourceError):
            measure_weights(5, 0.5)
    finally:
        set_max_n(saved)


def test_json_rejects_missing_keys():
    with pytest.raises(InputError):
        cf.spectral.spectrum_from_json('{"n": 1, "coeffs": [0, 1]}')
    with pytest.raises(InputError):
        cf.spectral.spectrum_from_json("not json")
    for bad in (
        '{"n": 1, "p": 0.5, "coeffs": ["a", "b"]}',
        '{"n": "x", "p": 0.5, "coeffs": [0, 1]}',
        '{"n": 1, "p": null, "coeffs": [0, 1]}',
        '{"n": 1.7, "p": 0.5, "coeffs": [0, 1]}',
        '{"n": true, "p": 0.5, "coeffs": [0, 1]}',
        '{"n": 1, "p": true, "coeffs": [0, 1]}',
        '{"n": 1, "p": "0.5", "coeffs": [0, 1]}',
        '{"n": 1, "p": 0.5, "coeffs": [[0], [1]]}',
    ):
        with pytest.raises(InputError):
            cf.spectral.spectrum_from_json(bad)


# --- derived quantities from the spectrum vs their independent paths ----------


@given(st.integers(1, 8), st.integers(0, 10_000), st.sampled_from(BIASES))
def test_coordinate_influences_match_combinatorial(n, seed, p):
    f = cf.random_function(n, seed)
    fast = cf.coordinate_influences(cf.transform(f, p))
    oracle = cf.influence_vector(f, p)
    assert fast.shape == (n,)
    assert np.max(np.abs(fast - oracle)) < 1e-12


def test_coordinate_influences_of_dyadic_spectrum():
    d = cf.exact_transform(cf.majority(3))
    assert cf.coordinate_influences(d).tolist() == [0.5, 0.5, 0.5]


@given(st.integers(1, 8), st.integers(0, 10_000), st.sampled_from(BIASES),
       st.floats(0.0, 0.9))
def test_support_size_is_bitwise_min_support(n, seed, p, eps):
    sp = cf.transform(cf.random_function(n, seed), p)
    masks, captured = cf.min_support(sp, eps)
    size, captured_fast = cf.support_size(sp, eps)
    assert size == masks.size
    assert captured_fast == captured  # bitwise, not approximately
    # the mask list is the prefix of a full stable argsort by weight
    full = np.argsort(-sp.squares(), kind="stable")[: masks.size]
    assert masks.tolist() == full.tolist()


def test_support_size_with_ties_and_empty_support():
    sp = cf.transform(cf.majority(5))
    for eps in (0.0, 0.05, 0.3, 0.6):
        masks, captured = cf.min_support(sp, eps)
        assert cf.support_size(sp, eps) == (masks.size, captured)
    assert cf.support_size(sp, 1.0) == (0, 0.0)
    for eps in (-0.1, math.nan, math.inf):
        with pytest.raises(InputError):
            cf.support_size(sp, eps)
    # a NaN or infinite square leaves no cut: every mask is kept and the
    # captured weight is the total, as in a sort of all the squares
    for bad in (math.nan, math.inf):
        coeffs = sp.coeffs.copy()
        coeffs[3] = bad
        size, captured = cf.support_size(cf.Spectrum(5, 0.5, coeffs), 0.1)
        assert size == 32 and np.array_equal(captured, bad, equal_nan=True)
    assert np.array_equal(
        cf.support_size(cf.Spectrum(5, 0.5, np.full(32, math.nan)), 0.1), (32, math.nan),
        equal_nan=True,
    )


def test_support_at_epsilon_zero_survives_rounding():
    # here the pairwise total exceeds the last running sum by an ulp, so the
    # remainder never reaches 0: every mask is kept instead of failing
    sp = cf.transform(cf.random_function(10, 197), 0.3)
    w = sp.squares()
    assert float(np.sum(w)) > np.cumsum(np.sort(w)[::-1])[-1]
    masks, captured = cf.min_support(sp, 0.0)
    assert masks.size == 1 << 10
    assert cf.support_size(sp, 0.0) == (masks.size, captured)


@given(st.integers(1, 9), st.integers(0, 10_000), st.integers(0, 600))
def test_top_masks_equals_full_stable_argsort(n, seed, k):
    # a rounded spectrum has many tied magnitudes, which exercises tie order
    vals = np.abs(np.round(cf.transform(cf.random_function(n, seed), 0.3).coeffs, 2))
    expect = np.argsort(-vals, kind="stable")[:k]
    assert cf.spectral.top_masks(vals, k).tolist() == expect.tolist()


def _sparse_and_tied(n):
    """Two n-variable spectra with many equal keys, by mask order.

    One is rounded to 3 decimals, with a run of 80 entries of -1 (the
    largest magnitude) across the first block boundary and a few NaN; the
    other, a 6-variable junta's, is zero but for 64 masks.
    """
    flat = np.round(cf.transform(cf.random_function(n, 3), 0.3).coeffs, 3)
    flat[65536 - 40 : 65536 + 40] = -1.0
    flat[[7, 65536 + 3, 3 << 16]] = math.nan
    junta = cf.TruthTable(n, np.tile(cf.random_function(6, 5).bits, 1 << (n - 6)))
    return [flat, cf.transform(junta, 0.3).coeffs.copy()]


@pytest.mark.parametrize("k", [0, 1, 8, 50, 100, 65537, (1 << 17) + 5, 1 << 18])
def test_blocked_top_masks_equal_a_full_stable_argsort(k):
    # k = 50 cuts inside the run of ties across the block boundary; the
    # junta's zeros tie in every block; k > 2^16 keeps whole blocks
    for c in _sparse_and_tied(18):
        for key, keys in ((None, c), (np.abs, np.abs(c)), (np.square, c * c)):
            expect = np.argsort(-keys, kind="stable")[:k]
            assert top_masks(c, k, key=key).tolist() == expect.tolist()


def test_top_masks_cuts_at_nan_when_a_block_has_fewer_than_k_finite_keys():
    v = np.full(1 << 17, np.nan)
    v[[3, 70000, 9, 131071, 65536]] = [-2.0, 5.0, 2.0, -0.5, 0.0]
    expect = np.argsort(-np.abs(v), kind="stable")[:8]
    assert top_masks(v, 8, key=np.abs).tolist() == expect.tolist()


def test_top_masks_holds_no_table_sized_array():
    sp = cf.transform(cf.random_function(20, 4), 0.3)
    top_masks(sp.coeffs, 8, key=np.abs)  # first-call allocations stay out
    peak = peak_bytes(lambda: top_masks(sp.coeffs, 8, key=np.abs))
    assert peak <= 0.25 * sp.coeffs.nbytes


def _literal_support(sp, eps):
    """The epsilon-support's size and weight: sort, running sum, bisection."""
    w = sp.coeffs * sp.coeffs
    total = float(np.sum(w))
    if total <= eps:
        return 0, 0.0
    captured = np.cumsum(np.sort(w[w > 0.0])[::-1])
    cut = bisect.bisect_left(captured, True, key=lambda c: total - c <= eps)
    if cut == captured.size:
        return w.size, float(captured[-1])
    return cut + 1, float(captured[cut])


@given(st.integers(1, 12), st.integers(0, 10_000), st.sampled_from(BIASES),
       st.sampled_from([0.0, 1e-6, 1e-3, 0.01, 0.1, 0.5]), st.sampled_from([1.0, 1e-160]))
def test_support_size_matches_the_literal_formula(n, seed, p, eps, scale):
    # scaled by 1e-160, most squares are subnormal and some underflow to 0
    coeffs = cf.transform(cf.random_function(n, seed), p).coeffs * scale
    sp = cf.Spectrum(n, p, coeffs)
    assert cf.support_size(sp, eps) == _literal_support(sp, eps)  # bitwise


def test_squares_are_fresh_read_only_tables():
    sp = cf.transform(cf.random_function(6, 1), 0.3)
    a = sp.squares()
    assert not np.shares_memory(a, sp.squares()) and not a.flags.writeable
    assert np.array_equal(a, sp.coeffs * sp.coeffs)


@pytest.mark.parametrize(
    "build, field, dtype",
    [
        (lambda a: cf.TruthTable(2, a), "bits", np.uint8),
        (lambda a: cf.RealTable(2, a), "values", np.float64),
        (lambda a: cf.Spectrum(2, 0.3, a), "coeffs", np.float64),
        (lambda a: cf.DyadicSpectrum(2, a), "numerators", np.float64),
    ],
    ids=["TruthTable", "RealTable", "Spectrum", "DyadicSpectrum"],
)
def test_a_table_copies_an_array_the_caller_can_still_write(build, field, dtype):
    whole = np.array([0, 1, 1, 0, 1], dtype=dtype)
    for a in (whole[:4].copy(), whole[1:]):  # an array, and a view of another
        table = build(a)
        kept = getattr(table, field).copy()
        a[0] = 1 - a[0]  # raised "assignment destination is read-only" when a was frozen
        assert np.array_equal(getattr(table, field), kept)


@pytest.mark.parametrize(
    "build, field, dtype",
    [
        (lambda a: cf.TruthTable(2, a), "bits", np.uint8),
        (lambda a: cf.RealTable(2, a), "values", np.float64),
        (lambda a: cf.Spectrum(2, 0.3, a), "coeffs", np.float64),
        (lambda a: cf.DyadicSpectrum(2, a), "numerators", np.float64),
    ],
    ids=["TruthTable", "RealTable", "Spectrum", "DyadicSpectrum"],
)
def test_a_table_copies_a_read_only_view_of_memory_the_caller_can_write(build, field, dtype):
    whole = np.array([0, 1, 1, 0, 1], dtype=dtype)
    for view in (whole[:4].view(), whole[1:], whole[1:][::-1][::-1]):  # views of views too
        view.setflags(write=False)
        table = build(view)
        kept = getattr(table, field).copy()
        whole[:] = 1 - whole  # the caller still writes through ``whole``
        assert np.array_equal(getattr(table, field), kept)


def test_the_producers_of_views_hand_them_over_uncopied():
    """Their root buffer is read-only before the view is taken, so the table keeps the view."""
    bits = cf.parse_truth_table("n=4\nhex:beef\n").bits
    assert not bits.flags.owndata and not bits.flags.writeable


def test_an_exact_spectrum_reads_writable_numerators_without_a_frozen_copy():
    """Peaks in tables of 2^20 doubles: the coefficients and an eighth for the integer check."""
    numerators = np.array(cf.exact_transform(cf.random_function(20, 3)).numerators)
    frozen = numerators.copy()
    frozen.setflags(write=False)
    cf.DyadicSpectrum(20, numerators)  # first-call allocations stay out
    table = 8 * (1 << 20)
    writable_peak = peak_bytes(lambda: cf.DyadicSpectrum(20, numerators))
    assert writable_peak <= 1.13 * table
    assert writable_peak <= peak_bytes(lambda: cf.DyadicSpectrum(20, frozen)) + 4096


@pytest.mark.parametrize(
    "name, tables",
    [("transform", 1.02), ("inverse_transform", 1.13), ("exact_transform", 1.03),
     ("load_spectrum_binary", 1.01)],
)
def test_the_float_producers_hand_over_their_buffer_uncopied(tmp_path, name, tables):
    """Peaks in tables of 2^20 doubles: a copy on construction would add one."""
    f = cf.random_function(20, 4)
    path = tmp_path / "s.spec"
    cf.save_spectrum_binary(cf.transform(f), path)
    args = {"transform": (f, 0.3), "inverse_transform": (cf.transform(f),),
            "exact_transform": (f,), "load_spectrum_binary": (path,)}[name]
    produce = getattr(cf, name)
    produce(*args)  # first-call allocations stay out
    assert peak_bytes(lambda: produce(*args)) <= tables * 8 * (1 << 20)


def _literal_level_fractions(dspec):
    out = [Fraction(0)] * (dspec.n + 1)
    for mask in range(dspec.size):
        out[bin(mask).count("1")] += Fraction(float(dspec.coeffs[mask])) ** 2
    return tuple(out)


@given(st.integers(1, 9), st.integers(0, 10_000))
def test_exact_level_profile_matches_literal_fraction_sum(n, seed):
    d = cf.exact_transform(cf.random_function(n, seed))
    prof = cf.spectral.exact_level_profile(d)
    assert prof.exact == _literal_level_fractions(d)
    assert prof.weights.tolist() == [float(x) for x in prof.exact]


def test_exact_level_profile_big_numerators_take_the_integer_fallback():
    # every value near 2^20 on 12 variables: the empty-set numerator is about
    # 2^32, so its square does not fit the int64 path
    rng = np.random.Generator(np.random.PCG64(5))
    vals = (1 << 20) - rng.integers(0, 3, size=1 << 12)
    d = cf.exact_transform(cf.RealTable(12, vals.astype(np.float64)))
    assert int(np.max(np.abs(d.numerators))) >= 1 << 31
    prof = cf.spectral.exact_level_profile(d)
    assert prof.exact == _literal_level_fractions(d)
    assert prof.exact[0] == Fraction(int(np.sum(vals)), 1 << 12) ** 2


def test_exact_level_profile_float_sums_stop_below_two_to_the_53():
    # level 1 holds 2^52 + 2^52 + 1 = 2^53 + 1 (over 4^3), which doubles
    # round to 2^53: this profile has to take the integer path
    nums = np.zeros(8, dtype=np.int64)
    nums[[1, 2, 4]] = [1 << 26, 1 << 26, 1]
    d = cf.DyadicSpectrum(3, nums)
    prof = cf.spectral.exact_level_profile(d)
    assert prof.exact == _literal_level_fractions(d)
    assert prof.exact[1] == Fraction((1 << 53) + 1, 1 << 6)


def test_exact_spectrum_is_a_half_bias_spectrum():
    d = cf.exact_transform(cf.random_function(6, 3))
    assert isinstance(d, cf.Spectrum) and d.p == 0.5
    assert cf.degree(d) == cf.degree(cf.Spectrum(d.n, 0.5, d.coeffs), 0.0)
    assert np.array_equal(d.numerators, np.ldexp(d.coeffs, d.n))
    assert cf.DyadicSpectrum(d.n, d.numerators) == d


# --- the blocked pass against the whole-array formulas ------------------------


def _whole_array(coeffs, p):
    """Each quantity as one literal expression over the whole table."""
    n = coeffs.size.bit_length() - 1
    w = coeffs * coeffs
    logs = np.log2(w, out=np.zeros_like(w), where=w > 0.0)
    levels = level_array(n)
    scale = 4.0 * p * (1.0 - p)
    return {
        "squares": w,
        "total": np.sum(w),
        "entropy": -np.sum(w * logs) + 0.0,
        "influence": np.sum(levels * w) / scale,
        "coords": np.array([np.sum(w.reshape(-1, 2, 1 << i)[:, 1, :]) for i in range(n)])
        / scale,
        "levels": np.bincount(levels, weights=w, minlength=n + 1),
        "degree": int(np.max(levels, where=np.abs(coeffs) > 1e-9, initial=0)),
    }


def _tables(n):
    """A flat spectrum and a concentrated one (a 6-variable junta)."""
    junta = cf.random_function(6, n)
    return [cf.random_function(n, n), cf.TruthTable(n, np.tile(junta.bits, 1 << (n - 6)))]


@pytest.mark.parametrize("backend", STAGE_BACKENDS, ids=lambda m: m.__name__.rsplit(".", 1)[1])
@pytest.mark.parametrize("p", [0.5, 0.3])
@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_blocked_pass_matches_whole_array_formulas(monkeypatch, backend, p, n):
    monkeypatch.setattr(kernels, "_impl", backend)
    for f in _tables(n):
        sp = cf.transform(f, p)
        want = _whole_array(sp.coeffs, p)
        # summed in adjacent pairs of 2^16-entry blocks: the same bits as np.sum
        assert np.array_equal(sp.squares(), want["squares"])
        assert sp.sums().total[0] == want["total"]
        assert cf.spectral_entropy(sp) == want["entropy"]
        assert cf.total_influence_spectral(sp) == want["influence"]
        assert cf.degree(sp) == want["degree"]
        # folded and level-sorted sums add in another order
        assert np.max(np.abs(cf.coordinate_influences(sp) - want["coords"])) <= 1e-14
        assert np.max(np.abs(cf.level_profile(sp).weights - want["levels"])) <= 1e-14


def _same_doubles(a, b):
    """Bitwise equal, with any NaN matching any NaN: a NaN's sign and payload
    follow the order of an addition's operands, which C compilers may swap."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.int64), b[~nan].view(np.int64)
    )


def _mask_sum_lengths(rows):
    """Every run length numpy's pairwise sum treats apart, up to 2^16 masks."""
    near = {(1 << k) + d for k in range(3, 17) for d in (-9, -1, 0, 1, 7)}
    top = 1 << 16 if rows <= 3 else 1 << 10  # 2^10 masks of 4096 rows: 32 MiB
    return [size for size in sorted({*range(1, 300), *near}) if 1 <= size <= top]


@pytest.mark.parametrize("rows", [1, 3, 4096])
def test_the_mask_sum_is_np_add_reduce_of_each_column(rows):
    from cubefourier.spectral import _mask_sum

    rng = np.random.Generator(np.random.PCG64(rows))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 1e300, -1e300])
    lengths = _mask_sum_lengths(rows)
    if rows == 4096:
        lengths = lengths[::11] + [128, 129]  # each column reduced alone below
    for size in lengths:
        x = rng.standard_normal((size, rows)) * 10.0 ** rng.uniform(-300, 300, (size, rows))
        if size % 3 == 0:  # zeros, signed zeros, infinities, NaN and extremes
            hit = rng.random((size, rows)) < 0.3
            x[hit] = rng.choice(special, np.count_nonzero(hit))
        elif size % 3 == 1:
            x[rng.random((size, rows)) < 0.3] = -0.0
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.array([np.add.reduce(np.ascontiguousarray(x[:, r])) for r in range(rows)])
            kept, got, acc = x.copy(), np.empty(rows), np.empty_like(x)
            _mask_sum(x, got, acc)
            assert np.array_equal(x, kept, equal_nan=True)  # acc took the partial sums
            assert _same_doubles(got, want), size
            _mask_sum(x, got)  # in x itself
            assert _same_doubles(got, want), size
    got = np.empty(rows)
    for size in (1, 7, 8, 9, 200):  # all -0.0: the reduce starts from 0.0
        _mask_sum(np.full((size, rows), -0.0), got)
        assert _same_doubles(got, np.full(rows, np.add.reduce(np.full(size, -0.0))))
        assert not np.signbit(got).any()


def _row(coeffs, r):
    """Every array of square_sums and level_sums of the (2^n, rows) ``coeffs`` at table r."""
    sums, by_level = square_sums(coeffs), level_sums(coeffs)
    names = ("total", "plogp", "level_mass", "coords")
    return [getattr(sums, k)[r] for k in names] + [by_level.levels[r], by_level.peaks[r]]


@pytest.mark.parametrize("n", range(1, 17))
def test_batch_rows_match_each_row_alone(n):
    """A mask-major (2^n, rows) batch gives every table the sums it gets by itself."""
    rng = np.random.Generator(np.random.PCG64(n))
    distinct = rng.standard_normal((7, 1 << n))
    distinct[1] = 0.0  # an all-zero table: no log2 of zero, degree 0
    distinct[2, ::3] = 0.0
    alone = [_row(row.reshape(-1, 1), 0) for row in distinct]
    # as many tables as a 2^16-entry block holds, and 5 more
    rows = (1 << max(0, 16 - n)) + 5
    batch = np.ascontiguousarray(np.resize(distinct, (rows, 1 << n)).T)
    for k, got in enumerate(_row(batch, slice(None))):
        want = np.resize(np.stack([a[k] for a in alone]), got.shape)
        assert np.array_equal(got, want), (n, k)


@pytest.mark.parametrize("n, rows", [(1, 3), (5, 4096), (17, 2)])
def test_square_sums_without_the_coordinate_fold_keep_the_other_sums(n, rows):
    coeffs = np.random.Generator(np.random.PCG64(n)).standard_normal((1 << n, rows))
    full, bare = square_sums(coeffs), _square_sums(coeffs, None, coords=False)
    assert bare.coords is None
    for name in ("total", "plogp", "level_mass"):
        assert np.array_equal(getattr(bare, name), getattr(full, name)), name


def test_square_sums_rejects_arrays_that_are_not_rows_of_tables():
    for bad in (np.zeros(8), np.zeros((0, 2)), np.zeros((6, 2)), np.zeros((2, 2, 4))):
        with pytest.raises(InputError):
            square_sums(bad)
        with pytest.raises(InputError):
            level_sums(bad)
