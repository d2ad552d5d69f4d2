import decimal
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cubefourier as cf
from cubefourier.boolfn import mask_array
from cubefourier import config, reduction
from cubefourier.errors import InputError, ResourceError
from cubefourier.reduction import floor_log2_reciprocal
from cubefourier.spectral import measure_weights

from conftest import integer_wht, materialised_reduction, peak_bytes


class Layout(NamedTuple):
    """One reduction instance: n original variables at bias t/2^m."""

    n: int
    t: int
    m: int

    @property
    def n_reduced(self) -> int:
        return self.n * self.m

    @property
    def threshold(self) -> int:
        """Block values >= threshold make the original coordinate read 1."""
        return (1 << self.m) - self.t


def _original_masks(layout, y):
    """Original input mask selected by each reduced mask y: bit i - 1 of it
    is the reduction of the dictator of coordinate i."""
    masks = np.zeros(1 << layout.n_reduced, dtype=np.int64)
    for i in range(1, layout.n + 1):
        g = cf.reduce_table(cf.dictator(layout.n, i), layout.t, layout.m)
        masks |= g.bits.astype(np.int64) << (i - 1)
    return masks[np.asarray(y, dtype=np.int64)]


def _projections(layout, masks):
    """Original subset mask whose block pattern matches each reduced subset
    mask: the coordinates whose block in it is nonempty."""
    table = reduction._block_table(layout.n, np.arange(1 << layout.m) != 0)
    return table[np.asarray(masks, dtype=np.int64)].astype(np.int64)


def test_reduction_requires_exact_bias():
    for t, m, match in [
        (0.25, 2, "exact bias numerator t must be an integer"),  # a plain float is not enough
        (1.5, 2, "exact bias numerator t must be an integer"),
        (True, 1, "exact bias numerator t must be an integer"),
        (1, 2.0, "exact bias exponent m must be an integer"),
        (1, None, "exact bias exponent m must be an integer"),
        (4, 2, "1 <= t < 2\\^m"),
        (0, 2, "1 <= t < 2\\^m"),
        (-1, 2, "1 <= t < 2\\^m"),
        (1, 0, "1 <= t < 2\\^m"),
    ]:
        for run in (cf.reduce_table, cf.reduction_report):
            with pytest.raises(InputError, match=match):
                run(cf.majority(3), t, m)


@pytest.mark.parametrize("run", [cf.reduce_table, cf.reduction_report])
def test_reduction_refuses_a_zero_variable_table_and_an_oversized_result(run, monkeypatch):
    # no zero-variable table reaches the reduction: none can be built
    with pytest.raises(InputError, match="truth table needs at least one variable"):
        run(cf.TruthTable(0, [0]), 1, 2)
    f = cf.majority(3)
    if run is cf.reduce_table:
        with pytest.raises(ResourceError, match="reduced table on 30 variables"):
            run(f, 1, 10)
        return
    # the report builds no reduced table: n*m = 30 runs, and only f's n is capped
    assert run(f, 1, 10)["m"] == 10
    monkeypatch.setattr(config, "_max_n", 2)
    with pytest.raises(ResourceError, match="table on 3 variables"):
        run(f, 1, 10)


@pytest.mark.parametrize("m", [1075, 10**12])
def test_an_exponent_no_double_needs_is_refused_before_two_to_the_m_is_built(m):
    def refuse():
        with pytest.raises(InputError, match=f"exponent m must be at most 1074, got {m}"):
            cf.reduction_report(cf.dictator(1, 1), 1, m)

    assert peak_bytes(refuse) < 2**20


def test_an_exact_bias_that_rounds_to_one_is_refused_by_name():
    f = cf.majority(3)
    # 1 - 2^-53 is a double; 1 - 2^-54 lies halfway to 1 and rounds to it
    assert cf.reduction_report(f, (1 << 53) - 1, 53)["p"] == 1.0 - 2.0**-53
    for run in (cf.reduce_table, cf.reduction_report):
        with pytest.raises(InputError, match=r"^exact bias t/2\^m with t = 18014398509481983,"
                                             r" m = 54 rounds to 1\.0 as a double"):
            run(f, (1 << 54) - 1, 54)


def test_dictator_quarter_reduces_to_and2():
    g = cf.reduce_table(cf.dictator(1, 1), 1, 2)
    assert g == cf.and_fn(2)


def test_dictator_three_quarters_reduces_to_or2():
    g = cf.reduce_table(cf.dictator(1, 1), 3, 2)
    assert g == cf.or_fn(2)


def test_reduction_block_threshold():
    # t=3, m=2: blocks with value >= 1 feed a 1 into the original function
    layout = Layout(1, t=3, m=2)
    x = _original_masks(layout, np.arange(4))
    assert x.tolist() == [0, 1, 1, 1]


@given(st.integers(1, 3), st.integers(1, 3))
def test_reduced_bit_frequency_matches_bias(n, m):
    """Each original coordinate must read 1 on exactly t of 2^m block values."""
    for t in range(1, 1 << m):
        layout = Layout(n, t=t, m=m)
        y = np.arange(1 << layout.n_reduced, dtype=np.int64)
        x = _original_masks(layout, y)
        for i in range(n):
            frac = np.mean((x >> i) & 1)
            assert frac == pytest.approx(t / (1 << m), abs=1e-12)


def test_pushforward_counts_are_exact_integers():
    # the uniform measure on reduced masks must push forward to exactly
    # t^|x| (2^m - t)^(n - |x|) preimages of each original mask x
    for n, t, m in [(2, 1, 2), (2, 3, 2), (1, 5, 3), (3, 1, 2)]:
        layout = Layout(n, t=t, m=m)
        x = _original_masks(layout, np.arange(1 << layout.n_reduced, dtype=np.int64))
        counts = np.bincount(x, minlength=1 << n)
        ones = np.bitwise_count(mask_array(n)).astype(np.int64)
        expected = t**ones * ((1 << m) - t) ** (n - ones)
        assert counts.tolist() == expected.tolist()


def test_constant_reduces_to_constant():
    g = cf.reduce_table(cf.constant(2, -1), 1, 2)
    assert g.n == 4
    assert bool(np.all(g.bits == 1))


def test_block_projection_groups_by_nonempty_blocks():
    layout = Layout(2, t=1, m=2)
    masks = np.array([0b0000, 0b0001, 0b0100, 0b0101, 0b1100])
    proj = _projections(layout, masks)
    assert proj.tolist() == [0b00, 0b01, 0b10, 0b11, 0b10]


def test_floor_log2_reciprocal():
    assert floor_log2_reciprocal(1, 2) == 2  # p = 1/4
    assert floor_log2_reciprocal(1, 3) == 3  # p = 1/8
    assert floor_log2_reciprocal(3, 3) == 1  # p = 3/8 -> floor(log2(8/3)) = 1
    assert floor_log2_reciprocal(1, 1) == 1  # p = 1/2
    assert floor_log2_reciprocal(3, 2) == 0  # p = 3/4


# --- the three verified invariants ------------------------------------------


def test_worked_example_dictator_quarter():
    report = cf.reduction_report(cf.dictator(1, 1), 1, 2)
    assert report["p"] == 0.25 and (report["t"], report["m"]) == (1, 2)
    assert report["red0_max_gap"] < 1e-12
    assert report["red_fk"]["holds"]
    assert report["red_fk"]["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert report["red_fk"]["rhs"] == pytest.approx(3.0, abs=1e-12)
    assert report["entropy"]["reduced"] == pytest.approx(2.0, abs=1e-12)
    assert report["entropy"]["original"] == pytest.approx(0.8112781244591329, abs=1e-3)
    assert report["entropy"]["holds"]


@pytest.mark.parametrize("f", [cf.majority(3)], ids=["truth-table"])
def test_each_check_is_its_field_of_the_report(f):
    report = cf.reduction_report(f, 3, 3)
    assert report["p"] == 3 / 8
    assert cf.verify_red0(f, 3, 3) == report["red0_max_gap"]
    assert cf.verify_red_fk(f, 3, 3) == tuple(report["red_fk"].values())
    assert cf.verify_entropy_monotone(f, 3, 3) == tuple(report["entropy"].values())


def test_red0_aggregates_squares_exactly_for_dictator():
    layout = Layout(1, t=1, m=2)
    g = cf.reduce_table(cf.dictator(1, 1), layout.t, layout.m)
    gsp = cf.exact_transform(g)
    proj = _projections(layout, np.arange(1 << g.n))
    squares = (gsp.numerators / (1 << g.n)) ** 2
    # V(empty) carries (1-2p)^2 = 1/4, V({1}) carries 4p(1-p) = 3/4
    assert np.sum(squares[proj == 0]) == pytest.approx(0.25, abs=1e-15)
    assert np.sum(squares[proj == 1]) == pytest.approx(0.75, abs=1e-15)


@given(
    st.integers(0, 500),
    st.sampled_from([(1, 1), (1, 2), (3, 2), (1, 3), (5, 3), (7, 3)]),
    st.integers(1, 3),
)
def test_red0_identity_on_random_functions(seed, tm, n):
    t, m = tm
    if n * m > 10:
        n = 10 // m
    f = cf.random_function(n, seed)
    gap = cf.verify_red0(f, t, m)
    assert gap < 1e-9


@given(st.integers(0, 500), st.sampled_from([(1, 1), (1, 2), (1, 3), (3, 3)]))
def test_red_fk_bound_on_random_functions(seed, tm):
    t, m = tm
    n = max(1, 9 // m)
    f = cf.random_function(n, seed)
    lhs, rhs, holds = cf.verify_red_fk(f, t, m)
    assert holds, (lhs, rhs)


@given(
    st.integers(0, 500),
    st.sampled_from([(1, 1), (1, 2), (3, 2), (1, 3), (5, 3)]),
)
def test_entropy_never_decreases_under_reduction(seed, tm):
    t, m = tm
    n = max(1, 9 // m)
    f = cf.random_function(n, seed)
    reduced, original, holds = cf.verify_entropy_monotone(f, t, m)
    assert holds, (reduced, original)


def test_reduction_preserves_the_mean():
    f = cf.random_function(3, seed=77)
    g = cf.reduce_table(f, 3, 2)
    mu = measure_weights(3, 0.75)
    assert float(np.mean(g.sign_values())) == pytest.approx(
        float(np.sum(mu * f.sign_values())), abs=1e-12
    )


def test_red_fk_edge_cases():
    # parity on two variables at p = 1/4
    lhs, rhs, holds = cf.verify_red_fk(cf.parity(2, 0b11), 1, 2)
    assert holds, (lhs, rhs)
    # a constant function has zero entropy and zero influence on both sides
    lhs, rhs, holds = cf.verify_red_fk(cf.constant(2), 1, 2)
    assert lhs == 0.0 and rhs == 0.0 and holds


def test_report_shape_is_stable():
    report = cf.reduction_report(cf.majority(3), 1, 2)
    assert set(report) == {"p", "t", "m", "red0_max_gap", "red_fk", "entropy"}
    assert set(report["red_fk"]) == {"lhs", "rhs", "holds"}
    assert set(report["entropy"]) == {"reduced", "original", "holds"}


# --- block tables against the per-block formula -----------------------------


def _per_block(layout, y, keep):
    """Bit i of the result is keep(block i of y), one block at a time."""
    y = np.asarray(y, dtype=np.int64)
    out = np.zeros_like(y)
    for i in range(layout.n):
        vals = (y >> (i * layout.m)) & ((1 << layout.m) - 1)
        out |= keep(vals).astype(np.int64) << i
    return out


@st.composite
def _layout_and_masks(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 14 // m))
    t = draw(st.integers(1, (1 << m) - 1))
    layout = Layout(n, t=t, m=m)
    masks = draw(st.lists(st.integers(0, (1 << layout.n_reduced) - 1), max_size=64))
    return layout, np.array(masks, dtype=np.int64)


@given(_layout_and_masks())
def test_original_masks_match_the_per_block_formula(case):
    layout, y = case
    x = _original_masks(layout, y)
    assert x.dtype == np.int64
    assert x.tolist() == _per_block(layout, y, lambda v: v >= layout.threshold).tolist()


@given(_layout_and_masks())
def test_block_projection_matches_the_per_block_formula(case):
    layout, masks = case
    proj = _projections(layout, masks)
    assert proj.dtype == np.int64
    assert proj.tolist() == _per_block(layout, masks, lambda v: v != 0).tolist()


# --- the closed form against the materialised reduction ---------------------

EVERY_DYADIC_BIAS = [(t, m) for m in range(1, 5) for t in range(1, 1 << m)]


def _assert_matches_the_materialised_report(f, t, m):
    report, oracle = cf.reduction_report(f, t, m), materialised_reduction(f, t, m)
    assert report["red0_max_gap"] == pytest.approx(oracle["red0_max_gap"], abs=1e-12)
    assert report["red_fk"]["lhs"] == pytest.approx(oracle["influence"], rel=1e-12, abs=1e-12)
    assert report["entropy"]["reduced"] == pytest.approx(oracle["entropy"], rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_closed_form_matches_the_materialised_report_on_every_small_function(n):
    # every t for m <= 4, so p > 1/2 too
    for table in range(1 << (1 << n)):
        f = cf.from_bits(n, [(table >> x) & 1 for x in range(1 << n)])
        for t, m in EVERY_DYADIC_BIAS:
            _assert_matches_the_materialised_report(f, t, m)


@pytest.mark.parametrize("seed", range(20))
def test_the_closed_form_matches_the_materialised_report_at_four_variables(seed):
    f = cf.random_function(4, seed)
    for t, m in EVERY_DYADIC_BIAS:
        _assert_matches_the_materialised_report(f, t, m)


def _block_thresholds(m, ts):
    """Rows of 0/1 block thresholds h(y) = [y >= 2^m - t], one per t."""
    ts = np.asarray(ts, dtype=np.int64)
    return (np.arange(1 << m) >= (1 << m) - ts[:, None]).astype(np.int64)


@pytest.mark.parametrize("m", range(1, 11))
def test_block_influence_counts_the_cut_edges(m):
    ts = np.arange(1, 1 << m)
    h = _block_thresholds(m, ts)
    y = np.arange(1 << m)
    flips = sum(np.sum(h != h[:, y ^ (1 << j)], axis=1) for j in range(m))
    for t, count in zip(ts.tolist(), flips.tolist()):
        assert reduction._block_influence(t, m) == count / (1 << m), (t, m)


def _wht_rows(x):
    """integer_wht of each row of x, one (a + b, a - b) reshape per coordinate."""
    for i in range(x.shape[1].bit_length() - 1):
        a = x.reshape(x.shape[0], -1, 2, 1 << i)
        x = np.stack((a[:, :, 0] + a[:, :, 1], a[:, :, 0] - a[:, :, 1]), axis=2)
        x = x.reshape(a.shape[0], -1)
    return x


@pytest.mark.parametrize("m", range(1, 13))
def test_block_entropy_matches_a_transform_of_the_block(m):
    ts = np.arange(1, 1 << m)
    for lo in range(0, ts.size, 256):
        chunk = ts[lo : lo + 256]
        nums = _wht_rows(_block_thresholds(m, chunk))[:, 1:]
        u = nums.astype(np.float64) ** 2 / (chunk * ((1 << m) - chunk))[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            want = -np.sum(np.where(u > 0, u * np.log2(u), 0.0), axis=1)
        got = np.array([reduction._block_spectrum(t, m) for t in chunk.tolist()])
        assert np.max(np.abs(got[:, 0] - want)) <= 1e-12
        assert np.max(np.abs(got[:, 1] - 1.0)) <= 1e-14
        assert np.max(np.abs(u.sum(axis=1) - 1.0)) <= 1e-14


def _block_squares(t, m):
    """{square: count} of the nonempty uniform spectrum of the 0/1 block
    threshold, exactly, from its split on the top bit: a threshold on m - 1
    bits on one half, a constant on the other."""
    squares, scale = {}, 1
    for j in range(m, 0, -1):
        half = 1 << (j - 1)
        low = t if t <= half else t - half  # the inner threshold's top values
        mean = Fraction(low, half)
        new = (mean / 2) ** 2 if t <= half else ((mean - 1) / 2) ** 2
        if new:
            squares[new / scale] = squares.get(new / scale, 0) + (1 << (m - j))
        scale, t = scale * 4, low
    return squares


def test_the_exact_block_squares_are_those_of_the_transform():
    for m in range(1, 7):
        rows = _block_thresholds(m, range(1, 1 << m))
        assert np.array_equal(_wht_rows(rows), np.stack([integer_wht(row) for row in rows]))
        for t in range(1, 1 << m):
            nums = integer_wht(rows[t - 1])[1:]
            want = {}
            for v in nums.tolist():
                if v:
                    key = Fraction(v * v, 4**m)
                    want[key] = want.get(key, 0) + 1
            assert _block_squares(t, m) == want, (t, m)


def test_block_entropy_at_a_tiny_bias_matches_decimal_arithmetic():
    """p = 3 * 2^-600: each u is a ratio of integers near 2^600."""
    t, m = 3, 600
    variance = Fraction(t, 1 << m) * (1 - Fraction(t, 1 << m))
    u = {square / variance: count for square, count in _block_squares(t, m).items()}
    assert sum(v * c for v, c in u.items()) == 1
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ln2 = decimal.Decimal(2).ln()

        def dec(q):
            return decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator)

        want = -sum(c * dec(v) * dec(v).ln() / ln2 for v, c in u.items())
    entropy, mass = reduction._block_spectrum(t, m)
    assert entropy == pytest.approx(float(want), rel=1e-14)
    assert mass == pytest.approx(1.0, abs=1e-15)


def test_the_report_holds_no_reduced_table():
    f = cf.random_function(6, 7)  # n*m = 24 below: the reduced table alone is 16 MiB
    assert peak_bytes(lambda: cf.reduction_report(f, 3, 4)) < 2**20
