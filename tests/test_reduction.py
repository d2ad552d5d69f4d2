import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cubefourier as cf
from cubefourier.boolfn import Bias, mask_array
from cubefourier import reduction
from cubefourier.errors import InputError
from cubefourier.reduction import ReductionLayout, floor_log2_reciprocal
from cubefourier.spectral import measure_weights


def _original_masks(layout, y):
    """Original input mask selected by each reduced mask y: the reduction of
    the table whose value at every original mask is that mask."""
    n = layout.n_original
    identity = cf.RealTable(n, np.arange(2**n, dtype=float))
    g = cf.reduce_table(identity, Bias.exact(layout.t, layout.m))
    return g.values.astype(np.int64)[np.asarray(y, dtype=np.int64)]


def _projections(layout, masks):
    """Original subset mask whose block pattern matches each reduced subset
    mask: the coordinates whose block in it is nonempty."""
    return reduction._projection_table(layout)[np.asarray(masks, dtype=np.int64)].astype(np.int64)


def test_layout_geometry():
    layout = ReductionLayout(3, t=1, m=2)
    assert layout.n_reduced == 6
    assert layout.threshold == 3
    assert Bias.exact(layout.t, layout.m).p == 0.25


@pytest.mark.parametrize("args", [(2.5, 3, 4), (True, 1, 1), (2, 1.0, 2), (2, 1, True)])
def test_layout_sizes_must_be_integers(args):
    with pytest.raises(InputError, match="must be an integer"):
        ReductionLayout(*args)


def test_layout_keeps_numpy_integers_as_ints():
    layout = ReductionLayout(np.int64(2), np.int32(1), np.uint8(2))
    assert layout == ReductionLayout(2, 1, 2)
    assert [type(v) for v in (layout.n_original, layout.t, layout.m)] == [int] * 3


def test_reduction_requires_exact_bias():
    with pytest.raises(InputError):
        cf.reduce_table(cf.majority(3), Bias.general(0.3))
    with pytest.raises(InputError):
        cf.reduce_table(cf.majority(3), 0.25)  # plain float is not enough


def test_dictator_quarter_reduces_to_and2():
    g = cf.reduce_table(cf.dictator(1, 1), Bias.exact(1, 2))
    assert g == cf.and_fn(2)


def test_dictator_three_quarters_reduces_to_or2():
    g = cf.reduce_table(cf.dictator(1, 1), Bias.exact(3, 2))
    assert g == cf.or_fn(2)


def test_reduction_block_threshold():
    # t=3, m=2: blocks with value >= 1 feed a 1 into the original function
    layout = ReductionLayout(1, t=3, m=2)
    x = _original_masks(layout, np.arange(4))
    assert x.tolist() == [0, 1, 1, 1]


@given(st.integers(1, 3), st.integers(1, 3))
def test_reduced_bit_frequency_matches_bias(n, m):
    """Each original coordinate must read 1 on exactly t of 2^m block values."""
    for t in range(1, 1 << m):
        layout = ReductionLayout(n, t=t, m=m)
        y = np.arange(1 << layout.n_reduced, dtype=np.int64)
        x = _original_masks(layout, y)
        for i in range(n):
            frac = np.mean((x >> i) & 1)
            assert frac == pytest.approx(t / (1 << m), abs=1e-12)


def test_pushforward_counts_are_exact_integers():
    # the uniform measure on reduced masks must push forward to exactly
    # t^|x| (2^m - t)^(n - |x|) preimages of each original mask x
    for n, t, m in [(2, 1, 2), (2, 3, 2), (1, 5, 3), (3, 1, 2)]:
        layout = ReductionLayout(n, t=t, m=m)
        x = _original_masks(layout, np.arange(1 << layout.n_reduced, dtype=np.int64))
        counts = np.bincount(x, minlength=1 << n)
        ones = np.bitwise_count(mask_array(n)).astype(np.int64)
        expected = t**ones * ((1 << m) - t) ** (n - ones)
        assert counts.tolist() == expected.tolist()


def test_constant_reduces_to_constant():
    g = cf.reduce_table(cf.constant(2, -1), Bias.exact(1, 2))
    assert g.n == 4
    assert bool(np.all(g.bits == 1))


def test_block_projection_groups_by_nonempty_blocks():
    layout = ReductionLayout(2, t=1, m=2)
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
    f = cf.dictator(1, 1)
    p = Bias.exact(1, 2)
    report = cf.reduction_report(f, p)
    assert report["red0_max_gap"] < 1e-12
    assert report["red_fk"]["holds"]
    assert report["red_fk"]["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert report["red_fk"]["rhs"] == pytest.approx(3.0, abs=1e-12)
    assert report["entropy"]["reduced"] == pytest.approx(2.0, abs=1e-12)
    assert report["entropy"]["original"] == pytest.approx(0.8112781244591329, abs=1e-3)
    assert report["entropy"]["holds"]


@pytest.mark.parametrize(
    "f",
    [cf.majority(3), cf.RealTable(2, np.array([3.0, -1.0, 0.0, 2.0]))],
    ids=["truth-table", "integer-real-table"],
)
def test_each_check_is_its_field_of_the_report(f):
    p = Bias.exact(3, 3)
    report = cf.reduction_report(f, p)
    assert cf.verify_red0(f, p) == report["red0_max_gap"]
    assert cf.verify_red_fk(f, p) == tuple(report["red_fk"].values())
    assert cf.verify_entropy_monotone(f, p) == tuple(report["entropy"].values())


def test_red0_aggregates_squares_exactly_for_dictator():
    f = cf.dictator(1, 1)
    p = Bias.exact(1, 2)
    g = cf.reduce_table(f, p)
    gsp = cf.exact_transform(g)
    layout = ReductionLayout(f.n, p.t, p.m)
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
    gap = cf.verify_red0(f, Bias.exact(t, m))
    assert gap < 1e-9


@given(st.integers(0, 500), st.sampled_from([(1, 1), (1, 2), (1, 3), (3, 3)]))
def test_red_fk_bound_on_random_functions(seed, tm):
    t, m = tm
    n = max(1, 9 // m)
    f = cf.random_function(n, seed)
    lhs, rhs, holds = cf.verify_red_fk(f, Bias.exact(t, m))
    assert holds, (lhs, rhs)


@given(
    st.integers(0, 500),
    st.sampled_from([(1, 1), (1, 2), (3, 2), (1, 3), (5, 3)]),
)
def test_entropy_never_decreases_under_reduction(seed, tm):
    t, m = tm
    n = max(1, 9 // m)
    f = cf.random_function(n, seed)
    reduced, original, holds = cf.verify_entropy_monotone(f, Bias.exact(t, m))
    assert holds, (reduced, original)


@given(st.integers(0, 200), st.sampled_from([(1, 2), (3, 2), (5, 3)]))
def test_reduction_preserves_first_and_second_moments(seed, tm):
    """E_{1/2}[|g|^q] == E_p[|f|^q] for q = 1, 2 -- reduction is measure-preserving."""
    t, m = tm
    n = 3 if m == 2 else 2
    rng = np.random.Generator(np.random.PCG64(seed))
    f = cf.RealTable(n, rng.integers(-5, 6, size=1 << n).astype(np.float64))
    g = cf.reduce_table(f, Bias.exact(t, m))
    mu = measure_weights(n, t / (1 << m))
    for q in (1, 2):
        lhs = float(np.mean(np.abs(g.values) ** q))
        rhs = float(np.sum(mu * np.abs(f.values) ** q))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_reduction_preserves_the_mean():
    f = cf.random_function(3, seed=77)
    bias = Bias.exact(3, 2)
    g = cf.reduce_table(f, bias)
    mu = measure_weights(3, 0.75)
    assert float(np.mean(g.sign_values())) == pytest.approx(
        float(np.sum(mu * f.sign_values())), abs=1e-12
    )


def test_red_fk_edge_cases():
    # parity on two variables at p = 1/4
    lhs, rhs, holds = cf.verify_red_fk(cf.parity(2, 0b11), Bias.exact(1, 2))
    assert holds, (lhs, rhs)
    # a constant function has zero entropy and zero influence on both sides
    lhs, rhs, holds = cf.verify_red_fk(cf.constant(2), Bias.exact(1, 2))
    assert lhs == 0.0 and rhs == 0.0 and holds


def test_report_shape_is_stable():
    report = cf.reduction_report(cf.majority(3), Bias.exact(1, 2))
    assert set(report) == {"p", "t", "m", "red0_max_gap", "red_fk", "entropy"}
    assert set(report["red_fk"]) == {"lhs", "rhs", "holds"}
    assert set(report["entropy"]) == {"reduced", "original", "holds"}


def test_real_tables_reduce_by_the_same_layout():
    f = cf.RealTable(1, np.array([2.0, -3.0]))
    g = cf.reduce_table(f, Bias.exact(1, 2))
    assert g.values.tolist() == [2.0, 2.0, 2.0, -3.0]


# --- block tables against the per-block formula -----------------------------


def _per_block(layout, y, keep):
    """Bit i of the result is keep(block i of y), one block at a time."""
    y = np.asarray(y, dtype=np.int64)
    out = np.zeros_like(y)
    for i in range(layout.n_original):
        vals = (y >> (i * layout.m)) & ((1 << layout.m) - 1)
        out |= keep(vals).astype(np.int64) << i
    return out


@st.composite
def _layout_and_masks(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 14 // m))
    t = draw(st.integers(1, (1 << m) - 1))
    layout = ReductionLayout(n, t=t, m=m)
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
