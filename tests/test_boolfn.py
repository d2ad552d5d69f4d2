import itertools

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cubefourier import (
    Bias,
    GraphPropertySpec,
    TruthTable,
    and_fn,
    clique_indicator,
    constant,
    critical_p0,
    dictator,
    format_truth_table,
    from_bits,
    majority,
    mux3,
    or_fn,
    parity,
    parse_truth_table,
    random_function,
    table_to_hex,
    tribes,
)
from cubefourier.boolfn import (
    RealTable,
    level_array,
    load_truth_table,
    mask_array,
)
from cubefourier.conjecture import clique_experiment
from cubefourier.spectral import Spectrum, transform
from cubefourier.errors import InputError, ResourceError
from conftest import discrete_derivative


def test_dictator_copies_its_coordinate():
    f = dictator(3, 2)
    for mask in range(8):
        assert f.bits[mask] == (mask >> 1) & 1


def test_parity_counts_overlap():
    f = parity(4, 0b0101)
    for mask in range(16):
        assert (-1) ** int(f.bits[mask]) == (-1) ** bin(mask & 0b0101).count("1")


def test_majority3_truth_table():
    assert majority(3).bits.tolist() == [0, 0, 0, 1, 0, 1, 1, 1]


def test_majority_needs_odd_n():
    with pytest.raises(InputError):
        majority(4)


def test_mux3_selects_by_first_bit():
    f = mux3()
    for mask in range(8):
        x1, x2, x3 = mask & 1, (mask >> 1) & 1, (mask >> 2) & 1
        assert f.bits[mask] == (x2 if x1 else x3)


def test_and_or_are_complementary_corners():
    assert and_fn(2).bits.tolist() == [0, 0, 0, 1]
    assert or_fn(2).bits.tolist() == [0, 1, 1, 1]


def test_tribes_width_one_is_or():
    assert tribes(1, 3) == or_fn(3)


def test_tribes_single_tribe_is_and():
    assert tribes(3, 1) == and_fn(3)


def test_sign_encoding_maps_bit_one_to_minus_one():
    f = from_bits(1, [0, 1])
    assert f.sign_values().tolist() == [1.0, -1.0]


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_random_function_is_reproducible(n, seed):
    assert random_function(n, seed) == random_function(n, seed)


def test_random_function_density_extremes():
    assert random_function(4, 0, density=0.0).bits.sum() == 0
    assert random_function(4, 0, density=1.0).bits.sum() == 16


def test_tables_are_immutable():
    f = majority(3)
    with pytest.raises(ValueError):
        f.bits[0] = 1


@pytest.mark.parametrize("bits", [
    [0.5, 1.9], np.array([256, 1]), np.array([1.0, np.nan]), np.array([300.0, 0.0]),
])
def test_truth_table_refuses_values_the_byte_cast_changes(bits):
    with pytest.raises(InputError, match="output bits must be 0 or 1"):
        TruthTable(1, bits)


def test_bad_bits_rejected():
    with pytest.raises(InputError):
        from_bits(2, [0, 1, 2, 0])
    with pytest.raises(InputError):
        from_bits(2, [0, 1, 1])


# --- bias ---------------------------------------------------------------


def test_exact_bias_value():
    b = Bias.exact(3, 3)
    assert b.p == 3 / 8
    assert b.is_exact
    assert str(b) == "3/2^3"


def test_bias_rejects_endpoints():
    with pytest.raises(InputError):
        Bias.general(0.0)
    with pytest.raises(InputError):
        Bias.general(1.0)
    with pytest.raises(InputError):
        Bias.exact(4, 2)


def test_bias_that_is_not_a_number_is_an_input_error():
    for make in (
        lambda: Bias.general(None),
        lambda: Spectrum(1, "abc", [1, 0]),
        lambda: transform(majority(3), "abc"),
    ):
        with pytest.raises(InputError, match="bias must be a number"):
            make()


# --- derivative ----------------------------------------------------------


def test_derivative_of_dictator_is_one():
    g = discrete_derivative(dictator(3, 2), 2)
    assert g.n == 2
    assert np.all(g.values == 1.0)


def test_derivative_of_unused_coordinate_is_zero():
    g = discrete_derivative(dictator(3, 1), 3)
    assert np.all(g.values == 0.0)


@given(st.integers(1, 5), st.integers(0, 1000), st.integers(1, 5))
def test_derivative_values_lie_in_minus_one_zero_one(n, seed, i):
    if i > n:
        i = 1 + (i % n)
    g = discrete_derivative(random_function(n, seed), i)
    assert set(np.unique(g.values)) <= {-1.0, 0.0, 1.0}


def test_derivative_matches_pointwise_definition():
    f = random_function(4, 99)
    i = 3
    g = discrete_derivative(f, i)
    # rest-mask r encodes the other coordinates in order, skipping i
    low = (1 << (i - 1)) - 1
    v = f.sign_values()
    for r in range(1 << 3):
        x0 = (r & low) | ((r & ~low) << 1)
        x1 = x0 | (1 << (i - 1))
        assert g.values[r] == (v[x0] - v[x1]) / 2


# --- graph property ------------------------------------------------------


def _edges(nv):
    """Oracle: the vertex pairs (u, v), u < v, in lexicographic order."""
    return list(itertools.combinations(range(nv), 2))


def test_edge_indexing_is_lexicographic():
    spec = GraphPropertySpec(4, 3)
    assert _edges(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for k, (u, v) in enumerate(_edges(spec.n_vertices)):
        assert spec.edge_index(u, v) == k
        assert spec.edge_index(v, u) == k


def test_triangle_indicator_smallest_case():
    spec = GraphPropertySpec(3, 3)
    f = clique_indicator(spec)
    # only the complete graph on 3 vertices contains a triangle
    assert f.bits.sum() == 1
    assert f.bits[0b111] == 1


def test_clique_count_at_full_graph():
    spec = GraphPropertySpec(5, 3)
    f = clique_indicator(spec)
    assert f.bits[(1 << spec.n_edges) - 1] == 1
    assert f.bits[0] == 0


def test_clique_indicator_is_monotone():
    # adding an edge can only create cliques, never destroy one
    for nv in (4, 5):
        spec = GraphPropertySpec(nv, 3)
        f = clique_indicator(spec)
        masks = np.arange(1 << spec.n_edges)
        for e in range(spec.n_edges):
            with_e = f.bits[masks | (1 << e)]
            assert bool(np.all(with_e >= f.bits))


@pytest.mark.parametrize(
    "build",
    [
        lambda: GraphPropertySpec(7.5, 3),
        lambda: GraphPropertySpec(5, 2.5),
        lambda: GraphPropertySpec(True, 2),
        lambda: clique_indicator(GraphPropertySpec(4.0, 3)),
        lambda: clique_experiment(5, 2.5),
    ],
)
def test_graph_sizes_must_be_integers(build):
    with pytest.raises(InputError, match="must be an integer"):
        build()


def test_graph_sizes_accept_numpy_integers_as_ints():
    spec = GraphPropertySpec(np.int64(5), np.int32(3))
    assert spec == GraphPropertySpec(5, 3)
    assert type(spec.n_vertices) is int and type(spec.n_edges) is int


def test_critical_p0_solves_its_equation():
    from math import comb

    spec = GraphPropertySpec(6, 3)
    p0 = critical_p0(spec).p
    assert abs(comb(6, 3) * p0 ** comb(3, 2) - 0.5) < 1e-12


def test_critical_p0_triangle_closed_form():
    # one potential clique, three edges: p0 solves p^3 = 1/2
    assert critical_p0(GraphPropertySpec(3, 3)).p == pytest.approx(
        0.5 ** (1.0 / 3.0), abs=1e-15
    )


# --- text format ----------------------------------------------------------


def test_format_parse_roundtrip():
    f = random_function(5, 3)
    assert parse_truth_table(format_truth_table(f)) == f


def test_parse_hex_variant():
    f = majority(3)
    text = f"n=3\nhex:{table_to_hex(f)}\n"
    assert parse_truth_table(text) == f


def test_table_to_hex_matches_bit_order():
    # mask 0 is the most significant bit of the hex body
    f = from_bits(2, [1, 0, 0, 0])
    assert table_to_hex(f) == "8"
    f2 = from_bits(2, [0, 0, 0, 1])
    assert table_to_hex(f2) == "1"


@given(st.integers(1, 14), st.integers(0, 10_000))
@example(1, 0)
@example(2, 0)
@example(3, 0)
def test_hex_roundtrip(n, seed):
    f = random_function(n, seed)
    digits = table_to_hex(f)
    # the hex body is the character body read as one binary number
    chars = format_truth_table(f).splitlines()[1]
    assert digits == format(int(chars, 2), f"0{((1 << n) + 3) // 4}x")
    assert parse_truth_table(f"n={n}\nhex:{digits}\n") == f
    assert parse_truth_table(f"n={n}\nhex:{digits.upper()}\n") == f
    assert parse_truth_table(format_truth_table(f)) == f


def test_parse_rejects_malformed_input():
    with pytest.raises(InputError):
        parse_truth_table("2\n0101\n")
    with pytest.raises(InputError):
        parse_truth_table("n=2\n010\n")
    with pytest.raises(InputError):
        parse_truth_table("n=2\n01x1\n")
    with pytest.raises(InputError):
        parse_truth_table("n=2\nhex:zz\n")
    with pytest.raises(InputError):
        parse_truth_table("n=2\nhex:123\n")
    with pytest.raises(InputError, match="non-hex"):
        parse_truth_table("n=4\nhex:0xff\n")
    # bytes.fromhex would skip the spaces; the digit count must still hold
    with pytest.raises(InputError, match="non-hex"):
        parse_truth_table("n=5\nhex:ab  cdef\n")


def test_character_body_accepts_only_0_and_1():
    """Every other character is refused, the ones below '0' (which wrap) included."""
    assert parse_truth_table("n=2\n0110\n") == from_bits(2, "0110")
    for code in [*range(0x30), *range(0x32, 0x80), 0xE9, 0x2603]:
        if chr(code).isspace():
            continue  # splits or pads the line: a length error
        with pytest.raises(InputError, match="only '0' and '1'"):
            parse_truth_table(f"n=2\n01{chr(code)}1\n")


def test_file_roundtrip(tmp_path):
    f = random_function(4, 11)
    path = tmp_path / "f.tt"
    path.write_text(format_truth_table(f))
    assert load_truth_table(path) == f
    # writers always emit the character form
    assert path.read_text().splitlines()[1].strip("01") == ""


@pytest.mark.parametrize("text", [
    "n=2\n0110\n", "n=2\r\n0110\r\n", "n=2\r0110", "  n=2 \x0b 0110 \t\n\n",
    "n=2\x1c0110\x1d", "n=2\x0c\x1f0110\x1f\x1e1111", "n=3\nhex:5a\n", "n=2\nhex:a\r\n",
    "n=2\n\n0110\n", "n=2\n  \t\n", "n=2", "", " \n\t", "n=x\n0110\n", "m=2\n0110\n",
    "n=2\n01 10\n", "n=2\n011\n", "n=2\n0120\n", "n=3\nhex:5 \n", "n=4\nhex:5 a9\n",
    "n=0\n0\n",
])
def test_file_load_reads_what_the_text_parser_reads(tmp_path, text):
    """Line breaks, padding and errors of a file are those of its text."""
    path = tmp_path / "f.tt"
    path.write_bytes(text.encode("ascii"))
    try:
        want = parse_truth_table(text)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            load_truth_table(path)
        assert str(got.value) == str(exc)
    else:
        assert load_truth_table(path) == want


@pytest.mark.parametrize(
    "build",
    [
        lambda: majority(61),
        lambda: dictator(60, 1),
        lambda: parity(60, 1),
        lambda: and_fn(60),
        lambda: or_fn(60),
        lambda: constant(60),
    ],
    ids=["majority", "dictator", "parity", "and", "or", "constant"],
)
def test_builders_check_the_cap_before_they_allocate(build):
    with pytest.raises(ResourceError, match="over the cap"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: constant(-1),
        lambda: mask_array(-1),
        lambda: level_array(-1),
        lambda: random_function(-1, 0),
        lambda: parity(-1, 0),
        lambda: and_fn(-1),
    ],
    ids=["constant", "mask_array", "level_array", "random", "parity", "and"],
)
def test_negative_variable_count_is_an_input_error(build):
    with pytest.raises(InputError, match="variable count of at least 0, got -1"):
        build()


def test_real_table_validates_shape():
    with pytest.raises(InputError):
        RealTable(2, np.zeros(3))
    with pytest.raises(InputError):
        RealTable(1, np.array([1.0, np.inf]))


def _clique_oracle(spec):
    """OR over every clique of 'all its edges present', mask by mask."""
    masks = np.arange(1 << spec.n_edges)
    sat = np.zeros(masks.size, dtype=bool)
    for cm in spec.clique_edge_masks():
        sat |= (masks & cm) == cm
    return sat.astype(np.uint8)


@pytest.mark.parametrize(
    "nv, r",
    [(nv, r) for nv in range(2, 7) for r in range(2, nv + 1)] + [(7, 3)],
)
def test_clique_indicator_matches_the_per_clique_oracle(nv, r):
    spec = GraphPropertySpec(nv, r)
    assert np.array_equal(clique_indicator(spec).bits, _clique_oracle(spec))
