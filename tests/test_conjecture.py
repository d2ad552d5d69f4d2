import csv
import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cubefourier as cf
from cubefourier import conjecture, spectral
from cubefourier.boolfn import rows_to_hex
from cubefourier.cli import EXIT_VIOLATION, main
from cubefourier.conjecture import (
    _id_bits,
    _sweep_chunk,
    entropy_checks,
)
from cubefourier.errors import InputError
from conftest import peak_bytes


def _table_from_id(n, fid):
    """Oracle for the sweep's id encoding: the bit at mask j is (fid >> j) & 1."""
    return cf.TruthTable(n, np.array([(fid >> j) & 1 for j in range(1 << n)], dtype=np.uint8))


def test_binary_entropy_endpoints_and_symmetry():
    assert cf.binary_entropy(0.0) == 0.0
    assert cf.binary_entropy(1.0) == 0.0
    assert cf.binary_entropy(0.5) == 1.0
    assert cf.binary_entropy(0.25) == pytest.approx(cf.binary_entropy(0.75), abs=1e-15)
    assert cf.binary_entropy(0.25) == pytest.approx(0.8112781244591329, abs=1e-15)


def test_ei_ratio_uniform_vs_biased_normalisation():
    assert cf.ei_ratio(2.0, 1.5) == pytest.approx(4 / 3)
    assert cf.ei_ratio(2.0, 1.5, p=0.5) == pytest.approx(4 / 3)
    # at p = 1/4 the influence unit is p log2(1/p) = 1/2
    assert cf.ei_ratio(1.0, 1.0, p=0.25) == pytest.approx(2.0)
    assert cf.ei_ratio(1.0, 0.0) is None


def test_dictator_biased_ratio_frozen_value():
    f = cf.dictator(1, 1)
    sp = cf.transform(f, 0.25)
    ent = cf.spectral_entropy(sp)
    infl = cf.total_influence_spectral(sp)
    assert cf.ei_ratio(ent, infl, 0.25) == pytest.approx(1.6225562489182655, abs=1e-12)


def test_h_bound_is_an_equality_for_name_functions():
    # parity: every influence is 1 and h(1) = 0 = entropy
    rep = cf.analyze(cf.parity(3, 0b111))
    assert rep.entropy == 0.0
    assert rep.bounds["h_bound"] == 0.0
    assert rep.ratio == 0.0
    assert rep.violations == ()
    # dictator: influence vector (0, 1, 0), again h-sum 0 = entropy
    rep = cf.analyze(cf.dictator(3, 2))
    assert rep.entropy == pytest.approx(0.0, abs=1e-12)
    assert rep.bounds["h_bound"] == pytest.approx(0.0, abs=1e-12)
    assert rep.violations == ()


def test_bounds_for_majority3():
    report = cf.analyze(cf.majority(3))
    assert report.bounds["h_bound"] == pytest.approx(3.0, abs=1e-12)
    assert report.bounds["proof_form"] == pytest.approx(6.0, abs=1e-12)
    assert report.bounds["displayed_form"] == pytest.approx(3.0, abs=1e-12)
    assert report.bounds["logn_bound"] == pytest.approx(
        (math.log2(3) + 1) * 1.5 + 1, abs=1e-12
    )
    assert report.violations == ()


def test_constant_function_has_zero_entropy_and_bounds_hold():
    f = cf.from_bits(2, [0, 0, 0, 0])
    report = cf.analyze(f)
    assert report.entropy == 0.0
    assert report.influence == 0.0
    assert report.ratio is None
    assert report.violations == ()


@given(st.integers(1, 7), st.integers(0, 2000))
def test_proven_bounds_hold_on_random_functions(n, seed):
    f = cf.random_function(n, seed)
    report = cf.analyze(f)
    assert report.violations == (), report.bounds


def test_violation_detector_fires_on_fabricated_numbers():
    # entropy far above every bound: the detector itself must not be a no-op
    bounds = cf.entropy_upper_bounds(3, 1.0, [0.5, 0.5, 0.5])
    checks = entropy_checks(0.5, 50.0, bounds)
    assert [c.name for c in checks] == list(bounds)
    assert [c.mark for c in checks] == ["VIOLATED", "VIOLATED", "recorded", "VIOLATED"]
    assert {c.name for c in checks if c.violated} == {"h_bound", "proof_form", "logn_bound"}
    # the same numbers away from p = 1/2, where no bound is proven
    assert entropy_checks(0.3, 50.0, bounds) == ()


def test_a_tightened_bound_is_caught_by_the_sweep_analyze_and_the_cli(tightened):
    assert cf.exhaustive_sweep(2).violations == []
    found = cf.exhaustive_sweep(3).violations
    assert len(found) == 16
    assert [v["function_hex"] for v in found[:2]] == ["80", "40"]
    for v in found:
        report = cf.analyze(cf.parse_truth_table(f"n=3\nhex:{v['function_hex']}"))
        assert report.violations == ("logn_bound",)
        assert (report.entropy, report.influence) == (v["entropy"], v["influence"])
    assert main(["sweep", "--n", "3"]) == EXIT_VIOLATION


def test_analyze_reports_biased_claim_constant():
    report = cf.analyze(cf.majority(3), 0.25)
    assert report.bounds == {}
    assert report.claim_constant is not None
    denom = 0.25 * 0.75 * math.log2(3) * report.influence
    assert report.claim_constant == pytest.approx(report.entropy / denom, rel=1e-12)


def test_analyze_to_dict_is_json_ready():
    import json

    report = cf.analyze(cf.mux3(), epsilon=0.1)
    text = json.dumps(report.to_dict())
    assert '"entropy"' in text


# --- sweeps -------------------------------------------------------------------


def test_function_hex_matches_table_hex():
    cases = {
        1: (0, 1, 2, 3),
        2: (0, 1, 0x6, 0xF),
        4: (0, 1, 0x8000, 0xBEEF, 0xFFFF),
        5: (0, 1, 0x80000000, 0xDEADBEEF, 0xFFFFFFFF),
    }
    for n, fids in cases.items():
        ids = np.array(fids, dtype=np.int64)
        batch = rows_to_hex(_id_bits(n, ids))
        for fid, got in zip(fids, batch):
            # mask 0 is the most significant bit of the hex number
            literal = sum(((fid >> j) & 1) << ((1 << n) - 1 - j) for j in range(1 << n))
            want = format(literal, f"0{((1 << n) + 3) // 4}x")
            assert got == want == cf.table_to_hex(_table_from_id(n, fid)), (n, fid)


def test_sweep_n1_by_hand():
    res = cf.exhaustive_sweep(1)
    # four functions: two constants (no ratio) and +-dictator (ratio 0)
    assert res.count == 4
    assert np.count_nonzero(np.isfinite(res.ratio)) == 2
    assert res.violations == []
    finite = res.ratio[np.isfinite(res.ratio)]
    assert np.all(finite == 0.0)


def test_sweep_statistics_match_single_function_path():
    res = cf.exhaustive_sweep(3)
    for fid in (0b10000000, 0b01101001, 0b00010111):
        f = _table_from_id(3, fid)
        sp = cf.transform(f)
        assert res.entropy[fid] == pytest.approx(cf.spectral_entropy(sp), abs=1e-12)
        assert res.influence[fid] == pytest.approx(
            cf.total_influence_spectral(sp), abs=1e-12
        )


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_sweep_matches_analyze_bitwise_on_every_n3_function(p):
    res = cf.exhaustive_sweep(3, p=p)
    assert res.count == 256
    for fid in range(256):
        rep = cf.analyze(_table_from_id(3, fid), p)
        assert res.entropy[fid] == rep.entropy, fid
        assert res.influence[fid] == rep.influence, fid
        if p == 0.5:
            assert res.h_bound[fid] == rep.bounds["h_bound"], fid
            assert res.logn_bound[fid] == rep.bounds["logn_bound"], fid


def test_sweep_is_deterministic_across_threads_and_runs():
    a = cf.exhaustive_sweep(3)
    b = cf.exhaustive_sweep(3)
    assert np.array_equal(a.entropy, b.entropy)
    assert np.array_equal(a.influence, b.influence)
    assert np.array_equal(a.ratio, b.ratio, equal_nan=True)
    assert a.max_ratio() == b.max_ratio()


def test_sampled_sweep_holds_little_beyond_its_result_columns():
    cf.exhaustive_sweep(5, p=0.3, sample=10)  # first-call allocations stay out
    results = []
    peak = peak_bytes(
        lambda: results.append(cf.exhaustive_sweep(5, p=0.3, sample=600_000, seed=2))
    )
    res = results[0]
    columns = [res.function_ids, res.entropy, res.influence, res.ratio, res.h_bound,
               res.logn_bound]
    assert peak <= 1.25 * sum(col.nbytes for col in columns)


def test_analyze_holds_the_spectrum_and_one_working_table():
    f = cf.random_function(20, 6)
    cf.analyze(cf.random_function(17, 6), 0.3)  # first-call allocations stay out
    peak = peak_bytes(lambda: cf.analyze(f, 0.3))
    assert peak <= 2.5 * (8 << 20)  # tables of 2^20 float64


def test_sweep_rejects_unbounded_enumeration():
    with pytest.raises(InputError):
        cf.exhaustive_sweep(5)


def test_sampled_sweep_is_seeded():
    a = cf.exhaustive_sweep(5, sample=64, seed=3)
    b = cf.exhaustive_sweep(5, sample=64, seed=3)
    assert np.array_equal(a.function_ids, b.function_ids)
    assert a.violations == [] and b.violations == []


def test_biased_sweep_records_the_claim_constant():
    # at p != 1/2 nothing is asserted; the largest Ent / (p(1-p) log2(n) I)
    # over the swept functions is measured, and must be finite and positive
    for p in (0.25, 0.125):
        res = cf.exhaustive_sweep(3, p=p)
        assert res.violations == []
        claims = [
            cf.analyze(_table_from_id(3, fid), p).claim_constant
            for fid, infl in zip(res.function_ids.tolist(), res.influence)
            if infl > 0
        ]
        assert claims and None not in claims
        assert 0.0 < max(claims) < 100.0
    # n = 1 has no log2(n) normalisation to speak of
    res = cf.exhaustive_sweep(1, p=0.25)
    assert all(cf.analyze(_table_from_id(1, fid), 0.25).claim_constant is None
               for fid in res.function_ids.tolist())


# --- the two facts the biased sweep's ceiling rests on --------------------------

_CEILING_BIASES = [0.5, 0.3, 0.7, 1e-3, 0.999]


def _cut_edges_from_tables(n, p, ids):
    """Oracle for the total influence: sum over i of Pr[f(x) != f(x ^ e_i)]
    under the p-biased measure, read off the truth tables, so each cut edge
    is counted from both of its ends."""
    tables = _id_bits(n, ids).astype(bool)
    x = np.arange(1 << n)
    ones = np.array([bin(v).count("1") for v in x.tolist()])
    mu = p**ones * (1.0 - p) ** (n - ones)
    return sum((tables != tables[:, x ^ (1 << k)]) @ mu for k in range(n))


@pytest.mark.parametrize("p", _CEILING_BIASES)
@pytest.mark.parametrize("n, sample", [(1, None), (2, None), (3, None), (4, None), (5, 20000)])
def test_the_entropy_is_at_most_n_bits_and_the_influence_counts_cut_edges(n, sample, p):
    res = cf.exhaustive_sweep(n, p=p, sample=sample, seed=2)
    assert np.all(res.entropy <= n * (1 + 1e-9))
    assert np.allclose(_cut_edges_from_tables(n, p, res.function_ids), res.influence,
                       rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("p", _CEILING_BIASES)
@pytest.mark.parametrize("n", range(1, 7))
def test_the_ceiling_counts_the_cut_edges_of_every_id_width(n, p):
    """n = 6 fills all 64 bits of an id, so its top bit is the int64 sign."""
    rng = np.random.Generator(np.random.PCG64(n))
    drawn = rng.integers(0, 1 << 64, size=2000, dtype=np.uint64, endpoint=False)
    constants = np.array([0, (1 << 64) - 1], dtype=np.uint64)
    ids = (np.concatenate((constants, drawn)) >> np.uint64(64 - (1 << n))).view(np.int64)
    assert n < 6 or np.any(ids < 0)
    got = conjecture._cut_edge_influence(n, p)(ids)
    assert np.allclose(got, _cut_edges_from_tables(n, p, ids), rtol=1e-12, atol=0.0)
    assert got[0] == got[1] == 0.0  # the two constants cut no edge


def test_sweep_csv_layout(tmp_path):
    res = cf.exhaustive_sweep(2)
    path = tmp_path / "sweep.csv"
    cf.write_sweep_csv(res, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "function_hex",
        "entropy",
        "influence",
        "ratio",
        "h_bound",
        "logn_bound",
    ]
    assert len(rows) == res.count + 1
    # constants have an empty ratio cell
    assert rows[1][3] == ""


def _csv_writer_bytes(res, path):
    """The sweep CSV as csv.writer formats it, one f-string per cell."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["function_hex", "entropy", "influence", "ratio", "h_bound", "logn_bound"]
        )
        for k, name in enumerate(res.function_hex(slice(None))):
            ratio = res.ratio[k]
            writer.writerow(
                [
                    name,
                    f"{res.entropy[k]:.12g}",
                    f"{res.influence[k]:.12g}",
                    "" if not np.isfinite(ratio) else f"{ratio:.12g}",
                    f"{res.h_bound[k]:.12g}",
                    f"{res.logn_bound[k]:.12g}",
                ]
            )
    return path.read_bytes()


def _sampled_n5_with_constants():
    """A sampled n = 5 sweep at p = 0.3 that also holds both constant functions."""
    rng = np.random.Generator(np.random.PCG64(11))
    ids = np.concatenate(([0, (1 << 32) - 1], rng.integers(0, 1 << 32, size=5000)))
    stats = _sweep_chunk(5, 0.3, ids)
    stats.pop("bad")
    return cf.SweepResult(n=5, p=0.3, exhaustive=False, function_ids=ids, **stats)


@pytest.mark.parametrize("case", ["n3", "n5-sampled"])
def test_sweep_csv_bytes_match_csv_writer(tmp_path, case):
    res = cf.exhaustive_sweep(3) if case == "n3" else _sampled_n5_with_constants()
    assert not np.all(np.isfinite(res.ratio))  # some rows have an empty ratio
    fast = tmp_path / "fast.csv"
    cf.write_sweep_csv(res, fast)
    assert fast.read_bytes() == _csv_writer_bytes(res, tmp_path / "reference.csv")


# Rows of statistics for the CSV formatter: pairs that differ only in the
# sign of a zero (equal as values, apart as text), and NaN and the
# infinities in every column.
_EDGE_ROWS = np.array([
    [0.0, 1.0, 0.0, 1.0, 1.0],
    [-0.0, 1.0, 0.0, 1.0, 1.0],
    [0.5, -0.0, np.nan, 0.0, -0.0],
    [0.5, 0.0, np.nan, -0.0, 0.0],
    [np.nan, np.inf, np.inf, -np.inf, np.nan],
    [1.5, -np.inf, -np.inf, np.inf, -0.0],
    [1.5, 2.0, -0.0, np.nan, np.inf],
    [1.5, 2.0, 0.0, np.nan, np.inf],
    [123456.789012345678, 1e-300, 2.0 / 3.0, 5e-324, -1e300],
])


@pytest.mark.parametrize("rows, case", [
    (1, "repeats"),
    (2, "repeats"),
    (1000, "repeats"),  # mostly repeats: each distinct row formatted once
    (4096, "repeats"),  # a whole chunk, as at p = 1/2
    (4096, "distinct"),  # every row distinct, as at p = 0.3: row by row
    (4096, "colliding"),  # every key equal: each row checked against one
])
def test_the_csv_formatter_keeps_the_bytes_of_every_edge_case(monkeypatch, tmp_path, rows, case):
    pick = np.random.Generator(np.random.PCG64(rows)).integers(0, len(_EDGE_ROWS), size=rows)
    table = _EDGE_ROWS[pick].T.copy()
    if case == "distinct":
        table[0] = np.arange(rows) / 7.0
        table[0, 1] = -0.0
    if case == "colliding":
        monkeypatch.setattr(conjecture, "_row_keys", lambda bits: np.zeros(rows, np.uint64))
    ids = np.random.Generator(np.random.PCG64(rows)).integers(0, 1 << 16, size=rows)
    res = cf.SweepResult(n=4, p=0.5, exhaustive=False, function_ids=ids,
                         **dict(zip(conjecture._COLUMNS, table)))
    formatted, real = [], conjecture._csv_lines
    monkeypatch.setattr(conjecture, "_csv_lines",
                        lambda names, cols: formatted.append(len(names)) or real(names, cols))
    fast = tmp_path / "fast.csv"
    cf.write_sweep_csv(res, fast)
    assert fast.read_bytes() == _csv_writer_bytes(res, tmp_path / "reference.csv")
    distinct = np.unique(table.view(np.int64), axis=1).shape[1]
    if case == "colliding":  # rows unlike the one their key picked stand alone
        assert distinct < formatted[0] < rows
    else:  # more than 7/8 distinct rows are formatted row by row
        assert formatted == [rows if 8 * distinct > 7 * rows else distinct]


# --- the command-line sweep: one stream of chunks ---------------------------------


def _library_report(n, p, sample, seed, threads):
    """The sweep report and CSV as built from exhaustive_sweep's columns;
    ``threads``, the command line's inert flag, does not reach the library."""
    res = cf.exhaustive_sweep(n, p=p, sample=sample, seed=seed)
    best, best_hex = res.max_ratio()
    payload = {
        "schema": 1, "command": "sweep", "n": res.n, "p": res.p,
        "exhaustive": res.exhaustive, "count": res.count, "max_ratio": best,
        "max_ratio_function_hex": best_hex, "violations": res.violations,
    }
    return res, json.dumps(payload, indent=2) + "\n"


def _cli_report(tmp_path, *args):
    out, table = tmp_path / "cli.json", tmp_path / "cli.csv"
    code = main(["sweep", *args, "--format", "json", "--output", str(out), "--csv", str(table)])
    return code, out.read_text(), table.read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("p", [0.5, 0.3])
@pytest.mark.parametrize("n, sample", [(1, None), (2, None), (3, None), (4, None), (5, 20000)])
def test_the_cli_stream_reports_the_bytes_of_the_library_sweep(tmp_path, n, sample, p, threads):
    """20000 samples cross a pool window at 2 threads and end in a short chunk."""
    res, want_json = _library_report(n, p, sample, 9, threads)
    cf.write_sweep_csv(res, tmp_path / "library.csv")
    args = ["--n", str(n), "--p", str(p), "--seed", "9", "--threads", str(threads)]
    if sample:
        args += ["--sample", str(sample)]
    code, got_json, got_csv = _cli_report(tmp_path, *args)
    assert code == 0
    assert got_json == want_json
    assert got_csv == (tmp_path / "library.csv").read_bytes()


def _cli_json(tmp_path, n, p, sample, seed, threads=1):
    out = tmp_path / "cli.json"
    args = ["--n", str(n), "--p", str(p), "--seed", str(seed), "--threads", str(threads)]
    if sample:
        args += ["--sample", str(sample)]
    assert main(["sweep", *args, "--format", "json", "--output", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("p", [0.3, 0.7, 1e-3, 0.999])
@pytest.mark.parametrize("n, sample", [(1, None), (2, None), (3, None), (4, None), (5, 20000),
                                       (2, 20000)])
def test_a_sweep_without_csv_reports_the_bytes_of_the_library_sweep(tmp_path, n, sample, p, threads):
    """Without --csv a biased chunk skips the bounds and the functions whose
    ratio cannot reach the largest so far: the report must not move.  Every
    sweep here holds constant functions but the n = 5 one, and at n = 2 the
    20000 samples repeat 16 functions, so the first largest ratio in id order
    must win its ties."""
    _, want_json = _library_report(n, p, sample, 9, threads)
    assert _cli_json(tmp_path, n, p, sample, 9, threads) == want_json


@pytest.mark.parametrize("p, seed", [(0.3, 0), (0.7, 12), (1e-3, 0), (0.999, 9)])
def test_a_biased_sweep_finds_a_maximum_in_its_last_short_chunk(tmp_path, p, seed):
    res, want_json = _library_report(5, p, 20000, seed, 1)
    last = 20000 - 20000 % conjecture.SWEEP_CHUNK
    assert np.nanargmax(res.ratio) >= last > 20000 - conjecture.SWEEP_CHUNK
    assert _cli_json(tmp_path, 5, p, 20000, seed) == want_json


def test_only_a_biased_sweep_without_csv_skips_the_functions_below_its_maximum(
    monkeypatch, tmp_path
):
    transformed, real = [], conjecture._sweep_chunk

    def counted(n, p, ids, *args):
        transformed.append(ids.size)
        return real(n, p, ids, *args)

    monkeypatch.setattr(conjecture, "_sweep_chunk", counted)
    argv = ["sweep", "--n", "5", "--sample", "60000", "--seed", "4", "--output", os.devnull]
    assert main([*argv, "--p", "0.3"]) == 0
    assert sum(transformed) < 60000 / 5
    for full in (["--p", "0.5"], ["--p", "0.3", "--csv", str(tmp_path / "sweep.csv")]):
        transformed.clear()
        assert main([*argv, *full]) == 0
        assert sum(transformed) == 60000
    transformed.clear()
    cf.exhaustive_sweep(5, p=0.3, sample=60000, seed=4)
    assert sum(transformed) == 60000


def test_a_biased_sweep_without_csv_takes_no_bounds(monkeypatch, tmp_path):
    """No bound and no coordinate influence is computed where none is read."""
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--n", "4", "--p", "0.3", "--format", "json", "--output", str(out)]
    assert main(argv) == 0
    want = out.read_bytes()

    def unread(*args, **kwargs):
        raise AssertionError("an unread statistic was computed")

    monkeypatch.setattr(conjecture, "entropy_upper_bounds", unread)
    monkeypatch.setattr(spectral, "_fold_coordinates", unread)
    out.unlink()
    assert main(argv) == 0
    assert out.read_bytes() == want
    for other in (["--csv", str(tmp_path / "sweep.csv")], ["--p", "0.5"]):
        with pytest.raises(AssertionError, match="unread"):
            main([*argv, *other])


@pytest.mark.parametrize("threads", [1, 2])
def test_the_cli_stream_reports_violations_in_id_order(tightened, tmp_path, threads):
    res, want_json = _library_report(4, 0.5, None, 0, threads)
    assert len(res.violations) == 32  # AND- and OR-like functions, spread over many chunks
    code, got_json, _ = _cli_report(tmp_path, "--n", "4", "--threads", str(threads))
    assert code == EXIT_VIOLATION
    assert json.loads(got_json)["violations"] == res.violations
    assert got_json == want_json


@pytest.mark.parametrize("chunk", [1, 7, 1000, 4096])
@pytest.mark.parametrize("seed", [0, 1, 5, 123456789])
def test_the_chunks_draw_the_ids_of_one_whole_sample(monkeypatch, chunk, seed):
    monkeypatch.setattr(conjecture, "SWEEP_CHUNK", chunk)
    monkeypatch.setattr(conjecture, "_sweep_chunk", lambda n, p, ids, work=None, bounds=True: {})
    for n in range(1, 6):
        sample = 3 * chunk + 2
        _, _, count, stream = conjecture._sweep_stream(n, 0.5, sample, seed)
        drawn = np.concatenate([ids for ids, _ in stream])
        rng = np.random.Generator(np.random.PCG64(seed))
        assert count == sample
        assert np.array_equal(drawn, rng.integers(0, 1 << (1 << n), size=sample, dtype=np.int64))


def test_a_negative_seed_is_refused_before_any_chunk_runs(monkeypatch, capsys):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(conjecture, "_sweep_chunk", no_chunk)
    with pytest.raises(InputError, match="seed"):
        cf.exhaustive_sweep(2, sample=3, seed=-1)
    assert main(["sweep", "--n", "2", "--sample", "3", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "cubefourier: error: seed must be nonnegative, got -1\n"


@pytest.mark.parametrize(
    "kwargs, name",
    [({"n": 2.5}, "n"), ({"n": True}, "n"), ({"sample": 2.5}, "sample"),
     ({"sample": True}, "sample"), ({"sample": 3, "seed": 1.5}, "seed")],
    ids=["n=2.5", "n=True", "sample=2.5", "sample=True", "seed=1.5"],
)
def test_a_non_integer_sweep_argument_is_refused_before_any_chunk_runs(monkeypatch, kwargs, name):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(conjecture, "_sweep_chunk", no_chunk)
    with pytest.raises(InputError, match=f"^{name} must be an integer, got "):
        cf.exhaustive_sweep(**{"n": 2, **kwargs})


def test_numpy_integers_are_a_sample_and_a_seed():
    a = cf.exhaustive_sweep(2, sample=np.int64(300), seed=np.uint8(7))
    b = cf.exhaustive_sweep(2, sample=300, seed=7)
    assert np.array_equal(a.function_ids, b.function_ids)


def test_a_bad_csv_path_is_refused_before_any_chunk_runs(monkeypatch, tmp_path, capsys):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(conjecture, "_sweep_chunk", no_chunk)
    target = tmp_path / "missing" / "x.csv"
    assert main(["sweep", "--n", "2", "--csv", str(target)]) == 1
    err = capsys.readouterr().err
    assert "No such file or directory" in err and str(target) in err


def test_a_bad_output_path_is_refused_before_any_chunk_runs(monkeypatch, tmp_path, capsys):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(conjecture, "_sweep_chunk", no_chunk)
    csv, report = tmp_path / "s.csv", tmp_path / "missing" / "r.json"
    assert main(["sweep", "--n", "4", "--csv", str(csv), "--output", str(report)]) == 1
    err = capsys.readouterr().err
    assert "No such file or directory" in err and str(report) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failed_csv_write_stops_the_stream_and_leaves_no_file(monkeypatch, tmp_path, threads):
    started, writes = [], []
    real_chunk, real_rows = conjecture._sweep_chunk, conjecture._csv_rows

    def counted_chunk(*args):
        started.append(1)
        return real_chunk(*args)

    def failing_rows(*args):
        writes.append(1)
        if len(writes) == 2:
            raise OSError(28, "No space left on device")
        return real_rows(*args)

    monkeypatch.setattr(conjecture, "_sweep_chunk", counted_chunk)
    monkeypatch.setattr(conjecture, "_csv_rows", failing_rows)
    target = tmp_path / "sweep.csv"
    before = threading.active_count()
    code = main(["sweep", "--n", "5", "--sample", str(20 * conjecture.SWEEP_CHUNK),
                 "--threads", str(threads), "--csv", str(target)])
    assert code == 1
    assert len(started) <= conjecture._WINDOW * threads + threads
    assert threading.active_count() == before
    assert list(tmp_path.iterdir()) == []


def test_the_csv_goes_through_a_symlink_and_into_a_pipe(tmp_path):
    want = tmp_path / "want.csv"
    assert main(["sweep", "--n", "2", "--csv", str(want)]) == 0
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old")
    link.symlink_to(real)
    assert main(["sweep", "--n", "2", "--csv", str(link)]) == 0
    assert link.is_symlink() and real.read_bytes() == want.read_bytes()
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert main(["sweep", "--n", "2", "--csv", str(pipe)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [want.read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "pipe", "real.csv", "want.csv"]


def test_a_command_line_sweep_holds_no_per_function_column():
    """Peaks of sweeps of 60k and 600k functions at 2 threads, first-call
    allocations out; each the smallest of three, as the two workers' peaks
    coincide or not with the thread schedule."""
    def peak(sample):
        argv = ["sweep", "--n", "5", "--p", "0.3", "--threads", "2", "--sample", str(sample),
                "--seed", "4", "--output", os.devnull]
        return min(peak_bytes(lambda: main(argv)) for _ in range(3))

    peak(5000)
    small, large = peak(60_000), peak(600_000)
    assert max(small, large) < 10 << 20
    assert abs(large - small) < 1 << 20


# --- clique experiment ----------------------------------------------------------


def test_clique_experiment_small_triangle():
    report = cf.clique_experiment(4, 3)
    assert report.n_edges == 6
    assert report.equation_residual < 1e-12
    assert report.union_bound_holds
    assert len(report.clique_coefficients) == 4
    assert report.coefficient_spread < 1e-10


def test_triangle_coefficient_has_a_closed_form():
    # nv = r = 3: one potential clique, f = 1 - 2 AND(three edges); the
    # coefficient on the full edge set is 2 (p0 (1 - p0))^(3/2)
    report = cf.clique_experiment(3, 3)
    p0 = report.p0
    assert p0 == pytest.approx(0.5 ** (1.0 / 3.0), abs=1e-14)
    assert len(report.clique_coefficients) == 1
    assert report.clique_coefficients[0] == pytest.approx(
        2.0 * (p0 * (1.0 - p0)) ** 1.5, abs=1e-12
    )


@given(st.integers(1, 8), st.integers(0, 10_000),
       st.sampled_from([0.5, 0.25, 0.125, 0.3, 0.71]))
def test_analyze_influences_match_combinatorial(n, seed, p):
    f = cf.random_function(n, seed)
    rep = cf.analyze(f, p)
    for i, value in enumerate(rep.influence_vec, start=1):
        assert abs(value - cf.influence_combinatorial(f, i, p)) < 1e-12
