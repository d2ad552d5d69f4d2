import csv
import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cubefourier as cf
from cubefourier import config, conjecture
from cubefourier.boolfn import rows_to_hex
from cubefourier.cli import EXIT_VIOLATION, main
from cubefourier.conjecture import (
    _id_bits,
    _sweep_chunk,
    exceeded_bounds,
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
    bad = [name for name, over in exceeded_bounds(50.0, bounds).items() if over]
    assert set(bad) == {"h_bound", "proof_form", "logn_bound"}


def test_a_tightened_bound_is_caught_by_the_sweep_analyze_and_the_cli(monkeypatch):
    """No function breaks a proven bound, so the additive one is lowered by
    0.95 to make the violation paths run on real spectra."""
    real = conjecture.entropy_upper_bounds

    def tightened(n, influence, infl_vec):
        bounds = real(n, influence, infl_vec)
        bounds["logn_bound"] = bounds["logn_bound"] - 0.95
        return bounds

    monkeypatch.setattr(conjecture, "entropy_upper_bounds", tightened)
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
    saved = config.get_threads()
    try:
        config.set_threads(1)
        a = cf.exhaustive_sweep(3)
        config.set_threads(7)
        b = cf.exhaustive_sweep(3)
    finally:
        config.set_threads(saved)
    assert np.array_equal(a.entropy, b.entropy)
    assert np.array_equal(a.influence, b.influence)
    assert np.array_equal(a.ratio, b.ratio, equal_nan=True)
    assert a.max_ratio() == b.max_ratio()


def test_threaded_sweep_merges_chunks_in_order():
    # more workers than cores and a short switch interval: chunk results
    # merged out of chunk order would change some row
    count = 20 * cf.conjecture.SWEEP_CHUNK + 7
    saved, interval = config.get_threads(), sys.getswitchinterval()
    try:
        config.set_threads(1)
        want = cf.exhaustive_sweep(5, sample=count, seed=4)
        config.set_threads(4)
        sys.setswitchinterval(1e-6)
        got = cf.exhaustive_sweep(5, sample=count, seed=4)
    finally:
        sys.setswitchinterval(interval)
        config.set_threads(saved)
    for name in ("entropy", "influence", "ratio", "h_bound", "logn_bound"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
    assert got.violations == want.violations == []


def test_sampled_sweep_holds_little_beyond_its_result_columns():
    saved = config.get_threads()
    try:
        config.set_threads(1)
        cf.exhaustive_sweep(5, p=0.3, sample=10)  # first-call allocations stay out
        results = []
        peak = peak_bytes(
            lambda: results.append(cf.exhaustive_sweep(5, p=0.3, sample=600_000, seed=2))
        )
    finally:
        config.set_threads(saved)
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


def test_min_support_check_reports_ratio():
    out = cf.min_support_check(cf.majority(3), epsilon=0.3)
    assert out["support_size"] == 3
    assert out["influence"] == pytest.approx(1.5)
    assert out["log_size_over_influence"] == pytest.approx(math.log2(3) / 1.5)


def test_min_support_check_other_epsilons_and_functions():
    # majority with epsilon = 0.2 needs all four sets: log2(4)/1.5 = 4/3
    out = cf.min_support_check(cf.majority(3), epsilon=0.2)
    assert out["support_size"] == 4
    assert out["log_size_over_influence"] == pytest.approx(4.0 / 3.0)
    # parity concentrates on one set, so the ratio is zero
    out = cf.min_support_check(cf.parity(4, 0b1111), epsilon=0.01)
    assert out["support_size"] == 1
    assert out["log_size_over_influence"] == 0.0
    # tribes is only recorded, never asserted -- just pin the shape
    out = cf.min_support_check(cf.tribes(2, 2), epsilon=0.1)
    assert out["captured"] >= 0.9
    assert out["log_size_over_influence"] > 0.0


@given(st.integers(1, 8), st.integers(0, 10_000),
       st.sampled_from([0.5, 0.25, 0.125, 0.3, 0.71]))
def test_analyze_influences_match_combinatorial(n, seed, p):
    f = cf.random_function(n, seed)
    rep = cf.analyze(f, p)
    for i, value in enumerate(rep.influence_vec, start=1):
        assert abs(value - cf.influence_combinatorial(f, i, p)) < 1e-12
