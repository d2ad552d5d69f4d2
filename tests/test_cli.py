import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cubefourier as cf
from cubefourier import conjecture, reduction, spectral
from cubefourier.cli import FAMILIES, main, parse_family
from cubefourier.config import get_max_n
from cubefourier.errors import InputError
from test_golden import GOLDEN

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*args):
    return main(list(args))


def test_family_registry_spot_checks():
    assert parse_family("majority:3") == cf.majority(3)
    assert parse_family("dictator:4,2") == cf.dictator(4, 2)
    assert parse_family("and:2") == cf.and_fn(2)
    assert parse_family("or:3") == cf.or_fn(3)
    assert parse_family("mux3") == cf.mux3()
    assert parse_family("tribes:2,2") == cf.tribes(2, 2)
    assert parse_family("random:4,9") == cf.random_function(4, 9)
    assert parse_family("clique:4,3") == cf.clique_indicator(cf.GraphPropertySpec(4, 3))


def test_parity_mask_is_hexadecimal():
    assert parse_family("parity:4,b") == cf.parity(4, 0xB)
    assert parse_family("parity:5,10") == cf.parity(5, 16)


def test_unknown_family_is_an_input_error():
    with pytest.raises(InputError):
        parse_family("xor:3")
    with pytest.raises(InputError):
        parse_family("majority")
    for text in ("majority:3,9", "mux3:1", "random:4", "random:4,9,0.5,1", "dictator:4,x"):
        with pytest.raises(InputError, match="expected"):
            parse_family(text)


@pytest.mark.parametrize("spec, reason", [
    ("dictator:4,5", "coordinate 5 out of range 1..4"),
    ("majority:4", "majority needs an odd variable count"),
    ("clique:3,9", "need 2 <= r <= n_vertices"),
    ("random:4,9,2", "density must lie in [0, 1]"),
    ("and:-1", "a truth table needs a variable count of at least 0, got -1"),
])
def test_family_builder_reason_reaches_the_user(capsys, spec, reason):
    assert run("analyze", "--family", spec) == 1
    err = capsys.readouterr().err
    assert err == f"cubefourier: error: {reason}\n"


def test_family_over_the_cap_is_refused_before_allocating(capsys):
    assert run("analyze", "--family", "majority:61") == 1
    err = capsys.readouterr().err
    assert "over the cap" in err and "Traceback" not in err


def test_family_help_lists_the_registry(capsys):
    with pytest.raises(SystemExit):
        run("analyze", "--help")
    out = capsys.readouterr().out
    assert all(usage in out for usage, _ in FAMILIES.values())


def test_analyze_text_output(capsys):
    assert run("analyze", "--family", "majority:3") == 0
    out = capsys.readouterr().out
    assert "spectral entropy" in out
    assert "2 bits" in out


def test_analyze_json_fields(capsys):
    assert run("analyze", "--family", "mux3", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["n"] == 3
    assert payload["degree"] == 2
    assert payload["violations"] == []


def test_analyze_accepts_exact_bias(capsys):
    assert run("analyze", "--family", "dictator:1,1", "--p", "0.25", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 0.25
    assert payload["entropy"] == pytest.approx(0.8112781244591329, abs=1e-12)


# every double is exactly t/2^m, so --p repr(t/2^m) states the exact bias
@pytest.mark.parametrize("t, m", [(1, 2), (3, 3), (7, 3), (5, 4), (1023, 10), (1, 100)])
def test_a_dyadic_p_gives_the_library_values_at_the_exact_bias(capsys, t, m):
    f = cf.random_function(4, 11)
    bias = t / 2**m
    source = ("--family", "random:4,11", "--p", repr(t / 2**m), "--format", "json")

    def cli(*argv):
        assert run(*argv, *source) == 0
        return json.loads(capsys.readouterr().out)

    want = {"schema": 1, "command": "analyze", **cf.analyze(f, bias).to_dict()}
    assert cli("analyze") == json.loads(json.dumps(want))

    got, stats = cli("tensor", "--power", "5"), cf.virtual_power_stats(f, 5, bias)
    assert (got["p"], got["entropy"], got["influence"], got["ei_ratio"]) == (
        stats.p, stats.entropy, stats.total_influence, stats.ei_ratio)
    assert got["level_weights"] == [float(w) for w in stats.profile.weights]

    got, sp = cli("spectrum"), cf.transform(f, bias)
    assert (got["p"], got["entropy"], got["influence"]) == (
        sp.p, cf.spectral_entropy(sp), cf.total_influence_spectral(sp))
    assert got["top"] == [{"mask": int(k), "coefficient": float(sp.coeffs[k])}
                          for k in spectral.top_masks(sp.coeffs, 8, key=np.abs)]


@pytest.mark.parametrize("argv", [
    ("analyze", "--family", "mux3", "--pt", "1", "--pm", "2"),
    ("analyze", "--family", "mux3", "--p", "0.3", "--pt", "1", "--pm", "2"),
    ("tensor", "--family", "mux3", "--power", "2", "--pt", "1"),
    ("spectrum", "--family", "mux3", "--pm", "2"),
    ("reduce", "--family", "mux3", "--pt", "1", "--pm", "2"),
    ("reduce", "--family", "mux3", "--t", "1", "--pm", "2"),
])
def test_only_reduce_reads_t_and_m_and_only_as_t_and_m(capsys, argv):
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "error" in line]
    assert line.startswith("cubefourier: error: unrecognized arguments: --p")


@pytest.mark.parametrize("eps", ["nan", "inf", "-0.5"])
def test_analyze_rejects_epsilon_that_is_not_finite_and_nonnegative(tmp_path, capsys, eps):
    out = tmp_path / "report.json"
    code = run("analyze", "--family", "mux3", "--epsilon", eps, "--format", "json",
               "--output", str(out))
    assert code == 1
    assert not out.exists()


def test_bits_source(capsys):
    assert run("analyze", "--bits", "00010110", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3


def test_bad_bits_length(capsys):
    for bits in ("000", ""):
        assert run("analyze", "--bits", bits) == 1
        err = capsys.readouterr().err
        assert "power of two" in err and "Traceback" not in err


def test_file_source(tmp_path, capsys):
    path = tmp_path / "f.tt"
    path.write_text(cf.format_truth_table(cf.majority(3)))
    assert run("analyze", "--file", str(path)) == 0


def test_reduce_report_contract(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(
        "reduce", "--family", "dictator:1,1", "--t", "1", "--m", "2",
        "--format", "json", "--output", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"p", "t", "m", "red0_max_gap", "red_fk", "entropy"}
    assert payload["red_fk"]["holds"] is True
    assert payload["red0_max_gap"] < 1e-12


def test_reduce_records_the_influence_bound_above_one_half(capsys):
    argv = ["reduce", "--family", "majority:3", "--t", "3", "--m", "2"]
    assert run(*argv) == 0
    out = capsys.readouterr().out
    assert "influence bound          1.125 <= 0  [recorded]" in out
    assert "VIOLATED" not in out
    assert run(*argv, "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["red_fk"]["holds"] is False


def test_reduce_needs_exact_bias(capsys):
    assert run("reduce", "--family", "dictator:1,1") == 1
    assert "exact bias" in capsys.readouterr().err


def test_a_huge_exact_exponent_is_a_one_line_error(capsys):
    m = "1000000000000"
    assert run("reduce", "--family", "dictator:1,1", "--t", "1", "--m", m) == 1
    assert capsys.readouterr().err == (
        f"cubefourier: error: exact bias exponent m must be at most 1074, got {m}:"
        " 2^-1074 is the smallest positive double\n"
    )


def test_an_exact_bias_next_to_one_is_a_one_line_error_about_its_rounding(capsys):
    t = (1 << 60) - 1
    assert run("reduce", "--family", "majority:3", "--t", str(t), "--m", "60") == 1
    assert capsys.readouterr().err == (
        f"cubefourier: error: exact bias t/2^m with t = {t}, m = 60 rounds to 1.0 as a double\n"
    )


def test_reduce_runs_past_the_size_cap_of_the_reduced_table(capsys):
    # n*m = 28: the closed form builds no table on 28 variables
    argv = ["reduce", "--family", "random:7,1", "--t", "3", "--m", "4", "--format", "json"]
    assert get_max_n() < 28 and run(*argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["red_fk"]["holds"] and report["entropy"]["holds"]


@pytest.mark.parametrize("argv, first", [
    (["reduce", "--family", "majority:3", "--t", str((1 << 53) - 1), "--m", "53"],
     "p = 0.9999999999999999 = 9007199254740991/2^53   reduced variables = 159"),
    (["analyze", "--family", "majority:3", "--p", "0.99999999999"],
     "n = 3   p = 0.99999999999   backend = "),
])
def test_a_text_report_prints_the_bias_it_ran_at(capsys, argv, first):
    """Six digits would print p = 1 for both."""
    assert run(*argv) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith(first)


def test_tensor_product_of_two_sources(capsys):
    assert run("tensor", "--family", "majority:3", "--family2", "dictator:2,1",
               "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5


def test_tensor_refuses_exact_where_it_has_no_effect(capsys):
    assert run("tensor", "--family", "majority:3", "--family2", "mux3", "--exact") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cubefourier: error: --exact applies only to a virtual power")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_tensor_has_no_explicit_option(capsys):
    assert run("tensor", "--family", "majority:3", "--power", "2", "--explicit") == 1
    assert capsys.readouterr().err.endswith(
        "cubefourier: error: unrecognized arguments: --explicit\n"
    )


def test_tensor_without_second_operand_errors(capsys):
    assert run("tensor", "--family", "majority:3") == 1


@pytest.mark.parametrize("extra", [
    ["--family2", "dictator:1,1", "--bits2", "01"],
    ["--power", "2", "--family2", "dictator:1,1"],
])
def test_tensor_takes_one_second_operand(capsys, extra):
    assert run("tensor", "--family", "majority:3", *extra) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    assert run("sweep", "--n", "3", "--csv", str(path), "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 256
    assert payload["violations"] == []
    assert payload["max_ratio"] == pytest.approx(2.955889582251599, abs=1e-9)
    lines = path.read_text().splitlines()
    assert len(lines) == 257
    assert lines[0].startswith("function_hex,")


def test_sweep_sampled_mode(capsys):
    assert run("sweep", "--n", "5", "--sample", "32", "--seed", "1",
               "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 32
    assert payload["exhaustive"] is False


def test_sweep_refuses_a_sample_past_n_5(capsys):
    assert run("sweep", "--n", "6", "--sample", "10") == 1
    assert "sampled sweeps support n <= 5" in capsys.readouterr().err


def test_clique_json(capsys):
    assert run("clique", "--nv", "5", "--r", "3", "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_edges"] == 10
    assert payload["union_bound_holds"] is True
    assert payload["equation_residual"] < 1e-12


def test_spectrum_export_load_roundtrip(tmp_path, capsys):
    path = tmp_path / "maj.spec"
    assert run("spectrum", "--family", "majority:5", "--p", "0.3",
               "--export", str(path)) == 0
    capsys.readouterr()
    assert run("spectrum", "--load", str(path), "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5
    assert payload["p"] == pytest.approx(0.3)
    loaded = cf.load_spectrum_binary(path)
    direct = cf.transform(cf.majority(5), 0.3)
    assert np.array_equal(loaded.coeffs, direct.coeffs)


def test_spectrum_loads_from_standard_input(tmp_path):
    import os
    import subprocess
    import sys

    path = tmp_path / "maj.spec"
    cf.save_spectrum_binary(cf.transform(cf.majority(5), 0.3), path)
    out = subprocess.run(
        [sys.executable, "-m", "cubefourier", "spectrum", "--load", "/dev/stdin",
         "--format", "json"],
        env=dict(os.environ), input=path.read_bytes(), capture_output=True, check=True,
    )
    payload = json.loads(out.stdout)
    assert (payload["n"], payload["p"]) == (5, 0.3)


def test_spectrum_refuses_a_bias_beside_a_loaded_spectrum(tmp_path, capsys):
    """A loaded spectrum keeps the bias it was computed at; the refusal
    comes before the export is opened."""
    path = tmp_path / "maj.spec"
    cf.save_spectrum_binary(cf.transform(cf.majority(3)), path)
    export = tmp_path / "again.spec"
    assert run("spectrum", "--load", str(path), "--p", "0.3", "--export", str(export)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not export.exists()
    assert captured.err == (
        "cubefourier: error: --p applies only to a computed spectrum:"
        " a loaded one keeps its bias\n"
    )


@pytest.mark.parametrize("top", [0, 1, 5, 8, 16, 32, 100])
def test_spectrum_top_order_matches_full_stable_argsort(capsys, top):
    # majority:5 at p = 1/2 has many coefficients of equal magnitude
    assert run("spectrum", "--family", "majority:5", "--top", str(top),
               "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    coeffs = cf.transform(cf.majority(5)).coeffs
    expect = np.argsort(-np.abs(coeffs), kind="stable")[:top]
    assert [item["mask"] for item in payload["top"]] == expect.tolist()
    assert [item["coefficient"] for item in payload["top"]] == coeffs[expect].tolist()


def test_spectrum_rejects_negative_top(capsys):
    assert run("spectrum", "--family", "majority:3", "--top", "-1") == 1
    assert "--top" in capsys.readouterr().err


def test_spectrum_json_export(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert run("spectrum", "--family", "mux3", "--export-json", str(path)) == 0
    spec = cf.load_spectrum_json(path)
    assert spec.n == 3


@pytest.mark.parametrize("bad", ["--export", "--export-json"])
def test_spectrum_exports_are_written_all_or_nothing(monkeypatch, tmp_path, capsys, bad):
    """Both targets are opened before the transform: one bad path leaves no file."""
    import cubefourier.cli as cli_mod

    def no_transform(*args):
        raise AssertionError("a transform ran")

    monkeypatch.setattr(cli_mod, "transform", no_transform)
    missing = str(tmp_path / "missing" / "s")
    paths = {"--export": str(tmp_path / "s.bin"), "--export-json": str(tmp_path / "s.json")}
    paths[bad] = missing
    argv = ["spectrum", "--family", "random:16,2"]
    for flag, path in paths.items():
        argv += [flag, path]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("cubefourier: error: ") and missing in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "exc, message",
    [(MemoryError("Unable to allocate 256. TiB for an array with shape (35184372088832,) "
                  "and data type float64"),
      "Unable to allocate 256. TiB for an array with shape (35184372088832,) "
      "and data type float64"),
     (MemoryError(), "out of memory")],
    ids=["numpy", "bare"],
)
def test_an_allocation_failure_is_a_one_line_error(monkeypatch, capsys, exc, message):
    import cubefourier.cli as cli_mod

    def refused(n):
        raise exc

    # the builder raises at once: no table of 2^45 entries is attempted
    monkeypatch.setattr(cli_mod, "majority", refused)
    assert run("analyze", "--family", "majority:45", "--max-n", "50") == 1
    assert capsys.readouterr().err == f"cubefourier: error: {message}\n"


def test_missing_file_is_exit_one(capsys):
    assert run("analyze", "--file", "/nonexistent/table.tt") == 1
    assert "error" in capsys.readouterr().err


def test_non_ascii_file_is_exit_one(tmp_path, capsys):
    path = tmp_path / "f.tt"
    path.write_bytes(b"n=2\n01\xc31\n")
    assert run("analyze", "--file", str(path)) == 1
    assert "byte 6 is not ASCII" in capsys.readouterr().err


def test_argparse_syntax_errors_are_exit_one(capsys):
    assert run("analyze") == 1
    assert run("frobnicate") == 1


def test_command_registry_is_complete():
    from cubefourier.cli import COMMANDS

    assert [c.name for c in COMMANDS] == [
        "analyze", "reduce", "tensor", "sweep", "clique", "spectrum",
    ]


def test_proven_violation_maps_to_exit_two(monkeypatch, capsys):
    """Exit code 2 is reserved for a failed proven inequality; fabricate one."""
    import cubefourier.cli as cli_mod

    def fake_report(f, t, m):
        return {
            "p": 0.25, "t": 1, "m": 2, "red0_max_gap": 0.0,
            "red_fk": {"lhs": 5.0, "rhs": 3.0, "holds": False},
            "entropy": {"reduced": 2.0, "original": 1.0, "holds": True},
        }

    monkeypatch.setattr(cli_mod, "reduction_report", fake_report)
    assert run("reduce", "--family", "dictator:1,1", "--t", "1", "--m", "2") == 2


# Each patch breaks one inequality, below the code that checks it.
def _break_red0(monkeypatch):
    # the block's squares sum to 1 + 1e-6: g's squares no longer group to f's
    real = reduction._block_spectrum
    monkeypatch.setattr(reduction, "_block_spectrum", lambda t, m: (real(t, m)[0], 1.0 + 1e-6))


def _break_red_fk(monkeypatch):
    monkeypatch.setattr(reduction, "floor_log2_reciprocal", lambda t, m: 0)


def _break_entropy_monotone(monkeypatch):
    # a block of negative entropy takes the reduced entropy below f's
    real = reduction._block_spectrum
    monkeypatch.setattr(reduction, "_block_spectrum", lambda t, m: (-1.0, real(t, m)[1]))


def _break_union_bound(monkeypatch):
    monkeypatch.setattr(conjecture, "total_influence_spectral", lambda spec: 1e9)


QUARTER = ["reduce", "--family", "majority:3", "--t", "1", "--m", "2"]


@pytest.mark.parametrize("argv, brk, marked, code", [
    (["analyze", "--family", "and:3"], "tightened", "bound logn_bound", 2),
    (QUARTER, _break_red0, "squared-coefficient gap", 2),
    (QUARTER, _break_red_fk, "influence bound", 2),
    (QUARTER, _break_entropy_monotone, "entropy monotone", 2),
    (["clique", "--nv", "5", "--r", "3"], _break_union_bound, "influence", 2),
    # above p = 1/2 the influence bound is recorded, never asserted
    (["reduce", "--family", "majority:3", "--t", "3", "--m", "2"], _break_red_fk,
     "influence bound", 0),
])
def test_each_failing_proven_check_exits_two(request, monkeypatch, capsys, argv, brk, marked,
                                             code):
    if brk == "tightened":
        request.getfixturevalue("tightened")
    else:
        brk(monkeypatch)
    assert run(*argv) == code
    lines = capsys.readouterr().out.splitlines()
    if marked is not None:
        (line,) = [line for line in lines if line.startswith(marked)]
        assert line.endswith("[VIOLATED]" if code else "[recorded]"), line
    assert sum("VIOLATED" in line for line in lines) == (marked is not None and code == 2)
    assert run(*argv, "--format", "json") == code


def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


def test_threads_and_max_n_flags(capsys):
    from cubefourier.config import get_max_n

    before = get_max_n()
    assert run("sweep", "--n", "4", "--format", "json") == 0
    want = capsys.readouterr().out
    # --threads still parses, and changes no byte of the report
    assert run("sweep", "--n", "4", "--format", "json", "--threads", "2", "--max-n", "20") == 0
    assert capsys.readouterr().out == want
    # --max-n holds for one command, not for the rest of the process
    assert get_max_n() == before
    assert run("analyze", "--family", "majority:5", "--threads", "3", "--max-n", "4") == 1
    assert get_max_n() == before


def test_python_dash_m_runs_the_cli():
    import os
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "cubefourier", "analyze", "--family", "majority:3",
         "--format", "json"],
        env=dict(os.environ), capture_output=True, text=True, check=True,
    )
    payload = json.loads(out.stdout)
    assert payload["command"] == "analyze"
    assert payload["entropy"] == 2.0


def test_traced_cli_names_resolve():
    """perfbench/traced_cli.py wraps each name it lists and fails on a missing one."""
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    missing = [
        f"{mod}.{name}"
        for mod, names in traced.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(mod), name, None))
    ]
    assert missing == []


EMITTER_COMMANDS = {
    "analyze": ["analyze", "--family", "mux3", "--p", "0.3"],
    "reduce": ["reduce", "--family", "dictator:2,1", "--t", "1", "--m", "2"],
    "tensor": ["tensor", "--family", "majority:3", "--power", "3"],
    "sweep": ["sweep", "--n", "2"],
    "clique": ["clique", "--nv", "4", "--r", "3"],
    "spectrum": ["spectrum", "--family", "majority:3", "--top", "3"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(EMITTER_COMMANDS))
def test_output_file_holds_the_bytes_of_stdout(tmp_path, capsysbinary, name, fmt):
    argv = EMITTER_COMMANDS[name] + ["--format", fmt]
    assert main(argv) == 0
    shown = capsysbinary.readouterr().out
    out = tmp_path / "report"
    assert main(argv + ["--output", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == shown
    assert shown.endswith(b"\n") and not shown.endswith(b"\n\n")


def _backend_contract_commands():
    cases = {name: argv for name, (argv, _) in GOLDEN.items()}
    cases["analyze_random14_p03"] = ["analyze", "--family", "random:14,3", "--p", "0.3"]
    cases["spectrum_random12_top20"] = [
        "spectrum", "--family", "random:12,5", "--p", "0.71", "--top", "20",
    ]
    return cases


@pytest.mark.parametrize("name", sorted(_backend_contract_commands()))
def test_numpy_fallback_writes_the_same_report_bytes(name, tmp_path):
    argv = _backend_contract_commands()[name] + ["--format", "json", "--output"]
    here, there = tmp_path / "in_process.json", tmp_path / "fallback.json"
    assert main(argv + [str(here)]) == 0
    env = dict(os.environ, CUBEFOURIER_PURE_PYTHON="1")
    subprocess.run([sys.executable, "-m", "cubefourier", *argv, str(there)],
                   env=env, capture_output=True, check=True)
    assert there.read_bytes() == here.read_bytes()


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    shell = "\n".join(re.findall(r"```sh\n(.*?)```", text, re.S))
    commands = [shlex.split(line, comments=True)[1:]
                for line in shell.splitlines() if line.startswith("cubefourier ")]
    assert len(commands) >= 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    (python,) = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(compile(python, str(README), "exec"), {})
