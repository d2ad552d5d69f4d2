import json

import numpy as np
import pytest

import cubefourier as cf
from cubefourier.cli import main, parse_family
from cubefourier.errors import InputError


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
    assert run("analyze", "--family", "dictator:1,1", "--pt", "1", "--pm", "2",
               "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 0.25
    assert payload["entropy"] == pytest.approx(0.8112781244591329, abs=1e-12)


def test_analyze_rejects_conflicting_bias(capsys):
    assert run("analyze", "--family", "mux3", "--p", "0.3", "--pt", "1", "--pm", "2") == 1


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
    cf.save_truth_table(cf.majority(3), path)
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


def test_reduce_accepts_pt_pm_aliases(capsys):
    assert run("reduce", "--family", "dictator:1,1", "--pt", "1", "--pm", "2",
               "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t"] == 1 and payload["m"] == 2


def test_reduce_needs_exact_bias(capsys):
    assert run("reduce", "--family", "dictator:1,1") == 1
    assert "exact bias" in capsys.readouterr().err


def test_tensor_virtual_vs_explicit(capsys):
    assert run("tensor", "--family", "majority:3", "--power", "2",
               "--format", "json") == 0
    virtual = json.loads(capsys.readouterr().out)
    assert run("tensor", "--family", "majority:3", "--power", "2", "--explicit",
               "--format", "json") == 0
    explicit = json.loads(capsys.readouterr().out)
    assert virtual["entropy"] == pytest.approx(explicit["entropy"], abs=1e-10)
    assert virtual["influence"] == pytest.approx(explicit["influence"], abs=1e-10)


def test_tensor_product_of_two_sources(capsys):
    assert run("tensor", "--family", "majority:3", "--family2", "dictator:2,1",
               "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5


def test_tensor_without_second_operand_errors(capsys):
    assert run("tensor", "--family", "majority:3") == 1


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

    def fake_report(f, p):
        return {
            "p": 0.25, "t": 1, "m": 2, "red0_max_gap": 0.0,
            "red_fk": {"lhs": 5.0, "rhs": 3.0, "holds": False},
            "entropy": {"reduced": 2.0, "original": 1.0, "holds": True},
        }

    monkeypatch.setattr(cli_mod, "reduction_report", fake_report)
    assert run("reduce", "--family", "dictator:1,1", "--t", "1", "--m", "2") == 2


def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


def test_threads_and_max_n_flags(capsys):
    from cubefourier.config import get_max_n, get_threads

    before = get_max_n(), get_threads()
    assert run("analyze", "--family", "majority:3", "--threads", "2",
               "--max-n", "20") == 0
    # the flags hold for one command, not for the rest of the process
    assert (get_max_n(), get_threads()) == before
    assert run("analyze", "--family", "majority:5", "--threads", "3", "--max-n", "4") == 1
    assert (get_max_n(), get_threads()) == before


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
