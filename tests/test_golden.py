"""Pinned SHA-256 of the JSON and text reports of the exact and reduction commands.

The JSON hashes are those of the reports built with the sequential Fraction
convolution, the per-clique mask test and the per-block reduction masks,
which the closed-form builders replaced.  The text hashes are those of the
reports written by one output branch per subcommand, before every
subcommand went through the one writer in ``main``.  The reports stay
byte-identical for every thread count.  A deliberate change of any of these
outputs has to update its hash here.

The ``reduce`` pins are those of the closed-form report, which builds no
reduced table; ``test_the_reduce_pin_keeps_the_materialised_values`` holds
its numbers to those of the materialised report they replaced.
"""

import hashlib
import json

import pytest

from cubefourier.cli import main
from cubefourier.kernels import backend_name

GOLDEN = {
    "reduce_random5_t3_m4": (
        ["reduce", "--family", "random:5,7", "--t", "3", "--m", "4"],
        "5e579d8031bc61f8a0f4bd186afec9ff654714dc647029a15e92df04bf888e78",
    ),
    "tensor_majority3_pow200_exact": (
        ["tensor", "--family", "majority:3", "--power", "200", "--exact"],
        "4d5b0bfaefa335d13fad7e4236e5469d83302de0f59a1ccbae0b6cf610335bed",
    ),
    "tensor_random16_pow4_exact": (
        ["tensor", "--family", "random:16,11", "--power", "4", "--exact"],
        "c7819f25b8ed3e2dfbcd7e9ededc217b5f6a8f8310e91800e248eb60e4448260",
    ),
    "clique_7_3": (
        ["clique", "--nv", "7", "--r", "3"],
        "e0211dc162128b9051a68b92ac3ce32c8ffcdb2cac38547616bde29a5d6456e6",
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_report_bytes_are_pinned(name, threads, tmp_path):
    argv, digest = GOLDEN[name]
    out = tmp_path / "report.json"
    assert main(argv + ["--format", "json", "--threads", threads, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the analyze report names the backend in its first line: one hash per backend
TEXT_GOLDEN = {
    "analyze_random12_p03": (
        ["analyze", "--family", "random:12,3", "--p", "0.3"],
        {
            "compiled": "7728e82e5da43d09c2a9ff640270c584266dd7ceca63ff4930b34f8df598735e",
            "python": "fdb3d88d3578f7e9010764365045f985c900343a6d3271fb508d074a849e3ae7",
        },
    ),
    "spectrum_random10_p07_top5": (
        ["spectrum", "--family", "random:10,2", "--p", "0.7", "--top", "5"],
        "34e20ace4c77d033615ffa877c81095f0f8195d9a0f5daa102d576c3dcbd6d71",
    ),
    "sweep_n3": (
        ["sweep", "--n", "3"],
        "77a74e7d74b4c8764a5e17338226cb3f7d52f865094b2fe82104173164208dfe",
    ),
    "reduce_random5_t3_m4": (
        GOLDEN["reduce_random5_t3_m4"][0],
        "3decc4b83a06e2cece8f69c160e72123c449f2686aca3b2733d063563063ab6a",
    ),
    "tensor_majority3_pow200_exact": (
        GOLDEN["tensor_majority3_pow200_exact"][0],
        "48ec34d13eb3da9e0758d0afaff8a7300b953fad173e5505e895b7f38ba10936",
    ),
    "tensor_random16_pow4_exact": (
        GOLDEN["tensor_random16_pow4_exact"][0],
        "48d8c8658af6e2897a18b7527efa89bcd96baa9672324e14cf3d54f93a3e56d9",
    ),
    "clique_7_3": (
        GOLDEN["clique_7_3"][0],
        "0b8bb2d76a042bc5179d8c6023994efe69c55df89fd724cf99e6c20cf2929b50",
    ),
}


@pytest.mark.parametrize("name", sorted(TEXT_GOLDEN))
def test_text_report_bytes_are_pinned(name, tmp_path):
    argv, digest = TEXT_GOLDEN[name]
    if isinstance(digest, dict):
        digest = digest[backend_name()]
    out = tmp_path / "report.txt"
    assert main(argv + ["--format", "text", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# the report of GOLDEN["reduce_random5_t3_m4"] when the reduced table on 20
# variables was built and transformed
MATERIALISED_REDUCE = {
    "p": 0.1875, "t": 3, "m": 4, "red0_max_gap": 1.1102230246251565e-16,
    "red_fk": {"lhs": 2.1051788330078125, "rhs": 4.736652374267578, "holds": True},
    "entropy": {"reduced": 7.261071847977902, "original": 3.2960098992874443, "holds": True},
}


def test_the_reduce_pin_keeps_the_materialised_values(tmp_path):
    out = tmp_path / "report.json"
    assert main(GOLDEN["reduce_random5_t3_m4"][0] + ["--format", "json", "--output", str(out)]) == 0
    report = json.loads(out.read_text())

    def flat(d, prefix=""):
        for k, v in d.items():
            yield from flat(v, f"{prefix}{k}.") if isinstance(v, dict) else [(prefix + k, v)]

    got, want = dict(flat(report)), dict(flat(MATERIALISED_REDUCE))
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-12), key
