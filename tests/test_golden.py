"""Pinned SHA-256 of the JSON and text reports of the exact and reduction commands.

The JSON hashes are those of the reports built with the sequential Fraction
convolution, the per-clique mask test and the per-block reduction masks,
which the closed-form builders replaced.  The text hashes are those of the
reports written by one output branch per subcommand, before every
subcommand went through the one writer in ``main``.  The reports stay
byte-identical for every thread count.  A deliberate change of any of these
outputs has to update its hash here.
"""

import hashlib

import pytest

from cubefourier.cli import main
from cubefourier.kernels import backend_name

GOLDEN = {
    "reduce_random5_t3_m4": (
        ["reduce", "--family", "random:5,7", "--t", "3", "--m", "4"],
        "fdef3ebbfff532ec0763e6106d0d1263dc7e81e094af17963f6c4b88f26d2ba5",
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
        "07c00c8f1f34c66a689468ee86d053de68bfc8c526b539f4b067ef1cf110f669",
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
