"""Pinned SHA-256 of the JSON reports of the exact and reduction commands.

The hashes are those of the reports built with the sequential Fraction
convolution, the per-clique mask test and the per-block reduction masks,
which the closed-form builders replaced.  The reports stay byte-identical
for every thread count.  A deliberate change of any of these outputs has to
update its hash here.
"""

import hashlib

import pytest

from cubefourier.cli import main

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
