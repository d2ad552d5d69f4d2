#!/usr/bin/env python3
"""Self-test of the command-line benchmark.

Usage (from the repository root; takes about half a minute):

    python3 perfbench/selftest.py

Checks that
  1. run.py prints every metric named in BENCHMARK.json, with its unit,
     with --trace 0 and with --trace 1;
  2. a deliberately corrupted report counts as a failure in fail_frac;
  3. the counts kernels.calls, kernels.bytes_computed,
     conjecture.sweep.functions and spectral.calls repeat exactly across two
     runs, and kernels.calls is 0 on sweep-small;
  4. in a directory holding only BENCHMARK.json and this directory, run.py
     exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

COUNTS = ("kernels.calls", "kernels.bytes_computed", "conjecture.sweep.functions",
          "spectral.calls")


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def result(workload, seed, trace):
    rc, last = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace))
    assert rc == 0, f"run.py {workload} exited {rc}"
    line = json.loads(last)
    assert line["correct"] and line["failed"] == 0, line
    return line["metrics"]


def expect_units(metrics, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    assert got == want, f"{what}: printed {got}, declared {want}"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    expect_units(result("sweep-small", 1, 0), spec["end_to_end"], "--trace 0")
    sweep = result("sweep-small", 1, 1)
    expect_units(sweep, spec["per_layer"], "--trace 1")
    assert sweep["kernels.calls"]["value"] == 0, "sweep-small ran a large-table kernel"
    print("ok: every declared metric is printed with its unit; sweep-small runs no kernel")

    for workload, first in (("sweep-small", sweep), ("exact-reduce", result("exact-reduce", 1, 1))):
        second = result(workload, 2, 1)
        for name in COUNTS:
            assert first[name]["value"] == second[name]["value"], (workload, name)
        print(f"ok: counts repeat exactly on {workload}: "
              + ", ".join(f"{n}={first[n]['value']:g}" for n in COUNTS))

    corrupted = []

    def corrupt(cmd, warmup):
        if warmup or corrupted:
            return
        path = cmd.outputs[0]
        text = path.read_text()
        assert '"violations": []' in text, f"no violations list in {path.name}"
        path.write_text(text.replace('"violations": []', '"violations": ["h_bound"]', 1))
        corrupted.append(cmd.label)

    bad = run.measure("sweep-small", 1, 1.0, True, tamper=corrupt)
    assert corrupted and bad["failed"] == 1 and not bad["correct"], bad["info"]
    assert bad["metrics"]["fail_frac"]["value"] > 0
    print(f"ok: a corrupted {corrupted[0]} report counts as 1 failure of "
          f"{bad['attempted']}: {bad['info']['failures'][0]}")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        rc, last = bench("--workload", "sweep-small", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert rc != 0 and '"correct"' not in last, (rc, last)
    print(f"ok: without the program the benchmark exits {rc} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
