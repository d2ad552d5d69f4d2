"""Workloads of the command-line benchmark: inputs, command mixes, output checks.

Every input is generated from the benchmark seed with numpy's PCG64 and
written as a truth-table file; the program sees only those files and argv.
Each workload is one fixed pass of commands, repeated in order.  The checks
here are independent of the package: they parse the command's output files
and compare them with identities, closed forms, or the naive oracle below,
and never import ``cubefourier``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("analyze-large", "sweep-small", "exact-reduce")

TOL = 1e-9
SWEEP5_SAMPLE = 600_000
ORACLE_N = 10


@dataclass
class Command:
    """One command line of a workload and how to judge its output.

    ``outputs`` are the files the command writes.  Repeats must reproduce
    them byte for byte.  ``check`` receives the parsed JSON report, the raw
    output bytes and the reference reports of the commands already warmed
    up, and returns a list of problems (empty when the output is correct).
    """

    label: str
    argv: list[str]
    outputs: tuple[Path, ...]
    check: Callable[[dict, dict, dict], list[str]]
    # (output, input) copies made after the warm-up, for commands that read
    # what an earlier command wrote.
    publish: tuple[tuple[Path, Path], ...] = ()


@dataclass
class Workload:
    name: str
    commands: list[Command]
    # Commands run only during set-up, and checks run once against the
    # warmed-up reports.
    setup_commands: list[Command] = field(default_factory=list)
    setup_checks: list[Callable[[dict], list[str]]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# input files


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def char_form(bits: np.ndarray, n: int) -> bytes:
    return f"n={n}\n".encode() + (bits.astype(np.uint8) + ord("0")).tobytes() + b"\n"


def hex_form(bits: np.ndarray, n: int) -> bytes:
    """Bit string read as one binary number, mask 0 most significant."""
    value = int((bits.astype(np.uint8) + ord("0")).tobytes().decode("ascii"), 2)
    return f"n={n}\nhex:{value:0{(1 << n) // 4}x}\n".encode()


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=1 << n, dtype=np.uint8)


def junta_bits(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """A random function of k random coordinates: at most 2^k live coefficients."""
    coords = rng.choice(n, size=k, replace=False)
    inner = rng.integers(0, 2, size=1 << k, dtype=np.uint8)
    x = np.arange(1 << n, dtype=np.int64)
    idx = np.zeros_like(x)
    for j, c in enumerate(coords):
        idx |= ((x >> int(c)) & 1) << j
    return inner[idx]


def majority_bits(n: int) -> np.ndarray:
    x = np.arange(1 << n, dtype=np.int64)
    return (np.bitwise_count(x) > n // 2).astype(np.uint8)


def make_inputs(name: str, seed: int) -> dict[str, bytes]:
    """File name -> contents for a workload's inputs; same seed, same bytes."""
    if name == "analyze-large":
        return {
            "random22.txt": char_form(random_bits(_rng(seed, 1), 22), 22),
            "junta22.txt": char_form(junta_bits(_rng(seed, 2), 22, 10), 22),
            "oracle10.txt": char_form(random_bits(_rng(seed, 3), ORACLE_N), ORACLE_N),
        }
    if name == "sweep-small":
        sweep_seed = int(_rng(seed, 4).integers(0, 2**31))
        return {"sweep_seed.txt": f"{sweep_seed}\n".encode()}
    if name == "exact-reduce":
        return {
            "random5.txt": char_form(random_bits(_rng(seed, 5), 5), 5),
            "hex16.txt": hex_form(random_bits(_rng(seed, 6), 16), 16),
        }
    raise ValueError(f"unknown workload {name!r}")


def read_bits(path: Path) -> tuple[int, np.ndarray]:
    head, body = path.read_text(encoding="ascii").split("\n")[:2]
    n = int(head[2:])
    if body.startswith("hex:"):
        text = format(int(body[4:], 16), f"0{1 << n}b")
    else:
        text = body
    return n, np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


# ---------------------------------------------------------------------------
# independent reference computations


def naive_spectrum(bits: np.ndarray, n: int, p: float) -> np.ndarray:
    """Biased coefficients as explicit double sums over (S, x): O(4^n)."""
    x = np.arange(1 << n, dtype=np.int64)
    f = 1.0 - 2.0 * bits.astype(np.float64)
    ones = np.bitwise_count(x).astype(np.float64)
    mu = p**ones * (1.0 - p) ** (n - ones)
    up, down = math.sqrt(p / (1.0 - p)), -math.sqrt((1.0 - p) / p)
    chars = np.ones((1 << n, 1 << n))
    for i in range(n):
        in_s = ((x >> i) & 1).astype(bool)[:, None]
        factor = np.where(((x >> i) & 1).astype(bool), down, up)[None, :]
        chars *= np.where(in_s, factor, 1.0)
    return chars @ (mu * f)


def naive_influences(bits: np.ndarray, n: int, p: float) -> np.ndarray:
    x = np.arange(1 << n, dtype=np.int64)
    ones = np.bitwise_count(x).astype(np.float64)
    mu = p**ones * (1.0 - p) ** (n - ones)
    return np.array([np.sum(mu[bits != bits[x ^ (1 << i)]]) for i in range(n)])


def uniform_stats(bits: np.ndarray, n: int) -> tuple[float, float]:
    """Entropy and total influence at p = 1/2 through a Kronecker-axis WHT."""
    v = (1.0 - 2.0 * bits.astype(np.float64)).reshape((2,) * n)
    for axis in range(n):
        a, b = np.split(v, 2, axis=axis)
        v = np.concatenate((a + b, a - b), axis=axis)
    # In C order, axis j carries mask bit n-1-j, so the flat result is indexed by mask.
    w = (v.reshape(-1) / (1 << n)) ** 2
    levels = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
    nz = w[w > 0.0]
    return float(-np.sum(nz * np.log2(nz))), float(np.sum(levels * w))


# ---------------------------------------------------------------------------
# output checks


def _close(a, b, rel=TOL) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=TOL)


def _check_analyze(n: int, p: float):
    def check(rep, raw, refs):
        bad = []
        if rep.get("n") != n or not _close(rep.get("p"), p):
            bad.append(f"analyze reports n={rep.get('n')} p={rep.get('p')}")
        if rep.get("violations"):
            bad.append(f"analyze reports violations {rep['violations']}")
        if not rep.get("parseval_gap", 1.0) <= TOL:
            bad.append(f"parseval_gap {rep.get('parseval_gap')} > {TOL}")
        ivec = rep.get("influence_per_coordinate", [])
        if len(ivec) != n or not _close(sum(ivec), rep.get("influence", -1.0)):
            bad.append("per-coordinate influences do not sum to the total influence")
        if not _close(sum(rep.get("level_weights", [])), 1.0):
            bad.append("level weights do not sum to 1")
        return bad

    return check


def _check_oracle(label: str, path: Path, p: float):
    def check(refs):
        n, bits = read_bits(path)
        rep = refs[label]
        coeffs = naive_spectrum(bits, n, p)
        w = coeffs * coeffs
        levels = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
        nz = w[w > 0.0]
        expect = {
            "entropy": float(-np.sum(nz * np.log2(nz))),
            "influence": float(np.sum(levels * w)) / (4.0 * p * (1.0 - p)),
            "degree": int(levels[np.abs(coeffs) > TOL].max(initial=0)),
        }
        bad = [
            f"oracle {key}: report {rep.get(key)} vs naive {val}"
            for key, val in expect.items()
            if not _close(rep.get(key, math.nan), val)
        ]
        if not np.allclose(rep["level_weights"], np.bincount(levels, w), rtol=0, atol=TOL):
            bad.append("oracle: level weights differ from the naive double sum")
        if not np.allclose(
            rep["influence_per_coordinate"], naive_influences(bits, n, p), rtol=0, atol=TOL
        ):
            bad.append("oracle: per-coordinate influences differ from the definition")
        return bad

    return check


def _check_spectrum_export(n: int, analyze_label: str, binary: Path):
    def check(rep, raw, refs):
        bad = []
        if rep.get("n") != n or len(rep.get("top", [])) != 8:
            bad.append("spectrum report has the wrong size or top list")
        if len(raw[binary]) != 20 + 8 * (1 << n):
            bad.append(f"binary spectrum has {len(raw[binary])} bytes")
        ref = refs[analyze_label]
        for key in ("entropy", "influence"):
            if not _close(rep.get(key, math.nan), ref[key], rel=1e-12):
                bad.append(f"spectrum {key} {rep.get(key)} differs from analyze {ref[key]}")
        return bad

    return check


def _check_spectrum_load(export_label: str):
    def check(rep, raw, refs):
        if rep != refs[export_label]:
            return ["loaded spectrum report differs from the exported one"]
        return []

    return check


def _check_sweep(n: int, p: float, count: int, exhaustive: bool, csv_path: Path | None):
    def check(rep, raw, refs):
        bad = []
        if (rep.get("n"), rep.get("count"), rep.get("exhaustive")) != (n, count, exhaustive):
            bad.append(
                f"sweep reports n={rep.get('n')} count={rep.get('count')} "
                f"exhaustive={rep.get('exhaustive')}"
            )
        if not _close(rep.get("p"), p):
            bad.append(f"sweep reports p={rep.get('p')}")
        if rep.get("violations"):
            bad.append(f"sweep reports {len(rep['violations'])} violations")
        if csv_path is not None:
            rows = list(csv.reader(io.StringIO(raw[csv_path].decode("ascii"))))
            if len(rows) != count + 1 or rows[0][0] != "function_hex":
                bad.append(f"sweep CSV has {len(rows)} rows, expected {count + 1}")
        return bad

    return check


def _check_reduce(t: int, m: int):
    def check(rep, raw, refs):
        bad = []
        if (rep.get("t"), rep.get("m")) != (t, m):
            bad.append(f"reduce reports t={rep.get('t')} m={rep.get('m')}")
        if not rep.get("red_fk", {}).get("holds"):
            bad.append("influence bound red_fk does not hold")
        if not rep.get("entropy", {}).get("holds"):
            bad.append("entropy monotonicity does not hold")
        if not rep.get("red0_max_gap", 1.0) <= TOL:
            bad.append(f"red0_max_gap {rep.get('red0_max_gap')} > {TOL}")
        return bad

    return check


def _check_tensor(power: int, base_n: int, base: tuple[float, float]):
    def check(rep, raw, refs):
        bad = []
        weights = rep.get("level_weights", [])
        if (rep.get("mode"), rep.get("N")) != ("virtual", power):
            bad.append(f"tensor reports mode={rep.get('mode')} N={rep.get('N')}")
        if len(weights) != base_n * power + 1 or not _close(sum(weights), 1.0):
            bad.append("tensor level weights do not sum to 1")
        for key, value in zip(("entropy", "influence"), base):
            if not _close(rep.get(key, math.nan), power * value):
                bad.append(f"tensor {key} {rep.get(key)} != {power} x base {value}")
        return bad

    return check


def _check_clique(edges: int):
    def check(rep, raw, refs):
        bad = []
        if rep.get("n_edges") != edges:
            bad.append(f"clique reports {rep.get('n_edges')} edge variables")
        if rep.get("union_bound_holds") is not True:
            bad.append("clique union bound does not hold")
        if not rep.get("equation_residual", 1.0) <= TOL:
            bad.append("critical-bias equation residual too large")
        return bad

    return check


# ---------------------------------------------------------------------------
# command mixes


def build(name: str, inp: Path, out: Path) -> Workload:
    """The workload's pass of commands over the inputs already written to ``inp``."""

    def cmd(label, argv, check, extra=(), publish=()):
        report = out / f"{label}.json"
        return Command(
            label,
            argv + ["--format", "json", "--output", str(report)],
            (report, *extra),
            check,
            publish,
        )

    if name == "analyze-large":
        rnd, jun = str(inp / "random22.txt"), str(inp / "junta22.txt")
        export = out / "spectrum_export.bin"

        def analyze(label, path, p, n=22):
            bias = [] if p == 0.5 else ["--p", str(p)]
            return cmd(label, ["analyze", "--file", path, *bias, "--threads", "1"],
                       _check_analyze(n, p))

        # Analyze alternates p = 1/2 and 0.3 over a flat and a concentrated
        # spectrum of the same size; the spectrum pair exports and reloads.
        return Workload(
            name,
            [
                analyze("analyze_random_p50", rnd, 0.5),
                analyze("analyze_junta_p30", jun, 0.3),
                cmd("spectrum_export",
                    ["spectrum", "--file", rnd, "--export", str(export), "--threads", "1"],
                    _check_spectrum_export(22, "analyze_random_p50", export), (export,),
                    ((export, inp / "spectrum.bin"),)),
                analyze("analyze_random_p30", rnd, 0.3),
                cmd("spectrum_load",
                    ["spectrum", "--load", str(inp / "spectrum.bin"), "--top", "8",
                     "--threads", "1"],
                    _check_spectrum_load("spectrum_export")),
                analyze("analyze_junta_p50", jun, 0.5),
            ],
            setup_commands=[
                analyze("oracle_p30", str(inp / "oracle10.txt"), 0.3, n=ORACLE_N)
            ],
            setup_checks=[_check_oracle("oracle_p30", inp / "oracle10.txt", 0.3)],
        )
    if name == "sweep-small":
        sweep_seed = (inp / "sweep_seed.txt").read_text().strip()
        table = out / "sweep4.csv"
        return Workload(
            name,
            [
                cmd("sweep4_csv", ["sweep", "--n", "4", "--csv", str(table), "--threads", "2"],
                    _check_sweep(4, 0.5, 1 << 16, True, table), (table,)),
                cmd("sweep5_sample",
                    ["sweep", "--n", "5", "--sample", str(SWEEP5_SAMPLE), "--seed", sweep_seed,
                     "--p", "0.3", "--threads", "2"],
                    _check_sweep(5, 0.3, SWEEP5_SAMPLE, False, None)),
            ],
        )
    if name == "exact-reduce":
        hex_path = inp / "hex16.txt"
        return Workload(
            name,
            [
                cmd("reduce_t3_m4",
                    ["reduce", "--file", str(inp / "random5.txt"), "--t", "3", "--m", "4",
                     "--threads", "2"],
                    _check_reduce(3, 4)),
                cmd("tensor_majority3_pow200",
                    ["tensor", "--family", "majority:3", "--power", "200", "--exact",
                     "--threads", "2"],
                    _check_tensor(200, 3, uniform_stats(majority_bits(3), 3))),
                cmd("tensor_hex16_pow4",
                    ["tensor", "--file", str(hex_path), "--power", "4", "--exact",
                     "--threads", "2"],
                    _check_tensor(4, 16, uniform_stats(read_bits(hex_path)[1], 16))),
                cmd("clique_7_3", ["clique", "--nv", "7", "--r", "3", "--threads", "2"],
                    _check_clique(21)),
            ],
        )
    raise ValueError(f"unknown workload {name!r}")
