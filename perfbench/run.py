#!/usr/bin/env python3
"""End-to-end benchmark of the cubefourier command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 20 --trace 0

Each command runs in a fresh interpreter, as a user runs it, in a closed
loop from one client.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` every command runs twice in a row, untraced and
then through ``traced_cli.py``, and the run reports per-layer metrics from
the spans.  The last line of standard output is one JSON object; the lines
before it are for people, and a fuller record goes to
``.perfbench_work/results/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from traced_cli import SPAN_METRIC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CLI = "import sys; from cubefourier.cli import main; sys.exit(main())"
GEN_REPEATS = 3
TAIL_BEYOND = 10

TIME_METRICS = ["import.s", "other.s"] + list(dict.fromkeys(SPAN_METRIC.values()))


@dataclass
class Sample:
    label: str
    wall: float
    cpu: float
    rss_mb: float
    traced: bool = False
    pass_no: int = 0
    layers: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path):
    """Run one child to completion; wall time from spawn to exit, and rusage."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def digest(raw: dict[Path, bytes]) -> str:
    h = hashlib.blake2b()
    for path in sorted(raw):
        h.update(hashlib.blake2b(raw[path]).digest())
    return h.hexdigest()


class Runner:
    """Runs commands, judges their outputs and keeps the reference outputs."""

    def __init__(self, work: Path, tamper=None):
        self.env = child_env()
        self.work = work
        self.refs: dict[str, dict] = {}
        self.ref_digest: dict[str, str] = {}
        self.tamper = tamper
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.count = 0

    def run(self, cmd: workloads.Command, warmup=False, traced=False) -> Sample:
        for path in cmd.outputs:
            path.unlink(missing_ok=True)
        self.count += 1
        spans_path = self.work / "spans" / f"{self.count}.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                    str(self.count), *cmd.argv]
        else:
            argv = [sys.executable, "-c", CLI, *cmd.argv]
        stderr_path = self.work / "stderr.txt"
        rc, wall, cpu, rss = spawn(argv, self.env, stderr_path)
        if self.tamper is not None:
            self.tamper(cmd, warmup)
        problems = self.judge(cmd, rc, warmup)
        if rc != 0:
            problems.append("stderr: " + stderr_path.read_text(errors="replace")[-300:])
        sample = Sample(cmd.label, wall, cpu, rss, traced)
        if traced:
            sample.layers = layer_times(spans_path, wall)
        self.record(cmd.label, problems)
        return sample

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: " + "; ".join(problems))

    def judge(self, cmd: workloads.Command, rc: int, warmup: bool) -> list[str]:
        problems = [] if rc == 0 else [f"exit code {rc}"]
        raw = {}
        for path in cmd.outputs:
            try:
                raw[path] = path.read_bytes()
            except OSError:
                problems.append(f"missing output {path.name}")
        if problems:
            return problems
        key = digest(raw)
        if not warmup:
            if key == self.ref_digest.get(cmd.label):
                return []
            problems.append("output differs from the warm-up run of the same command")
        try:
            report = json.loads(raw[cmd.outputs[0]])
        except ValueError:
            return problems + ["report is not JSON"]
        try:
            problems += cmd.check(report, raw, self.refs)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problems.append(f"malformed report or missing reference: {exc!r}")
        if warmup and not problems:
            self.refs[cmd.label] = report
            self.ref_digest[cmd.label] = key
        return problems


def layer_times(spans_path: Path, wall: float) -> dict:
    """Self time per layer metric, plus counts, for one traced command."""
    try:
        spans = json.loads(spans_path.read_text())
    except (OSError, ValueError):
        return {"spans.errors": 1}
    out = {"spans.errors": sum(1 for s in spans if s["error"])}
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    kernel_wall = kernel_cpu = 0.0
    covered = 0.0
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        if s["name"] == "import":
            out["import.s"] = dur
            covered += dur
            continue
        if s["name"] == "cli.main":
            covered += dur
        metric = SPAN_METRIC.get(s["name"])
        if metric is None:
            out["spans.errors"] += 1
            continue
        out[metric] = out.get(metric, 0.0) + dur - child[i]
        module = s["name"].split(".")[0]
        if module == "spectral":
            out["spectral.calls"] = out.get("spectral.calls", 0) + 1
        if module == "kernels":
            out["kernels.calls"] = out.get("kernels.calls", 0) + 1
            out["kernels.bytes_computed"] = (
                out.get("kernels.bytes_computed", 0) + s["bytes_computed"]
            )
            kernel_wall += dur
            kernel_cpu += s["cpu"]
        if "functions" in s:
            out["conjecture.sweep.functions"] = (
                out.get("conjecture.sweep.functions", 0) + s["functions"]
            )
    out["other.s"] = wall - covered
    out["kernel_wall"], out["kernel_cpu"] = kernel_wall, kernel_cpu
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, never below the median.

    Nearest rank: the value at rank k (1-based) has len - k samples beyond it.
    With fewer than 2 * TAIL_BEYOND samples this is the upper median.
    Returns (value, percentile).
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def load_average() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def backend() -> tuple[str, str | None]:
    """The backend the package loads, and why the compiled kernel did not load."""
    sys.path.insert(0, str(SRC))
    try:
        import cubefourier
    except Exception as exc:  # a broken package still gets its run reported
        return f"import failed: {exc!r}", None
    try:
        import cubefourier._core  # noqa: F401
    except ImportError as exc:
        return cubefourier.backend_name(), str(exc)
    return cubefourier.backend_name(), None


def provenance(seed: int) -> dict:
    name, core_error = backend()
    return {
        "backend": name,
        "core_import_error": core_error,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "seed": seed,
        "env": {k: v for k, v in os.environ.items() if k.startswith("CUBEFOURIER_")},
        "bytes_note": (
            "kernels.bytes_computed is n*2^n*16 B per transform, computed, not "
            "measured; arrays 4x the L3 would need n >= 27, above the n = 26 cap, "
            "so no bandwidth-roofline claim is made"
        ),
    }


def setup(wl_name: str, seed: int, inp: Path, out: Path, runner: Runner):
    """Generate the inputs (several times, same bytes), then warm up each command."""
    gen_times, digests = [], set()
    for _ in range(GEN_REPEATS):
        t0 = time.perf_counter()
        files = workloads.make_inputs(wl_name, seed)
        for name, data in files.items():
            (inp / name).write_bytes(data)
        gen_times.append(time.perf_counter() - t0)
        digests.add(digest({Path(k): v for k, v in files.items()}))
    problems = [] if len(digests) == 1 else ["inputs differ between generations of one seed"]

    t0 = time.perf_counter()
    wl = workloads.build(wl_name, inp, out)
    for cmd in wl.setup_commands + wl.commands:
        runner.run(cmd, warmup=True)
        for src, dst in cmd.publish:
            if src.exists():
                shutil.copyfile(src, dst)
    for check in wl.setup_checks:
        try:
            bad = check(runner.refs)
        except (KeyError, TypeError, ValueError) as exc:
            bad = [f"malformed report or missing reference: {exc!r}"]
        runner.record("oracle check", bad)
    setup_s = statistics.median(gen_times) + time.perf_counter() - t0
    return wl, setup_s, problems


def run_passes(wl, seconds: float, runner: Runner, trace: bool):
    """Whole passes of the mix until ``seconds`` have elapsed."""
    samples = []
    t0 = time.perf_counter()
    passes = 0
    while True:
        for cmd in wl.commands:
            for traced in (False, True) if trace else (False,):
                sample = runner.run(cmd, traced=traced)
                sample.pass_no = passes + 1
                samples.append(sample)
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            return samples, passes, time.perf_counter() - t0


def median_of_commands(samples: list[Sample], attr: str) -> float:
    """Median over the pass's commands of each command's median over the run.

    Each command of the mix counts once, so the figure does not jump from one
    command's time to another's when their times overlap.
    """
    by_label = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(getattr(s, attr))
    return statistics.median(statistics.median(v) for v in by_label.values())


def end_to_end(samples: list[Sample], elapsed: float, setup_s: float) -> tuple[dict, dict]:
    tail_value, tail_pct = tail([s.wall for s in samples])
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (median_of_commands(samples, "wall"), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (len(samples) / elapsed, "1/s"),
        "op_cpu_s": (median_of_commands(samples, "cpu"), "s"),
        "peak_rss_mb": (max(s.rss_mb for s in samples), "MB"),
    }
    info = {"op_tail_percentile": tail_pct, "samples": len(samples)}
    return metrics, info


def per_layer(samples: list[Sample], passes: int, runner: Runner) -> tuple[dict, dict]:
    """Layer times per command (pass mean, median over passes); counts per pass."""
    traced = [s for s in samples if s.traced]
    by_pass = [[s for s in traced if s.pass_no == k] for k in range(1, passes + 1)]
    metrics = {}
    for name in TIME_METRICS:
        per_pass = [statistics.fmean(s.layers.get(name, 0.0) for s in group) for group in by_pass]
        metrics[name] = (statistics.median(per_pass), "s")
    total = {}
    for s in traced:
        for key, value in s.layers.items():
            total[key] = total.get(key, 0) + value
    for name, unit in (("kernels.calls", "count"), ("kernels.bytes_computed", "B"),
                       ("spectral.calls", "count"), ("conjecture.sweep.functions", "count")):
        metrics[name] = (total.get(name, 0) / passes, unit)
    kwall = total.get("kernel_wall", 0.0)
    metrics["kernels.gbps_computed"] = (
        total.get("kernels.bytes_computed", 0) / kwall / 1e9 if kwall else 0.0, "GB/s")
    metrics["kernels.parallelism"] = (
        total.get("kernel_cpu", 0.0) / kwall if kwall else 0.0, "ratio")
    plain_wall = sum(s.wall for s in samples if not s.traced)
    metrics["trace.overhead_frac"] = (sum(s.wall for s in traced) / plain_wall - 1.0, "ratio")
    metrics["spans.errors"] = (total.get("spans.errors", 0), "count")
    metrics["fail_frac"] = (runner.failed / runner.attempted, "ratio")
    info = {
        "trace_accounting": {
            "layer_times_sum_s": sum(metrics[name][0] for name in TIME_METRICS),
            "traced_wall_s": statistics.median(
                statistics.fmean(s.wall for s in group) for group in by_pass
            ),
        }
    }
    return metrics, info


def per_command(samples: list[Sample]) -> dict:
    out = {}
    for s in samples:
        key = s.label + (" (traced)" if s.traced else "")
        out.setdefault(key, []).append(round(s.wall, 4))
    return out


def measure(wl_name: str, seed: int, seconds: float, trace: bool, tamper=None) -> dict:
    work = WORK / f"{wl_name}-{seed}-t{int(trace)}-{os.getpid()}"
    inp, out = work / "in", work / "out"
    for d in (inp, out, work / "spans"):
        d.mkdir(parents=True, exist_ok=True)
    load_before = load_average()
    try:
        runner = Runner(work, tamper)
        wl, setup_s, setup_problems = setup(wl_name, seed, inp, out, runner)
        samples, passes, elapsed = run_passes(wl, seconds, runner, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics, info = per_layer(samples, passes, runner)
    else:
        metrics, info = end_to_end(samples, elapsed, setup_s)
    info.update(passes=passes, elapsed_s=elapsed, setup_problems=setup_problems,
                failures=runner.failures[:20])
    facts = provenance(seed)
    facts.update(load_before=load_before, load_after=load_average(), workload=wl_name,
                 seconds=seconds, trace=trace)
    return {
        "correct": runner.failed == 0 and not setup_problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "provenance": facts,
        "per_command_wall_s": per_command(samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubefourier" / "cli.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'cubefourier'}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=2) + "\n")

    print("provenance " + json.dumps(result["provenance"]))
    print("info " + json.dumps(result["info"]))
    for label, walls in result["per_command_wall_s"].items():
        print(f"  {label:<34} median {statistics.median(walls):8.4f} s over {len(walls)}")
    for key, m in result["metrics"].items():
        print(f"  {key:<34} {m['value']:.6g} {m['unit']}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
