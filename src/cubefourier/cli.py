"""Command-line front end.

Exit codes: 0 on success, 1 for bad input or usage, 2 only when a proven
inequality fails its check (which signals a defect worth investigating,
never a routine error).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager
from typing import Callable, NamedTuple

# When this import is what loads numpy, it starts a command-line process:
#  - The package makes no BLAS call, but numpy's OpenBLAS starts a worker per
#    CPU at load that busy-waits for about 0.1 s of CPU time.  Ask for one
#    thread, keeping a value the user set.
#  - The imports allocate tens of thousands of objects that live until exit,
#    so collecting while they load, and again at exit, only walks them.
#    Collect nothing during the imports, then move what they left into the
#    permanent generation, which no later collection examines.
# A host that loaded numpy first (a test run, a notebook) is left alone.
_STARTS_PROCESS = "numpy" not in sys.modules
_COLLECTING = gc.isenabled()
if _STARTS_PROCESS:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
try:
    import numpy as np

    from . import __version__
    from .boolfn import (
        Bias,
        GraphPropertySpec,
        TruthTable,
        and_fn,
        clique_indicator,
        dictator,
        from_bits,
        load_truth_table,
        majority,
        mux3,
        or_fn,
        parity,
        random_function,
        table_to_hex,
        tribes,
    )
    from .config import get_max_n, set_max_n
    from .conjecture import (
        PROVEN_BOUND_SLACK,
        PROVEN_BOUNDS,
        analyze,
        _summarise_sweep,
        _sweep_stream,
        clique_experiment,
    )
    from .errors import InputError, ResourceError
    from .kernels import backend_name
    from .reduction import reduction_report
    from .spectral import (
        load_spectrum_binary,
        save_spectrum_binary,
        save_spectrum_json,
        spectral_entropy,
        top_masks,
        total_influence_spectral,
        transform,
    )
    from .tensor import tensor_power, tensor_product, virtual_power_stats

    if _STARTS_PROCESS:
        gc.freeze()
finally:
    # a failed import leaves the collector as it found it
    if _COLLECTING:
        gc.enable()

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse uses exit status 2 for syntax errors; we reserve 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


class CommandSpec(NamedTuple):
    """One subcommand: its name, help line, flag setup, and handler.

    The handler returns the JSON payload, the text report lines and the
    exit code.
    """

    name: str
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], tuple[dict, list[str], int]]


# ---------------------------------------------------------------------------
# function sources

FAMILIES = {
    "dictator": ("dictator:<n>,<i>", lambda n, i: dictator(int(n), int(i))),
    "parity": ("parity:<n>,<maskhex>", lambda n, mask: parity(int(n), int(mask, 16))),
    "majority": ("majority:<n>", lambda n: majority(int(n))),
    "tribes": ("tribes:<w>,<s>", lambda w, s: tribes(int(w), int(s))),
    "and": ("and:<n>", lambda n: and_fn(int(n))),
    "or": ("or:<n>", lambda n: or_fn(int(n))),
    "mux3": ("mux3", lambda: mux3()),
    "clique": (
        "clique:<nv>,<r>",
        lambda nv, r: clique_indicator(GraphPropertySpec(int(nv), int(r))),
    ),
    "random": (
        "random:<n>,<seed>[,<density>]",
        lambda n, seed, density="0.5": random_function(int(n), int(seed), float(density)),
    ),
}


def parse_family(text: str) -> TruthTable:
    name, _, argstr = text.partition(":")
    if name not in FAMILIES:
        raise InputError(
            f"unknown family {name!r}; available: " + ", ".join(sorted(FAMILIES))
        )
    usage, build = FAMILIES[name]
    args = [a for a in argstr.split(",") if a]
    try:
        return build(*args)
    except InputError:
        # the builder's own reason, such as a coordinate out of range
        raise
    except (TypeError, ValueError) as exc:
        # TypeError: the builder takes a different number of arguments
        raise InputError(f"bad arguments for family {name!r}; expected {usage}") from exc


def _add_source(parser, suffix="", required=True):
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument(
        f"--family{suffix}",
        metavar="SPEC",
        help="named function: " + "; ".join(usage for usage, _ in FAMILIES.values()),
    )
    group.add_argument(f"--file{suffix}", metavar="PATH", help="truth-table text file")
    group.add_argument(
        f"--bits{suffix}", metavar="BITS", help="inline '0'/'1' outputs in mask order"
    )
    return group


def _load_source(ns, suffix="") -> TruthTable | None:
    """The function a source group names, or None when an optional group is absent."""
    family = getattr(ns, f"family{suffix}")
    path = getattr(ns, f"file{suffix}")
    bits = getattr(ns, f"bits{suffix}")
    if family is not None:
        return parse_family(family)
    if path is not None:
        return load_truth_table(path)
    if bits is None:
        return None
    n = len(bits).bit_length() - 1
    if n < 0 or (1 << n) != len(bits):
        raise InputError("--bits length must be a power of two")
    return from_bits(n, bits)


def _add_bias(parser):
    parser.add_argument("--p", type=float, default=None, help="bias (default 1/2)")
    parser.add_argument("--pt", type=int, default=None, help="exact bias numerator t")
    parser.add_argument(
        "--pm", type=int, default=None, help="exact bias exponent m, for p = t/2^m"
    )


def _get_bias(ns) -> Bias:
    if ns.pt is not None or ns.pm is not None:
        if ns.pt is None or ns.pm is None:
            raise InputError("exact bias needs both the numerator and the exponent")
        if ns.p is not None:
            raise InputError("give either --p or an exact t/2^m bias, not both")
        return Bias.exact(ns.pt, ns.pm)
    if ns.p is not None:
        return Bias.general(ns.p)
    return Bias.exact(1, 1)


def _add_common(parser):
    parser.add_argument(
        "--format", choices=("json", "text"), default="text", help="report format"
    )
    parser.add_argument("--output", metavar="PATH", help="write the report to a file")
    # Inert and hidden: every command line in perfbench/workloads.py passes
    # it, so it is parsed until they drop it.
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    parser.add_argument(
        "--max-n", type=int, default=None, help="raise or lower the table-size cap"
    )


def _apply_common(ns) -> None:
    if ns.max_n is not None:
        set_max_n(ns.max_n)


# ---------------------------------------------------------------------------
# subcommands
#
# Each returns (JSON payload, text report lines, exit code); main writes
# the report in the format asked for.


def _mark(holds: bool) -> str:
    return "ok" if holds else "VIOLATED"


def _cmd_analyze(ns):
    report = analyze(_load_source(ns), _get_bias(ns), epsilon=ns.epsilon)
    lines = [
        f"n = {report.n}   p = {report.p:.6g}   backend = {backend_name()}",
        f"spectral entropy   {report.entropy:.10g} bits",
        f"total influence    {report.influence:.10g}",
        f"entropy/influence  {'n/a' if report.ratio is None else f'{report.ratio:.10g}'}",
        f"degree             {report.degree}",
        f"eps-support        {report.support_size} masks capture "
        f"{report.support_captured:.6g} (eps = {report.epsilon:g})",
        f"parseval gap       {report.parseval:.3g}",
    ]
    for name, value in report.bounds.items():
        mark = _mark(name not in report.violations) if name in PROVEN_BOUNDS else "recorded"
        lines.append(f"bound {name:<14} {value:.10g}  [{mark}]")
    if report.claim_constant is not None:
        lines.append(f"biased claim constant  {report.claim_constant:.10g}")
    payload = {"schema": 1, "command": "analyze", **report.to_dict()}
    return payload, lines, EXIT_VIOLATION if report.violations else EXIT_OK


def _cmd_reduce(ns):
    f = _load_source(ns)
    if ns.pt is None or ns.pm is None:
        raise InputError("the reduction needs an exact bias: --t T --m M")
    report = reduction_report(f, Bias.exact(ns.pt, ns.pm))
    fk, ent = report["red_fk"], report["entropy"]
    # the influence bound is proven only for p <= 1/2; above it is recorded
    fk_proven = report["p"] <= 0.5
    lines = [
        f"p = {report['p']:.6g} = {report['t']}/2^{report['m']}"
        f"   reduced variables = {f.n * report['m']}",
        f"squared-coefficient gap  {report['red0_max_gap']:.3g}",
        f"influence bound          {fk['lhs']:.10g} <= {fk['rhs']:.10g}"
        f"  [{_mark(fk['holds']) if fk_proven else 'recorded'}]",
        f"entropy monotone         {ent['reduced']:.10g} >= "
        f"{ent['original']:.10g}  [{_mark(ent['holds'])}]",
    ]
    proven_failed = (
        not ent["holds"]
        or report["red0_max_gap"] > PROVEN_BOUND_SLACK
        or (fk_proven and not fk["holds"])
    )
    return report, lines, EXIT_VIOLATION if proven_failed else EXIT_OK


def _cmd_tensor(ns):
    f = _load_source(ns)
    g2 = _load_source(ns, suffix="2")
    if (ns.power is None) == (g2 is None):
        raise InputError("tensor needs exactly one of --power N and a second factor")
    if ns.exact and (g2 is not None or ns.explicit):
        raise InputError("--exact applies only to a virtual power: --power N without --explicit")
    bias = _get_bias(ns)
    payload = {"schema": 1, "command": "tensor"}
    if ns.power is not None and not ns.explicit:
        stats = virtual_power_stats(f, ns.power, bias, exact=ns.exact)
        payload.update(
            mode="virtual",
            N=stats.N,
            n=stats.n,
            p=stats.p,
            entropy=stats.entropy,
            influence=stats.total_influence,
            ei_ratio=stats.ei_ratio,
            mean_level=stats.profile.mean_level(),
            level_variance=stats.profile.variance(),
            level_weights=[float(w) for w in stats.profile.weights],
        )
    else:
        if g2 is None:
            g = tensor_power(f, ns.power)
            payload.update(mode="explicit", N=ns.power)
        else:
            g = tensor_product(f, g2)
            payload.update(mode="product")
        sp = transform(g, bias)
        payload.update(
            n=g.n,
            p=bias.p,
            entropy=spectral_entropy(sp),
            influence=total_influence_spectral(sp),
        )
        if g2 is not None:
            payload["function_hex"] = table_to_hex(g) if g.n <= 16 else None
    lines = [f"{key} = {value}" for key, value in payload.items() if key != "schema"]
    return payload, lines, EXIT_OK


@contextmanager
def _replacing(path, binary=False):
    """A UTF-8 text file for ``path`` (a binary one with ``binary``), written
    beside it and renamed onto it once complete, and removed if the block
    fails; a symlink is followed first.  A pipe or a device (``/dev/stdout``)
    is written in place.  Yields None when ``path`` is empty."""
    if not path:
        yield None
        return
    kwargs = {"mode": "wb"} if binary else {"mode": "w", "encoding": "utf-8", "newline": ""}
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, **kwargs) as fh:
            yield fh
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, **kwargs)
    except OSError as exc:
        raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _cmd_sweep(ns):
    # without a CSV no bound column is read: a biased sweep skips them
    p, exhaustive, count, stream = _sweep_stream(
        ns.n, ns.p if ns.p is not None else 0.5, ns.sample, ns.seed, bounds=bool(ns.csv)
    )
    # the CSV is opened before any chunk runs, so a bad path costs no sweep
    with _replacing(ns.csv) as fh:
        summary = _summarise_sweep(ns.n, stream, fh)
    payload = {
        "schema": 1,
        "command": "sweep",
        "n": ns.n,
        "p": p,
        "exhaustive": exhaustive,
        "count": summary.count,
        "max_ratio": summary.best,
        "max_ratio_function_hex": summary.best_hex,
        "violations": summary.violations,
    }
    lines = [
        f"swept {summary.count} functions on n = {ns.n} at p = {p:.6g}",
        f"max entropy/influence ratio = {summary.best:.10g} at hex {summary.best_hex}",
        f"proven-bound violations: {len(summary.violations)}",
    ]
    if ns.csv:
        lines.append(f"per-function table written to {ns.csv}")
    return payload, lines, EXIT_VIOLATION if summary.violations else EXIT_OK


def _cmd_clique(ns):
    report = clique_experiment(ns.nv, ns.r)
    lines = [
        f"K_{report.r} on {report.n_vertices} vertices; {report.n_edges} edge variables",
        f"critical bias p0 = {report.p0:.12g} "
        f"(equation residual {report.equation_residual:.3g})",
        f"entropy   {report.entropy:.10g}",
        f"influence {report.influence:.10g} <= {report.union_bound:.10g}"
        f"  [{_mark(report.union_bound_holds)}]",
        f"clique coefficients agree to {report.coefficient_spread:.3g}",
        f"normalised ratio {report.ratio:.10g}",
    ]
    payload = {"schema": 1, "command": "clique", **report.to_dict()}
    return payload, lines, EXIT_OK if report.union_bound_holds else EXIT_VIOLATION


def _cmd_spectrum(ns):
    if ns.top < 0:
        raise InputError("--top must be nonnegative")
    # both exports are opened before the transform, and written all or not at all
    with _replacing(ns.export, binary=True) as spec_fh, _replacing(ns.export_json) as json_fh:
        if ns.load is not None:
            sp = load_spectrum_binary(ns.load)
        else:
            sp = transform(_load_source(ns), _get_bias(ns))
        if spec_fh:
            save_spectrum_binary(sp, spec_fh)
        if json_fh:
            save_spectrum_json(sp, json_fh)
    order = top_masks(sp.coeffs, ns.top, key=np.abs)
    ent = spectral_entropy(sp)
    infl = total_influence_spectral(sp)
    lines = [f"n = {sp.n}   p = {sp.p:.6g}   entropy = {ent:.10g}   influence = {infl:.10g}"]
    for msk in order:
        lines.append(f"  S = {int(msk):0{sp.n}b}   coeff = {sp.coeffs[msk]:+.12g}")
    if ns.export:
        lines.append(f"binary spectrum written to {ns.export}")
    if ns.export_json:
        lines.append(f"JSON spectrum written to {ns.export_json}")
    payload = {
        "schema": 1,
        "command": "spectrum",
        "n": sp.n,
        "p": sp.p,
        "entropy": ent,
        "influence": infl,
        "top": [{"mask": int(msk), "coefficient": float(sp.coeffs[msk])} for msk in order],
    }
    return payload, lines, EXIT_OK


def _conf_analyze(p):
    _add_source(p)
    _add_bias(p)
    p.add_argument("--epsilon", type=float, default=1e-2, help="support threshold")
    _add_common(p)


def _conf_reduce(p):
    _add_source(p)
    p.add_argument("--t", "--pt", dest="pt", metavar="T", type=int, help="bias numerator")
    p.add_argument(
        "--m", "--pm", dest="pm", metavar="M", type=int, help="bias exponent (p = t/2^m)"
    )
    _add_common(p)


def _conf_tensor(p):
    _add_source(p)
    _add_source(p, suffix="2", required=False)
    p.add_argument("--power", type=int, default=None, help="tensor power exponent N")
    p.add_argument(
        "--explicit", action="store_true", help="materialise the full power table"
    )
    p.add_argument(
        "--exact", action="store_true", help="rational level profile (p = 1/2)"
    )
    _add_bias(p)
    _add_common(p)


def _conf_sweep(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--sample", type=int, default=None, help="sample instead of enumerating")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", metavar="PATH", help="write the per-function table")
    _add_common(p)


def _conf_clique(p):
    p.add_argument("--nv", type=int, required=True, help="vertex count")
    p.add_argument("--r", type=int, required=True, help="clique size")
    _add_common(p)


def _conf_spectrum(p):
    group = _add_source(p)
    group.add_argument("--load", metavar="PATH", help="read a binary spectrum file")
    _add_bias(p)
    p.add_argument("--export", metavar="PATH", help="write the binary spectrum")
    p.add_argument("--export-json", metavar="PATH", help="write the JSON spectrum")
    p.add_argument("--top", type=int, default=8, help="coefficients to display")
    _add_common(p)


COMMANDS = (
    CommandSpec("analyze", "entropy, influence, bounds for one function",
                _conf_analyze, _cmd_analyze),
    CommandSpec("reduce", "pull a dyadically biased function to p = 1/2",
                _conf_reduce, _cmd_reduce),
    CommandSpec("tensor", "tensor products and (virtual) powers",
                _conf_tensor, _cmd_tensor),
    CommandSpec("sweep", "statistics over all functions on n variables",
                _conf_sweep, _cmd_sweep),
    CommandSpec("clique", "clique indicator at its critical bias",
                _conf_clique, _cmd_clique),
    CommandSpec("spectrum", "compute, export, or load a spectrum",
                _conf_spectrum, _cmd_spectrum),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cubefourier",
        description="Spectral analysis of Boolean functions on the biased cube.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for spec in COMMANDS:
        sp = sub.add_parser(spec.name, help=spec.help)
        spec.configure(sp)
        sp.set_defaults(func=spec.run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # --max-n holds for one command: a caller in the same process (a test,
    # a notebook) keeps its own cap afterwards.
    saved = get_max_n()
    try:
        ns = parser.parse_args(argv)
        _apply_common(ns)
        # the report file is opened before any work, so a bad path costs none
        with _replacing(ns.output) as fh:
            payload, lines, code = ns.func(ns)
            text = json.dumps(payload, indent=2) if ns.format == "json" else "\n".join(lines)
            print(text, file=fh)
        return code
    except (InputError, ResourceError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it refused; a bare one is empty
        print(f"cubefourier: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        set_max_n(saved)


if __name__ == "__main__":
    sys.exit(main())
