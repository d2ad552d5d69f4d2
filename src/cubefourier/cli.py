"""Command-line front end.

Exit codes: 0 on success, 1 for bad input or usage, 2 only when a proven
inequality fails its check (which signals a defect worth investigating,
never a routine error).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Callable

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
from .config import get_max_n, get_threads, set_max_n, set_threads
from .conjecture import (
    PROVEN_BOUNDS,
    analyze,
    clique_experiment,
    exhaustive_sweep,
    write_sweep_csv,
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

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse uses exit status 2 for syntax errors; we reserve 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


@dataclass(frozen=True)
class CommandSpec:
    """One subcommand: its name, help line, flag setup, and handler."""

    name: str
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


# ---------------------------------------------------------------------------
# function sources

FAMILIES = {
    "dictator": "dictator:<n>,<i>",
    "parity": "parity:<n>,<maskhex>",
    "majority": "majority:<n>",
    "tribes": "tribes:<w>,<s>",
    "and": "and:<n>",
    "or": "or:<n>",
    "mux3": "mux3",
    "clique": "clique:<nv>,<r>",
    "random": "random:<n>,<seed>[,<density>]",
}


def parse_family(text: str) -> TruthTable:
    name, _, argstr = text.partition(":")
    args = [a for a in argstr.split(",") if a] if argstr else []
    try:
        if name == "dictator":
            return dictator(int(args[0]), int(args[1]))
        if name == "parity":
            return parity(int(args[0]), int(args[1], 16))
        if name == "majority":
            return majority(int(args[0]))
        if name == "tribes":
            return tribes(int(args[0]), int(args[1]))
        if name == "and":
            return and_fn(int(args[0]))
        if name == "or":
            return or_fn(int(args[0]))
        if name == "mux3":
            return mux3()
        if name == "clique":
            return clique_indicator(GraphPropertySpec(int(args[0]), int(args[1])))
        if name == "random":
            density = float(args[2]) if len(args) > 2 else 0.5
            return random_function(int(args[0]), int(args[1]), density)
    except (IndexError, ValueError) as exc:
        raise InputError(
            f"bad arguments for family {name!r}; expected {FAMILIES.get(name)}"
        ) from exc
    raise InputError(
        f"unknown family {name!r}; available: " + ", ".join(sorted(FAMILIES))
    )


def _add_source(parser, suffix=""):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        f"--family{suffix}",
        metavar="SPEC",
        help="named function, e.g. majority:5 or parity:4,b",
    )
    group.add_argument(f"--file{suffix}", metavar="PATH", help="truth-table text file")
    group.add_argument(
        f"--bits{suffix}", metavar="BITS", help="inline '0'/'1' outputs in mask order"
    )


def _load_source(ns, suffix="") -> TruthTable:
    family = getattr(ns, f"family{suffix}")
    path = getattr(ns, f"file{suffix}")
    bits = getattr(ns, f"bits{suffix}")
    if family is not None:
        return parse_family(family)
    if path is not None:
        return load_truth_table(path)
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


def _get_bias(ns, t_attr="pt", m_attr="pm") -> Bias:
    t = getattr(ns, t_attr, None)
    m = getattr(ns, m_attr, None)
    if t is not None or m is not None:
        if t is None or m is None:
            raise InputError("exact bias needs both the numerator and the exponent")
        if getattr(ns, "p", None) is not None:
            raise InputError("give either --p or an exact t/2^m bias, not both")
        return Bias.exact(t, m)
    if getattr(ns, "p", None) is not None:
        return Bias.general(ns.p)
    return Bias.exact(1, 1)


def _add_common(parser):
    parser.add_argument(
        "--format", choices=("json", "text"), default="text", help="report format"
    )
    parser.add_argument("--output", metavar="PATH", help="write the report to a file")
    parser.add_argument(
        "--threads", type=int, default=None, help="sweep pool width; other commands use one thread"
    )
    parser.add_argument(
        "--max-n", type=int, default=None, help="raise or lower the table-size cap"
    )


def _emit(ns, text: str) -> None:
    if ns.output:
        with open(ns.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _apply_common(ns) -> None:
    if getattr(ns, "max_n", None) is not None:
        set_max_n(ns.max_n)
    if getattr(ns, "threads", None) is not None:
        set_threads(ns.threads)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(ns) -> int:
    f = _load_source(ns)
    bias = _get_bias(ns)
    report = analyze(f, bias, epsilon=ns.epsilon)
    if ns.format == "json":
        payload = {"schema": 1, "command": "analyze"}
        payload.update(report.to_dict())
        _emit(ns, json.dumps(payload, indent=2))
    else:
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
            if value is not None:
                if name not in PROVEN_BOUNDS:
                    mark = "recorded"
                else:
                    mark = "VIOLATED" if name in report.violations else "ok"
                lines.append(f"bound {name:<14} {value:.10g}  [{mark}]")
        if report.claim_constant is not None:
            lines.append(f"biased claim constant  {report.claim_constant:.10g}")
        _emit(ns, "\n".join(lines))
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _cmd_reduce(ns) -> int:
    f = _load_source(ns)
    t = ns.t if ns.t is not None else ns.pt
    m = ns.m if ns.m is not None else ns.pm
    if t is None or m is None:
        raise InputError("the reduction needs an exact bias: --t T --m M")
    bias = Bias.exact(t, m)
    report = reduction_report(f, bias)
    if ns.format == "json":
        _emit(ns, json.dumps(report, indent=2))
    else:
        fk = report["red_fk"]
        ent = report["entropy"]
        _emit(
            ns,
            "\n".join(
                [
                    f"p = {report['p']:.6g} = {report['t']}/2^{report['m']}"
                    f"   reduced variables = {f.n * report['m']}",
                    f"squared-coefficient gap  {report['red0_max_gap']:.3g}",
                    f"influence bound          {fk['lhs']:.10g} <= {fk['rhs']:.10g}"
                    f"  [{'ok' if fk['holds'] else 'VIOLATED'}]",
                    f"entropy monotone         {ent['reduced']:.10g} >= "
                    f"{ent['original']:.10g}  [{'ok' if ent['holds'] else 'VIOLATED'}]",
                ]
            ),
        )
    proven_failed = not report["entropy"]["holds"] or report["red0_max_gap"] > 1e-6
    if report["p"] <= 0.5 and not report["red_fk"]["holds"]:
        proven_failed = True
    return EXIT_VIOLATION if proven_failed else EXIT_OK


def _cmd_tensor(ns) -> int:
    f = _load_source(ns)
    bias = _get_bias(ns)
    if ns.power is not None:
        if ns.explicit:
            g = tensor_power(f, ns.power)
            sp = transform(g, bias)
            payload = {
                "schema": 1,
                "command": "tensor",
                "mode": "explicit",
                "N": ns.power,
                "n": g.n,
                "p": bias.p,
                "entropy": spectral_entropy(sp),
                "influence": total_influence_spectral(sp),
            }
        else:
            stats = virtual_power_stats(f, ns.power, bias, exact=ns.exact)
            payload = {
                "schema": 1,
                "command": "tensor",
                "mode": "virtual",
                "N": stats.N,
                "n": stats.n,
                "p": stats.p,
                "entropy": stats.entropy,
                "influence": stats.total_influence,
                "ei_ratio": stats.ei_ratio,
                "mean_level": stats.mean_level(),
                "level_variance": stats.level_variance(),
                "level_weights": [float(w) for w in stats.profile.weights],
            }
    else:
        if ns.family2 is None and ns.file2 is None and ns.bits2 is None:
            raise InputError("tensor needs --power N or a second factor")
        g2 = _load_source(ns, suffix="2")
        prod = tensor_product(f, g2)
        sp = transform(prod, bias)
        payload = {
            "schema": 1,
            "command": "tensor",
            "mode": "product",
            "n": prod.n,
            "p": bias.p,
            "entropy": spectral_entropy(sp),
            "influence": total_influence_spectral(sp),
            "function_hex": table_to_hex(prod) if prod.n <= 16 else None,
        }
    if ns.format == "json":
        _emit(ns, json.dumps(payload, indent=2))
    else:
        _emit(
            ns,
            "\n".join(
                f"{key} = {value}" for key, value in payload.items() if key != "schema"
            ),
        )
    return EXIT_OK


def _cmd_sweep(ns) -> int:
    result = exhaustive_sweep(
        ns.n, p=ns.p if ns.p is not None else 0.5, sample=ns.sample, seed=ns.seed
    )
    best, best_hex = result.max_ratio()
    if ns.csv:
        write_sweep_csv(result, ns.csv)
    summary = {
        "schema": 1,
        "command": "sweep",
        "n": result.n,
        "p": result.p,
        "exhaustive": result.exhaustive,
        "count": result.count,
        "max_ratio": best,
        "max_ratio_function_hex": best_hex,
        "violations": result.violations,
    }
    if ns.format == "json":
        _emit(ns, json.dumps(summary, indent=2))
    else:
        lines = [
            f"swept {result.count} functions on n = {result.n} at p = {result.p:.6g}",
            f"max entropy/influence ratio = {best:.10g} at hex {best_hex}",
            f"proven-bound violations: {len(result.violations)}",
        ]
        if ns.csv:
            lines.append(f"per-function table written to {ns.csv}")
        _emit(ns, "\n".join(lines))
    return EXIT_VIOLATION if result.violations else EXIT_OK


def _cmd_clique(ns) -> int:
    report = clique_experiment(ns.nv, ns.r)
    if ns.format == "json":
        payload = {"schema": 1, "command": "clique"}
        payload.update(report.to_dict())
        _emit(ns, json.dumps(payload, indent=2))
    else:
        _emit(
            ns,
            "\n".join(
                [
                    f"K_{report.r} on {report.n_vertices} vertices; "
                    f"{report.n_edges} edge variables",
                    f"critical bias p0 = {report.p0:.12g} "
                    f"(equation residual {report.equation_residual:.3g})",
                    f"entropy   {report.entropy:.10g}",
                    f"influence {report.influence:.10g} <= {report.union_bound:.10g}"
                    f"  [{'ok' if report.union_bound_holds else 'VIOLATED'}]",
                    f"clique coefficients agree to {report.coefficient_spread:.3g}",
                    f"normalised ratio {report.ratio:.10g}",
                ]
            ),
        )
    return EXIT_OK if report.union_bound_holds else EXIT_VIOLATION


def _cmd_spectrum(ns) -> int:
    if ns.top < 0:
        raise InputError("--top must be nonnegative")
    if ns.load:
        sp = load_spectrum_binary(ns.load)
    else:
        sp = transform(_load_source(ns), _get_bias(ns))
    if ns.export:
        save_spectrum_binary(sp, ns.export)
    if ns.export_json:
        save_spectrum_json(sp, ns.export_json)
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
    if ns.format == "json":
        payload = {
            "schema": 1,
            "command": "spectrum",
            "n": sp.n,
            "p": sp.p,
            "entropy": ent,
            "influence": infl,
            "top": [
                {"mask": int(msk), "coefficient": float(sp.coeffs[msk])}
                for msk in order
            ],
        }
        _emit(ns, json.dumps(payload, indent=2))
    else:
        _emit(ns, "\n".join(lines))
    return EXIT_OK


def _conf_analyze(p):
    _add_source(p)
    _add_bias(p)
    p.add_argument("--epsilon", type=float, default=1e-2, help="support threshold")
    _add_common(p)


def _conf_reduce(p):
    _add_source(p)
    p.add_argument("--t", type=int, default=None, help="bias numerator")
    p.add_argument("--m", type=int, default=None, help="bias exponent (p = t/2^m)")
    p.add_argument("--pt", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--pm", type=int, default=None, help=argparse.SUPPRESS)
    _add_common(p)


def _conf_tensor(p):
    _add_source(p)
    p.add_argument("--family2", metavar="SPEC", help="second factor by name")
    p.add_argument("--file2", metavar="PATH", help="second factor from a file")
    p.add_argument("--bits2", metavar="BITS", help="second factor inline")
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
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family", metavar="SPEC")
    group.add_argument("--file", metavar="PATH")
    group.add_argument("--bits", metavar="BITS")
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
    # --max-n and --threads hold for one command: a caller in the same process
    # (a test, a notebook) keeps its own settings afterwards.
    saved = get_max_n(), get_threads()
    try:
        ns = parser.parse_args(argv)
        _apply_common(ns)
        return ns.func(ns)
    except (InputError, ResourceError, OSError) as exc:
        print(f"cubefourier: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        set_max_n(saved[0])
        set_threads(saved[1])


if __name__ == "__main__":
    sys.exit(main())
