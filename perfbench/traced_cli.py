"""Run the cubefourier command line with spans around its public functions.

Usage: python3 perfbench/traced_cli.py SPANS_JSON COMMAND_ID ARGS...

The spans are recorded from outside the package: after importing it, every
module attribute that names one of the functions below is replaced by a
wrapper, so ``conjecture.influence_vector`` is traced as well as
``spectral.influence_vector`` (modules import names directly).  Spans stay
in memory and are written to SPANS_JSON when the command ends.  Each span
records its name, start, end, the index of its parent span and the command
id; kernel spans add the process CPU time and the bytes they compute, and
sweep spans the number of functions swept.
"""

import functools
import json
import sys
import threading
import time

BUILD = "boolfn.build_s"

# Traced functions by module, each with the per-layer metric its self time adds to.
TRACED = {
    "cubefourier.boolfn": {
        "load_truth_table": "boolfn.load_s",
        **dict.fromkeys(
            ("from_bits", "constant", "dictator", "parity", "majority", "tribes", "and_fn",
             "or_fn", "mux3", "clique_indicator", "random_function"),
            BUILD,
        ),
    },
    "cubefourier.kernels": {
        "biased_forward_inplace": "kernels.f64.s",
        "biased_inverse_inplace": "kernels.f64.s",
        "wht_inplace": "kernels.i64.s",
    },
    "cubefourier.spectral": {
        "transform": "spectral.transform.self_s",
        "inverse_transform": "spectral.transform.self_s",
        "exact_transform": "spectral.exact_transform.self_s",
        "spectral_entropy": "spectral.entropy.s",
        "total_influence_spectral": "spectral.influence_total.s",
        "influence_vector": "spectral.influence_vector.s",
        "level_profile": "spectral.level_profile.s",
        "exact_level_profile": "spectral.exact_level_profile.s",
        "degree": "spectral.degree.s",
        "min_support": "spectral.min_support.s",
        "parseval_gap": "spectral.parseval_gap.s",
        **dict.fromkeys(
            ("save_spectrum_binary", "load_spectrum_binary", "save_spectrum_json",
             "load_spectrum_json"),
            "spectral.io.s",
        ),
    },
    "cubefourier.conjecture": {
        "analyze": "conjecture.analyze.self_s",
        "exhaustive_sweep": "conjecture.sweep.s",
        "write_sweep_csv": "conjecture.write_csv.s",
        "clique_experiment": "conjecture.clique.self_s",
    },
    "cubefourier.reduction": {
        "reduce_table": "reduction.reduce_table.s",
        **dict.fromkeys(
            ("reduction_report", "verify_red0", "verify_red_fk", "verify_entropy_monotone"),
            "reduction.verify.s",
        ),
    },
    "cubefourier.tensor": {
        "tensor_product": BUILD,
        "tensor_power": BUILD,
        "profile_power": "tensor.profile_power.s",
        "virtual_power_stats": "tensor.virtual_power.self_s",
    },
}

# Span name ("<module>.<function>") -> per-layer metric.
SPAN_METRIC = {"cli.main": "cli.self_s"} | {
    f"{mod.rsplit('.', 1)[1]}.{fn}": metric
    for mod, fns in TRACED.items()
    for fn, metric in fns.items()
}


class Tracer:
    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[dict] = []
        self._local = threading.local()

    def span(self, name: str, fn):
        kernel = name.startswith("kernels.")
        sweep = name == "conjecture.exhaustive_sweep"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            rec = {
                "name": name,
                "parent": stack[-1] if stack else -1,
                "cmd": self.command_id,
                "error": False,
            }
            stack.append(len(self.spans))
            self.spans.append(rec)
            cpu0 = time.process_time()
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec["error"] = True
                raise
            finally:
                rec["end"] = time.perf_counter()
                rec["cpu"] = time.process_time() - cpu0
                stack.pop()
            if kernel:
                size = args[0].shape[0]
                rec["bytes_computed"] = (size.bit_length() - 1) * size * 16
            if sweep:
                rec["functions"] = result.count
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for mod_name, names in TRACED.items():
            module = sys.modules[mod_name]
            short = mod_name.rsplit(".", 1)[1]
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, self.span(f"{short}.{fname}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cubefourier" and not mod_name.startswith("cubefourier."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def main() -> int:
    spans_path, command_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import cubefourier.cli

    t1 = time.perf_counter()
    tracer = Tracer(command_id)
    tracer.spans.append(
        {"name": "import", "parent": -1, "cmd": command_id, "error": False,
         "start": t0, "end": t1, "cpu": 0.0}
    )
    tracer.install()
    run = tracer.span("cli.main", cubefourier.cli.main)
    rc = 1
    try:
        rc = run(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
