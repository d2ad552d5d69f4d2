"""Spectral analysis of Boolean functions on the (biased) discrete cube.

Fast in-place transforms, exact dyadic arithmetic at the uniform measure,
a biased-to-uniform reduction with verified invariants, virtual tensor
powers, and entropy/influence bound checking.

``import cubefourier`` loads only the configuration, so that bad
``CUBEFOURIER_*`` values still fail at import; each public name, and each
submodule such as ``cubefourier.kernels``, imports its submodule (and
numpy) on first use.  The command line (``cubefourier.cli``) loads numpy
with one OpenBLAS thread unless ``OPENBLAS_NUM_THREADS`` is set: the
package makes no BLAS call, and otherwise OpenBLAS starts a worker per CPU
at load that busy-waits for about 0.1 s of CPU time in every command.
"""

import importlib

from . import config

__version__ = "0.1.0"

# The submodule behind each public name, imported on first use of a name.
_SOURCES = {
    "boolfn": (
        "Bias", "GraphPropertySpec", "RealTable", "TruthTable", "and_fn",
        "clique_indicator", "constant", "critical_p0", "dictator", "discrete_derivative",
        "format_truth_table", "from_bits", "load_truth_table", "majority", "mux3", "or_fn",
        "parity", "parse_truth_table", "random_function", "save_truth_table",
        "table_to_hex", "tribes",
    ),
    "conjecture": (
        "AnalysisReport", "CliqueReport", "SweepResult", "analyze", "binary_entropy",
        "clique_experiment", "ei_ratio", "entropy_upper_bounds", "exhaustive_sweep",
        "min_support_check", "write_sweep_csv",
    ),
    "kernels": ("backend_name",),
    "reduction": (
        "ReductionLayout", "reduce_table", "reduction_report", "verify_entropy_monotone",
        "verify_red0", "verify_red_fk",
    ),
    "spectral": (
        "DyadicSpectrum", "LevelProfile", "Spectrum", "coordinate_influences", "degree",
        "dyadic_check", "exact_transform", "influence_combinatorial", "influence_vector",
        "inverse_transform", "level_profile", "load_spectrum_binary", "load_spectrum_json",
        "min_support", "parseval_gap", "reconstruct_exact", "save_spectrum_binary",
        "save_spectrum_json", "spectral_entropy", "support_size",
        "total_influence_combinatorial", "total_influence_spectral", "transform",
    ),
    "tensor": (
        "VirtualPowerStats", "profile_convolve", "profile_power", "tail_decay",
        "tensor_power", "tensor_product", "virtual_power_stats",
    ),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name):
    """Resolve a public name or a submodule by importing its submodule."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SOURCES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SOURCES))


__all__ = [
    "__version__",
    "backend_name",
    # function construction
    "TruthTable",
    "RealTable",
    "Bias",
    "GraphPropertySpec",
    "from_bits",
    "constant",
    "dictator",
    "parity",
    "majority",
    "tribes",
    "and_fn",
    "or_fn",
    "mux3",
    "clique_indicator",
    "critical_p0",
    "random_function",
    "discrete_derivative",
    "parse_truth_table",
    "format_truth_table",
    "load_truth_table",
    "save_truth_table",
    "table_to_hex",
    # spectra
    "Spectrum",
    "DyadicSpectrum",
    "LevelProfile",
    "transform",
    "inverse_transform",
    "exact_transform",
    "reconstruct_exact",
    "spectral_entropy",
    "total_influence_spectral",
    "total_influence_combinatorial",
    "influence_combinatorial",
    "influence_vector",
    "coordinate_influences",
    "level_profile",
    "degree",
    "support_size",
    "min_support",
    "dyadic_check",
    "parseval_gap",
    "save_spectrum_json",
    "load_spectrum_json",
    "save_spectrum_binary",
    "load_spectrum_binary",
    # reduction
    "ReductionLayout",
    "reduce_table",
    "reduction_report",
    "verify_red0",
    "verify_red_fk",
    "verify_entropy_monotone",
    # tensor
    "tensor_product",
    "tensor_power",
    "profile_convolve",
    "profile_power",
    "tail_decay",
    "VirtualPowerStats",
    "virtual_power_stats",
    # conjecture checks
    "AnalysisReport",
    "SweepResult",
    "CliqueReport",
    "analyze",
    "binary_entropy",
    "ei_ratio",
    "entropy_upper_bounds",
    "exhaustive_sweep",
    "write_sweep_csv",
    "clique_experiment",
    "min_support_check",
]
