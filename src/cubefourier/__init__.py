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

``_SOURCES`` below is the one list of public names: the star-import list and
the lazy lookup derive from it.  ``pyproject.toml`` reads ``__version__``.
"""

import importlib

from . import config

__version__ = "0.1.0"

# The public names of each submodule, which is imported on first use of one.
_SOURCES = {
    "boolfn": (
        "GraphPropertySpec", "TruthTable", "and_fn", "clique_indicator", "constant",
        "critical_p0", "dictator", "format_truth_table", "from_bits", "load_truth_table",
        "majority", "mux3", "or_fn", "parity", "parse_truth_table", "random_function",
        "table_to_hex", "tribes",
    ),
    "conjecture": (
        "AnalysisReport", "Check", "CliqueReport", "SweepResult", "analyze",
        "binary_entropy", "clique_experiment", "ei_ratio", "entropy_upper_bounds",
        "exhaustive_sweep", "write_sweep_csv",
    ),
    "kernels": ("backend_name",),
    "reduction": (
        "reduce_table", "reduction_checks", "reduction_report", "verify_entropy_monotone",
        "verify_red0", "verify_red_fk",
    ),
    "spectral": (
        "DyadicSpectrum", "LevelProfile", "Spectrum", "coordinate_influences", "degree",
        "exact_transform", "influence_combinatorial", "influence_vector",
        "inverse_transform", "level_profile", "load_spectrum_binary", "load_spectrum_json",
        "min_support", "parseval_gap", "save_spectrum_binary", "save_spectrum_json",
        "spectral_entropy", "support_size", "total_influence_spectral", "transform",
    ),
    "tensor": (
        "VirtualPowerStats", "profile_convolve", "profile_power", "tensor_power",
        "tensor_product", "virtual_power_stats",
    ),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = ["__version__", *_HOME]


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
    return sorted(set(globals()) | set(_HOME) | set(_SOURCES))

