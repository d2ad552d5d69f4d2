"""Entropy/influence bound checking, exhaustive sweeps, and experiments.

The central quantity is the ratio of spectral entropy to total influence.
At the uniform measure the conjectured statement is Ent(f) <= C * I(f) for
a universal C; the checks here record the ratio, compare the entropy
against the bounds that are actually proven, and flag any violation of a
proven bound (which would indicate a software defect, not new mathematics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .boolfn import (
    GraphPropertySpec,
    TruthTable,
    as_bias,
    clique_indicator,
    critical_p0,
    rows_to_hex,
    sign_array,
)
from .config import check_table_size, get_threads
from .errors import InputError
from .kernels import biased_forward_inplace
from .spectral import (
    coordinate_influences,
    degree as spectral_degree,
    level_profile,
    parseval_gap,
    spectral_entropy,
    square_sums,
    support_size,
    total_influence_spectral,
    transform,
)

__all__ = [
    "binary_entropy",
    "ei_ratio",
    "entropy_upper_bounds",
    "AnalysisReport",
    "analyze",
    "SweepResult",
    "exhaustive_sweep",
    "write_sweep_csv",
    "CliqueReport",
    "clique_experiment",
    "min_support_check",
]

PROVEN_BOUND_SLACK = 1e-9


def binary_entropy(x):
    """h(x) in bits, elementwise; h(0) = h(1) = 0."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise InputError(f"binary entropy arguments must lie in [0, 1], got {x}")
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(x * np.log2(x)) - ((1.0 - x) * np.log2(1.0 - x))
    h = np.where((x > 0.0) & (x < 1.0), h, 0.0)
    return float(h) if h.ndim == 0 else h


def ei_ratio(entropy: float, influence: float, p: float = 0.5) -> float | None:
    """Entropy/influence ratio, normalised for the measure.

    At p = 1/2 this is plain Ent/I.  At other biases the influence is
    scaled by p log2(1/p), the natural unit in which the biased analogue
    of the conjecture is phrased.  Constant functions have no ratio.
    """
    if influence <= 0.0:
        return None
    if p == 0.5:
        return entropy / influence
    return entropy / (p * math.log2(1.0 / p) * influence)


def entropy_upper_bounds(n: int, influence, infl_vec=None) -> dict:
    """The proven upper bounds for spectral entropy at the uniform measure.

    Returns h_bound (sum of binary entropies of coordinate influences,
    present when ``infl_vec`` is given), proof_form 2I(1 + log2 n - log2 I),
    its weaker displayed variant 2I(log2 n - log2 I) which is recorded but
    never asserted, and the additive bound (log2 n + 1) I + 1.  Works
    elementwise: ``influence`` may be an array, with ``infl_vec`` carrying
    the coordinates along its last axis; scalars give floats.
    """
    infl = np.asarray(influence, dtype=np.float64)
    out: dict = {"h_bound": None}
    if infl_vec is not None:
        # spectral influences are probabilities that rounding can carry
        # an ulp past 1 away from p = 1/2
        ivec = np.clip(np.asarray(infl_vec, dtype=np.float64), 0.0, 1.0)
        out["h_bound"] = np.sum(binary_entropy(ivec), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = math.log2(n) - np.log2(infl)
        out["proof_form"] = np.where(infl > 0.0, 2.0 * infl * (1.0 + log_term), 0.0)
        out["displayed_form"] = np.where(infl > 0.0, 2.0 * infl * log_term, 0.0)
    out["logn_bound"] = (math.log2(n) + 1.0) * infl + 1.0
    if infl.ndim == 0:
        out = {k: None if v is None else float(v) for k, v in out.items()}
    return out


PROVEN_BOUNDS = ("h_bound", "proof_form", "logn_bound")


def exceeded_bounds(entropy, bounds: dict) -> dict:
    """For each proven bound present, whether the entropy exceeds it (elementwise)."""
    return {
        name: entropy > bounds[name] + PROVEN_BOUND_SLACK
        for name in PROVEN_BOUNDS
        if bounds[name] is not None
    }


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer computes for one function at one bias."""

    n: int
    p: float
    entropy: float
    influence: float
    influence_vec: tuple[float, ...]
    ratio: float | None
    bounds: dict
    violations: tuple[str, ...]
    degree: int
    level_weights: tuple[float, ...]
    support_size: int
    support_captured: float
    epsilon: float
    parseval: float
    claim_constant: float | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "entropy": self.entropy,
            "influence": self.influence,
            "influence_per_coordinate": list(self.influence_vec),
            "ei_ratio": self.ratio,
            "bounds": dict(self.bounds),
            "violations": list(self.violations),
            "degree": self.degree,
            "level_weights": list(self.level_weights),
            "min_support": {
                "epsilon": self.epsilon,
                "size": self.support_size,
                "captured": self.support_captured,
            },
            "parseval_gap": self.parseval,
            "claim_constant": self.claim_constant,
        }


def analyze(f: TruthTable, p=0.5, epsilon: float = 1e-2) -> AnalysisReport:
    """Full spectral report: entropy, influences, ratio, bounds, support."""
    bias = as_bias(p)
    spec = transform(f, bias)
    ent = spectral_entropy(spec)
    infl = total_influence_spectral(spec)
    ivec = coordinate_influences(spec)
    profile = level_profile(spec)
    size, captured = support_size(spec, epsilon)
    if bias.p == 0.5:
        bounds = entropy_upper_bounds(f.n, infl, ivec)
        violations = tuple(name for name, bad in exceeded_bounds(ent, bounds).items() if bad)
        claim = None
    else:
        # The proven bounds are uniform-measure statements; at other biases
        # only the conjectured normalisation is recorded.
        bounds = {}
        violations = ()
        claim = None
        if f.n >= 2 and infl > 0.0:
            denom = bias.p * (1.0 - bias.p) * math.log2(f.n) * infl
            claim = ent / denom if denom > 0.0 else None
    return AnalysisReport(
        n=f.n,
        p=bias.p,
        entropy=ent,
        influence=infl,
        influence_vec=tuple(float(x) for x in ivec),
        ratio=ei_ratio(ent, infl, bias.p),
        bounds=bounds,
        violations=violations,
        degree=spectral_degree(spec),
        level_weights=tuple(float(w) for w in profile.weights),
        support_size=size,
        support_captured=captured,
        epsilon=epsilon,
        parseval=parseval_gap(spec, f),
        claim_constant=claim,
    )


# ---------------------------------------------------------------------------
# sweeps over whole function classes


@dataclass
class SweepResult:
    """Per-function statistics for a sweep at one bias."""

    n: int
    p: float
    exhaustive: bool
    function_ids: np.ndarray  # table encodings, bit at mask j = (id >> j) & 1
    entropy: np.ndarray
    influence: np.ndarray
    ratio: np.ndarray  # NaN where undefined
    h_bound: np.ndarray
    logn_bound: np.ndarray
    violations: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return int(self.function_ids.size)

    def max_ratio(self) -> tuple[float, str]:
        """Largest entropy/influence ratio and the hex id of its function."""
        if not np.any(np.isfinite(self.ratio)):
            return float("nan"), ""
        idx = int(np.nanargmax(self.ratio))
        return float(self.ratio[idx]), self.function_hex([idx])[0]

    def function_hex(self, indices) -> list[str]:
        """Hex ids (the truth-table text format) of the functions at ``indices``."""
        return rows_to_hex(_id_bits(self.n, self.function_ids[indices]))


def _id_bits(n: int, ids: np.ndarray) -> np.ndarray:
    """(len(ids), 2**n) truth tables of the function ids, one uint8 row each.

    Bit j of an id is byte j // 8, bit j % 8 of its little-endian bytes, so
    the rows unpack straight from those bytes on any host.
    """
    octets = np.ascontiguousarray(ids, dtype="<i8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=1 << n, bitorder="little")


def _sweep_chunk(n: int, p: float, ids: np.ndarray) -> dict:
    """Statistics for one batch of function ids, one table per row.

    The rows go through the same transform, reductions and bounds as
    :func:`analyze`, so results do not depend on batching.
    """
    coeffs = sign_array(_id_bits(n, ids), np.float64)
    biased_forward_inplace(coeffs, p)
    sums = square_sums(coeffs)
    ent = sums.entropy()
    infl = sums.influence(p)
    bounds = entropy_upper_bounds(n, infl, sums.coordinate_influences(p))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(infl > 0.0, ent / infl, np.nan)
    bad = np.zeros(ids.size, dtype=bool)
    if p == 0.5:
        for over in exceeded_bounds(ent, bounds).values():
            bad |= over
    return {
        "entropy": ent,
        "influence": infl,
        "ratio": ratio,
        "h_bound": bounds["h_bound"],
        "logn_bound": bounds["logn_bound"],
        "bad": bad,
    }


SWEEP_CHUNK = 4096


def exhaustive_sweep(
    n: int,
    p: float = 0.5,
    sample: int | None = None,
    seed: int = 0,
) -> SweepResult:
    """Statistics for every function on n variables (or a random sample).

    Exhaustive mode enumerates all 2**(2**n) functions and is limited to
    n <= 4.  Larger n must pass ``sample``; function ids are then drawn
    from a seeded PCG64 stream.  Work is cut into fixed-size chunks and
    merged in order, so the output is identical for any thread count.
    """
    if n < 1:
        raise InputError("sweep needs at least one variable")
    if not 0.0 < p < 1.0:
        raise InputError("bias must lie strictly between 0 and 1")
    if sample is None:
        if n > 4:
            raise InputError(
                "exhaustive sweeps are limited to n <= 4; pass a sample size"
            )
        total = 1 << (1 << n)
        all_ids = np.arange(total, dtype=np.int64)
        exhaustive = True
    else:
        if sample < 1:
            raise InputError("sample size must be positive")
        check_table_size(n, "sweep table")
        rng = np.random.Generator(np.random.PCG64(seed))
        size = 1 << n
        if size <= 62:
            all_ids = rng.integers(0, 1 << size, size=sample, dtype=np.int64)
        else:
            raise InputError("sampled sweeps support n <= 5")
        exhaustive = False

    chunks = [
        all_ids[start : start + SWEEP_CHUNK]
        for start in range(0, all_ids.size, SWEEP_CHUNK)
    ]
    nthreads = get_threads()
    if nthreads > 1 and len(chunks) > 1:
        # here: importing concurrent.futures costs every command about 8 ms
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            parts = list(pool.map(partial(_sweep_chunk, n, p), chunks))
    else:
        parts = [_sweep_chunk(n, p, ids) for ids in chunks]

    # one column at a time, each chunk's piece dropped once it is copied,
    # so the merge holds one column more than the results themselves
    columns = {key: np.concatenate([part.pop(key) for part in parts]) for key in list(parts[0])}
    bad = np.flatnonzero(columns.pop("bad"))
    result = SweepResult(n=n, p=p, exhaustive=exhaustive, function_ids=all_ids, **columns)
    for idx, name in zip(bad, result.function_hex(bad)):
        result.violations.append(
            {
                "function_hex": name,
                "entropy": float(result.entropy[idx]),
                "influence": float(result.influence[idx]),
            }
        )
    return result


def write_sweep_csv(result: SweepResult, path) -> None:
    """One row per function: hex id, entropy, influence, ratio, two bounds.

    The bytes are those of ``csv.writer`` with its defaults: no field needs
    quoting, rows end in "\\r\\n", and an undefined ratio is an empty field.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write("function_hex,entropy,influence,ratio,h_bound,logn_bound\r\n")
        for start in range(0, result.count, SWEEP_CHUNK):
            part = slice(start, start + SWEEP_CHUNK)
            ratio = [
                "%.12g" % r if math.isfinite(r) else "" for r in result.ratio[part].tolist()
            ]
            rows = zip(
                result.function_hex(part),
                result.entropy[part].tolist(),
                result.influence[part].tolist(),
                ratio,
                result.h_bound[part].tolist(),
                result.logn_bound[part].tolist(),
            )
            fh.write("".join(["%s,%.12g,%.12g,%s,%.12g,%.12g\r\n" % row for row in rows]))


# ---------------------------------------------------------------------------
# experiments


@dataclass(frozen=True)
class CliqueReport:
    """Spectral data of the clique indicator at its critical bias."""

    n_vertices: int
    r: int
    n_edges: int
    p0: float
    equation_residual: float
    entropy: float
    influence: float
    union_bound: float
    union_bound_holds: bool
    clique_coefficients: tuple[float, ...]
    coefficient_spread: float
    ratio: float | None

    def to_dict(self) -> dict:
        return {
            "n_vertices": self.n_vertices,
            "r": self.r,
            "n_edges": self.n_edges,
            "p0": self.p0,
            "equation_residual": self.equation_residual,
            "entropy": self.entropy,
            "influence": self.influence,
            "union_bound": self.union_bound,
            "union_bound_holds": self.union_bound_holds,
            "clique_coefficients": list(self.clique_coefficients),
            "coefficient_spread": self.coefficient_spread,
            "ei_ratio": self.ratio,
        }


def clique_experiment(n_vertices: int, r: int) -> CliqueReport:
    """Analyse K_r-containment at the bias where E[#cliques] = 1/2.

    The total influence at that bias is at most r(r-1)/(4 p0) by a union
    bound, with no asymptotic slack, so the comparison is exact enough to
    assert.  By vertex symmetry all coefficients on clique edge-sets agree.
    """
    spec_g = GraphPropertySpec(n_vertices, r)
    f = clique_indicator(spec_g)
    bias = critical_p0(spec_g)
    subsets = math.comb(n_vertices, r)
    exponent = math.comb(r, 2)
    residual = abs(subsets * bias.p**exponent - 0.5)

    sp = transform(f, bias)
    ent = spectral_entropy(sp)
    infl = total_influence_spectral(sp)
    union = r * (r - 1) / (4.0 * bias.p)
    coeffs = tuple(float(sp.coeffs[msk]) for msk in spec_g.clique_edge_masks())
    return CliqueReport(
        n_vertices=n_vertices,
        r=r,
        n_edges=spec_g.n_edges,
        p0=bias.p,
        equation_residual=residual,
        entropy=ent,
        influence=infl,
        union_bound=union,
        union_bound_holds=bool(infl <= union + PROVEN_BOUND_SLACK),
        clique_coefficients=coeffs,
        coefficient_spread=float(max(coeffs) - min(coeffs)),
        ratio=ei_ratio(ent, infl, bias.p),
    )


def min_support_check(f: TruthTable, p=0.5, epsilon: float = 1e-2) -> dict:
    """Size of the epsilon-support against total influence.

    Records log2 |B_eps| / I_p; the conjectured statement makes this
    bounded in terms of 1/eps, so the number is reported, never asserted.
    """
    bias = as_bias(p)
    sp = transform(f, bias)
    size, captured = support_size(sp, epsilon)
    infl = total_influence_spectral(sp)
    log_size = math.log2(size) if size else 0.0
    return {
        "epsilon": epsilon,
        "support_size": size,
        "captured": captured,
        "influence": infl,
        "log_size_over_influence": (log_size / infl) if infl > 0 else None,
    }
