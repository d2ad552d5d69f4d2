"""Entropy/influence bound checking, exhaustive sweeps, and experiments.

The central quantity is the ratio of spectral entropy to total influence.
At the uniform measure the conjectured statement is Ent(f) <= C * I(f) for
a universal C; the checks here record the ratio, compare the entropy
against the bounds that are actually proven, and flag any violation of a
proven bound (which would indicate a software defect, not new mathematics).
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

import numpy as np

from . import _SOURCES
from .boolfn import (
    Frozen,
    GraphPropertySpec,
    TruthTable,
    as_bias,
    clique_indicator,
    critical_p0,
    frozen_array,
    readonly,
    rows_to_hex,
    sign_array,
)
from .config import check_integer, check_table_size
from .errors import InputError
from .kernels import biased_forward_inplace
from .spectral import (
    _level_probabilities,
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

__all__ = list(_SOURCES["conjecture"])

PROVEN_BOUND_SLACK = 1e-9


def _reals(value, what: str) -> np.ndarray:
    """``value`` as a float64 array; InputError names ``what`` where numpy
    would raise a bare ValueError on a non-number, or read None as NaN."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise InputError(f"{what} must hold real numbers, got {value!r}")
    return arr.astype(np.float64, copy=False)


def binary_entropy(x):
    """h(x) in bits, elementwise; h(0) = h(1) = 0."""
    x = _reals(x, "binary entropy argument x")
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
    p = as_bias(p)
    _reals(entropy, "entropy")
    if _reals(influence, "influence") <= 0.0:
        return None
    if p == 0.5:
        return entropy / influence
    return entropy / (p * math.log2(1.0 / p) * influence)


def entropy_upper_bounds(n: int, influence, infl_vec) -> dict:
    """The proven upper bounds for spectral entropy at the uniform measure.

    Returns h_bound (sum of binary entropies of the coordinate influences
    ``infl_vec``), proof_form 2I(1 + log2 n - log2 I), its weaker displayed
    variant 2I(log2 n - log2 I) which is recorded but never asserted, and
    the additive bound (log2 n + 1) I + 1.  Works elementwise: ``influence``
    may be an array, with ``infl_vec`` carrying the coordinates along its
    last axis; scalars give floats.
    """
    if check_integer(n, "variable count n") < 1:
        raise InputError(f"the bounds need at least one variable, got n = {n}")
    infl = _reals(influence, "influence")
    # spectral influences are probabilities that rounding can carry an ulp
    # past 1 away from p = 1/2
    ivec = np.clip(_reals(infl_vec, "infl_vec"), 0.0, 1.0)
    if ivec.shape[-1:] != (n,):
        raise InputError(f"infl_vec must hold n = {n} influences along its last axis,"
                         f" got shape {ivec.shape}")
    out = {"h_bound": np.sum(binary_entropy(ivec), axis=-1)}
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = math.log2(n) - np.log2(infl)
        out["proof_form"] = np.where(infl > 0.0, 2.0 * infl * (1.0 + log_term), 0.0)
        out["displayed_form"] = np.where(infl > 0.0, 2.0 * infl * log_term, 0.0)
    out["logn_bound"] = (math.log2(n) + 1.0) * infl + 1.0
    if infl.ndim == 0:
        out = {k: float(v) for k, v in out.items()}
    return out


class Check(NamedTuple):
    """One inequality of a report, ``value`` <= ``bound`` up to
    PROVEN_BOUND_SLACK, with ``holds`` computed where the check is made.  A
    proven check that fails signals a defect: the command line exits with 2."""

    name: str
    value: float
    bound: float
    proven: bool
    holds: bool

    @property
    def violated(self) -> bool:
        return self.proven and not self.holds

    @property
    def mark(self) -> str:
        if not self.proven:
            return "recorded"
        return "ok" if self.holds else "VIOLATED"


def _bounds_proven(p: float) -> bool:
    """The entropy bounds are theorems of the uniform measure."""
    return p == 0.5


def entropy_checks(p: float, entropy, bounds: dict) -> tuple[Check, ...]:
    """The entropy against each of ``bounds`` (from entropy_upper_bounds),
    elementwise: an array ``entropy`` gives arrays of values and ``holds``.
    Nothing is checked away from p = 1/2, and displayed_form is recorded."""
    if not _bounds_proven(p):
        return ()
    return tuple(
        Check(name, entropy, bound, name != "displayed_form",
              np.logical_not(entropy > bound + PROVEN_BOUND_SLACK))
        for name, bound in bounds.items()
    )


class AnalysisReport(NamedTuple):
    """Everything the analyzer computes for one function at one bias."""

    n: int
    p: float
    entropy: float
    influence: float
    influence_vec: tuple[float, ...]
    ratio: float | None
    checks: tuple[Check, ...]  # one per entropy bound, at p = 1/2 only
    degree: int
    level_weights: tuple[float, ...]
    support_size: int
    support_captured: float
    epsilon: float
    parseval: float
    claim_constant: float | None = None

    @property
    def bounds(self) -> dict:
        return {check.name: check.bound for check in self.checks}

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(check.name for check in self.checks if check.violated)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "entropy": self.entropy,
            "influence": self.influence,
            "influence_per_coordinate": list(self.influence_vec),
            "ei_ratio": self.ratio,
            "bounds": self.bounds,
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
    p = as_bias(p)
    spec = transform(f, p)
    ent = spectral_entropy(spec)
    infl = total_influence_spectral(spec)
    ivec = coordinate_influences(spec)
    profile = level_profile(spec)
    size, captured = support_size(spec, epsilon)
    checks = entropy_checks(p, ent, entropy_upper_bounds(f.n, infl, ivec))
    claim = None
    # where no bound is checked, only the conjectured normalisation is recorded
    if not checks and f.n >= 2 and infl > 0.0:
        denom = p * (1.0 - p) * math.log2(f.n) * infl
        claim = ent / denom if denom > 0.0 else None
    return AnalysisReport(
        n=f.n,
        p=p,
        entropy=ent,
        influence=infl,
        influence_vec=tuple(float(x) for x in ivec),
        ratio=ei_ratio(ent, infl, p),
        checks=checks,
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


_COLUMNS = ("entropy", "influence", "ratio", "h_bound", "logn_bound")


class SweepResult(Frozen):
    """Per-function statistics for a sweep at one bias, one read-only
    float64 column per statistic (the ratio is NaN where undefined)."""

    __slots__ = _fields = ("n", "p", "exhaustive", "function_ids", *_COLUMNS, "violations")
    n: int
    p: float
    exhaustive: bool
    function_ids: np.ndarray  # table encodings, bit at mask j = (id >> j) & 1
    violations: list

    def __init__(self, n: int, p: float, exhaustive: bool, function_ids,
                 entropy, influence, ratio, h_bound, logn_bound, violations=None):
        ids = frozen_array(function_ids, np.int64, np.size(function_ids), "function ids")
        columns = {
            key: frozen_array(value, np.float64, ids.size, f"{ids.size} {key} values")
            for key, value in zip(_COLUMNS, (entropy, influence, ratio, h_bound, logn_bound))
        }
        self._set(n=n, p=p, exhaustive=exhaustive, function_ids=ids, **columns,
                  violations=[] if violations is None else violations)

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


# Row k, column v: the +-1 value of bit k of the byte v.  A chunk's tables
# are gathered from it eight masks (one byte of every id) at a time.
_BYTE_SIGNS = readonly(
    sign_array(np.ascontiguousarray(_id_bits(3, np.arange(256)).T), np.float64)
)


def _cut_edge_influence(n: int, p: float):
    """A function from ids to the total influence of each, read off its bits
    as Σ_i Σ_{x: x_i = 0} μ_{n-1}(x without i)·[f(x) != f(x ^ e_i)], the
    weight of the cube edges it cuts; on uint64, so 64-bit ids shift logically."""
    masks = np.arange(1 << n)
    bit = 1 << masks.astype(object)  # bit x of an id, as a Python int
    shifts = np.array([[1 << i] for i in range(n)], dtype=np.uint64)
    lower = np.array([[bit[masks >> i & 1 == 0].sum()] for i in range(n)], dtype=np.uint64)
    levels = np.array([[[bit[np.bitwise_count(masks) == k].sum()]] for k in range(n)], np.uint64)
    weights = _level_probabilities(n - 1, p)[:, None]

    def influence(ids: np.ndarray) -> np.ndarray:
        table = np.asarray(ids, dtype=np.int64).view(np.uint64)
        cut = (table >> shifts ^ table) & lower  # bit x of row i: x_i = 0, f(x) != f(x ^ e_i)
        # edges cut at level k of x: at most n * C(n - 1, k) <= 60
        return (weights * np.bitwise_count(cut & levels).sum(axis=1, dtype=np.uint8)).sum(axis=0)

    return influence


def _sweep_chunk(
    n: int, p: float, ids: np.ndarray, work: np.ndarray | None = None, full: bool = True
) -> dict:
    """Statistics for one batch of function ids.

    The tables go through the same transform, reductions and bounds as
    :func:`analyze`, as one mask-major (2^n, rows) batch, so results do not
    depend on batching.  ``work`` is a (2, k) float64 workspace of at least
    2^n * rows entries per row, reused across chunks; the batch is built in
    its first row, squared there in place, and its second row is scratch.
    With ``full`` false (see :func:`_sweep_stream`) no bound is read, so the
    coordinate influences and the bounds, ``h_bound`` and ``logn_bound``, are skipped.
    """
    rows = ids.size
    size = rows << n
    if work is None:
        work = np.empty((2, size))
    work = work[:, :size]
    coeffs = work[0].reshape(1 << n, rows)
    octets = np.ascontiguousarray(ids, dtype="<i8").view(np.uint8).reshape(-1, 8)
    for mask in range(0, 1 << n, 8):
        # masks mask .. mask + 7 are the bits of byte mask // 8
        signs = _BYTE_SIGNS[: min(8, (1 << n) - mask)]
        np.take(signs, octets[:, mask // 8], axis=1, out=coeffs[mask : mask + 8])
    biased_forward_inplace(coeffs, p)
    sums = square_sums(coeffs, work, coords=full)  # overwrites coeffs with the squares
    ent = sums.entropy()
    infl = sums.influence(p)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(infl > 0.0, ent / infl, np.nan)
    stats = {"entropy": ent, "influence": infl, "ratio": ratio}
    if not full:
        stats["bad"] = np.zeros(rows, dtype=bool)
        return stats
    ivec = sums.coordinate_influences(p)
    pieces = []
    for start in range(0, rows, _BOUND_ROWS):
        part = slice(start, start + _BOUND_ROWS)
        bound = entropy_upper_bounds(n, infl[part], ivec[part])
        bad = np.zeros(bound["h_bound"].size, dtype=bool)
        for check in entropy_checks(p, ent[part], bound):
            if check.proven:
                bad |= ~check.holds
        pieces.append((bound["h_bound"], bound["logn_bound"], bad))
    stats["h_bound"], stats["logn_bound"], stats["bad"] = (
        np.concatenate(column) for column in zip(*pieces)
    )
    return stats


SWEEP_CHUNK = 4096
# The bounds are taken for this many functions at a time, and the chunk's
# last columns are joined after them: their (rows, n) temporaries then stay
# below glibc's 128 KiB mmap threshold and below live results in the heap,
# so each chunk reuses them instead of the memory being returned to the
# system and faulted back in (about 100 page faults per 4096-row chunk).
_BOUND_ROWS = 2048
# Finished chunks a sweep holds before it hands over the oldest.
_WINDOW = 2


def _sweep_stream(n: int, p, sample: int | None, seed: int, bounds: bool = True):
    """Check a sweep's arguments and set up its chunks.

    Returns p as a float, whether the sweep is exhaustive, the number of
    functions, and a generator of (ids, :func:`_sweep_chunk` statistics)
    pairs in id order.  The sweep is full unless the caller reads no bound
    column (``bounds`` false) and no bound is proven at p; only a sweep
    that is not full skips work (see :func:`_run_chunks`).  Exhaustive
    chunks are ``arange`` slices; sampled ones are drawn in order from one
    seeded PCG64 stream, the same ids as one draw of the whole sample.
    Nothing runs before the first ``next``.
    """
    checked = {"n": n} if sample is None else {"n": n, "sample": sample, "seed": seed}
    for name, value in checked.items():
        check_integer(value, name)
    if n < 1:
        raise InputError("sweep needs at least one variable")
    p = as_bias(p)
    if sample is None:
        if n > 4:
            raise InputError(
                "exhaustive sweeps are limited to n <= 4; pass a sample size"
            )
        count = 1 << (1 << n)

        def draw(start, size):
            return np.arange(start, start + size, dtype=np.int64)
    else:
        if sample < 1:
            raise InputError("sample size must be positive")
        if seed < 0:
            raise InputError(f"seed must be nonnegative, got {seed}")
        check_table_size(n, "sweep table")
        if n > 5:  # an id holds 2**n bits, and n = 6 overflows int64
            raise InputError("sampled sweeps support n <= 5")
        count = sample
        rng = np.random.Generator(np.random.PCG64(seed))

        def draw(start, size):
            return rng.integers(0, 1 << (1 << n), size=size, dtype=np.int64)

    chunks = (
        draw(start, min(SWEEP_CHUNK, count - start)) for start in range(0, count, SWEEP_CHUNK)
    )
    return p, sample is None, count, _run_chunks(n, p, chunks, count, bounds or _bounds_proven(p))


def _run_chunks(n: int, p: float, chunks, count: int, full: bool):
    """Yield (ids, statistics) for each chunk of ids, in order.

    Every chunk is computed in the calling thread, in one workspace of two
    (2^n, rows) float64 buffers.  The next chunk is computed before the last
    is handed over, up to _WINDOW finished results: the heap's top then
    holds live results while a chunk's temporaries come and go, so glibc
    reuses their memory instead of returning it and faulting it back in.

    A sweep that is not ``full`` reads only its largest ratio, so it
    transforms only the functions whose ceiling n / I (at most n bits of
    entropy, I from :func:`_cut_edge_influence`) reaches the largest so far,
    with a 1e-9 margin on each side: a skipped ratio is below the largest,
    not even a tie, and gets NaN statistics.
    """
    work = np.empty((2, min(count, SWEEP_CHUNK) << n))
    ceiling = None if full else _cut_edge_influence(n, p)
    best = np.nan  # the largest finite ratio so far
    done = deque()
    for ids in chunks:
        # no I exceeds n, so while the largest ratio is at most 1 none is skipped
        if full or not best * (1 - 1e-9) > 1 + 1e-9:
            stats = _sweep_chunk(n, p, ids, work, full)
        else:
            keep = ~(best * (1 - 1e-9) * ceiling(ids) > n * (1 + 1e-9))
            stats = {key: np.full(ids.size, np.nan) for key in ("entropy", "influence", "ratio")}
            stats["bad"] = np.zeros(ids.size, dtype=bool)
            for key, column in _sweep_chunk(n, p, ids[keep], work, full).items():
                stats[key][keep] = column
        if not full:
            best = np.fmax.reduce(stats["ratio"], initial=best)
        done.append((ids, stats))
        if len(done) == _WINDOW:
            yield done.popleft()
    yield from done


def _chunk_violations(n: int, ids: np.ndarray, stats: dict) -> list[dict]:
    """The violation records of one chunk's flagged functions, in id order."""
    bad = np.flatnonzero(stats["bad"])
    if not bad.size:
        return []
    return [
        {
            "function_hex": name,
            "entropy": float(stats["entropy"][idx]),
            "influence": float(stats["influence"][idx]),
        }
        for idx, name in zip(bad, rows_to_hex(_id_bits(n, ids[bad])))
    ]


class _SweepSummary:
    """What a sweep report reads: the count, the first largest ratio with
    its hex id (as :meth:`SweepResult.max_ratio` finds it), and the
    violations in id order."""

    __slots__ = ("n", "count", "best", "best_hex", "violations")

    def __init__(self, n: int):
        self.n = n
        self.count = 0
        self.best = float("nan")
        self.best_hex = ""
        self.violations = []

    def add(self, ids: np.ndarray, stats: dict) -> None:
        self.count += ids.size
        ratio = stats["ratio"]
        if np.any(np.isfinite(ratio)):
            idx = int(np.nanargmax(ratio))
            if not ratio[idx] <= self.best:  # the first chunk, or a larger ratio
                self.best = float(ratio[idx])
                self.best_hex = rows_to_hex(_id_bits(self.n, ids[idx : idx + 1]))[0]
        self.violations += _chunk_violations(self.n, ids, stats)

    @property
    def checks(self) -> tuple[Check, ...]:
        """The count of functions that break a proven bound, against 0."""
        count = len(self.violations)
        return (Check("violations", count, 0, True, count == 0),)


def _summarise_sweep(n: int, stream, csv_file=None) -> _SweepSummary:
    """Fold a sweep's stream into its summary, chunk by chunk, holding no
    per-function column; with ``csv_file``, write the CSV of
    :func:`write_sweep_csv` to it on the way."""
    summary = _SweepSummary(n)
    if csv_file is not None:
        csv_file.write(_CSV_HEADER)
    for ids, stats in stream:
        summary.add(ids, stats)
        if csv_file is not None:
            csv_file.write(_csv_rows(n, ids, stats))
    return summary


def exhaustive_sweep(
    n: int,
    p: float = 0.5,
    sample: int | None = None,
    seed: int = 0,
) -> SweepResult:
    """Statistics for every function on n variables (or a random sample).

    Exhaustive mode enumerates all 2**(2**n) functions and is limited to
    n <= 4.  Larger n must pass ``sample``; function ids are then drawn
    from a seeded PCG64 stream.  Work is cut into fixed-size chunks whose
    results are written into the columns in order.
    """
    p, exhaustive, count, stream = _sweep_stream(n, p, sample, seed)
    function_ids = np.empty(count, dtype=np.int64)
    columns = {key: np.empty(count) for key in _COLUMNS}
    violations = []
    start = 0
    for ids, stats in stream:
        stop = start + ids.size
        function_ids[start:stop] = ids
        for key, column in columns.items():
            column[start:stop] = stats[key]
        violations += _chunk_violations(n, ids, stats)
        start = stop
    # read-only before they are handed over, so the result keeps them uncopied
    return SweepResult(n=n, p=p, exhaustive=exhaustive, function_ids=readonly(function_ids),
                       violations=violations,
                       **{key: readonly(column) for key, column in columns.items()})


_CSV_HEADER = ",".join(("function_hex", *_COLUMNS)) + "\r\n"


def _csv_lines(names, columns) -> list[str]:
    """One CSV line per entry of ``names``: the name, then that row of the
    five float64 ``columns`` (in _COLUMNS order).  A ratio that is not
    finite is an empty field."""
    rows = zip(names, *(column.tolist() for column in columns))
    lines = ["%s,%.12g,%.12g,%.12g,%.12g,%.12g\r\n" % row for row in rows]
    for k in np.flatnonzero(~np.isfinite(columns[2])).tolist():
        ent, infl, _, h_bound, logn_bound = (column[k] for column in columns)
        lines[k] = "%s,%.12g,%.12g,,%.12g,%.12g\r\n" % (names[k], ent, infl, h_bound, logn_bound)
    return lines


def _row_keys(bits) -> np.ndarray:
    """One uint64 per row of the five uint64 ``bits`` columns, equal for
    equal rows: the columns, the k-th rotated by 13k bits, xored together."""
    key = bits[0].copy()
    for k, column in enumerate(bits[1:], 1):
        key ^= (column << np.uint64(13 * k)) | (column >> np.uint64(64 - 13 * k))
    return key


def _csv_rows(n: int, ids: np.ndarray, columns) -> str:
    """The CSV rows of functions ``ids`` with their statistics ``columns``.

    Each distinct row of statistics is formatted once and joined to the hex
    id of every function that has it: a 4096-function chunk holds a few
    dozen distinct rows at n = 4 and about 1,200 at n = 5, both at p = 1/2.
    Rows are grouped on a key of the bit patterns of their doubles, not on
    their values, since -0.0 and 0.0 format apart and NaN equals nothing.
    A row whose bits differ from the row its key picked is formatted alone,
    so keys that collide cost time, not bytes.  Where more than 7/8 of the
    keys are distinct, as in a sampled sweep away from p = 1/2, grouping
    costs more than it saves, and each row is formatted with its id.
    """
    names = rows_to_hex(_id_bits(n, ids))
    columns = [np.asarray(columns[key], dtype=np.float64) for key in _COLUMNS]
    bits = [column.view(np.uint64) for column in columns]
    key = _row_keys(bits)
    order = np.argsort(key)
    ordered = key[order]
    start = np.ones(order.size, dtype=bool)
    start[1:] = ordered[1:] != ordered[:-1]
    if 8 * np.count_nonzero(start) > 7 * order.size:
        return "".join(_csv_lines(names, columns))
    # the row whose line each row takes: the first of its key in sorted order
    pick = np.empty_like(order)
    pick[order] = order[start][np.cumsum(start) - 1]
    alone = np.zeros(order.size, dtype=bool)
    for column in bits:
        alone |= column[pick] != column
    pick[alone] = np.flatnonzero(alone)
    picked = np.flatnonzero(pick == np.arange(pick.size))
    line = np.empty_like(pick)
    line[picked] = np.arange(picked.size)
    lines = _csv_lines([""] * picked.size, [column[picked] for column in columns])
    out = names * 2  # names interleaved with lines
    out[0::2] = names
    out[1::2] = map(lines.__getitem__, line[pick].tolist())
    return "".join(out)


def write_sweep_csv(result: SweepResult, path) -> None:
    """One row per function: hex id, entropy, influence, ratio, two bounds.

    The bytes are those of ``csv.writer`` with its defaults: no field needs
    quoting, rows end in "\\r\\n", and an undefined ratio is an empty field.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(_CSV_HEADER)
        for start in range(0, result.count, SWEEP_CHUNK):
            part = slice(start, start + SWEEP_CHUNK)
            columns = {key: getattr(result, key)[part] for key in _COLUMNS}
            fh.write(_csv_rows(result.n, result.function_ids[part], columns))


# ---------------------------------------------------------------------------
# experiments


class CliqueReport(NamedTuple):
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

    @property
    def checks(self) -> tuple[Check, ...]:
        """The union bound on the influence, proven at every bias."""
        return (Check("union_bound", self.influence, self.union_bound, True,
                      self.union_bound_holds),)

    def to_dict(self) -> dict:
        out = self._asdict()
        out["clique_coefficients"] = list(self.clique_coefficients)
        out["ei_ratio"] = out.pop("ratio")  # the last field
        return out


def clique_experiment(n_vertices: int, r: int) -> CliqueReport:
    """Analyse K_r-containment at the bias where E[#cliques] = 1/2.

    The total influence at that bias is at most r(r-1)/(4 p0) by a union
    bound, with no asymptotic slack, so the comparison is exact enough to
    assert.  By vertex symmetry all coefficients on clique edge-sets agree.
    """
    spec_g = GraphPropertySpec(n_vertices, r)
    p0 = critical_p0(spec_g)
    subsets = math.comb(n_vertices, r)
    exponent = math.comb(r, 2)
    residual = abs(subsets * p0**exponent - 0.5)

    # no name holds the indicator: its bytes are freed before the sums allocate
    sp = transform(clique_indicator(spec_g), p0)
    ent = spectral_entropy(sp)
    infl = total_influence_spectral(sp)
    union = r * (r - 1) / (4.0 * p0)
    coeffs = tuple(float(sp.coeffs[msk]) for msk in spec_g.clique_edge_masks())
    return CliqueReport(
        n_vertices=n_vertices,
        r=r,
        n_edges=spec_g.n_edges,
        p0=p0,
        equation_residual=residual,
        entropy=ent,
        influence=infl,
        union_bound=union,
        union_bound_holds=bool(infl <= union + PROVEN_BOUND_SLACK),
        clique_coefficients=coeffs,
        coefficient_spread=float(max(coeffs) - min(coeffs)),
        ratio=ei_ratio(ent, infl, p0),
    )
