"""Acceptance gate: eleven end-to-end criteria with pinned tolerances.

Each criterion prints exactly one PASS/FAIL line (bypassing capture) and
then asserts, so the one-line verdicts survive in any test log.  Tolerances
and time budgets are fixed here on purpose — they are the contract, not
tuning knobs.
"""

import itertools
import time

import numpy as np

import cubefourier as cf
from cubefourier import kernels
from conftest import dyadic_check, naive_transform

BIASES = [0.5, 0.25, 0.125, 0.3, 0.71]


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# -----------------------------------------------------------------------------


def test_criterion_01_roundtrip_and_parseval(capsys):
    """200 random functions, n in 1..12, five biases: transform must invert
    to 1e-9 and squared coefficients must sum to 1 within 1e-10, in 10s."""
    t0 = time.perf_counter()
    worst_round, worst_parseval = 0.0, 0.0
    count = 0
    for k in range(200):
        n = 1 + (k % 12)
        p = BIASES[k % 5]
        f = cf.random_function(n, seed=1000 + k)
        sp = cf.transform(f, p)
        back = cf.inverse_transform(sp)
        worst_round = max(
            worst_round, float(np.max(np.abs(back - f.sign_values())))
        )
        worst_parseval = max(worst_parseval, abs(float(np.sum(sp.squares())) - 1.0))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_round < 1e-9 and worst_parseval < 1e-10 and elapsed < 10.0
    _report(
        capsys, 1, "roundtrip-parseval", ok,
        f"{count} functions, roundtrip {worst_round:.2e} < 1e-9, "
        f"parseval {worst_parseval:.2e} < 1e-10, {elapsed:.2f}s < 10s",
    )


def test_criterion_02_naive_oracle_equivalence(capsys):
    """Butterfly output equals the O(4^n) double-sum definition to 1e-10
    for every n <= 8 and every bias, in 30s."""
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n in range(1, 9):
        n_fns = 2 if n <= 6 else 1
        biases = BIASES if n <= 7 else [0.5, 0.3]
        for j, p in itertools.product(range(n_fns), biases):
            f = cf.random_function(n, seed=2000 + 10 * n + j)
            fast = cf.transform(f, p).coeffs
            slow = naive_transform(f.sign_values(), n, p)
            worst = max(worst, float(np.max(np.abs(fast - slow))))
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 30.0
    _report(
        capsys, 2, "naive-oracle", ok,
        f"{count} transforms, max gap {worst:.2e} < 1e-10, {elapsed:.2f}s < 30s",
    )


def test_criterion_03_influence_identity(capsys):
    """Crossing probability times 4p(1-p) equals the spectral mass on sets
    containing the coordinate, within 1e-9, for every coordinate."""
    worst = 0.0
    checked = 0
    for k in range(40):
        n = 1 + (k % 10)
        p = BIASES[k % 5]
        f = cf.random_function(n, seed=3000 + k)
        w = cf.transform(f, p).squares()
        masks = np.arange(1 << n)
        for i in range(1, n + 1):
            spectral = float(np.sum(w[(masks >> (i - 1)) & 1 == 1]))
            comb = cf.influence_combinatorial(f, i, p)
            worst = max(worst, abs(comb * 4 * p * (1 - p) - spectral))
            checked += 1
    ok = worst < 1e-9
    _report(
        capsys, 3, "influence-identity", ok,
        f"{checked} coordinates, max gap {worst:.2e} < 1e-9",
    )


def test_criterion_04_worked_reduction_example(capsys):
    """Dictator at p = 1/4 reduces to AND of two bits with the documented
    numbers: zero squared-coefficient gap, influence 1 <= 3, and entropy
    rising from h(1/4) = 0.8113 to 2.0; all inside one second."""
    t0 = time.perf_counter()
    f = cf.dictator(1, 1)
    g = cf.reduce_table(f, 1, 2)
    report = cf.reduction_report(f, 1, 2)
    elapsed = time.perf_counter() - t0
    checks = [
        g == cf.and_fn(2),
        report["red0_max_gap"] < 1e-12,
        abs(report["red_fk"]["lhs"] - 1.0) < 1e-9,
        abs(report["red_fk"]["rhs"] - 3.0) < 1e-9,
        report["red_fk"]["holds"],
        abs(report["entropy"]["reduced"] - 2.0) < 1e-9,
        abs(report["entropy"]["original"] - 0.8113) < 1e-3,
        report["entropy"]["holds"],
        elapsed < 1.0,
    ]
    _report(
        capsys, 4, "worked-reduction", all(checks),
        f"reduced=AND2, gap {report['red0_max_gap']:.1e} < 1e-12, "
        f"influence {report['red_fk']['lhs']:.3g} <= {report['red_fk']['rhs']:.3g}, "
        f"entropy {report['entropy']['reduced']:.4g} >= "
        f"{report['entropy']['original']:.4g}, {elapsed:.3f}s < 1s",
    )


def test_criterion_05_red0_on_random_pairs(capsys):
    """Squared-coefficient aggregation is exact (1e-9) for 100 random
    (function, dyadic bias) pairs with n*m <= 12, in 60s."""
    t0 = time.perf_counter()
    tm_choices = [(1, 1), (1, 2), (3, 2), (1, 3), (3, 3), (5, 3), (7, 3), (1, 4)]
    worst = 0.0
    count = 0
    for k in range(100):
        t, m = tm_choices[k % len(tm_choices)]
        n = 1 + (k % (12 // m))
        f = cf.random_function(n, seed=5000 + k)
        gap = cf.verify_red0(f, t, m)
        worst = max(worst, gap)
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and count == 100 and elapsed < 60.0
    _report(
        capsys, 5, "red0-random-pairs", ok,
        f"{count} pairs, max gap {worst:.2e} < 1e-9, {elapsed:.2f}s < 60s",
    )


def _all_juntas():
    """Every k-junta on n <= 8 variables with k <= 3 named coordinates."""
    for n in range(1, 9):
        masks = np.arange(1 << n)
        for k in range(0, min(3, n) + 1):
            for coords in itertools.combinations(range(1, n + 1), k):
                idx = np.zeros(1 << n, dtype=np.int64)
                for j, i in enumerate(coords):
                    idx |= ((masks >> (i - 1)) & 1) << j
                for b in range(1 << (1 << k)):
                    base = (b >> np.arange(1 << k)) & 1
                    yield n, k, cf.TruthTable(n, base[idx].astype(np.uint8))


def _random_tree_bits(rng, n, depth):
    """Truth table of a random decision tree querying at most ``depth`` bits."""
    masks = np.arange(1 << n)
    out = np.zeros(1 << n, dtype=np.uint8)

    def gen(avail, d, sel):
        if sel.size == 0:
            return
        if d == 0 or not avail or rng.random() < 0.2:
            out[sel] = int(rng.integers(0, 2))
            return
        var = avail[int(rng.integers(0, len(avail)))]
        rest = [v for v in avail if v != var]
        bit = (masks[sel] >> (var - 1)) & 1
        gen(rest, d - 1, sel[bit == 0])
        gen(rest, d - 1, sel[bit == 1])

    gen(list(range(1, n + 1)), depth, masks)
    return cf.TruthTable(n, out)


def test_criterion_06_dyadic_corpus(capsys):
    """Every junta on <= 3 coordinates (n <= 8) and 50 random depth-k
    decision trees: numerators divisible by 2^(n-k) and entropy <= 2k,
    with zero failures, in 60s."""
    t0 = time.perf_counter()
    failures = 0
    count = 0
    for n, k, f in _all_juntas():
        d = cf.exact_transform(f)
        if not dyadic_check(d, k):
            failures += 1
        if cf.spectral_entropy(d) > 2 * k + 1e-9:
            failures += 1
        count += 1
    tree_count = 0
    rng = np.random.Generator(np.random.PCG64(606))
    while tree_count < 50:
        depth = 1 + tree_count % 3
        n = 4 + tree_count % 5
        f = _random_tree_bits(rng, n, depth)
        d = cf.exact_transform(f)
        if not dyadic_check(d, depth):
            failures += 1
        if cf.spectral_entropy(d) > 2 * depth + 1e-9:
            failures += 1
        tree_count += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    _report(
        capsys, 6, "dyadic-corpus", ok,
        f"{count} juntas + {tree_count} trees, {failures} failures, "
        f"{elapsed:.2f}s < 60s",
    )


def test_criterion_07_exhaustive_sweep(capsys):
    """All functions on n <= 4 at p = 1/2: zero violations of the three
    proven bounds, the known maximal ratio, CSV written, and results
    bitwise stable across runs, in 120s."""
    import tempfile

    t0 = time.perf_counter()
    violations = 0
    for n in range(1, 4):
        violations += len(cf.exhaustive_sweep(n).violations)
    first = cf.exhaustive_sweep(4)
    second = cf.exhaustive_sweep(4)
    violations += len(first.violations) + len(second.violations)
    stable = (
        np.array_equal(first.entropy, second.entropy)
        and np.array_equal(first.influence, second.influence)
        and np.array_equal(first.ratio, second.ratio, equal_nan=True)
        and first.max_ratio() == second.max_ratio()
    )
    best, best_hex = first.max_ratio()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/sweep4.csv"
        cf.write_sweep_csv(first, path)
        with open(path) as fh:
            rows = fh.read().splitlines()
    elapsed = time.perf_counter() - t0
    # the maximiser is the near-constant function, off only at the all-zeros
    # input: entropy 49/64 log(64/49) + 15/64 * 6 over influence 1/2
    expected_best = 3.402475551198587
    ok = (
        violations == 0
        and stable
        and abs(best - expected_best) < 1e-12
        and best_hex == "8000"
        and len(rows) == 65537
        and first.count == 65536
        and elapsed < 120.0
    )
    _report(
        capsys, 7, "exhaustive-sweep", ok,
        f"{sum(1 << (1 << n) for n in range(1, 5))} functions, 0 violations, "
        f"max ratio {best:.12g} at {best_hex}, run-stable={stable}, "
        f"{elapsed:.2f}s < 120s",
    )


def test_criterion_08_tensor_consistency(capsys):
    """Explicit squares agree with virtual stats to 1e-10 (N=2, n=3) and
    the entropy/influence ratio is invariant to 1e-9 for all N <= 20."""
    worst_stat = 0.0
    for seed in (None, 0, 1, 2):
        f = cf.majority(3) if seed is None else cf.random_function(3, seed)
        stats = cf.virtual_power_stats(f, 2)
        sp = cf.transform(cf.tensor_power(f, 2))
        worst_stat = max(
            worst_stat,
            abs(stats.entropy - cf.spectral_entropy(sp)),
            abs(stats.total_influence - cf.total_influence_spectral(sp)),
            float(
                np.max(np.abs(stats.profile.weights - cf.level_profile(sp).weights))
            ),
        )
    worst_ratio = 0.0
    for seed in (None, 3, 4):
        f = cf.majority(3) if seed is None else cf.random_function(3, seed)
        base = cf.virtual_power_stats(f, 1).ei_ratio
        if base is None:
            continue
        for N in range(1, 21):
            r = cf.virtual_power_stats(f, N).ei_ratio
            worst_ratio = max(worst_ratio, abs(r - base))
    ok = worst_stat < 1e-10 and worst_ratio < 1e-9
    _report(
        capsys, 8, "tensor-consistency", ok,
        f"explicit-vs-virtual gap {worst_stat:.2e} < 1e-10, "
        f"ratio drift over N<=20 {worst_ratio:.2e} < 1e-9",
    )


def test_criterion_09_clique_experiment(capsys):
    """Triangle containment on 6 vertices at its critical bias: the bias
    equation holds to 1e-12, total influence is at most 5.1301, and all 20
    triangle coefficients agree to 1e-10, in 30s."""
    t0 = time.perf_counter()
    report = cf.clique_experiment(6, 3)
    elapsed = time.perf_counter() - t0
    ok = (
        report.equation_residual < 1e-12
        and report.influence <= 5.1301
        and report.union_bound_holds
        and len(report.clique_coefficients) == 20
        and report.coefficient_spread < 1e-10
        and elapsed < 30.0
    )
    _report(
        capsys, 9, "clique-critical-bias", ok,
        f"residual {report.equation_residual:.1e} < 1e-12, influence "
        f"{report.influence:.4f} <= 5.1301, 20 coefficients within "
        f"{report.coefficient_spread:.1e}, {elapsed:.2f}s < 30s",
    )


def test_criterion_10_transform_performance(capsys):
    """Forward transform in the calling thread: n=20 under 2s, n=24 under
    40s."""
    v20 = cf.random_function(20, seed=1).sign_values()
    t0 = time.perf_counter()
    kernels.biased_forward_inplace(v20, 0.3)
    t_20 = time.perf_counter() - t0

    v24 = cf.random_function(24, seed=2).sign_values()
    t0 = time.perf_counter()
    kernels.biased_forward_inplace(v24, 0.3)
    t_24 = time.perf_counter() - t0

    ok = t_20 < 2.0 and t_24 < 40.0
    _report(
        capsys, 10, "transform-performance", ok,
        f"n=20 {t_20:.3f}s < 2s, n=24 {t_24:.2f}s < 40s",
    )


def test_criterion_11_analyze_performance(capsys):
    """Full analyze of a random n=20 function at p = 0.3, best of 3 under
    0.35s; its per-coordinate influences equal the combinatorial ones
    within 1e-12."""
    f = cf.random_function(20, seed=11)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        report = cf.analyze(f, 0.3)
        best = min(best, time.perf_counter() - t0)
    oracle = cf.influence_vector(f, 0.3)
    worst = float(np.max(np.abs(np.array(report.influence_vec) - oracle)))
    ok = best < 0.35 and worst < 1e-12
    _report(
        capsys, 11, "analyze-performance", ok,
        f"n=20 analyze best of 3 {best:.3f}s < 0.35s, "
        f"influence gap {worst:.1e} < 1e-12",
    )
