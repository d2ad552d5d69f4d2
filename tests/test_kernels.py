"""Backend parity: compiled extension vs pure-numpy stage kernels.

Both backends are loaded directly here (the package-level selection picks
one, but the modules themselves are always importable), and must produce
bitwise identical doubles: the arithmetic is the same sequence of IEEE
operations either way.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cubefourier as cf
from cubefourier import _kernels_py, kernels
from cubefourier.errors import InputError

try:
    from cubefourier import _core
except ImportError:
    _core = None

needs_core = pytest.mark.skipif(_core is None, reason="compiled backend not built")


def _random_vec(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(1 << n)


@needs_core
@given(st.integers(1, 10), st.integers(0, 1000), st.sampled_from([0.5, 0.25, 0.3, 0.71]))
def test_stage_f64_backends_agree_bitwise(n, seed, p):
    v1 = _random_vec(n, seed)
    v2 = v1.copy()
    c = np.sqrt(p * (1 - p))
    for i in range(n):
        h = 1 << i
        nblocks = (1 << n) >> (i + 1)
        _core.stage_f64(v1, 1 - p, p, c, -c, h, 0, nblocks)
        _kernels_py.stage_f64(v2, 1 - p, p, c, -c, h, 0, nblocks)
    assert np.array_equal(v1, v2)


@needs_core
@given(st.integers(1, 10), st.integers(0, 1000))
def test_stage_i64_backends_agree_exactly(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    v1 = rng.integers(-100, 100, size=1 << n).astype(np.int64)
    v2 = v1.copy()
    for i in range(n):
        h = 1 << i
        nblocks = (1 << n) >> (i + 1)
        _core.stage_i64(v1, h, 0, nblocks)
        _kernels_py.stage_i64(v2, h, 0, nblocks)
    assert np.array_equal(v1, v2)


@needs_core
def test_partial_block_ranges_compose():
    """Processing [0, k) then [k, nblocks) must equal one full pass."""
    v_full = _random_vec(8, 7)
    v_split = v_full.copy()
    h = 4
    nblocks = (1 << 8) // (2 * h)
    _core.stage_f64(v_full, 0.7, 0.3, 0.1, -0.1, h, 0, nblocks)
    _core.stage_f64(v_split, 0.7, 0.3, 0.1, -0.1, h, 0, 5)
    _core.stage_f64(v_split, 0.7, 0.3, 0.1, -0.1, h, 5, nblocks)
    assert np.array_equal(v_full, v_split)


@given(st.integers(1, 12), st.integers(0, 100), st.integers(1, 8))
def test_thread_count_never_changes_results(n, seed, threads):
    v1 = _random_vec(n, seed)
    v2 = v1.copy()
    kernels.biased_forward_inplace(v1, 0.3, threads=1)
    kernels.biased_forward_inplace(v2, 0.3, threads=threads)
    assert np.array_equal(v1, v2)


@given(st.integers(1, 12), st.integers(0, 100), st.integers(1, 8))
def test_wht_thread_count_never_changes_results(n, seed, threads):
    rng = np.random.Generator(np.random.PCG64(seed))
    v1 = rng.integers(-5, 5, size=1 << n).astype(np.int64)
    v2 = v1.copy()
    kernels.wht_inplace(v1, threads=1)
    kernels.wht_inplace(v2, threads=threads)
    assert np.array_equal(v1, v2)


def test_forward_inverse_weights_cancel():
    v = _random_vec(10, 3)
    orig = v.copy()
    kernels.biased_forward_inplace(v, 0.37)
    kernels.biased_inverse_inplace(v, 0.37)
    assert np.max(np.abs(v - orig)) < 1e-12


def test_backend_name_is_reported():
    assert kernels.BACKEND in ("compiled", "python")
    assert cf.backend_name() == kernels.BACKEND


def test_pure_python_fallback_is_forced_by_env(tmp_path):
    import os
    import subprocess
    import sys

    code = "import cubefourier; print(cubefourier.backend_name())"
    env = {"PATH": "/usr/bin:/bin", "CUBEFOURIER_PURE_PYTHON": "1"}
    if "PYTHONPATH" in os.environ:
        env["PYTHONPATH"] = os.environ["PYTHONPATH"]
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "python"


@needs_core
def test_full_transform_same_under_both_backends():
    f = cf.random_function(12, seed=5)
    v1 = f.sign_values()
    v2 = f.sign_values()
    # drive the stage loop once with each backend's kernel set
    from cubefourier.kernels import _run_stages

    p = 0.3
    c = np.sqrt(p * (1 - p))
    w = (1 - p, p, c, -c)
    _run_stages(v1, _core.stage_f64, w, threads=1)
    _run_stages(v2, _kernels_py.stage_f64, w, threads=1)
    assert np.array_equal(v1, v2)


# --- the two-phase schedule, the piecewise numpy stages and the worker pool ---

STAGE_BACKENDS = [_kernels_py] + ([_core] if _core is not None else [])


def _schedule_cases():
    p = 0.3
    c = np.sqrt(p * (1 - p))
    r, s = np.sqrt(p / (1 - p)), np.sqrt((1 - p) / p)
    return {
        "forward_half": ("stage_f64", (0.5, 0.5, 0.5, -0.5)),
        "forward_p03": ("stage_f64", (1 - p, p, c, -c)),
        "inverse_p03": ("stage_f64", (1.0, r, 1.0, -s)),
        "wht": ("stage_i64", ()),
    }


def _case_input(case, n):
    rng = np.random.Generator(np.random.PCG64(n))
    if case == "wht":
        return rng.integers(-50, 50, size=1 << n).astype(np.int64)
    return rng.standard_normal(1 << n)


@pytest.mark.parametrize("backend", STAGE_BACKENDS, ids=lambda m: m.__name__.rsplit(".", 1)[1])
@pytest.mark.parametrize("case", sorted(_schedule_cases()))
@pytest.mark.parametrize("n", [13, 14, 15, 16, 17, 18])
def test_blocked_threaded_schedule_matches_plain_loop(backend, case, n):
    """The blocked, threaded driver equals stage after stage over the whole table."""
    name, w = _schedule_cases()[case]
    stage = getattr(backend, name)
    size = 1 << n
    expected = _case_input(case, n)
    for i in range(n):
        stage(expected, *w, 1 << i, 0, size >> (i + 1))
    for threads in (1, 2, 3):
        v = _case_input(case, n)
        kernels._run_stages(v, stage, w, threads)
        assert np.array_equal(v, expected), (case, n, threads)


def _reference_stage(v, w, h, block_lo, block_hi):
    """One stage as whole-range array expressions: two multiplies, then one add."""
    a = v[block_lo * 2 * h : block_hi * 2 * h].reshape(-1, 2, h)
    lo = a[:, 0, :].copy()
    hi = a[:, 1, :].copy()
    if w:
        a[:, 0, :] = w[0] * lo + w[1] * hi
        a[:, 1, :] = w[2] * lo + w[3] * hi
    else:
        a[:, 0, :] = lo + hi
        a[:, 1, :] = lo - hi


@pytest.mark.parametrize("case", sorted(_schedule_cases()))
def test_numpy_stage_pieces_match_whole_range_arithmetic(case):
    """Every h from 1 to past the piece size, on ranges that end mid-piece."""
    name, w = _schedule_cases()[case]
    stage = getattr(_kernels_py, name)
    n = 18
    for i in range(n):
        h = 1 << i
        nblocks = (1 << n) >> (i + 1)
        for lo, hi in ((0, nblocks), (nblocks // 3, nblocks - nblocks // 5)):
            got = _case_input(case, n)
            want = got.copy()
            stage(got, *w, h, lo, hi)
            _reference_stage(want, w, h, lo, hi)
            assert np.array_equal(got, want), (case, h, lo, hi)


def test_concurrent_callers_share_the_pool_safely():
    """Several callers with different thread counts at once, on a short switch interval."""
    import sys
    import threading

    n = 17
    inputs = [_random_vec(n, seed) for seed in range(4)]
    expected = []
    for x in inputs:
        y = x.copy()
        kernels.biased_forward_inplace(y, 0.3, threads=1)
        expected.append(y)
    results = [None] * len(inputs)

    def work(k):
        v = inputs[k].copy()
        for _ in range(3):
            w = v.copy()
            kernels.biased_forward_inplace(w, 0.3, threads=2 + k)
        results[k] = w

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(len(inputs))]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    for got, want in zip(results, expected):
        assert got is not None and np.array_equal(got, want)


def _child_kernels(prelude="", **env_extra):
    """BACKEND and LOAD_ERROR of cubefourier.kernels in a fresh interpreter."""
    import json
    import os
    import subprocess
    import sys

    code = (
        prelude
        + "import json, cubefourier.kernels as k; print(json.dumps([k.BACKEND, k.LOAD_ERROR]))"
    )
    env = {"PATH": "/usr/bin:/bin", **env_extra}
    if "PYTHONPATH" in os.environ:
        env["PYTHONPATH"] = os.environ["PYTHONPATH"]
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_load_error_names_the_forcing_variable():
    backend, error = _child_kernels(CUBEFOURIER_PURE_PYTHON="1")
    assert backend == "python"
    assert "CUBEFOURIER_PURE_PYTHON" in error


def test_load_error_keeps_the_import_failure():
    # None in sys.modules makes importing the extension fail whether or not it is built.
    backend, error = _child_kernels("import sys; sys.modules['cubefourier._core'] = None; ")
    assert backend == "python"
    assert "cubefourier._core" in error


def test_load_error_is_none_when_the_extension_loads():
    fake = (
        "import sys, types; m = types.ModuleType('cubefourier._core'); "
        "m.stage_f64 = m.stage_i64 = None; sys.modules['cubefourier._core'] = m; "
    )
    assert _child_kernels(fake) == ["compiled", None]


def _batch_rows(n):
    # 4097 rows make a short last phase-one run at small n; above n = 10 the
    # same happens with one row past a whole run, at a size that fits memory
    rows = {1, 3}
    rows.add(4097 if n <= 10 else (1 << max(0, kernels._BLOCK_LOG2 - n)) + 1)
    return sorted(rows)


@pytest.mark.parametrize("backend", STAGE_BACKENDS, ids=lambda m: m.__name__.rsplit(".", 1)[1])
@pytest.mark.parametrize("case", ["forward_p03", "inverse_p03", "wht"])
@pytest.mark.parametrize("n", range(1, 18))
def test_batch_of_rows_matches_each_row_alone(backend, case, n):
    """One call on a (rows, 2^n) buffer equals transforming every row by itself."""
    name, w = _schedule_cases()[case]
    stage = getattr(backend, name)
    rng = np.random.Generator(np.random.PCG64(n))
    if case == "wht":
        distinct = rng.integers(-50, 50, size=(7, 1 << n), dtype=np.int64)
    else:
        distinct = rng.standard_normal((7, 1 << n))
    alone = distinct.copy()
    for row in alone:
        kernels._run_stages(row, stage, w, 1)
    for rows in _batch_rows(n):
        # 7 distinct rows repeat; two rows a power of two apart always differ
        batch = np.resize(distinct, (rows, 1 << n))
        expected = np.resize(alone, (rows, 1 << n))
        for threads in (1, 2, 3):
            v = batch.copy()
            kernels._run_stages(v, stage, w, threads)
            assert np.array_equal(v, expected), (case, n, rows, threads)


def test_public_transforms_take_batches_and_reject_strided_ones():
    rng = np.random.Generator(np.random.PCG64(7))
    batch = rng.standard_normal((6, 1 << 5))
    got = batch.copy()
    kernels.biased_forward_inplace(got, 0.3)
    for k, row in enumerate(batch):
        want = row.copy()
        kernels.biased_forward_inplace(want, 0.3)
        assert np.array_equal(got[k], want)
    with pytest.raises(InputError):
        kernels.biased_forward_inplace(np.zeros((4, 64))[:, ::2], 0.3)


def test_small_rows_share_phase_one_runs():
    """Phase one takes whole runs of rows, not one call per row and stage."""
    calls = []

    def counting(v, *args):
        calls.append(args[-3:])
        _kernels_py.stage_i64(v, *args)

    n, rows = 4, 4097  # 65552 entries: one full run of 2^16 and one short run
    kernels._run_stages(np.zeros((rows, 1 << n), dtype=np.int64), counting, (), 1)
    assert len(calls) == 2 * n
    assert calls[-1] == (1 << (n - 1), (1 << 16) >> n, (rows << n) >> n)
