"""Backend parity: C stage kernels (through ctypes) vs pure-numpy ones.

Both backends are loaded directly here (the package-level selection picks
one, but both modules are always importable, and the C library loads
wherever a C compiler or a cached build exists), and must produce bitwise
identical doubles: the arithmetic is the same sequence of IEEE operations
either way.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cubefourier as cf
from cubefourier import _kernels_py, _stages, config, kernels
from cubefourier.errors import InputError

try:
    _stages.load()
    _compiled = _stages
except OSError:
    _compiled = None

needs_compiled = pytest.mark.skipif(_compiled is None, reason="C stage kernels cannot be built here")


def _random_vec(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(1 << n)


def _biased_weights(p):
    c = np.sqrt(p * (1 - p))
    return 1 - p, p, c, -c


@needs_compiled
@given(
    st.integers(1, 10),
    st.integers(0, 1000),
    st.sampled_from(
        [_biased_weights(p) for p in (0.5, 0.25, 0.3, 0.71)] + [(1.0, 1.0, 1.0, -1.0)]
    ),
    st.booleans(),
)
def test_stage_f64_backends_agree_bitwise(n, seed, weights, integral):
    v1 = _random_vec(n, seed)
    if integral:
        # Walsh-Hadamard inputs: small integers, with zeros of both signs
        v1 = np.rint(2 * v1)
        v1[::3] = np.copysign(0.0, v1[::3])
    v2 = v1.copy()
    for i in range(n):
        h = 1 << i
        nblocks = (1 << n) >> (i + 1)
        _compiled.stage_f64(v1, *weights, h, 0, nblocks)
        _kernels_py.stage_f64(v2, *weights, h, 0, nblocks)
    assert np.array_equal(v1, v2)
    assert np.array_equal(np.signbit(v1), np.signbit(v2))


@needs_compiled
def test_partial_block_ranges_compose():
    """Processing [0, k) then [k, nblocks) must equal one full pass."""
    v_full = _random_vec(8, 7)
    v_split = v_full.copy()
    h = 4
    nblocks = (1 << 8) // (2 * h)
    _compiled.stage_f64(v_full, 0.7, 0.3, 0.1, -0.1, h, 0, nblocks)
    _compiled.stage_f64(v_split, 0.7, 0.3, 0.1, -0.1, h, 0, 5)
    _compiled.stage_f64(v_split, 0.7, 0.3, 0.1, -0.1, h, 5, nblocks)
    assert np.array_equal(v_full, v_split)


def _under_threads(threads, fn, *args):
    saved = config.get_threads()
    try:
        config.set_threads(threads)
        return fn(*args)
    finally:
        config.set_threads(saved)


@given(st.integers(1, 12), st.integers(0, 100), st.integers(1, 8))
def test_thread_count_never_changes_results(n, seed, threads):
    f = cf.RealTable(n, _random_vec(n, seed))
    c1 = _under_threads(1, cf.transform, f, 0.3).coeffs
    c2 = _under_threads(threads, cf.transform, f, 0.3).coeffs
    assert np.array_equal(c1, c2)


@given(st.integers(1, 12), st.integers(0, 100), st.integers(1, 8))
def test_wht_thread_count_never_changes_results(n, seed, threads):
    rng = np.random.Generator(np.random.PCG64(seed))
    f = cf.RealTable(n, rng.integers(-5, 5, size=1 << n).astype(np.float64))
    d1 = _under_threads(1, cf.exact_transform, f).numerators
    d2 = _under_threads(threads, cf.exact_transform, f).numerators
    assert np.array_equal(d1, d2)


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


@needs_compiled
def test_full_transform_same_under_both_backends():
    f = cf.random_function(12, seed=5)
    v1 = f.sign_values()
    v2 = f.sign_values()
    # drive the stage loop once with each backend's kernel set
    from cubefourier.kernels import _run_stages

    p = 0.3
    c = np.sqrt(p * (1 - p))
    w = (1 - p, p, c, -c)
    _run_stages(v1, _compiled.stage_f64, w)
    _run_stages(v2, _kernels_py.stage_f64, w)
    assert np.array_equal(v1, v2)


# --- the two-phase schedule, the piecewise numpy stages, concurrent callers ---

STAGE_BACKENDS = [_kernels_py] + ([_compiled] if _compiled is not None else [])


def _schedule_cases():
    p = 0.3
    c = np.sqrt(p * (1 - p))
    r, s = np.sqrt(p / (1 - p)), np.sqrt((1 - p) / p)
    return {
        "forward_half": ("stage_f64", (0.5, 0.5, 0.5, -0.5)),
        "forward_p03": ("stage_f64", (1 - p, p, c, -c)),
        "inverse_p03": ("stage_f64", (1.0, r, 1.0, -s)),
        "wht": ("stage_f64", (1.0, 1.0, 1.0, -1.0)),
    }


def _case_input(case, n):
    rng = np.random.Generator(np.random.PCG64(n))
    if case == "wht":
        return rng.integers(-50, 50, size=1 << n).astype(np.float64)
    return rng.standard_normal(1 << n)


@pytest.mark.parametrize("backend", STAGE_BACKENDS, ids=lambda m: m.__name__.rsplit(".", 1)[1])
@pytest.mark.parametrize("case", sorted(_schedule_cases()))
@pytest.mark.parametrize("n", [13, 14, 15, 16, 17, 18])
def test_blocked_threaded_schedule_matches_plain_loop(backend, case, n):
    """The blocked driver equals stage after stage over the whole table."""
    name, w = _schedule_cases()[case]
    stage = getattr(backend, name)
    size = 1 << n
    expected = _case_input(case, n)
    for i in range(n):
        stage(expected, *w, 1 << i, 0, size >> (i + 1))
    v = _case_input(case, n)
    kernels._run_stages(v, stage, w)
    assert np.array_equal(v, expected), (case, n)


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
    """Callers in several threads at once, with each backend, on a short switch
    interval: as the sweep's workers run stages, sharing no scratch buffer."""
    import sys
    import threading

    n = 17
    inputs = [_random_vec(n, seed) for seed in range(4)]
    name, w = _schedule_cases()["forward_p03"]
    for backend in STAGE_BACKENDS:
        stage = getattr(backend, name)
        expected = []
        for x in inputs:
            y = x.copy()
            kernels._run_stages(y, stage, w)
            expected.append(y)
        results = [None] * len(inputs)

        def work(k):
            for _ in range(3):
                v = inputs[k].copy()
                kernels._run_stages(v, stage, w)
            results[k] = v

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
            assert got is not None and np.array_equal(got, want), backend.__name__


def _child_kernels(prelude="", **env_extra):
    """BACKEND and LOAD_ERROR of cubefourier.kernels in a fresh interpreter."""
    import json
    import subprocess
    import sys

    code = (
        prelude
        + "import json, cubefourier.kernels as k; print(json.dumps([k.BACKEND, k.LOAD_ERROR]))"
    )
    env = {"PATH": "/usr/bin:/bin"}
    if "PYTHONPATH" in os.environ:
        env["PYTHONPATH"] = os.environ["PYTHONPATH"]
    env.update(env_extra)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_load_error_names_the_forcing_variable():
    backend, error = _child_kernels(CUBEFOURIER_PURE_PYTHON="1")
    assert backend == "python"
    assert "CUBEFOURIER_PURE_PYTHON" in error


def _package_copy(tmp_path):
    """A copy of the package without its __pycache__, so nothing is cached."""
    import shutil

    src = Path(kernels.__file__).parent
    dst = tmp_path / "pkg"
    shutil.copytree(src, dst / "cubefourier", ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def _set_cc(cc):
    return f"import sysconfig; sysconfig.get_config_vars()['CC'] = {cc!r}; "


def test_load_error_keeps_the_build_failure(tmp_path):
    pkg = _package_copy(tmp_path)
    missing = str(tmp_path / "no-such-cc")
    backend, error = _child_kernels(_set_cc(missing), PYTHONPATH=str(pkg))
    assert backend == "python"
    assert "cannot run the C compiler" in error and missing in error

    failing = tmp_path / "failing-cc"
    failing.write_text("#!/bin/sh\necho 'cc: no licence for _stages.c' >&2\nexit 3\n")
    failing.chmod(0o755)
    backend, error = _child_kernels(_set_cc(str(failing)), PYTHONPATH=str(pkg))
    assert backend == "python"
    assert "exit code 3" in error and "no licence for _stages.c" in error
    cached = os.listdir(pkg / "cubefourier" / "__pycache__")
    assert not [name for name in cached if name.startswith("_stages-")], cached

    # a cache that cannot be written (a plain file where the directory goes)
    unwritable = _package_copy(tmp_path / "unwritable")
    (unwritable / "cubefourier" / "__pycache__").write_text("")
    backend, error = _child_kernels(PYTHONPATH=str(unwritable))
    assert backend == "python"
    assert "__pycache__" in error


@needs_compiled
def test_load_error_is_none_when_the_extension_loads(tmp_path):
    pkg = _package_copy(tmp_path)
    assert _child_kernels(PYTHONPATH=str(pkg)) == ["compiled", None]
    cached = os.listdir(pkg / "cubefourier" / "__pycache__")
    libs = [name for name in cached if name.startswith("_stages-")]
    assert len(libs) == 1 and libs[0].endswith(".so"), cached
    # a second import loads the cached library without rebuilding it
    lib = pkg / "cubefourier" / "__pycache__" / libs[0]
    stamp = lib.stat().st_mtime_ns
    assert _child_kernels(PYTHONPATH=str(pkg)) == ["compiled", None]
    assert lib.stat().st_mtime_ns == stamp


def test_cache_key_follows_source_compiler_and_flags(monkeypatch):
    source = Path(_stages.PACKAGE_DIR, "_stages.c").read_bytes()
    key = _stages.cache_key(source, ["gcc"])
    assert key == _stages.cache_key(source, ["gcc"])
    assert key != _stages.cache_key(source.replace(b"w00 * lo", b"lo * w00"), ["gcc"])
    assert key != _stages.cache_key(source + b"\n", ["gcc"])
    assert key != _stages.cache_key(source, ["clang"])
    monkeypatch.setattr(_stages, "FLAGS", _stages.FLAGS + ("-march=native",))
    assert key != _stages.cache_key(source, ["gcc"])


def _batch_rows(n):
    # with 4097 rows the stage distances 4097 * 2^i exceed the numpy stage's
    # 2^15-pair piece from stage 3 on without being a multiple of it; above
    # n = 10, one row past a whole run makes phase one cover fewer stages
    # than n, at a size that fits memory
    rows = {1, 3}
    rows.add(4097 if n <= 10 else (1 << max(0, kernels._BLOCK_LOG2 - n)) + 1)
    return sorted(rows)


@pytest.mark.parametrize("backend", STAGE_BACKENDS, ids=lambda m: m.__name__.rsplit(".", 1)[1])
@pytest.mark.parametrize("case", ["forward_p03", "inverse_p03", "wht"])
@pytest.mark.parametrize("n", range(1, 18))
def test_batch_of_rows_matches_each_row_alone(backend, case, n):
    """One call on a mask-major (2^n, rows) batch equals transforming every table by itself."""
    name, w = _schedule_cases()[case]
    stage = getattr(backend, name)
    rng = np.random.Generator(np.random.PCG64(n))
    if case == "wht":
        distinct = rng.integers(-50, 50, size=(7, 1 << n)).astype(np.float64)
    else:
        distinct = rng.standard_normal((7, 1 << n))
    alone = distinct.copy()
    for row in alone:
        kernels._run_stages(row, stage, w)
    for rows in _batch_rows(n):
        # 7 distinct tables repeat; two tables a power of two apart always differ
        batch = np.resize(distinct, (rows, 1 << n)).T
        expected = np.resize(alone, (rows, 1 << n)).T
        v = np.ascontiguousarray(batch)
        kernels._run_stages(v, stage, w)
        assert np.array_equal(v, expected), (case, n, rows)


def test_public_transforms_take_batches_and_reject_strided_ones():
    rng = np.random.Generator(np.random.PCG64(7))
    batch = rng.standard_normal((1 << 5, 6))
    got = batch.copy()
    kernels.biased_forward_inplace(got, 0.3)
    for k in range(batch.shape[1]):
        want = batch[:, k].copy()
        kernels.biased_forward_inplace(want, 0.3)
        assert np.array_equal(got[:, k], want)
    with pytest.raises(InputError):
        kernels.biased_forward_inplace(np.zeros((64, 8))[:, ::2], 0.3)


def test_small_rows_share_phase_one_runs():
    """Phase one takes runs of every table at once, not one call per table and stage."""
    calls = []

    def counting(v, *args):
        calls.append(args[-3:])
        _kernels_py.stage_f64(v, *args)

    n, rows = 5, 4096  # 2^17 entries: stages 0-3 in two runs of 2^16, stage 4 after
    kernels._run_stages(np.zeros((1 << n, rows)), counting, (1.0, 1.0, 1.0, -1.0))
    runs = [(rows << i, start // (rows << i + 1), (start + (1 << 16)) // (rows << i + 1))
            for start in (0, 1 << 16) for i in range(4)]
    assert calls == [*runs, (rows << 4, 0, 1)]


@pytest.mark.parametrize("backend", STAGE_BACKENDS, ids=lambda m: m.__name__.rsplit(".", 1)[1])
@pytest.mark.parametrize("case", ["forward_p03", "wht"])
def test_driver_refuses_arrays_the_stages_cannot_write_in_place(backend, case):
    """Checked before any stage runs: the C stages write through a raw pointer."""
    name, w = _schedule_cases()[case]
    stage = getattr(backend, name)
    good = _case_input(case, 8)
    read_only = good.copy()
    read_only.flags.writeable = False
    refused = {
        "read-only": read_only,
        "bytes": np.frombuffer(good.tobytes(), dtype=good.dtype),
        "float32": good.astype(np.float32),
        "int32": good.astype(np.int32),
        "other kind": good.astype(np.int64),
        "big-endian": good.astype(good.dtype.newbyteorder(">")),
        "strided": np.repeat(good, 2)[::2],
        "strided rows": np.repeat(good.reshape(4, -1), 2, axis=1)[:, ::2],
        "list": good.tolist(),
        "0-d": good[:1].reshape(()).copy(),
        "3 masks": good[:12].reshape(3, 4).copy(),
    }
    for label, v in refused.items():
        before = np.array(v, copy=True)
        with pytest.raises(InputError):
            kernels._run_stages(v, stage, w)
        assert np.array_equal(np.asarray(v), before), label
