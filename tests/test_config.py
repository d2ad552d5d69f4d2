"""Environment configuration: bad values fail at import with a named InputError."""

import os
import subprocess
import sys

import numpy as np
import pytest

import cubefourier as cf
from cubefourier import config, kernels
from cubefourier.errors import InputError


def _import_with(name, value):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CUBEFOURIER_")}
    env[name] = value
    return subprocess.run(
        [sys.executable, "-c", "import cubefourier; print(cubefourier.config.get_max_n())"],
        env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize("name", ["CUBEFOURIER_MAX_N"])
@pytest.mark.parametrize("value", ["abc", "0", "-3", "", "2.5"])
def test_bad_environment_value_raises_input_error_naming_it(name, value):
    out = _import_with(name, value)
    assert out.returncode != 0
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith("cubefourier.errors.InputError")
    assert name in last


def test_good_environment_values_are_applied():
    out = _import_with("CUBEFOURIER_MAX_N", "12")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[0] == "12"


def test_setters_reject_nonpositive_values():
    with pytest.raises(InputError):
        config.set_max_n(0)


@pytest.mark.parametrize("value", [2.9, "3", None, True])
def test_setters_reject_non_integers(value):
    saved = config.get_max_n()
    with pytest.raises(InputError):
        config.set_max_n(value)
    assert config.get_max_n() == saved


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: cf.reduce_table(cf.majority(3), 1.5, 2), "exact bias numerator t"),
        (lambda: cf.reduction_report(cf.majority(3), 3, 2.9), "exact bias exponent m"),
        (lambda: cf.reduce_table(cf.majority(3), True, 1), "exact bias numerator t"),
        (lambda: cf.virtual_power_stats(cf.majority(3), True), "tensor power N"),
        (lambda: cf.virtual_power_stats(cf.majority(3), 2.5), "tensor power N"),
        (lambda: cf.tensor_power(cf.majority(3), 1.5), "tensor power N"),
        (lambda: cf.profile_power(cf.level_profile(cf.transform(cf.majority(3))), 2.5),
         "profile power N"),
        (lambda: cf.majority(3.0), "variable count n"),
        (lambda: cf.and_fn(2.5), "variable count n"),
        (lambda: cf.tribes(2.0, 2), "variable count n"),
        (lambda: cf.dictator(3, 1.5), "coordinate i"),
        (lambda: cf.parity(3, 1.5), "subset mask s"),
        (lambda: cf.random_function(3, 1.5), "seed"),
        (lambda: cf.random_function(3, True), "seed"),
    ],
    ids=["exact-t=1.5", "exact-m=2.9", "exact-t=True", "virtual-N=True", "virtual-N=2.5",
         "tensor_power-N=1.5", "profile_power-N=2.5", "majority-n=3.0", "and_fn-n=2.5",
         "tribes-w=2.0", "dictator-i=1.5", "parity-s=1.5", "random-seed=1.5",
         "random-seed=True"],
)
def test_integer_arguments_are_refused_not_truncated(call, name):
    with pytest.raises(InputError, match=f"^{name} must be an integer, got "):
        call()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: cf.entropy_upper_bounds(3, 1.0, [0.5]),
         r"^infl_vec must hold n = 3 influences along its last axis, got shape \(1,\)$"),
        (lambda: cf.random_function(3, 1, "x"), r"^density must lie in \[0, 1\]$"),
        (lambda: cf.random_function(3, 1, None), r"^density must lie in \[0, 1\]$"),
        (lambda: cf.analyze(cf.majority(3), 0.5, epsilon="x"),
         "^epsilon must be finite and nonnegative, got 'x'$"),
        (lambda: cf.entropy_upper_bounds(3, "x", [0.5] * 3),
         "^influence must hold real numbers, got 'x'$"),
        (lambda: cf.entropy_upper_bounds(3, None, [0.5] * 3),
         "^influence must hold real numbers, got None$"),
        (lambda: cf.entropy_upper_bounds(3, 1.0, ["x"] * 3),
         r"^infl_vec must hold real numbers, got \['x', 'x', 'x'\]$"),
        (lambda: cf.binary_entropy("x"),
         "^binary entropy argument x must hold real numbers, got 'x'$"),
        (lambda: cf.ei_ratio(1.0, "x", 0.3), "^influence must hold real numbers, got 'x'$"),
        (lambda: cf.ei_ratio(None, 1.0, 0.3), "^entropy must hold real numbers, got None$"),
    ],
    ids=["short-infl_vec", "density-str", "density-None", "epsilon-str", "bounds-influence-str",
         "bounds-influence-None", "bounds-infl_vec-str", "binary_entropy-str", "ei_ratio-str",
         "ei_ratio-None"],
)
def test_arguments_of_the_wrong_kind_name_themselves(call, match):
    with pytest.raises(InputError, match=match):
        call()


def test_a_negative_seed_is_an_input_error():
    with pytest.raises(InputError, match="^seed must be nonnegative, got -1$"):
        cf.random_function(3, -1)


def test_numpy_integers_are_integer_arguments():
    report = cf.reduction_report(cf.majority(3), np.int64(3), np.uint8(2))
    assert report == cf.reduction_report(cf.majority(3), 3, 2)
    assert [type(report[k]) for k in ("t", "m")] == [int, int]
    # 2^m is a Python int: 1 << np.uint8(9) would wrap to 0 in uint8
    f = cf.dictator(1, 1)
    assert cf.reduce_table(f, np.int32(1), np.uint8(9)) == cf.reduce_table(f, 1, 9)
    stats = cf.virtual_power_stats(cf.majority(3), np.int64(2))
    assert type(stats.N) is int and stats.n == 6


def test_transforms_and_sweep_chunks_run_in_the_calling_thread_without_a_pool(monkeypatch):
    """Every transform, and every chunk of a sweep, runs its stages in the
    calling thread, and no thread pool is created."""
    import concurrent.futures
    import threading

    widths, stage_callers = [], []
    real_pool, real_stages = concurrent.futures.ThreadPoolExecutor, kernels._run_stages

    def pool_spy(max_workers):
        widths.append(max_workers)
        return real_pool(max_workers=max_workers)

    def stage_spy(*args):
        stage_callers.append(threading.get_ident())
        return real_stages(*args)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool_spy)
    monkeypatch.setattr(kernels, "_run_stages", stage_spy)
    f = cf.random_function(6, 1)
    calls = {
        "transform": lambda: cf.transform(f, 0.3),
        "exact_transform": lambda: cf.exact_transform(f),
        "analyze": lambda: cf.analyze(f),
        "clique_experiment": lambda: cf.clique_experiment(5, 3),
    }
    for name, call in calls.items():
        stage_callers.clear()
        call()
        assert stage_callers == [threading.get_ident()], name
    stage_callers.clear()
    cf.exhaustive_sweep(4)
    # one stage run per 4096-function chunk, each in this thread
    assert stage_callers == [threading.get_ident()] * 16
    assert widths == []
