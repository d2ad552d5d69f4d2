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
        [sys.executable, "-c", "import cubefourier; print(cubefourier.config.get_max_n(),"
         " cubefourier.config.get_threads())"],
        env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize("name", ["CUBEFOURIER_THREADS", "CUBEFOURIER_MAX_N"])
@pytest.mark.parametrize("value", ["abc", "0", "-3", "", "2.5"])
def test_bad_environment_value_raises_input_error_naming_it(name, value):
    out = _import_with(name, value)
    assert out.returncode != 0
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith("cubefourier.errors.InputError")
    assert name in last


def test_good_environment_values_are_applied():
    out = _import_with("CUBEFOURIER_THREADS", "3")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [str(config.DEFAULT_MAX_N), "3"]
    out = _import_with("CUBEFOURIER_MAX_N", "12")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[0] == "12"


def test_setters_reject_nonpositive_values():
    with pytest.raises(InputError):
        config.set_threads(0)
    with pytest.raises(InputError):
        config.set_max_n(0)


@pytest.mark.parametrize("value", [2.9, "3", None, True])
def test_setters_reject_non_integers(value):
    saved = config.get_max_n(), config.get_threads()
    with pytest.raises(InputError):
        config.set_threads(value)
    with pytest.raises(InputError):
        config.set_max_n(value)
    assert (config.get_max_n(), config.get_threads()) == saved


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: cf.Bias.exact(1.5, 2), "exact bias numerator t"),
        (lambda: cf.Bias.exact(3, 2.9), "exact bias exponent m"),
        (lambda: cf.Bias.exact(True, 1), "exact bias numerator t"),
        (lambda: cf.virtual_power_stats(cf.majority(3), True), "tensor power N"),
        (lambda: cf.virtual_power_stats(cf.majority(3), 2.5), "tensor power N"),
        (lambda: cf.tensor_power(cf.majority(3), 1.5), "tensor power N"),
        (lambda: cf.profile_power(cf.level_profile(cf.transform(cf.majority(3))), 2.5),
         "profile power N"),
    ],
    ids=["exact-t=1.5", "exact-m=2.9", "exact-t=True", "virtual-N=True", "virtual-N=2.5",
         "tensor_power-N=1.5", "profile_power-N=2.5"],
)
def test_integer_arguments_are_refused_not_truncated(call, name):
    with pytest.raises(InputError, match=f"^{name} must be an integer, got "):
        call()


def test_numpy_integers_are_integer_arguments():
    assert cf.Bias.exact(np.int64(3), np.uint8(2)) == cf.Bias.exact(3, 2)
    stats = cf.virtual_power_stats(cf.majority(3), np.int64(2))
    assert type(stats.N) is int and stats.n == 6


def test_set_threads_reaches_the_kernels(monkeypatch):
    """The configured count is the width of the sweep's pool; every
    transform runs in the thread that calls it."""
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
    saved = config.get_threads()
    try:
        config.set_threads(3)
        for name, call in calls.items():
            stage_callers.clear()
            call()
            assert stage_callers == [threading.get_ident()], name
        assert widths == []
        stage_callers.clear()
        cf.exhaustive_sweep(4)
        # the pool is 3 wide; its workers run the chunks' butterflies
        assert widths == [3]
        assert stage_callers and threading.get_ident() not in stage_callers
        config.set_threads(1)
        cf.exhaustive_sweep(4)
        assert widths == [3]
    finally:
        config.set_threads(saved)
