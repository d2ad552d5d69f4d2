"""Environment configuration: bad values fail at import with a named InputError."""

import os
import subprocess
import sys

import pytest

from cubefourier import config
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
