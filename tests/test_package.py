"""The package surface: every exported name resolves, lazily."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cubefourier


def test_every_name_in_every_all_resolves():
    modules = [cubefourier] + [
        importlib.import_module(f"cubefourier.{info.name}")
        for info in pkgutil.iter_modules(cubefourier.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    exported = [m for m in modules if hasattr(m, "__all__")]
    assert len(exported) > 1
    missing = [
        f"{m.__name__}.{name}" for m in exported for name in m.__all__ if not hasattr(m, name)
    ]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cubefourier import *", namespace)
    assert set(cubefourier.__all__) <= namespace.keys()


def test_the_lazy_table_covers_exactly_the_public_names():
    assert set(cubefourier._HOME) | {"__version__"} == set(cubefourier.__all__)
    assert set(cubefourier.__all__) <= set(dir(cubefourier))
    with pytest.raises(AttributeError):
        cubefourier.no_such_name


def _run(code, **env_changes):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_changes)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.split()


def test_import_loads_neither_numpy_nor_fractions():
    code = (
        "import sys, cubefourier as cf\n"
        "print('numpy' in sys.modules, 'fractions' in sys.modules)\n"
        "print(cf.analyze.__module__, cf.kernels.__name__, 'numpy' in sys.modules)\n"
    )
    assert _run(code) == ["False", "False", "cubefourier.conjecture", "cubefourier.kernels", "True"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_loads_numpy_with_one_openblas_thread():
    code = (
        "import os, sys, cubefourier.cli\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n"
        "print('fractions' in sys.modules)\n"
    )
    assert _run(code) == ["1", "1", "False"]


def test_cli_keeps_the_users_openblas_thread_count():
    code = "import os, cubefourier.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run(code, OPENBLAS_NUM_THREADS="2") == ["2"]


def test_cli_leaves_a_host_that_loaded_numpy_alone():
    code = "import os, numpy, cubefourier.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _run(code) == ["None"]


BLAS_ATTRIBUTES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}


def test_the_package_makes_no_blas_call():
    """The CLI's one-thread OpenBLAS default is free only while nothing calls BLAS."""
    src = Path(cubefourier.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_ATTRIBUTES:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, (ast.alias, ast.ImportFrom)):
                name = node.name if isinstance(node, ast.alias) else node.module or ""
                if BLAS_ATTRIBUTES & set(name.split(".")):
                    found.append(f"{path.name}:{node.lineno} import {name}")
    assert found == []
