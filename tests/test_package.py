"""The package surface: every exported name resolves, lazily."""

import ast
import copy
import importlib
import importlib.util
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from setuptools.config.pyprojecttoml import read_configuration

import cubefourier
from cubefourier.boolfn import Frozen

ROOT = Path(__file__).resolve().parents[1]


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


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_the_lazy_table_covers_exactly_the_public_names():
    """``__all__`` derives from ``_SOURCES``, so each entry must name its home."""
    misplaced = [
        f"{mod}.{name}"
        for mod, names in cubefourier._SOURCES.items()
        for name in names
        if getattr(cubefourier, name).__module__ != f"cubefourier.{mod}"
    ]
    assert misplaced == []
    assert set(cubefourier.__all__) <= set(dir(cubefourier))
    with pytest.raises(AttributeError):
        cubefourier.no_such_name
    config = read_configuration(Path(__file__).parents[1] / "pyproject.toml")
    assert config["project"]["version"] == cubefourier.__version__


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


def test_cli_start_freezes_the_imported_heap_and_keeps_the_collector_on():
    code = "import gc, cubefourier.cli; print(gc.isenabled(), gc.get_freeze_count() > 0)"
    assert _run(code) == ["True", "True"]


@pytest.mark.parametrize("collecting", [True, False])
def test_cli_leaves_the_collector_of_a_host_that_loaded_numpy_alone(collecting):
    code = (
        f"import gc, numpy\n{'' if collecting else 'gc.disable()'}\n"
        "import cubefourier.cli\n"
        "print(gc.isenabled(), gc.get_freeze_count())\n"
    )
    assert _run(code) == [str(collecting), "0"]


def test_a_failed_cli_import_leaves_the_collector_on():
    code = (
        "import gc, sys\n"
        "sys.modules['cubefourier.tensor'] = None  # importing it now raises ImportError\n"
        "try:\n"
        "    import cubefourier.cli\n"
        "except ImportError:\n"
        "    print('failed', 'numpy' in sys.modules)\n"
        "print(gc.isenabled(), gc.get_freeze_count())\n"
    )
    assert _run(code) == ["failed", "True", "True", "0"]


def test_no_package_class_is_a_dataclass():
    """A dataclass compiles its generated methods again at every import."""
    modules = [
        importlib.import_module(f"cubefourier.{info.name}")
        for info in pkgutil.iter_modules(cubefourier.__path__)
        if info.name != "__main__"
    ]
    classes = [
        obj for m in modules for obj in vars(m).values()
        if isinstance(obj, type) and obj.__module__ == m.__name__
    ]
    assert len(classes) >= 15
    assert [c.__qualname__ for c in classes if hasattr(c, "__dataclass_fields__")] == []


def _immutable_values():
    """One instance of each immutable type, with one of its fields."""
    from cubefourier.cli import COMMANDS

    f = cubefourier.majority(3)
    spec = cubefourier.transform(f, 0.3)
    return [
        (f, "n"),
        (cubefourier.RealTable(1, [0.5, 1.0]), "values"),
        (cubefourier.Bias.exact(1, 2), "p"),
        (cubefourier.GraphPropertySpec(4, 3), "r"),
        (spec, "coeffs"),
        (cubefourier.exact_transform(f), "n"),
        (cubefourier.level_profile(spec), "weights"),
        (spec.sums(), "total"),
        (spec.level_sums(), "levels"),
        (cubefourier.ReductionLayout(1, 1, 2), "m"),
        (cubefourier.analyze(f), "entropy"),
        (cubefourier.clique_experiment(3, 3), "ratio"),
        (cubefourier.virtual_power_stats(f, 2), "N"),
        (COMMANDS[0], "name"),
    ]


def test_the_immutable_types_refuse_assignment():
    for value, field in _immutable_values():
        for change in (
            lambda: setattr(value, field, getattr(value, field)),
            lambda: setattr(value, "extra", 1),
            lambda: delattr(value, field),
        ):
            with pytest.raises(AttributeError):
                change()


def test_the_immutable_types_survive_pickle_and_copy():
    for value, field in _immutable_values():
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value)
            assert np.array_equal(getattr(twin, field), getattr(value, field))
            if isinstance(value, Frozen) and isinstance(getattr(value, field), np.ndarray):
                assert not getattr(twin, field).flags.writeable
            if type(value).__eq__ is not object.__eq__:
                assert twin == value


def test_the_value_types_compare_and_hash_by_their_fields():
    cf = cubefourier
    for make, other in [
        (lambda: cf.Bias.exact(1, 2), cf.Bias.general(0.25)),
        (lambda: cf.GraphPropertySpec(4, 3), cf.GraphPropertySpec(4, 4)),
        (lambda: cf.ReductionLayout(2, 1, 2), cf.ReductionLayout(2, 3, 2)),
        (lambda: cf.majority(3), cf.parity(3, 7)),
    ]:
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and a != other
    f = cf.majority(3)
    assert cf.transform(f, 0.3) == cf.transform(f, 0.3) != cf.transform(f, 0.4)
    assert cf.exhaustive_sweep(2, 0.3) == cf.exhaustive_sweep(2, 0.3) != cf.exhaustive_sweep(2)
    for unhashable in (cf.transform(f), cf.RealTable(0, [1.0]), cf.exhaustive_sweep(1)):
        with pytest.raises(TypeError):
            hash(unhashable)


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


def _names_used(path: Path) -> set[str]:
    """Every identifier a module uses, reads as an attribute or imports,
    except a top-level function's or class's own name inside its body."""
    names = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        names.discard(own)
    return names


def test_every_public_name_is_reached_outside_its_definition():
    """A public name that no code outside its own definition, README line or
    traced benchmark function reaches is used only by the tests: it belongs
    in the tests, or nowhere."""
    src = Path(cubefourier.__file__).parent
    used = set().union(*(_names_used(path) for path in src.glob("*.py")))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    path = ROOT / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    traced = {name for names in traced_cli.TRACED.values() for name in names}
    unreached = [
        f"{home}.{name}"
        for home, names in cubefourier._SOURCES.items()
        for name in names
        if name not in used | readme | traced
    ]
    assert unreached == []
