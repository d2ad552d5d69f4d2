"""The package surface: every exported name resolves."""

import importlib
import pkgutil

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
