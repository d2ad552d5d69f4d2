"""Build script: ships the C stage kernel compiled with the package.

At import the package compiles ``_stages.c`` into its ``__pycache__`` when no
matching library is cached there (see ``cubefourier/_stages.py``).  Building
it here too, with the same function, lets installs that are read-only at run
time find it.  A missing compiler only costs speed: the numpy fallback is
used.
"""

import importlib.util
import os

from setuptools import setup
from setuptools.command.build_py import build_py


class BuildPyWithStages(build_py):
    def run(self):
        super().run()
        # loaded by path: importing the package would need its dependencies
        spec = importlib.util.spec_from_file_location(
            "cubefourier_stages_build", os.path.join("src", "cubefourier", "_stages.py")
        )
        stages = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(stages)
        try:
            stages.build(os.path.join(self.build_lib, "cubefourier"))
        except OSError as exc:
            print(f"warning: C stage kernel not built ({exc}); using numpy fallback")


setup(cmdclass={"build_py": BuildPyWithStages})
