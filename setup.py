"""Build script for the optional compiled butterfly kernels.

The package works without the extension (a numpy fallback is selected at
import time), so a missing compiler or Cython only costs speed.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the extension if possible; fall back to pure Python otherwise."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any build failure is non-fatal
            print(f"warning: compiled kernels skipped ({exc}); using numpy fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            print(f"warning: {ext.name} skipped ({exc}); using numpy fallback")


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        return []
    # No -march/-ffast-math: results must be reproducible IEEE doubles.  And
    # -ffp-contract=off: otherwise GCC may fuse w00*lo + w01*hi into one FMA
    # on targets where FMA is baseline (aarch64), and the doubles would no
    # longer match the numpy fallback bit for bit.
    ext = Extension(
        "cubefourier._core",
        sources=["src/cubefourier/_core.pyx"],
        extra_compile_args=["-O3", "-ffp-contract=off"],
    )
    return cythonize([ext], compiler_directives={"language_level": "3"})


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})
