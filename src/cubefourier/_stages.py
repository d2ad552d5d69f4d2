"""Compiled stage kernel: ``_stages.c``, built once and called through ctypes.

The shared library is cached like a ``.pyc``, as
``__pycache__/_stages-<key>.so`` beside the source.  The key hashes the
source, the compiler command, the flags and the platform with the ``.pyc``
source hash (keyed by the Python version), so an edited source, another
compiler or another Python gets a fresh build.  When no cached library
matches, :func:`build` compiles one with the C compiler Python was built
with (``sysconfig``'s ``CC``).  The compiler writes a temporary file that is
then renamed into place, so processes that build at once never load a
partial library.  ``setup.py`` runs the same :func:`build` on the install
tree, so read-only installs find the library ready.  This module uses only
the standard library, so ``setup.py`` can load it on its own.

``stage_f64`` takes the same arguments as the numpy fallback in
``_kernels_py`` and trusts them: the caller (``kernels._run_stages``) checks
dtype, layout and writability first.
"""

import ctypes
import os
import shlex
import sysconfig
from importlib.util import source_hash

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))

# No -march/-ffast-math: results must be reproducible IEEE doubles.  And
# -ffp-contract=off: otherwise the compiler may fuse w00*lo + w01*hi into one
# FMA on targets where FMA is baseline (aarch64), and the doubles would no
# longer match the numpy fallback bit for bit.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


class BuildError(OSError):
    """No C compiler is configured, or it failed on ``_stages.c``."""


def cache_key(source: bytes, command) -> str:
    # hashlib would load OpenSSL: 3.5 MB more in every process
    parts = (*command, *FLAGS, sysconfig.get_platform())
    return source_hash(b"\0".join([source, *(part.encode() for part in parts)])).hex()


def build(package_dir: str = PACKAGE_DIR) -> str:
    """Path of the library for ``package_dir/_stages.c``, compiled if missing."""
    source_path = os.path.join(package_dir, "_stages.c")
    with open(source_path, "rb") as fh:
        source = fh.read()
    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise BuildError("no C compiler configured (sysconfig CC is empty)")
    command = shlex.split(cc)
    cache = os.path.join(package_dir, "__pycache__")
    path = os.path.join(cache, f"_stages-{cache_key(source, command)}.so")
    if os.path.exists(path):
        return path
    import subprocess  # here: importing it costs every command about 8 ms

    os.makedirs(cache, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    argv = [*command, *FLAGS, "-o", tmp, source_path]
    try:
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, errors="replace")
        except OSError as exc:
            raise BuildError(f"cannot run the C compiler {command[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            raise BuildError(
                f"{shlex.join(argv)} failed with exit code {proc.returncode}: "
                + proc.stderr.strip()[-400:]
            )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


_lib = None


def load() -> None:
    """Build the library if needed and bind its stage; raises OSError on failure."""
    global _lib
    if _lib is not None:
        return
    lib = ctypes.CDLL(build())
    size = ctypes.c_ssize_t
    lib.stage_f64.argtypes = [ctypes.c_void_p, *[ctypes.c_double] * 4, size, size, size]
    lib.stage_f64.restype = None
    _lib = lib


def stage_f64(v, w00, w01, w10, w11, h, block_lo, block_hi):
    _lib.stage_f64(v.ctypes.data, w00, w01, w10, w11, h, block_lo, block_hi)
