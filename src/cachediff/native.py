"""Build and load the compiled kernels in ``kernels.c``.

The C source is compiled at first use with the system C compiler ``cc``
and these flags::

    -O3 -march=native -ffp-contract=off -shared -fPIC

``-ffp-contract=off`` keeps every multiply and add separately rounded and
no fast-math flag is given, so the compiled kernels produce the bytes of
the numpy reference.  ``-march=native`` makes the library specific to the
CPU, so the shared object is cached per user under
``$CACHEDIFF_CACHE_DIR``, else ``$XDG_CACHE_HOME/cachediff``, else
``~/.cache/cachediff``, in a file named by a hash of the source, the
compiler's version, the flags and the CPU.  The compiler writes to a
temporary file that is then renamed into place, so processes that build
at the same time do not see a partial library.

The library's only entry points are ``cd_run``, which executes an array of
op records (built by :mod:`cachediff.kernels`), and ``cd_set_exp``, which
hands it numpy's own float32 ``exp`` loop: :func:`numpy_exp_loop` finds
that loop in ``np.exp``'s loop table when the library is loaded, so both
backends exponentiate with the same machine code.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("kernels.c")
COMPILER = "cc"
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
ENV_CACHE = "CACHEDIFF_CACHE_DIR"
BUILD_TIMEOUT_S = 120

_P = ctypes.c_void_p
_SIGNATURES = {
    "cd_run": (_P, ctypes.c_long),  # op records, their count
    "cd_set_exp": (_P, _P),  # a numpy ufunc inner loop and its data pointer
}

# Offsets in a PyUFuncObject (numpy/_core/include/numpy/ufuncobject.h): after
# the 16-byte object header, int nin, nout, nargs and identity, then the loop
# table ``functions``, its ``data``, int ``ntypes``, ``name`` and ``types``,
# the type numbers of every loop's arguments.
_UFUNC_NIN, _UFUNC_NOUT, _UFUNC_NARGS = 16, 20, 24
_UFUNC_FUNCTIONS, _UFUNC_DATA, _UFUNC_NTYPES, _UFUNC_TYPES = 32, 40, 48, 64


def cache_dir() -> Path:
    """Directory that holds the built libraries."""
    if os.environ.get(ENV_CACHE):
        return Path(os.environ[ENV_CACHE])
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "cachediff"


def _cpu_id() -> str:
    """CPU model and feature flags, which decide what ``-march=native`` emits."""
    try:
        with open("/proc/cpuinfo") as fh:
            lines = [ln for ln in fh if ln.startswith(("model name", "flags"))]
        return "".join(sorted(set(lines)))
    except OSError:
        return platform.machine() + platform.processor()


def _build(cc: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            lines = (proc.stderr.strip() or f"exit code {proc.returncode}").splitlines()
            raise OSError(f"{cc} failed: {lines[0]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def numpy_exp_loop() -> tuple[int, int | None]:
    """Address of np.exp's float32 inner loop (its first ``f->f`` entry) and of its data.

    The ufunc is read in place; every field is checked against what numpy
    reports through Python before the table is trusted.  Raises OSError when
    the layout is not the expected one.
    """
    ufunc, addr = np.exp, id(np.exp)
    if type(ufunc) is not np.ufunc:
        raise OSError("np.exp is not a numpy ufunc")

    def field(ctype, offset):
        return ctype.from_address(addr + offset).value

    ints = [field(ctypes.c_int, o) for o in (_UFUNC_NIN, _UFUNC_NOUT, _UFUNC_NARGS, _UFUNC_NTYPES)]
    if ints != [ufunc.nin, ufunc.nout, ufunc.nargs, ufunc.ntypes]:
        raise OSError(f"np.exp's ufunc fields read {ints}, numpy reports "
                      f"{[ufunc.nin, ufunc.nout, ufunc.nargs, ufunc.ntypes]}")
    want = bytes(np.dtype(c).num for sig in ufunc.types for c in sig.replace("->", ""))
    if ctypes.string_at(field(_P, _UFUNC_TYPES), len(want)) != want:
        raise OSError("np.exp's loop types do not match its ufunc.types")
    f32 = np.dtype(np.float32).num
    entry = next((i for i in range(ufunc.ntypes) if want[2 * i : 2 * i + 2] == bytes([f32, f32])),
                 None)
    fn = None if entry is None else (_P * ufunc.ntypes).from_address(
        field(_P, _UFUNC_FUNCTIONS))[entry]
    if not fn:
        raise OSError("np.exp has no float32 loop")
    table = field(_P, _UFUNC_DATA)
    return fn, (_P * ufunc.ntypes).from_address(table)[entry] if table else None


def load() -> tuple[ctypes.CDLL | None, str | None]:
    """The compiled library, building it if needed; or None and the reason."""
    cc = shutil.which(COMPILER)
    if cc is None:
        return None, f"no C compiler ({COMPILER}) on PATH"
    try:
        version = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=BUILD_TIMEOUT_S
        ).stdout
        key = hashlib.sha256(
            "\0".join([SOURCE.read_text(), cc, version, " ".join(FLAGS), _cpu_id()]).encode()
        ).hexdigest()[:20]
        target = cache_dir() / f"kernels-{key}.so"
        if not target.exists():
            _build(cc, target)
        return open_library(target), None
    except (OSError, subprocess.SubprocessError) as exc:
        return None, str(exc)


def open_library(path: Path) -> ctypes.CDLL:
    """Load a built library, declare its entry points and hand it numpy's exp loop."""
    lib = ctypes.CDLL(str(path))
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    lib.cd_set_exp(*numpy_exp_loop())
    return lib
