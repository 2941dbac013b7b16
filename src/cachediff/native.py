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

SOURCE = Path(__file__).with_name("kernels.c")
COMPILER = "cc"
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
ENV_CACHE = "CACHEDIFF_CACHE_DIR"
BUILD_TIMEOUT_S = 120

_P = ctypes.c_void_p
_L = ctypes.c_long
_SIGNATURES = {
    "cd_matmul": (_P, _P, _L, _P, _L, _L, _L, _P),
    "cd_channel_mix": (_P, _P, _L, _P, _L, _L, _L, _L, _P),
    "cd_conv2d_frames": (_P, _P, _P, _L, _P, _P, _L, _L, _L, _L, _L, _L, _P, _L, _L, _P, _P),
    "cd_rms_norm": (_P, _P, _P, _L, _L, _L),
    "cd_attn_logits": (_P, _P, _P, _L, _L, _L, _L, ctypes.c_float, _P),
    "cd_attn_apply": (_P, _P, _P, _L, _L, _L, _L, _P),
}


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
        lib = ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError) as exc:
        return None, str(exc)
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    return lib, None
