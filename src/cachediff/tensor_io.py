"""Tensor file format and checksums.

A ``.tns`` file is a single text header line ``shape: d0,d1,...`` followed
by the row-major float32 payload in little-endian byte order.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvariantError

_MAGIC = b"shape: "


def tensor_bytes(arr: np.ndarray) -> bytes:
    """Serialized header + payload for a float32 array."""
    if arr.dtype != np.float32:
        raise ValueError(f"tensors are float32, got {arr.dtype}")
    if arr.ndim == 0:
        raise ValueError("0-d tensors are not supported")
    header = "shape: " + ",".join(str(d) for d in arr.shape) + "\n"
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    return header.encode("ascii") + payload


def checksum(arr: np.ndarray) -> str:
    """Stable content hash of a tensor, ``sha256:<hex>``."""
    return "sha256:" + hashlib.sha256(tensor_bytes(arr)).hexdigest()


def write_tns(path: str | Path, arr: np.ndarray) -> None:
    """Write a float32 tensor to a ``.tns`` file."""
    Path(path).write_bytes(tensor_bytes(arr))


def read_tns(path: str | Path, check_finite: bool = True) -> np.ndarray:
    """Read a ``.tns`` file, validating header, size, and finiteness."""
    raw = Path(path).read_bytes()
    if not raw.startswith(_MAGIC):
        raise ConfigError(f"{path}: missing 'shape:' header")
    nl = raw.find(b"\n")
    if nl < 0:
        raise ConfigError(f"{path}: unterminated header line")
    try:
        shape = tuple(int(tok) for tok in raw[len(_MAGIC) : nl].decode("ascii").split(","))
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed shape header") from exc
    if any(d <= 0 for d in shape):
        raise ConfigError(f"{path}: non-positive dimension in shape {shape}")
    count = int(np.prod(shape))
    payload = raw[nl + 1 :]
    if len(payload) != 4 * count:
        raise ConfigError(
            f"{path}: payload holds {len(payload)} bytes, shape {shape} needs {4 * count}"
        )
    arr = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)
    if check_finite and not np.isfinite(arr).all():
        raise InvariantError(f"{path}: non-finite values in tensor")
    return arr
