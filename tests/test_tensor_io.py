import numpy as np
import pytest

from cachediff import tensor_io
from cachediff.errors import ConfigError, InvariantError
from cachediff.rng import Rng


def test_roundtrip_preserves_bytes(tmp_path):
    arr = Rng(0).normal((3, 4, 2))
    path = tmp_path / "a.tns"
    tensor_io.write_tns(path, arr)
    back = tensor_io.read_tns(path)
    assert back.shape == arr.shape
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_header_layout():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    raw = tensor_io.tensor_bytes(arr)
    assert raw.startswith(b"shape: 2,3\n")
    assert raw[len(b"shape: 2,3\n"):] == arr.tobytes()


def test_tensor_bytes_rejects_bad_arrays():
    with pytest.raises(ValueError):
        tensor_io.tensor_bytes(np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(ValueError):
        tensor_io.tensor_bytes(np.float32(1.0)[()])


def test_checksum_is_stable_and_content_sensitive():
    arr = Rng(1).normal((4, 4))
    c = tensor_io.checksum(arr)
    assert c.startswith("sha256:")
    assert c == tensor_io.checksum(arr.copy())
    bumped = arr.copy()
    bumped[0, 0] += np.float32(1.0)
    assert tensor_io.checksum(bumped) != c
    assert tensor_io.checksum(arr.reshape(2, 8)) != c


def test_read_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.tns"
    path.write_bytes(b"nope")
    with pytest.raises(ConfigError):
        tensor_io.read_tns(path)
    path.write_bytes(b"shape: 2,2")
    with pytest.raises(ConfigError):
        tensor_io.read_tns(path)
    path.write_bytes(b"shape: 2,x\n" + b"\x00" * 16)
    with pytest.raises(ConfigError):
        tensor_io.read_tns(path)
    path.write_bytes(b"shape: 2,0\n")
    with pytest.raises(ConfigError):
        tensor_io.read_tns(path)
    path.write_bytes(b"shape: 2,2\n" + b"\x00" * 12)
    with pytest.raises(ConfigError):
        tensor_io.read_tns(path)


def test_read_refuses_a_shape_whose_size_overflows_int64(tmp_path):
    """2**32 x 2**32 elements wrap to 0 in int64; the size check must still refuse an
    empty payload, before anything is allocated."""
    path = tmp_path / "huge.tns"
    path.write_bytes(b"shape: 4294967296,4294967296\n")
    with pytest.raises(ConfigError, match="payload holds 0 bytes"):
        tensor_io.read_tns(path)


def test_read_checks_finiteness(tmp_path):
    arr = np.array([1.0, np.inf], dtype=np.float32)
    path = tmp_path / "inf.tns"
    path.write_bytes(b"shape: 2\n" + arr.tobytes())
    with pytest.raises(InvariantError):
        tensor_io.read_tns(path)
    back = tensor_io.read_tns(path, check_finite=False)
    assert np.isinf(back[1])
