import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cachediff import kernels, native
from cachediff.errors import ConfigError
from cachediff.rng import Rng

import oracles


def naive_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for p in range(a.shape[1]):
                out[i, j] += a[i, p] * b[p, j]
    return out


def naive_conv2d(x, w, bias, stride=1):
    c_in, h, wid = x.shape
    pad = np.zeros((c_in, h + 2, wid + 2), dtype=np.float32)
    pad[:, 1 : h + 1, 1 : wid + 1] = x
    ys = range(0, h, stride)
    xs = range(0, wid, stride)
    out = np.zeros((w.shape[0], len(ys), len(xs)), dtype=np.float32)
    for co in range(w.shape[0]):
        for oy, y in enumerate(ys):
            for ox, xc in enumerate(xs):
                acc = np.float32(0.0)
                for ci in range(c_in):
                    for ky in range(3):
                        for kx in range(3):
                            acc += pad[ci, y + ky, xc + kx] * w[co, ci, ky, kx]
                out[co, oy, ox] = acc + bias[co]
    return out


def step(bound, shapes, *inputs, **kwargs):
    """The outputs of one bound kernel step on the active backend, as a plan runs it:
    fresh float32 arrays of ``shapes``, passed after ``inputs``."""
    outs = [np.empty(shape, np.float32) for shape in shapes]
    kernels._run(kernels.active_library(), bound, *inputs, *outs, **kwargs)
    return outs


def lane_attention(q, k, v, keep_probs=False):
    """The attention step on (n, lq, d) queries and (n, lk, d | dv) keys and values, fed
    with the tokens on the lanes as the sites feed it, on the active backend:
    (out, probs) in the token layout, probs None unless kept."""
    (n, lq, d), (lk, dv) = q.shape, v.shape[1:]
    qt, kt, vt = (np.ascontiguousarray(a.transpose(0, 2, 1)) for a in (q, k, v))
    probs = np.empty((n, 1, lq, lk), np.float32) if keep_probs else None
    out, = step(kernels.bound_attention, [(n, 1, dv, lq)], qt[:, None], kt, vt,
                np.float32(1.0 / math.sqrt(d)), ws=kernels._attention_ws(lk, d, dv), probs=probs)
    return out[:, 0].transpose(0, 2, 1), None if probs is None else probs[:, 0]


def attention_oracle(q, k, v):
    q, k, v = (t.astype(np.float64) for t in (q, k, v))
    s = q @ k.T / math.sqrt(q.shape[1])
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ v


def test_matmul_identity():
    eye = np.eye(2, dtype=np.float32)
    b = np.array([[3.0], [4.0]], dtype=np.float32)
    assert np.array_equal(kernels.matmul(eye, b), b)


def test_matmul_hand_value():
    a = np.array([[1.0, 2.0]], dtype=np.float32)
    b = np.array([[3.0], [4.0]], dtype=np.float32)
    assert kernels.matmul(a, b) == np.float32(11.0)


def test_matmul_matches_naive_loop_bitwise():
    rng = Rng(1)
    a = rng.normal((8, 8))
    b = rng.normal((8, 8))
    assert np.array_equal(kernels.matmul(a, b), naive_matmul(a, b))


def test_matmul_rectangular_matches_naive_loop():
    rng = Rng(2)
    a = rng.normal((5, 11))
    b = rng.normal((11, 3))
    assert np.array_equal(kernels.matmul(a, b), naive_matmul(a, b))


def test_matmul_rejects_bad_inputs():
    a = np.zeros((2, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        kernels.matmul(a, np.zeros((4, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        kernels.matmul(a.astype(np.float64), np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        kernels.matmul(np.zeros(3, dtype=np.float32), np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        kernels.matmul([[1.0]], np.zeros((1, 1), dtype=np.float32))


def test_matmul_batch_matches_per_slice():
    rng = Rng(3)
    a = rng.normal((4, 5, 6))
    b = rng.normal((4, 6, 3))
    got = kernels.matmul_batch(a, b)
    for i in range(4):
        assert np.array_equal(got[i], kernels.matmul(a[i], b[i]))


def test_matmul_batch_rejects_mismatch():
    with pytest.raises(ValueError):
        kernels.matmul_batch(np.zeros((2, 3, 4), dtype=np.float32),
                             np.zeros((3, 4, 5), dtype=np.float32))
    with pytest.raises(ValueError):
        kernels.matmul_batch(np.zeros((2, 3, 4), dtype=np.float32),
                             np.zeros((2, 5, 6), dtype=np.float32))


@pytest.mark.skipif(shutil.which(native.COMPILER) is None,
                    reason=f"no C compiler ({native.COMPILER}) on PATH")
def test_backends_agree_bitwise():
    assert kernels.compiled_error() is None
    rng = Rng(4)
    a = rng.normal((7, 9))
    a[2] = -0.0
    b = rng.normal((9, 5))
    ab = rng.normal((3, 4, 6))
    bb = rng.normal((3, 6, 2))
    x = rng.normal((3, 6, 6))
    w = rng.normal((4, 3, 3, 3))
    bias = rng.normal((4,))
    qkv = (rng.normal((2, 5, 8)), rng.normal((2, 21, 8)), rng.normal((2, 21, 8)))
    tokens = rng.normal((3, 20, 137))
    tokens[1, 4] = -0.0
    conv = kernels.PackedConv(w, bias)

    def preact(x):
        normed, gate = step(kernels.bound_rms_norm, [(1,) + x.shape] * 2, x[None], 1)
        return kernels.conv2d_frames(normed, conv, 1, gate)

    def token_norm(x):
        return step(kernels.bound_rms_norm, [x.shape], x, -1)[0]

    before = kernels.active_backend()
    try:
        kernels.set_backend("numpy")
        mm_np = kernels.matmul(a, b)
        mb_np = kernels.matmul_batch(ab, bb)
        cv_np = oracles.conv2d(x, w, bias)
        cv2_np = oracles.conv2d(x, w, bias, stride=2)
        at_np, pr_np = lane_attention(*qkv, keep_probs=True)
        rn_np = token_norm(tokens)
        pc_np = preact(x)
        kernels.set_backend("compiled")
        assert kernels.active_backend() == "compiled"
        assert kernels.matmul(a, b).tobytes() == mm_np.tobytes()
        assert kernels.matmul_batch(ab, bb).tobytes() == mb_np.tobytes()
        assert oracles.conv2d(x, w, bias).tobytes() == cv_np.tobytes()
        assert oracles.conv2d(x, w, bias, stride=2).tobytes() == cv2_np.tobytes()
        at_c, pr_c = lane_attention(*qkv, keep_probs=True)
        assert at_c.tobytes() == at_np.tobytes() and pr_c.tobytes() == pr_np.tobytes()
        assert token_norm(tokens).tobytes() == rn_np.tobytes()
        assert preact(x).tobytes() == pc_np.tobytes()
    finally:
        kernels.set_backend(before)


def test_set_backend_rejects_unknown_name():
    with pytest.raises(ConfigError):
        kernels.set_backend("cuda")


def test_backend_env_var_forces_reference_and_rejects_unknown_names():
    def import_with(backend):
        env = dict(os.environ, CACHEDIFF_BACKEND=backend)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(kernels.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        code = "from cachediff import kernels; print(kernels.active_backend())"
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)

    ref = import_with("numpy")
    assert ref.returncode == 0 and ref.stdout.strip() == "numpy"
    bad = import_with("numba")
    assert bad.returncode != 0
    assert "ConfigError: CACHEDIFF_BACKEND must be one of" in bad.stderr


def test_kernel_bench_runs_from_a_clean_checkout(tmp_path):
    """The timing harness finds the package without PYTHONPATH; it exits 1 when the
    backends' bytes differ.  Its cases are the steps and passes plans run, among them
    both passes of a restricted block and the attention step at the shapes of the
    default model's sites, and each gives the same bytes on both backends."""
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "kernel_bench.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(script), "--repeat", "1"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    rows = [row.split() for row in done.stdout.splitlines()]
    equal = {row[0]: row[4] for row in rows if len(row) == 7}  # kernel -> bit_equal
    want = "-" if kernels.compiled_error() else "yes"
    cases = ("attention_audio", "attention_reference", "attention_restricted",
             "attention_temporal", "conv2d", "dfa_subnet", "forward", "key_step", "preact_conv",
             "rms_norm", "subnet")
    assert {c: equal[c] for c in equal if c != "kernel"} == dict.fromkeys(cases, want)


def test_kernel_bench_pairs_clips_against_a_library_with_the_same_op_records(tmp_path):
    """--against runs paired clips of both gated workloads through this checkout's
    library and another that runs the same op records (here a copy of it)."""
    if kernels.compiled_error():
        pytest.skip(f"compiled backend unavailable: {kernels.compiled_error()}")
    copy = tmp_path / "kernels-copy.so"
    shutil.copy(kernels._compiled()._name, copy)
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "kernel_bench.py"
    done = subprocess.run([sys.executable, str(script), "--against", str(copy), "--repeat", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["baseline", "full_stack"]
    assert all("median paired ratio" in line and "of 1" in line for line in lines)


def test_conv2d_identity_kernel():
    rng = Rng(5)
    x = rng.normal((2, 5, 5))
    w = np.zeros((2, 2, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 1.0
    w[1, 1, 1, 1] = 1.0
    bias = np.zeros(2, dtype=np.float32)
    assert np.array_equal(oracles.conv2d(x, w, bias), x)


def test_conv2d_padded_window_counts():
    x = np.ones((1, 3, 3), dtype=np.float32)
    w = np.ones((1, 1, 3, 3), dtype=np.float32)
    bias = np.zeros(1, dtype=np.float32)
    out = oracles.conv2d(x, w, bias)
    assert out[0, 1, 1] == 9.0
    assert out[0, 0, 0] == 4.0
    assert out[0, 0, 1] == 6.0


def test_conv2d_matches_naive_loop_bitwise():
    rng = Rng(6)
    x = rng.normal((3, 6, 5))
    w = rng.normal((4, 3, 3, 3))
    bias = rng.normal((4,))
    assert np.array_equal(oracles.conv2d(x, w, bias), naive_conv2d(x, w, bias))


def test_conv2d_stride_two_matches_naive_loop():
    rng = Rng(7)
    x = rng.normal((2, 6, 6))
    w = rng.normal((3, 2, 3, 3))
    bias = rng.normal((3,))
    got = oracles.conv2d(x, w, bias, stride=2)
    assert got.shape == (3, 3, 3)
    assert np.array_equal(got, naive_conv2d(x, w, bias, stride=2))


def test_conv2d_rejects_bad_inputs():
    x = np.zeros((2, 4, 4), dtype=np.float32)
    w = np.zeros((3, 2, 3, 3), dtype=np.float32)
    bias = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValueError):
        oracles.conv2d(x, np.zeros((3, 2, 5, 5), dtype=np.float32), bias)
    with pytest.raises(ValueError):
        oracles.conv2d(x, np.zeros((3, 9, 3, 3), dtype=np.float32), bias)
    with pytest.raises(ValueError):
        oracles.conv2d(x, w, np.zeros(5, dtype=np.float32))
    with pytest.raises(ValueError):
        oracles.conv2d(x, w, bias, stride=3)


def test_conv2d_frames_matches_per_frame():
    rng = Rng(8)
    x = rng.normal((3, 2, 4, 4))
    w = rng.normal((5, 2, 3, 3))
    bias = rng.normal((5,))
    got = kernels.conv2d_frames(x, kernels.PackedConv(w, bias))
    for f in range(3):
        assert np.array_equal(got[f], oracles.conv2d(x[f], w, bias))


def test_silu_values_and_clamp():
    """Beyond +-30 the sigmoid is the one at the clamp: exactly 1, and positive below."""
    one = np.float32(1.0)
    at_clamp = one / (one + np.exp(np.array([-30.0, 30.0], np.float32)))
    for big in (30.0, 1000.0):
        x = np.array([big, -big], np.float32)
        assert kernels.silu(x).tobytes() == (x * at_clamp).tobytes()
    assert at_clamp[0] == 1.0 and at_clamp[1] > 0.0
    assert kernels.silu(np.array([0.0], np.float32)) == 0.0


def test_silu_matches_definition():
    """x * 1 / (1 + exp(-x)) where the clamp does not act; infinities keep their sign,
    NaN stays NaN, and signed zeros and subnormals are halved."""
    one = np.float32(1.0)
    x = Rng(9).normal((16,)) * np.float32(7.0)
    assert kernels.silu(x).tobytes() == (x * (one / (one + np.exp(-x)))).tobytes()
    edge = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 3e-39, -1e-45], np.float32)
    got = kernels.silu(edge)
    assert got[0] == np.inf and got[1] == -np.inf and np.isnan(got[2])
    assert got[3:].tobytes() == (edge[3:] * np.float32(0.5)).tobytes()


def naive_rms_norm(x, axis):
    """The norm as the model wrote it before it became a kernel."""
    ms = np.mean(np.square(x), axis=axis, keepdims=True, dtype=np.float32)
    return x / np.sqrt(ms + np.float32(1e-5))


@pytest.mark.parametrize("shape,axis", [((4, 16, 8, 8), 1), ((2, 3, 130), -1), ((5, 1, 3), 1)])
def test_rms_norm_matches_numpy_formula(shape, axis):
    x = Rng(16).normal(shape)
    out, = step(kernels.bound_rms_norm, [shape], x, axis)
    assert out.tobytes() == naive_rms_norm(x, axis).tobytes()
    x64 = x.astype(np.float64)
    oracle = x64 / np.sqrt(np.mean(x64 * x64, axis=axis, keepdims=True) + 1e-5)
    assert np.allclose(out, oracle, rtol=1e-5, atol=1e-6)


def test_rms_norm_gate_is_silus_and_gated_conv_convolves_silu():
    rng = Rng(18)
    x = rng.normal((2, 3, 5, 5)) * np.float32(20.0)
    w, bias = rng.normal((4, 3, 3, 3)), rng.normal((4,))
    normed, gate = step(kernels.bound_rms_norm, [x.shape] * 2, x, 1)
    assert normed.tobytes() == step(kernels.bound_rms_norm, [x.shape], x, 1)[0].tobytes()
    assert (normed * (np.float32(1.0) / (np.float32(1.0) + gate))).tobytes() == (
        kernels.silu(normed).tobytes()
    )
    conv = kernels.PackedConv(w, bias)
    want = kernels.conv2d_frames(kernels.silu(normed), conv)
    assert kernels.conv2d_frames(normed, conv, 1, gate).tobytes() == want.tobytes()


def test_packed_conv_and_conv2d_frames_reject_bad_inputs():
    x = np.zeros((2, 3, 4, 4), dtype=np.float32)
    with pytest.raises(ValueError):
        kernels.PackedConv(np.zeros((5, 3, 3, 3), np.float32), np.zeros(4, np.float32))
    conv = kernels.PackedConv(np.zeros((5, 3, 3, 3), np.float32), np.zeros(5, np.float32))
    assert conv.w.shape == (27, 16) and (conv.co, conv.ci) == (5, 3)
    with pytest.raises(ValueError):
        kernels.conv2d_frames(x[:, :2], conv)
    with pytest.raises(ValueError):
        kernels.conv2d_frames(x, conv, 1, np.zeros((2, 3, 4, 5), np.float32))
    with pytest.raises(ValueError):
        kernels.conv2d_frames(x, np.zeros((5, 3, 3, 3), np.float32), np.zeros(5, np.float32))


def test_upsample_nearest_replicates_blocks():
    x = np.array([[[7.0]]], dtype=np.float32)
    assert np.array_equal(oracles.upsample_nearest(x), np.full((1, 2, 2), 7.0, np.float32))
    y = Rng(10).normal((2, 3, 3))
    up = oracles.upsample_nearest(y)
    assert up.shape == (2, 6, 6)
    for yy in range(6):
        for xx in range(6):
            assert np.array_equal(up[:, yy, xx], y[:, yy // 2, xx // 2])
    assert np.array_equal(up[:, ::2, ::2], y)
    stack = Rng(11).normal((3, 2, 3, 3))
    want = np.stack([oracles.upsample_nearest(s) for s in stack])
    assert oracles.upsample_nearest(stack).tobytes() == want.tobytes()
    assert np.array_equal(oracles.upsample_nearest(y[0]), up[0])
    with pytest.raises(ValueError):
        oracles.upsample_nearest(np.zeros(3, np.float32))
    with pytest.raises(ValueError):
        oracles.upsample_nearest(y.astype(np.float64))


def test_softmax_rows_closed_forms():
    out = kernels.softmax_rows(np.array([[0.0, 0.0]], dtype=np.float32))
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-7)
    out = kernels.softmax_rows(np.array([[1000.0, 1000.0]], dtype=np.float32))
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-7)
    out = kernels.softmax_rows(np.array([[0.0, math.log(3.0)]], dtype=np.float32))
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-6)


def test_softmax_rows_properties():
    x = Rng(11).normal((5, 7))
    out = kernels.softmax_rows(x)
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
    shifted = kernels.softmax_rows(x + np.float32(3.5))
    assert np.allclose(out, shifted, atol=1e-6)


def test_softmax_rows_rejects_empty_rows():
    with pytest.raises(ValueError):
        kernels.softmax_rows(np.zeros((2, 0), dtype=np.float32))


def test_attention_single_key_returns_value_row():
    rng = Rng(12)
    q = rng.normal((5, 4))
    k = rng.normal((1, 4))
    v = rng.normal((1, 4))
    out = oracles.scaled_dot_attention(q, k, v)
    for i in range(5):
        assert np.array_equal(out[i], v[0])


def test_attention_identity_closed_form():
    eye = np.eye(2, dtype=np.float32)
    out = oracles.scaled_dot_attention(eye, eye, eye)
    w_hi = math.exp(1.0 / math.sqrt(2.0))
    hi = w_hi / (w_hi + 1.0)
    assert np.allclose(out, [[hi, 1.0 - hi], [1.0 - hi, hi]], atol=1e-6)


def test_attention_matches_float64_oracle():
    rng = Rng(13)
    q = rng.normal((6, 4))
    k = rng.normal((9, 4))
    v = rng.normal((9, 4))
    got = oracles.scaled_dot_attention(q, k, v)
    want = attention_oracle(q, k, v)
    assert np.allclose(got, want, atol=1e-6)


def test_attention_probs_rows_sum_to_one():
    rng = Rng(14)
    probs = oracles.attention_probs(rng.normal((4, 3)), rng.normal((6, 3)))
    assert probs.shape == (4, 6)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_attention_rejects_mismatched_shapes():
    q = np.zeros((2, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        oracles.attention_probs(q, np.zeros((4, 5), dtype=np.float32))
    with pytest.raises(ValueError):
        oracles.scaled_dot_attention(q, np.zeros((4, 3), dtype=np.float32),
                                     np.zeros((5, 3), dtype=np.float32))


def test_attention_batch_matches_per_slice():
    rng = Rng(15)
    q = rng.normal((4, 5, 3))
    k = rng.normal((4, 6, 3))
    v = rng.normal((4, 6, 3))
    got, probs = lane_attention(q, k, v, keep_probs=True)
    assert lane_attention(q, k, v)[0].tobytes() == got.tobytes()
    for i in range(4):
        assert got[i].tobytes() == oracles.scaled_dot_attention(q[i], k[i], v[i]).tobytes()
        assert probs[i].tobytes() == oracles.attention_probs(q[i], k[i]).tobytes()

