"""Test oracles: single-image and single-item forms of the kernels.

Only tests and ``benchmarks/kernel_bench.py`` call them, as references for
the stacked kernels of :mod:`cachediff.kernels`, which the model runs.
"""

import math

import numpy as np

from cachediff.kernels import PackedConv, _f32, conv2d_frames, matmul, softmax_rows


def conv2d(x: np.ndarray, w: np.ndarray, bias: np.ndarray, stride: int = 1) -> np.ndarray:
    """3x3 convolution of one (c,h,w) image, zero padding 1, stride 1 or 2, per-channel bias.

    The accumulation order per output element is ascending over
    (ci, ky, kx); the bias is added after the products.
    """
    x = _f32(x, "x", 3)
    return conv2d_frames(x[None], PackedConv(w, bias), stride)[0]


def upsample_nearest(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbour 2x upsampling of the last two axes of a (..., h, w) stack."""
    x = _f32(x, "x", np.ndim(x))
    if x.ndim < 2:
        raise ValueError(f"x needs at least 2 dims, got shape {x.shape}")
    return np.repeat(np.repeat(x, 2, axis=-2), 2, axis=-1)


def attention_probs(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Softmax(q @ k.T / sqrt(d)) attention weights."""
    q = _f32(q, "q", 2)
    k = _f32(k, "k", 2)
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"attention dim mismatch: q {q.shape} vs k {k.shape}")
    scale = np.float32(1.0 / math.sqrt(q.shape[1]))
    scores = matmul(q, np.ascontiguousarray(k.T))
    scores *= scale
    return softmax_rows(scores)


def scaled_dot_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Single-head attention: softmax(q k^T / sqrt(d)) @ v."""
    v = _f32(v, "v", 2)
    if v.shape[0] != k.shape[0]:
        raise ValueError(f"attention length mismatch: k {k.shape} vs v {v.shape}")
    return matmul(attention_probs(q, k), v)
