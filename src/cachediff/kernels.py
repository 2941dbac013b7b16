"""Float32 compute kernels with a compiled backend and a numpy reference.

Every reduction kernel (matmul, batched matmul, 3x3 conv, attention) sums
over its reduction axis in ascending order from ``+0.0``, rounding each
product and each partial sum to float32 separately.  Attention subtracts
the NaN-propagating row max from its scaled scores, exponentiates, and
divides by the ascending row sum with a correctly rounded division.  For
identical inputs the compiled backend, the numpy reference and a naive
sequential loop therefore give the same bytes.  The RMS norm is the one
sum in numpy's own order instead: its reference is ``np.mean``, a pairwise
sum over a contiguous axis and an ascending one over a strided axis, which
the compiled kernel reproduces for C-contiguous inputs (any other layout
runs the reference under both backends).  The one exception is the
payload of a NaN: NaN is produced at the same positions, but which NaN's
bits survive an addition of two NaNs or a row max is not fixed (numpy's
own choice varies with the array length).

The compiled backend is ``kernels.c``, built at first use with the system
C compiler (see :mod:`cachediff.native` for the flags and the cache
directory).  Before it is used, its op records are checked against the
reference on small cases with signed zeros; when there is no compiler,
the build fails or the check fails, the numpy reference runs instead: the
same bytes, about twenty times slower.

The backend is chosen from the ``CACHEDIFF_BACKEND`` environment variable
at import (``compiled``, the default, or ``numpy``) and can be switched at
runtime with :func:`set_backend`.  ``exp`` is numpy's own float32 loop
under both backends: the compiled library calls the inner loop of
``np.exp`` itself (see :mod:`cachediff.native`), so the compiled
attention is one op per step, scores, exp and apply alike, and a residual
unit's pre-activation ``conv(silu(rms_norm(x)))`` is a norm op that also
writes the SiLU gate and a conv op that reads it.

Attention and the channel mixes around it take their tokens in a feature
map's own layout, (items, channels, tokens): the compiled kernels hold
the tokens on the vector lanes, and each token keeps the reference's own
sequence of float32 operations.

Conv weights are packed once (:class:`PackedConv`), in one layout that
both backends read, so a model built under one backend runs under the
other.

Each compiled kernel and glue op has one call path: the ``bound_*``
functions at the end of this module, which fix every argument of a step
once, as an op record of the compiled library or a numpy callable.  A
planned pass (see :mod:`cachediff.plan`) binds its steps once, on its own
buffers, into one call of the library.  The load-time check runs the same
records on the library before it is accepted, and tests run single steps
through :func:`_run`.

Five eager functions remain: :func:`matmul`, :func:`matmul_batch` and
:func:`conv2d_frames` check their arguments, allocate their outputs and
run a bound step per call (a matmul is a channel mix with one pixel per
row); :func:`softmax_rows` and :func:`silu` are the numpy reference's own
sequences.  No planned pass calls them, but :func:`matmul` and
:func:`silu` compute a model's time projections, once per timestep
(:class:`cachediff.unet.ToyUNet`).  The benchmark's tracer wraps all five
by name (``perfbench/tracer.py``) and its tests pin the ``matmul``
imports of :mod:`cachediff.unet` and :mod:`cachediff.attention`.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from functools import partial

import numpy as np

from . import native
from .errors import ConfigError

ENV_BACKEND = "CACHEDIFF_BACKEND"
_BACKENDS = ("compiled", "numpy")


def _f32(x: np.ndarray, name: str, ndim: int) -> np.ndarray:
    if not isinstance(x, np.ndarray):
        raise ValueError(f"{name} must be a numpy array, got {type(x).__name__}")
    if x.dtype != np.float32:
        raise ValueError(f"{name} must be float32, got {x.dtype}")
    if x.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dims, got shape {x.shape}")
    return np.ascontiguousarray(x)


# Packed conv weights have a multiple of this many columns: the widest
# vector of any build of the compiled GEMM, so one packing serves both
# backends and every build.
_PACK_COLS = 16


class PackedConv:
    """3x3 conv weights (co, ci, 3, 3) and bias (co,), checked and packed once.

    ``w`` is the (ci*9, ldw) matrix whose row p holds the weights of the
    reduction index p = (ci, ky, kx) for every output channel, zero-padded
    to ``ldw`` columns, the next multiple of 16.  The compiled kernel reads
    it as is, the numpy reference its first ``co`` columns.
    """

    __slots__ = ("ci", "co", "w", "bias")

    def __init__(self, w: np.ndarray, bias: np.ndarray):
        w = _f32(w, "w", 4)
        bias = _f32(bias, "bias", 1)
        if w.shape[2:] != (3, 3):
            raise ValueError(f"conv expects 3x3 kernels, got {w.shape}")
        if bias.shape[0] != w.shape[0]:
            raise ValueError(f"conv bias mismatch: {bias.shape} vs {w.shape}")
        self.co, self.ci = w.shape[:2]
        ldw = -(-self.co // _PACK_COLS) * _PACK_COLS
        self.w = np.zeros((self.ci * 9, ldw), dtype=np.float32)
        self.w[:, : self.co] = w.reshape(self.co, self.ci * 9).T
        self.bias = bias.copy()


# ---------------------------------------------------------------------------
# numpy reference


def _silu_gate(x: np.ndarray) -> np.ndarray:
    """exp(-clip(x, -30, 30)): sigmoid(x) is 1 / (1 + gate)."""
    return np.exp(-np.clip(x, np.float32(-30.0), np.float32(30.0)))


def _apply_gate(x: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """silu(x) = x * sigmoid(x) from x and its gate: sigmoid(x) is 1 / (1 + gate)."""
    return x * (np.float32(1.0) / (np.float32(1.0) + gate))


def _matmul_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _matmul_batch_np(a[None], b[None])[0]


def _matmul_batch_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b per item, each sum over k ascending from +0.0, rounded at every step."""
    k = a.shape[2]
    out = np.zeros((a.shape[0], a.shape[1], b.shape[2]), dtype=np.float32)
    for p in range(k):
        out += a[:, :, p : p + 1] * b[:, p : p + 1, :]
    return out


def _conv2d_frames_np(
    x: np.ndarray, conv: PackedConv, stride: int, gate: np.ndarray | None = None
) -> np.ndarray:
    """Patch matrix with columns ordered (ci, ky, kx), one matmul, bias, (f,co,ho,wo) layout."""
    if gate is not None:
        x = _apply_gate(x, gate)
    f, c_in, h, wid = x.shape
    pad = np.zeros((f, c_in, h + 2, wid + 2), dtype=np.float32)
    pad[:, :, 1 : h + 1, 1 : wid + 1] = x
    win = np.lib.stride_tricks.sliding_window_view(pad, (3, 3), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    patches = np.ascontiguousarray(
        win.transpose(0, 2, 3, 1, 4, 5).reshape(f * ho * wo, c_in * 9)
    )
    out = _matmul_np(patches, conv.w[:, : conv.co]) + conv.bias[None, :]
    return np.ascontiguousarray(out.reshape(f, ho, wo, conv.co).transpose(0, 3, 1, 2))


def _conv_epilogue_np(y: np.ndarray, add: np.ndarray | None, base: np.ndarray | None):
    """The reference sequence that the compiled conv's store loop fuses.

    ``add`` (samples, co) holds one row per run of ``f // samples`` frames,
    added to the conv's output (a residual unit's time projection); ``base``
    gives ``base + 0.5 * y`` (its residual).
    """
    if add is not None:
        lead = (add.shape[0], y.shape[0] // add.shape[0])
        return (y.reshape(lead + y.shape[1:]) + add[:, None, :, None, None]).reshape(y.shape)
    if base is not None:
        return base + np.float32(0.5) * y
    return y


def _channel_mix_np(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w per pixel of an (f, c, *pixels) stack: the matmul of its (f * pixels, c) tokens."""
    f, c, *rest = x.shape
    hw = math.prod(rest)
    tok = np.ascontiguousarray(x.reshape(f, c, hw).transpose(0, 2, 1).reshape(f * hw, c))
    out = _matmul_np(tok, w).reshape(f, hw, w.shape[1]).transpose(0, 2, 1)
    return np.ascontiguousarray(out).reshape(f, w.shape[1], *rest)


def _rms_norm_np(x: np.ndarray, axis: int, gate: bool = False):
    ms = np.mean(np.square(x), axis=axis, keepdims=True, dtype=np.float32)
    out = x / np.sqrt(ms + np.float32(1e-5))
    return (out, _silu_gate(out)) if gate else out


def _softmax_rows_np(e: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of the C-contiguous e, in place; returns e.

    The row max is subtracted (when there are keys), and the row sums are a
    matmul with a ones column, so they run in ascending order from +0.0 like
    every other sum here.
    """
    lk = e.shape[-1]
    if lk:
        e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    rows = e.reshape(math.prod(e.shape[:-1]), lk)
    np.divide(rows, _matmul_np(rows, np.ones((lk, 1), dtype=np.float32)), out=rows)
    return e


def _attention_np(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: np.float32
) -> tuple[np.ndarray, np.ndarray]:
    """(probs @ v, probs) with probs = softmax(q @ k^T * scale) per row."""
    e = _matmul_batch_np(q, np.ascontiguousarray(k.transpose(0, 2, 1)))
    e *= scale
    _softmax_rows_np(e)
    return _matmul_batch_np(e, v), e


# ---------------------------------------------------------------------------
# compiled backend


_F32 = np.dtype(np.float32)


def _ptr(x: np.ndarray) -> int:
    """Address of a C-contiguous float32 array's data.

    The kernels read raw memory and ignore strides, so any other array is
    refused.
    """
    if x.dtype != _F32 or not x.flags.c_contiguous:
        raise ValueError(f"compiled kernels need C-contiguous float32 arrays, got {x.dtype} "
                         f"with strides {x.strides}")
    return x.ctypes.data


def _rows_ptr(x: np.ndarray) -> tuple[int, int]:
    """Address and row length, in floats, of a 2-d float32 array with contiguous rows.

    A C-contiguous array's rows are ``shape[1]`` floats apart, whatever
    numpy reports as the stride of an axis of length 1.
    """
    if x.dtype != _F32 or x.ndim != 2:
        raise ValueError(f"need a float32 matrix, got {x.dtype} of shape {x.shape}")
    if x.flags.c_contiguous:
        return x.ctypes.data, x.shape[1]
    if (x.strides[1] != 4 and x.shape[1] != 1) or x.strides[0] <= 0 or x.strides[0] % 4:
        raise ValueError(f"need a float32 matrix with contiguous rows, got strides {x.strides}")
    return x.ctypes.data, x.strides[0] // 4


# Scratch memory of the compiled kernels, in bytes.  Each kernel carves its
# regions (index tables, padded copies) from one block, every region rounded
# up to 64 bytes; these are upper bounds of what kernels.c carves.


def _r64(nbytes: int) -> int:
    return -(-nbytes // 64) * 64


def _pad16(n: int) -> int:
    return -(-n // 16) * 16


def _channel_mix_ws(c: int, hw: int, co: int) -> int:
    """koff, arow and orow, plus a padded copy of one frame unless hw is a multiple of 16."""
    return _r64(8 * c) + 2 * _r64(8 * co) + (_r64(4 * c * _pad16(hw)) if hw % 16 else 0)


def _conv_ws(f: int, ci: int, h: int, w: int, stride: int) -> int:
    """koff, pix and opix, then the zero-padded input."""
    npix = f * ((h - 1) // stride + 1) * ((w - 1) // stride + 1)
    return _r64(8 * 9 * ci) + 2 * _r64(8 * npix) + _r64(4 * f * ci * (h + 2) * (w + 2))


def _attention_ws(lk: int, d: int, dv: int, lane_keys: bool = False) -> int:
    """Packed K and V (an entry per key and dim, of 16 lanes with ``lane_keys``), one
    block's q, scores and output: keys padded to 8, dims to 8, lanes at most 16."""
    lkp, dp, dvp = (-(-n // 8) * 8 for n in (lk, d, dv))
    w = 16 if lane_keys else 1
    return (_r64(4 * lkp * dp * w) + _r64(4 * lk * dvp * w) + _r64(4 * dp * 16)
            + _r64(4 * lkp * 16) + _r64(4 * dvp * 16))


def _self_check(lib) -> str | None:
    """Run the bound steps on ``lib`` against the reference on small cases; None if equal.

    Sums of 37 normal products (and the attention row sums of 37 to 40
    exponentials) expose any change of summation order or rounding; the
    cases also hold a row of -0.0 and a subnormal.  The norm's rows of 137
    terms of a wide range take every branch of numpy's pairwise sum, as
    rows and as tokens on the lanes (19 of them: a full vector and a
    tail); its channel case sums over a strided axis.  The conv's two
    store epilogues and the channel mix's residual add rows and a residual
    holding -0.0 and a subnormal.  A channel mix's weights (on one pixel
    per row, as :func:`matmul` runs it) and the added rows are also read as
    column slices of wider matrices, as plans pass them.  Attention runs
    with keys shared by the lanes (with and without kept probabilities,
    broadcast items and appended shared keys) and with keys per lane, on 19
    lanes of 5 dims.  exp runs on every kind of
    special value and a sweep across its whole range, from an odd offset;
    the glue ops run on permuted and broadcast views holding -0.0,
    infinities and a subnormal.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((13, 37), dtype=np.float32)
    a[1] = -0.0
    a[2, 3] = 3e-39
    x = rng.standard_normal((2, 5, 5, 4), dtype=np.float32)
    x[1, 2] = -0.0
    w = rng.standard_normal((6, 5, 3, 3), dtype=np.float32)
    conv = PackedConv(w, rng.standard_normal(6, dtype=np.float32))
    gate = _silu_gate(x)
    t = rng.standard_normal((8, 137), dtype=np.float32)
    t *= np.exp2(rng.integers(-9, 9, 137)).astype(np.float32)
    t[1] = -0.0
    t[2, 5] = 3e-39
    b21 = rng.standard_normal((37, 21), dtype=np.float32)
    tokens = rng.standard_normal((2, 137, 19), dtype=np.float32)
    tokens *= np.exp2(rng.integers(-9, 9, (137, 1))).astype(np.float32)
    tokens[1, :, 2] = -0.0
    tokens[0, 5, 7] = 3e-39
    q = rng.standard_normal((2, 1, 5, 19), dtype=np.float32)
    q[1, 0, :, 4] = -0.0
    kv = rng.standard_normal((2, 5, 37), dtype=np.float32)
    extra = rng.standard_normal((5, 3), dtype=np.float32)
    lane_q = rng.standard_normal((2, 4, 5, 19), dtype=np.float32)
    lane_kv = rng.standard_normal((2, 4, 5, 19), dtype=np.float32)
    lane_kv[0, 2, :, 3] = -0.0
    scale = np.float32(0.75)
    add = rng.standard_normal((2, 9), dtype=np.float32)[:, 2:8]
    add[0, 1], add[1, 2] = -0.0, 3e-39
    base = rng.standard_normal((2, 6, 5, 4), dtype=np.float32)
    base[1, 3] = -0.0
    res = rng.standard_normal((2, 21, 5, 4), dtype=np.float32)
    res[0, 3], res[1, 2, 1] = -0.0, 3e-39
    ws = max(_channel_mix_ws(37, 1, 21), _channel_mix_ws(5, 20, 21),
             _conv_ws(2, 5, 5, 4, 1), _attention_ws(40, 5, 5), _attention_ws(4, 5, 5, True))

    def differs(want, bound, *inputs, **kwargs) -> bool:
        """Whether the bound step writes other bytes than ``want`` (an array or a tuple)."""
        want = want if isinstance(want, tuple) else (want,)
        outs = [np.empty(r.shape, dtype=np.float32) for r in want]
        _run(lib, bound, *inputs, *outs, **kwargs)
        return any(o.tobytes() != r.tobytes() for o, r in zip(outs, want))

    def attention_differs(q, k, v, kept: bool, k2=None, v2=None) -> bool:
        """Whether the attention step on ``lib`` writes other bytes than the reference."""
        runs = []
        lk = k.shape[1] if k.ndim == 4 else k.shape[2] + (0 if k2 is None else k2.shape[1])
        for backend in (None, lib):
            out = np.empty(q.shape[:2] + (v.shape[-2],) + q.shape[3:], np.float32)
            probs = np.empty(q.shape[:2] + (q.shape[3], lk), np.float32) if kept else None
            _run(backend, bound_attention, q, k, v, scale, out, ws=ws, probs=probs, k2=k2, v2=v2)
            runs.append(out.tobytes() + (b"" if probs is None else probs.tobytes()))
        return runs[0] != runs[1]

    def glue_differs(bound, make) -> bool:
        """Whether the step leaves other bytes in its arrays than the reference does;
        ``make()`` returns fresh arguments."""
        runs = []
        for backend in (None, lib):
            args = make()
            _run(backend, bound, *args)
            runs.append([a.tobytes() for a in args if isinstance(a, np.ndarray)])
        return runs[0] != runs[1]

    sweep = np.concatenate([
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -3e-39, 88.72283,
                  88.72284, -87.33654, -103.97208, -103.97209, 3e38, -3e38], np.float32),
        np.linspace(-110.0, 95.0, 1001, dtype=np.float32),
    ])
    odd = np.empty(sweep.size + 1, np.float32)[1:]
    special = np.tile(np.array([-0.0, np.inf, -np.inf, 3e-39, 1.5, -2.0], np.float32), 10)

    def grid(*shape):
        return rng.permutation(special)[: math.prod(shape)].reshape(shape)

    def swept():
        odd[...] = sweep
        return (odd,)

    d4, h9 = grid(2, 2, 5, 3), grid(6, 9)
    tok, rows = grid(2, 7, 3), grid(1, 3, 3)
    index = np.array([0, 2, 5], np.int64)

    with np.errstate(all="ignore"):  # the reference meets infinities
        y = _conv2d_frames_np(x, conv, 1, gate)
        cases = [
            ("exp", glue_differs(bound_exp, swept)),
            ("copy of a permuted view", glue_differs(bound_copy, lambda: (
                np.empty((2, 3, 2, 5), _F32), d4.copy().transpose(0, 3, 1, 2)))),
            ("copy of a broadcast view", glue_differs(bound_copy, lambda: (
                np.empty((2, 3, 2, 5, 2), _F32)[:, :, :, :4], h9[:, :4].reshape(2, 3, 1, 4, 1)))),
            ("gather", glue_differs(bound_gather, lambda: (tok, index, np.empty((2, 3, 3), _F32)))),
            ("scatter", glue_differs(bound_scatter, lambda: (
                rows, index, np.zeros((2, 7, 3), _F32)))),
            *((f"conv2d_frames stride {s}", differs(
                _conv2d_frames_np(x, conv, s), bound_conv2d_frames, x, conv, ws=ws, stride=s))
              for s in (1, 2)),
            ("gated conv2d_frames", differs(y, bound_conv2d_frames, x, conv, ws=ws, gate=gate)),
            ("conv2d_frames add epilogue", differs(
                _conv_epilogue_np(y, add, None), bound_conv2d_frames, x, conv, ws=ws, gate=gate,
                add=add)),
            ("conv2d_frames residual epilogue", differs(
                _conv_epilogue_np(y, None, base), bound_conv2d_frames, x, conv, ws=ws, gate=gate,
                base=base)),
            ("channel_mix", differs(
                _channel_mix_np(x, b21[:5]), bound_channel_mix, x, b21[:5], ws=ws)),
            ("channel_mix of one pixel, weights a column slice", differs(
                _channel_mix_np(a[:, :, None], b21[:, 3:19]), bound_channel_mix, a[:, :, None],
                b21[:, 3:19], ws=ws)),
            ("channel_mix residual epilogue", differs(
                _conv_epilogue_np(_channel_mix_np(x, b21[:5]), None, res), bound_channel_mix, x,
                b21[:5], ws=ws, base=res)),
            ("rms_norm rows", differs(_rms_norm_np(t, 1), bound_rms_norm, t, 1)),
            ("rms_norm channels", differs(_rms_norm_np(x, 1, True), bound_rms_norm, x, 1)),
            ("token norm", differs(_token_norm_np(tokens, 1), bound_rms_norm, tokens, 1,
                                   tokens=True)),
            ("attention", attention_differs(q, kv, kv, True, k2=extra, v2=extra)),
            ("attention without kept probabilities", attention_differs(q, kv[:1], kv[:1], False)),
            ("attention with keys per lane", attention_differs(lane_q, lane_kv, lane_kv, True)),
        ]
    return next((f"compiled {name} differs from the numpy reference"
                 for name, bad in cases if bad), None)


_lib = None  # the loaded library once checked, False when unavailable
_lib_error: str | None = None
_lib_lock = threading.Lock()


def _compiled():
    """The checked compiled library, loading it on first use; None if unavailable."""
    global _lib, _lib_error
    if _lib is None:
        with _lib_lock:
            if _lib is None:
                lib, _lib_error = native.load()
                if lib is not None:
                    _lib_error = _self_check(lib)
                _lib = lib if _lib_error is None else False
    return _lib or None


_active = os.environ.get(ENV_BACKEND, "compiled")
if _active not in _BACKENDS:
    raise ConfigError(f"{ENV_BACKEND} must be one of {_BACKENDS}, got {_active!r}")


def compiled_error() -> str | None:
    """Why the compiled backend is unavailable, or None when it is usable (this may build it)."""
    _compiled()
    return _lib_error


def active_library():
    """The ``lib`` argument of the ``bound_*`` functions for the backend in use: the
    checked compiled library, or None for the numpy reference (this may build it)."""
    return _compiled() if _active == "compiled" else None


def active_backend() -> str:
    """Name of the backend in use: ``compiled``, or ``numpy`` when it was asked for
    or the compiled kernels are unavailable (this may build them)."""
    return "numpy" if active_library() is None else "compiled"


def set_backend(name: str) -> None:
    """Switch kernel backend at runtime (used by tests and benchmarks)."""
    global _active
    if name not in _BACKENDS:
        raise ConfigError(f"unknown backend {name!r}, expected one of {_BACKENDS}")
    if name == "compiled" and _compiled() is None:
        raise ConfigError(f"compiled backend unavailable: {_lib_error}")
    _active = name


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float32 matrix product with fixed ascending-k accumulation.

    It runs as a channel mix with one pixel per row of ``a``: each output
    is the same ascending sum of the same products.
    """
    a = _f32(a, "a", 2)
    b = _f32(b, "b", 2)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    (m, k), n = a.shape, b.shape[1]
    out = np.empty((m, n), dtype=np.float32)
    _run(active_library(), bound_channel_mix, a[:, :, None], b, out[:, :, None],
         ws=_channel_mix_ws(k, 1, n))
    return out


def matmul_batch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched matmul over a leading axis, one fixed-order product per item."""
    a = _f32(a, "a", 3)
    b = _f32(b, "b", 3)
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ValueError(f"matmul_batch shape mismatch: {a.shape} @ {b.shape}")
    (bn, m, k), n = a.shape, b.shape[2]
    out = np.empty((bn, m, n), dtype=np.float32)
    lib = active_library()
    for i in range(bn):
        _run(lib, bound_channel_mix, a[i, :, :, None], b[i], out[i, :, :, None],
             ws=_channel_mix_ws(k, 1, n))
    return out


def conv2d_frames(
    x: np.ndarray, conv: PackedConv, stride: int = 1, gate: np.ndarray | None = None
) -> np.ndarray:
    """Apply the 3x3 convolution to each frame of a (f,c,h,w) stack.

    Per-element results are identical to one call per frame.  Zero padding
    is multiplied like any input element, so inf weights on the border give
    NaN exactly as a naive loop does.  Given x's SiLU gate
    exp(-clip(x, -30, 30)), the input is ``silu(x)``, with the bytes of
    :func:`silu`.
    """
    x = _f32(x, "x", 4)
    if not isinstance(conv, PackedConv):
        raise ValueError(f"conv2d_frames takes PackedConv weights, got {type(conv).__name__}")
    if x.shape[1] != conv.ci:
        raise ValueError(f"conv2d_frames channel mismatch: x {x.shape}, conv {conv.co}x{conv.ci}")
    if stride not in (1, 2):
        raise ValueError(f"conv2d_frames stride must be 1 or 2, got {stride}")
    if x.shape[2] < 1 or x.shape[3] < 1:
        raise ValueError(f"conv2d_frames needs a non-empty image, got x {x.shape}")
    if gate is not None:
        gate = _f32(gate, "gate", 4)
        if gate.shape != x.shape:
            raise ValueError(f"conv2d_frames gate {gate.shape} does not match x {x.shape}")
    f, ci, h, w = x.shape
    out = np.empty((f, conv.co, (h - 1) // stride + 1, (w - 1) // stride + 1), dtype=np.float32)
    _run(active_library(), bound_conv2d_frames, x, conv, out, ws=_conv_ws(f, ci, h, w, stride),
         stride=stride, gate=gate)
    return out


# ---------------------------------------------------------------------------
# shared numpy ops (identical under both backends by construction)


def silu(x: np.ndarray) -> np.ndarray:
    """Elementwise x * sigmoid(x), the input clamped to +-30 before the exponential.

    At the clamp the sigmoid is within 1e-13 of its limit, stays a normal
    float32 and cannot overflow.
    """
    return _apply_gate(x, _silu_gate(x))


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction.

    The denominator is formed by a fixed-order matmul with a ones vector so
    the summation order matches a naive left-to-right loop.
    """
    x = _f32(x, "x", 2)
    if x.shape[1] == 0:
        raise ValueError("softmax_rows needs at least one column")
    return _softmax_rows_np(x.copy())


# ---------------------------------------------------------------------------
# bound calls
#
# Each ``bound_*`` function returns what runs one step with every argument
# fixed.  ``lib`` is the compiled library, or None for the numpy reference.
# For the reference the items are callables that write their result into
# the step's buffers.  For a library they are op records (:class:`Op`):
# the arrays are checked and turned into addresses once, and ``ws`` is the
# address of a scratch block of at least the step's ``_*_ws`` bytes; both
# give the same bytes.  :func:`program` turns a sequence of items into the
# calls that run it: on a library, one ``cd_run`` call.  These are
# the only callers of the library: a plan (see :mod:`cachediff.plan`) binds
# all steps of a pass once, on its own buffers, into one program; the eager
# functions above and the load-time check run one step per call through
# :func:`_run`.  The eager functions' argument checks are not repeated
# here.

# Attention scores per slab of the numpy reference's :func:`bound_attention`:
# one 256 x 512 frame, which bounds its temporaries (512 KB).  The compiled
# kernel runs a step's items as one op record and keeps the scores of one
# block of query lanes in L1.
_ATTN_SLAB = 1 << 17

# The OP_* kinds, OP_SLOTS and MAXD of kernels.c.
(_OP_CHANNEL_MIX, _OP_CONV, _OP_NORM, _OP_ATTENTION, _OP_EXP, _OP_COPY, _OP_GATHER,
 _OP_SCATTER) = range(1, 9)
_OP_SLOTS = 24
_MAXD = 6


class Op:
    """One op record of the compiled library: its kind and arguments as 8-byte slots.

    An array argument is checked (:func:`_ptr`) and passed as its address,
    None as a null pointer and a Python float as a double; ``refs`` holds
    every array whose memory the record addresses, so that it stays alive
    with the record.
    """

    __slots__ = ("slots", "refs")

    def __init__(self, kind: int, *args, refs: tuple = ()):
        slots = [kind]
        held = list(refs)
        for a in args:
            if isinstance(a, np.ndarray):
                slots.append(_index_ptr(a) if a.dtype == np.int64 else _ptr(a))
                held.append(a)
            elif isinstance(a, float):
                slots.append(struct.unpack("<q", struct.pack("<d", a))[0])
            else:
                slots.append(0 if a is None else int(a))
        if len(slots) > _OP_SLOTS:
            raise ValueError(f"an op record holds {_OP_SLOTS} slots, got {len(slots)}")
        self.slots = slots + [0] * (_OP_SLOTS - len(slots))
        self.refs = tuple(held)


def _index_ptr(idx: np.ndarray) -> int:
    if not idx.flags.c_contiguous:
        raise ValueError(f"op indices must be C-contiguous, got strides {idx.strides}")
    return idx.ctypes.data


def program(lib, items: list) -> list:
    """The calls that run ``items`` (from ``bound_*`` functions) in order on ``lib``.

    Under the numpy reference they are the items themselves.  On a library
    they are op records, and the program is one ``cd_run`` call over a
    table built here once.
    """
    if lib is None:
        return list(items)
    table = np.array([op.slots for op in items], dtype=np.int64)
    call = partial(lib.cd_run, table.ctypes.data, len(items))
    call.held = (table, [op.refs for op in items])  # the memory the call reads
    return [call]


def _run(lib, bound, *args, ws: int | None = None, **kwargs) -> None:
    """Bind one step on ``lib`` and run it once, as one ``cd_run`` call on a library;
    with ``ws``, a fresh scratch block of that many bytes is the step's last
    positional argument."""
    block = np.empty(ws or 0, dtype=np.uint8)
    items = bound(lib, *args, *(() if ws is None else (block.ctypes.data,)), **kwargs)
    for call in program(lib, items):
        call()


def bound_channel_mix(
    lib, x: np.ndarray, w: np.ndarray, out: np.ndarray, ws: int, *, base: np.ndarray | None = None
) -> list:
    """out (f, co, *pixels) = x @ w per pixel of x (f, c, *pixels), the matmul of x's
    (f * pixels, c) tokens; with ``base`` (shaped like out), base + 0.5 * that, the
    residual of an attention site (:func:`_conv_epilogue_np`)."""
    if lib is None:
        return [lambda: np.copyto(out, _conv_epilogue_np(_channel_mix_np(x, w), None, base))]
    f, c = x.shape[:2]
    pw, ldw = _rows_ptr(w)
    return [Op(_OP_CHANNEL_MIX, x, pw, ldw, out, base, f, c, math.prod(x.shape[2:]), w.shape[1],
               ws, refs=(w,))]


def bound_conv2d_frames(
    lib, x: np.ndarray, conv: PackedConv, out: np.ndarray, ws: int, *, stride: int = 1,
    gate: np.ndarray | None = None, add: np.ndarray | None = None, base: np.ndarray | None = None,
) -> list:
    """out = conv2d_frames(x, conv, stride, gate), then at most one epilogue.

    ``add`` (samples, co), one row per run of ``f // samples`` frames, is
    added to ``acc + bias`` (a residual unit's time projection); ``base``,
    shaped like ``out``, gives ``base + 0.5 * (acc + bias)`` (its residual).
    Each is the reference's own sequence of float32 operations
    (:func:`_conv_epilogue_np`), fused into the compiled conv's store.
    """
    if add is not None and base is not None:
        raise ValueError("a conv takes one epilogue")
    if lib is None:
        return [lambda: np.copyto(
            out, _conv_epilogue_np(_conv2d_frames_np(x, conv, stride, gate), add, base))]
    f, ci, h, wid = x.shape
    pa, lda = _rows_ptr(add) if add is not None else (None, 0)
    return [Op(
        _OP_CONV, x, gate, conv.w, conv.w.shape[1], conv.bias, out, f, ci, h, wid, conv.co,
        stride, pa, lda, f // add.shape[0] if add is not None else 1, base, ws, refs=(add,),
    )]


def _token_norm_np(x: np.ndarray, axis: int, gate: bool = False):
    """_rms_norm_np over ``axis`` as if it were the contiguous last axis: numpy's
    pairwise order over each token's channels, whatever x's layout."""
    res = _rms_norm_np(np.ascontiguousarray(np.moveaxis(x, axis, -1)), -1, gate)
    return tuple(np.moveaxis(r, -1, axis) for r in res) if gate else np.moveaxis(res, -1, axis)


def bound_rms_norm(
    lib, x: np.ndarray, axis: int, out: np.ndarray, gate: np.ndarray | None = None, *,
    tokens: bool = False,
) -> list:
    """out = rms_norm(x, axis), and with ``gate`` its SiLU gate, of a C-contiguous x.

    With ``tokens``, every other index of x is a token whose values along
    ``axis`` are summed in numpy's order for a contiguous axis (pairwise),
    the reference's token norm; the compiled op holds the tokens on its
    lanes.  The compiled op writes the norm and -clip(out, -30, 30), then
    applies numpy's exp to that in place, which makes it the gate.
    """
    axis %= x.ndim
    inner = math.prod(x.shape[axis + 1 :])
    if lib is None:
        norm = _token_norm_np if tokens else _rms_norm_np

        def run():
            res = norm(x, axis, gate is not None)
            if gate is None:
                np.copyto(out, res)
            else:
                np.copyto(out, res[0])
                np.copyto(gate, res[1])
        return [run]
    return [Op(_OP_NORM, x, out, gate, math.prod(x.shape[:axis]), x.shape[axis], inner,
               int(tokens or inner == 1))]


def bound_attention(
    lib, q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: np.float32, out: np.ndarray,
    ws: int, *, k2: np.ndarray | None = None, v2: np.ndarray | None = None,
    probs: np.ndarray | None = None,
) -> list:
    """out = softmax(q k^T * scale) @ v for query tokens on the lanes.

    q is (items, rows, d, lanes) and out (items, rows, dv, lanes): each
    lane of each row is one query.  The keys come in one of two layouts:

    * 3-d, shared by the lanes of an item: k (kitems, d, lk) and v (kitems,
      dv, lk), item b reading item b % kitems, followed by the keys k2 (d,
      lk2) and v2 (dv, lk2) shared by every item (None: no such keys);
    * 4-d, one set per lane: k (items, lk, d, lanes), v (items, lk, dv,
      lanes), the queries of a lane being its rows.

    With ``probs`` (items, rows, lanes, lk + lk2), the probabilities are
    written there too.  On a library the step is one op record, which
    carries ``probs`` or a null pointer; the reference runs the items in
    slabs of at most ``_ATTN_SLAB`` scores (at least one item each).
    """
    items, rows, d, lanes = q.shape
    dv = out.shape[2]
    per_lane = k.ndim == 4
    lk1 = k.shape[1] if per_lane else k.shape[2]
    lk = lk1 + (0 if per_lane or k2 is None else k2.shape[1])
    if lib is not None:
        return [Op(_OP_ATTENTION, q, k, v, k2, v2, out, probs, items, rows, lanes, lk1, lk - lk1,
                   d, dv, 0 if per_lane else k.shape[0], int(per_lane), float(scale), ws)]
    step = max(1, min(items, _ATTN_SLAB // (rows * lanes * lk or 1)))
    ops = []
    for i in range(0, items, step):
        sl = slice(i, min(i + step, items))
        cnt = sl.stop - i
        p = None if probs is None else probs[sl]

        def run(sl=sl, cnt=cnt, p=p):
            if per_lane:
                qt = q[sl].transpose(0, 3, 1, 2).reshape(cnt * lanes, rows, d)
                kt, vt = (a[sl].transpose(0, 3, 1, 2).reshape(cnt * lanes, lk, n)
                          for a, n in ((k, d), (v, dv)))
            else:
                qt = q[sl].transpose(0, 1, 3, 2).reshape(cnt, rows * lanes, d)
                read = np.arange(sl.start, sl.stop) % k.shape[0]
                kt, vt = (a[read].transpose(0, 2, 1) for a in (k, v))
                if k2 is not None:
                    kt, vt = (np.concatenate([t, np.broadcast_to(e.T, (cnt,) + e.T.shape)], 1)
                              for t, e in ((kt, k2), (vt, v2)))
            o, pr = _attention_np(*(np.ascontiguousarray(a) for a in (qt, kt, vt)), scale)
            if per_lane:
                out[sl] = o.reshape(cnt, lanes, rows, dv).transpose(0, 2, 3, 1)
                pr = pr.reshape(cnt, lanes, rows, lk).transpose(0, 2, 1, 3)
            else:
                out[sl] = o.reshape(cnt, rows, lanes, dv).transpose(0, 1, 3, 2)
            if p is not None:
                p[...] = pr.reshape(p.shape)
        ops.append(run)
    return ops


def bound_exp(lib, x: np.ndarray) -> list:
    """x = exp(x) in place: numpy's float32 loop under both backends."""
    if lib is None:
        return [lambda: np.exp(x, out=x)]
    return [Op(_OP_EXP, x, x.size)]


def _strided(a: np.ndarray) -> tuple[int, ...]:
    """Strides of a float32 view in floats."""
    if a.dtype != _F32 or any(s % 4 for s in a.strides):
        raise ValueError(f"strided ops need float32 views, got {a.dtype} strides {a.strides}")
    return tuple(s // 4 for s in a.strides)


def _merged(shape: tuple[int, ...], *strides: tuple[int, ...]) -> list:
    """(ndim, shape, *strides) with unit axes dropped and neighbours that every stride
    set walks as one axis merged: 2 to ``_MAXD`` axes, each list padded to ``_MAXD``."""
    dims: list[list[int]] = []
    for i, n in enumerate(shape):
        if n == 1:
            continue
        if dims and all(prev == s[i] * n for prev, s in zip(dims[-1][1:], strides)):
            dims[-1] = [dims[-1][0] * n, *(s[i] for s in strides)]
        else:
            dims.append([n, *(s[i] for s in strides)])
    dims = [[1, *(0 for _ in strides)]] * (2 - len(dims)) + dims  # the kernels take 2 or more
    if len(dims) > _MAXD:
        raise ValueError(f"a strided op takes at most {_MAXD} axes, got shape {shape}")
    pad = [0] * (_MAXD - len(dims))
    return [len(dims)] + [v for col in zip(*dims) for v in (*col, *pad)]


def bound_copy(lib, dst: np.ndarray, src: np.ndarray) -> list:
    """dst[...] = src, src broadcast to dst's shape; either may be any strided view."""
    if lib is None:
        return [partial(np.copyto, dst, src)]
    if dst.size == 0:
        return []
    src = np.broadcast_to(src, dst.shape)
    return [Op(_OP_COPY, dst.ctypes.data, src.ctypes.data,
               *_merged(dst.shape, _strided(dst), _strided(src)), refs=(dst, src))]


def _rows_index(index: np.ndarray, rows: int) -> np.ndarray:
    """``index`` as C-contiguous int64, each in [0, rows)."""
    idx = np.ascontiguousarray(index, dtype=np.int64)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= rows)):
        raise ValueError(f"row index out of range for {rows} rows")
    return idx


def bound_gather(lib, x: np.ndarray, index: np.ndarray, out: np.ndarray) -> list:
    """out (outer, m, inner) = the rows ``index`` of x (outer, n, inner), C-contiguous."""
    idx = _rows_index(index, x.shape[1])
    if lib is None:
        # in range, so "clip" changes no index; it lets np.take write out unbuffered
        return [partial(np.take, x, idx, axis=1, out=out, mode="clip")]
    (outer, n, inner), m = x.shape, out.shape[1]
    return [Op(_OP_GATHER, out, x, idx, outer, n, m, inner)]


def bound_scatter(lib, src: np.ndarray, index: np.ndarray, out: np.ndarray) -> list:
    """The rows ``index`` of out (outer, n, inner) = src (souter, m, inner), broadcast
    over outer: outer item o reads src item o % souter.  Both C-contiguous."""
    (outer, n, inner), souter = out.shape, src.shape[0]
    idx = _rows_index(index, n)
    if outer % souter or src.shape[1:] != (len(idx), inner):
        raise ValueError(f"scatter of {src.shape} rows into {out.shape}")
    if lib is None:
        def run():
            out.reshape(outer // souter, souter, n, inner)[:, :, idx] = src
        return [run]
    return [Op(_OP_SCATTER, out, src, idx, outer, n, len(idx), inner, souter)]
