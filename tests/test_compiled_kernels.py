"""Differential tests of the compiled kernels against the numpy reference.

Every test runs the kernels through their bound calls (``kernels.bound_*``),
the one path by which plans and the public functions call them: op records
run by the library's ``cd_run``.  The library's exp is numpy's own loop,
tested against ``np.exp`` directly; the glue ops between kernels must give
the bytes of their numpy calls; and every pass must be one library call.
Inputs mix ordinary values with signed zeros, subnormals, infinities and
NaNs, and shapes include empty and unit dimensions.  Outputs must be the
same bytes; when an input holds a NaN, only the NaN positions must agree,
because which NaN's bits survive the sum of two NaNs is not fixed (numpy
itself picks differently for different array lengths).  Attention applies
the same rule wherever the reference output holds a NaN, since it also
makes NaNs from infinities in its row max.
"""

import contextlib
import ctypes
import inspect
import shutil
import subprocess
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cachediff import kernels, native
from cachediff.config import RunConfig
from cachediff.errors import ConfigError
from cachediff.plan import Plan
from cachediff.rng import Rng
from cachediff.runner import build_conditioning
from cachediff.unet import ToyUNet, UNetConfig, init_weights

pytestmark = pytest.mark.skipif(
    shutil.which(native.COMPILER) is None, reason=f"no C compiler ({native.COMPILER}) on PATH"
)


@pytest.fixture(autouse=True, scope="module")
def compiled_backend_is_usable():
    """With a compiler present, a failed build or load-time check fails every test here."""
    assert kernels.compiled_error() is None

SPECIAL = [0.0, -0.0, 1.0, -1.5, 1e-40, -3e-39, 3e38, np.inf, -np.inf, np.nan]
FINITE = st.floats(-4.0, 4.0, width=32)


def values(special: bool):
    if special:
        return st.one_of(FINITE, st.sampled_from(SPECIAL))
    return st.one_of(FINITE, st.sampled_from([0.0, -0.0]))


def tensor(shape, special: bool):
    return arrays(np.float32, shape, elements=values(special))


def compiled(like, bound, *inputs, **kwargs):
    """The outputs of one bound kernel step run on the compiled library.

    They are NaN-filled arrays shaped like ``like`` (an array or a tuple of
    arrays), passed after ``inputs``; ``ws`` gives the bytes of a fresh
    scratch block (see ``kernels._run``).
    """
    like = like if isinstance(like, tuple) else (like,)
    outs = [np.full(r.shape, np.nan, dtype=np.float32) for r in like]
    kernels._run(kernels._compiled(), bound, *inputs, *outs, **kwargs)
    return outs if len(outs) > 1 else outs[0]


def assert_same(got: np.ndarray, want: np.ndarray, *inputs: np.ndarray) -> None:
    assert got.shape == want.shape
    if not any(np.isnan(x).any() for x in inputs):
        assert got.tobytes() == want.tobytes()
        return
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


dims = st.integers(0, 30)
cols = st.sampled_from([0, 1, 2, 3, 4, 5, 8, 9, 15, 16, 17, 31, 33, 48, 64, 65, 70])


@contextlib.contextmanager
def on_compiled():
    """The compiled backend in use for the eager kernel functions, then the one before."""
    before = kernels.active_backend()
    kernels.set_backend("compiled")
    try:
        yield
    finally:
        kernels.set_backend(before)


@settings(max_examples=150, deadline=None)
@given(st.data(), dims, st.integers(0, 20), cols, st.booleans())
def test_matmul_matches_reference(data, m, k, n, special):
    """The eager matmul, a channel mix with one pixel per row on the library."""
    a = data.draw(tensor((m, k), special))
    b = data.draw(tensor((k, n), special))
    if m and data.draw(st.booleans()):
        a[data.draw(st.integers(0, m - 1))] = -0.0
    with np.errstate(all="ignore"):
        want = kernels._matmul_np(a, b)
    with on_compiled():
        assert_same(kernels.matmul(a, b), want, a, b)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(0, 3), st.integers(0, 13), st.integers(0, 9), cols, st.booleans())
def test_matmul_batch_matches_reference(data, bn, m, k, n, special):
    """The eager matmul_batch, one channel mix per item on views of the stacks."""
    a = data.draw(tensor((bn, m, k), special))
    b = data.draw(tensor((bn, k, n), special))
    with np.errstate(all="ignore"):
        want = kernels._matmul_batch_np(a, b)
    with on_compiled():
        got = kernels.matmul_batch(a, b)
    assert got.shape == want.shape
    for i in range(bn):
        assert_same(got[i], want[i], a[i], b[i])


@settings(max_examples=150, deadline=None)
@given(
    st.data(),
    st.integers(0, 3),
    st.integers(0, 4),
    st.integers(1, 9),
    st.integers(1, 9),
    st.sampled_from([0, 1, 2, 4, 5, 16, 17, 33]),
    st.sampled_from([1, 2]),
    st.booleans(),
)
def test_conv2d_frames_matches_reference(data, f, ci, h, w, co, stride, special):
    x = data.draw(tensor((f, ci, h, w), special))
    wt = data.draw(tensor((co, ci, 3, 3), special))
    bias = data.draw(tensor((co,), special))
    conv = kernels.PackedConv(wt, bias)
    with np.errstate(all="ignore"):
        want = kernels._conv2d_frames_np(x, conv, stride)
    got = compiled(want, kernels.bound_conv2d_frames, x, conv,
                   ws=kernels._conv_ws(f, ci, h, w, stride), stride=stride)
    assert_same(got, want, x, wt, bias)


# Norm axis lengths: every branch of numpy's pairwise sum (below 8, 8 to
# 128 with and without a tail, split above 128 once and twice).
norm_len = st.one_of(st.integers(1, 300), st.sampled_from([7, 8, 9, 127, 128, 129, 257]))
ROW_FILL = [None, -0.0, 0.0, 1e-40, -3e-39, np.inf, -np.inf, np.nan]


def norm_input(data, outer: int, c: int, inner: int, special: bool) -> np.ndarray:
    """An (outer, c, inner) tensor, maybe with one norm row set to a special value."""
    x = data.draw(tensor((outer, c, inner), special))
    fill = data.draw(st.sampled_from(ROW_FILL))
    if outer and fill is not None:
        x[data.draw(st.integers(0, outer - 1)), :, data.draw(st.integers(0, inner - 1))] = fill
    return x


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(0, 3), norm_len, st.integers(1, 5), st.booleans(), st.booleans())
def test_rms_norm_matches_reference(data, outer, c, inner, special, gate):
    x = norm_input(data, outer, c, inner, special)
    axis = 1 if inner > 1 or data.draw(st.booleans()) else -1
    if axis == -1:
        x = x.reshape(outer, c)
    with np.errstate(all="ignore"):
        want = kernels._rms_norm_np(x, axis % x.ndim, gate)
        got = compiled(want, kernels.bound_rms_norm, x, axis)
    for g, w in zip(got, want) if gate else [(got, want)]:
        assert_same_nan_rule(g, w)


@settings(max_examples=100, deadline=None)
@given(
    st.data(), st.integers(0, 3), st.sampled_from([1, 2, 7, 8, 9, 16, 33]), st.integers(1, 6),
    st.integers(1, 6), st.sampled_from([1, 4, 16, 17]), st.sampled_from([1, 2]), st.booleans(),
)
def test_preactivation_conv_matches_reference(data, f, ci, h, w, co, stride, special):
    """conv(silu(rms_norm(x))) as the norm kernel, numpy's exp and the gated conv kernel."""
    x = norm_input(data, f, ci, h * w, special).reshape(f, ci, h, w)
    conv = kernels.PackedConv(data.draw(tensor((co, ci, 3, 3), False)),
                              data.draw(tensor((co,), False)))
    with np.errstate(all="ignore"):
        want = kernels._conv2d_frames_np(kernels.silu(kernels._rms_norm_np(x, 1)), conv, stride)
        normed, gate = compiled((x, x), kernels.bound_rms_norm, x, 1)
        got = compiled(want, kernels.bound_conv2d_frames, normed, conv,
                       ws=kernels._conv_ws(f, ci, h, w, stride), stride=stride, gate=gate)
    assert_same_nan_rule(got, want)


@settings(max_examples=150, deadline=None)
@given(
    st.data(), st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, 2, 7, 16]),
    st.integers(1, 6), st.integers(1, 6), st.sampled_from([1, 4, 16, 17]), st.booleans(),
    st.booleans(),
)
def test_conv_store_epilogues_match_reference(data, samples, fps, ci, h, w, co, special, residual):
    """The conv's store loop: + a per-sample row, or base + 0.5 * (acc + bias).

    Specials reach every operand of the additions: the conv output (through
    x, weights and bias), the added rows and the residual base.
    """
    f = samples * fps
    x = data.draw(tensor((f, ci, h, w), special))
    conv = kernels.PackedConv(data.draw(tensor((co, ci, 3, 3), special)),
                              data.draw(tensor((co,), special)))
    add = base = None
    if residual:
        base = data.draw(tensor((f, co, h, w), special))
    else:
        # one row per sample, read with a row stride as a column slice
        wide = data.draw(tensor((samples, co + 5), special))
        add = wide[:, 3 : 3 + co]
    with np.errstate(all="ignore"):
        want = kernels._conv_epilogue_np(kernels._conv2d_frames_np(x, conv, 1), add, base)
        got = compiled(want, kernels.bound_conv2d_frames, x, conv,
                       ws=kernels._conv_ws(f, ci, h, w, 1), add=add, base=base)
    assert_same_nan_rule(got, want)


@settings(max_examples=150, deadline=None)
@given(
    st.data(), st.integers(1, 3), st.integers(0, 40), st.integers(1, 5), st.integers(1, 5),
    cols, st.booleans(), st.booleans(),
)
def test_channel_mix_matches_reference(data, f, c, h, w, co, special, residual):
    """Pixels on the lanes, plain or with an attention site's residual base + 0.5 * mix;
    with no input channel the mix is all zeros."""
    x = data.draw(tensor((f, c, h, w), special))
    wt = data.draw(tensor((c, co), special))
    base = data.draw(tensor((f, co, h, w), special)) if residual else None
    with np.errstate(all="ignore"):
        want = kernels._conv_epilogue_np(kernels._channel_mix_np(x, wt), None, base)
    got = compiled(want, kernels.bound_channel_mix, x, wt,
                   ws=kernels._channel_mix_ws(c, h * w, co), base=base)
    assert_same(got, want, x, wt, *(() if base is None else (base,)))


@pytest.mark.parametrize("residual", [False, True])
def test_channel_mix_of_no_input_channel_writes_every_pixel(residual):
    """x (2, 0, 5) @ w (0, 3) is all zeros (base + 0.5 * 0 with a residual), written over
    every pixel of a NaN-filled output."""
    x, w = np.zeros((2, 0, 5), np.float32), np.zeros((0, 3), np.float32)
    base = np.arange(30, dtype=np.float32).reshape(2, 3, 5) if residual else None
    want = kernels._conv_epilogue_np(kernels._channel_mix_np(x, w), None, base)
    got = compiled(want, kernels.bound_channel_mix, x, w, ws=kernels._channel_mix_ws(0, 5, 3),
                   base=base)
    assert got.tobytes() == want.tobytes()


keys = st.sampled_from([0, 1, 2, 3, 5, 8, 9, 15, 16, 17, 31, 33, 64, 65, 70])


def lane_attention(q, k, v, scale, keep_probs=True, reference=False):
    """The attention step on (n, lq, d) queries and (n, lk, d | dv) keys and values, fed
    as the sites feed it, tokens on the lanes; (out, probs) in the token layout.  On
    the compiled library, or with ``reference`` on the numpy reference."""
    (n, lq, d), (lk, dv) = q.shape, v.shape[1:]
    qt, kt, vt = (np.ascontiguousarray(a.transpose(0, 2, 1)) for a in (q, k, v))
    out = np.full((n, 1, dv, lq), np.nan, np.float32)
    probs = np.full((n, 1, lq, lk), np.nan, np.float32) if keep_probs else None
    kernels._run(None if reference else kernels._compiled(), kernels.bound_attention,
                 qt[:, None], kt, vt, scale, out, ws=kernels._attention_ws(lk, d, dv),
                 probs=probs)
    return out[:, 0].transpose(0, 2, 1), None if probs is None else probs[:, 0]


def assert_same_nan_rule(got: np.ndarray, want: np.ndarray) -> None:
    """Bytes must match; where the reference has NaN, only the NaN positions must.

    Attention can make a NaN from NaN-free inputs (inf - inf in the row
    max subtraction, inf * 0 in a score), and its bits are not fixed either.
    """
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.data(), st.integers(0, 3), st.integers(0, 13), keys, st.integers(0, 9), st.integers(0, 9),
    st.booleans(),
)
def test_attention_matches_reference(data, bn, lq, lk, d, dv, special):
    q = data.draw(tensor((bn, lq, d), special))
    k = data.draw(tensor((bn, lk, d), special))
    v = data.draw(tensor((bn, lk, dv), special))
    if bn and lq and data.draw(st.booleans()):
        q[data.draw(st.integers(0, bn - 1)), data.draw(st.integers(0, lq - 1))] = -0.0
    if bn and lk and data.draw(st.booleans()):
        k[data.draw(st.integers(0, bn - 1)), data.draw(st.integers(0, lk - 1))] = -0.0
    scale = np.float32(1.0 / np.sqrt(d)) if d else np.float32(1.0)
    with np.errstate(all="ignore"):
        want = kernels._attention_np(q, k, v, scale)
        got = lane_attention(q, k, v, scale)
    for g, w in zip(got, want):
        assert_same_nan_rule(g, w)


def test_attention_special_score_rows_match_reference():
    """-0.0 queries, rows of +-inf and NaN scores, and single +-inf scores among finite ones."""
    d, lk = 3, 17
    rng = np.random.default_rng(5)
    q = np.abs(rng.standard_normal((3, 5, d), dtype=np.float32)) + np.float32(0.5)
    k = rng.standard_normal((3, lk, d), dtype=np.float32)
    v = rng.standard_normal((3, lk, 4), dtype=np.float32)
    k[:, :, 0] = np.abs(k[:, :, 0]) + np.float32(1.0)
    q[0, 0] = -0.0               # every score +0.0: uniform probabilities
    q[0, 1] = [np.inf, 0, 0]     # every score +inf: inf - inf gives a NaN row
    q[0, 2] = [-np.inf, 0, 0]    # every score -inf: NaN row
    q[0, 3] = [np.nan, 0, 0]     # NaN scores
    k[1, 6] = [-np.inf, 0, 0]    # one -inf score per row: weight exactly 0
    k[2, 5] = [np.inf, 0, 0]     # one +inf score per row: NaN row
    scale = np.float32(1.0 / np.sqrt(d))
    with np.errstate(all="ignore"):
        want = kernels._attention_np(q, k, v, scale)
        got = lane_attention(q, k, v, scale)
    for g, w in zip(got, want):
        assert_same_nan_rule(g, w)
    probs = got[1]
    assert np.all(probs[0, 0] == np.float32(1.0) / np.float32(lk))
    assert np.isnan(probs[0, 1:4]).all() and not np.isnan(probs[0, 4]).any()
    assert not np.isnan(probs[1]).any() and np.all(probs[1, :, 6] == 0.0)
    assert np.isnan(probs[2]).all()


def test_attention_batch_slabs_give_the_bytes_of_one_call(monkeypatch):
    """The reference in slabs of 2 items, and the library's one op, give the bytes of the
    reference on all 5 items at once."""
    rng = np.random.default_rng(6)
    q = rng.standard_normal((5, 7, 4), dtype=np.float32)
    k = rng.standard_normal((5, 9, 4), dtype=np.float32)
    v = rng.standard_normal((5, 9, 3), dtype=np.float32)
    want = kernels._attention_np(q, k, v, np.float32(0.5))
    monkeypatch.setattr(kernels, "_ATTN_SLAB", 2 * 7 * 9)
    for reference in (False, True):
        out, probs = lane_attention(q, k, v, np.float32(0.5), reference=reference)
        assert out.tobytes() == want[0].tobytes()
        assert probs.tobytes() == want[1].tobytes()


# The attention kernel holds 4, 8 or 16 query lanes (by the build's vector
# width) per block; these lengths fill one exactly, leave a tail, or span
# many blocks, and the keys and dims straddle the 8 of their zero padding.
LANE_QUERIES = [1, 15, 16, 17, 113, 256]
LANE_KEYS = [1, 4, 6, 17, 512, 600]
LANE_DIMS = [1, 4, 8, 9, 16, 17]


def special_rows(q: np.ndarray, k: np.ndarray) -> None:
    """-0.0 queries and keys, a query row of +inf, one of -inf and one of NaN scores,
    and a single +-inf key, where the shapes have room for them."""
    n, lq, _ = q.shape
    q[0, 0] = -0.0
    k[-1, 0] = -0.0
    for row, value in zip((1, 2, 3), (np.inf, -np.inf, np.nan)):
        if row < lq:
            q[0, row, 0] = value
    if n > 1 and k.shape[1] > 2:
        k[1, 2, 0] = -np.inf
        k[1, 1, -1] = np.inf


@pytest.mark.parametrize("lk", LANE_KEYS)
@pytest.mark.parametrize("lq", LANE_QUERIES)
def test_lane_attention_matches_reference_at_block_edges(lq, lk):
    """Every lq x lk pair, the dims cycling through LANE_DIMS, with special rows; the
    output bytes do not depend on whether the probabilities are kept."""
    i = LANE_QUERIES.index(lq) + LANE_KEYS.index(lk)
    d, dv = LANE_DIMS[i % 6], LANE_DIMS[(i + 2) % 6]
    rng = np.random.default_rng(lq * 1000 + lk)
    q = rng.standard_normal((2, lq, d), dtype=np.float32)
    k = rng.standard_normal((2, lk, d), dtype=np.float32)
    v = rng.standard_normal((2, lk, dv), dtype=np.float32)
    special_rows(q, k)
    scale = np.float32(1.0 / np.sqrt(d))
    with np.errstate(all="ignore"):
        want = kernels._attention_np(q, k, v, scale)
        kept = lane_attention(q, k, v, scale)
        bare = lane_attention(q, k, v, scale, keep_probs=False)
    for g, w in zip(kept, want):
        assert_same_nan_rule(g, w)
    assert bare[1] is None
    assert_same_nan_rule(bare[0], kept[0])
    assert np.array_equal(np.isnan(bare[0]), np.isnan(kept[0]))


@pytest.mark.parametrize("lanes", LANE_QUERIES)
@pytest.mark.parametrize("rows, lk", [(1, 1), (4, 4), (3, 6), (4, 17)])
def test_attention_with_keys_per_lane_matches_reference(lanes, rows, lk):
    """The temporal site's layout: each lane (a location) has its own keys and its
    queries are the rows (its frames)."""
    d, dv = LANE_DIMS[lanes % 6], LANE_DIMS[(lanes + rows) % 6]
    rng = np.random.default_rng(lanes * 100 + rows * 10 + lk)
    q = rng.standard_normal((2, rows, d, lanes), dtype=np.float32)
    k = rng.standard_normal((2, lk, d, lanes), dtype=np.float32)
    v = rng.standard_normal((2, lk, dv, lanes), dtype=np.float32)
    q[0, 0, :, 0] = -0.0
    k[1, -1, 0, -1] = np.inf
    scale = np.float32(1.0 / np.sqrt(d))
    outs = []
    for lib in (None, kernels._compiled()):
        out = np.full((2, rows, dv, lanes), np.nan, np.float32)
        probs = np.full((2, rows, lanes, lk), np.nan, np.float32)
        with np.errstate(all="ignore"):
            kernels._run(lib, kernels.bound_attention, q, k, v, scale, out,
                         ws=kernels._attention_ws(lk, d, dv, lane_keys=True), probs=probs)
        outs.append((out, probs))
    for g, w in zip(outs[1], outs[0]):
        assert_same_nan_rule(g, w)
    tokens = kernels._attention_np(  # lane 0 of item 0, as one item of token rows
        np.ascontiguousarray(q[0, :, :, 0])[None], np.ascontiguousarray(k[0, :, :, 0])[None],
        np.ascontiguousarray(v[0, :, :, 0])[None], scale)
    assert outs[1][0][0, :, :, 0].tobytes() == tokens[0][0].tobytes()


@pytest.mark.parametrize("kitems", [1, 3])
def test_attention_with_broadcast_and_shared_keys_matches_reference(kitems):
    """Keys of 1 or 3 items read by 6 (item b reads b % kitems), followed by keys that
    every item shares (a reference site's reference tokens); the reference runs the
    items in one slab and in slabs of 3, the library in one op either way."""
    rng = np.random.default_rng(11)
    q = rng.standard_normal((6, 1, 8, 40), dtype=np.float32)
    k, v = (rng.standard_normal((kitems, 8, 33), dtype=np.float32) for _ in range(2))
    k2, v2 = (rng.standard_normal((8, 20), dtype=np.float32) for _ in range(2))
    scale = np.float32(0.5)
    keys, values = (np.concatenate([a[np.arange(6) % kitems], np.broadcast_to(a2, (6, 8, 20))], 2)
                    for a, a2 in ((k, k2), (v, v2)))
    want = kernels._attention_np(q[:, 0].transpose(0, 2, 1), keys.transpose(0, 2, 1),
                                 values.transpose(0, 2, 1), scale)
    for lib in (None, kernels._compiled()):
        for slab in (kernels._ATTN_SLAB, 2 * 40 * 53):  # one slab, then slabs of 3 items
            out = np.full((6, 1, 8, 40), np.nan, np.float32)
            probs = np.full((6, 1, 40, 53), np.nan, np.float32)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "_ATTN_SLAB", slab)
                kernels._run(lib, kernels.bound_attention, q, k, v, scale, out,
                             ws=kernels._attention_ws(53, 8, 8), k2=k2, v2=v2, probs=probs)
            assert out[:, 0].transpose(0, 2, 1).tobytes() == want[0].tobytes()
            assert probs[:, 0].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("c", [1, 7, 8, 9, 16, 128, 129, 300])
def test_token_norm_matches_reference_on_transposed_tokens(c):
    """The token norm with the tokens on the lanes (37 of them: full vectors and a
    tail) gives the bytes of the reference's norm over each token's contiguous
    channels, numpy's pairwise order; the SiLU gate too."""
    rng = np.random.default_rng(c)
    x = rng.standard_normal((2, c, 37), dtype=np.float32)
    x *= np.exp2(rng.integers(-9, 9, (c, 1))).astype(np.float32)
    x[0, :, 3] = -0.0
    x[1, 0, 5] = 3e-39
    x[1, :, 36] = np.inf
    tokens = np.ascontiguousarray(x.transpose(0, 2, 1))  # (2, 37, c)
    with np.errstate(all="ignore"):
        want, want_gate = (np.ascontiguousarray(a.transpose(0, 2, 1))
                           for a in kernels._rms_norm_np(tokens, -1, True))
        got, gate = compiled((x, x), kernels.bound_rms_norm, x, 1, tokens=True)
    assert_same_nan_rule(got, want)
    assert_same_nan_rule(gate, want_gate)


def run_with_canary(bound, *args, ws: int, **kwargs) -> None:
    """Run a bound step on the compiled library with a scratch block of exactly ``ws``
    bytes, followed by 64 canary bytes that must come back untouched."""
    block = np.full(ws + 64, 0xA5, np.uint8)
    lib = kernels._compiled()
    for call in kernels.program(lib, bound(lib, *args, block.ctypes.data, **kwargs)):
        call()
    assert (block[ws:] == 0xA5).all(), bound.__name__


def test_every_scratch_size_bounds_what_its_kernel_carves():
    """Each op kind that takes scratch memory, at shapes that take its padded copies,
    writes inside the bytes its ``_*_ws`` declares, and gives the reference bytes."""
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((13, 37), dtype=np.float32), rng.standard_normal((37, 21),
                                                                                 dtype=np.float32)
    out = np.empty((13, 21), np.float32)
    run_with_canary(kernels.bound_channel_mix, a[:, :, None], b, out[:, :, None],
                    ws=kernels._channel_mix_ws(37, 1, 21))  # the eager matmul's step
    assert out.tobytes() == kernels._matmul_np(a, b).tobytes()

    x = rng.standard_normal((3, 5, 5, 3), dtype=np.float32)
    w = rng.standard_normal((5, 9), dtype=np.float32)
    base = rng.standard_normal((3, 9, 5, 3), dtype=np.float32)
    out = np.empty((3, 9, 5, 3), np.float32)
    run_with_canary(kernels.bound_channel_mix, x, w, out, ws=kernels._channel_mix_ws(5, 15, 9),
                    base=base)
    assert out.tobytes() == kernels._conv_epilogue_np(kernels._channel_mix_np(x, w), None,
                                                      base).tobytes()

    conv = kernels.PackedConv(rng.standard_normal((6, 5, 3, 3), dtype=np.float32),
                              rng.standard_normal(6, dtype=np.float32))
    for stride in (1, 2):
        want = kernels._conv2d_frames_np(x, conv, stride)
        out = np.empty_like(want)
        run_with_canary(kernels.bound_conv2d_frames, x, conv, out,
                        ws=kernels._conv_ws(3, 5, 5, 3, stride), stride=stride)
        assert out.tobytes() == want.tobytes()

    q = rng.standard_normal((3, 1, 9, 21), dtype=np.float32)
    k, v = (rng.standard_normal((3, 9, 30), dtype=np.float32) for _ in range(2))
    k2, v2 = (rng.standard_normal((9, 7), dtype=np.float32) for _ in range(2))
    outs = [np.empty((3, 1, 9, 21), np.float32) for _ in range(2)]
    probs = [np.empty((3, 1, 21, 37), np.float32) for _ in range(2)]
    kernels._run(None, kernels.bound_attention, q, k, v, np.float32(0.5), outs[0],
                 k2=k2, v2=v2, probs=probs[0], ws=0)
    run_with_canary(kernels.bound_attention, q, k, v, np.float32(0.5), outs[1],
                    ws=kernels._attention_ws(37, 9, 9), k2=k2, v2=v2, probs=probs[1])
    assert outs[1].tobytes() == outs[0].tobytes() and probs[1].tobytes() == probs[0].tobytes()

    q = rng.standard_normal((2, 3, 9, 21), dtype=np.float32)
    k, v = (rng.standard_normal((2, 5, 9, 21), dtype=np.float32) for _ in range(2))
    outs = [np.empty((2, 3, 9, 21), np.float32) for _ in range(2)]
    kernels._run(None, kernels.bound_attention, q, k, v, np.float32(0.5), outs[0], ws=0)
    run_with_canary(kernels.bound_attention, q, k, v, np.float32(0.5), outs[1],
                    ws=kernels._attention_ws(5, 9, 9, lane_keys=True))
    assert outs[1].tobytes() == outs[0].tobytes()


def test_conv_border_inf_weight_gives_nan_like_reference():
    x = np.ones((1, 1, 3, 3), np.float32)
    w = np.zeros((1, 1, 3, 3), np.float32)
    w[0, 0, 0, 0] = np.inf
    conv = kernels.PackedConv(w, np.zeros(1, np.float32))
    with np.errstate(invalid="ignore"):
        want = kernels._conv2d_frames_np(x, conv, 1)
    got = compiled(want, kernels.bound_conv2d_frames, x, conv, ws=kernels._conv_ws(1, 1, 3, 3, 1))
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got[0, 0, 0]).all() and np.isnan(got[0, 0, :, 0]).all()
    assert got[0, 0, 1, 1] == np.inf


def test_kernels_c_builds_without_warnings(tmp_path):
    """kernels.c compiles with the library's flags and every common warning as an error."""
    done = subprocess.run(
        [native.COMPILER, *native.FLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernels.so"), str(native.SOURCE)],
        capture_output=True, text=True, timeout=native.BUILD_TIMEOUT_S,
    )
    assert done.returncode == 0, done.stderr


def test_kernels_refuse_strided_and_non_float32_arrays():
    """The kernels ignore strides, so a view that is not C-contiguous must be refused."""
    a = np.ones((4, 6, 1), np.float32)
    b = np.ones((3, 5), np.float32)
    out = np.empty((4, 5, 1), np.float32)
    with pytest.raises(ValueError, match="C-contiguous float32"):
        compiled(out, kernels.bound_channel_mix, a[:, ::2], b, ws=kernels._channel_mix_ws(3, 1, 5))
    with pytest.raises(ValueError, match="C-contiguous float32"):
        compiled(out, kernels.bound_channel_mix, a[:, :3].astype(np.float64), b,
                 ws=kernels._channel_mix_ws(3, 1, 5))


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_zero_item_batches_give_empty_results(backend):
    """With no item the attention step and matmul_batch run, and give empty arrays."""
    q, k, v = (np.zeros((0, rows, c), np.float32) for rows, c in ((3, 4), (5, 4), (5, 2)))
    before = kernels.active_backend()
    try:
        kernels.set_backend(backend)
        mm = kernels.matmul_batch(np.zeros((0, 3, 4), np.float32), np.zeros((0, 4, 6), np.float32))
    finally:
        kernels.set_backend(before)
    out, probs = lane_attention(q, k, v, np.float32(0.5), reference=backend == "numpy")
    bare = lane_attention(q, k, v, np.float32(0.5), False, reference=backend == "numpy")
    assert (out.shape, probs.shape, mm.shape) == ((0, 3, 2), (0, 3, 5), (0, 3, 6))
    assert out.dtype == probs.dtype == mm.dtype == np.float32
    assert bare[0].shape == (0, 3, 2) and bare[1] is None


class PerturbedNorm:
    """The compiled library, except that its norm ops add one ulp to their first output."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def cd_run(self, ops, n):
        slots = kernels._OP_SLOTS
        table = np.ctypeslib.as_array((ctypes.c_int64 * (n * slots)).from_address(ops))
        for i in range(n):  # one record at a time, so that each output can be perturbed
            self._lib.cd_run(ops + 8 * slots * i, 1)
            if table[i * slots] == kernels._OP_NORM:
                first = ctypes.c_float.from_address(int(table[i * slots + 2]))
                first.value = np.nextafter(np.float32(first.value), np.float32(np.inf))


def test_load_time_check_refuses_a_library_that_differs_from_the_reference(monkeypatch):
    lib = kernels._compiled()
    assert kernels._self_check(lib) is None
    assert kernels._self_check(PerturbedNorm(lib)) == (
        "compiled rms_norm rows differs from the numpy reference")
    monkeypatch.setattr(native, "load", lambda: (PerturbedNorm(lib), None))
    monkeypatch.setattr(kernels, "_lib", None)
    monkeypatch.setattr(kernels, "_lib_error", None)
    assert "differs from the numpy reference" in kernels.compiled_error()
    assert kernels.active_library() is None and kernels.active_backend() == "numpy"
    with pytest.raises(ConfigError, match="compiled backend unavailable"):
        kernels.set_backend("compiled")


# Bound steps of a plan and the arguments each writes.
BOUND_OUTPUTS = {
    "bound_channel_mix": ("out",),
    "bound_conv2d_frames": ("out",),
    "bound_rms_norm": ("out", "gate"),
    "bound_attention": ("out", "probs"),
    "bound_copy": ("dst",),
}


def test_default_forward_pass_kernel_calls_match_reference(monkeypatch):
    """Every bound step of a planned default-size forward pass gives the reference bytes.

    The pass walks its plan's steps here: each step's op records run on the
    plan's buffers, one ``cd_run`` call per step, while their inputs are
    recorded; each is then replayed under the numpy backend on copies.
    """
    cfg = UNetConfig()
    model = ToyUNet(cfg, init_weights(cfg, 0)[0])
    cond = build_conditioning(RunConfig())[0][0]
    z = Rng(0).child(2).normal((1, cfg.latent_channels, cfg.frames, cfg.height, cfg.width))
    steps, bound_now = [], []

    def recording(name, bound):
        sig = inspect.signature(bound)

        def wrapped(lib, *args, **kwargs):
            records = bound(lib, *args, **kwargs)
            assert all(isinstance(r, kernels.Op) for r in records)
            bound_now.append((name, sig.bind(lib, *args, **kwargs).arguments))
            return records

        return wrapped

    def walk(plan, lib, log, feeds):
        """Plan.run, with each step bound, recorded and run on its own."""
        for name, buf, view in plan.inputs:
            np.copyto(view(buf.a), feeds[name])
        for bind in plan.steps:
            bound_now.clear()
            records = bind(lib)
            [(name, arguments)] = bound_now
            inputs = {k: v.copy() if isinstance(v, np.ndarray) else v
                      for k, v in arguments.items()}
            [call] = kernels.program(lib, records)
            call()
            written = {k: arguments[k].tobytes() for k in BOUND_OUTPUTS[name]
                       if arguments.get(k) is not None}
            steps.append((name, inputs, written))
        return {name: read(src.a) for name, src, read in plan.results}

    originals = {name: getattr(kernels, name) for name in BOUND_OUTPUTS}
    for name, bound in originals.items():
        monkeypatch.setattr(kernels, name, recording(name, bound))
    monkeypatch.setattr(Plan, "run", walk)
    before = kernels.active_backend()
    try:
        kernels.set_backend("compiled")
        model.forward(z, 500, cond)
    finally:
        kernels.set_backend(before)
    assert all(inputs["lib"] is kernels._compiled() for _, inputs, _ in steps)
    kinds = Counter(name for name, _, _ in steps)
    assert kinds == {"bound_conv2d_frames": 46, "bound_rms_norm": 56, "bound_channel_mix": 47,
                     "bound_attention": 9, "bound_copy": 13}
    assert len(steps) == 171
    convs = [inputs for name, inputs, _ in steps if name == "bound_conv2d_frames"]
    assert sum(c["gate"] is not None for c in convs) == 39  # 19 units x 2 and the head
    assert sum(c["add"] is not None for c in convs) == sum(c["base"] is not None for c in convs) == 19
    for name, inputs, written in steps:
        args = dict(inputs, lib=None)
        for k in written:
            args[k] = np.full_like(inputs[k], np.nan)
        for call in originals[name](**args):
            call()
        assert {k: args[k].tobytes() for k in written} == written, name


def test_concurrent_calls_from_more_threads_than_cores_give_reference_bytes():
    """The kernels hold no shared scratch memory, so threads cannot clobber each other."""
    rng = np.random.default_rng(3)
    jobs = []
    for i in range(8):
        x = rng.standard_normal((2, 8 + i, 8, 8), dtype=np.float32)
        conv = kernels.PackedConv(rng.standard_normal((16 + 4 * i, 8 + i, 3, 3), dtype=np.float32),
                                  rng.standard_normal(16 + 4 * i, dtype=np.float32))
        a = rng.standard_normal((40 + i, 30), dtype=np.float32)
        b = rng.standard_normal((30, 17 + i), dtype=np.float32)
        qkv = (rng.standard_normal((2, 30 + i, 8), dtype=np.float32),
               rng.standard_normal((2, 40 + 3 * i, 8), dtype=np.float32),
               rng.standard_normal((2, 40 + 3 * i, 8), dtype=np.float32), np.float32(0.25))
        normed, gate = kernels._rms_norm_np(x, 1, True)
        want = [kernels._conv2d_frames_np(x, conv, 1 + i % 2), kernels._matmul_np(a, b)[:, :, None],
                *kernels._attention_np(*qkv), normed, gate,
                kernels._conv2d_frames_np(normed, conv, 1, gate)]
        jobs.append((x, conv, 1 + i % 2, a, b, qkv, want))
    bad = []

    def work(job):
        x, conv, stride, a, b, qkv, want = job
        k, n = b.shape
        for _ in range(30):
            normed, gate = compiled((x, x), kernels.bound_rms_norm, x, 1)
            got = [
                compiled(want[0], kernels.bound_conv2d_frames, x, conv,
                         ws=kernels._conv_ws(*x.shape, stride), stride=stride),
                compiled(want[1], kernels.bound_channel_mix, a[:, :, None], b,
                         ws=kernels._channel_mix_ws(k, 1, n)),
                *lane_attention(*qkv),
                normed, gate,
                compiled(want[6], kernels.bound_conv2d_frames, normed, conv,
                         ws=kernels._conv_ws(*x.shape, 1), gate=gate),
            ]
            if any(g.tobytes() != w.tobytes() for g, w in zip(got, want)):
                bad.append(job)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(job,)) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad


def test_model_built_under_compiled_runs_under_numpy_with_the_same_bytes():
    """Conv weights are packed once, in one layout that both backends read."""
    cfg = UNetConfig()
    cond = build_conditioning(RunConfig())[0][0]
    z = Rng(0).child(2).normal((1, cfg.latent_channels, cfg.frames, cfg.height, cfg.width))
    before = kernels.active_backend()
    try:
        kernels.set_backend("compiled")
        model = ToyUNet(cfg, init_weights(cfg, 0)[0])
        want = model.forward(z, 500, cond)
        kernels.set_backend("numpy")
        got = model.forward(z, 500, cond)
        rebuilt = ToyUNet(cfg, init_weights(cfg, 0)[0])
    finally:
        kernels.set_backend(before)
    assert got.eps.tobytes() == want.eps.tobytes()
    assert got.f_u31.tobytes() == want.f_u31.tobytes()
    for name, conv in model.convs.items():
        assert conv.w.tobytes() == rebuilt.convs[name].w.tobytes()


def test_plan_built_under_compiled_runs_under_numpy_with_the_same_bytes():
    """A pass reads the backend once: a plan bound under one backend runs under the other."""
    cfg = UNetConfig()
    model = ToyUNet(cfg, init_weights(cfg, 0)[0])
    cond = build_conditioning(RunConfig())[0][0]
    z = Rng(0).child(2).normal((1, cfg.latent_channels, cfg.frames, cfg.height, cfg.width))
    zs = np.concatenate([z, np.float32(0.5) * z])

    def passes():
        tr = model.forward(z, 500, cond, keep_bg=True, removal_active=True)
        eps = model.subnet(tr.f_u31, zs, [480, 460], cond, dfa=tr.dfa, removal_active=True)
        return [tr.eps.tobytes(), tr.f_u31.tobytes(), eps.tobytes()] + [
            c.bg.tobytes() for c in tr.dfa.values()]

    before = kernels.active_backend()
    try:
        kernels.set_backend("compiled")
        want = passes()
        plans = len(model._plans)
        kernels.set_backend("numpy")
        got = passes()
        kernels.set_backend("compiled")
        again = passes()
    finally:
        kernels.set_backend(before)
    assert len(model._plans) == plans == 2
    assert got == want
    assert again == want


# ---------------------------------------------------------------------------
# numpy's exp inside the library


def library_exp(x: np.ndarray) -> None:
    """x = exp(x) in place by the compiled library's exp op."""
    kernels._run(kernels._compiled(), kernels.bound_exp, x)


def assert_exp_matches_numpy(x: np.ndarray) -> None:
    with np.errstate(all="ignore"):
        want = np.exp(x)
    library_exp(x)
    assert x.tobytes() == want.tobytes()


def test_library_exp_matches_numpy_on_a_dense_stride_of_all_float32_bit_patterns():
    bits = np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32)
    assert_exp_matches_numpy(bits.view(np.float32).copy())


def test_library_exp_matches_numpy_on_special_values():
    """Signed zeros, infinities, NaNs of both signs with payloads, subnormals, and the
    arguments around the overflow and underflow edges of float32 exp."""
    f32 = np.float32
    nans = np.array([0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF800001, 0x7FC12345, 0x7FBFFFFF],
                    np.uint32).view(f32)
    subnormals = np.array([1, 2, 0x3FFFFF, 0x400000, 0x7FFFFF], np.uint32).view(f32)
    edges = [f32(88.72283), f32(-87.33654), f32(-103.97208), f32(-88.72284), f32(0.0)]
    near = [np.nextafter(e, f32(d) * np.inf, dtype=f32) for e in edges for d in (1, -1)]
    x = np.concatenate([
        np.array([0.0, -0.0, np.inf, -np.inf, 3.4028235e38, -3.4028235e38], f32),
        nans, subnormals, -subnormals, np.array(edges + near, f32),
    ])
    assert_exp_matches_numpy(x)


def test_library_exp_matches_numpy_at_odd_offsets_and_lengths():
    """Every start offset within two vectors and every length from 1 to 100, which
    covers the vector loop's tails."""
    rng = np.random.default_rng(8)
    buf = np.empty(200, np.float32)
    for offset in range(32):
        for n in range(1, 101):
            x = buf[offset : offset + n]
            x[...] = rng.uniform(-110.0, 95.0, n).astype(np.float32)
            assert_exp_matches_numpy(x)


# The signature of a numpy ufunc inner loop: args, dimensions, steps, data.
UFUNC_LOOP = ctypes.CFUNCTYPE(None, ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_long),
                              ctypes.POINTER(ctypes.c_long), ctypes.c_void_p)


def test_load_time_check_refuses_a_library_with_a_wrong_exp_loop(monkeypatch, tmp_path):
    """A loop that perturbs one value of numpy's exp is refused with one line, and the
    backend falls back to the reference.  The library is a copy, loaded on its own,
    so that the exp loop of the library in use stays untouched."""
    copy = tmp_path / "kernels-copy.so"
    shutil.copy(kernels._compiled()._name, copy)
    lib = native.open_library(copy)
    assert kernels._self_check(lib) is None
    real = UFUNC_LOOP(native.numpy_exp_loop()[0])

    def perturbed(args, dims, steps, data):
        real(args, dims, steps, data)
        first = ctypes.c_float.from_address(args[1])
        first.value = np.nextafter(np.float32(first.value), np.float32(np.inf))

    fake = UFUNC_LOOP(perturbed)
    lib.cd_set_exp(ctypes.cast(fake, ctypes.c_void_p), None)
    assert kernels._self_check(lib) == "compiled exp differs from the numpy reference"
    monkeypatch.setattr(native, "load", lambda: (lib, None))
    monkeypatch.setattr(kernels, "_lib", None)
    monkeypatch.setattr(kernels, "_lib_error", None)
    assert kernels.compiled_error() == "compiled exp differs from the numpy reference"
    assert kernels.active_library() is None and kernels.active_backend() == "numpy"


def test_a_failed_exp_lookup_refuses_the_library(monkeypatch):
    def unreadable():
        raise OSError("np.exp's loop types do not match its ufunc.types")

    monkeypatch.setattr(native, "numpy_exp_loop", unreadable)
    assert native.load() == (None, "np.exp's loop types do not match its ufunc.types")
    monkeypatch.setattr(kernels, "_lib", None)
    monkeypatch.setattr(kernels, "_lib_error", None)
    assert kernels.compiled_error() == "np.exp's loop types do not match its ufunc.types"
    assert kernels.active_backend() == "numpy"


# ---------------------------------------------------------------------------
# glue ops: each must write the bytes of its numpy calls

GLUE = [0.0, -0.0, 1e-40, -3e-39, np.inf, -np.inf]


def glue_tensor(shape):
    return arrays(np.float32, shape, elements=st.one_of(FINITE, st.sampled_from(GLUE)))


def on_both(bound, make):
    """The arrays of ``make()`` after the step ran on the reference and on the library."""
    runs = []
    for lib in (None, kernels._compiled()):
        args = make()
        with np.errstate(all="ignore"):
            kernels._run(lib, bound, *args)
        runs.append([a for a in args if isinstance(a, np.ndarray)])
    return runs


# up to five short axes, or up to three that span several of the kernels' 16 x 16 tiles
glue_shape = st.one_of(st.lists(st.integers(0, 5), min_size=1, max_size=5),
                       st.lists(st.integers(1, 40), min_size=1, max_size=3)).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.data(), glue_shape)
def test_copy_of_permuted_sliced_and_broadcast_views_matches_numpy(data, shape):
    perm = data.draw(st.permutations(range(len(shape))))
    base = data.draw(glue_tensor(tuple(shape[i] for i in perm)))
    src = base.transpose(np.argsort(perm))  # a permuted view of shape ``shape``
    if data.draw(st.booleans()):  # broadcast one axis
        axis = data.draw(st.integers(0, len(shape) - 1))
        src = np.broadcast_to(src.take([0] if shape[axis] else [], axis=axis), shape)
    wide = data.draw(st.integers(0, 3))  # dst: a slice of a wider last axis

    def make():
        dst = np.full(shape[:-1] + (shape[-1] + wide,), np.nan, np.float32)
        return dst[..., wide:], src

    ref, got = on_both(kernels.bound_copy, make)
    assert got[0].tobytes() == ref[0].tobytes()


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 9), st.integers(1, 5), st.integers(1, 3))
def test_row_gather_and_scatter_match_numpy(data, outer, n, inner, souter):
    x = data.draw(glue_tensor((outer, n, inner)))
    index = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), np.int64)
    ref, got = on_both(kernels.bound_gather,
                       lambda: (x, index, np.full((outer, len(index), inner), np.nan, np.float32)))
    assert got[-1].tobytes() == ref[-1].tobytes() == np.take(x, index, axis=1).tobytes()
    src = data.draw(glue_tensor((souter, len(index), inner)))
    full = data.draw(glue_tensor((souter * outer, n, inner)))
    ref, got = on_both(kernels.bound_scatter, lambda: (src, index, full.copy()))
    assert got[-1].tobytes() == ref[-1].tobytes()


# ---------------------------------------------------------------------------
# one library call per pass


class CountingLibrary:
    """The compiled library, counting its ``cd_run`` calls."""

    def __init__(self, lib):
        self._lib = lib
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def cd_run(self, ops, n):
        self.calls += 1
        self._lib.cd_run(ops, n)


def test_an_unhooked_pass_is_one_library_call(monkeypatch):
    """forward, with and without background rows kept, the diagnose forward (background
    rows and kept probabilities), and a stacked subnet each make exactly one call
    into the library, once their timesteps' time rows exist (two eager matmuls each,
    made once per timestep)."""
    counting = CountingLibrary(kernels._compiled())
    monkeypatch.setattr(kernels, "_lib", counting)
    monkeypatch.setattr(kernels, "_active", "compiled")
    cfg = UNetConfig()
    model = ToyUNet(cfg, init_weights(cfg, 0)[0])
    cond = build_conditioning(RunConfig())[0][0]
    z = Rng(0).child(2).normal((1, cfg.latent_channels, cfg.frames, cfg.height, cfg.width))
    zs = np.concatenate([z, np.float32(0.5) * z])

    def calls(run_pass) -> int:
        before = counting.calls
        run_pass()
        return counting.calls - before

    for t in (500, 480, 460):
        assert calls(lambda: model._time_row(t)) == 2
        assert calls(lambda: model._time_row(t)) == 0
    for _ in range(2):  # the first pass of each kind builds its plan
        assert calls(lambda: model.forward(z, 500, cond)) == 1
        tr = model.forward(z, 500, cond, keep_bg=True, removal_active=True)
        assert calls(lambda: model.forward(z, 500, cond, keep_bg=True, removal_active=True)) == 1
        assert calls(lambda: model.subnet(tr.f_u31, zs, [480, 460], cond, dfa=tr.dfa,
                                          removal_active=True)) == 1
        assert calls(lambda: model.subnet(tr.f_u31, z, 480, cond)) == 1
        assert calls(lambda: model.forward(z, 500, cond, keep_bg=True, keep_probs=True)) == 1
