"""Attention sites with an optional foreground-restricted fast path.

Each attention layer carries three sites, applied in order:

* ``reference`` - spatial self-attention per frame where K/V concatenate
  the noisy tokens with static reference tokens;
* ``audio`` - cross-attention per frame against audio tokens;
* ``temporal`` - per-location attention across the frame axis.

Every site takes a stack of frames and runs each projection as one matmul
and the attention of all frames as one batched attention step.  Rows
never mix, so a stack gives the bytes of one call per frame.  Spatial
sites take tokens of shape (..., L, c), where a 2-d input is one frame;
the temporal site takes (..., L, f, c).

The restricted path computes attention only for foreground queries (for
the reference site also only foreground K/V rows) and fills background
rows from a cache written at the most recent full pass.  The cache is
broadcast over any leading axes it lacks, so one key step's cache serves
a stack of several samples.  With an all-ones mask the restricted path
degenerates to the full path bit-exactly because both run the same kernel
sequence on identical inputs.

Each site has one implementation, the planned site at the end of this
module, which a model's passes build into their plans.  The public
functions are entry points for every other caller: each builds a plan of
its one site, runs it once on the active kernel backend and returns
copies of its results.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CacheMissError, InvariantError
from .kernels import matmul  # noqa: F401  (a name of this module the benchmark's tracer wraps)
from .masks import ForegroundMask
from .plan import Buf, Plan
from .profiler import FlopLog


@dataclass
class DfaContext:
    """Restriction context for one layer/site: mask plus cached background rows."""

    mask: ForegroundMask
    bg: np.ndarray | None


def select_tokens(x: np.ndarray, index: np.ndarray, axis: int = 0) -> np.ndarray:
    """Gather rows of x along ``axis`` into a new C-contiguous array; index must be
    ascending and unique."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"index must be 1-d, got shape {idx.shape}")
    if idx.size:
        if idx[0] < 0 or idx[-1] >= x.shape[axis]:
            raise ValueError(f"index out of range for {x.shape[axis]} rows")
        if (idx[1:] <= idx[:-1]).any():
            raise ValueError("index must be strictly ascending")
    return np.ascontiguousarray(np.take(x, idx, axis=axis))


def merge_tokens(
    a_fg: np.ndarray, a_bg: np.ndarray | None, mask: ForegroundMask, axis: int = 0
) -> np.ndarray:
    """Scatter foreground and cached background rows back to full length along ``axis``.

    ``a_bg`` may lack leading axes of ``a_fg``; it is broadcast over them.
    """
    axis %= a_fg.ndim
    if a_fg.shape[axis] != mask.num_fg:
        raise InvariantError(f"merge: {a_fg.shape[axis]} fg rows for {mask.num_fg} fg sites")
    if mask.num_bg == 0:
        return np.ascontiguousarray(a_fg)
    if a_bg is None:
        raise CacheMissError("merge: background rows required but no cache present")
    want = a_fg.shape[:axis] + (mask.num_bg,) + a_fg.shape[axis + 1 :]
    if a_bg.ndim > len(want) or a_bg.shape != want[len(want) - a_bg.ndim :]:
        raise InvariantError(
            f"merge: bg shape {a_bg.shape} incompatible with fg shape {a_fg.shape}"
        )
    out = np.empty(want[:axis] + (mask.num_fg + mask.num_bg,) + want[axis + 1 :], np.float32)
    rows = (slice(None),) * axis
    out[rows + (mask.fg_index,)] = a_fg
    out[rows + (mask.bg_index,)] = a_bg
    return out


def _site_weights(weights: dict[str, np.ndarray], prefix: str):
    return tuple(weights[f"{prefix}.{n}"] for n in ("wq", "wk", "wv", "wo"))


def _run_site(plan_site, inputs: tuple, weights, prefix: str, dfa, log, **kw):
    """``plan_site`` on ``inputs`` (tokens first) as a one-site plan on a fresh arena.

    Returns (delta, a) shaped to the tokens' leading axes; ``a`` is None on
    the restricted path.
    """
    if any(x.dtype != np.float32 for x in inputs):
        raise ValueError("attention sites take float32 tokens")
    p = Plan()
    bufs = [p.input(i, x.shape) for i, x in enumerate(inputs)]
    delta, a = plan_site(p, *bufs, weights, prefix, ctx=dfa, **kw)[:2]
    lead = inputs[0].shape[:-2]
    for name, r in (("delta", delta), ("a", a)):
        if r is not None:
            p.result(name, r, lambda v: v.reshape(lead + v.shape[-2:]).copy())
    plan = p.finish()
    plan.place(np.empty(plan.floats, np.float32), np.empty(plan.ws_bytes, np.uint8))
    feeds = dict(enumerate(inputs), bg=None if dfa is None else dfa.bg)
    res = plan.run(kernels.active_library(), log, feeds)
    return res["delta"], res.get("a")


def reference_site(
    x_tok: np.ndarray,
    ref_tok: np.ndarray,
    weights: dict[str, np.ndarray],
    prefix: str,
    *,
    removal: bool = False,
    dfa: DfaContext | None = None,
    log: FlopLog | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Spatial self-attention with reference K/V concatenation, per frame of (..., L, c) tokens.

    Each frame's keys are its own tokens followed by the (L_ref, c)
    reference tokens.  Returns the pre-residual delta (tokens @ output
    projection) and, on the full path, the attention output for cache
    writeback (None on the restricted path).
    """
    return _run_site(plan_reference_site, (x_tok, ref_tok), weights, prefix, dfa, log,
                     removal=removal)


def audio_site(
    x_tok: np.ndarray,
    audio_tok: np.ndarray,
    weights: dict[str, np.ndarray],
    prefix: str,
    *,
    dfa: DfaContext | None = None,
    log: FlopLog | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Cross-attention of (..., L, c) tokens against audio tokens; only queries are restricted.

    ``audio_tok`` is (..., A, da), one set of tokens per frame, broadcast
    over the leading axes of ``x_tok`` it lacks.
    """
    aud = np.broadcast_to(audio_tok, x_tok.shape[:-2] + audio_tok.shape[-2:])
    return _run_site(plan_audio_site, (x_tok, aud), weights, prefix, dfa, log)


def temporal_site(
    x_loc: np.ndarray,
    weights: dict[str, np.ndarray],
    prefix: str,
    *,
    dfa: DfaContext | None = None,
    log: FlopLog | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Attention over the frame axis, one sequence per spatial location.

    ``x_loc`` has shape (..., L, f, c); every leading index holds its own
    L sequences of f frames.  The restricted path runs foreground locations
    only and merges cached (L_bg, f, d) background sequences, broadcast
    over the leading axes.
    """
    return _run_site(plan_temporal_site, (x_loc,), weights, prefix, dfa, log)


# ---------------------------------------------------------------------------
# planned sites
#
# The three sites as steps of a plan (see :mod:`cachediff.plan`), run by
# a model's passes and, one site to a plan, by the functions above.  Token
# buffers hold (..., L, c) rows like the functions' inputs.  ``ctx`` is the
# restriction context the plan is built for, or None on the full path;
# ``bg`` names the plan input that each pass feeds its background rows.


def _rows3(shape: tuple[int, ...], axis: int) -> tuple[int, int, int]:
    """``shape`` as (outer, rows, inner) around ``axis``."""
    axis %= len(shape)
    return math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1 :])


def _plan_select(p: Plan, x: Buf, index: np.ndarray, axis: int) -> Buf:
    """select_tokens into a buffer."""
    shape = list(x.shape)
    shape[axis] = len(index)
    out = p.buf(tuple(shape))
    outer, n, inner = _rows3(x.shape, axis)
    p.step(lambda lib: kernels.bound_gather(
        lib, x.a.reshape(outer, n, inner), index, out.a.reshape(outer, len(index), inner)), x, out)
    return out


def _plan_merge(
    p: Plan, a_fg: Buf | None, fg_shape: tuple[int, ...], ctx: DfaContext, bg: Hashable,
    axis: int,
) -> Buf:
    """merge_tokens of ``a_fg`` (viewed as ``fg_shape``, None when empty) and the pass's
    rows, fed as the input ``bg``."""
    mask = ctx.mask
    merge_tokens(np.zeros(fg_shape, np.float32), ctx.bg, mask, axis)  # its checks, once
    if mask.num_bg == 0:
        return a_fg
    axis %= len(fg_shape)
    out = p.buf(fg_shape[:axis] + (mask.num_fg + mask.num_bg,) + fg_shape[axis + 1 :])
    outer, n, inner = _rows3(out.shape, axis)
    rows = p.input(bg, ctx.bg.shape)

    def scatter(src: Buf, count: int, index: np.ndarray):
        p.step(lambda lib: kernels.bound_scatter(
            lib, src.a.reshape(src.size // (count * inner), count, inner), index,
            out.a.reshape(outer, n, inner)), src, out)

    if a_fg is not None:
        scatter(a_fg, mask.num_fg, mask.fg_index)
    scatter(rows, mask.num_bg, mask.bg_index)
    return out


def _plan_ref_attend(p: Plan, x: Buf, ref: Buf, w, prefix: str, removal: bool, n: int, keep: bool):
    wq, wk, wv = w
    kv = x
    if not removal:
        c = x.shape[-1]
        lx = x.size // (n * c)
        kv = p.buf((n, lx + ref.shape[0], c))
        p.copy(lambda: kv.a[:, :lx], lambda: x.a.reshape(n, lx, c), x, kv)
        p.copy(lambda: kv.a[:, lx:], lambda: ref.a, ref, kv)
    q = p.matmul(x, wq, prefix)
    k = p.matmul(kv, wk, prefix)
    v = p.matmul(kv, wv, prefix)
    return p.attention(q, k, v, prefix, n, keep)


def plan_reference_site(
    p: Plan, x: Buf, ref: Buf, weights: dict[str, np.ndarray], prefix: str, *,
    removal: bool = False, ctx: DfaContext | None = None, bg: Hashable = "bg",
    keep_probs: bool = False,
) -> tuple[Buf, Buf | None, Buf | None]:
    """:func:`reference_site` of (..., L, c) tokens and (L_ref, c) reference tokens.

    The third result holds, with ``keep_probs`` on the full path, every
    frame's (L, keys) attention probabilities, else it is None.
    """
    wq, wk, wv, wo = _site_weights(weights, prefix)
    lead = x.shape[:-2]
    n = math.prod(lead)
    if ctx is None:
        a, probs = _plan_ref_attend(p, x, ref, (wq, wk, wv), prefix, removal, n, keep_probs)
        return p.matmul(a, wo, prefix), a, probs
    mask = ctx.mask
    a_fg = None
    if mask.num_fg:
        xs = _plan_select(p, x, mask.fg_index, -2)
        rs = _plan_select(p, ref, mask.fg_index, 0)
        a_fg, _ = _plan_ref_attend(p, xs, rs, (wq, wk, wv), prefix, removal, n, False)
    merged = _plan_merge(p, a_fg, lead + (mask.num_fg, wo.shape[0]), ctx, bg, -2)
    return p.matmul(merged, wo, prefix), None, None


def plan_audio_site(
    p: Plan, x: Buf, aud: Buf, weights: dict[str, np.ndarray], prefix: str, *,
    ctx: DfaContext | None = None, bg: Hashable = "bg",
) -> tuple[Buf, Buf | None]:
    """:func:`audio_site` of (..., L, c) tokens and (n, A, da) audio tokens, one set per frame."""
    wq, wk, wv, wo = _site_weights(weights, prefix)
    lead = x.shape[:-2]
    n = math.prod(lead)
    k = p.matmul(aud, wk, prefix)
    v = p.matmul(aud, wv, prefix)
    if ctx is None:
        a, _ = p.attention(p.matmul(x, wq, prefix), k, v, prefix, n)
        return p.matmul(a, wo, prefix), a
    mask = ctx.mask
    a_fg = None
    if mask.num_fg:
        q = p.matmul(_plan_select(p, x, mask.fg_index, -2), wq, prefix)
        a_fg, _ = p.attention(q, k, v, prefix, n)
    merged = _plan_merge(p, a_fg, lead + (mask.num_fg, wo.shape[0]), ctx, bg, -2)
    return p.matmul(merged, wo, prefix), None


def plan_temporal_site(
    p: Plan, x_loc: Buf, weights: dict[str, np.ndarray], prefix: str, *,
    ctx: DfaContext | None = None, bg: Hashable = "bg",
) -> tuple[Buf, Buf | None]:
    """:func:`temporal_site` of (..., L, f, c) location sequences."""
    wq, wk, wv, wo = _site_weights(weights, prefix)
    lead, (L, f, _) = x_loc.shape[:-3], x_loc.shape[-3:]
    n = math.prod(lead)
    d = wo.shape[0]

    def site_attn(tokens: Buf, locs: int) -> Buf:
        q, k, v = (p.matmul(tokens, w, prefix) for w in (wq, wk, wv))
        return p.attention(q, k, v, prefix, n * locs)[0]

    if ctx is None:
        a = site_attn(x_loc, L)
        return p.matmul(a, wo, prefix), a
    mask = ctx.mask
    a_f = site_attn(_plan_select(p, x_loc, mask.fg_index, -3), mask.num_fg) if mask.num_fg else None
    merged = _plan_merge(p, a_f, lead + (mask.num_fg, f, d), ctx, bg, -3)
    return p.matmul(merged, wo, prefix), None
