"""Attention sites with an optional foreground-restricted fast path.

Each attention layer carries three sites, applied in order:

* ``reference`` - spatial self-attention per frame where K/V concatenate
  the noisy tokens with static reference tokens;
* ``audio`` - cross-attention per frame against audio tokens;
* ``temporal`` - per-location attention across the frame axis.

Every site takes a stack of frames and runs each projection as one
channel mix, a 1x1 conv step, and the attention of all frames as one
batched attention step, with the tokens on the vector lanes (see the
planned sites below).
Tokens never mix, so a stack gives the bytes of one call per frame.
Spatial sites take tokens of shape (..., L, c), where a 2-d input is one
frame; the temporal site takes (..., L, f, c).

The restricted path computes attention only for foreground queries (for
the reference site also only foreground K/V rows) and fills background
rows from a cache written at the most recent full pass.  The cache is
broadcast over any leading axes it lacks, so one key step's cache serves
a stack of several samples.  The site functions take it in their own
token layout (:class:`DfaContext`); the planned sites take it in the
plans' lane layout, (frames, d, rows).  With an all-ones mask the
restricted path degenerates to the full path bit-exactly because both run
the same kernel sequence on identical inputs.

Each site has one implementation, the planned site at the end of this
module, which a model's passes build into their plans.  The public
functions are entry points for every other caller: each builds a plan of
its one site, runs it once on the active kernel backend and returns
copies of its results.
"""

from __future__ import annotations

import math
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
    """A site function's mask and cached background rows (None: no cache), laid out as
    its attention output and broadcast over any leading axes they lack."""

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
    kept = len(want) - a_bg.ndim  # leading axes the rows lack, at most those before ``axis``
    if not 0 <= kept <= axis or a_bg.shape != want[kept:]:
        raise InvariantError(
            f"merge: bg shape {a_bg.shape} incompatible with fg shape {a_fg.shape}"
        )
    out = np.empty(want[:axis] + (mask.num_fg + mask.num_bg,) + want[axis + 1 :], np.float32)
    rows = (slice(None),) * axis
    out[rows + (mask.fg_index,)] = a_fg
    out[rows + (mask.bg_index,)] = a_bg
    return out


def _site_weights(weights: dict, prefix: str) -> tuple[kernels.PackedConv, ...]:
    """The site's four projections as 1x1 convs; a raw (c, d) matrix is packed here."""
    ws = (weights[f"{prefix}.{n}"] for n in ("wq", "wk", "wv", "wo"))
    return tuple(w if isinstance(w, kernels.PackedConv) else kernels.PackedConv.mix(w) for w in ws)


def _spatial(x: np.ndarray) -> tuple:
    """(x, lane shape, view): (..., L, c) tokens held as (n, c, L), and the view of such a
    lane array in x's layout."""
    lead, (L, c) = x.shape[:-2], x.shape[-2:]
    return x, (math.prod(lead), c, L), lambda a: a.reshape(lead + a.shape[1:]).swapaxes(-1, -2)


def _temporal(x: np.ndarray) -> tuple:
    """(x, lane shape, view): (..., L, f, c) location sequences held as (n * f, c, L)."""
    lead, (L, f, c) = x.shape[:-3], x.shape[-3:]
    return (x, (math.prod(lead) * f, c, L),
            lambda a: np.moveaxis(a.reshape(lead + (f,) + a.shape[1:]), -1, -3))


def _run_site(plan_site, layout, x: np.ndarray, others: tuple, weights, prefix: str, dfa,
              log, **kw):
    """``plan_site`` on the tokens x, held as ``layout`` (:func:`_spatial` or
    :func:`_temporal`) holds them, and ``others``, (array, lane shape, view)
    triples, as a one-site plan on a fresh arena.  The cached rows of ``dfa``
    are held the same way as x.

    Returns (delta, a) in the tokens' layout; ``a`` is None on the
    restricted path.
    """
    inputs = (layout(x),) + others
    if any(a.dtype != np.float32 for a, _, _ in inputs):
        raise ValueError("attention sites take float32 tokens")
    names = [f"{prefix}.{n}" for n in ("wq", "wk", "wv", "wo")]
    weights = dict(zip(names, _site_weights(weights, prefix)))  # packed once per call
    p = Plan()
    bufs = [p.input(i, shape, view) for i, (_, shape, view) in enumerate(inputs)]
    feeds = {i: a for i, (a, _, _) in enumerate(inputs)}
    mask = rows = None
    if dfa is not None:
        mask, axis = dfa.mask, -2 if layout is _spatial else -3
        fg = x.shape[:axis] + (mask.num_fg,) + x.shape[axis + 1 : -1]
        merge_tokens(np.zeros(fg + (weights[f"{prefix}.wo"].ci,), np.float32), dfa.bg,
                     mask, axis)  # its checks of the rows
        if mask.num_bg:
            feeds["bg"], shape, view = layout(dfa.bg)
            rows = p.input("bg", shape, view)
    delta, a = plan_site(p, *bufs, weights, prefix, mask=mask, rows=rows, **kw)[:2]
    view = inputs[0][2]
    for name, r in (("delta", delta), ("a", a)):
        if r is not None:
            p.result(name, r, lambda arr: view(arr).copy())
    plan = p.finish()
    plan.place(np.empty(plan.floats, np.float32), np.empty(plan.ws_bytes, np.uint8))
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
    ref = (ref_tok, (1,) + ref_tok.shape[::-1], lambda a: a[0].T)
    return _run_site(plan_reference_site, _spatial, x_tok, (ref,), weights, prefix, dfa, log,
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
    return _run_site(plan_audio_site, _spatial, x_tok, (_spatial(aud),), weights, prefix, dfa,
                     log)


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
    return _run_site(plan_temporal_site, _temporal, x_loc, (), weights, prefix, dfa, log,
                     frames=x_loc.shape[-2])


# ---------------------------------------------------------------------------
# planned sites
#
# The three sites as steps of a plan (see :mod:`cachediff.plan`), run by
# a model's passes and, one site to a plan, by the functions above.  Their
# buffers keep the tokens on the vector lanes, in a feature map's own
# layout: (items, channels, *tokens), each item a frame and each token a
# pixel (a location for the temporal site); the reference and audio tokens
# come as (items, channels, tokens) too.  With ``base`` (the feature map the
# tokens were normalized from), a site's output projection writes
# base + 0.5 * delta, the layer's residual, in place of the delta.  ``mask``
# is the mask the plan restricts to, or None on the full path; ``rows``
# then holds the cached background rows in the same layout, (k, d, n_bg),
# which item b of the output reads at b % k (it may be None when n_bg is 0).


def _plan_select(p: Plan, x: Buf, index: np.ndarray) -> Buf:
    """select_tokens of the tokens ``index`` of x (items, channels, *tokens)."""
    rows, n = x.shape[0] * x.shape[1], math.prod(x.shape[2:])
    out = p.buf(x.shape[:2] + (len(index),))
    p.step(lambda lib: kernels.bound_gather(
        lib, x.a.reshape(rows, n), index, out.a.reshape(rows, len(index))), x, out)
    return out


def _plan_merge(p: Plan, a_fg: Buf | None, rows: Buf | None, mask: ForegroundMask,
                items: int) -> Buf:
    """merge_tokens of the foreground output ``a_fg`` (items, d, n_fg), None when empty,
    and the cached ``rows``: the (items, d, L) output."""
    if mask.num_bg == 0:
        return a_fg
    d = rows.shape[1]
    out = p.buf((items, d, mask.num_fg + mask.num_bg))

    def scatter(src: Buf, index: np.ndarray):
        p.step(lambda lib: kernels.bound_scatter(
            lib, src.a.reshape(src.shape[0] * d, len(index)), index,
            out.a.reshape(items * d, out.shape[2])), src, out)

    if a_fg is not None:
        scatter(a_fg, mask.fg_index)
    scatter(rows, mask.bg_index)
    return out


def plan_reference_site(
    p: Plan, x: Buf, ref: Buf, weights: dict, prefix: str, *,
    base: Buf | None = None, removal: bool = False, mask: ForegroundMask | None = None,
    rows: Buf | None = None, keep_probs: bool = False,
) -> tuple[Buf, Buf | None, Buf | None]:
    """:func:`reference_site` of x (n, c, *tokens) and reference tokens ref (1, c, L_ref).

    Returns (out, a, probs): the output projection (with ``base``, the
    residual), the full path's attention output (n, d, *tokens), and with
    ``keep_probs`` on the full path every frame's (L, keys) attention
    probabilities, else None.
    """
    wq, wk, wv, wo = _site_weights(weights, prefix)
    n = x.shape[0]

    def attend(xs: Buf, rs: Buf, keep: bool):
        q, kx, vx = (p.conv(xs, w, prefix) for w in (wq, wk, wv))
        # The reference tokens are shared, but charged once per frame.
        shared = None if removal else tuple(p.conv(rs, w, prefix, copies=n) for w in (wk, wv))
        return p.attention(q, kx, vx, prefix, shared=shared, keep_probs=keep)

    if mask is None:
        a, probs = attend(x, ref, keep_probs)
    else:
        a_fg = probs = None
        if mask.num_fg:
            a_fg, _ = attend(_plan_select(p, x, mask.fg_index), _plan_select(p, ref, mask.fg_index),
                             False)
        a = _plan_merge(p, a_fg, rows, mask, n)
    return p.conv(a, wo, prefix, base=base), a if mask is None else None, probs


def plan_audio_site(
    p: Plan, x: Buf, aud: Buf, weights: dict, prefix: str, *,
    base: Buf | None = None, mask: ForegroundMask | None = None, rows: Buf | None = None,
) -> tuple[Buf, Buf | None]:
    """:func:`audio_site` of x (n, c, *tokens) and audio tokens aud (f, da, A), frame b
    reading the tokens b % f; the results as for :func:`plan_reference_site`."""
    wq, wk, wv, wo = _site_weights(weights, prefix)
    n = x.shape[0]
    # The audio tokens of a sample's frames are shared, but charged once per frame.
    k, v = (p.conv(aud, w, prefix, copies=n // aud.shape[0]) for w in (wk, wv))
    if mask is None:
        a, _ = p.attention(p.conv(x, wq, prefix), k, v, prefix)
    else:
        a_fg = None
        if mask.num_fg:
            q = p.conv(_plan_select(p, x, mask.fg_index), wq, prefix)
            a_fg, _ = p.attention(q, k, v, prefix)
        a = _plan_merge(p, a_fg, rows, mask, n)
    return p.conv(a, wo, prefix, base=base), a if mask is None else None


def plan_temporal_site(
    p: Plan, x: Buf, weights: dict, prefix: str, *, frames: int,
    base: Buf | None = None, mask: ForegroundMask | None = None, rows: Buf | None = None,
) -> tuple[Buf, Buf | None]:
    """:func:`temporal_site` of x (samples * frames, c, *locations): each location of a
    sample attends over the sample's frames, with the locations on the lanes.  The
    results are as for :func:`plan_reference_site`."""
    wq, wk, wv, wo = _site_weights(weights, prefix)
    n = x.shape[0]

    def attend(xs: Buf) -> Buf:
        q, k, v = (p.conv(xs, w, prefix) for w in (wq, wk, wv))
        return p.attention(q, k, v, prefix, rows=frames, lane_keys=True)[0]

    if mask is None:
        a = attend(x)
    else:
        a_fg = attend(_plan_select(p, x, mask.fg_index)) if mask.num_fg else None
        a = _plan_merge(p, a_fg, rows, mask, n)
    return p.conv(a, wo, prefix, base=base), a if mask is None else None
