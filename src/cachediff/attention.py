"""Attention sites with an optional foreground-restricted fast path.

Each attention layer carries three sites, applied in order:

* ``reference`` - spatial self-attention per frame where K/V concatenate
  the noisy tokens with static reference tokens;
* ``audio`` - cross-attention per frame against audio tokens;
* ``temporal`` - per-location attention across the frame axis.

Every site takes a stack of frames and runs each projection as one matmul
and the attention of all frames as one :func:`attention_batch` call.
Rows never mix, so a stack gives the bytes of one call per frame.  Spatial
sites take tokens of shape (..., L, c), where a 2-d input is one frame;
the temporal site takes (..., L, f, c).

The restricted path computes attention only for foreground queries (for
the reference site also only foreground K/V rows) and fills background
rows from a cache written at the most recent full pass.  The cache is
broadcast over any leading axes it lacks, so one key step's cache serves
a stack of several samples.  With an all-ones mask the restricted path
degenerates to the full path bit-exactly because both run the same kernel
sequence on identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import CacheMissError, InvariantError
from .kernels import attention_batch, matmul
from .masks import ForegroundMask
from .profiler import FlopLog


@dataclass
class DfaContext:
    """Restriction context for one layer/site: mask plus cached background rows."""

    mask: ForegroundMask
    bg: np.ndarray | None


def select_tokens(x: np.ndarray, index: np.ndarray, axis: int = 0) -> np.ndarray:
    """Gather rows of x along ``axis``; index must be ascending and unique."""
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"index must be 1-d, got shape {idx.shape}")
    if idx.size:
        if idx[0] < 0 or idx[-1] >= x.shape[axis]:
            raise ValueError(f"index out of range for {x.shape[axis]} rows")
        if (np.diff(idx) <= 0).any():
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


def _attend(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, log: FlopLog | None, layer: str,
    keep_probs: bool = False,
):
    """Attention of (n, lq, d) queries on (n, lk, d) keys; returns (output, probs), logs costs."""
    out, probs = attention_batch(q, k, v, keep_probs=keep_probs)
    if log is not None:
        n, lq, d = q.shape
        lk = k.shape[1]
        log.add("attention_scores", layer, (n * lq, lk, d))
        log.add("elementwise", layer, (n * lq * lk,))
        log.add("softmax", layer, (n * lq, lk))
        log.add("attention_apply", layer, (n * lq, lk, d))
    return out, probs


def _proj(x: np.ndarray, w: np.ndarray, log: FlopLog | None, layer: str) -> np.ndarray:
    """x @ w over the last axis of a stack of any leading shape, as one matmul."""
    rows = np.ascontiguousarray(x).reshape(-1, x.shape[-1])
    if log is not None:
        log.add("matmul", layer, (rows.shape[0], rows.shape[1], w.shape[1]))
    return matmul(rows, w).reshape(x.shape[:-1] + (w.shape[1],))


def _site_weights(weights: dict[str, np.ndarray], prefix: str):
    return tuple(weights[f"{prefix}.{n}"] for n in ("wq", "wk", "wv", "wo"))


def _spatial_out(a, probs, lead, site, layer, wo, dfa, log, hooks):
    """Finish a spatial site from its (n, lq, d) attention output.

    Returns the projected delta and, on the full path, the output
    reshaped to the leading axes (which ``hooks`` sees frame by frame);
    the restricted path merges the cached background rows first.
    """
    if dfa is not None:
        a = merge_tokens(a.reshape(lead + a.shape[1:]), dfa.bg, dfa.mask, -2)
        return _proj(a, wo, log, layer), None
    if hooks is not None:
        for fi in range(a.shape[0]):
            hooks.on_attention(layer, site, fi, probs[fi], a[fi], a.shape[1])
    a = a.reshape(lead + a.shape[1:])
    return _proj(a, wo, log, layer), a


def reference_site(
    x_tok: np.ndarray,
    ref_tok: np.ndarray,
    weights: dict[str, np.ndarray],
    prefix: str,
    *,
    removal: bool = False,
    dfa: DfaContext | None = None,
    log: FlopLog | None = None,
    hooks=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Spatial self-attention with reference K/V concatenation, per frame of (..., L, c) tokens.

    Each frame's keys are its own tokens followed by the (L_ref, c)
    reference tokens; K and V come from one matmul each over all frames'
    stacked [tokens; reference] rows.  Returns the pre-residual delta
    (tokens @ output projection) and, on the full path, the attention
    output for cache writeback (None on the restricted path).  ``hooks``
    sees each frame's probabilities in stack order.
    """
    wq, wk, wv, wo = _site_weights(weights, prefix)
    lead = x_tok.shape[:-2]
    x = x_tok.reshape((-1,) + x_tok.shape[-2:])
    finish = partial(_spatial_out, lead=lead, site="reference", layer=prefix, wo=wo, dfa=dfa,
                     log=log, hooks=hooks)
    if dfa is not None:
        if dfa.mask.num_fg == 0:
            return finish(np.empty((x.shape[0], 0, wo.shape[0]), np.float32), None)
        x = select_tokens(x, dfa.mask.fg_index, axis=1)
        ref_tok = select_tokens(ref_tok, dfa.mask.fg_index)
    kv_in = x
    if not removal:
        kv_in = np.concatenate(
            [x, np.broadcast_to(ref_tok, (x.shape[0],) + ref_tok.shape)], axis=1
        )
    return finish(*_attend(
        _proj(x, wq, log, prefix), _proj(kv_in, wk, log, prefix), _proj(kv_in, wv, log, prefix),
        log, prefix, keep_probs=dfa is None and hooks is not None,
    ))


def audio_site(
    x_tok: np.ndarray,
    audio_tok: np.ndarray,
    weights: dict[str, np.ndarray],
    prefix: str,
    *,
    dfa: DfaContext | None = None,
    log: FlopLog | None = None,
    hooks=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Cross-attention of (..., L, c) tokens against audio tokens; only queries are restricted.

    ``audio_tok`` is (..., A, da), one set of tokens per frame, broadcast
    over the leading axes of ``x_tok`` it lacks.
    """
    wq, wk, wv, wo = _site_weights(weights, prefix)
    lead = x_tok.shape[:-2]
    x = x_tok.reshape((-1,) + x_tok.shape[-2:])
    finish = partial(_spatial_out, lead=lead, site="audio", layer=prefix, wo=wo, dfa=dfa,
                     log=log, hooks=hooks)
    aud = np.broadcast_to(audio_tok, lead + audio_tok.shape[-2:]).reshape(
        (x.shape[0],) + audio_tok.shape[-2:]
    )
    k = _proj(aud, wk, log, prefix)
    v = _proj(aud, wv, log, prefix)
    if dfa is not None:
        if dfa.mask.num_fg == 0:
            return finish(np.empty((x.shape[0], 0, wo.shape[0]), np.float32), None)
        x = select_tokens(x, dfa.mask.fg_index, axis=1)
    return finish(*_attend(
        _proj(x, wq, log, prefix), k, v, log, prefix, keep_probs=dfa is None and hooks is not None
    ))


def temporal_site(
    x_loc: np.ndarray,
    weights: dict[str, np.ndarray],
    prefix: str,
    *,
    dfa: DfaContext | None = None,
    log: FlopLog | None = None,
    hooks=None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Attention over the frame axis, one sequence per spatial location.

    ``x_loc`` has shape (..., L, f, c); every leading index holds its own
    L sequences of f frames.  The restricted path runs foreground locations
    only and merges cached (L_bg, f, d) background sequences, broadcast
    over the leading axes.
    """
    wq, wk, wv, wo = _site_weights(weights, prefix)
    layer = prefix
    L, f, c = x_loc.shape[-3:]

    def _site_attn(tokens: np.ndarray) -> np.ndarray:
        flat = tokens.reshape(-1, f, c)
        out, _ = _attend(
            _proj(flat, wq, log, layer), _proj(flat, wk, log, layer), _proj(flat, wv, log, layer),
            log, layer,
        )
        return out.reshape(tokens.shape[:-1] + (out.shape[-1],))

    if dfa is None:
        a = _site_attn(x_loc)
        if hooks is not None:
            for a_i in a.reshape((-1,) + a.shape[-3:]):
                hooks.on_attention(layer, "temporal", None, None, a_i, L)
        return _proj(a, wo, log, layer), a
    mask = dfa.mask
    if mask.num_fg == 0:
        a_f = np.empty(x_loc.shape[:-3] + (0, f, wo.shape[0]), np.float32)
    else:
        a_f = _site_attn(select_tokens(x_loc, mask.fg_index, axis=-3))
    return _proj(merge_tokens(a_f, dfa.bg, mask, -3), wo, log, layer), None
