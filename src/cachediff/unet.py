"""Miniature deterministic video UNet.

Latents are float32 with axes (batch, channel, frame, height, width).
The encoder halves resolution three times; the decoder mirrors it with
skip connections.  Attention modules (reference, audio, temporal sites)
sit at the bottleneck ``M``, the mid-resolution decoder block ``U2``, and
the final decoder sublayer ``U32``.

The last decoder stage is split into three sublayers: ``U30`` consumes
the first encoder skip, ``U31`` refines, and ``U32`` consumes the
``conv_in`` feature.  The output of ``U31`` is the cacheable feature: a
truncated forward pass (:meth:`ToyUNet.subnet`) reproduces the tail of
the network exactly from that feature plus a fresh latent.

Given one foreground mask per attention layer, the full pass also returns
the background rows of every attention site's output as the
:class:`attention.DfaContext` the truncated pass reads
(:attr:`ForwardTrace.dfa`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import attention as attn
from .errors import ConfigError
from .kernels import PackedConv, conv2d_frames, matmul, rms_norm, silu, upsample_nearest
from .masks import ForegroundMask
from .profiler import FlopLog
from .rng import Rng

ATTN_LAYERS = ("M", "U2", "U32")


@dataclass(frozen=True)
class UNetConfig:
    """Static architecture description."""

    latent_channels: int = 4
    base_channels: tuple[int, int, int, int] = (16, 32, 48, 64)
    height: int = 16
    width: int = 16
    frames: int = 4
    audio_tokens: int = 6
    audio_dim: int = 8
    head_dim: int = 8
    time_dim: int = 64
    attention_layers: tuple[str, ...] = ("M", "U2", "U32")
    removal_set: tuple[str, ...] = ("M", "U2")

    def __post_init__(self):
        if len(self.base_channels) != 4 or any(c < 1 for c in self.base_channels):
            raise ConfigError(f"base_channels needs 4 positive ints, got {self.base_channels}")
        if self.height % 8 or self.width % 8 or self.height < 8 or self.width < 8:
            raise ConfigError(f"height/width must be multiples of 8, got {self.height}x{self.width}")
        for v, name in (
            (self.latent_channels, "latent_channels"),
            (self.frames, "frames"),
            (self.audio_tokens, "audio_tokens"),
            (self.audio_dim, "audio_dim"),
            (self.head_dim, "head_dim"),
        ):
            if v < 1:
                raise ConfigError(f"{name} must be >= 1, got {v}")
        if self.time_dim % 2 or self.time_dim < 2:
            raise ConfigError(f"time_dim must be even and >= 2, got {self.time_dim}")
        bad = set(self.attention_layers) - set(ATTN_LAYERS)
        if bad:
            raise ConfigError(f"attention_layers {sorted(bad)} not in {ATTN_LAYERS}")
        if set(self.removal_set) - set(self.attention_layers):
            raise ConfigError("removal_set must be a subset of attention_layers")

    def attn_info(self) -> dict[str, tuple[int, int, int]]:
        """(channels, height, width) for each attention layer."""
        c0, c1, _, c3 = self.base_channels
        table = {
            "M": (c3, self.height // 8, self.width // 8),
            "U2": (c1, self.height // 2, self.width // 2),
            "U32": (c0, self.height, self.width),
        }
        return {k: table[k] for k in self.attention_layers}


@dataclass
class Conditioning:
    """Per-clip conditioning: reference tokens, audio tokens, mask."""

    ref: dict[str, np.ndarray]
    audio: np.ndarray
    mask: ForegroundMask
    valid_frames: int

    def validate(self, cfg: UNetConfig) -> None:
        for layer, (c, h, w) in cfg.attn_info().items():
            tok = self.ref.get(layer)
            if tok is None or tok.shape != (h * w, c):
                got = None if tok is None else tok.shape
                raise ConfigError(f"reference tokens for {layer} must be {(h * w, c)}, got {got}")
        want = (cfg.frames, cfg.audio_tokens, cfg.audio_dim)
        if self.audio.shape != want:
            raise ConfigError(f"audio tokens must be {want}, got {self.audio.shape}")
        if self.mask.shape != (cfg.height, cfg.width):
            raise ConfigError(f"mask must be {cfg.height}x{cfg.width}, got {self.mask.shape}")
        if not (1 <= self.valid_frames <= cfg.frames):
            raise ConfigError(f"valid_frames must be in [1, {cfg.frames}], got {self.valid_frames}")


# Restriction contexts keyed by (attention layer, site).
DfaCache = dict[tuple[str, str], attn.DfaContext]


@dataclass
class ForwardTrace:
    """Outputs of a full forward pass; ``dfa`` only when background masks were given."""

    eps: np.ndarray
    f_u31: np.ndarray
    dfa: DfaCache | None = None


# ---------------------------------------------------------------------------
# weights


def _res_spec(prefix: str, cin: int, cout: int, td: int):
    spec = [
        (f"{prefix}.conv1.w", (cout, cin, 3, 3), cin * 9),
        (f"{prefix}.conv1.b", (cout,), None),
        (f"{prefix}.temb.w", (td, cout), td),
        (f"{prefix}.temb.b", (cout,), None),
        (f"{prefix}.conv2.w", (cout, cout, 3, 3), cout * 9),
        (f"{prefix}.conv2.b", (cout,), None),
    ]
    if cin != cout:
        spec.append((f"{prefix}.skip.w", (cin, cout), cin))
    return spec


def _conv_spec(name: str, cin: int, cout: int):
    return [(f"{name}.w", (cout, cin, 3, 3), cin * 9), (f"{name}.b", (cout,), None)]


def _attn_spec(layer: str, c: int, d: int, da: int):
    spec = []
    for site, kdim in (("ref", c), ("aud", da), ("tmp", c)):
        spec += [
            (f"{layer}.{site}.wq", (c, d), c),
            (f"{layer}.{site}.wk", (kdim, d), kdim),
            (f"{layer}.{site}.wv", (kdim, d), kdim),
            (f"{layer}.{site}.wo", (d, c), d),
        ]
    return spec


def weight_spec(cfg: UNetConfig) -> list[tuple[str, tuple[int, ...], int | None]]:
    """Canonical ordered list of (name, shape, fan_in); fan_in None means zeros."""
    c0, c1, c2, c3 = cfg.base_channels
    cl, td, d, da = cfg.latent_channels, cfg.time_dim, cfg.head_dim, cfg.audio_dim
    spec = [("time.affine.w", (td, td), td), ("time.affine.b", (td,), None)]
    spec += _conv_spec("conv_in", cl, c0)
    enc = [("D0", c0), ("D1", c1), ("D2", c2), ("D3", c3)]
    for i, (blk, c) in enumerate(enc):
        spec += _res_spec(f"{blk}.res0", c, c, td)
        spec += _res_spec(f"{blk}.res1", c, c, td)
        if i < 3:
            spec += _conv_spec(f"down{i}", c, cfg.base_channels[i + 1])
    spec += _res_spec("M.res0", c3, c3, td)
    if "M" in cfg.attention_layers:
        spec += _attn_spec("M", c3, d, da)
    spec += _res_spec("M.res1", c3, c3, td)
    dec = [("U0", c3, c2), ("U1", c2, c1), ("U2", c1, c0)]
    for i, (blk, c, cnext) in enumerate(dec):
        spec += _res_spec(f"{blk}.res0", 2 * c, c, td)
        spec += _res_spec(f"{blk}.res1", c, c, td)
        if blk == "U2" and "U2" in cfg.attention_layers:
            spec += _attn_spec("U2", c, d, da)
        spec += _conv_spec(f"up{i}", c, cnext)
    spec += _res_spec("U30.res", 2 * c0, c0, td)
    spec += _res_spec("U31.res", c0, c0, td)
    spec += _res_spec("U32.res", 2 * c0, c0, td)
    if "U32" in cfg.attention_layers:
        spec += _attn_spec("U32", c0, d, da)
    spec += _conv_spec("head", c0, cl)
    return spec


def init_weights(cfg: UNetConfig, seed: int) -> tuple[dict[str, np.ndarray], list[str]]:
    """Draw weights in manifest order: normals scaled 1/sqrt(fan_in), zero biases."""
    rng = Rng(seed)
    weights: dict[str, np.ndarray] = {}
    order: list[str] = []
    for name, shape, fan_in in weight_spec(cfg):
        if fan_in is None:
            weights[name] = np.zeros(shape, dtype=np.float32)
        else:
            weights[name] = rng.normal(shape, scale=1.0 / math.sqrt(fan_in))
        order.append(name)
    return weights, order


def constant_model_weights(cfg: UNetConfig, value: float) -> dict[str, np.ndarray]:
    """All-zero weights except the head bias: the net predicts ``value`` everywhere."""
    weights = {name: np.zeros(shape, dtype=np.float32) for name, shape, _ in weight_spec(cfg)}
    weights["head.b"] = np.full(cfg.latent_channels, value, dtype=np.float32)
    return weights


def time_embedding(t: int, dim: int) -> np.ndarray:
    """Sinusoidal features of a schedule timestep.

    Periods span 1000 to 20000 schedule units geometrically: the fastest
    channel completes one cycle over a thousand-step trajectory, so the
    embedding separates timesteps globally while drifting gently between
    neighbouring sampled steps.
    """
    half = dim // 2
    periods = 1000.0 * np.power(20.0, np.arange(half, dtype=np.float64) / max(half - 1, 1))
    ang = 2.0 * math.pi * float(t) / periods
    return np.concatenate([np.sin(ang), np.cos(ang)]).astype(np.float32)


# ---------------------------------------------------------------------------
# model


class ToyUNet:
    """Deterministic float32 UNet over (frame, channel, height, width) stacks."""

    def __init__(self, cfg: UNetConfig, weights: dict[str, np.ndarray]):
        """Keeps the 3x3 conv weights only packed (``convs``) and the rest in ``w``."""
        self.cfg = cfg
        spec = weight_spec(cfg)
        missing = [n for n, _, _ in spec if n not in weights]
        if missing:
            raise ConfigError(f"missing weights: {missing[:4]}{'...' if len(missing) > 4 else ''}")
        convs = [n[: -len(".w")] for n, shape, _ in spec if len(shape) == 4]
        self.convs = {n: PackedConv(weights[f"{n}.w"], weights[f"{n}.b"]) for n in convs}
        packed = {f"{n}.{p}" for n in convs for p in "wb"}
        self.w = {n: a for n, a in weights.items() if n not in packed}

    # -- small pieces

    def _norm(
        self, x: np.ndarray, layer: str, log: FlopLog | None, axis: int = 1, copies: int = 1
    ) -> np.ndarray:
        """RMS normalization over the channel axis.

        Per-token (per-pixel) normalization: every spatial location is
        scaled independently, so it commutes with token selection.  An
        input shared by ``copies`` samples of a stack is normalized once
        and logged once per sample.
        """
        out = rms_norm(x, axis)
        if log is not None:
            log.add("elementwise", layer, (3 * copies * x.size,))
        return out

    def _preact_conv(self, x: np.ndarray, layer: str, name: str, log: FlopLog | None) -> np.ndarray:
        """conv(silu(norm(x))): the norm writes SiLU's gate and the conv applies it."""
        normed, gate = rms_norm(x, 1, gate=True)
        if log is not None:
            log.add("elementwise", layer, (3 * x.size,))  # the norm, as _norm logs it
            log.add("elementwise", layer, (4 * x.size,))  # the SiLU
        return self._conv(normed, name, log, gate=gate)

    def _time_features(self, ts: list[int], log: FlopLog | None) -> np.ndarray:
        """(samples, time_dim) features, one row per sample's timestep."""
        td = self.cfg.time_dim
        emb = np.stack([time_embedding(t, td) for t in ts])
        h = matmul(emb, self.w["time.affine.w"]) + self.w["time.affine.b"]
        if log is not None:
            log.add("matmul", "time", (len(ts), td, td))
            log.add("elementwise", "time", (len(ts) * td,))
            log.add("elementwise", "time", (4 * h.size,))  # the SiLU
        return silu(h)

    def _conv(
        self, x: np.ndarray, name: str, log: FlopLog | None, stride: int = 1,
        gate: np.ndarray | None = None,
    ) -> np.ndarray:
        conv = self.convs[name]
        out = conv2d_frames(x, conv, stride, gate)
        if log is not None:
            f, _, ho, wo = out.shape
            log.add("conv2d", name, (conv.co, conv.ci, ho, f * wo))
        return out

    def _channel_mix(self, x: np.ndarray, name: str, log: FlopLog | None) -> np.ndarray:
        f, c, h, w = x.shape
        wmat = self.w[name]
        tok = np.ascontiguousarray(x.transpose(0, 2, 3, 1).reshape(f * h * w, c))
        out = matmul(tok, wmat)
        if log is not None:
            log.add("matmul", name, (f * h * w, c, wmat.shape[1]))
        return np.ascontiguousarray(out.reshape(f, h, w, wmat.shape[1]).transpose(0, 3, 1, 2))

    def _res_unit(self, x: np.ndarray, temb: np.ndarray, prefix: str, log: FlopLog | None) -> np.ndarray:
        """Residual unit on a stack of samples' frames; temb holds one row per sample."""
        h1 = self._preact_conv(x, prefix, f"{prefix}.conv1", log)
        tproj = matmul(temb, self.w[f"{prefix}.temb.w"]) + self.w[f"{prefix}.temb.b"]
        h1 = h1 + np.repeat(tproj, x.shape[0] // temb.shape[0], axis=0)[:, :, None, None]
        h2 = self._preact_conv(h1, prefix, f"{prefix}.conv2", log)
        if f"{prefix}.skip.w" in self.w:
            base = self._channel_mix(x, f"{prefix}.skip.w", log)
        else:
            base = x
        if log is not None:
            log.add("matmul", prefix, (temb.shape[0], self.cfg.time_dim, h1.shape[1]))
            log.add("elementwise", prefix, (h1.size + 2 * h2.size,))
        return base + np.float32(0.5) * h2

    # -- attention module (three sites in order)

    def _attn_module(
        self,
        x: np.ndarray,
        layer: str,
        cond: Conditioning,
        log: FlopLog | None,
        dfa: DfaCache | None,
        hooks=None,
        removal_active: bool = False,
        bg_mask: ForegroundMask | None = None,
    ) -> tuple[np.ndarray, DfaCache]:
        """Reference, audio and temporal sites on a stack of samples' frames.

        Each site runs once for the whole stack; temporal attention stays
        inside each sample's frames.  Returns the updated stack and, given
        ``bg_mask`` on the full path of a one-sample stack, each site's
        background rows with the mask, as the restricted path reads them.
        """
        n, c, h, w = x.shape
        f = self.cfg.frames
        k = n // f
        L = h * w
        half = np.float32(0.5)
        removal = removal_active and layer in self.cfg.removal_set
        rows: DfaCache = {}

        def ctx(site: str) -> attn.DfaContext | None:
            return None if dfa is None else dfa.get((layer, site))

        def tokens(x: np.ndarray, name: str) -> np.ndarray:
            tok = np.ascontiguousarray(x.reshape(k, f, c, L).transpose(0, 1, 3, 2))
            return self._norm(tok, name, log, axis=-1)

        def keep(site: str, a: np.ndarray) -> None:
            # Gathered at once, so no site output outlives its site: spatial
            # outputs are (1, f, L, d) and temporal ones (1, L, f, d).
            if bg_mask is not None:
                bg = bg_mask.bg_index
                rows[(layer, site)] = attn.DfaContext(
                    bg_mask, a[0][bg] if site == "temporal" else a[0][:, bg]
                )

        def add_spatial(x: np.ndarray, delta: np.ndarray, name: str) -> np.ndarray:
            if log is not None:
                log.add("elementwise", name, (2 * x.size,))
            return x + half * delta.transpose(0, 1, 3, 2).reshape(n, c, h, w)

        name = f"{layer}.ref"
        delta, a = attn.reference_site(
            tokens(x, name), self._norm(cond.ref[layer], name, log, copies=k), self.w, name,
            removal=removal, dfa=ctx("reference"), log=log, hooks=hooks,
        )
        keep("reference", a)
        x = add_spatial(x, delta, name)

        name = f"{layer}.aud"
        delta, a = attn.audio_site(
            tokens(x, name), self._norm(cond.audio, name, log, axis=-1, copies=k), self.w, name,
            dfa=ctx("audio"), log=log, hooks=hooks,
        )
        keep("audio", a)
        x = add_spatial(x, delta, name)

        name = f"{layer}.tmp"
        x_loc = np.ascontiguousarray(x.reshape(k, f, c, L).transpose(0, 3, 1, 2))
        delta, a = attn.temporal_site(
            self._norm(x_loc, name, log, axis=-1), self.w, name,
            dfa=ctx("temporal"), log=log, hooks=hooks,
        )
        keep("temporal", a)
        if log is not None:
            log.add("elementwise", name, (2 * x.size,))
        return x + half * delta.transpose(0, 2, 3, 1).reshape(n, c, h, w), rows

    # -- tail shared between the full forward and the truncated subnet

    def _u32_head(
        self,
        f_u31: np.ndarray,
        s_in: np.ndarray,
        temb: np.ndarray,
        cond: Conditioning,
        log: FlopLog | None,
        dfa: DfaCache | None,
        hooks=None,
        removal_active: bool = False,
        bg_mask: ForegroundMask | None = None,
    ) -> tuple[np.ndarray, DfaCache]:
        """Noise prediction from the U31 feature and conv_in branch, plus U32's background rows."""
        # Each fusion branch is normalized on its own: the cached feature
        # accumulates the trunk's magnitude while the fresh conv_in branch
        # does not, and a joint scale would crush whichever branch is
        # smaller, leaving the truncated pass insensitive to its latent.
        # A feature shared by every sample of the stack is broadcast.
        copies = s_in.shape[0] // f_u31.shape[0]
        f_u31 = self._norm(f_u31, "U32.f", log, copies=copies)
        s_in = self._norm(s_in, "U32.in", log)
        fused = np.concatenate(
            [np.broadcast_to(f_u31, (copies,) + f_u31.shape),
             s_in.reshape((copies,) + f_u31.shape)],
            axis=2,
        ).reshape((s_in.shape[0], -1) + s_in.shape[2:])
        x = self._res_unit(fused, temb, "U32.res", log)
        rows = {}
        if "U32" in self.cfg.attention_layers:
            x, rows = self._attn_module(x, "U32", cond, log, dfa, hooks, removal_active, bg_mask)
        eps = self._preact_conv(x, "head", "head", log)
        return eps, rows

    # -- public passes

    def forward(
        self,
        z: np.ndarray,
        t: int,
        cond: Conditioning,
        *,
        log: FlopLog | None = None,
        bg_masks: dict[str, ForegroundMask] | None = None,
        hooks=None,
        removal_active: bool = False,
    ) -> ForwardTrace:
        """Full noise prediction of one sample; returns eps and the cacheable U31 feature.

        Given ``bg_masks``, one mask per attention layer at that layer's
        resolution, the trace's ``dfa`` holds for every (layer, site) the
        mask and the background rows of the site's full-path output: the
        ``dfa`` argument of :meth:`subnet`.
        """
        cfg = self.cfg
        self._check_latent(z)
        if z.shape[0] != 1:
            raise ConfigError(f"forward takes one sample, got {z.shape[0]}")
        cond.validate(cfg)
        masks = dict.fromkeys(cfg.attention_layers) if bg_masks is None else bg_masks
        dfa: DfaCache = {}

        def attend(x: np.ndarray, layer: str) -> np.ndarray:
            x, rows = self._attn_module(
                x, layer, cond, log, None, hooks, removal_active, masks[layer]
            )
            dfa.update(rows)
            return x

        x = np.ascontiguousarray(z[0].transpose(1, 0, 2, 3))
        temb = self._time_features([t], log)
        x = self._conv(x, "conv_in", log)
        s_in = x
        skips = []
        for i, blk in enumerate(("D0", "D1", "D2", "D3")):
            x = self._res_unit(x, temb, f"{blk}.res0", log)
            x = self._res_unit(x, temb, f"{blk}.res1", log)
            skips.append(x)
            if i < 3:
                x = self._conv(x, f"down{i}", log, stride=2)
        x = self._res_unit(x, temb, "M.res0", log)
        if "M" in cfg.attention_layers:
            x = attend(x, "M")
        x = self._res_unit(x, temb, "M.res1", log)
        for i, blk in enumerate(("U0", "U1", "U2")):
            x = np.concatenate([x, skips[3 - i]], axis=1)
            x = self._res_unit(x, temb, f"{blk}.res0", log)
            x = self._res_unit(x, temb, f"{blk}.res1", log)
            if blk == "U2" and "U2" in cfg.attention_layers:
                x = attend(x, "U2")
            x = self._conv(upsample_nearest(x), f"up{i}", log)
        x = self._res_unit(np.concatenate([x, skips[0]], axis=1), temb, "U30.res", log)
        f_u31 = self._res_unit(x, temb, "U31.res", log)
        eps, rows = self._u32_head(
            f_u31, s_in, temb, cond, log, None, hooks, removal_active, masks.get("U32")
        )
        dfa.update(rows)
        return ForwardTrace(
            eps=np.ascontiguousarray(eps.transpose(1, 0, 2, 3))[None],
            f_u31=f_u31[None],
            dfa=None if bg_masks is None else dfa,
        )

    def subnet(
        self,
        f_u31: np.ndarray,
        z: np.ndarray,
        t: int | Sequence[int],
        cond: Conditioning,
        *,
        log: FlopLog | None = None,
        dfa: DfaCache | None = None,
        removal_active: bool = False,
    ) -> np.ndarray:
        """Truncated pass: conv_in on fresh latents plus the cached-feature tail.

        The b samples of ``z`` run as one stack along the frame axis, each
        with its own timestep: ``t`` is one int for all or one per sample.
        ``f_u31`` holds one cached feature per sample, or one shared by all;
        a shared feature and the ``dfa`` caches are broadcast, not copied.
        Each sample's result is the bytes of a one-sample call.  ``log``
        receives the costs of b one-sample calls, with every event covering
        the b samples equally (see :meth:`FlopLog.per_sample`).
        """
        cfg = self.cfg
        self._check_latent(z)
        b = z.shape[0]
        ts = [int(t)] * b if np.ndim(t) == 0 else [int(v) for v in t]
        if len(ts) != b:
            raise ConfigError(f"need one timestep per sample: {len(ts)} for {b} samples")
        feat = (cfg.frames, cfg.base_channels[0], cfg.height, cfg.width)
        if f_u31.shape not in ((b,) + feat, (1,) + feat):
            raise ConfigError(
                f"cached feature must be {(b,) + feat} or {(1,) + feat}, got {f_u31.shape}"
            )
        frames = np.ascontiguousarray(z.transpose(0, 2, 1, 3, 4))
        temb = self._time_features(ts, log)
        s_in = self._conv(frames.reshape((-1,) + frames.shape[2:]), "conv_in", log)
        eps, _ = self._u32_head(
            f_u31.reshape((-1,) + feat[1:]), s_in, temb, cond, log, dfa,
            removal_active=removal_active,
        )
        eps = eps.reshape((b, cfg.frames) + eps.shape[1:])
        return np.ascontiguousarray(eps.transpose(0, 2, 1, 3, 4))

    def _check_latent(self, z: np.ndarray) -> None:
        cfg = self.cfg
        want = (cfg.latent_channels, cfg.frames, cfg.height, cfg.width)
        if z.ndim != 5 or z.shape[1:] != want:
            raise ConfigError(f"latent must be (b,) + {want}, got {z.shape}")
        if z.dtype != np.float32:
            raise ConfigError(f"latent must be float32, got {z.dtype}")
