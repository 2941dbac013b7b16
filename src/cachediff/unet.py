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

The truncated pass runs only ``U32``'s attention, so only ``U32``'s sites
keep anything for it.  With ``keep_bg`` the full pass returns, under the
conditioning's own mask (``U32`` runs at the latent's resolution), the
background rows of each ``U32`` site's output as the
:class:`attention.DfaContext` the truncated pass reads
(:attr:`ForwardTrace.dfa`), and on request ``U32``'s reference-site
attention probabilities (:attr:`ForwardTrace.probs`).
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import attention as attn
from .errors import ConfigError
from .kernels import PackedConv, active_library, matmul, silu
from .masks import ForegroundMask
from .plan import Buf, Plan, PlanCache
from .profiler import FlopLog
from .rng import Rng

ATTN_LAYERS = ("M", "U2", "U32")
SITES = ("reference", "audio", "temporal")


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


# U32's restriction contexts keyed by site ("reference", "audio", "temporal").
DfaCache = dict[str, attn.DfaContext]


@dataclass
class ForwardTrace:
    """Outputs of a full forward pass; ``dfa`` only with ``keep_bg`` and ``probs``
    only with ``keep_probs``, both only when the model has a U32 attention layer."""

    eps: np.ndarray
    f_u31: np.ndarray
    dfa: DfaCache | None = None
    probs: np.ndarray | None = None


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
    ang = 2.0 * math.pi * float(t) / _periods(dim)
    return np.concatenate([np.sin(ang), np.cos(ang)]).astype(np.float32)


@lru_cache(maxsize=None)
def _periods(dim: int) -> np.ndarray:
    """The float64 periods of :func:`time_embedding`'s channels, computed once per dim."""
    half = dim // 2
    periods = 1000.0 * np.power(20.0, np.arange(half, dtype=np.float64) / max(half - 1, 1))
    periods.flags.writeable = False
    return periods


# ---------------------------------------------------------------------------
# model


class ToyUNet:
    """Deterministic float32 UNet over (frame, channel, height, width) stacks.

    Every pass runs an execution plan (:mod:`cachediff.plan`), built on the
    first pass of its key and kept by the model: fixed buffers, steps bound
    once (one call into the compiled library) and the pass's FLOP events.
    The plans share one arena, so a model runs one pass at a time; a lock
    makes concurrent callers wait.  Returned arrays are the caller's own.

    The time MLP depends on the timestep alone, so it runs once per
    timestep: the first pass at t computes every residual unit's time
    projection with :func:`kernels.matmul` and :func:`kernels.silu` and
    keeps it as one read-only row (:meth:`_time_row`), which each later
    pass at t feeds to its plan.
    """

    def __init__(self, cfg: UNetConfig, weights: dict[str, np.ndarray]):
        """Keeps the 3x3 conv weights only packed (``convs``) and the rest in ``w``.

        Each raw conv weight is removed from ``weights`` once it is packed,
        so the two forms of every weight never exist at once.
        """
        self.cfg = cfg
        spec = weight_spec(cfg)
        missing = [n for n, _, _ in spec if n not in weights]
        if missing:
            raise ConfigError(f"missing weights: {missing[:4]}{'...' if len(missing) > 4 else ''}")
        self.convs = {}
        for name, shape, _ in spec:
            if len(shape) == 4:
                conv = name[: -len(".w")]
                self.convs[conv] = PackedConv(weights.pop(name), weights.pop(f"{conv}.b"))
        self.w = {n: weights[n] for n, _, _ in spec if n in weights}
        # The residual units' time projections, as one matrix: a unit's
        # columns start at _temb_col[unit]; the width is rounded up to 16.
        units = [n[: -len(".temb.w")] for n, _, _ in spec if n.endswith(".temb.w")]
        widths = [self.w[f"{u}.temb.w"].shape[1] for u in units]
        self._temb_col = dict(zip(units, np.cumsum([0] + widths[:-1]).tolist()))
        cols = -(-sum(widths) // 16) * 16
        self._temb_w = np.zeros((cfg.time_dim, cols), dtype=np.float32)
        self._temb_b = np.zeros(cols, dtype=np.float32)
        for u, col, width in zip(units, self._temb_col.values(), widths):
            self._temb_w[:, col : col + width] = self.w[f"{u}.temb.w"]
            self._temb_b[col : col + width] = self.w[f"{u}.temb.b"]
        # One row per timestep seen, 3.1 KB for the default model; kept for
        # the model's life (callers pass timesteps of one schedule).
        self._tproj: dict[int, np.ndarray] = {}
        self._plans = PlanCache()
        self._lock = threading.Lock()

    # -- public passes

    def forward(
        self,
        z: np.ndarray,
        t: int,
        cond: Conditioning,
        *,
        log: FlopLog | None = None,
        keep_bg: bool = False,
        keep_probs: bool = False,
        removal_active: bool = False,
    ) -> ForwardTrace:
        """Full noise prediction of one sample; returns eps and the cacheable U31 feature.

        With ``keep_bg``, the trace's ``dfa`` holds for each U32 site
        ``cond.mask`` and the background rows of the site's full-path
        output: the ``dfa`` argument of :meth:`subnet`.  With
        ``keep_probs``, the trace's ``probs`` holds U32's reference-site
        probabilities, shaped (frames, L, keys).
        """
        cfg = self.cfg
        self._check_latent(z)
        if z.shape[0] != 1:
            raise ConfigError(f"forward takes one sample, got {z.shape[0]}")
        cond.validate(cfg)
        u32 = "U32" in cfg.attention_layers
        mask = cond.mask if keep_bg and u32 else None
        keep_probs = bool(keep_probs) and u32
        key = ("forward", bool(removal_active), keep_probs,
               None if mask is None else mask.fg_index.tobytes())
        with self._lock:  # also makes a timestep's time row once (_time_row)
            feeds = self._feeds(z[0].transpose(1, 0, 2, 3), [int(t)], cond)
            plan = self._plans.get(
                key, lambda: self._plan_forward(bool(removal_active), mask, keep_probs)
            )
            res = plan.run(active_library(), log, feeds)
        return ForwardTrace(
            eps=res["eps"],
            f_u31=res["f_u31"],
            dfa=None if mask is None else {
                site: attn.DfaContext(mask, res[("U32", site)]) for site in SITES
            },
            probs=res["probs"] if keep_probs else None,
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
        ``f_u31`` is one cached feature, (1, frames, channels, h, w), shared
        by every sample; it and the ``dfa`` caches are broadcast, not copied.
        Each sample's result is the bytes of a one-sample call, and ``log``
        receives the events of a one-sample call (see :meth:`Plan.finish`).
        """
        cfg = self.cfg
        self._check_latent(z)
        b = z.shape[0]
        ts = [int(t)] * b if np.ndim(t) == 0 else [int(v) for v in t]
        if len(ts) != b:
            raise ConfigError(f"need one timestep per sample: {len(ts)} for {b} samples")
        feat = (1, cfg.frames, cfg.base_channels[0], cfg.height, cfg.width)
        if f_u31.shape != feat:
            raise ConfigError(f"cached feature must be {feat}, got {f_u31.shape}")
        ctxs = None if dfa is None else tuple(sorted(
            (site, c.mask.shape, c.mask.fg_index.tobytes(), None if c.bg is None else c.bg.shape)
            for site, c in dfa.items()
        ))
        key = ("subnet", b, bool(removal_active), ctxs)
        f, cl, h, w = cfg.frames, cfg.latent_channels, cfg.height, cfg.width
        with self._lock:
            feeds = self._feeds(z.transpose(0, 2, 1, 3, 4).reshape(b * f, cl, h, w), ts, cond)
            feeds["f_u31"] = f_u31[0]
            feeds.update({("U32", site): c.bg for site, c in (dfa or {}).items()})
            plan = self._plans.get(
                key, lambda: self._plan_subnet(b, bool(removal_active), dfa)
            )
            return plan.run(active_library(), log, feeds)["eps"]

    def _feeds(self, z: np.ndarray, ts: list[int], cond: Conditioning) -> dict:
        """The inputs of a pass by name: "z", the latents as frames; "tproj", each
        sample's time projection row (:meth:`_time_row`); "audio" and "<layer>.ref",
        the conditioning.  A subnet adds "f_u31" and the background rows of each U32
        site, ("U32", site)."""
        return {
            "z": z,
            "tproj": np.stack([self._time_row(t) for t in ts]),
            "audio": cond.audio,
            **{f"{layer}.ref": tok for layer, tok in cond.ref.items()},
        }

    def _time_row(self, t: int) -> np.ndarray:
        """silu(emb(t) @ W_time + b_time) @ W_temb + b_temb over the units' packed
        columns (``_temb_w``): computed on t's first pass, then kept read-only.
        Callers hold the model's lock."""
        row = self._tproj.get(t)
        if row is None:
            emb = time_embedding(t, self.cfg.time_dim)[None]
            h = silu(matmul(emb, self.w["time.affine.w"]) + self.w["time.affine.b"])
            row = (matmul(h, self._temb_w) + self._temb_b)[0]
            row.flags.writeable = False
            self._tproj[t] = row
        return row

    def _check_latent(self, z: np.ndarray) -> None:
        cfg = self.cfg
        want = (cfg.latent_channels, cfg.frames, cfg.height, cfg.width)
        if z.ndim != 5 or z.shape[1:] != want:
            raise ConfigError(f"latent must be (b,) + {want}, got {z.shape}")
        if z.dtype != np.float32:
            raise ConfigError(f"latent must be float32, got {z.dtype}")

    # -- plans: each walk mirrors the pass, step by step and event by event

    def _plan_forward(self, removal: bool, keep_mask: ForegroundMask | None,
                      keep_probs: bool) -> Plan:
        cfg = self.cfg
        p = Plan()
        z = p.input("z", (cfg.frames, cfg.latent_channels, cfg.height, cfg.width))
        tp = self._plan_time(p, 1)

        def res(x: Buf, prefix: str) -> Buf:
            return self._plan_res(p, x, tp, 1, prefix)

        x = s_in = p.conv(z, self.convs["conv_in"], "conv_in")
        skips = []
        for i, blk in enumerate(("D0", "D1", "D2", "D3")):
            x = res(x, f"{blk}.res0")
            x = res(x, f"{blk}.res1")
            skips.append(x)
            if i < 3:
                x = p.conv(x, self.convs[f"down{i}"], f"down{i}", stride=2)
        x = res(x, "M.res0")
        if "M" in cfg.attention_layers:
            x = self._plan_attn(p, x, "M", removal)
        x = res(x, "M.res1")
        for i, blk in enumerate(("U0", "U1", "U2")):
            x = res(_plan_concat(p, x, skips[3 - i]), f"{blk}.res0")
            x = res(x, f"{blk}.res1")
            if blk == "U2" and "U2" in cfg.attention_layers:
                x = self._plan_attn(p, x, "U2", removal)
            x = p.conv(_plan_upsample(p, x), self.convs[f"up{i}"], f"up{i}")
        x = res(_plan_concat(p, x, skips[0]), "U30.res")
        f_u31 = res(x, "U31.res")
        eps = self._plan_u32_head(p, f_u31, s_in, tp, 1, removal, None, keep_mask, keep_probs)
        # Copies, never np.ascontiguousarray: with one frame or one latent
        # channel the transpose is contiguous, and that would return a view
        # of the plan's arena.
        p.result("eps", eps, lambda a: a.transpose(1, 0, 2, 3).copy()[None])
        p.result("f_u31", f_u31, lambda a: a.copy()[None])
        return p.finish()

    def _plan_subnet(self, b: int, removal: bool, dfa: DfaCache | None) -> Plan:
        cfg = self.cfg
        f, cl, h, w = cfg.frames, cfg.latent_channels, cfg.height, cfg.width
        p = Plan()
        z = p.input("z", (b * f, cl, h, w))
        tp = self._plan_time(p, b)
        s_in = p.conv(z, self.convs["conv_in"], "conv_in")
        f_in = p.input("f_u31", (f, cfg.base_channels[0], h, w))
        eps = self._plan_u32_head(p, f_in, s_in, tp, b, removal, dfa, None, False)
        p.result("eps", eps, lambda a: a.reshape(b, f, *a.shape[1:]).transpose(0, 2, 1, 3, 4).copy())
        return p.finish(b)

    def _plan_time(self, p: Plan, samples: int) -> Buf:
        """Every unit's time projection for each sample, the input "tproj".  The time
        MLP that made it is logged on every pass, as if the pass ran it."""
        td = self.cfg.time_dim
        p.flop("matmul", "time", (samples, td, td))
        p.flop("elementwise", "time", (samples * td,))
        p.flop("elementwise", "time", (4 * samples * td,))  # the SiLU
        return p.input("tproj", (samples, self._temb_w.shape[1]))

    def _plan_preact(self, p: Plan, x: Buf, layer: str, name: str, **epilogue) -> Buf:
        """conv(silu(norm(x))): the norm writes SiLU's gate and the conv applies it."""
        normed, gate = p.norm(x, layer, gate=True)
        p.flop("elementwise", layer, (4 * x.size,))  # the SiLU
        return p.conv(normed, self.convs[name], name, gate=gate, **epilogue)

    def _plan_res(self, p: Plan, x: Buf, tproj: Buf, samples: int, prefix: str) -> Buf:
        """Residual unit on a stack of samples' frames, one time projection row per sample.

        conv1's store adds the unit's time projection and conv2's writes
        ``base + 0.5 * h2``, the unit's output.
        """
        f, c, h, w = x.shape
        h1 = self._plan_preact(p, x, prefix, f"{prefix}.conv1", add=(tproj, self._temb_col[prefix]))
        skip = self.w.get(f"{prefix}.skip.w")
        base = x if skip is None else p.channel_mix(x, skip)
        h2 = self._plan_preact(p, h1, prefix, f"{prefix}.conv2", base=base)
        if skip is not None:
            p.flop("matmul", f"{prefix}.skip.w", (f * h * w, c, skip.shape[1]))
        p.flop("matmul", prefix, (samples, self.cfg.time_dim, h1.shape[1]))
        p.flop("elementwise", prefix, (h1.size + 2 * h2.size,))
        return h2

    def _plan_attn(
        self, p: Plan, x: Buf, layer: str, removal_active: bool, dfa: DfaCache | None = None,
        keep_mask: ForegroundMask | None = None, keep_probs: bool = False,
    ) -> Buf:
        """Reference, audio and temporal sites on a stack of samples' frames.

        Each site runs once for the whole stack, on the feature map in its
        own (frames, channels, pixels) layout: it normalizes the tokens, and
        its output projection writes x + 0.5 * delta, the next feature map.
        Temporal attention stays inside each sample's frames.  Inputs and
        results are named as in :meth:`forward` and :meth:`subnet`; only
        U32's call restricts (``dfa``) or keeps anything.  On the full path
        of a one-sample stack, with ``keep_mask`` each site's background
        rows are the result (layer, site), as the restricted path reads
        them, and with ``keep_probs`` the reference site's probabilities are
        the result "probs".
        """
        cfg = self.cfg
        n, c, h, w = x.shape
        f = cfg.frames
        k, L = n // f, h * w
        d = cfg.head_dim
        removal = removal_active and layer in cfg.removal_set

        def site(name: str) -> dict:
            ctx = None if dfa is None else dfa.get(name)
            return {"ctx": ctx, "bg": (layer, name)}

        def norm(tokens: Buf, name: str, copies: int = 1) -> Buf:
            return p.norm(tokens, name, copies=copies, tokens=True)

        def keep(name: str, a: Buf | None, perm: tuple[int, ...]) -> None:
            # Read after the pass into new arrays (select_tokens, looked up
            # when the result is read), so no returned row aliases the plan.
            if keep_mask is None or a is None:
                return
            bg = keep_mask.bg_index
            p.result((layer, name), a, lambda arr: np.ascontiguousarray(
                attn.select_tokens(arr.reshape(k, f, d, L)[0], bg, 2).transpose(perm)))

        def residual(out: Buf, name: str) -> Buf:
            p.flop("elementwise", name, (2 * x.size,))
            return out

        name = f"{layer}.ref"
        ref = p.input(name, (1, c, L), lambda a: a[0].T)
        x1, a, probs = attn.plan_reference_site(
            p, norm(x, name), norm(ref, name, k), self.w, name, lead=(k, f), base=x,
            removal=removal, keep_probs=keep_probs, **site("reference")
        )
        keep("reference", a, (0, 2, 1))
        if probs is not None:
            p.result("probs", probs, np.copy)
        x1 = residual(x1, name)

        name = f"{layer}.aud"
        aud = p.input("audio", (f, cfg.audio_dim, cfg.audio_tokens), lambda a: a.swapaxes(1, 2))
        x2, a = attn.plan_audio_site(p, norm(x1, name), norm(aud, name, k), self.w, name,
                                     lead=(k, f), base=x1, **site("audio"))
        keep("audio", a, (0, 2, 1))
        x2 = residual(x2, name)

        name = f"{layer}.tmp"
        x3, a = attn.plan_temporal_site(p, norm(x2, name), self.w, name, frames=f, lead=(k,),
                                        base=x2, **site("temporal"))
        keep("temporal", a, (2, 0, 1))
        return residual(x3, name)

    def _plan_u32_head(
        self, p: Plan, f_u31: Buf, s_in: Buf, tproj: Buf, samples: int, removal: bool,
        dfa: DfaCache | None, keep_mask: ForegroundMask | None, keep_probs: bool,
    ) -> Buf:
        """Noise prediction from the U31 feature, one sample's frames, and the
        conv_in branch of every sample."""
        # Each fusion branch is normalized on its own: the cached feature
        # accumulates the trunk's magnitude while the fresh conv_in branch
        # does not, and a joint scale would crush whichever branch is
        # smaller, leaving the truncated pass insensitive to its latent.
        # The feature, shared by every sample of the stack, is broadcast.
        f, c, h, w = f_u31.shape
        fn = p.norm(f_u31, "U32.f", copies=samples)
        sn = p.norm(s_in, "U32.in")
        fused = p.buf((s_in.shape[0], 2 * c, h, w))

        def half(i: int):
            return lambda: fused.a.reshape(samples, f, 2 * c, h * w)[:, :, i * c : (i + 1) * c]

        p.copy(half(0), lambda: fn.a.reshape(1, f, c, h * w), fn, fused)
        p.copy(half(1), lambda: sn.a.reshape(samples, f, c, h * w), sn, fused)
        x = self._plan_res(p, fused, tproj, samples, "U32.res")
        if "U32" in self.cfg.attention_layers:
            x = self._plan_attn(p, x, "U32", removal, dfa, keep_mask, keep_probs)
        return self._plan_preact(p, x, "head", "head")


def _plan_concat(p: Plan, a: Buf, b: Buf) -> Buf:
    """Concatenation along the channel axis."""
    ca = a.shape[1]
    out = p.buf((a.shape[0], ca + b.shape[1]) + a.shape[2:])
    p.copy(lambda: out.a[:, :ca], lambda: a.a, a, out)
    p.copy(lambda: out.a[:, ca:], lambda: b.a, b, out)
    return out


def _plan_upsample(p: Plan, x: Buf) -> Buf:
    """Nearest-neighbour 2x upsampling of the last two axes."""
    n, c, h, w = x.shape
    out = p.buf((n, c, 2 * h, 2 * w))
    p.copy(lambda: out.a.reshape(n, c, h, 2, w, 2), lambda: x.a[:, :, :, None, :, None], x, out)
    return out
