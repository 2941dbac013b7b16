"""Run assembly: inputs, full runs, ablation sweeps, diagnostics.

Noise stream layout (root = noise seed): child 0 draws run-length audio,
child 1's children draw per-layer reference tokens, child ``2 + i`` draws
the initial latent of clip ``i``.  Weight and noise seeds are the only
entropy sources in a run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .engine import denoise_clip, segment_condition
from .errors import ConfigError
from .kernels import active_backend
from .masks import ForegroundMask, mask_from_spec
from .profiler import (
    FlopLedger,
    cosine_matrix,
    fg_attention_mass,
    l2_series,
    rel_l2,
    speedup,
)
from .rng import Rng
from .tensor_io import checksum
from .unet import SITES, Conditioning, ForwardTrace, ToyUNet, UNetConfig, init_weights


@dataclass
class RunResult:
    """Everything produced by one run."""

    final: np.ndarray
    clip_finals: list[np.ndarray]
    clip_reports: list[dict]
    ledger: FlopLedger
    report: dict


def build_model(rc: RunConfig) -> ToyUNet:
    weights, _ = init_weights(rc.unet, rc.seeds.weights)
    return ToyUNet(rc.unet, weights)


def build_conditioning(rc: RunConfig) -> tuple[list[Conditioning], Rng]:
    """Per-clip conditioning plus the noise root stream for latents."""
    cfg = rc.unet
    root = Rng(rc.seeds.noise)
    audio = root.child(0).normal(
        (rc.run.total_frames, cfg.audio_tokens, cfg.audio_dim)
    )
    ref_root = root.child(1)
    ref = {}
    for i, (layer, (c, h, w)) in enumerate(cfg.attn_info().items()):
        ref[layer] = ref_root.child(i).normal((h * w, c))
    mask = mask_from_spec(rc.mask, cfg.height, cfg.width)
    return segment_condition(cfg, audio, ref, mask), root


def initial_latent(root: Rng, cfg: UNetConfig, clip: int) -> np.ndarray:
    return root.child(2 + clip).normal(
        (1, cfg.latent_channels, cfg.frames, cfg.height, cfg.width)
    )


def execute_run(rc: RunConfig, *, on_key_step=None, model: ToyUNet | None = None) -> RunResult:
    """Denoise all clips of a run under the configured strategy; ``on_key_step`` is
    :func:`denoise_clip`'s."""
    cfg = rc.unet
    sched = rc.build_schedule()
    plan = rc.build_plan(sched)
    if model is None:
        model = build_model(rc)
    conds, root = build_conditioning(rc)
    ledger = FlopLedger()
    clip_finals: list[np.ndarray] = []
    clip_reports: list[dict] = []
    for ci, cond in enumerate(conds):
        z_T = initial_latent(root, cfg, ci)
        z0, rep, led = denoise_clip(
            model, sched, plan, rc.strategy, z_T, cond,
            clip_id=ci, on_key_step=on_key_step,
        )
        clip_finals.append(z0)
        clip_reports.append(rep)
        ledger.merge(led)
    frames = np.concatenate([z[0] for z in clip_finals], axis=1)
    final = np.ascontiguousarray(frames[:, : rc.run.total_frames])
    totals = {
        key: sum(r["totals"][key] for r in clip_reports)
        for key in ("flops", "wall_ns", "modeled_wall_ns")
    }
    report = {
        "config": rc.to_dict(),
        "backend": active_backend(),
        "plan": {
            "sampled": list(plan.sampled),
            "t_thresh": plan.t_thresh,
            "block_size": rc.schedule.block_size,
        },
        "clips": clip_reports,
        "totals": totals,
        "final_checksum": checksum(final),
    }
    return RunResult(
        final=final,
        clip_finals=clip_finals,
        clip_reports=clip_reports,
        ledger=ledger,
        report=report,
    )


# ---------------------------------------------------------------------------
# ablation


ABLATION_ROWS = (
    ("baseline", "baseline", True),
    ("lcp_noest", "lcp", False),
    ("lcp", "lcp", True),
    ("lcp_dfa", "lcp_dfa", True),
    ("lcp_dfa_rm", "lcp_dfa_rm", True),
)


def execute_ablation(rc: RunConfig) -> list[dict]:
    """Run all strategy variants on one configuration.

    Returns one row per variant with FLOPs, modeled latency, speedup
    against the baseline row, and relative L2 of the final latent against
    the baseline final.
    """
    model = build_model(rc)
    rows = []
    base_final = None
    base_latency = None
    base_flops = None
    for label, variant, estimation in ABLATION_ROWS:
        strat = dataclasses.replace(rc.strategy, variant=variant, estimation=estimation)
        rcv = dataclasses.replace(rc, strategy=strat)
        res = execute_run(rcv, model=model)
        flops = res.report["totals"]["flops"]
        latency = res.report["totals"]["modeled_wall_ns"]
        if label == "baseline":
            base_final = res.final
            base_latency = latency
            base_flops = flops
        rows.append(
            {
                "label": label,
                "variant": variant,
                "estimation": estimation,
                "flops": flops,
                "modeled_wall_ns": latency,
                "speedup": speedup(base_latency, latency),
                "flops_ratio": round(base_flops / flops, 3),
                "rel_l2_vs_baseline": rel_l2(res.final, base_final),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class StepCapture:
    t: int
    z_in: np.ndarray
    eps: np.ndarray
    f_u31: np.ndarray
    bg: dict[str, np.ndarray]
    mass: list[dict[str, float]]


class DiagnosticsTap:
    """Key-step collector for a baseline run (the ``on_key_step`` of :func:`execute_run`).

    Captures per-step U31 features, input latents, noise predictions,
    background attention rows at the final attention layer, and the
    foreground-query attention mass split over key groups, under ``mask``,
    the run's conditioning mask.
    """

    def __init__(self, mask: ForegroundMask):
        self.mask = mask
        self.steps: list[StepCapture] = []

    def __call__(self, t: int, z_in: np.ndarray, trace: ForwardTrace) -> None:
        mass = []
        if self.mask.num_fg:
            probs = trace.probs
            L = probs.shape[1]
            fg, bg_idx = self.mask.fg_index, self.mask.bg_index
            groups = {"fg_noisy": fg, "bg_noisy": bg_idx, "fg_ref": L + fg, "bg_ref": L + bg_idx}
            mass = [fg_attention_mass(frame[fg], groups) for frame in probs]
        self.steps.append(StepCapture(t, z_in.copy(), trace.eps, trace.f_u31, trace.dfa, mass))


@dataclass
class DiagnosticsResult:
    sampled: list[int]
    feature_l2: np.ndarray
    feature_cosine: np.ndarray
    latent_l2: np.ndarray
    noise_l2: np.ndarray
    bg_l2: dict[str, np.ndarray]
    fg_mass: dict[str, float]


def execute_diagnostics(rc: RunConfig) -> DiagnosticsResult:
    """Baseline single-clip run with every key step captured, reduced to series."""
    cfg = rc.unet
    strat = dataclasses.replace(rc.strategy, variant="baseline")
    rcd = dataclasses.replace(
        rc,
        strategy=strat,
        run=dataclasses.replace(rc.run, total_frames=cfg.frames),
    )
    tap = DiagnosticsTap(mask_from_spec(rc.mask, cfg.height, cfg.width))
    execute_run(rcd, on_key_step=tap)
    steps = tap.steps
    if len(steps) < 2:
        raise ConfigError("diagnostics need at least two sampled steps")
    feats = [s.f_u31 for s in steps]
    bg_l2 = {site: l2_series([s.bg[site] for s in steps]) for site in SITES}
    mass_rows = [m for s in steps for m in s.mass]
    fg_mass = {}
    if mass_rows:
        for key in mass_rows[0]:
            fg_mass[key] = float(np.mean([m[key] for m in mass_rows]))
    return DiagnosticsResult(
        sampled=[s.t for s in steps],
        feature_l2=l2_series(feats),
        feature_cosine=cosine_matrix(feats),
        latent_l2=l2_series([s.z_in for s in steps]),
        noise_l2=l2_series([s.eps for s in steps]),
        bg_l2=bg_l2,
        fg_mass=fg_mass,
    )


# ---------------------------------------------------------------------------
# report comparison


def compare_reports(a: dict, b: dict) -> dict:
    """Compare two run reports: modeled speedup, FLOPs ratio, output equality."""
    for name, rep in (("first", a), ("second", b)):
        if not isinstance(rep, dict) or not isinstance(rep.get("config", {}), dict):
            raise ConfigError(f"{name} report or its config is not a JSON object")
        totals = rep.get("totals")
        for key in ("modeled_wall_ns", "flops"):
            v = totals.get(key) if isinstance(totals, dict) else None
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf:
                raise ConfigError(f"{name} report needs a positive number at totals.{key}")
        if not isinstance(rep.get("final_checksum"), str):
            raise ConfigError(f"{name} report needs a string at final_checksum")
    ua = a.get("config", {}).get("unet")
    ub = b.get("config", {}).get("unet")
    if ua is not None and ub is not None and ua != ub:
        raise ConfigError("reports describe different model shapes")
    la = a["totals"]["modeled_wall_ns"]
    lb = b["totals"]["modeled_wall_ns"]
    return {
        "speedup": speedup(la, lb),
        "flops_ratio": round(a["totals"]["flops"] / b["totals"]["flops"], 3),
        "baseline_modeled_wall_ns": la,
        "accelerated_modeled_wall_ns": lb,
        "same_final": a.get("final_checksum") == b.get("final_checksum"),
    }
