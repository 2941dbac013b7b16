"""Denoising orchestration: caching, estimation, parallel prediction.

A run walks a timestep plan block by block.  The block's key step runs
the full network; its trace holds the block's cache: the U31 feature, the
predicted noise and, for restricted-attention variants, the background
rows of U32's attention sites under the clip's mask as
``ForwardTrace.dfa``, in the plans' own (frames, head_dim, rows) layout,
which the subnet reads as is under the same conditioning's mask.
The cache lives only as long as its block.  Non-key steps run the
truncated subnet only.  Their inputs are either reused from the
post-key latent or estimated by unrolling the deterministic update with
the key noise (:func:`estimate_input_latents`); the subnet evaluations
are then independent and form one parallel phase.  The phase splits the
non-key steps into one contiguous chunk per worker, and each chunk is one
stacked :meth:`ToyUNet.subnet` call with the chunk's latents along the
frame axis and one timestep per step.  A second, cheap sequential phase
applies the sampler updates using the true latents.

The chunks run one after another in this process (:class:`ParallelRunner`);
``workers`` is the number of chunks, and the phase's modeled latency is
what that many workers would take: the dispatch overhead plus the longest
chunk.  The worker count never changes results: a stacked call gives each
step the bytes of a one-step call, chunks are merged in order and all
kernels are deterministic.  Each step is charged its own FLOPs and an
equal share of its chunk's wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantError
from .masks import ForegroundMask
from .profiler import FlopLedger, FlopLog
from .schedule import (
    Block,
    NoiseSchedule,
    TimestepPlan,
    ddim_step_skipping,
)
from .tensor_io import checksum
from .unet import Conditioning, ToyUNet, UNetConfig

VARIANTS = ("baseline", "lcp", "lcp_dfa", "lcp_dfa_rm")


@dataclass(frozen=True)
class Strategy:
    """Inference strategy selection."""

    variant: str = "baseline"
    estimation: bool = True
    workers: int = 1
    dispatch_overhead_ns: int = 200_000

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.dispatch_overhead_ns < 0:
            raise ConfigError("dispatch_overhead_ns must be >= 0")

    @property
    def uses_cache(self) -> bool:
        return self.variant != "baseline"

    @property
    def uses_dfa(self) -> bool:
        return self.variant in ("lcp_dfa", "lcp_dfa_rm")

    @property
    def uses_removal(self) -> bool:
        return self.variant == "lcp_dfa_rm"


def estimate_input_latents(
    z_after_key: np.ndarray,
    eps_key: np.ndarray,
    nonkeys: tuple[int, ...],
    sched: NoiseSchedule,
) -> list[np.ndarray]:
    """Estimated subnet inputs for nonkeys[1:].

    Unrolls the deterministic update along the non-key timesteps, reusing
    the key step's noise prediction at every hop.  ``z_after_key`` is the
    true input of the first non-key step; each further input is estimated
    from the previous one.
    """
    if len(nonkeys) < 2:
        return []
    out = []
    prev = z_after_key
    for j in range(len(nonkeys) - 1):
        prev = ddim_step_skipping(prev, eps_key, nonkeys[j], nonkeys[j + 1], sched)
        out.append(prev)
    return out


class ParallelRunner:
    """Runs the chunks of a parallel phase in order, with an analytic latency model.

    The chunks run one after another on the calling thread: a pass
    releases the interpreter lock, but a model's plans share one arena, so
    a model runs one pass at a time (threads would need a model, or an
    arena, per thread).  The modeled latency is what ``workers`` workers
    would take: the dispatch overhead plus the largest per-worker bin under
    round-robin assignment of the measured task walls.  It is a model, not
    a measurement.
    """

    def __init__(self, workers: int, dispatch_overhead_ns: int):
        self.workers = workers
        self.dispatch_overhead_ns = dispatch_overhead_ns

    def run(self, tasks) -> tuple[list, list[int], int]:
        """(results in task order, measured wall per task, modeled phase latency), in ns."""
        results, walls = [], []
        for fn in tasks:
            t0 = time.perf_counter_ns()
            results.append(fn())
            walls.append(time.perf_counter_ns() - t0)
        bins = [0] * min(self.workers, len(walls))  # more bins than tasks stay empty
        for i, w in enumerate(walls):
            bins[i % len(bins)] += w
        modeled = self.dispatch_overhead_ns + (max(bins) if walls else 0)
        return results, walls, modeled


def _check_finite(z: np.ndarray, what: str) -> None:
    if not np.isfinite(z).all():
        raise InvariantError(f"non-finite latent after {what}")


def denoise_clip(
    model: ToyUNet,
    sched: NoiseSchedule,
    plan: TimestepPlan,
    strategy: Strategy,
    z_T: np.ndarray,
    cond: Conditioning,
    *,
    clip_id: int = 0,
    on_key_step=None,
) -> tuple[np.ndarray, dict, FlopLedger]:
    """Denoise one clip; returns final latent, report, and FLOPs ledger.

    ``on_key_step(t, z, trace)``, when given, is called after each key
    step's forward pass with its timestep, input latent and
    :class:`ForwardTrace`, whose ``dfa`` and ``probs`` it then holds.
    Only the DFA variants' tail calls read ``dfa``, so the callback does not
    change the run.
    """
    if z_T.shape[0] != 1:
        raise ConfigError(f"denoise_clip expects batch 1, got {z_T.shape}")
    _check_finite(z_T, "initialization")
    eff_plan = plan if strategy.uses_cache else plan.singleton()
    runner = ParallelRunner(strategy.workers, strategy.dispatch_overhead_ns)
    ledger = FlopLedger()
    per_step: list[dict] = []
    modeled_total = 0
    z = z_T
    n_update = z.size
    blocks = eff_plan.blocks
    for bi, block in enumerate(blocks):
        boundary = blocks[bi + 1].key if bi + 1 < len(blocks) else 0
        z, modeled = _run_block(
            model, sched, block, boundary, strategy, z, cond,
            ledger, per_step, on_key_step, runner, n_update,
        )
        modeled_total += modeled
    report = {
        "clip": clip_id,
        "strategy": {
            "variant": strategy.variant,
            "estimation": strategy.estimation,
            "workers": strategy.workers,
            "dispatch_overhead_ns": strategy.dispatch_overhead_ns,
        },
        "plan": {
            "sampled": list(eff_plan.sampled),
            "t_thresh": eff_plan.t_thresh,
            "num_blocks": len(blocks),
        },
        "per_step": per_step,
        "totals": {
            "flops": sum(s["flops"] for s in per_step),
            "wall_ns": sum(s["wall_ns"] for s in per_step),
            "modeled_wall_ns": modeled_total,
        },
        "valid_frames": cond.valid_frames,
        "final_checksum": checksum(z),
    }
    if report["totals"]["flops"] != ledger.total():
        raise InvariantError("per-step flops do not sum to the ledger total")
    return z, report, ledger


def _run_block(
    model, sched, block: Block, boundary: int, strategy: Strategy, z, cond,
    ledger: FlopLedger, per_step: list, on_key_step, runner, n_update: int,
):
    """Execute one block (key step plus optional non-key phase)."""
    log = FlopLog()
    t0 = time.perf_counter_ns()
    trace = model.forward(
        z, block.key, cond,
        log=log,
        keep_bg=(strategy.uses_dfa and bool(block.nonkeys)) or on_key_step is not None,
        keep_probs=on_key_step is not None,
        removal_active=strategy.uses_removal,
    )
    if on_key_step is not None:
        on_key_step(block.key, z, trace)
    t_next = block.nonkeys[0] if block.nonkeys else boundary
    z_next = ddim_step_skipping(z, trace.eps, block.key, t_next, sched)
    _check_finite(z_next, f"key step t={block.key}")
    log.add("elementwise", "scheduler", (3 * n_update,))
    key_wall = time.perf_counter_ns() - t0
    ledger.extend(log, block.key)
    per_step.append(
        {"t": block.key, "kind": "key", "flops": log.total(), "wall_ns": key_wall}
    )
    if not block.nonkeys:
        return z_next, key_wall

    # Subnet inputs: the first non-key step always sees its true latent;
    # later steps see estimates (if eligible) or the same post-key latent.
    n = len(block.nonkeys)
    estimating = strategy.estimation and block.estimation_eligible and n > 1
    e0 = time.perf_counter_ns()
    if estimating:
        inputs = [z_next] + estimate_input_latents(z_next, trace.eps, block.nonkeys, sched)
    else:
        inputs = [z_next] * n
    est_wall = time.perf_counter_ns() - e0 if estimating else 0

    def make_task(steps: range):
        def task():
            clog = FlopLog()
            eps = model.subnet(
                trace.f_u31, np.concatenate([inputs[j] for j in steps]),
                [block.nonkeys[j] for j in steps], cond,
                log=clog, dfa=trace.dfa if strategy.uses_dfa else None,
                removal_active=strategy.uses_removal,
            )
            return eps, clog

        return task

    # One stacked subnet call per worker, over a contiguous run of steps.
    w = min(strategy.workers, n)
    chunks = [range(i * n // w, (i + 1) * n // w) for i in range(w)]
    results, walls, modeled_phase1 = runner.run([make_task(c) for c in chunks])
    step_eps, step_logs, step_walls = [], [], []
    for steps, (eps, sample_log), wall in zip(chunks, results, walls):
        for i in range(len(steps)):
            step_eps.append(eps[i : i + 1])
            step_logs.append(sample_log)
            step_walls.append(wall // len(steps))

    cur = z_next
    phase2_walls = []
    for j, t_j in enumerate(block.nonkeys):
        t_to = block.nonkeys[j + 1] if j + 1 < n else boundary
        p0 = time.perf_counter_ns()
        cur = ddim_step_skipping(cur, step_eps[j], t_j, t_to, sched)
        _check_finite(cur, f"non-key step t={t_j}")
        phase2_walls.append(time.perf_counter_ns() - p0)
        tlog = FlopLog()
        tlog.extend(step_logs[j])
        tlog.add("elementwise", "scheduler", (3 * n_update,))
        if estimating and j > 0:
            tlog.add("elementwise", "scheduler", (3 * n_update,))
        ledger.extend(tlog, t_j)
        per_step.append(
            {
                "t": t_j,
                "kind": "nonkey",
                "flops": tlog.total(),
                "wall_ns": step_walls[j] + (est_wall // (n - 1) if j else 0) + phase2_walls[j],
            }
        )
    modeled = key_wall + modeled_phase1 + est_wall + sum(phase2_walls)
    return cur, modeled


def segment_condition(
    cfg: UNetConfig,
    audio_full: np.ndarray,
    ref: dict[str, np.ndarray],
    mask: ForegroundMask,
) -> list[Conditioning]:
    """Split run-length audio into per-clip conditioning with zero padding.

    The final clip is padded up to the clip length; its ``valid_frames``
    records how many frames carry real conditioning.
    """
    if audio_full.ndim != 3 or audio_full.shape[0] < 1:
        raise ConfigError(f"audio must be (frames, tokens, dim), got {audio_full.shape}")
    f = cfg.frames
    total = audio_full.shape[0]
    out = []
    for start in range(0, total, f):
        chunk = audio_full[start : start + f]
        valid = chunk.shape[0]
        if valid < f:
            pad = np.zeros((f - valid,) + chunk.shape[1:], dtype=np.float32)
            chunk = np.concatenate([chunk, pad])
        cond = Conditioning(ref=ref, audio=np.ascontiguousarray(chunk), mask=mask, valid_frames=valid)
        cond.validate(cfg)
        out.append(cond)
    return out


_TIMING_KEYS = ("wall_ns", "modeled_wall_ns", "workers")


def canonical_report(report: dict) -> dict:
    """Determinism-comparison form: wall-clock fields and worker count removed.

    The scrub is recursive so nested clip reports and per-step entries are
    canonicalized the same way as the top level.
    """

    def scrub(node):
        if isinstance(node, dict):
            return {k: scrub(v) for k, v in node.items() if k not in _TIMING_KEYS}
        if isinstance(node, list):
            return [scrub(v) for v in node]
        return node

    return scrub(report)
