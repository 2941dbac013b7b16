"""The benchmark's metrics, and the BENCHMARK.json manifest made from them.

Every per-layer metric names the end-to-end metric and workload it should
move, written down before any measurement, so that a change to one layer
can be checked against the prediction.  Per-layer values are per timed
clip; ``.s`` is summed span time, ``.self_s`` the time not covered by
child spans, ``.calls`` a call count.

Run ``python3 perfbench/manifest.py`` to rewrite BENCHMARK.json from this
file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 50
# Workloads the manifest gates.  lcp_tail stays runnable and traceable but
# ungated: with one client its run leaves a core idle during key steps,
# and on a shared 2-core VM gating three workloads left runs too short to
# be steady.  Two workloads allow 50 s runs within the time budget.
GATED_WORKLOADS = ("baseline", "full_stack")

# (name, unit, better, bound): gated end-to-end metrics, measured with
# tracing off.  The wall-time bounds are the widest allowed because the
# speed of a shared 2-core VM drifts by more than 10 % between minutes,
# even with both cores busy.  rel_l2_vs_baseline and
# error_rate are printed by every run but not gated here: both are 0 on
# correct code, so a share of their median is undefined; a wrong output
# fails the run's `correct` instead.
END_TO_END = [
    ("clip_s", "s", "lower", 0.25),
    ("modeled_clip_s", "s", "lower", 0.25),
    ("flops_per_clip", "FLOP", "lower", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

INFORMATIONAL = [("rel_l2_vs_baseline", "1"), ("error_rate", "1")]

_BASE_SPEED = "clip_s, modeled_clip_s"
# (name, unit, better, what it should move on which workload)
PER_LAYER = [
    ("kernels.matmul.calls", "count", "lower", f"{_BASE_SPEED}: baseline most, lcp_tail about half"),
    ("kernels.matmul.s", "s", "lower", f"{_BASE_SPEED}: baseline most, lcp_tail about half"),
    ("kernels.matmul.gflop", "GFLOP", "lower", "flops_per_clip on every workload"),
    ("kernels.matmul.mbytes", "MB", "lower", "clip_s on every workload (computed from shapes)"),
    ("kernels.matmul.gflops_per_s", "GFLOP/s", "higher", f"{_BASE_SPEED}: baseline most, lcp_tail about half"),
    ("kernels.matmul.shapes", "count", "lower", "none; coverage census for compiled kernels"),
    ("kernels.conv2d_frames.calls", "count", "lower", "clip_s: baseline, barely lcp_tail"),
    ("kernels.conv2d_frames.s", "s", "lower", "clip_s: baseline, barely lcp_tail"),
    ("kernels.conv2d_frames.self_s", "s", "lower", "clip_s: baseline (im2col and layout copies), barely lcp_tail"),
    ("kernels.conv2d_frames.gflops_per_s", "GFLOP/s", "higher", "clip_s: baseline, barely lcp_tail"),
    ("kernels.conv2d_frames.shapes", "count", "lower", "none; coverage census for compiled kernels"),
    ("kernels.matmul_batch.calls", "count", "lower", "clip_s: lcp_tail most"),
    ("kernels.matmul_batch.s", "s", "lower", "clip_s: lcp_tail most"),
    ("kernels.matmul_batch.shapes", "count", "lower", "none; coverage census for compiled kernels"),
    ("kernels.softmax_rows.calls", "count", "lower", "clip_s: lcp_tail most"),
    ("kernels.softmax_rows.s", "s", "lower", "clip_s: lcp_tail most"),
    ("kernels.silu.calls", "count", "lower", "clip_s: lcp_tail most"),
    ("kernels.silu.s", "s", "lower", "clip_s: lcp_tail most"),
    ("attention.reference_site.calls", "count", "lower", f"{_BASE_SPEED}: lcp_tail, then full_stack, then baseline"),
    ("attention.reference_site.s", "s", "lower", f"{_BASE_SPEED}: lcp_tail, then full_stack, then baseline"),
    ("attention.reference_site.self_s", "s", "lower", f"{_BASE_SPEED}: lcp_tail, then full_stack, then baseline"),
    ("attention.audio_site.calls", "count", "lower", f"{_BASE_SPEED}: lcp_tail, then full_stack, then baseline"),
    ("attention.audio_site.s", "s", "lower", f"{_BASE_SPEED}: lcp_tail, then full_stack, then baseline"),
    ("attention.temporal_site.calls", "count", "lower", f"{_BASE_SPEED}: lcp_tail, then full_stack, then baseline"),
    ("attention.temporal_site.s", "s", "lower", f"{_BASE_SPEED}: lcp_tail, then full_stack, then baseline"),
    ("attention.select_tokens.calls", "count", "lower", "clip_s: full_stack only (0 calls elsewhere)"),
    ("attention.select_tokens.s", "s", "lower", "clip_s: full_stack only (0 calls elsewhere)"),
    ("attention.merge_tokens.calls", "count", "lower", "clip_s: full_stack only (0 calls elsewhere)"),
    ("attention.merge_tokens.s", "s", "lower", "clip_s: full_stack only (0 calls elsewhere)"),
    ("unet.forward.calls", "count", "lower", "clip_s: baseline and full_stack"),
    ("unet.forward.s", "s", "lower", "clip_s: baseline and full_stack"),
    ("unet.forward.ms_p50", "ms", "lower", "clip_s: baseline and full_stack"),
    ("unet.subnet.calls", "count", "lower", "modeled_clip_s: lcp_tail (0 calls on baseline)"),
    ("unet.subnet.s", "s", "lower", "modeled_clip_s: lcp_tail (0 calls on baseline)"),
    ("unet.subnet.ms_p50", "ms", "lower", "modeled_clip_s: lcp_tail (0 calls on baseline)"),
    ("engine.denoise_clip.s", "s", "lower", "clip_s on every workload"),
    ("engine.phase.calls", "count", "lower", "modeled_clip_s: lcp_tail, full_stack; none on baseline"),
    ("engine.phase.tasks", "count", "lower", "modeled_clip_s: lcp_tail, full_stack; none on baseline"),
    ("engine.phase.s", "s", "lower", "clip_s: lcp_tail, full_stack; none on baseline"),
    ("engine.phase.task_s", "s", "lower", "modeled_clip_s: lcp_tail, full_stack; none on baseline"),
    ("engine.phase.modeled_s", "s", "lower", "modeled_clip_s: lcp_tail, full_stack; none on baseline"),
    ("engine.phase.overlap", "1", "higher", "modeled_clip_s: lcp_tail (near 1 while the GIL serializes tasks)"),
    ("engine.cache_reuse", "1", "higher", "clip_s, flops_per_clip: full_stack, lcp_tail; 0 on baseline"),
    ("schedule.ddim_step_skipping.calls", "count", "lower", "clip_s: lcp_tail and full_stack"),
    ("schedule.ddim_step_skipping.s", "s", "lower", "clip_s: lcp_tail and full_stack"),
    ("profiler.count_flops.calls", "count", "lower", "clip_s: about 1 % on every workload"),
    ("profiler.count_flops.s", "s", "lower", "clip_s: about 1 % on every workload"),
    ("flops.conv2d", "FLOP", "lower", "flops_per_clip"),
    ("flops.matmul", "FLOP", "lower", "flops_per_clip"),
    ("flops.attention", "FLOP", "lower", "flops_per_clip"),
    ("flops.elementwise", "FLOP", "lower", "flops_per_clip"),
    ("flops.M", "FLOP", "lower", "flops_per_clip"),
    ("flops.U2", "FLOP", "lower", "flops_per_clip"),
    ("flops.U32", "FLOP", "lower", "flops_per_clip"),
    ("runner.build_model.s", "s", "lower", "setup_s on every workload"),
    ("runner.build_conditioning.s", "s", "lower", "setup_s on every workload"),
    ("tensor_io.checksum.s", "s", "lower", "clip_s on every workload (two checksums per clip)"),
    ("trace.untraced_clip_s", "s", "lower", "clip_s; the untraced clip of the traced run"),
    ("trace.clip_s", "s", "lower", "none; median traced clip"),
    ("trace.overhead_s", "s", "lower", "none; tracing cost, trace.clip_s - trace.untraced_clip_s"),
    ("trace.spans", "count", "lower", "none; spans recorded per clip"),
]


def manifest() -> dict:
    from workload import WORKLOADS

    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why} for n in GATED_WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    (root / "BENCHMARK.json").write_text(render())
