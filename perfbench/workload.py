"""Workloads, set-up, timed clips and reference outputs of the benchmark.

A workload is a strategy applied to the default model (4 latent channels,
16x16, 4 frames, S=40), one clip per run.  The benchmark's ``--seed``
picks the noise seed ``seed % NOISE_SEEDS``; weights always use seed 0.
The reference outputs of every workload and noise seed are committed under
``references/`` and were made at ``workers=1``, so every run also checks
that results do not depend on the worker count.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cachediff import runner
from cachediff.config import RunConfig, apply_overrides, config_from_dict
from cachediff.profiler import rel_l2
from cachediff.tensor_io import checksum, read_tns, write_tns

NOISE_SEEDS = 16
REFERENCE_DIR = Path(__file__).resolve().parent / "references"


@dataclass(frozen=True)
class Workload:
    why: str
    sets: tuple[str, ...]


# The three workloads stress different layers: `baseline` bypasses the
# cache, the parallel phase and restricted attention; `full_stack` runs all
# three on the paper's default plan; `lcp_tail` is dominated by the
# non-key subnet tail on the thread pool.
WORKLOADS = {
    "baseline": Workload(
        why="every step runs the full network; conv and matmul kernels dominate, "
        "cache, parallel phase and restricted attention are bypassed",
        sets=("strategy.variant=baseline", "strategy.workers=1"),
    ),
    "full_stack": Workload(
        why="the paper's full method (lcp_dfa_rm, N=3, mask frac:0.4): key steps write "
        "background rows, non-key steps read them, removal at M and U2",
        sets=(
            "strategy.variant=lcp_dfa_rm",
            "schedule.block_size=3",
            "strategy.workers=1",
        ),
    ),
    "lcp_tail": Workload(
        why="lcp with N=8 on 2 pool threads: the non-key subnet tail and full-path "
        "reference attention dominate; checked against workers=1 references",
        sets=("strategy.variant=lcp", "schedule.block_size=8", "strategy.workers=2"),
    ),
}


def noise_seed(seed: int) -> int:
    return seed % NOISE_SEEDS


def make_config(
    name: str, seed: int, base: RunConfig | None = None, *, workers: int | None = None
) -> RunConfig:
    """The run configuration of one workload: one clip, weights seed 0."""
    base = RunConfig() if base is None else base  # default mask: frac:0.4
    sets = list(WORKLOADS[name].sets) + [
        f"seeds.noise={noise_seed(seed)}",
        "seeds.weights=0",
        f"run.total_frames={base.unet.frames}",
    ]
    if workers is not None:
        sets.append(f"strategy.workers={workers}")
    return config_from_dict(apply_overrides(base.to_dict(), sets))


def set_up(rc: RunConfig):
    """Everything a clip needs before it can start: weights, conditioning, warm kernels.

    One full forward pass on the first clip's inputs pays any lazy kernel
    set-up and first-touch allocation here rather than in the first clip.
    """
    model = runner.build_model(rc)
    conds, root = runner.build_conditioning(rc)
    z = runner.initial_latent(root, rc.unet, 0)
    model.forward(z, rc.schedule.T, conds[0])
    return model


@dataclass
class Clip:
    """One attempted clip: its wall time and, when it completed, its outputs."""

    wall_s: float
    modeled_s: float | None = None
    flops: int | None = None
    final_checksum: str | None = None
    rel_l2_vs_baseline: float | None = None
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.final_checksum is not None and not self.problems


def run_clip(rc: RunConfig, model) -> tuple[Clip, runner.RunResult | None]:
    """Denoise one clip, timed from outside around ``runner.execute_run``."""
    t0 = time.perf_counter()
    try:
        res = runner.execute_run(rc, model=model)
    except Exception as exc:  # a raising clip is counted as failed, not fatal
        traceback.print_exc()
        return Clip(time.perf_counter() - t0, problems=(f"raised {exc!r}",)), None
    wall = time.perf_counter() - t0
    totals = res.report["totals"]
    clip = Clip(
        wall_s=wall,
        modeled_s=totals["modeled_wall_ns"] / 1e9,
        flops=totals["flops"],
        final_checksum=res.report["final_checksum"],
    )
    return clip, res


# ---------------------------------------------------------------------------
# reference outputs


def _baseline_path(ref_dir: Path, seed: int) -> Path:
    return ref_dir / f"baseline_final_s{seed:02d}.tns"


def load_references(ref_dir: Path = REFERENCE_DIR) -> dict:
    path = ref_dir / "references.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise RuntimeError(f"cannot read references {path}: {exc}") from exc


def baseline_final(refs: dict, seed: int, ref_dir: Path = REFERENCE_DIR) -> np.ndarray:
    """The committed baseline final latent of a noise seed, checked against its checksum."""
    final = read_tns(_baseline_path(ref_dir, seed))
    want = refs["workloads"]["baseline"][str(seed)]["final_checksum"]
    if checksum(final) != want:
        raise RuntimeError(f"baseline reference latent for seed {seed} does not match its checksum")
    return final


def check_clip(clip: Clip, res, name: str, seed: int, refs: dict, base_final: np.ndarray) -> Clip:
    """Compare a completed clip with the reference of its workload and noise seed."""
    if clip.final_checksum is None:
        return clip
    ref = refs["workloads"][name][str(noise_seed(seed))]
    problems = []
    if clip.final_checksum != ref["final_checksum"]:
        problems.append(f"final checksum {clip.final_checksum} != reference {ref['final_checksum']}")
    if clip.flops != ref["flops"]:
        problems.append(f"flops {clip.flops} != reference {ref['flops']}")
    clip.rel_l2_vs_baseline = rel_l2(res.final, base_final)
    if not math.isclose(clip.rel_l2_vs_baseline, ref["rel_l2_vs_baseline"], rel_tol=1e-9, abs_tol=1e-15):
        problems.append(
            f"rel_l2_vs_baseline {clip.rel_l2_vs_baseline!r} != reference {ref['rel_l2_vs_baseline']!r}"
        )
    clip.problems = tuple(problems)
    return clip


def make_references(
    ref_dir: Path = REFERENCE_DIR,
    base: RunConfig | None = None,
    seeds: range = range(NOISE_SEEDS),
    log=print,
) -> dict:
    """Rebuild every reference output at ``workers=1`` and write it to ``ref_dir``."""
    ref_dir.mkdir(parents=True, exist_ok=True)
    model = runner.build_model(make_config("baseline", 0, base))
    out: dict = {"noise_seeds": NOISE_SEEDS, "workers": 1, "workloads": {n: {} for n in WORKLOADS}}
    for seed in seeds:
        base_final = None
        for name in WORKLOADS:  # baseline first: the others are compared with its final
            res = runner.execute_run(make_config(name, seed, base, workers=1), model=model)
            if base_final is None:
                base_final = res.final
                write_tns(_baseline_path(ref_dir, seed), res.final)
            out["workloads"][name][str(seed)] = {
                "final_checksum": res.report["final_checksum"],
                "flops": res.report["totals"]["flops"],
                "rel_l2_vs_baseline": rel_l2(res.final, base_final),
            }
            log(f"reference {name} seed {seed}: {res.report['final_checksum']}")
    (ref_dir / "references.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return out
