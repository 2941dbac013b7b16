import dataclasses
import time

import numpy as np
import pytest

from cachediff import engine as eng
from cachediff import unet as un
from cachediff.errors import ConfigError, InvariantError
from cachediff.masks import ellipse_mask
from cachediff.schedule import build_timestep_plan, ddim_step_skipping
from cachediff.tensor_io import checksum, tensor_bytes
from cachediff.rng import Rng

from conftest import build_conditioning_for


def test_strategy_defaults_and_flags():
    s = eng.Strategy()
    assert (s.variant, s.estimation, s.workers, s.dispatch_overhead_ns) == (
        "baseline", True, 1, 200_000
    )
    assert not s.uses_cache and not s.uses_dfa and not s.uses_removal
    assert eng.Strategy(variant="lcp").uses_cache
    assert not eng.Strategy(variant="lcp").uses_dfa
    dfa = eng.Strategy(variant="lcp_dfa")
    assert dfa.uses_cache and dfa.uses_dfa and not dfa.uses_removal
    rm = eng.Strategy(variant="lcp_dfa_rm")
    assert rm.uses_cache and rm.uses_dfa and rm.uses_removal


def test_strategy_rejects_bad_fields():
    with pytest.raises(ConfigError):
        eng.Strategy(variant="fast")
    with pytest.raises(ConfigError):
        eng.Strategy(workers=0)
    with pytest.raises(ConfigError):
        eng.Strategy(dispatch_overhead_ns=-1)


def test_estimate_input_latents_matches_unrolled_updates(small_rc):
    sched = small_rc.build_schedule()
    z = Rng(0).normal((1, 2, 2, 8, 8))
    eps = Rng(1).normal((1, 2, 2, 8, 8))
    assert eng.estimate_input_latents(z, eps, (), sched) == []
    assert eng.estimate_input_latents(z, eps, (40,), sched) == []
    got = eng.estimate_input_latents(z, eps, (40, 32, 24), sched)
    assert len(got) == 2
    first = ddim_step_skipping(z, eps, 40, 32, sched)
    assert np.array_equal(got[0], first)
    assert np.array_equal(got[1], ddim_step_skipping(first, eps, 32, 24, sched))


def test_runner_preserves_submission_order():
    runner = eng.ParallelRunner(workers=4, dispatch_overhead_ns=1000)
    order = []

    def make(i):
        def task():
            order.append(i)
            time.sleep(0.002 * (6 - i))
            return i
        return task

    results, walls, modeled = runner.run([make(i) for i in range(6)])
    assert results == list(range(6)) and order == list(range(6))
    assert len(walls) == 6 and all(w > 0 for w in walls)
    bins = [0] * 4
    for i, w in enumerate(walls):
        bins[i % 4] += w
    assert modeled == 1000 + max(bins)
    assert modeled < sum(walls)  # the model of 4 workers, below the measured serial time


def test_runner_serial_model_sums_walls():
    runner = eng.ParallelRunner(workers=1, dispatch_overhead_ns=500)
    results, walls, modeled = runner.run([lambda: "a", lambda: "b"])
    assert results == ["a", "b"]
    assert modeled == 500 + sum(walls)
    assert runner.run([]) == ([], [], 500)


def test_runner_model_needs_no_bin_per_worker():
    """Workers beyond the task count add only empty bins, so none are allocated."""
    results, walls, modeled = eng.ParallelRunner(2**62, 700).run([lambda: 1, lambda: 2])
    assert results == [1, 2]
    assert modeled == 700 + max(walls)
    assert eng.ParallelRunner(2**62, 700).run([]) == ([], [], 700)


def test_denoise_rejects_batched_or_nonfinite_input(small_model, small_rc, small_cond, small_latent):
    sched = small_rc.build_schedule()
    plan = small_rc.build_plan(sched)
    z2 = np.concatenate([small_latent, small_latent])
    with pytest.raises(ConfigError):
        eng.denoise_clip(small_model, sched, plan, eng.Strategy(), z2, small_cond)
    bad = small_latent.copy()
    bad[0, 0, 0, 0, 0] = np.inf
    with pytest.raises(InvariantError):
        eng.denoise_clip(small_model, sched, plan, eng.Strategy(), bad, small_cond)


def test_baseline_report_structure(small_model, small_rc, small_cond, small_latent):
    sched = small_rc.build_schedule()
    plan = small_rc.build_plan(sched)
    z, report, ledger = eng.denoise_clip(
        small_model, sched, plan, eng.Strategy(), small_latent, small_cond, clip_id=3
    )
    assert z.shape == small_latent.shape and np.isfinite(z).all()
    assert report["clip"] == 3
    assert report["strategy"] == {
        "variant": "baseline", "estimation": True, "workers": 1,
        "dispatch_overhead_ns": 200_000,
    }
    assert report["plan"]["sampled"] == list(plan.sampled)
    assert report["plan"]["num_blocks"] == len(plan.sampled)
    assert [s["kind"] for s in report["per_step"]] == ["key"] * len(plan.sampled)
    assert report["totals"]["flops"] == ledger.total() == sum(
        s["flops"] for s in report["per_step"]
    )
    assert report["final_checksum"] == checksum(z)
    assert report["valid_frames"] == small_cond.valid_frames


def test_single_step_blocks_reproduce_baseline(small_model, small_rc, small_cond, small_latent):
    sched = small_rc.build_schedule()
    plan = small_rc.build_plan(sched)
    base, base_report, _ = eng.denoise_clip(
        small_model, sched, plan, eng.Strategy(), small_latent, small_cond
    )
    plan1 = build_timestep_plan(sched, 8, 1, 0.5)
    cached, report, _ = eng.denoise_clip(
        small_model, sched, plan1, eng.Strategy(variant="lcp"), small_latent, small_cond
    )
    assert tensor_bytes(cached) == tensor_bytes(base)
    assert report["final_checksum"] == base_report["final_checksum"]
    assert [s["kind"] for s in report["per_step"]] == ["key"] * 8


def test_cached_run_mixes_key_and_subnet_steps(small_model, small_rc, small_cond, small_latent):
    sched = small_rc.build_schedule()
    plan = small_rc.build_plan(sched)
    z, report, _ = eng.denoise_clip(
        small_model, sched, plan, eng.Strategy(variant="lcp"), small_latent, small_cond
    )
    kinds = [s["kind"] for s in report["per_step"]]
    assert kinds == ["key", "nonkey", "nonkey"] * 2 + ["key", "nonkey"]
    assert [s["t"] for s in report["per_step"]] == list(plan.sampled)
    assert report["plan"]["num_blocks"] == 3
    base, _, _ = eng.denoise_clip(
        small_model, sched, plan, eng.Strategy(), small_latent, small_cond
    )
    assert not np.array_equal(z, base)


def test_estimation_adds_exactly_one_update_per_hop(small_model, small_rc, small_cond, small_latent):
    sched = small_rc.build_schedule()
    plan = small_rc.build_plan(sched)
    _, with_est, _ = eng.denoise_clip(
        small_model, sched, plan,
        eng.Strategy(variant="lcp", estimation=True), small_latent, small_cond,
    )
    _, without, _ = eng.denoise_clip(
        small_model, sched, plan,
        eng.Strategy(variant="lcp", estimation=False), small_latent, small_cond,
    )
    hops = sum(
        max(len(b.nonkeys) - 1, 0) for b in plan.blocks if b.estimation_eligible
    )
    assert hops == 1
    delta = with_est["totals"]["flops"] - without["totals"]["flops"]
    assert delta == hops * 3 * small_latent.size
    assert with_est["final_checksum"] != without["final_checksum"]


def test_all_ones_mask_restriction_is_free(small_model, small_rc, small_latent, small_cfg):
    sched = small_rc.build_schedule()
    plan = small_rc.build_plan(sched)
    cond = build_conditioning_for(small_cfg, mask=ellipse_mask(8, 8, 1.0))
    lcp, _, _ = eng.denoise_clip(
        small_model, sched, plan, eng.Strategy(variant="lcp"), small_latent, cond
    )
    dfa, _, _ = eng.denoise_clip(
        small_model, sched, plan, eng.Strategy(variant="lcp_dfa"), small_latent, cond
    )
    assert tensor_bytes(dfa) == tensor_bytes(lcp)


def test_partial_mask_and_removal_change_results(small_model, small_rc, small_cond, small_latent):
    sched = small_rc.build_schedule()
    plan = small_rc.build_plan(sched)
    lcp, _, lcp_ledger = eng.denoise_clip(
        small_model, sched, plan, eng.Strategy(variant="lcp"), small_latent, small_cond
    )
    dfa, _, dfa_ledger = eng.denoise_clip(
        small_model, sched, plan, eng.Strategy(variant="lcp_dfa"), small_latent, small_cond
    )
    rm, _, rm_ledger = eng.denoise_clip(
        small_model, sched, plan, eng.Strategy(variant="lcp_dfa_rm"), small_latent, small_cond
    )
    assert not np.array_equal(dfa, lcp)
    assert not np.array_equal(rm, dfa)
    assert lcp_ledger.total() > dfa_ledger.total() > rm_ledger.total()


def test_worker_count_never_changes_results(small_model, small_rc, small_cond, small_latent):
    sched = small_rc.build_schedule()
    plan = small_rc.build_plan(sched)
    z1, r1, _ = eng.denoise_clip(
        small_model, sched, plan,
        eng.Strategy(variant="lcp", workers=1), small_latent, small_cond,
    )
    z3, r3, _ = eng.denoise_clip(
        small_model, sched, plan,
        eng.Strategy(variant="lcp", workers=3), small_latent, small_cond,
    )
    assert tensor_bytes(z1) == tensor_bytes(z3)
    assert r1 != r3
    assert eng.canonical_report(r1) == eng.canonical_report(r3)


@pytest.mark.parametrize(
    "shape", [{"frames": 1}, {"latent_channels": 1}], ids=["one_frame", "one_channel"]
)
def test_equal_chunks_give_the_bytes_of_one_chunk(small_rc, shape):
    """Chunks of one size run the same subnet plan, one after the other.

    With one frame or one latent channel, eps leaves the plan through
    transposes that are contiguous views; each chunk's eps must still be
    its own array when the next chunk runs.
    """
    cfg = dataclasses.replace(small_rc.unet, **shape)
    rc = dataclasses.replace(
        small_rc, unet=cfg, schedule=dataclasses.replace(small_rc.schedule, block_size=5),
        run=dataclasses.replace(small_rc.run, total_frames=cfg.frames),
    )
    model = un.ToyUNet(cfg, un.init_weights(cfg, 0)[0])
    cond = build_conditioning_for(cfg)
    z = Rng(3).normal((1, cfg.latent_channels, cfg.frames, cfg.height, cfg.width))
    sched = rc.build_schedule()
    plan = rc.build_plan(sched)
    assert any(len(b.nonkeys) == 4 for b in plan.blocks)  # two chunks of 2 at workers=2
    finals = [
        tensor_bytes(eng.denoise_clip(model, sched, plan, eng.Strategy(variant="lcp", workers=w),
                                      z, cond)[0])
        for w in (1, 2)
    ]
    assert finals[0] == finals[1]


def test_canonical_report_scrubs_nested_timing():
    raw = {
        "totals": {"flops": 5, "wall_ns": 9, "modeled_wall_ns": 11},
        "strategy": {"workers": 8, "variant": "lcp"},
        "per_step": [{"t": 3, "wall_ns": 7, "flops": 2}],
    }
    assert eng.canonical_report(raw) == {
        "totals": {"flops": 5},
        "strategy": {"variant": "lcp"},
        "per_step": [{"t": 3, "flops": 2}],
    }


def test_segment_condition_pads_final_clip(small_cfg, small_cond):
    audio = Rng(8).normal((5, small_cfg.audio_tokens, small_cfg.audio_dim))
    clips = eng.segment_condition(small_cfg, audio, small_cond.ref, small_cond.mask)
    assert [c.valid_frames for c in clips] == [2, 2, 1]
    assert np.array_equal(clips[0].audio, audio[:2])
    assert np.array_equal(clips[2].audio[0], audio[4])
    assert not clips[2].audio[1].any()
    single = eng.segment_condition(small_cfg, audio[:2], small_cond.ref, small_cond.mask)
    assert len(single) == 1 and single[0].valid_frames == 2
    with pytest.raises(ConfigError):
        eng.segment_condition(small_cfg, audio[0], small_cond.ref, small_cond.mask)
