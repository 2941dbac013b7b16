import dataclasses

import numpy as np
import pytest

from cachediff import runner as rn
from cachediff.config import RunSection, ScheduleConfig
from cachediff.engine import Strategy, canonical_report
from cachediff.errors import ConfigError
from cachediff.kernels import active_backend
from cachediff.tensor_io import checksum, tensor_bytes
from cachediff.unet import UNetConfig


def test_build_conditioning_layout(small_rc):
    conds, root = rn.build_conditioning(small_rc)
    assert len(conds) == 1
    cond = conds[0]
    assert cond.audio.shape == (2, 3, 4)
    assert cond.valid_frames == 2
    assert set(cond.ref) == {"M", "U2", "U32"}
    again, _ = rn.build_conditioning(small_rc)
    assert np.array_equal(cond.audio, again[0].audio)
    z = rn.initial_latent(root, small_rc.unet, 0)
    assert z.shape == (1, 2, 2, 8, 8)
    assert np.array_equal(z, rn.initial_latent(root, small_rc.unet, 0))
    other = dataclasses.replace(
        small_rc, seeds=dataclasses.replace(small_rc.seeds, noise=5)
    )
    changed, _ = rn.build_conditioning(other)
    assert not np.array_equal(cond.audio, changed[0].audio)


def test_execute_run_is_deterministic(small_rc):
    res = rn.execute_run(small_rc)
    cfg = small_rc.unet
    assert res.final.shape == (cfg.latent_channels, 2, cfg.height, cfg.width)
    assert res.report["backend"] == active_backend()
    assert res.report["plan"]["sampled"] == list(small_rc.build_plan(small_rc.build_schedule()).sampled)
    assert res.report["plan"]["block_size"] == 3
    assert len(res.report["clips"]) == 1
    assert res.report["totals"]["flops"] == res.ledger.total()
    assert res.report["final_checksum"] == checksum(res.final)
    again = rn.execute_run(small_rc)
    assert tensor_bytes(again.final) == tensor_bytes(res.final)
    assert canonical_report(again.report) == canonical_report(res.report)


@pytest.mark.parametrize("variant", ["lcp", "lcp_dfa", "lcp_dfa_rm"])
def test_a_key_step_callback_does_not_change_the_run(small_rc, variant):
    """A run with ``on_key_step`` gives the bytes, report and FLOPs of one without: the
    callback sees every key step's kept rows, but only the DFA variants' tail calls
    read them."""
    rc = dataclasses.replace(
        small_rc, mask="frac:0.4",
        strategy=dataclasses.replace(small_rc.strategy, variant=variant),
    )
    model = rn.build_model(rc)
    seen = []
    plain = rn.execute_run(rc, model=model)
    watched = rn.execute_run(rc, model=model, on_key_step=lambda t, z, tr: seen.append(t))
    assert seen
    assert tensor_bytes(watched.final) == tensor_bytes(plain.final)
    assert canonical_report(watched.report) == canonical_report(plain.report)
    assert watched.ledger.rows == plain.ledger.rows


def test_execute_run_final_depends_on_seeds(small_rc):
    base = rn.execute_run(small_rc)
    noisy = rn.execute_run(dataclasses.replace(
        small_rc, seeds=dataclasses.replace(small_rc.seeds, noise=1)
    ))
    heavier = rn.execute_run(dataclasses.replace(
        small_rc, seeds=dataclasses.replace(small_rc.seeds, weights=1)
    ))
    assert not np.array_equal(base.final, noisy.final)
    assert not np.array_equal(base.final, heavier.final)


def test_execute_run_trims_padded_clip(small_rc):
    rc = dataclasses.replace(small_rc, run=RunSection(total_frames=3, out_dir="out"))
    res = rn.execute_run(rc)
    assert len(res.clip_finals) == 2
    assert [r["valid_frames"] for r in res.clip_reports] == [2, 1]
    assert res.final.shape[1] == 3
    assert np.array_equal(res.final[:, :2], res.clip_finals[0][0])
    assert np.array_equal(res.final[:, 2], res.clip_finals[1][0][:, 0])


def test_ablation_rows_cover_all_variants(small_rc):
    rows = rn.execute_ablation(small_rc)
    assert [r["label"] for r in rows] == [
        "baseline", "lcp_noest", "lcp", "lcp_dfa", "lcp_dfa_rm"
    ]
    base = rows[0]
    assert base["speedup"] == 1.0
    assert base["flops_ratio"] == 1.0
    assert base["rel_l2_vs_baseline"] == 0.0
    flops = {r["label"]: r["flops"] for r in rows}
    assert flops["baseline"] > flops["lcp"] > flops["lcp_dfa"] > flops["lcp_dfa_rm"]
    assert flops["lcp_noest"] < flops["lcp"]
    for row in rows[1:]:
        assert row["rel_l2_vs_baseline"] > 0.0
        assert row["flops_ratio"] > 1.0
    assert rows[2]["speedup"] > 1.0


def test_ablation_dfa_variants_share_their_tail_call_plans(small_rc, monkeypatch):
    """lcp_dfa and lcp_dfa_rm differ only in removal at M and U2, which a tail call never
    runs, so an ablation's model holds one tail-call plan per stack size, restricted or
    not, beside its two forward plans."""
    models = []
    build = rn.build_model
    monkeypatch.setattr(rn, "build_model", lambda rc: models.append(build(rc)) or models[-1])
    rn.execute_ablation(small_rc)
    [model] = models
    keys = list(model._plans._plans)
    tails = sorted((k[1], k[2], k[3] is not None) for k in keys if k[0] == "subnet")
    assert tails == [(1, False, False), (1, False, True), (2, False, False), (2, False, True)]
    assert len(keys) == 6


def test_diagnostics_series_shapes(small_rc):
    res = rn.execute_diagnostics(small_rc)
    n = len(res.sampled)
    assert n == 8
    assert res.feature_l2.shape == (n - 1,)
    assert res.latent_l2.shape == (n - 1,)
    assert res.noise_l2.shape == (n - 1,)
    assert (res.feature_l2 >= 0).all()
    assert res.feature_cosine.shape == (n, n)
    assert np.allclose(res.feature_cosine, res.feature_cosine.T, atol=1e-6)
    assert np.allclose(np.diag(res.feature_cosine), 1.0, atol=1e-6)
    assert set(res.bg_l2) == {"reference", "audio", "temporal"}
    for series in res.bg_l2.values():
        assert series.shape == (n - 1,)
    assert set(res.fg_mass) == {"fg_noisy", "bg_noisy", "fg_ref", "bg_ref"}
    assert abs(sum(res.fg_mass.values()) - 1.0) <= 1e-6


def test_diagnostics_require_two_sampled_steps(small_rc):
    one_step = dataclasses.replace(
        small_rc, schedule=dataclasses.replace(small_rc.schedule, steps=1)
    )
    with pytest.raises(ConfigError):
        rn.execute_diagnostics(one_step)


def test_compare_reports_ratios_and_errors():
    a = {"totals": {"modeled_wall_ns": 300, "flops": 30},
         "config": {"unet": {"frames": 4}}, "final_checksum": "sha256:a"}
    b = {"totals": {"modeled_wall_ns": 100, "flops": 10},
         "config": {"unet": {"frames": 4}}, "final_checksum": "sha256:b"}
    got = rn.compare_reports(a, b)
    assert got == {
        "speedup": 3.0,
        "flops_ratio": 3.0,
        "baseline_modeled_wall_ns": 300,
        "accelerated_modeled_wall_ns": 100,
        "same_final": False,
    }
    assert rn.compare_reports(a, a)["same_final"] is True
    with pytest.raises(ConfigError):
        rn.compare_reports({"totals": {}}, b)
    other = {"totals": {"modeled_wall_ns": 100, "flops": 10},
             "config": {"unet": {"frames": 8}}, "final_checksum": "sha256:b"}
    with pytest.raises(ConfigError):
        rn.compare_reports(a, other)


def test_compare_reports_on_real_runs(small_rc):
    base = rn.execute_run(small_rc).report
    accel_rc = dataclasses.replace(small_rc, strategy=Strategy(variant="lcp"))
    accel = rn.execute_run(accel_rc).report
    got = rn.compare_reports(base, accel)
    assert got["flops_ratio"] > 1.0
    assert got["same_final"] is False
    assert got["baseline_modeled_wall_ns"] > 0
