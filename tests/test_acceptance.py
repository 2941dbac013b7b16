"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states a user-visible property of the engine: exactness of the
sampler algebra, byte-stability of the caching fast paths, error bounds
of the restricted-attention and estimation approximations, and the
integrity of the reporting artifacts.
"""

import csv
import json
import time

import numpy as np
import pytest

from cachediff.cli import main
from cachediff import attention as attn
from cachediff.engine import Strategy, canonical_report, denoise_clip
from cachediff.masks import ForegroundMask, rect_mask
from cachediff.profiler import FlopLog, rel_l2
from cachediff.rng import Rng
from cachediff.runner import build_conditioning, compare_reports, execute_ablation
from cachediff.schedule import (
    build_schedule,
    build_timestep_plan,
    ddim_step_skipping,
    forward_diffuse,
)
from cachediff.config import RunConfig
from cachediff.tensor_io import tensor_bytes
from cachediff.unet import ToyUNet, UNetConfig, constant_model_weights, init_weights

CFG = UNetConfig()

Z_SHAPE = (1, CFG.latent_channels, CFG.frames, CFG.height, CFG.width)


@pytest.fixture(scope="module")
def default_model():
    weights, _ = init_weights(CFG, 0)
    return ToyUNet(CFG, weights)


@pytest.fixture(scope="module")
def default_sched():
    return build_schedule(1000, 1e-4, 0.02)


@pytest.fixture(scope="module")
def default_plan(default_sched):
    return build_timestep_plan(default_sched, 40, 3, 0.6)


@pytest.fixture(scope="module")
def default_cond():
    conds, _ = build_conditioning(RunConfig())
    return conds[0]


def seed_latent(seed: int) -> np.ndarray:
    return Rng(seed).child(2).normal(Z_SHAPE)


def test_criterion_01_ddim_step_retraces_forward_diffusion(default_sched):
    start = time.monotonic()
    rng = Rng(100)
    ts = rng.integers(1, default_sched.T + 1, 100)
    for i in range(100):
        z0 = rng.child(i).normal((2, 3, 4, 4))
        eps = rng.child(1000 + i).normal((2, 3, 4, 4))
        t = int(ts[i])
        z_t = forward_diffuse(z0, t, eps, default_sched)
        stepped = ddim_step_skipping(z_t, eps, t, t - 1, default_sched)
        want = forward_diffuse(z0, t - 1, eps, default_sched)
        assert rel_l2(stepped, want) <= 1e-6
    assert time.monotonic() - start < 5.0


def test_criterion_02_single_step_blocks_match_baseline_bytes(
    default_model, default_sched, default_cond
):
    start = time.monotonic()
    plan1 = build_timestep_plan(default_sched, 40, 1, 0.6)
    for seed in range(10):
        z_T = seed_latent(seed)
        base, _, _ = denoise_clip(
            default_model, default_sched, plan1, Strategy(), z_T, default_cond
        )
        lcp, _, _ = denoise_clip(
            default_model, default_sched, plan1, Strategy(variant="lcp"), z_T, default_cond
        )
        assert tensor_bytes(lcp) == tensor_bytes(base)
    assert time.monotonic() - start < 30.0


def test_criterion_03_subnet_bit_equals_full_noise_prediction(default_model, default_cond):
    for seed in range(10):
        z = Rng(seed).child(9).normal(Z_SHAPE)
        t = int(Rng(seed).integers(1, 1000, 1)[0])
        trace = default_model.forward(z, t, default_cond)
        eps = default_model.subnet(trace.f_u31, z, t, default_cond)
        assert tensor_bytes(eps) == tensor_bytes(trace.eps)


def test_criterion_04_constant_weights_estimation_matches_baseline(
    default_sched, default_cond
):
    model = ToyUNet(CFG, constant_model_weights(CFG, 0.5))
    z_T = seed_latent(0)
    base_plan = build_timestep_plan(default_sched, 40, 1, 0.6)
    base, _, _ = denoise_clip(
        model, default_sched, base_plan, Strategy(), z_T, default_cond
    )
    for n in (2, 3, 5):
        plan = build_timestep_plan(default_sched, 40, n, 0.6)
        est, _, _ = denoise_clip(
            model, default_sched, plan,
            Strategy(variant="lcp", estimation=True), z_T, default_cond,
        )
        assert rel_l2(est, base) <= 1e-6


def test_criterion_05_estimated_inputs_track_oracle_better(
    default_model, default_sched, default_plan, default_cond
):
    wins = 0
    for seed in range(20):
        z_T = seed_latent(seed)
        oracle, _, _ = denoise_clip(
            default_model, default_sched, default_plan, Strategy(), z_T, default_cond
        )
        est, _, _ = denoise_clip(
            default_model, default_sched, default_plan,
            Strategy(variant="lcp", estimation=True), z_T, default_cond,
        )
        noest, _, _ = denoise_clip(
            default_model, default_sched, default_plan,
            Strategy(variant="lcp", estimation=False), z_T, default_cond,
        )
        if rel_l2(est, oracle) <= rel_l2(noest, oracle):
            wins += 1
    assert wins >= 18


def test_criterion_06_mask_paths_exact_and_oracle_bounded(default_model):
    weights = default_model.w
    c, h, w = CFG.attn_info()["U32"]
    L = h * w
    rng = Rng(200)
    x = rng.child(0).normal((L, c))
    ref = rng.child(1).normal((L, c))
    audio = rng.child(2).normal((CFG.audio_tokens, CFG.audio_dim))
    x_loc = rng.child(3).normal((L, CFG.frames, c))
    grid = (rng.child(4).uniform((h, w)) < 0.5).astype(np.uint8)
    grid[0, 0] = 1
    grid[-1, -1] = 0
    mask = ForegroundMask(grid)
    fg = mask.fg_index
    ones = ForegroundMask(np.ones((h, w), dtype=np.uint8))
    zeros = ForegroundMask(np.zeros((h, w), dtype=np.uint8))

    def o64(q, k, v):
        s = q @ k.T / np.sqrt(q.shape[1])
        e = np.exp(s - s.max(axis=1, keepdims=True))
        return (e / e.sum(axis=1, keepdims=True)) @ v

    def w64(prefix):
        return (weights[f"{prefix}.{n}"].astype(np.float64)
                for n in ("wq", "wk", "wv", "wo"))

    ref_full, ref_a = attn.reference_site(x, ref, weights, "U32.ref")
    aud_full, aud_a = attn.audio_site(x, audio, weights, "U32.aud")
    tmp_full, tmp_a = attn.temporal_site(x_loc, weights, "U32.tmp")

    run_ref = lambda dfa: attn.reference_site(x, ref, weights, "U32.ref", dfa=dfa)[0]
    run_aud = lambda dfa: attn.audio_site(x, audio, weights, "U32.aud", dfa=dfa)[0]
    run_tmp = lambda dfa: attn.temporal_site(x_loc, weights, "U32.tmp", dfa=dfa)[0]

    for run, full in ((run_ref, ref_full), (run_aud, aud_full), (run_tmp, tmp_full)):
        assert np.array_equal(run(attn.DfaContext(ones, None)), full)

    assert np.array_equal(run_ref(attn.DfaContext(zeros, ref_a)),
                          attn.matmul(ref_a, weights["U32.ref.wo"]))
    assert np.array_equal(run_aud(attn.DfaContext(zeros, aud_a)),
                          attn.matmul(aud_a, weights["U32.aud.wo"]))
    assert np.array_equal(run_tmp(attn.DfaContext(zeros, tmp_a)), tmp_full)

    rest_ref = run_ref(attn.DfaContext(mask, attn.select_tokens(ref_a, mask.bg_index)))
    wq, wk, wv, wo = w64("U32.ref")
    x_f = x[fg].astype(np.float64)
    ref_f = ref[fg].astype(np.float64)
    k = np.concatenate([x_f @ wk, ref_f @ wk])
    v = np.concatenate([x_f @ wv, ref_f @ wv])
    want = (o64(x_f @ wq, k, v) @ wo).astype(np.float32)
    assert rel_l2(rest_ref[fg], want) <= 1e-6
    assert np.array_equal(
        rest_ref[mask.bg_index],
        attn.matmul(attn.select_tokens(ref_a, mask.bg_index), weights["U32.ref.wo"]),
    )

    rest_aud = run_aud(attn.DfaContext(mask, attn.select_tokens(aud_a, mask.bg_index)))
    wq, wk, wv, wo = w64("U32.aud")
    a64 = audio.astype(np.float64)
    want = (o64(x_f @ wq, a64 @ wk, a64 @ wv) @ wo).astype(np.float32)
    assert rel_l2(rest_aud[fg], want) <= 1e-6
    assert np.array_equal(rest_aud[fg], aud_full[fg])

    rest_tmp = run_tmp(attn.DfaContext(mask, attn.select_tokens(tmp_a, mask.bg_index)))
    wq, wk, wv, wo = w64("U32.tmp")
    want = np.stack([
        o64(tok @ wq, tok @ wk, tok @ wv) @ wo
        for tok in x_loc[fg].astype(np.float64)
    ]).astype(np.float32)
    assert rel_l2(rest_tmp[fg], want) <= 1e-6
    assert np.array_equal(rest_tmp, tmp_full)


def test_criterion_07_half_foreground_quarters_attention_flops(default_model):
    c, h, w = CFG.attn_info()["U32"]
    L = h * w
    rng = Rng(300)
    x = rng.child(0).normal((L, c))
    ref = rng.child(1).normal((L, c))
    full_log = FlopLog()
    _, a_full = attn.reference_site(x, ref, default_model.w, "U32.ref", log=full_log)
    half = rect_mask(h, w, 0, 0, w, h // 2)
    assert half.num_fg == L // 2
    dfa_log = FlopLog()
    attn.reference_site(
        x, ref, default_model.w, "U32.ref",
        dfa=attn.DfaContext(half, attn.select_tokens(a_full, half.bg_index)),
        log=dfa_log,
    )

    def score_apply(log):
        return sum(n for tag, _, n in log.events
                   if tag in ("attention_scores", "attention_apply"))

    ratio = score_apply(dfa_log) / score_apply(full_log)
    assert abs(ratio - 0.25) <= 0.05 * 0.25


def test_criterion_08_flops_decrease_across_variants():
    rows = execute_ablation(RunConfig())
    flops = {r["label"]: r["flops"] for r in rows}
    assert flops["baseline"] > flops["lcp"] > flops["lcp_dfa"] > flops["lcp_dfa_rm"]


def test_criterion_09_compare_rounds_known_latency_pairs():
    for base_ms, accel_ms, want in ((23.692, 7.528, 3.15), (14.934, 6.416, 2.33)):
        a = {"totals": {"modeled_wall_ns": int(base_ms * 1e9), "flops": 1},
             "final_checksum": "sha256:a"}
        b = {"totals": {"modeled_wall_ns": int(accel_ms * 1e9), "flops": 1},
             "final_checksum": "sha256:b"}
        got = compare_reports(a, b)["speedup"]
        assert abs(got - want) <= 0.01


def test_criterion_10_worker_count_is_bitwise_irrelevant(
    default_model, default_sched, default_plan, default_cond
):
    for seed in range(5):
        z_T = seed_latent(seed)
        z1, r1, _ = denoise_clip(
            default_model, default_sched, default_plan,
            Strategy(variant="lcp_dfa", workers=1), z_T, default_cond,
        )
        z8, r8, _ = denoise_clip(
            default_model, default_sched, default_plan,
            Strategy(variant="lcp_dfa", workers=8), z_T, default_cond,
        )
        assert tensor_bytes(z1) == tensor_bytes(z8)
        assert canonical_report(r1) == canonical_report(r8)


def test_criterion_11_diagnostics_csvs_are_well_formed(tmp_path, capsys):
    out = tmp_path / "diag"
    assert main(["diagnose", "--out", str(out)]) == 0
    capsys.readouterr()

    def rows_of(name):
        with open(out / name, newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0], rows[1:]

    steps = 40
    header, cos = rows_of("cosine_matrix.csv")
    assert header == ["i", "j", "cosine"]
    assert len(cos) == steps * steps
    mat = np.zeros((steps, steps))
    for i, j, c in cos:
        mat[int(i), int(j)] = float(c)
    assert np.abs(mat - mat.T).max() <= 1e-6
    assert np.abs(np.diag(mat) - 1.0).max() <= 1e-6

    header, mass = rows_of("fg_mass.csv")
    assert header == ["group", "mass"]
    assert {g for g, _ in mass} == {"fg_noisy", "bg_noisy", "fg_ref", "bg_ref"}
    assert abs(sum(float(m) for _, m in mass) - 1.0) <= 1e-6

    for name in ("l2_series.csv", "latent_l2_series.csv", "noise_l2_series.csv"):
        header, series = rows_of(name)
        assert header == ["step", "distance"]
        assert [int(r[0]) for r in series] == list(range(1, steps))
        assert all(float(r[1]) >= 0.0 for r in series)

    header, bg = rows_of("bg_l2_series.csv")
    assert header == ["site", "step", "distance"]
    assert len(bg) == 3 * (steps - 1)
    assert {r[0] for r in bg} == {"reference", "audio", "temporal"}
