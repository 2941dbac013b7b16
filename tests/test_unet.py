import dataclasses
import hashlib
import weakref
from pathlib import Path

import numpy as np
import pytest

from cachediff import attention, kernels
from cachediff import unet as un
from cachediff.errors import ConfigError, InvariantError
from cachediff.masks import ForegroundMask, ellipse_mask, rect_mask
from cachediff.plan import Plan
from cachediff.profiler import FlopLog
from cachediff.tensor_io import tensor_bytes

from conftest import build_conditioning_for, latent_for

GOLDEN = Path(__file__).parent / "golden"


def test_config_defaults_and_attn_geometry():
    cfg = un.UNetConfig()
    assert cfg.attn_info() == {
        "M": (64, 2, 2),
        "U2": (32, 8, 8),
        "U32": (16, 16, 16),
    }
    trimmed = un.UNetConfig(attention_layers=("M",), removal_set=("M",))
    assert tuple(trimmed.attn_info()) == ("M",)


def test_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        un.UNetConfig(base_channels=(4, 5, 6))
    with pytest.raises(ConfigError):
        un.UNetConfig(height=12)
    with pytest.raises(ConfigError):
        un.UNetConfig(frames=0)
    with pytest.raises(ConfigError):
        un.UNetConfig(time_dim=7)
    with pytest.raises(ConfigError):
        un.UNetConfig(attention_layers=("M", "X"))
    with pytest.raises(ConfigError):
        un.UNetConfig(attention_layers=("M",), removal_set=("U2",))


def test_time_embedding_closed_form_at_zero():
    emb = un.time_embedding(0, 8)
    assert emb.shape == (8,)
    assert emb.dtype == np.float32
    assert np.array_equal(emb[:4], np.zeros(4, dtype=np.float32))
    assert np.array_equal(emb[4:], np.ones(4, dtype=np.float32))


def test_time_embedding_separates_neighbouring_steps():
    a = un.time_embedding(970, 64)
    b = un.time_embedding(995, 64)
    assert not np.array_equal(a, b)
    assert np.linalg.norm(a.astype(np.float64) - b) > 1e-3


def test_weight_spec_names_are_unique_and_ordered():
    cfg = un.UNetConfig()
    spec = un.weight_spec(cfg)
    names = [n for n, _, _ in spec]
    assert len(names) == len(set(names)) == 173
    weights, order = un.init_weights(cfg, 0)
    assert order == names
    for name, shape, fan_in in spec:
        arr = weights[name]
        assert arr.shape == shape
        assert arr.dtype == np.float32
        if fan_in is None:
            assert not arr.any()


def test_init_weights_deterministic_and_seed_sensitive():
    cfg = un.UNetConfig()
    a, _ = un.init_weights(cfg, 3)
    b, _ = un.init_weights(cfg, 3)
    c, _ = un.init_weights(cfg, 4)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert not np.array_equal(a["conv_in.w"], c["conv_in.w"])


def test_init_weights_matches_golden_digest():
    weights, order = un.init_weights(un.UNetConfig(), 0)
    digest = hashlib.sha256()
    for name in order:
        digest.update(name.encode("ascii"))
        digest.update(tensor_bytes(weights[name]))
    want = (GOLDEN / "weights_seed0.sha256").read_text().strip()
    assert digest.hexdigest() == want


def test_forward_shapes_and_determinism(small_cfg, small_model, small_cond, small_latent):
    tr = small_model.forward(small_latent, 37, small_cond)
    assert tr.eps.shape == small_latent.shape
    assert tr.eps.dtype == np.float32
    assert tr.f_u31.shape == (
        1, small_cfg.frames, small_cfg.base_channels[0], small_cfg.height, small_cfg.width
    )
    again = small_model.forward(small_latent, 37, small_cond)
    assert np.array_equal(tr.eps, again.eps)
    assert np.array_equal(tr.f_u31, again.f_u31)
    other = small_model.forward(small_latent, 36, small_cond)
    assert not np.array_equal(tr.eps, other.eps)


def test_forward_rejects_bad_latents(small_model, small_cond, small_latent):
    with pytest.raises(ConfigError):
        small_model.forward(small_latent[0], 5, small_cond)
    with pytest.raises(ConfigError):
        small_model.forward(small_latent.astype(np.float64), 5, small_cond)
    wrong = np.zeros(small_latent.shape[:2] + (9,) + small_latent.shape[3:], np.float32)
    with pytest.raises(ConfigError):
        small_model.forward(wrong, 5, small_cond)


def test_conditioning_validation_catches_mismatches(small_cfg, small_cond):
    small_cond.audio = small_cond.audio[:, :1]
    with pytest.raises(ConfigError):
        small_cond.validate(small_cfg)


def test_conditioning_validation_checks_ref_and_frames(small_cfg):
    cond = build_conditioning_for(small_cfg)
    cond.ref = dict(cond.ref)
    del cond.ref["U2"]
    with pytest.raises(ConfigError):
        cond.validate(small_cfg)
    cond2 = build_conditioning_for(small_cfg)
    cond2.valid_frames = small_cfg.frames + 1
    with pytest.raises(ConfigError):
        cond2.validate(small_cfg)
    cond3 = build_conditioning_for(small_cfg)
    cond3.mask = ellipse_mask(small_cfg.height * 2, small_cfg.width, 0.5)
    with pytest.raises(ConfigError):
        cond3.validate(small_cfg)


def test_subnet_reproduces_full_pass_bitwise(small_model, small_cond, small_latent):
    tr = small_model.forward(small_latent, 29, small_cond)
    eps = small_model.subnet(tr.f_u31, small_latent, 29, small_cond)
    assert np.array_equal(eps, tr.eps)


def test_subnet_rejects_wrong_cached_shape(small_model, small_cond, small_latent):
    bad = np.zeros((1, 1, 4, 8, 8), dtype=np.float32)
    with pytest.raises(ConfigError):
        small_model.subnet(bad, small_latent, 29, small_cond)
    # one feature per sample: the subnet takes only the one shared feature
    f_u31 = small_model.forward(small_latent, 29, small_cond).f_u31
    with pytest.raises(ConfigError, match="cached feature"):
        small_model.subnet(np.concatenate([f_u31, f_u31]),
                           np.concatenate([small_latent, small_latent]), [29, 21], small_cond)


def test_subnet_tracks_fresh_latent(small_model, small_cond, small_latent, small_cfg):
    tr = small_model.forward(small_latent, 29, small_cond)
    z2 = latent_for(small_cfg, seed=1)
    eps = small_model.subnet(tr.f_u31, z2, 29, small_cond)
    assert not np.array_equal(eps, tr.eps)
    assert eps.shape == tr.eps.shape


def test_constant_weights_predict_constant_noise(small_cfg, small_cond, small_latent):
    model = un.ToyUNet(small_cfg, un.constant_model_weights(small_cfg, 0.625))
    tr = model.forward(small_latent, 11, small_cond)
    assert np.array_equal(tr.eps, np.full_like(small_latent, 0.625))


def test_removal_flag_changes_output_only_with_removal_set(small_cfg, small_cond, small_latent):
    weights, _ = un.init_weights(small_cfg, 2)
    model = un.ToyUNet(small_cfg, weights)
    base = model.forward(small_latent, 17, small_cond, removal_active=False)
    removed = model.forward(small_latent, 17, small_cond, removal_active=True)
    assert not np.array_equal(base.eps, removed.eps)

    no_sites = un.UNetConfig(
        latent_channels=small_cfg.latent_channels,
        base_channels=small_cfg.base_channels,
        height=small_cfg.height,
        width=small_cfg.width,
        frames=small_cfg.frames,
        audio_tokens=small_cfg.audio_tokens,
        audio_dim=small_cfg.audio_dim,
        head_dim=small_cfg.head_dim,
        time_dim=small_cfg.time_dim,
        removal_set=(),
    )
    weights2, _ = un.init_weights(no_sites, 2)
    model2 = un.ToyUNet(no_sites, weights2)
    cond2 = build_conditioning_for(no_sites)
    plain = model2.forward(small_latent, 17, cond2, removal_active=False)
    flagged = model2.forward(small_latent, 17, cond2, removal_active=True)
    assert np.array_equal(plain.eps, flagged.eps)


def test_missing_weights_rejected(small_cfg):
    weights, _ = un.init_weights(small_cfg, 0)
    del weights["head.b"]
    with pytest.raises(ConfigError):
        un.ToyUNet(small_cfg, weights)


def test_subnet_costs_under_a_third_of_full_pass():
    cfg = un.UNetConfig()
    weights, _ = un.init_weights(cfg, 0)
    model = un.ToyUNet(cfg, weights)
    cond = build_conditioning_for(cfg)
    z = latent_for(cfg)
    full_log = FlopLog()
    tr = model.forward(z, 40, cond, log=full_log)
    sub_log = FlopLog()
    model.subnet(tr.f_u31, z, 40, cond, log=sub_log)
    assert 0 < sub_log.total() < 0.35 * full_log.total()


def test_forward_background_rows_match_full_path_outputs():
    """The background rows at a partial mask are U32's full-path output rows: those kept
    at an all-background mask, taken at the mask's background index.  Keeping the
    reference-site probabilities changes no byte of the pass's results, and U32 keeps
    (frames, L, keys) of them, with the reference keys only without removal."""
    cfg = un.UNetConfig(
        latent_channels=2, base_channels=(4, 5, 6, 7), height=16, width=16, frames=2,
        audio_tokens=3, audio_dim=4, head_dim=4, time_dim=8,
    )
    model = un.ToyUNet(cfg, un.init_weights(cfg, 0)[0])
    cond = build_conditioning_for(cfg, mask=rect_mask(16, 16, 0, 0, 8, 16))
    z = latent_for(cfg)
    no_fg = dataclasses.replace(cond, mask=ForegroundMask(np.zeros((16, 16), np.uint8)))
    tr = model.forward(z, 23, cond, keep_bg=True)
    kept = model.forward(z, 23, cond, keep_bg=True, keep_probs=True)
    full = model.forward(z, 23, no_fg, keep_bg=True)
    plain = model.forward(z, 23, cond)
    assert plain.dfa is None and plain.probs is None and tr.probs is None
    for other in (tr, kept, full):
        assert other.eps.tobytes() == plain.eps.tobytes()
        assert other.f_u31.tobytes() == plain.f_u31.tobytes()
    assert set(tr.dfa) == set(kept.dfa) == set(full.dfa) == {"reference", "audio", "temporal"}
    for site, ctx in tr.dfa.items():
        rows = full.dfa[site].bg
        want = np.take(rows, cond.mask.bg_index, axis=0 if site == "temporal" else 1)
        assert ctx.mask is cond.mask
        assert ctx.bg.shape == want.shape and ctx.bg.dtype == np.float32
        assert ctx.bg.tobytes() == want.tobytes()
        assert kept.dfa[site].bg.tobytes() == ctx.bg.tobytes()
    L = cfg.height * cfg.width
    rm_cfg = dataclasses.replace(cfg, removal_set=("U32",))
    removed = un.ToyUNet(rm_cfg, un.init_weights(rm_cfg, 0)[0]).forward(
        z, 23, cond, keep_probs=True, removal_active=True).probs
    assert kept.probs.shape == (cfg.frames, L, 2 * L)
    assert removed.shape == (cfg.frames, L, L)
    assert kept.probs.dtype == removed.dtype == np.float32
    with pytest.raises(ConfigError):
        model.forward(np.concatenate([z, z]), 23, cond, keep_bg=True)


def test_only_the_u32_sites_gather_background_rows(small_model, small_cond, small_latent,
                                                   monkeypatch):
    """A key-step forward gathers one set of rows per U32 site, a plain forward none."""
    calls = []
    select = attention.select_tokens

    def counted(*args):
        calls.append(args)
        return select(*args)

    monkeypatch.setattr(attention, "select_tokens", counted)
    small_model.forward(small_latent, 31, small_cond, keep_bg=True, keep_probs=True)
    assert len(calls) == 3
    small_model.forward(small_latent, 31, small_cond, keep_probs=True)
    assert len(calls) == 3


def test_a_model_without_u32_attention_keeps_nothing(small_cfg, small_latent):
    cfg = dataclasses.replace(small_cfg, attention_layers=("M", "U2"))
    model = un.ToyUNet(cfg, un.init_weights(cfg, 0)[0])
    cond = build_conditioning_for(cfg)
    tr = model.forward(small_latent, 31, cond, keep_bg=True, keep_probs=True)
    assert tr.dfa is None and tr.probs is None
    assert tr.eps.tobytes() == model.forward(small_latent, 31, cond).eps.tobytes()


@pytest.mark.parametrize("restricted", [False, True])
def test_stacked_subnet_matches_single_calls(small_cfg, small_model, small_cond, restricted):
    """k samples in one subnet call give the bytes of k single calls and log the
    events of one, event for event and in order."""
    ts = [41, 29, 17]
    zs = [latent_for(small_cfg, seed=s) for s in range(3)]
    tr = small_model.forward(zs[0], 47, small_cond, keep_bg=True)
    dfa = tr.dfa if restricted else None
    log = FlopLog()
    eps = small_model.subnet(
        tr.f_u31, np.concatenate(zs), ts, small_cond,
        log=log, dfa=dfa, removal_active=restricted,
    )
    for i, (z, t) in enumerate(zip(zs, ts)):
        one = FlopLog()
        want = small_model.subnet(
            tr.f_u31, z, t, small_cond, log=one, dfa=dfa, removal_active=restricted,
        )
        assert eps[i : i + 1].tobytes() == want.tobytes()
        assert log.events == one.events and log.total() == one.total()


def test_plan_refuses_events_that_do_not_split_per_sample():
    """Plan.finish keeps one sample's share of each event, and refuses an uneven split."""
    p = Plan()
    p.flop("elementwise", "x", (6,))
    p.flop("matmul", "y", (3, 2, 2))
    assert p.finish(samples=3).log.events == [("elementwise", "x", 2), ("matmul", "y", 8)]
    assert p.log.total() == 10
    p = Plan()
    p.flop("elementwise", "x", (4,))
    with pytest.raises(InvariantError, match="do not split into 3"):
        p.finish(samples=3)


def test_subnet_rejects_timestep_count_mismatch(small_model, small_cond, small_latent):
    tr = small_model.forward(small_latent, 29, small_cond)
    with pytest.raises(ConfigError):
        small_model.subnet(tr.f_u31, small_latent, [29, 21], small_cond)


# A config with one frame or one latent channel makes eps's transposes to
# and from the plan's (frame, channel) layout contiguous views.
ALIAS_CFGS = {"small": {}, "one_frame": {"frames": 1}, "one_channel": {"latent_channels": 1}}


@pytest.mark.parametrize("shape", list(ALIAS_CFGS))
@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_returned_arrays_do_not_alias_the_plan(backend, shape, small_cfg):
    """A pass's eps, U31 feature and background rows keep their bytes through later passes."""
    if backend == "compiled" and kernels.compiled_error() is not None:
        pytest.skip(f"compiled backend unavailable: {kernels.compiled_error()}")
    cfg = dataclasses.replace(small_cfg, **ALIAS_CFGS[shape])
    model = un.ToyUNet(cfg, un.init_weights(cfg, 0)[0])
    cond = build_conditioning_for(cfg)
    z0, z1 = latent_for(cfg, seed=0), latent_for(cfg, seed=1)

    def passes(z, t):
        tr = model.forward(z, t, cond, keep_bg=True)
        eps = model.subnet(tr.f_u31, np.concatenate([z1, z0]), [t - 8, t - 16],
                           cond, dfa=tr.dfa, removal_active=True)
        return tr, eps

    before = kernels.active_backend()
    try:
        kernels.set_backend(backend)
        passes(z1, 45)  # builds every plan, so the second pass runs on the same buffers
        tr, eps = passes(z0, 41)
        kept = [tr.eps.tobytes(), tr.f_u31.tobytes(), eps.tobytes()]
        kept += [c.bg.tobytes() for c in tr.dfa.values()]
        again, _ = passes(z1, 37)
    finally:
        kernels.set_backend(before)
    assert set(tr.dfa) == set(un.SITES)
    assert [tr.eps.tobytes(), tr.f_u31.tobytes(), eps.tobytes()] + [
        c.bg.tobytes() for c in tr.dfa.values()
    ] == kept
    assert again.eps.tobytes() != tr.eps.tobytes()


def test_plans_beyond_the_cap_are_rebuilt_with_the_same_bytes(small_cfg, small_cond):
    """Past MAX_PLANS a model drops its least recently run plan and rebuilds it on demand."""
    model = un.ToyUNet(small_cfg, un.init_weights(small_cfg, 0)[0])
    model._plans.MAX_PLANS = 2
    fresh = un.ToyUNet(small_cfg, un.init_weights(small_cfg, 0)[0])
    z = latent_for(small_cfg, seed=4)
    conds = [
        dataclasses.replace(
            small_cond, mask=rect_mask(small_cfg.height, small_cfg.width, 0, 0, 4, s))
        for s in (2, 4, 6)
    ]

    def run(m, cond):
        log = FlopLog()
        tr = m.forward(z, 33, cond, log=log, keep_bg=True)
        eps = m.subnet(tr.f_u31, z, 25, cond, log=log, dfa=tr.dfa)
        rows = [(k, c.bg.tobytes()) for k, c in tr.dfa.items()]
        return tr.eps.tobytes(), tr.f_u31.tobytes(), eps.tobytes(), rows, log.events

    want = [run(fresh, cond) for cond in conds]
    assert len(fresh._plans) == 6  # a forward and a subnet plan per mask
    got = [run(model, conds[i]) for i in (0, 1, 2, 0, 2)]
    assert len(model._plans) == 2
    assert got == [want[i] for i in (0, 1, 2, 0, 2)]
    # a plan run again is kept over one run less recently
    plans = model._plans._plans
    model.forward(z, 33, conds[0], keep_bg=True)
    model.forward(z, 33, conds[1], keep_bg=True)
    first = plans[next(iter(plans))]
    model.forward(z, 33, conds[0], keep_bg=True)
    model.forward(z, 33, conds[2], keep_bg=True)
    assert first in plans.values()


def test_a_grown_arena_releases_the_one_it_replaces(small_cfg, small_cond, small_latent):
    """When a plan needs a larger arena or scratch block, the old ones are unmapped at
    once: no plan, bound call or view keeps them, so their pages leave the process."""
    model = un.ToyUNet(small_cfg, un.init_weights(small_cfg, 0)[0])
    tr = model.forward(small_latent, 29, small_cond, keep_bg=True)
    cache = model._plans
    old = [weakref.ref(cache._arena.base), weakref.ref(cache._ws.base)]
    size = cache._arena.size
    model.subnet(tr.f_u31, np.concatenate([small_latent] * 3), [21, 13, 5], small_cond,
                 dfa=tr.dfa, removal_active=True)
    assert cache._arena.size > size
    assert [r() for r in old] == [None, None]


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_time_rows_are_the_time_mlp_computed_once_per_timestep(backend, small_cfg, small_cond,
                                                                monkeypatch):
    """A timestep's row holds every residual unit's time projection, silu(emb @ W + b) @
    W_temb + b_temb, byte for byte on either backend.  It is computed on the timestep's
    first pass (two matmuls) and never again, it is read-only, and a subnet stacked on
    several timesteps feeds each sample its own row."""
    if backend == "compiled" and kernels.compiled_error() is not None:
        pytest.skip(f"compiled backend unavailable: {kernels.compiled_error()}")
    weights = un.init_weights(small_cfg, 0)[0]
    rng = np.random.default_rng(7)
    for name in weights:  # the drawn biases are zeros
        if name == "time.affine.b" or name.endswith(".temb.b"):
            weights[name] = rng.standard_normal(weights[name].shape, dtype=np.float32)
    model = un.ToyUNet(small_cfg, dict(weights))
    calls = []

    def counting(a, b):
        calls.append((a.shape, b.shape))
        return kernels.matmul(a, b)

    monkeypatch.setattr(un, "matmul", counting)
    z0, z1 = latent_for(small_cfg, seed=0), latent_for(small_cfg, seed=1)
    before = kernels.active_backend()
    try:
        kernels.set_backend(backend)
        f_u31 = model.forward(z0, 37, small_cond).f_u31
        assert len(calls) == 2
        model.forward(z1, 37, small_cond)
        model.subnet(f_u31, z1, 37, small_cond)
        assert len(calls) == 2
        fresh = un.ToyUNet(small_cfg, dict(weights))
        stacked = fresh.subnet(f_u31, np.concatenate([z0, z1]), [29, 21], small_cond)
        assert len(calls) == 6
        singles = [fresh.subnet(f_u31, z, t, small_cond) for z, t in ((z0, 29), (z1, 21))]
        swapped = fresh.subnet(f_u31, z0, 21, small_cond)
    finally:
        kernels.set_backend(before)
    assert [stacked[i : i + 1].tobytes() for i in range(2)] == [s.tobytes() for s in singles]
    assert swapped.tobytes() != singles[0].tobytes()

    row = model._tproj[37]
    assert sorted(model._tproj) == [37] and sorted(fresh._tproj) == [21, 29]
    emb = un.time_embedding(37, small_cfg.time_dim)[None]
    h = kernels.silu(kernels._matmul_np(emb, weights["time.affine.w"]) + weights["time.affine.b"])
    units = [n[: -len(".temb.w")] for n in weights if n.endswith(".temb.w")]
    assert sorted(model._temb_col) == sorted(units)
    for unit, col in model._temb_col.items():
        want = kernels._matmul_np(h, weights[f"{unit}.temb.w"]) + weights[f"{unit}.temb.b"]
        assert row[col : col + want.shape[1]].tobytes() == want[0].tobytes(), unit
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 0.0
