import math

import numpy as np
import pytest

from cachediff import attention as attn
from cachediff import kernels
from cachediff.errors import CacheMissError, InvariantError
from cachediff.kernels import matmul
from cachediff.masks import ForegroundMask, mask_from_spec, rect_mask
from cachediff.plan import Plan
from cachediff.profiler import FlopLog, rel_l2
from cachediff.rng import Rng

from oracles import scaled_dot_attention

H, W, C, D = 4, 4, 6, 4
L = H * W


def site_weights(prefix, kdim=C, seed=0):
    rng = Rng(seed)
    return {
        f"{prefix}.wq": rng.child(0).normal((C, D)),
        f"{prefix}.wk": rng.child(1).normal((kdim, D)),
        f"{prefix}.wv": rng.child(2).normal((kdim, D)),
        f"{prefix}.wo": rng.child(3).normal((D, C)),
    }


def random_mask(seed=0):
    grid = (Rng(seed).uniform((H, W)) < 0.5).astype(np.uint8)
    grid[0, 0] = 1
    grid[H - 1, W - 1] = 0
    return ForegroundMask(grid)


def attention_oracle64(q, k, v):
    s = q @ k.T / math.sqrt(q.shape[1])
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ v


def test_select_tokens_gathers_rows():
    x = Rng(1).normal((5, 3))
    assert np.array_equal(attn.select_tokens(x, np.arange(5)), x)
    assert attn.select_tokens(x, np.array([], dtype=np.int64)).shape == (0, 3)
    got = attn.select_tokens(x, np.array([1, 4]))
    assert np.array_equal(got, np.stack([x[1], x[4]]))


def test_select_tokens_rejects_bad_indices():
    x = np.zeros((4, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        attn.select_tokens(x, np.array([[0, 1]]))
    with pytest.raises(ValueError):
        attn.select_tokens(x, np.array([0, 4]))
    with pytest.raises(ValueError):
        attn.select_tokens(x, np.array([2, 1]))
    with pytest.raises(ValueError):
        attn.select_tokens(x, np.array([1, 1]))


def test_merge_tokens_scatter_is_inverse_of_select():
    mask = random_mask()
    full = Rng(2).normal((L, D))
    a_fg = attn.select_tokens(full, mask.fg_index)
    a_bg = attn.select_tokens(full, mask.bg_index)
    merged = attn.merge_tokens(a_fg, a_bg, mask)
    assert np.array_equal(merged, full)
    assert np.array_equal(attn.select_tokens(merged, mask.fg_index), a_fg)


def test_merge_tokens_degenerate_masks():
    ones = ForegroundMask(np.ones((H, W), dtype=np.uint8))
    a_fg = Rng(3).normal((L, D))
    assert np.array_equal(attn.merge_tokens(a_fg, None, ones), a_fg)
    zeros = ForegroundMask(np.zeros((H, W), dtype=np.uint8))
    a_bg = Rng(4).normal((L, D))
    empty = np.empty((0, D), dtype=np.float32)
    assert np.array_equal(attn.merge_tokens(empty, a_bg, zeros), a_bg)


def test_merge_tokens_rejects_bad_rows():
    mask = random_mask()
    a_fg = np.zeros((mask.num_fg, D), dtype=np.float32)
    with pytest.raises(InvariantError):
        attn.merge_tokens(np.zeros((mask.num_fg + 1, D), dtype=np.float32), None, mask)
    with pytest.raises(CacheMissError):
        attn.merge_tokens(a_fg, None, mask)
    with pytest.raises(InvariantError):
        attn.merge_tokens(a_fg, np.zeros((mask.num_bg, D + 1), dtype=np.float32), mask)


@pytest.mark.parametrize("site", ["reference", "audio", "temporal"])
def test_site_functions_refuse_missing_or_misplaced_cached_rows(site):
    """A partial mask needs cached rows (CacheMissError), and rows must keep the rows
    axis and the axes after it and may lack only leading axes of the tokens
    (InvariantError), before any plan is built."""
    samples, f = 2, 3
    mask = random_mask(70)
    weights = site_weights("T.x", kdim=5 if site == "audio" else C)
    ref, audio = Rng(71).normal((L, C)), Rng(72).normal((f, 3, 5))

    def call(x, dfa):
        if site == "reference":
            return attn.reference_site(x, ref, weights, "T.x", dfa=dfa)
        if site == "audio":
            return attn.audio_site(x, audio, weights, "T.x", dfa=dfa)
        return attn.temporal_site(x, weights, "T.x", dfa=dfa)

    axis = 0 if site == "temporal" else 1
    x = Rng(73).normal((samples, L, f, C) if site == "temporal" else (samples, f, L, C))
    bg = attn.select_tokens(call(x[0], None)[1], mask.bg_index, axis)  # one sample's rows
    assert call(x, attn.DfaContext(mask, bg))[1] is None
    with pytest.raises(CacheMissError):
        call(x, attn.DfaContext(mask, None))
    more_rows = bg.shape[:axis] + (mask.num_bg + 1,) + bg.shape[axis + 1 :]
    bad = [
        (samples + 1,) + bg.shape,  # leading axes that are not the tokens'
        (1, samples) + bg.shape,  # more leading axes than the tokens have
        bg.shape[axis + 1 :],  # no rows axis
        more_rows,
        bg.shape[:-1] + (D + 1,),
    ]
    for shape in bad:
        with pytest.raises(InvariantError, match="bg shape"):
            call(x, attn.DfaContext(mask, np.zeros(shape, np.float32)))


@pytest.mark.parametrize("bad", ["wq", "wk", "wo", "float64_wv", "float64_tokens"])
def test_sites_reject_weights_and_tokens_of_the_wrong_shape_or_type(bad):
    weights = site_weights("T.ref")
    x = Rng(5).normal((L, C))
    if bad == "float64_tokens":
        x = x.astype(np.float64)
    elif bad == "float64_wv":
        weights["T.ref.wv"] = weights["T.ref.wv"].astype(np.float64)
    else:
        w = weights[f"T.ref.{bad}"]
        weights[f"T.ref.{bad}"] = Rng(4).normal((w.shape[0] + 1, w.shape[1]) if bad != "wk"
                                                else (w.shape[0], w.shape[1] + 1))
    for backend in ("numpy", "compiled"):
        if backend == "compiled" and kernels.compiled_error() is not None:
            continue
        before = kernels.active_backend()
        try:
            kernels.set_backend(backend)
            with pytest.raises(ValueError):
                attn.reference_site(x, x, weights, "T.ref")
        finally:
            kernels.set_backend(before)


def test_reference_removal_equals_self_attention():
    weights = site_weights("T.ref")
    x = Rng(5).normal((L, C))
    ref = Rng(6).normal((L, C))
    delta, a = attn.reference_site(x, ref, weights, "T.ref", removal=True)
    q = matmul(x, weights["T.ref.wq"])
    k = matmul(x, weights["T.ref.wk"])
    v = matmul(x, weights["T.ref.wv"])
    want = matmul(scaled_dot_attention(q, k, v), weights["T.ref.wo"])
    assert np.array_equal(delta, want)
    assert np.array_equal(a, scaled_dot_attention(q, k, v))


def test_reference_duplicate_keys_match_self_attention():
    weights = site_weights("T.ref")
    x = Rng(7).normal((L, C))
    dup, _ = attn.reference_site(x, x, weights, "T.ref", removal=False)
    plain, _ = attn.reference_site(x, x, weights, "T.ref", removal=True)
    assert rel_l2(dup, plain) <= 1e-6


def test_reference_keys_double_score_flops():
    weights = site_weights("T.ref")
    x = Rng(8).normal((L, C))
    ref = Rng(9).normal((L, C))
    with_ref = FlopLog()
    attn.reference_site(x, ref, weights, "T.ref", removal=False, log=with_ref)
    without = FlopLog()
    attn.reference_site(x, ref, weights, "T.ref", removal=True, log=without)

    def scores(log):
        return sum(n for tag, _, n in log.events if tag == "attention_scores")

    assert scores(with_ref) == 2 * scores(without)


def test_reference_all_ones_mask_is_bit_exact():
    weights = site_weights("T.ref")
    x = Rng(10).normal((L, C))
    ref = Rng(11).normal((L, C))
    full, _ = attn.reference_site(x, ref, weights, "T.ref")
    ones = ForegroundMask(np.ones((H, W), dtype=np.uint8))
    restricted, a = attn.reference_site(x, ref, weights, "T.ref",
                                        dfa=attn.DfaContext(ones, None))
    assert a is None
    assert np.array_equal(restricted, full)


def test_reference_all_zeros_mask_returns_cached_background():
    weights = site_weights("T.ref")
    x = Rng(12).normal((L, C))
    ref = Rng(13).normal((L, C))
    _, a_full = attn.reference_site(x, ref, weights, "T.ref")
    zeros = ForegroundMask(np.zeros((H, W), dtype=np.uint8))
    delta, _ = attn.reference_site(x, ref, weights, "T.ref",
                                   dfa=attn.DfaContext(zeros, a_full))
    assert np.array_equal(delta, matmul(a_full, weights["T.ref.wo"]))


def test_reference_random_mask_matches_restricted_oracle():
    weights = site_weights("T.ref")
    x = Rng(14).normal((L, C))
    ref = Rng(15).normal((L, C))
    mask = random_mask(16)
    _, a_full = attn.reference_site(x, ref, weights, "T.ref")
    bg = attn.select_tokens(a_full, mask.bg_index)
    delta, _ = attn.reference_site(x, ref, weights, "T.ref",
                                   dfa=attn.DfaContext(mask, bg))
    wq, wk, wv, wo = (weights[f"T.ref.{n}"].astype(np.float64)
                      for n in ("wq", "wk", "wv", "wo"))
    x_f = x[mask.fg_index].astype(np.float64)
    ref_f = ref[mask.fg_index].astype(np.float64)
    k = np.concatenate([x_f @ wk, ref_f @ wk])
    v = np.concatenate([x_f @ wv, ref_f @ wv])
    want_fg = attention_oracle64(x_f @ wq, k, v) @ wo
    assert rel_l2(delta[mask.fg_index], want_fg.astype(np.float32)) <= 1e-6
    assert np.array_equal(delta[mask.bg_index], matmul(bg, weights["T.ref.wo"]))


def test_reference_half_mask_quarters_attention_flops():
    weights = site_weights("T.ref")
    x = Rng(17).normal((L, C))
    ref = Rng(18).normal((L, C))
    full_log = FlopLog()
    _, a_full = attn.reference_site(x, ref, weights, "T.ref", log=full_log)
    half = rect_mask(H, W, 0, 0, W, H // 2)
    bg = attn.select_tokens(a_full, half.bg_index)
    dfa_log = FlopLog()
    attn.reference_site(x, ref, weights, "T.ref",
                        dfa=attn.DfaContext(half, bg), log=dfa_log)

    def score_apply(log):
        return sum(n for tag, _, n in log.events
                   if tag in ("attention_scores", "attention_apply"))

    assert score_apply(dfa_log) / score_apply(full_log) == 0.25


def test_audio_single_token_broadcasts_value_row():
    weights = site_weights("T.aud", kdim=5)
    x = Rng(19).normal((L, C))
    audio = Rng(20).normal((1, 5))
    delta, a = attn.audio_site(x, audio, weights, "T.aud")
    v = matmul(audio, weights["T.aud.wv"])
    assert np.array_equal(a, np.repeat(v, L, axis=0))
    want_row = matmul(v, weights["T.aud.wo"])
    assert np.array_equal(delta, np.repeat(want_row, L, axis=0))


def test_audio_matches_plain_cross_attention():
    weights = site_weights("T.aud", kdim=5)
    x = Rng(21).normal((L, C))
    audio = Rng(22).normal((3, 5))
    delta, _ = attn.audio_site(x, audio, weights, "T.aud")
    q = matmul(x, weights["T.aud.wq"])
    k = matmul(audio, weights["T.aud.wk"])
    v = matmul(audio, weights["T.aud.wv"])
    want = matmul(scaled_dot_attention(q, k, v), weights["T.aud.wo"])
    assert np.array_equal(delta, want)


def test_audio_query_restriction_is_row_exact():
    weights = site_weights("T.aud", kdim=5)
    x = Rng(23).normal((L, C))
    audio = Rng(24).normal((3, 5))
    full, a_full = attn.audio_site(x, audio, weights, "T.aud")
    mask = random_mask(25)
    bg = attn.select_tokens(a_full, mask.bg_index)
    delta, _ = attn.audio_site(x, audio, weights, "T.aud",
                               dfa=attn.DfaContext(mask, bg))
    assert np.array_equal(delta, full)
    zeros = ForegroundMask(np.zeros((H, W), dtype=np.uint8))
    delta0, _ = attn.audio_site(x, audio, weights, "T.aud",
                                dfa=attn.DfaContext(zeros, a_full))
    assert np.array_equal(delta0, matmul(a_full, weights["T.aud.wo"]))


def test_temporal_single_frame_is_value_projection():
    weights = site_weights("T.tmp")
    x_loc = Rng(26).normal((L, 1, C))
    delta, a = attn.temporal_site(x_loc, weights, "T.tmp")
    flat = np.ascontiguousarray(x_loc.reshape(L, C))
    v = matmul(flat, weights["T.tmp.wv"])
    assert np.array_equal(a.reshape(L, D), v)
    assert np.array_equal(delta.reshape(L, C), matmul(v, weights["T.tmp.wo"]))


def test_temporal_reshape_roundtrip():
    f = 3
    x = Rng(27).normal((f, C, H, W))
    x_loc = np.ascontiguousarray(x.transpose(2, 3, 0, 1).reshape(L, f, C))
    back = np.ascontiguousarray(x_loc.reshape(H, W, f, C).transpose(2, 3, 0, 1))
    assert np.array_equal(back, x)


def test_temporal_matches_per_location_oracle():
    weights = site_weights("T.tmp")
    f = 3
    x_loc = Rng(28).normal((L, f, C))
    delta, _ = attn.temporal_site(x_loc, weights, "T.tmp")
    wq, wk, wv, wo = (weights[f"T.tmp.{n}"].astype(np.float64)
                      for n in ("wq", "wk", "wv", "wo"))
    for l in range(0, L, 5):
        tok = x_loc[l].astype(np.float64)
        want = attention_oracle64(tok @ wq, tok @ wk, tok @ wv) @ wo
        assert rel_l2(delta[l], want.astype(np.float32)) <= 1e-6


def test_temporal_commutes_with_spatial_permutation():
    weights = site_weights("T.tmp")
    x_loc = Rng(29).normal((L, 3, C))
    delta, _ = attn.temporal_site(x_loc, weights, "T.tmp")
    perm = np.random.default_rng(30).permutation(L)
    permuted, _ = attn.temporal_site(np.ascontiguousarray(x_loc[perm]), weights, "T.tmp")
    assert np.array_equal(permuted, delta[perm])


def test_temporal_mask_paths_are_location_exact():
    weights = site_weights("T.tmp")
    x_loc = Rng(31).normal((L, 3, C))
    full, a_full = attn.temporal_site(x_loc, weights, "T.tmp")
    ones = ForegroundMask(np.ones((H, W), dtype=np.uint8))
    delta1, _ = attn.temporal_site(x_loc, weights, "T.tmp",
                                   dfa=attn.DfaContext(ones, None))
    assert np.array_equal(delta1, full)
    mask = random_mask(32)
    bg = attn.select_tokens(a_full, mask.bg_index)
    delta_r, _ = attn.temporal_site(x_loc, weights, "T.tmp",
                                    dfa=attn.DfaContext(mask, bg))
    assert np.array_equal(delta_r, full)
    zeros = ForegroundMask(np.zeros((H, W), dtype=np.uint8))
    delta0, _ = attn.temporal_site(x_loc, weights, "T.tmp",
                                   dfa=attn.DfaContext(zeros, a_full))
    assert np.array_equal(delta0, full)


def flop_totals(log):
    out = {}
    for tag, layer, n in log.events:
        out[(tag, layer)] = out.get((tag, layer), 0) + n
    return out


STACK_MASKS = {
    "full": None,
    "no_fg": ForegroundMask(np.zeros((H, W), dtype=np.uint8)),
    "all_fg": ForegroundMask(np.ones((H, W), dtype=np.uint8)),
    "frac:0.4": mask_from_spec("frac:0.4", H, W),
}


@pytest.mark.parametrize("site", ["reference", "audio"])
@pytest.mark.parametrize("removal", [False, True])
@pytest.mark.parametrize("mask_name", list(STACK_MASKS))
def test_stacked_spatial_sites_match_per_frame_calls(mask_name, removal, site):
    """A (samples, frames, L, c) stack gives the bytes and FLOPs of one call per frame.

    The restricted path broadcasts one (frames, n_bg, d) cache over the
    samples, as a stacked non-key phase does.
    """
    f, samples = 3, 2
    mask = STACK_MASKS[mask_name]
    ref_w, aud_w = site_weights("T.ref"), site_weights("T.aud", kdim=5)
    x = Rng(40).normal((samples, f, L, C))
    ref = Rng(41).normal((L, C))
    audio = Rng(42).normal((f, 3, 5))

    def run(tokens, audio_tok, bg, log=None):
        dfa = None if bg is None else attn.DfaContext(mask, bg)
        if site == "reference":
            return attn.reference_site(tokens, ref, ref_w, "T.ref", removal=removal, dfa=dfa,
                                       log=log)
        return attn.audio_site(tokens, audio_tok, aud_w, "T.aud", dfa=dfa, log=log)

    bg = None
    if mask is not None:
        bg = attn.select_tokens(run(x[0], audio, None)[1], mask.bg_index, axis=1)
    stacked_log, frame_log = FlopLog(), FlopLog()
    delta, a = run(x, audio, bg, stacked_log)
    assert delta.shape == (samples, f, L, C)
    assert (a is None) == (mask is not None)
    for s in range(samples):
        for fi in range(f):
            want_delta, want_a = run(x[s, fi], audio[fi], None if bg is None else bg[fi],
                                     frame_log)
            assert delta[s, fi].tobytes() == want_delta.tobytes(), (s, fi)
            if a is not None:
                assert a[s, fi].tobytes() == want_a.tobytes(), (s, fi)
    assert flop_totals(stacked_log) == flop_totals(frame_log)


@pytest.mark.parametrize("mask_name", list(STACK_MASKS))
def test_stacked_temporal_site_matches_per_sample_calls(mask_name):
    f, samples = 3, 2
    mask = STACK_MASKS[mask_name]
    weights = site_weights("T.tmp")
    x = Rng(43).normal((samples, L, f, C))
    bg = None
    if mask is not None:
        bg = attn.select_tokens(attn.temporal_site(x[0], weights, "T.tmp")[1], mask.bg_index)
    dfa = None if mask is None else attn.DfaContext(mask, bg)
    stacked_log, sample_log = FlopLog(), FlopLog()
    delta, _ = attn.temporal_site(x, weights, "T.tmp", dfa=dfa, log=stacked_log)
    for s in range(samples):
        want, _ = attn.temporal_site(x[s], weights, "T.tmp", dfa=dfa, log=sample_log)
        assert delta[s].tobytes() == want.tobytes()
    assert flop_totals(stacked_log) == flop_totals(sample_log)


# The site functions run the planned sites, the steps a ToyUNet plan
# runs, on either kernel backend.


PLANNED_SITES = ["reference", "reference_removal", "audio", "temporal"]


def kept_reference_probs(x, ref, weights, prefix, removal):
    """The probabilities that a planned full reference site keeps for (..., L, c) tokens,
    shaped (..., L, keys): the site's plan, fed in its lane layout."""
    p = Plan()
    lead, (l, c) = x.shape[:-2], x.shape[-2:]
    xb = p.input("x", (math.prod(lead), c, l),
                 lambda a: a.reshape(lead + (c, l)).swapaxes(-1, -2))
    rb = p.input("ref", (1,) + ref.shape[::-1], lambda a: a[0].T)
    probs = attn.plan_reference_site(p, xb, rb, weights, prefix, removal=removal,
                                     keep_probs=True)[2]
    p.result("probs", probs, lambda a: a.reshape(lead + a.shape[1:]).copy())
    plan = p.finish()
    plan.place(np.empty(plan.floats, np.float32), np.empty(plan.ws_bytes, np.uint8))
    return plan.run(kernels.active_library(), None, {"x": x, "ref": ref})["probs"]


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
@pytest.mark.parametrize("samples", [1, 2])
@pytest.mark.parametrize("mask_name", list(STACK_MASKS))
@pytest.mark.parametrize("site", PLANNED_SITES)
def test_planned_sites_match_the_site_functions(site, mask_name, samples, backend):
    """Each site function gives the same bytes and FLOP events on both backends.

    On (samples, frames) stacks, full and restricted; the restricted path
    reads one (frames, ...) cache broadcast over the samples, as a stacked
    non-key phase does.  Under ``backend``, the planned full reference site
    also keeps its probabilities: those of the reference attention on
    the site's own q, k and v.
    """
    if kernels.compiled_error() is not None:
        pytest.skip(f"compiled backend unavailable: {kernels.compiled_error()}")
    f = 3
    mask = STACK_MASKS[mask_name]
    temporal = site == "temporal"
    prefix = {"reference": "T.ref", "audio": "T.aud", "temporal": "T.tmp"}[site.split("_")[0]]
    weights = site_weights(prefix, kdim=5 if prefix == "T.aud" else C)
    removal = site == "reference_removal"
    x = Rng(50).normal((samples, L, f, C) if temporal else (samples, f, L, C))
    ref = Rng(51).normal((L, C))
    audio = Rng(52).normal((f, 3, 5))

    def call(tokens, dfa, log):
        if temporal:
            return attn.temporal_site(tokens, weights, prefix, dfa=dfa, log=log)
        if prefix == "T.ref":
            return attn.reference_site(tokens, ref, weights, prefix, removal=removal, dfa=dfa,
                                       log=log)
        return attn.audio_site(tokens, audio, weights, prefix, dfa=dfa, log=log)

    def on(name):
        """The stacked call under backend ``name``: (delta, a, FLOP events)."""
        kernels.set_backend(name)
        dfa = None
        if mask is not None:
            a_full = call(x[0], None, None)[1]
            dfa = attn.DfaContext(mask, attn.select_tokens(a_full, mask.bg_index,
                                                           axis=0 if temporal else 1))
        log = FlopLog()
        return (*call(x, dfa, log), log.events)

    before = kernels.active_backend()
    other = "numpy" if backend == "compiled" else "compiled"
    try:
        want_delta, want_a, want_events = on(other)
        delta, a, events = on(backend)
        probs = want_probs = None
        if prefix == "T.ref" and mask is None:
            probs = kept_reference_probs(x, ref, weights, prefix, removal)
            tokens = x.reshape(samples * f, L, C)
            kv = tokens if removal else np.concatenate(
                [tokens, np.broadcast_to(ref, tokens.shape)], axis=1)
            q, k, v = (matmul(t.reshape(-1, C), weights[f"{prefix}.{n}"]).reshape(len(t), -1, D)
                       for t, n in ((tokens, "wq"), (kv, "wk"), (kv, "wv")))
            want_probs = kernels._attention_np(q, k, v, np.float32(1.0 / math.sqrt(D)))[1]
    finally:
        kernels.set_backend(before)
    assert delta.shape == x.shape
    assert delta.tobytes() == want_delta.tobytes()
    assert (a is None) == (want_a is None) == (mask is not None)
    if a is not None:
        assert a.shape == x.shape[:-1] + (D,)
        assert a.tobytes() == want_a.tobytes()
    assert events == want_events
    if probs is not None:
        assert probs.shape == (samples, f, L, L if removal else 2 * L)
        assert probs.tobytes() == want_probs.tobytes()


@pytest.mark.parametrize("backend", ["compiled", "numpy"])
def test_site_results_survive_a_second_call(backend):
    """Every site call returns arrays of its own: later calls change none of the first's."""
    if backend == "compiled" and kernels.compiled_error() is not None:
        pytest.skip(f"compiled backend unavailable: {kernels.compiled_error()}")
    mask = random_mask(60)
    ref_w, aud_w = site_weights("T.ref"), site_weights("T.aud", kdim=5)
    tmp_w = site_weights("T.tmp")
    ref = Rng(61).normal((L, C))
    audio = Rng(62).normal((3, 5))
    sites = {
        "reference": ((L, C), lambda x, dfa: attn.reference_site(x, ref, ref_w, "T.ref", dfa=dfa)),
        "audio": ((L, C), lambda x, dfa: attn.audio_site(x, audio, aud_w, "T.aud", dfa=dfa)),
        "temporal": ((L, 2, C), lambda x, dfa: attn.temporal_site(x, tmp_w, "T.tmp", dfa=dfa)),
    }
    before = kernels.active_backend()
    try:
        kernels.set_backend(backend)
        for name, (shape, run) in sites.items():
            first = run(Rng(63).normal(shape), None)
            kept = [r.copy() for r in first]
            bg = attn.select_tokens(first[1], mask.bg_index)
            assert run(Rng(64).normal(shape), attn.DfaContext(mask, bg))[1] is None
            assert not np.array_equal(run(Rng(65).normal(shape), None)[0], first[0]), name
            for got, want in zip(first, kept):
                assert got.tobytes() == want.tobytes(), name
    finally:
        kernels.set_backend(before)
