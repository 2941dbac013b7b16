import math

import numpy as np
import pytest

from cachediff.errors import ConfigError, InvariantError
from cachediff.rng import Rng
from cachediff.schedule import (
    build_schedule,
    build_timestep_plan,
    ddim_step_skipping,
    forward_diffuse,
)

ONES = np.ones((2, 3), dtype=np.float32)


def step_coefficients(sched, t: int) -> tuple[float, float]:
    """(lam, tau) of the DDIM step from t to t - 1, as float32 values: the step of a
    latent of ones without noise, and of noise alone."""
    zero = np.zeros_like(ONES)
    lam = ddim_step_skipping(ONES, zero, t, t - 1, sched)
    tau = ddim_step_skipping(zero, ONES, t, t - 1, sched)
    assert len(set(lam.flat)) == len(set(tau.flat)) == 1
    return float(lam.flat[0]), float(tau.flat[0])


def test_constant_beta_hand_values():
    sched = build_schedule(10, 0.1, 0.1)
    assert math.isclose(sched.alpha_bar[1], 0.9, rel_tol=1e-12)
    assert math.isclose(sched.alpha_bar[2], 0.81, rel_tol=1e-12)
    lam, tau = step_coefficients(sched, 2)
    assert math.isclose(lam, 1.054093, abs_tol=1e-6)
    assert math.isclose(tau, -0.143240, abs_tol=1e-6)


def test_near_zero_beta_degenerates_to_identity():
    sched = build_schedule(5, 1e-12, 1e-12)
    assert np.allclose(sched.alpha_bar, 1.0, atol=1e-10)
    lam, tau = np.array([step_coefficients(sched, t) for t in range(1, 6)]).T
    assert np.allclose(lam, 1.0, atol=1e-10)
    assert np.allclose(tau, 0.0, atol=1e-6)


def test_default_schedule_coefficient_signs():
    sched = build_schedule(1000, 1e-4, 0.02)
    lam, tau = np.array([step_coefficients(sched, t) for t in range(1, 1001)]).T
    assert np.all(lam > 1.0)
    assert np.all(tau < 0.0)
    assert np.all(np.diff(sched.alpha_bar) < 0.0)
    assert sched.alpha_bar[0] == 1.0


def test_build_schedule_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        build_schedule(0, 1e-4, 0.02)
    with pytest.raises(ConfigError):
        build_schedule(10, 0.0, 0.02)
    with pytest.raises(ConfigError):
        build_schedule(10, 0.03, 0.02)
    with pytest.raises(ConfigError):
        build_schedule(10, 0.5, 1.0)


def test_build_schedule_detects_flat_alpha_bar():
    with pytest.raises(InvariantError):
        build_schedule(10, 1e-20, 1e-20)


def test_forward_diffuse_boundary_and_closed_form():
    sched = build_schedule(10, 0.1, 0.1)
    z0 = ONES
    eps = ONES
    assert np.array_equal(forward_diffuse(z0, 0, eps, sched), z0)
    assert np.allclose(forward_diffuse(z0, 2, np.zeros_like(z0), sched),
                       math.sqrt(0.81), atol=1e-6)
    assert np.allclose(forward_diffuse(z0, 2, eps, sched), 1.335890, atol=1e-5)
    with pytest.raises(ConfigError):
        forward_diffuse(z0, 11, eps, sched)


def test_ddim_step_with_true_noise_retraces_forward_process():
    sched = build_schedule(10, 0.1, 0.1)
    z2 = forward_diffuse(ONES, 2, ONES, sched)
    z1 = ddim_step_skipping(z2, ONES, 2, 1, sched)
    assert np.allclose(z1, 1.264911, atol=1e-5)
    assert np.allclose(z1, forward_diffuse(ONES, 1, ONES, sched), atol=1e-6)


def test_ddim_step_zero_noise_scales_by_lam():
    sched = build_schedule(10, 0.1, 0.1)
    z = 2.0 * ONES
    got = ddim_step_skipping(z, np.zeros_like(z), 3, 2, sched)
    lam = math.sqrt(sched.alpha_bar[2] / sched.alpha_bar[3])
    assert np.allclose(got, 2.0 * lam, atol=1e-6)
    with pytest.raises(ConfigError):
        ddim_step_skipping(z, z, 0, -1, sched)


def test_round_trip_property_on_default_schedule():
    sched = build_schedule(1000, 1e-4, 0.02)
    rng = Rng(0)
    for i in range(20):
        t = int(rng.integers(1, 1001, 1)[0])
        z0 = rng.child(i).normal((2, 3))
        eps = rng.child(100 + i).normal((2, 3))
        stepped = ddim_step_skipping(forward_diffuse(z0, t, eps, sched), eps, t, t - 1, sched)
        want = forward_diffuse(z0, t - 1, eps, sched)
        denom = max(float(np.linalg.norm(want)), 1e-12)
        assert float(np.linalg.norm(stepped - want)) / denom <= 1e-6


def test_skipping_step_reduces_to_adjacent_step():
    """Between adjacent positions the step is z * lam_t + eps * tau_t, its coefficients
    computed for every t at once in float64 and each cast to float32."""
    sched = build_schedule(50, 1e-3, 0.02)
    ab = sched.alpha_bar
    lam = np.sqrt(ab[:-1] / ab[1:])
    tau = np.sqrt(1.0 - ab[:-1]) - lam * np.sqrt(1.0 - ab[1:])
    rng = Rng(1)
    z = rng.normal((4, 4))
    eps = rng.normal((4, 4))
    for t in (1, 7, 50):
        assert np.array_equal(ddim_step_skipping(z, eps, t, t - 1, sched),
                              z * np.float32(lam[t - 1]) + eps * np.float32(tau[t - 1]))


def test_skip_matches_chained_steps_with_true_noise():
    sched = build_schedule(50, 1e-3, 0.02)
    z0 = Rng(2).normal((3, 3))
    eps = Rng(3).normal((3, 3))
    z10 = forward_diffuse(z0, 10, eps, sched)
    chained = ddim_step_skipping(ddim_step_skipping(z10, eps, 10, 9, sched), eps, 9, 8, sched)
    skipped = ddim_step_skipping(z10, eps, 10, 8, sched)
    assert np.allclose(chained, skipped, atol=1e-6)


def test_sampler_updates_reject_bad_arguments():
    sched = build_schedule(10, 0.1, 0.1)
    z = ONES
    with pytest.raises(ConfigError):
        ddim_step_skipping(z, z, 3, 3, sched)
    with pytest.raises(ConfigError):
        ddim_step_skipping(z, z, 3, 5, sched)
    with pytest.raises(ConfigError):
        ddim_step_skipping(z, z, 11, 2, sched)
    with pytest.raises(ValueError):
        ddim_step_skipping(z, z.astype(np.float64), 2, 1, sched)
    with pytest.raises(ValueError):
        ddim_step_skipping(z, np.ones((3, 3), dtype=np.float32), 2, 1, sched)


def test_plan_with_block_size_one_has_no_nonkeys():
    sched = build_schedule(1000, 1e-4, 0.02)
    plan = build_timestep_plan(sched, 10, 1, 0.6)
    assert all(b.nonkeys == () for b in plan.blocks)
    assert len(plan.blocks) == 10


def test_plan_block_grouping():
    sched = build_schedule(1000, 1e-4, 0.02)
    plan = build_timestep_plan(sched, 6, 3, 0.6)
    assert [len(b.members) for b in plan.blocks] == [3, 3]
    plan = build_timestep_plan(sched, 7, 3, 0.6)
    assert [len(b.members) for b in plan.blocks] == [3, 3, 1]


def test_plan_covers_sampled_sequence_descending():
    sched = build_schedule(200, 1e-4, 0.02)
    for steps, n in ((1, 1), (5, 2), (8, 3), (40, 5)):
        plan = build_timestep_plan(sched, steps, n, 0.5)
        assert plan.sampled[0] == 200
        if steps > 1:
            assert plan.sampled[-1] == 1
        assert len(plan.sampled) == steps
        assert all(a > b for a, b in zip(plan.sampled, plan.sampled[1:]))
        flat = tuple(t for b in plan.blocks for t in b.members)
        assert flat == plan.sampled
        assert all(b.key == b.members[0] for b in plan.blocks)


def test_plan_threshold_marks_late_blocks_eligible():
    sched = build_schedule(1000, 1e-4, 0.02)
    plan = build_timestep_plan(sched, 8, 3, 0.5)
    assert plan.thresh_index == 3
    assert plan.t_thresh == plan.sampled[3]
    assert [b.estimation_eligible for b in plan.blocks] == [False, True, True]
    plan = build_timestep_plan(sched, 7, 3, 1.0)
    assert [b.estimation_eligible for b in plan.blocks] == [False, False, True]
    plan = build_timestep_plan(sched, 7, 3, 0.0)
    assert all(b.estimation_eligible for b in plan.blocks)


def test_plan_singleton_keeps_steps_and_drops_caching():
    sched = build_schedule(1000, 1e-4, 0.02)
    plan = build_timestep_plan(sched, 9, 3, 0.6)
    single = plan.singleton()
    assert single.sampled == plan.sampled
    assert len(single.blocks) == len(plan.sampled)
    assert all(b.nonkeys == () and not b.estimation_eligible for b in single.blocks)


def test_build_plan_rejects_bad_parameters():
    sched = build_schedule(100, 1e-4, 0.02)
    with pytest.raises(ConfigError):
        build_timestep_plan(sched, 0, 3, 0.6)
    with pytest.raises(ConfigError):
        build_timestep_plan(sched, 101, 3, 0.6)
    with pytest.raises(ConfigError):
        build_timestep_plan(sched, 10, 0, 0.6)
    with pytest.raises(ConfigError):
        build_timestep_plan(sched, 10, 3, 1.5)
