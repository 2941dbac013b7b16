"""Noise schedule, deterministic sampler updates, and timestep planning.

Coefficients are computed in float64 and cast to float32 at the point of
use; latents stay float32 throughout.  The reverse update from schedule
position t to any earlier position s is the deterministic (eta = 0) rule

    z_s = lam * z_t + tau * eps

with ``lam = sqrt(abar_s / abar_t)`` and
``tau = sqrt(1 - abar_s) - lam * sqrt(1 - abar_t)``, which keeps the
identity ``lam * sqrt(1 - abar_t) + tau = sqrt(1 - abar_s)`` exact; one
DDIM step is s = t - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvariantError


@dataclass(frozen=True)
class NoiseSchedule:
    """Arrays indexed by timestep ``0..T``; index 0 is the clean state."""

    T: int
    beta: np.ndarray
    alpha_bar: np.ndarray


def build_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linear-beta schedule with cumulative alpha products."""
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError(f"betas must satisfy 0 < start <= end < 1, got {beta_start}, {beta_end}")
    beta = np.zeros(T + 1, dtype=np.float64)
    beta[1:] = np.linspace(beta_start, beta_end, T)
    alpha_bar = np.ones(T + 1, dtype=np.float64)
    alpha_bar[1:] = np.cumprod(1.0 - beta[1:])
    if not np.isfinite(alpha_bar).all():
        raise InvariantError("alpha_bar contains non-finite values")
    if not (alpha_bar[1:] < alpha_bar[:-1]).all():
        raise InvariantError("alpha_bar must be strictly decreasing")
    if alpha_bar[-1] <= 0.0:
        raise InvariantError("alpha_bar must stay positive")
    return NoiseSchedule(T=T, beta=beta, alpha_bar=alpha_bar)


def _affine(z: np.ndarray, eps: np.ndarray, a: float, b: float) -> np.ndarray:
    """Shared float32 evaluation of a*z + b*eps for all sampler updates."""
    if z.dtype != np.float32 or eps.dtype != np.float32:
        raise ValueError("latents and noise must be float32")
    if z.shape != eps.shape:
        raise ValueError(f"shape mismatch: z {z.shape} vs eps {eps.shape}")
    return z * np.float32(a) + eps * np.float32(b)


def _check_t(sched: NoiseSchedule, t: int, low: int) -> None:
    if not (low <= t <= sched.T):
        raise ConfigError(f"timestep {t} outside [{low}, {sched.T}]")


def forward_diffuse(z0: np.ndarray, t: int, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Noise a clean latent to schedule position t."""
    _check_t(sched, t, 0)
    ab = sched.alpha_bar[t]
    return _affine(z0, eps, math.sqrt(ab), math.sqrt(1.0 - ab))


def ddim_step_skipping(
    z: np.ndarray, eps: np.ndarray, t_from: int, t_to: int, sched: NoiseSchedule
) -> np.ndarray:
    """Deterministic reverse step between arbitrary positions t_from > t_to (one DDIM
    step when t_to = t_from - 1)."""
    _check_t(sched, t_from, 1)
    if not (0 <= t_to < t_from):
        raise ConfigError(f"need 0 <= t_to < t_from, got t_from={t_from}, t_to={t_to}")
    ab_from = sched.alpha_bar[t_from]
    ab_to = sched.alpha_bar[t_to]
    lam = math.sqrt(ab_to / ab_from)
    tau = math.sqrt(1.0 - ab_to) - lam * math.sqrt(1.0 - ab_from)
    return _affine(z, eps, lam, tau)


# ---------------------------------------------------------------------------
# timestep planning


@dataclass(frozen=True)
class Block:
    """One key step plus the non-key steps served from its cache."""

    key: int
    nonkeys: tuple[int, ...]
    estimation_eligible: bool

    @property
    def members(self) -> tuple[int, ...]:
        return (self.key,) + self.nonkeys


@dataclass(frozen=True)
class TimestepPlan:
    """Descending sampled timesteps grouped into fixed-size blocks."""

    sampled: tuple[int, ...]
    blocks: tuple[Block, ...]
    t_thresh: int
    thresh_index: int

    def singleton(self) -> "TimestepPlan":
        """The same sampled steps with every step its own key (no caching)."""
        blocks = tuple(Block(key=t, nonkeys=(), estimation_eligible=False) for t in self.sampled)
        return TimestepPlan(self.sampled, blocks, self.t_thresh, self.thresh_index)


def build_timestep_plan(
    sched: NoiseSchedule, steps: int, block_size: int, t_thresh_fraction: float
) -> TimestepPlan:
    """Uniform descending sampling grouped into key/non-key blocks.

    Estimation eligibility starts at index ``floor(frac * (S - 1))`` into
    the deduplicated descending sequence, i.e. the later (less noisy)
    portion of the trajectory.
    """
    if not (1 <= steps <= sched.T):
        raise ConfigError(f"steps must be in [1, {sched.T}], got {steps}")
    if block_size < 1:
        raise ConfigError(f"block size must be >= 1, got {block_size}")
    if not (0.0 <= t_thresh_fraction <= 1.0):
        raise ConfigError(f"t_thresh_fraction must be in [0, 1], got {t_thresh_fraction}")
    grid = np.floor(np.linspace(sched.T, 1, steps)).astype(np.int64)
    sampled: list[int] = []
    for t in grid.tolist():
        if not sampled or t < sampled[-1]:
            sampled.append(int(t))
    n = len(sampled)
    thresh_index = int(math.floor(t_thresh_fraction * (n - 1)))
    blocks = []
    for i in range(0, n, block_size):
        chunk = sampled[i : i + block_size]
        blocks.append(
            Block(
                key=chunk[0],
                nonkeys=tuple(chunk[1:]),
                estimation_eligible=i >= thresh_index,
            )
        )
    plan = TimestepPlan(
        sampled=tuple(sampled),
        blocks=tuple(blocks),
        t_thresh=sampled[thresh_index],
        thresh_index=thresh_index,
    )
    flat = [t for b in plan.blocks for t in b.members]
    if tuple(flat) != plan.sampled:
        raise InvariantError("plan blocks do not cover the sampled sequence")
    return plan
