import numpy as np
import pytest

from cachediff.config import RunConfig, RunSection, ScheduleConfig
from cachediff.masks import ForegroundMask, ellipse_mask
from cachediff.rng import Rng
from cachediff.unet import Conditioning, ToyUNet, UNetConfig, init_weights

SMALL_CFG = UNetConfig(
    latent_channels=2,
    base_channels=(4, 5, 6, 7),
    height=8,
    width=8,
    frames=2,
    audio_tokens=3,
    audio_dim=4,
    head_dim=4,
    time_dim=8,
)


def build_conditioning_for(cfg: UNetConfig, seed: int = 0, mask: ForegroundMask | None = None) -> Conditioning:
    root = Rng(seed)
    audio = root.child(0).normal((cfg.frames, cfg.audio_tokens, cfg.audio_dim))
    ref = {}
    for i, (layer, (c, h, w)) in enumerate(cfg.attn_info().items()):
        ref[layer] = root.child(1).child(i).normal((h * w, c))
    if mask is None:
        mask = ellipse_mask(cfg.height, cfg.width, 0.5)
    cond = Conditioning(ref=ref, audio=audio, mask=mask, valid_frames=cfg.frames)
    cond.validate(cfg)
    return cond


def latent_for(cfg: UNetConfig, seed: int = 0) -> np.ndarray:
    return Rng(seed).child(9).normal(
        (1, cfg.latent_channels, cfg.frames, cfg.height, cfg.width)
    )


@pytest.fixture(scope="session")
def small_cfg() -> UNetConfig:
    return SMALL_CFG


@pytest.fixture(scope="session")
def small_model(small_cfg) -> ToyUNet:
    weights, _ = init_weights(small_cfg, 0)
    return ToyUNet(small_cfg, weights)


@pytest.fixture
def small_cond(small_cfg) -> Conditioning:
    return build_conditioning_for(small_cfg)


@pytest.fixture
def small_latent(small_cfg) -> np.ndarray:
    return latent_for(small_cfg)


@pytest.fixture
def small_rc() -> RunConfig:
    return RunConfig(
        unet=SMALL_CFG,
        schedule=ScheduleConfig(T=60, beta_start=1e-4, beta_end=0.02, steps=8,
                                block_size=3, t_thresh_fraction=0.5),
        run=RunSection(total_frames=SMALL_CFG.frames, out_dir="out"),
    )
