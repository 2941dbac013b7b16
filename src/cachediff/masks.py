"""Foreground masks over the latent spatial grid.

A mask is a binary H x W grid; its flattened foreground/background index
sets drive token selection in the restricted attention path.  Masks are
written as a text header ``mask: H W`` followed by H lines of 0/1
characters, and can be synthesized from specs:

* ``rect:x0,y0,x1,y1`` - axis-aligned rectangle, half-open bounds, x is
  the column axis and y the row axis;
* ``frac:F`` - centered ellipse covering approximately fraction F of the
  grid (``frac:1.0`` yields the all-ones mask);
* any other string - path of a mask file to load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ForegroundMask:
    """Binary grid plus precomputed ascending flat index sets."""

    grid: np.ndarray
    fg_index: np.ndarray = field(init=False)
    bg_index: np.ndarray = field(init=False)

    def __post_init__(self):
        g = np.asarray(self.grid)
        if g.ndim != 2:
            raise ConfigError(f"mask grid must be 2-d, got shape {g.shape}")
        if not np.isin(g, (0, 1)).all():
            raise ConfigError("mask grid must contain only 0 and 1")
        g = g.astype(np.uint8)
        object.__setattr__(self, "grid", g)
        flat = g.ravel()
        object.__setattr__(self, "fg_index", np.flatnonzero(flat == 1))
        object.__setattr__(self, "bg_index", np.flatnonzero(flat == 0))

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    @property
    def num_fg(self) -> int:
        return int(self.fg_index.size)

    @property
    def num_bg(self) -> int:
        return int(self.bg_index.size)


def write_mask(path: str | Path, mask: ForegroundMask) -> None:
    """Write a mask in the text grid format."""
    H, W = mask.shape
    lines = [f"mask: {H} {W}"]
    lines.extend("".join(str(int(v)) for v in row) for row in mask.grid)
    Path(path).write_text("\n".join(lines) + "\n")


def read_mask(path: str | Path) -> ForegroundMask:
    """Read a mask file, validating header and row contents."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read mask file {path}: {exc}") from exc
    if not lines or not lines[0].startswith("mask: "):
        raise ConfigError(f"{path}: missing 'mask: H W' header")
    try:
        H, W = (int(tok) for tok in lines[0][len("mask: ") :].split())
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed mask header") from exc
    if H < 1 or W < 1:
        raise ConfigError(f"{path}: mask header needs a positive size, got {H} x {W}")
    rows = lines[1 : 1 + H]
    if len(rows) != H:
        raise ConfigError(f"{path}: expected {H} mask rows, found {len(rows)}")
    for y, row in enumerate(rows):  # every row is checked before the grid is allocated
        if len(row) != W or set(row) - {"0", "1"}:
            raise ConfigError(f"{path}: row {y} is not {W} chars of 0/1")
    return ForegroundMask(np.array([[ch == "1" for ch in row] for row in rows], np.uint8))


def rect_mask(H: int, W: int, x0: int, y0: int, x1: int, y1: int) -> ForegroundMask:
    """Rectangle mask over half-open column range [x0,x1) and row range [y0,y1)."""
    if not (0 <= x0 < x1 <= W and 0 <= y0 < y1 <= H):
        raise ConfigError(f"rect {x0},{y0},{x1},{y1} outside {H}x{W} grid")
    grid = np.zeros((H, W), dtype=np.uint8)
    grid[y0:y1, x0:x1] = 1
    return ForegroundMask(grid)


def ellipse_mask(H: int, W: int, frac: float) -> ForegroundMask:
    """Centered ellipse sized to cover roughly ``frac`` of the grid."""
    if not (0.0 <= frac <= 1.0):
        raise ConfigError(f"mask fraction must be in [0, 1], got {frac}")
    if frac >= 1.0:
        return ForegroundMask(np.ones((H, W), dtype=np.uint8))
    if frac == 0.0:
        return ForegroundMask(np.zeros((H, W), dtype=np.uint8))
    s = 2.0 * np.sqrt(frac / np.pi)
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    ry, rx = s * H / 2.0, s * W / 2.0
    yy, xx = np.mgrid[0:H, 0:W]
    inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    return ForegroundMask(inside.astype(np.uint8))


def mask_from_spec(spec: str, H: int, W: int) -> ForegroundMask:
    """Build a mask from a CLI spec string (rect:..., frac:..., or a file path)."""
    if spec.startswith("rect:"):
        parts = spec[len("rect:") :].split(",")
        if len(parts) != 4:
            raise ConfigError(f"rect spec needs x0,y0,x1,y1, got {spec!r}")
        try:
            x0, y0, x1, y1 = (int(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"rect spec needs integers, got {spec!r}") from exc
        return rect_mask(H, W, x0, y0, x1, y1)
    if spec.startswith("frac:"):
        try:
            frac = float(spec[len("frac:") :])
        except ValueError as exc:
            raise ConfigError(f"frac spec needs a number, got {spec!r}") from exc
        return ellipse_mask(H, W, frac)
    mask = read_mask(spec)
    if mask.shape != (H, W):
        raise ConfigError(f"mask file {spec} is {mask.shape}, expected {(H, W)}")
    return mask
