import numpy as np
import pytest

from cachediff.errors import ConfigError
from cachediff.masks import (
    ForegroundMask,
    ellipse_mask,
    mask_from_spec,
    read_mask,
    rect_mask,
    write_mask,
)


def test_index_sets_partition_the_grid():
    grid = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    mask = ForegroundMask(grid)
    assert mask.fg_index.tolist() == [0, 3]
    assert mask.bg_index.tolist() == [1, 2]
    assert mask.num_fg == 2
    assert mask.num_bg == 2
    assert sorted(mask.fg_index.tolist() + mask.bg_index.tolist()) == [0, 1, 2, 3]


def test_mask_construction_rejects_bad_grids():
    with pytest.raises(ConfigError):
        ForegroundMask(np.array([0, 1, 0]))
    with pytest.raises(ConfigError):
        ForegroundMask(np.array([[0, 2], [1, 0]]))


def test_mask_file_roundtrip(tmp_path):
    mask = rect_mask(6, 8, 1, 2, 5, 4)
    path = tmp_path / "m.mask"
    write_mask(path, mask)
    back = read_mask(path)
    assert np.array_equal(back.grid, mask.grid)


def test_read_mask_rejects_malformed_files(tmp_path):
    path = tmp_path / "m.mask"
    with pytest.raises(ConfigError):
        read_mask(tmp_path / "missing.mask")
    path.write_text("grid: 2 2\n00\n00\n")
    with pytest.raises(ConfigError):
        read_mask(path)
    path.write_text("mask: 2 x\n00\n00\n")
    with pytest.raises(ConfigError):
        read_mask(path)
    path.write_text("mask: 3 2\n00\n00\n")
    with pytest.raises(ConfigError):
        read_mask(path)
    path.write_text("mask: 2 2\n00\n0a\n")
    with pytest.raises(ConfigError):
        read_mask(path)
    path.write_text("mask: 2 2\n00\n000\n")
    with pytest.raises(ConfigError):
        read_mask(path)


@pytest.mark.parametrize("header", ["16 -16", "-16 16", "0 4", "4 0", "0 0"])
def test_read_mask_refuses_a_non_positive_size(tmp_path, header):
    """The header's H and W must be positive, with or without rows below."""
    path = tmp_path / "m.mask"
    for body in ("", "0" * 16 + "\n"):
        path.write_text(f"mask: {header}\n{body}")
        with pytest.raises(ConfigError, match="positive size"):
            read_mask(path)


def test_read_mask_checks_the_rows_before_allocating_the_grid(tmp_path):
    """A header of a huge width (a grid of 8 TB) is refused by its first row, before any
    grid is allocated."""
    path = tmp_path / "m.mask"
    path.write_text("mask: 2 4000000000000\n00\n00\n")
    with pytest.raises(ConfigError, match="row 0 is not 4000000000000 chars"):
        read_mask(path)


def test_rect_mask_half_open_bounds():
    mask = rect_mask(4, 4, 1, 0, 3, 2)
    assert mask.grid.tolist() == [
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    with pytest.raises(ConfigError):
        rect_mask(4, 4, 2, 0, 2, 2)
    with pytest.raises(ConfigError):
        rect_mask(4, 4, 0, 0, 5, 2)


def test_ellipse_mask_limits_and_coverage():
    assert ellipse_mask(8, 8, 1.0).num_bg == 0
    assert ellipse_mask(8, 8, 0.0).num_fg == 0
    mid = ellipse_mask(16, 16, 0.4)
    assert 0 < mid.num_fg < 256
    assert abs(mid.num_fg / 256.0 - 0.4) < 0.15
    assert mid.grid[8, 8] == 1
    assert mid.grid[0, 0] == 0
    with pytest.raises(ConfigError):
        ellipse_mask(8, 8, 1.5)


def test_mask_from_spec_parses_all_forms(tmp_path):
    rect = mask_from_spec("rect:0,0,2,2", 4, 4)
    assert rect.num_fg == 4
    frac = mask_from_spec("frac:1.0", 4, 4)
    assert frac.num_fg == 16
    path = tmp_path / "m.mask"
    write_mask(path, rect)
    assert np.array_equal(mask_from_spec(str(path), 4, 4).grid, rect.grid)


def test_mask_from_spec_rejects_bad_specs(tmp_path):
    with pytest.raises(ConfigError):
        mask_from_spec("rect:1,2,3", 4, 4)
    with pytest.raises(ConfigError):
        mask_from_spec("rect:a,0,2,2", 4, 4)
    with pytest.raises(ConfigError):
        mask_from_spec("frac:big", 4, 4)
    path = tmp_path / "m.mask"
    write_mask(path, rect_mask(2, 2, 0, 0, 1, 1))
    with pytest.raises(ConfigError):
        mask_from_spec(str(path), 4, 4)
