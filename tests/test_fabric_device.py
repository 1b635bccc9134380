"""Device grid: geometry, columns, sites, clock regions, signatures."""

import numpy as np
import pytest

from repro.fabric import Device, TileType, get_part, PART_CATALOG
from repro.fabric.device import SITE_FOR_TILE, TILE_FOR_CELL


def test_catalog_parts_instantiate():
    for name in PART_CATALOG:
        dev = Device.from_name(name)
        assert dev.ncols > 0 and dev.nrows > 0


def test_unknown_part_raises():
    with pytest.raises(KeyError, match="unknown part"):
        get_part("nonexistent")


def test_column_types_match_pattern(tiny_device):
    pattern = tiny_device.part.columns()
    assert tiny_device.ncols == len(pattern)
    for col, ch in enumerate(pattern):
        assert tiny_device.tile_type(col) == TileType.FROM_CHAR[ch]


def test_in_bounds(tiny_device):
    assert tiny_device.in_bounds(0, 0)
    assert tiny_device.in_bounds(tiny_device.ncols - 1, tiny_device.nrows - 1)
    assert not tiny_device.in_bounds(-1, 0)
    assert not tiny_device.in_bounds(0, tiny_device.nrows)
    assert not tiny_device.in_bounds(tiny_device.ncols, 0)


def test_columns_of_partitions_device(tiny_device):
    total = sum(
        tiny_device.columns_of(t).shape[0]
        for t in (TileType.NULL, TileType.CLB, TileType.DSP, TileType.BRAM,
                  TileType.IO, TileType.URAM)
    )
    assert total == tiny_device.ncols


def test_io_crossings(tiny_device):
    io_cols = tiny_device.io_columns
    assert io_cols.shape[0] >= 1
    io = int(io_cols[0])
    assert tiny_device.io_crossings(io - 1, io + 1) == 1
    assert tiny_device.io_crossings(io + 1, io - 1) == 1  # symmetric
    assert tiny_device.io_crossings(0, 0) == 0
    # boundary columns themselves are not "crossed"
    assert tiny_device.io_crossings(io, io + 1) == 0


@pytest.mark.parametrize("part", sorted(PART_CATALOG))
def test_io_crossings_matches_mask_definition(part):
    """Prefix-table lookups ≡ the original mask + count, all column pairs."""
    device = Device.from_name(part)
    io = device.io_columns
    for a in range(device.ncols):
        for b in range(device.ncols):
            lo, hi = min(a, b), max(a, b)
            assert device.io_crossings(a, b) == int(
                np.count_nonzero((io > lo) & (io < hi))
            ), (part, a, b)


def test_sites_of_types(tiny_device):
    for cell_type, tile in TILE_FOR_CELL.items():
        sites = tiny_device.sites_of(cell_type)
        n_cols = tiny_device.columns_of(tile).shape[0]
        assert sites.shape == (n_cols * tiny_device.nrows, 2)
        for col in np.unique(sites[:, 0]):
            assert tiny_device.tile_type(int(col)) == tile


def test_sites_of_unknown_type(tiny_device):
    with pytest.raises(KeyError):
        tiny_device.sites_of("FLUX_CAPACITOR")


def test_resource_totals_consistent(big_device):
    totals = big_device.resource_totals
    assert totals["LUT"] == totals["SLICE"] * big_device.part.luts_per_clb
    assert totals["FF"] == totals["SLICE"] * big_device.part.ffs_per_clb
    assert totals["DSP48E2"] == big_device.site_count("DSP48E2")
    assert totals["RAMB36"] == big_device.site_count("RAMB36")


def test_utilization_fractions(big_device):
    totals = big_device.resource_totals
    util = big_device.utilization({"LUT": totals["LUT"] // 2, "DSP48E2": 0})
    assert util["LUT"] == pytest.approx(0.5, rel=1e-3)
    assert util["DSP48E2"] == 0.0


def test_clock_regions(tiny_device):
    cx, cy = tiny_device.clock_region_grid
    assert cx >= 1 and cy >= 1
    assert tiny_device.clock_region(0, 0) == (0, 0)
    last = tiny_device.clock_region(tiny_device.ncols - 1, tiny_device.nrows - 1)
    assert last == (cx - 1, cy - 1)


def test_column_signature_and_matching(tiny_device):
    sig = tiny_device.column_signature(0, 3)
    anchors = tiny_device.matching_column_anchors(sig)
    assert 0 in anchors
    for a in anchors:
        assert tiny_device.column_signature(a, 3) == sig


def test_column_signature_out_of_range(tiny_device):
    with pytest.raises(IndexError):
        tiny_device.column_signature(tiny_device.ncols - 1, 3)


def test_matching_anchors_degenerate(tiny_device):
    assert tiny_device.matching_column_anchors(()) == []
    too_wide = tuple([TileType.CLB] * (tiny_device.ncols + 1))
    assert tiny_device.matching_column_anchors(too_wide) == []


def test_describe_mentions_key_facts(big_device):
    text = big_device.describe()
    assert "ku5p-like" in text
    assert "LUTs" in text
