"""Checkpoint (DCP) serialization round-trips."""

import gzip
import json

import pytest

from repro.fabric import PBlock
from repro.netlist import (
    Cell,
    CheckpointFormatError,
    Design,
    Net,
    Port,
    design_from_dict,
    design_to_dict,
    load_checkpoint,
    save_checkpoint,
)


def _rich_design() -> Design:
    d = Design("rich", pblock=PBlock(1, 2, 8, 9))
    d.metadata = {"kind": "conv", "params": {"kernel": 5}, "fmax_mhz": 432.1}
    d.add_cell(Cell("a", "SLICE", placement=(2, 3), locked=True, luts=7, ffs=9,
                    comb_depth=3, module="m0"))
    d.add_cell(Cell("b", "DSP48E2", placement=(4, 5), comb_depth=2))
    d.add_cell(Cell("c", "RAMB36"))
    n = Net("dat", "a", ["b", "c"], width=16, locked=True)
    n.routes = [[10, 11, 12], None]
    d.add_net(n)
    clk = Net("clk_net", None, ["a", "b"], is_clock=True)
    d.add_net(clk)
    d.connect("inp", None, ["a"], width=8)
    d.add_port(Port("in_data", "in", "inp", width=8, tile=(1, 4), protocol="mem"))
    d.add_port(Port("clk", "in", "clk_net"))
    return d


def _assert_same(a: Design, b: Design) -> None:
    assert a.name == b.name
    assert a.pblock == b.pblock
    assert a.metadata == b.metadata
    assert set(a.cells) == set(b.cells)
    for name, cell in a.cells.items():
        other = b.cells[name]
        for attr in ("ctype", "placement", "locked", "luts", "ffs", "comb_depth",
                     "seq", "module"):
            assert getattr(cell, attr) == getattr(other, attr), (name, attr)
    assert set(a.nets) == set(b.nets)
    for name, net in a.nets.items():
        other = b.nets[name]
        assert net.driver == other.driver
        assert net.sinks == other.sinks
        assert net.routes == other.routes
        assert (net.width, net.is_clock, net.locked) == (
            other.width, other.is_clock, other.locked)
    assert set(a.ports) == set(b.ports)
    for name, port in a.ports.items():
        other = b.ports[name]
        for attr in ("direction", "net", "width", "tile", "protocol"):
            assert getattr(port, attr) == getattr(other, attr)


def test_dict_roundtrip():
    d = _rich_design()
    _assert_same(d, design_from_dict(design_to_dict(d)))


def test_file_roundtrip_whatever_the_file_is_called(tmp_path):
    d = _rich_design()
    files = [save_checkpoint(d, tmp_path / name)
             for name in ("chk.dcpb", "chk.dcp", "no_suffix")]
    for path in files:
        _assert_same(d, load_checkpoint(path))
    assert len({path.read_bytes() for path in files}) == 1


def test_retired_formats_raise_a_typed_error_whatever_the_suffix(tmp_path):
    doc = json.dumps(design_to_dict(_rich_design())).encode()
    for found, raw in (("gzip-compressed JSON checkpoint", gzip.compress(doc)),
                       ("plain JSON checkpoint", doc),
                       ("not a checkpoint", b"")):
        path = tmp_path / "old.dcpb"
        path.write_bytes(raw)
        with pytest.raises(CheckpointFormatError, match=found):
            load_checkpoint(path)
    assert issubclass(CheckpointFormatError, ValueError)


def test_bad_format_version_rejected():
    data = design_to_dict(_rich_design())
    data["format"] = 999
    with pytest.raises(ValueError, match="unsupported checkpoint format"):
        design_from_dict(data)


def test_roundtrip_is_deep_copy():
    d = _rich_design()
    copy = design_from_dict(design_to_dict(d))
    copy.cells["a"].placement = (9, 9)
    copy.nets["dat"].routes[0][0] = 999
    assert d.cells["a"].placement == (2, 3)
    assert d.nets["dat"].routes[0][0] == 10
