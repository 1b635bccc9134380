"""Property tests for the columnar binary codec and the database fetch.

Hypothesis over random checkpoint-shaped designs: the binary codec
(:mod:`repro.netlist.codec`) must agree **bit for bit** with the dict
oracle — ``decode(encode(d))`` serializes to exactly the dict
``design_from_dict(design_to_dict(d))`` does, and a materialized
``DesignImage`` reproduces ``design_to_dict`` of the design it was
built from.  ``DesignImage.from_bytes`` is the one reader of images
from outside the process, so it is fed hostile bytes: every malformed
image is a ``ValueError``, never an ``IndexError`` or a dropped row.
One level up, ``ComponentDatabase.fetch(sig, anchor)`` must equal its
declared oracle, ``relocate_reference`` run on ``get(sig)``, for every
legal anchor, with the same :class:`RelocationError` diagnostics at
illegal ones; so must ``relocate``, whose copy stays independent of its
source.  The library tests at the bottom pin torn or garbage ``.dcpb``
files reading as misses, rebuilt in place.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fabric import Device, PBlock
from repro.netlist import Cell, Design, Net, Port
from repro.netlist.checkpoint import design_from_dict, design_to_dict
from repro.netlist.codec import (
    DesignImage,
    decode_design,
    encode_design,
    pack_value,
    unpack_value,
)
from repro.rapidwright.database import ComponentDatabase
from repro.rapidwright.module import (
    RelocationError,
    candidate_anchors,
    relocate,
    relocate_reference,
)

SMALL = Device.from_name("small")

CTYPES = ("SLICE", "DSP48E2", "RAMB36", "BUFCE")

#: Columns where a 3-wide all-CLB pblock is legal on the small part
#: (SLICE cells must sit on CLB columns for relocation to validate).
_CLB_COL0 = [
    c for c in range(SMALL.ncols - 2)
    if all(int(SMALL.col_types[c + i]) == 1 for i in range(3))
]


# -- random checkpoint-shaped designs --------------------------------------

#: Values a checkpoint's metadata can legally hold.  The JSON reference
#: path deep-copies metadata (it never goes through ``json.dumps``), so
#: tuples and bytes survive it and the binary codec must preserve them
#: too.
_META_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
)


def _meta_values(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.tuples(children, children),
            st.dictionaries(st.text(max_size=6), children, max_size=3),
        ),
        max_leaves=8,
    )


_META_VALUES = _meta_values(_META_LEAVES)

#: Adds frozensets: deep-copyable but not vpack-packable, so in-memory
#: images must fall back to deepcopy for them (``to_bytes`` refuses,
#: exactly as ``json.dumps`` refused on the reference file path).
_META_VALUES_UNPACKABLE = _meta_values(
    _META_LEAVES | st.frozensets(st.integers(0, 5), max_size=3)
)


@st.composite
def designs(draw, *, placed_in_pblock: bool = False, any_meta: bool = False):
    """Random designs covering every field the codec serializes.

    With ``placed_in_pblock=True`` every cell is placed inside a pblock
    whose columns exist on the small part, so relocation is exercisable.
    With ``any_meta=True`` metadata may hold deep-copyable values the
    wire format rejects (exercises the in-memory deepcopy fallback).
    """
    rng = draw(st.randoms(use_true_random=False))
    name = draw(st.text(min_size=1, max_size=10))
    if placed_in_pblock:
        col0 = rng.choice(_CLB_COL0)
        row0 = rng.randrange(0, SMALL.nrows - 3)
        pblock = PBlock(col0, row0, col0 + 2, row0 + 2)
    else:
        pblock = draw(
            st.one_of(st.none(), st.builds(PBlock, st.just(1), st.just(2),
                                           st.just(6), st.just(7)))
        )
    design = Design(name, pblock=pblock)
    values = _META_VALUES_UNPACKABLE if any_meta else _META_VALUES
    design.metadata = draw(
        st.dictionaries(st.text(max_size=6), values, max_size=4)
    )

    n_cells = rng.randrange(1, 8)
    for i in range(n_cells):
        if placed_in_pblock:
            # Keep the column footprint CLB-only so any CLB column run
            # on the device is a legal anchor.
            ctype = "SLICE"
            placement = (
                pblock.col0 + rng.randrange(0, 3),
                pblock.row0 + rng.randrange(0, 3),
            )
        else:
            ctype = rng.choice(CTYPES)
            placement = (
                (rng.randrange(0, 20), rng.randrange(0, 20))
                if rng.random() < 0.7 else None
            )
        slice_like = ctype == "SLICE"
        design.add_cell(Cell(
            f"c{i}", ctype, placement=placement,
            locked=rng.random() < 0.5,
            luts=rng.randrange(0, 9) if slice_like else 0,
            ffs=rng.randrange(0, 9) if slice_like else 0,
            comb_depth=rng.randrange(1, 4), seq=rng.random() < 0.3,
            module=rng.choice((None, "m0", "m1")),
        ))

    cells = list(design.cells)
    for k in range(rng.randrange(0, 6)):
        sinks = [rng.choice(cells) for _ in range(rng.randrange(0, 3))]
        net = Net(
            f"n{k}",
            driver=rng.choice(cells + [None]),
            sinks=sinks,
            width=rng.randrange(1, 33),
            is_clock=rng.random() < 0.2,
            locked=rng.random() < 0.5,
        )
        net.routes = [
            None if rng.random() < 0.3
            else [rng.randrange(0, 10**6) for _ in range(rng.randrange(0, 5))]
            for _ in sinks
        ]
        design.add_net(net)

    nets = list(design.nets)
    for p in range(rng.randrange(0, 4)):
        if not nets:
            break
        design.add_port(Port(
            f"p{p}", rng.choice(("in", "out")), rng.choice(nets),
            width=rng.randrange(1, 9),
            tile=(rng.randrange(0, 20), rng.randrange(0, 20))
            if rng.random() < 0.5 else None,
            protocol=rng.choice(("mem", "stream")),
        ))
    return design


# -- codec ≡ JSON oracle ----------------------------------------------------


@given(designs())
@settings(max_examples=40, deadline=None)
def test_binary_roundtrip_matches_json_oracle(design):
    """decode(encode(d)) serializes exactly like the JSON round trip."""
    oracle = design_from_dict(design_to_dict(design))
    decoded = decode_design(encode_design(design))
    assert design_to_dict(decoded) == design_to_dict(oracle)


@given(designs(any_meta=True))
@settings(max_examples=40, deadline=None)
def test_image_payload_parity_both_directions(design):
    payload = design_to_dict(design)
    image = DesignImage.from_design(design)
    assert design_to_dict(image.materialize()) == payload
    # again, now with the string columns the image keeps
    assert design_to_dict(image.materialize()) == payload


@st.composite
def copy_cases(draw):
    """A design holding every row shape the one-pass build meets — each
    drawn: an unplaced cell, a sink with no route, a driverless net, a
    driver and a sink that name no cell of the image — and how to copy
    it: a shift, an instance prefix and a mask of removed nets."""
    design = draw(designs())
    design.pblock = PBlock(1, 2, 6, 7)
    cells = list(design.cells)
    if draw(st.booleans()):
        design.add_cell(Cell("loose", "SLICE"))
    if draw(st.booleans()):
        design.connect("unrouted", cells[0], cells[-1:], width=2)
    if draw(st.booleans()):
        design.connect("undriven", None, cells[:2], width=4).routes = [[3, 4]] * len(cells[:2])
    if draw(st.booleans()):
        design.connect("foreign", "elsewhere", [cells[0], "outside"]).routes = [[1, 2], None]
    shift = draw(st.tuples(st.integers(-1, SMALL.ncols - 7), st.integers(-2, SMALL.nrows - 8)))
    instance = draw(st.none() | st.text("ab0", min_size=1, max_size=3))
    live = draw(st.none() | st.lists(st.booleans(), min_size=len(design.nets),
                                      max_size=len(design.nets)))
    return design, shift, instance, live


def _objects_form(cells, nets) -> str:
    """*cells* and *nets* as ``design_to_dict`` lists them, by ``repr``
    (a flag that became an int, or a numpy scalar, reads differently),
    with each placement's type."""
    design = Design("objects")
    design.cells, design.nets = cells, nets
    form = design_to_dict(design)
    return repr((form["cells"], form["nets"], [type(c.placement) for c in cells.values()]))


def _mutable_lists(nets) -> list:
    return [*(n.sinks for n in nets.values()), *(n.routes for n in nets.values()),
            *(path for n in nets.values() for path in n.routes if path is not None)]


@given(copy_cases())
@settings(max_examples=60, deadline=None)
def test_one_pass_build_matches_oracle_and_shares_no_list(case):
    """``DesignImage.objects`` ≡ ``relocate_reference`` (the dict codec
    plus the shift) then ``Design.instantiate`` under the prefix, with the
    masked nets taken out; every endpoint naming a cell of the image is
    that cell's name object; and no two copies — nor a copy and what the
    image keeps — share a list, so editing one copy leaves the next."""
    design, (dcol, drow), instance, live = case
    image = DesignImage.from_design(design)
    oracle = relocate_reference(design, SMALL, (1 + dcol, 2 + drow), validate=False)
    if instance is None and live is None:
        assert design_to_dict(image.materialize(dcol, drow, SMALL.nrows)) == \
            design_to_dict(oracle)
    if instance is not None:
        top = Design("top")
        top.instantiate(oracle, instance)
        oracle = top
    for name, keep in zip(list(oracle.nets), live or ()):
        if not keep:
            del oracle.nets[name]
    want = _objects_form(oracle.cells, oracle.nets)

    def copy():
        return image.objects(dcol, drow, SMALL.nrows, instance=instance, live=live)

    first, second = copy(), copy()
    assert _objects_form(*first) == _objects_form(*second) == want
    cells, nets = first
    for net in nets.values():
        for end in (net.driver, *net.sinks):
            if end in cells:
                assert cells[end].name is end
    assert {"names", "resolved"} <= image._derived.keys()
    kept = {id(x) for entry in image._derived.values() if type(entry) is tuple
            for x in entry}
    ids = [{id(x) for x in _mutable_lists(c[1])} for c in (first, second)]
    assert ids[0].isdisjoint(ids[1]) and kept.isdisjoint(ids[0] | ids[1])
    for net in nets.values():
        for path in net.routes:
            if path is not None:
                path.append(-1)
        net.sinks.append("ghost")
        net.routes.append([7])
    assert _objects_form(*copy()) == _objects_form(*second) == want


@given(designs())
@settings(max_examples=25, deadline=None)
def test_encode_is_deterministic(design):
    assert encode_design(design) == encode_design(design)


@given(designs(any_meta=True))
@settings(max_examples=25, deadline=None)
def test_clone_matches_roundtrip_and_is_independent(design):
    """A design's object copy — its image materialized in place — equals
    the JSON round trip, and editing it never reaches its source."""
    reference = copy.deepcopy(design_to_dict(design))
    clone = DesignImage.from_design(design).materialize()
    assert design_to_dict(clone) == design_to_dict(
        design_from_dict(design_to_dict(design))) == reference
    for cell in clone.cells.values():
        cell.placement = (99, 99)
    for net in clone.nets.values():
        net.sinks.append("ghost")
        for path in net.routes:
            if path is not None:
                path.append(-1)
        net.routes.append([123])
    for value in clone.metadata.values():
        if isinstance(value, (list, dict)):
            value.clear()
    clone.metadata["poison"] = True
    assert design_to_dict(design) == reference


@given(_META_VALUES)
@settings(max_examples=60, deadline=None)
def test_pack_value_roundtrip(value):
    assert unpack_value(pack_value(value)) == value


def test_pack_value_rejects_unknown_types():
    with pytest.raises(TypeError):
        pack_value(object())


def test_an_int_past_the_digit_limit_is_a_type_error():
    """An int too long for ``str`` is outside the value universe like any
    other unserializable value: ``TypeError``, not the interpreter's
    ``ValueError`` — and ``encode_design`` says which design it was."""
    with pytest.raises(TypeError, match="not codec-serializable"):
        pack_value({"x": 10**5000})
    design = Design("huge")
    design.metadata["x"] = 10**5000
    with pytest.raises(TypeError, match="design huge: metadata is not codec-serializable"):
        encode_design(design)


def test_corrupt_blob_rejected():
    design = Design("x")
    design.add_cell(Cell("a", "SLICE"))
    blob = encode_design(design)
    with pytest.raises(ValueError):
        decode_design(b"NOPE" + blob[4:])
    with pytest.raises(ValueError):
        decode_design(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        decode_design(blob + b"\x00")


# -- hostile bytes: from_bytes is the only reader of a library off disk -----


def _valid_image() -> DesignImage:
    design = Design("victim", pblock=PBlock(1, 1, 4, 4))
    design.add_cell(Cell("a", "SLICE", placement=(1, 1), luts=2, module="m0"))
    design.add_cell(Cell("b", "DSP48E2", placement=(2, 2)))
    design.add_cell(Cell("c", "SLICE"))
    design.connect("n0", "a", ["b", "c"], width=8).routes = [[5, 6, 7], None]
    design.connect("n1", None, ["a"])
    design.add_port(Port("p0", "in", "n1", tile=(1, 2), protocol="mem"))
    design.add_port(Port("p1", "out", "n0"))
    return DesignImage.from_design(design)


def _first(value):
    """Column edit: overwrite row 0 with *value*."""
    return lambda column: np.r_[value, column[1:]].astype(column.dtype)


def _swap(old, new):
    """String-table edit: replace entry *old* with *new*."""
    return lambda strings: [new if s == old else s for s in strings]


#: case -> (attribute to corrupt, edit, what the ValueError must say)
_MALFORMED = {
    "string_index_wraps_negative": ("cell_ctype", _first(-2), "column cell_ctype"),
    "string_index_past_table": ("cell_ctype", _first(999), "column cell_ctype"),
    "module_below_none": ("cell_module", _first(-2), "column cell_module"),
    "driver_below_none": ("net_driver", _first(-2), "column net_driver"),
    "cell_column_one_short": ("cell_luts", lambda c: c[:-1], "column cell_luts"),
    "net_column_one_short": ("net_width", lambda c: c[:-1], "column net_width"),
    "port_column_one_short": ("port_row", lambda c: c[:-1], "column port_row"),
    "nsinks_exceeds_flat": ("net_nsinks", _first(9), "column sink_name"),
    "nsinks_negative": ("net_nsinks", _first(-1), "column net_nsinks"),
    "nroutes_exceeds_flat": ("net_nroutes", _first(5), "column route_len"),
    "route_len_below_minus_one": ("route_len", _first(-2), "column route_len"),
    "route_len_exceeds_nodes": ("route_len", _first(4), "column route_node"),
    "ragged_byte_length": ("cell_col", lambda c: c.view(np.uint8)[:-1], "column cell_col"),
    "port_dir_code": ("port_dir", _first(2), "column port_dir"),
    "port_proto_code": ("port_proto", _first(7), "column port_proto"),
    "duplicate_cell_name": ("cell_name", lambda c: c[[0, 0, 2]], "column cell_name"),
    "duplicate_net_name": ("net_name", lambda c: c[[0, 0]], "column net_name"),
    "duplicate_port_name": ("port_name", lambda c: c[[0, 0]], "column port_name"),
    "unknown_cell_type": ("strings", _swap("DSP48E2", "NOPE"), "column cell_ctype: unknown"),
    "duplicate_string": ("strings", _swap("b", "a"), "string table"),
    "metadata_not_a_dict": ("_meta_blob", lambda _: pack_value([1, 2]), "metadata"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_image_is_a_value_error_saying_where(case):
    attr, edit, message = _MALFORMED[case]
    image = _valid_image()  # has a -1 ("none") cell_module and net_driver
    setattr(image, attr, edit(getattr(image, attr)))
    with pytest.raises(ValueError, match=message):
        DesignImage.from_bytes(image.to_bytes())


@given(designs(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_hostile_bytes_raise_value_error_or_decode_consistently(design, seed):
    """Truncate, flip and splice a valid ``.dcpb``: the reader either
    refuses with ValueError or yields an image that decodes to as many
    objects as it has rows and survives a further round trip."""
    blob = encode_design(design)
    # positions from a seeded RNG: Hypothesis' bounded integers favour 0, the magic
    rng = random.Random(seed)
    kind = rng.choice(("truncate", "flip", "splice"))
    if kind == "truncate":
        mutated = blob[: rng.randrange(len(blob))]
    elif kind == "flip":
        raw = bytearray(blob)
        for _ in range(rng.randrange(1, 4)):
            raw[rng.randrange(len(raw))] = rng.randrange(256)
        mutated = bytes(raw)
    else:
        start, stop = sorted((rng.randrange(len(blob)), rng.randrange(len(blob))))
        mutated = blob[:start] + rng.randbytes(rng.randrange(9)) + blob[stop:]
    try:
        image = DesignImage.from_bytes(mutated)
    except ValueError:
        return
    decoded = image.materialize()
    assert (len(decoded.cells), len(decoded.nets), len(decoded.ports)) == (
        len(image.cell_name), len(image.net_name), len(image.port_name)
    )
    again = decode_design(encode_design(decoded))
    # compared packed, so a metadata float flipped into NaN still equals itself
    assert pack_value(design_to_dict(again)) == pack_value(design_to_dict(decoded))


# -- database fetch ≡ relocate_reference oracle ----------------------------


@given(designs(placed_in_pblock=True), st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_fetch_matches_relocate_reference(design, anchor_pick):
    db = ComponentDatabase(device=SMALL)
    signature = ("prop", design.name)
    design.metadata["ooc"] = {"fmax_mhz": 123.0}
    db.put(signature, design)

    anchors = candidate_anchors(SMALL, design)
    assert anchors, "pblock placed on-device must have at least one anchor"
    anchor = anchors[anchor_pick % len(anchors)]

    fast = db.fetch(signature, anchor, device=SMALL)
    # oracle input through the dict codec alone, under the stamped metadata
    source = design_from_dict(design_to_dict(design))
    source.metadata = db.get(signature).metadata
    oracle = relocate_reference(source, SMALL, anchor)
    assert design_to_dict(fast) == design_to_dict(oracle)


@given(designs(placed_in_pblock=True))
@settings(max_examples=15, deadline=None)
def test_fetch_zero_offset_equals_get(design):
    db = ComponentDatabase(device=SMALL)
    signature = ("zero", design.name)
    design.metadata["ooc"] = {"fmax_mhz": 1.0}
    db.put(signature, design)
    home = (design.pblock.col0, design.pblock.row0)
    assert design_to_dict(db.fetch(signature, home, device=SMALL)) == \
        design_to_dict(db.get(signature))


@given(designs(placed_in_pblock=True))
@settings(max_examples=15, deadline=None)
def test_fetch_relocation_error_parity(design):
    db = ComponentDatabase(device=SMALL)
    signature = ("err", design.name)
    design.metadata["ooc"] = {"fmax_mhz": 1.0}
    db.put(signature, design)
    bad = (SMALL.ncols + 10, 0)  # off the east edge of the device
    with pytest.raises(RelocationError) as fast_err:
        db.fetch(signature, bad, device=SMALL)
    with pytest.raises(RelocationError) as ref_err:
        relocate_reference(db.get(signature), SMALL, bad)
    assert str(fast_err.value) == str(ref_err.value)


@given(designs(placed_in_pblock=True, any_meta=True), st.integers(0, 10**6),
       st.none() | st.text("ab0", min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_relocate_matches_reference(design, anchor_pick, instance):
    """``relocate`` ≡ ``relocate_reference`` (then ``Design.instantiate``
    under *instance*), and editing the copy never reaches its source."""
    source = copy.deepcopy(design_to_dict(design))    # the dict shares the lists
    anchors = candidate_anchors(SMALL, design)
    anchor = anchors[anchor_pick % len(anchors)]
    fast = relocate(design, SMALL, anchor, instance=instance)
    oracle = relocate_reference(design, SMALL, anchor)
    want = design_to_dict(oracle)
    if instance is not None:
        top = Design(design.name)
        top.instantiate(oracle, prefix=instance, module=instance)
        named = design_to_dict(top)
        want["cells"], want["nets"] = named["cells"], named["nets"]
        for port in want["ports"]:
            port["net"] = f"{instance}/{port['net']}"
    assert design_to_dict(fast) == want
    for cell in fast.cells.values():
        cell.placement = (99, 99)
    for net in fast.nets.values():
        net.sinks.append("ghost")
        for path in net.routes:
            if path is not None:
                path.append(-1)
        net.routes.append([123])
    for value in fast.metadata.values():
        if isinstance(value, (list, dict)):
            value.clear()
    fast.metadata["poison"] = True
    assert design_to_dict(design) == source


# -- library file format regressions -------------------------------------


def _library_file(tmp_path, device):
    from repro.cnn import group_components
    from tests.conftest import make_tiny_cnn

    comps = group_components(make_tiny_cnn(), "layer")[:1]
    lib = tmp_path / "lib"
    ComponentDatabase(device, directory=lib).build(
        comps, rom_weights=True, effort="low", seed=0, jobs=1)
    (path,) = lib.iterdir()
    return comps, lib, path


def _rebuilds(device, comps, lib) -> int:
    """Components a fresh database on *lib* had to build (warning checked)."""
    with pytest.warns(RuntimeWarning, match="library file rejected"):
        report = ComponentDatabase(device, directory=lib).build(
            comps, rom_weights=True, effort="low", seed=0, jobs=1)
    return len(report.tasks)


def test_torn_binary_blob_is_a_miss(tmp_path, small_device):
    comps, lib, path = _library_file(tmp_path, small_device)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])  # simulate a torn write
    assert _rebuilds(small_device, comps, lib) == 1
    assert path.read_bytes() == blob


def test_garbage_binary_blob_is_a_miss(tmp_path, small_device):
    comps, lib, path = _library_file(tmp_path, small_device)
    blob = path.read_bytes()
    path.write_bytes(blob[:6] + b" right magic and version, then garbage \xff\x00")
    assert _rebuilds(small_device, comps, lib) == 1
    assert path.read_bytes() == blob


def test_cache_binary_value_roundtrip_preserves_types():
    """The tagged binary value format a library file's metadata is stored in
    keeps what a JSON round trip would mangle."""
    value = {"i": 2**80, "f": 0.1, "t": (1, "two"), "b": b"\x00\x01",
             "n": None, "flag": True, "nested": {"k": [1, 2]}}
    assert unpack_value(pack_value(value)) == value
