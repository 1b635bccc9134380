"""Binary columnar design codec — the one checkpoint representation.

A :class:`DesignImage` holds a design as flat typed arrays — cell names
and ctypes interned into one string table; placements, resource counts
and flags as parallel numpy columns; net pin lists and locked routes as
offset-indexed flat arrays.  It is what the component database keeps per
signature, what :meth:`DesignImage.to_bytes` writes as a ``.dcpb`` file
and what workers ship across the process boundary: a design serializes
with a handful of ``tobytes()`` calls and *materializes* (decodes back
into live :class:`~repro.netlist.design.Design` objects) without
re-validating every cell against the library.

The image is also the unit of **relocation arithmetic**: because routed
node ids shift by ``dcol * nrows + drow`` and placements by
``(dcol, drow)``, :meth:`DesignImage.materialize` applies a relocation
as three vectorized array adds while it decodes.

The dict codec of :mod:`repro.netlist.checkpoint` is the oracle (lint
rules ORC-001..003): decode must be bit-identical to
:func:`repro.netlist.checkpoint.design_from_dict` on the same design,
which ``tests/test_property_codec.py`` asserts on random designs.
"""

from __future__ import annotations

import copy
import gc
import numbers
import pickle
import struct
from itertools import accumulate, chain, compress, count, islice, repeat

import numpy as np

from ..fabric.interconnect import node_list
from ..fabric.pblock import PBlock
from ..obs.span import incr
from .block import Block
from .cell import Cell
from .design import Design, _BlockClock
from .library import CELL_LIBRARY
from .net import Net, Port

__all__ = [
    "MAGIC",
    "CODEC_VERSION",
    "DesignImage",
    "encode_design",
    "decode_design",
    "pack_value",
    "unpack_value",
]

#: Reference implementation this fast tier is asserted bit-identical to
#: (oracle contract, lint rules ORC-001..003).
ORACLE = "repro.netlist.checkpoint.design_from_dict"

#: Leading magic of a binary design image.
MAGIC = b"RNC1"

#: Bump on incompatible layout changes; readers reject unknown versions.
CODEC_VERSION = 1

_DIR_CODE = {"in": 0, "out": 1}
_DIR_NAME = ("in", "out")
_PROTO_CODE = {"stream": 0, "mem": 1}
_PROTO_NAME = ("stream", "mem")

#: Columnar fields in serialization order: (attribute, little-endian dtype).
_COLUMNS = (
    ("cell_name", "<i4"),
    ("cell_ctype", "<i4"),
    ("cell_placed", "u1"),
    ("cell_col", "<i4"),
    ("cell_row", "<i4"),
    ("cell_locked", "u1"),
    ("cell_luts", "<i4"),
    ("cell_ffs", "<i4"),
    ("cell_depth", "<i4"),
    ("cell_seq", "u1"),
    ("cell_module", "<i4"),
    ("net_name", "<i4"),
    ("net_driver", "<i4"),
    ("net_width", "<i4"),
    ("net_clock", "u1"),
    ("net_locked", "u1"),
    ("net_nsinks", "<i4"),
    ("net_nroutes", "<i4"),
    ("sink_name", "<i4"),
    ("route_len", "<i8"),
    ("route_node", "<i8"),
    ("port_name", "<i4"),
    ("port_dir", "u1"),
    ("port_net", "<i4"),
    ("port_width", "<i4"),
    ("port_tile", "u1"),
    ("port_col", "<i4"),
    ("port_row", "<i4"),
    ("port_proto", "u1"),
)

_DTYPES = [np.dtype(dtype) for _attr, dtype in _COLUMNS]

#: Columns that index the string table -> lowest legal index (-1 = "none").
_STRING_COLUMNS = {
    "cell_name": 0, "cell_ctype": 0, "cell_module": -1,
    "net_name": 0, "net_driver": -1, "sink_name": 0,
    "port_name": 0, "port_net": 0,
}


# -- value packing ----------------------------------------------------------
#
# Metadata dicts are free-form, and the JSON oracle round-trips them by
# *deepcopy*, not by json.dumps — so tuples stay tuples and floats stay
# bit-exact.  A plain JSON side-channel would silently turn ``("clk", 3)``
# into ``["clk", 3]`` and break dict-equality against the oracle.  This
# tagged binary packer preserves exactly what deepcopy preserves for the
# JSON-ish value universe (None/bool/int/float/str/bytes/list/tuple/dict),
# and raises TypeError on anything else — the same contract json.dumps
# gives the reference codec.

_TAG_NONE = ord("N")
_TAG_TRUE = ord("T")
_TAG_FALSE = ord("F")
_TAG_INT = ord("i")
_TAG_BIGINT = ord("I")
_TAG_FLOAT = ord("f")
_TAG_STR = ord("s")
_TAG_BYTES = ord("b")
_TAG_LIST = ord("l")
_TAG_TUPLE = ord("t")
_TAG_DICT = ord("d")

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def pack_value(obj) -> bytes:
    """Serialize a JSON-ish value tree to tagged binary (tuple-preserving)."""
    out = bytearray()
    _pack(obj, out)
    return bytes(out)


def _pack(obj, out: bytearray) -> None:
    if obj is None:
        out.append(_TAG_NONE)
        return
    t = type(obj)
    if t is bool:
        out.append(_TAG_TRUE if obj else _TAG_FALSE)
        return
    if t is int:
        _pack_int(obj, out)
        return
    if t is float:
        out.append(_TAG_FLOAT)
        out += struct.pack("<d", obj)
        return
    if t is str:
        raw = obj.encode("utf-8")
        out.append(_TAG_STR)
        out += struct.pack("<I", len(raw))
        out += raw
        return
    if t is bytes or t is bytearray:
        out.append(_TAG_BYTES)
        out += struct.pack("<I", len(obj))
        out += obj
        return
    if t is list or t is tuple:
        out.append(_TAG_LIST if t is list else _TAG_TUPLE)
        out += struct.pack("<I", len(obj))
        for item in obj:
            _pack(item, out)
        return
    if t is dict:
        out.append(_TAG_DICT)
        out += struct.pack("<I", len(obj))
        for key, value in obj.items():
            _pack(key, out)
            _pack(value, out)
        return
    # Slow path: subclasses and numpy scalars.  Numeric types collapse to
    # the builtin (value-equal, same as the cache's canonical form).
    if isinstance(obj, bool):
        out.append(_TAG_TRUE if obj else _TAG_FALSE)
    elif isinstance(obj, numbers.Integral):
        _pack_int(int(obj), out)
    elif isinstance(obj, numbers.Real):
        out.append(_TAG_FLOAT)
        out += struct.pack("<d", float(obj))
    elif isinstance(obj, str):
        _pack(str(obj), out)
    elif isinstance(obj, (bytes, bytearray)):
        _pack(bytes(obj), out)
    elif isinstance(obj, list):
        _pack(list(obj), out)
    elif isinstance(obj, tuple):
        _pack(tuple(obj), out)
    elif isinstance(obj, dict):
        _pack(dict(obj), out)
    else:
        raise TypeError(
            f"object of type {type(obj).__name__} is not codec-serializable"
        )


def _pack_int(value: int, out: bytearray) -> None:
    if _I64_MIN <= value <= _I64_MAX:
        out.append(_TAG_INT)
        out += struct.pack("<q", value)
    else:
        try:
            raw = str(value).encode("ascii")
        except ValueError:                   # past the interpreter's int-to-str digit limit
            raise TypeError("int with too many digits is not codec-serializable") from None
        out.append(_TAG_BIGINT)
        out += struct.pack("<I", len(raw))
        out += raw


def unpack_value(blob: bytes):
    """Inverse of :func:`pack_value`; raises ValueError on malformed input."""
    try:
        value, off = _unpack(blob, 0)
    except RecursionError:
        raise ValueError("packed value nested too deeply") from None
    if off != len(blob):
        raise ValueError("trailing bytes after packed value")
    return value


def _need(blob: bytes, off: int, n: int) -> None:
    if off + n > len(blob):
        raise ValueError("truncated packed value")


def _unpack(blob: bytes, off: int):
    _need(blob, off, 1)
    tag = blob[off]
    off += 1
    if tag == _TAG_NONE:
        return None, off
    if tag == _TAG_TRUE:
        return True, off
    if tag == _TAG_FALSE:
        return False, off
    if tag == _TAG_INT:
        _need(blob, off, 8)
        return struct.unpack_from("<q", blob, off)[0], off + 8
    if tag == _TAG_FLOAT:
        _need(blob, off, 8)
        return struct.unpack_from("<d", blob, off)[0], off + 8
    if tag in (_TAG_STR, _TAG_BYTES, _TAG_BIGINT):
        _need(blob, off, 4)
        n = struct.unpack_from("<I", blob, off)[0]
        off += 4
        _need(blob, off, n)
        raw = blob[off : off + n]
        off += n
        if tag == _TAG_BYTES:
            return bytes(raw), off
        try:
            text = raw.decode("utf-8" if tag == _TAG_STR else "ascii")
        except UnicodeDecodeError as exc:
            raise ValueError(f"malformed packed string: {exc}") from None
        if tag == _TAG_BIGINT:
            try:
                return int(text), off
            except ValueError:
                raise ValueError("malformed packed big integer") from None
        return text, off
    if tag in (_TAG_LIST, _TAG_TUPLE):
        _need(blob, off, 4)
        n = struct.unpack_from("<I", blob, off)[0]
        off += 4
        items = []
        for _ in range(n):
            item, off = _unpack(blob, off)
            items.append(item)
        return (items if tag == _TAG_LIST else tuple(items)), off
    if tag == _TAG_DICT:
        _need(blob, off, 4)
        n = struct.unpack_from("<I", blob, off)[0]
        off += 4
        out = {}
        for _ in range(n):
            key, off = _unpack(blob, off)
            value, off = _unpack(blob, off)
            try:
                out[key] = value
            except TypeError:
                raise ValueError("unhashable packed dict key") from None
        return out, off
    raise ValueError(f"unknown value tag {tag:#x}")


# -- string tables ----------------------------------------------------------


def _pack_strings(strings: list[str]) -> tuple[bytes, np.ndarray]:
    """*strings* as the wire format holds a string table: UTF-8 bytes
    end to end, and the byte length of each."""
    table = "".join(strings)
    if table.isascii():  # one byte per character: lengths without encoding each
        raw, lens = table.encode("ascii"), map(len, strings)
    else:
        raw_strings = [s.encode("utf-8") for s in strings]
        raw, lens = b"".join(raw_strings), map(len, raw_strings)
    return raw, np.fromiter(lens, "<u4", len(strings))


def _unpack_strings(raw: bytes, lens: np.ndarray) -> list[str]:
    ends = np.cumsum(lens, dtype=np.int64).tolist()
    if raw.isascii():
        text = raw.decode("ascii")
        return [text[a:b] for a, b in zip([0, *ends], ends)]
    return [raw[a:b].decode("utf-8") for a, b in zip([0, *ends], ends)]


class _StringIndex:
    """The string table of an image under construction.

    ``dict.setdefault(s, len(index))`` for a flat design: a new string
    gets the next index, the table is the dict in insertion order.  A
    placed block's cell names and live net names are not interned one by
    one: :meth:`run` hands the whole run a block of consecutive indices
    and keeps the names as the packed bytes the block's image caches
    (:meth:`Block.packed_names`), so they are neither re-prefixed nor
    hashed per encode — provided no name of the run is in the table yet,
    which holds for instances under distinct prefixes and is checked
    against everything else.  From then on a string that is not in the
    dict is looked for in the runs before it is called new, and the
    table comes out as packed bytes; index for index it is the table the
    flattened design would produce.
    """

    def __init__(self, where) -> None:
        """*where*: the design's :meth:`~Design.block_row`."""
        self.index: dict[str, int] = {}
        self.taken = 0                       # indices handed out to runs
        self.runs: list[tuple] = []          # (loose strings before it, raw, lens)
        self.held: dict = {}                 # instance -> [block, cell base, net base]
        self.where = where
        self.heads: dict[str, list] = {}     # the table's first `seen` strings that hold
        self.seen = 0                        # a "/", by what precedes the first one

    def one(self, s: str) -> int:
        i = self.index.get(s)
        if i is None:
            i = self._held(s) if self.held else None
            if i is None:
                i = self.index[s] = len(self.index) + self.taken
        return i

    def many(self, names) -> list[int]:
        if self.held:
            return [self.one(s) for s in names]
        index = self.index
        setd = index.setdefault
        return [setd(s, len(index)) for s in names]

    def new(self, names: list) -> list[int]:
        """:meth:`many` for names that are normally all new (cell and
        net names): one C-level pass handing out consecutive indices,
        undone and redone one by one if any was not."""
        if self.held:
            return self.many(names)
        index = self.index
        start = len(index)
        ids = list(map(index.setdefault, names, count(start)))
        if len(index) - start != len(names):
            for s in names:
                if index.get(s, -1) >= start:
                    del index[s]
            ids = self.many(names)
        return ids

    def known(self, names: list) -> list[int]:
        """:meth:`many` for names that are normally all in the table
        already (net endpoints name cells)."""
        if not self.held:
            try:
                return list(map(self.index.__getitem__, names))
            except KeyError:
                pass
        return self.many(names)

    def run(self, block: Block, which: int) -> int | list[int]:
        """Indices for *block*'s cell names (*which* 0) or live net names
        (1): the first of one consecutive run over the packed names —
        unless one of them is in the table already, and then the index of
        each, one by one."""
        entry = self.held.setdefault(block.instance, [block, None, None])
        raw, lens, shared = block.packed_names(which)
        row_of = block.net_row if which else block.cell_row
        if (which == 1 and shared and entry[1] is not None) or any(
                row_of(s) is not None for s in self._under(block.prefix)):
            return self.new(block.net_names() if which else block.cell_names())
        base = entry[1 + which] = len(self.index) + self.taken
        self.taken += block.n_nets if which else block.n_cells
        self.runs.append((len(self.index), raw, lens))
        return base

    def _under(self, prefix: str) -> list[str]:
        """The strings of the table so far under a block's *prefix* —
        those that could name something of the block."""
        if prefix.find("/") != len(prefix) - 1:  # none, or more than one level
            return [s for s in self.index if s.startswith(prefix)]
        heads = self.heads
        for s in islice(self.index, self.seen, None):
            head, slash, _ = s.partition("/")
            if slash:
                heads.setdefault(head, []).append(s)
        self.seen = len(self.index)
        return heads.get(prefix[:-1], [])

    def _held(self, s: str) -> int | None:
        """Index of *s* inside a run, if that is where it is: the design
        says which block row it names (only asked for a name under the
        prefix of a block that took a run)."""
        head, slash, _ = s.partition("/")
        if None not in self.held and (not slash or head not in self.held):
            return None
        for which in (0, 1):
            found = self.where(s, which)
            entry = None if found is None else self.held.get(found[0].instance)
            if entry is not None and entry[1 + which] is not None:
                block, row = found
                return entry[1 + which] + (block.live_rank(row) if which else row)
        return None

    def table(self):
        """The finished table: a list of strings, or — with runs in it —
        the packed ``(bytes, byte lengths)`` of :func:`_pack_strings`,
        each as a list of pieces to be written one after the other."""
        loose = list(self.index)
        if not self.runs:
            return loose
        raw, loose_lens = _pack_strings(loose)            # packed once, cut at the runs
        ends = [0, *accumulate(loose_lens.tolist())]
        raw = memoryview(raw)
        raws, lens, at = [], [], 0
        for upto, run_raw, run_lens in [*self.runs, (len(loose), [], [])]:
            raws += [raw[ends[at]:ends[upto]], *run_raw]
            lens += [loose_lens[at:upto], *run_lens]
            at = upto
        return raws, lens


def _read_design(design: Design) -> tuple:
    """``(name, pblock, metadata, string table, columns)`` of *design*,
    each column as its runs of values in :data:`_COLUMNS` order — what
    :meth:`DesignImage.from_design` concatenates into an image and
    :func:`encode_design` writes out as they are."""
    pblock = design.pblock
    cell_parts = [p if type(p) is Block else list(p.values())
                  for p in design.cell_parts()]
    net_parts: list = []
    for part in design.net_parts():
        if type(part) is Block or not design.blocks:
            net_parts.append(part if type(part) is Block else list(part.values()))
            continue
        run: list = []                       # a clock net held as runs is a part of its own
        for net in part.values():
            if type(net) is _BlockClock:
                net_parts += [run, net]
                run = []
            else:
                run.append(net)
        net_parts.append(run)
    ports = list(design.ports.values())
    strings = _StringIndex(design.block_row)
    intern, one = strings.many, strings.one

    # Strings are interned column by column across the runs, in the order
    # the flattened design's objects would meet them; a placed block's
    # names take one consecutive run of indices (:meth:`_StringIndex.run`:
    # its first), its cell types and module tags are its few distinct ones.
    cn = [strings.run(p, 0) if type(p) is Block else strings.new([c.name for c in p])
          for p in cell_parts]

    def block_ctypes(block) -> np.ndarray:
        codes, table = block.kinds()
        return np.asarray(intern(table), dtype=np.int32).take(codes)

    ct = [block_ctypes(p) if type(p) is Block else intern(c.ctype for c in p)
          for p in cell_parts]
    cm = [p.module_column(one) if type(p) is Block
          else [-1 if c.module is None else one(c.module) for c in p] for p in cell_parts]
    cell_runs = [
        (_indices(names, p), ctypes,
         *(p.cell_columns() if type(p) is Block else _cell_columns(p)), modules)
        for p, names, ctypes, modules in zip(cell_parts, cn, ct, cm)
    ]

    # A block's nets name cells of the block: a cell row becomes the
    # string index its name was interned at (its row plus the first, for
    # names that took one run).
    cell_string = {p: ids if type(ids) is int else np.asarray(ids, dtype=np.int32)
                   for p, ids in zip(cell_parts, cn) if type(p) is Block}
    objects = [None if type(p) is Block else [p] if type(p) is _BlockClock else p
               for p in net_parts]
    nn = [strings.run(p, 1) if nets is None else strings.new([n.name for n in nets])
          for p, nets in zip(net_parts, objects)]
    nd = [None if nets is None else [-1 if n.driver is None else one(n.driver) for n in nets]
          for nets in objects]

    def clock_sinks(clock) -> np.ndarray:
        """A block's sequential cells are the string indices its cell
        names were interned at, picked by row; names are looked up."""
        ids = []
        for run in clock.runs():
            if type(run) is Block and run in cell_string:
                rows, cells = run.seq_rows(), _indices(cell_string[run], run)
                ids.append(cells if rows is None else cells[rows])
            else:
                names = run.seq_cell_names() if type(run) is Block else run
                ids.append(np.asarray(strings.known(names), dtype=np.int32))
        return np.concatenate(ids)

    sk = [None if nets is None else clock_sinks(p) if type(p) is _BlockClock
          else strings.known(list(chain.from_iterable(n.sinks for n in nets)))
          for p, nets in zip(net_parts, objects)]
    net_runs = []
    for p, names, drivers, sinks in zip(net_parts, nn, nd, sk):
        if type(p) is Block:
            net_runs.append(([_indices(names, p, 1)], *p.net_columns(cell_string[p])))
        else:
            width, clock, locked, nsinks, nroutes, lens, nodes = _net_columns(p)
            net_runs.append(([names], [drivers], [width], [clock], [locked], [nsinks],
                             [nroutes], [sinks], [lens], [nodes]))

    pn = [one(p.name) for p in ports]
    pd = [_DIR_CODE[p.direction] for p in ports]
    pe = [one(p.net) for p in ports]
    pw = [p.width for p in ports]
    tiles = [p.tile if p.tile else None for p in ports]
    pt = [1 if t else 0 for t in tiles]
    pc = [t[0] if t else 0 for t in tiles]
    pr = [t[1] if t else 0 for t in tiles]
    pp = [_PROTO_CODE[p.protocol] for p in ports]

    cell_columns = [list(runs) for runs in zip(*cell_runs)] or [[] for _ in range(11)]
    net_columns = [list(chain.from_iterable(runs)) for runs in zip(*net_runs)] or [
        [] for _ in range(10)]
    return (
        design.name,
        (pblock.col0, pblock.row0, pblock.col1, pblock.row1) if pblock else None,
        design.metadata,
        strings.table(),
        (*cell_columns, *net_columns, [pn], [pd], [pe], [pw], [pt], [pc], [pr], [pp]),
    )


def _indices(ids, part, which: int = 0):
    """The string indices of a run's cell (*which* 0) or net (1) names:
    *ids* as they are, or — *ids* the first of a block's one run — that
    run."""
    if type(ids) is not int:
        return ids
    return np.arange(ids, ids + (part.n_nets if which else part.n_cells), dtype=np.int32)


def _cell_columns(cells: list) -> tuple[list, ...]:
    """``cell_placed`` … ``cell_seq`` of a run of cell objects."""
    placed = [c.placement if c.placement else None for c in cells]
    return ([1 if p else 0 for p in placed], [p[0] if p else 0 for p in placed],
            [p[1] if p else 0 for p in placed], [1 if c.locked else 0 for c in cells],
            [c.luts for c in cells], [c.ffs for c in cells], [c.comb_depth for c in cells],
            [1 if c.seq else 0 for c in cells])


def _net_columns(part) -> tuple:
    """``net_width`` … ``net_nroutes``, ``route_len`` and ``route_node``
    of a run of net objects, or of a clock net held as runs (whose every
    route is ``None``)."""
    if type(part) is _BlockClock:
        n_sinks, n_routes = part.lengths()
        return ([part.width], [1 if part.is_clock else 0], [1 if part.locked else 0],
                [n_sinks], [n_routes],
                np.full(n_routes, -1, dtype=np.int64), [])
    paths = list(chain.from_iterable(n.routes for n in part))
    return ([n.width for n in part], [1 if n.is_clock else 0 for n in part],
            [1 if n.locked else 0 for n in part], [len(n.sinks) for n in part],
            [len(n.routes) for n in part], [-1 if path is None else len(path) for path in paths],
            list(chain.from_iterable(path for path in paths if path is not None)))


def _serialize(name: str, pblock, meta_blob: bytes, strings: tuple, columns) -> bytes:
    """The wire format: header, packed metadata, the string table as
    ``(UTF-8 bytes, byte lengths)`` (*strings*: each as a list of
    pieces), then per :data:`_COLUMNS` field its byte count and its runs
    of values, joined straight out of the arrays' buffers."""
    raw_name = name.encode("utf-8")
    raws, lens = strings
    out = [
        MAGIC, struct.pack("<H", CODEC_VERSION),
        struct.pack("<I", len(raw_name)), raw_name,
        struct.pack("<B", 1 if pblock else 0),
        struct.pack("<4i", *pblock) if pblock else b"",
        struct.pack("<I", len(meta_blob)), meta_blob,
        struct.pack("<I", sum(map(len, lens))), *lens, *raws,
    ]
    for dtype, runs in zip(_DTYPES, columns):
        runs = [values if type(values) is np.ndarray and values.dtype == dtype
                and values.flags.c_contiguous else np.ascontiguousarray(values, dtype=dtype)
                for values in runs]
        out += [struct.pack("<Q", sum(run.nbytes for run in runs)), *runs]
    return b"".join(out)


def _unserializable(name: str) -> TypeError:
    return TypeError(f"design {name}: metadata is not codec-serializable")


def _names(image) -> tuple[list[str], list[str]]:
    sget = image.strings.__getitem__
    return (list(map(sget, image.cell_name.tolist())),
            list(map(sget, image.net_name.tolist())))


def _resolved(image) -> tuple[list, list, list, list]:
    """The string columns a copy's objects hold besides the names, resolved
    through the table once and kept per image: cell ``ctype``, cell
    ``module`` and net ``driver`` (``None`` for -1), and sink names —
    lists of the table's own strings, 8 bytes an entry.  Nothing else of
    a copy is kept: its rows are built from the columns per call."""
    strings = image.strings
    sget = strings.__getitem__
    either = [*strings, None]                # index -1 picks the None
    return (list(map(sget, image.cell_ctype.tolist())),
            list(map(either.__getitem__, image.cell_module.tolist())),
            list(map(either.__getitem__, image.net_driver.tolist())),
            list(map(sget, image.sink_name.tolist())))


# -- the columnar image -----------------------------------------------------


class DesignImage:
    """Immutable columnar snapshot of one design.

    Build it once (from a live design or from :meth:`to_bytes` output),
    then :meth:`materialize` fresh deep copies — optionally relocated —
    as many times as needed.  The arrays are never mutated after
    construction; relocation arithmetic produces shifted copies.

    Interning uses ``dict.setdefault(s, len(index))``: a new string gets
    the dict's current size as its index, so the table is just
    ``list(index)`` in insertion order and the hot constructors never
    pay a method call per string.
    """

    __slots__ = (
        "name",
        "pblock",
        "_strings",
        "_packed",
        "_meta_blob",
        "_meta_obj",
        "_derived",
    ) + tuple(col for col, _ in _COLUMNS)

    @property
    def strings(self) -> list[str]:
        """The string table.  An image encoded from placed blocks holds
        it as the packed bytes it was assembled from (what
        :meth:`to_bytes` writes) and decodes it here, once, if asked."""
        if self._strings is None:
            self._strings = _unpack_strings(*self._packed)
        return self._strings

    @strings.setter
    def strings(self, table: list[str]) -> None:
        self._strings, self._packed = table, None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_design(cls, design: Design) -> "DesignImage":
        """Snapshot a live design (no intermediate dict, no metadata copy).

        Walks the design as ordered runs (:meth:`Design.cell_parts` /
        :meth:`Design.net_parts`): a run of objects is read attribute by
        attribute, a placed block hands over its columns — shifted, its
        indices re-based, removed nets dropped — and neither a cell nor a
        net is built to be read.  Strings are interned column by column
        across all runs, so the table (and every byte of
        :meth:`to_bytes`) is what the flattened design would produce.
        """
        return cls._assemble(*_read_design(design))

    @classmethod
    def _assemble(cls, name, pblock, metadata, strings, columns):
        """*strings*: the table as a list, or packed
        (:meth:`_StringIndex.table`); *columns*: per :data:`_COLUMNS`
        field, its runs of values."""
        img = object.__new__(cls)
        img.name = name
        img.pblock = pblock
        img._strings, img._packed = (strings, None) if type(strings) is list else (
            None, (b"".join(strings[0]), np.concatenate(strings[1])))
        img._derived = {}
        img._set_metadata(metadata)
        for (attr, dtype), runs in zip(_COLUMNS, columns):
            runs = [np.asarray(values, dtype=dtype) for values in runs]
            setattr(img, attr, runs[0] if len(runs) == 1 else
                    np.concatenate(runs) if runs else np.zeros(0, dtype=dtype))
        return img

    def _set_metadata(self, metadata: dict) -> None:
        try:
            self._meta_blob = pack_value(metadata)
            self._meta_obj = None
        except TypeError:
            # Metadata holds objects outside the codec's value universe.
            # Keep a private deep copy so in-memory templating still
            # works; to_bytes() raises, as json.dumps would on the dict.
            self._meta_blob = None
            self._meta_obj = copy.deepcopy(metadata)

    def with_metadata(self, metadata: dict) -> "DesignImage":
        """The same design under *metadata*; every column is shared (and
        what was derived from the columns so far)."""
        img = copy.copy(self)
        img._derived = {k: v for k, v in self._derived.items() if k != "metadata"}
        img._set_metadata(metadata)
        return img

    # -- wire format ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the image (deterministic: same design, same bytes)."""
        if self._meta_blob is None:
            raise _unserializable(self.name)
        raw, lens = self._packed or _pack_strings(self._strings)
        blob = _serialize(self.name, self.pblock, self._meta_blob, ([raw], [lens]),
                          [[column] for column in self.columns()])
        incr("codec.encode")
        return blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DesignImage":
        """Parse :meth:`to_bytes` output; raises ValueError when malformed.

        The blob is outside input: every invariant :meth:`materialize`
        relies on is checked here, once, so a torn or edited file never
        surfaces as an ``IndexError`` or a dropped row at fetch time.
        """
        _need(blob, 0, 6)
        if blob[:4] != MAGIC:
            raise ValueError("not a binary design image (bad magic)")
        version = struct.unpack_from("<H", blob, 4)[0]
        if version != CODEC_VERSION:
            raise ValueError(f"unsupported binary codec version {version}")
        off = 6
        img = object.__new__(cls)
        img._derived = {}
        _need(blob, off, 4)
        n = struct.unpack_from("<I", blob, off)[0]
        off += 4
        _need(blob, off, n)
        img.name = blob[off : off + n].decode("utf-8")
        off += n
        _need(blob, off, 1)
        has_pblock = blob[off]
        off += 1
        if has_pblock:
            _need(blob, off, 16)
            img.pblock = struct.unpack_from("<4i", blob, off)
            off += 16
        else:
            img.pblock = None
        _need(blob, off, 4)
        n = struct.unpack_from("<I", blob, off)[0]
        off += 4
        _need(blob, off, n)
        img._meta_blob = bytes(blob[off : off + n])
        img._meta_obj = None
        off += n
        _need(blob, off, 4)
        count = struct.unpack_from("<I", blob, off)[0]
        off += 4
        _need(blob, off, 4 * count)
        lens = struct.unpack_from(f"<{count}I", blob, off) if count else ()
        off += 4 * count
        strings = []
        for ln in lens:
            _need(blob, off, ln)
            strings.append(blob[off : off + ln].decode("utf-8"))
            off += ln
        img.strings = strings
        for attr, dtype in _COLUMNS:
            _need(blob, off, 8)
            nbytes = struct.unpack_from("<Q", blob, off)[0]
            off += 8
            _need(blob, off, nbytes)
            itemsize = np.dtype(dtype).itemsize
            if nbytes % itemsize:
                raise ValueError(f"column {attr}: {nbytes} bytes, item size {itemsize}")
            setattr(img, attr, np.frombuffer(blob, dtype, nbytes // itemsize, off))
            off += nbytes
        if off != len(blob):
            raise ValueError("trailing bytes after binary design image")
        img._validate()
        incr("codec.decode")
        return img

    def _validate(self) -> None:
        """Cross-column invariants of a parsed image (vectorised, once)."""

        def check(ok, attr: str, why: str) -> None:
            if not ok:
                raise ValueError(f"column {attr}: {why}")

        meta = unpack_value(self._meta_blob)
        if not isinstance(meta, dict):
            raise ValueError("image metadata is not a dict")
        self._derived["metadata"] = pickle.dumps(meta, 5)   # parsed here: keep it
        if self.pblock is not None:
            PBlock(*self.pblock)  # raises on a degenerate rectangle
        strings = self.strings
        if len(set(strings)) != len(strings):
            raise ValueError("string table holds duplicate entries")
        for names in ("cell_name", "net_name", "port_name"):
            rows = len(getattr(self, names))
            for attr, _ in _COLUMNS:
                if attr.startswith(names[:-4]):
                    n = len(getattr(self, attr))
                    check(n == rows, attr, f"{n} rows, {names} has {rows}")
            check(len(np.unique(getattr(self, names))) == rows, names, "duplicate names")
        for attr, low in _STRING_COLUMNS.items():
            col = getattr(self, attr)
            check(not col.size or (col.min() >= low and col.max() < len(strings)),
                  attr, "string index out of range")
        for index in np.unique(self.cell_ctype).tolist():
            check(strings[index] in CELL_LIBRARY, "cell_ctype",
                  f"unknown cell type {strings[index]!r}")
        for attr, codes in (("port_dir", _DIR_NAME), ("port_proto", _PROTO_NAME)):
            col = getattr(self, attr)
            check(not col.size or col.max() < len(codes), attr, "code out of range")
        lens = self.route_len
        check(not lens.size or lens.min() >= -1, "route_len", "length below -1")
        for flat, counts, total in (
            ("sink_name", "net_nsinks", self.net_nsinks),
            ("route_len", "net_nroutes", self.net_nroutes),
            ("route_node", "route_len", lens[lens > 0]),
        ):
            check(not total.size or total.min() >= 0, counts, "negative count")
            n, want = len(getattr(self, flat)), int(total.sum(dtype=np.int64))
            check(n == want, flat, f"{n} entries, {counts} sums to {want}")

    # -- views ------------------------------------------------------------

    def columns(self) -> list[np.ndarray]:
        """The typed columns, in serialization order."""
        return [getattr(self, attr) for attr, _ in _COLUMNS]

    def metadata(self) -> dict:
        """Fresh metadata object (the codec's deep copy).

        The packed blob is parsed once per image; what is kept is the
        parsed tree as a pickle — bytes, and a fresh copy of it is one
        C-level load where :func:`unpack_value` walks every node (the
        value universe of the two is the same: tuples stay tuples,
        floats stay bit-exact)."""
        if self._meta_blob is None:
            return copy.deepcopy(self._meta_obj)
        return pickle.loads(self.derived(
            "metadata", lambda image: pickle.dumps(unpack_value(image._meta_blob), 5)))

    def used_column_offsets(self) -> dict[int, int]:
        """Relative column offset -> tile-type code used by placed cells.

        Computed once per image (the template is immutable) — the
        per-fetch relocation validation reads the cached dict.
        """
        def build(image) -> dict[int, int]:
            from ..fabric.device import TILE_FOR_CELL

            col0 = image.pblock[0] if image.pblock else 0
            strings = image.strings
            used: dict[int, int] = {}
            placed = image.cell_placed.tolist()
            cols = image.cell_col.tolist()
            ctypes = image.cell_ctype.tolist()
            for i, flag in enumerate(placed):
                if flag:
                    used[cols[i] - col0] = TILE_FOR_CELL[strings[ctypes[i]]]
            return used

        return self.derived("used_offsets", build)

    def relative_sites(self) -> np.ndarray:
        """``(n, 2)`` int64 array of placed-cell sites, pblock-relative."""
        col0, row0 = self.pblock[:2] if self.pblock else (0, 0)
        placed = self.cell_placed.astype(bool)
        return np.stack(
            [self.cell_col[placed] - col0, self.cell_row[placed] - row0], axis=1
        ).astype(np.int64)

    def port_tiles(self) -> dict[str, tuple[int, int]]:
        """Port name -> partition-pin tile, for the ports that have one."""
        strings = self.strings
        return {
            strings[name]: (col, row)
            for name, tiled, col, row in zip(
                self.port_name.tolist(), self.port_tile.tolist(),
                self.port_col.tolist(), self.port_row.tolist(),
            )
            if tiled
        }

    # -- materialization --------------------------------------------------

    def names(self) -> tuple[list[str], list[str]]:
        """Every cell name and every net name, in row order, as the
        table's own strings (kept per image)."""
        return self.derived("names", _names)

    def _decoded_ports(self):
        """The port rows of a copy, resolved and kept per image: what
        :meth:`frame` needs of the columns."""
        def build(image):
            sget = image.strings.__getitem__
            tiles0 = list(zip(image.port_col.tolist(), image.port_row.tolist()))
            untiled_idx = [i for i, flag in enumerate(image.port_tile.tolist()) if not flag]
            for i in untiled_idx:
                tiles0[i] = None
            port_rows = list(zip(
                list(map(sget, image.port_name.tolist())),
                [_DIR_NAME[i] for i in image.port_dir.tolist()],
                list(map(sget, image.port_net.tolist())),
                image.port_width.tolist(),
                [_PROTO_NAME[i] for i in image.port_proto.tolist()],
            ))
            return port_rows, tiles0, untiled_idx

        return self.derived("ports", build)

    def derived(self, key, build):
        """``build(self)``, computed once per image and kept under *key*
        — a name, or a tuple of a name and whatever else the artefact
        depends on (an instance prefix, the device's row count, the I/O
        columns under the routes).

        For artefacts that are functions of the (immutable) columns alone
        — name indexes, compiled timing rows, route node pairs — so every
        placed instance of the image, at any shift, shares them.  Keep
        them compact: they live as long as the database record does.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(self)
            return value

    def materialize(
        self, dcol: int = 0, drow: int = 0, nrows: int = 0, *,
        instance: str | None = None,
    ) -> Design:
        """Fresh :class:`Design`, shifted by ``(dcol, drow)``.

        With a shift, placements, partition-pin tiles and the pblock move
        by ``(dcol, drow)``, routed node ids by ``dcol * nrows + drow``
        (*nrows* is the device height), and the ``clk_src`` / ``ooc``
        metadata records are fixed up — exactly the transform
        :func:`repro.rapidwright.module.relocate_reference` applies.
        Bit-identical to the JSON oracle by the codec property tests.

        *instance* materializes the design as that instance of a larger
        one: every cell and net name (and every reference to one) gets
        the ``"{instance}/"`` prefix and every cell the ``module`` tag
        *instance* — what :meth:`Design.instantiate` produces by cloning,
        built directly so :meth:`Design.adopt` can take the objects as
        they are.  Port names stay bare.

        :meth:`frame` and :meth:`objects` are the two halves: the first
        is all a caller needs to place and stitch the copy, the second is
        what a block-backed design defers until someone asks for a cell.
        """
        design = self.frame(dcol, drow, instance=instance)
        design.cells, design.nets = self.objects(dcol, drow, nrows, instance=instance)
        return design

    def frame(self, dcol: int = 0, drow: int = 0, *, instance: str | None = None) -> Design:
        """The copy's ``name``, ``pblock``, ``metadata`` and ``ports`` —
        a :class:`Design` with no ``cells`` / ``nets`` set yet."""
        design = Design.__new__(Design)
        design.name = self.name
        if self.pblock is None:
            design.pblock = None
        else:
            c0, r0, c1, r1 = self.pblock
            design.pblock = PBlock(c0 + dcol, r0 + drow, c1 + dcol, r1 + drow)
        meta = self.metadata()
        if dcol or drow:
            if "clk_src" in meta:
                c, r = meta["clk_src"]
                meta["clk_src"] = (c + dcol, r + drow)
            if "ooc" in meta:
                pb = design.pblock
                meta["ooc"]["pblock"] = [pb.col0, pb.row0, pb.col1, pb.row1]
        design.metadata = meta

        port_rows, tiles, untiled_idx = self._decoded_ports()
        if dcol or drow:
            tiles = list(zip((self.port_col + dcol).tolist(),
                             (self.port_row + drow).tolist()))
            for i in untiled_idx:
                tiles[i] = None
        prefix = "" if instance is None else f"{instance}/"
        new = object.__new__
        ports: dict[str, Port] = {}
        for (name, direction, net_name, width, proto), tile in zip(port_rows, tiles):
            port = new(Port)
            port.name = name
            port.direction = direction
            port.net = prefix + net_name
            port.width = width
            port.tile = tile
            port.protocol = proto
            ports[name] = port
        design.ports = ports
        return design

    def cell_of_string(self) -> np.ndarray:
        """Cell row named by each string-table entry (``-1``: none)."""
        def build(image):
            row_of = np.full(len(image.strings), -1, dtype=np.int32)
            row_of[image.cell_name] = np.arange(len(image.cell_name))
            return row_of

        return self.derived("cell_of_string", build)

    def objects(
        self, dcol: int = 0, drow: int = 0, nrows: int = 0, *,
        instance: str | None = None, live=None,
    ) -> tuple[dict[str, Cell], dict[str, Net]]:
        """The copy's ``cells`` and ``nets`` dicts, freshly built.

        *live* (one truth value per net row) leaves out the nets a
        block-backed design has since removed.  Nothing is held twice:
        under an *instance* prefix every net endpoint is the very string
        object that names its cell, not a second concatenation of it,
        and every route holds one int object per distinct routing node
        (:func:`~repro.fabric.interconnect.node_list`).
        """
        # Tens of thousands of containers and not one of them garbage: the
        # cyclic collector would run a few hundred passes over them (more
        # than the construction itself costs) and find nothing.
        collecting = gc.isenabled()
        gc.disable()
        try:
            cells, nets = self._objects(dcol, drow, nrows, instance, live)
        finally:
            if collecting:
                gc.enable()
        incr("codec.materialize")
        return cells, nets

    def _objects(self, dcol, drow, nrows, instance, live):
        # One pass from the columns: the per-image entries hold strings
        # only, every container below is built for this copy, and
        # relocation is an add on the arrays before they become lists.
        cell_names, net_names = self.names()
        ctypes, modules, drivers, sinks = self.derived("resolved", _resolved)
        cols, rows, nodes = self.cell_col, self.cell_row, self.route_node
        if dcol or drow:
            cols, rows, nodes = cols + dcol, rows + drow, nodes + (dcol * nrows + drow)
        placements = list(zip(cols.tolist(), rows.tolist()))
        for i in np.flatnonzero(self.cell_placed == 0).tolist():
            placements[i] = None
        nodes = node_list(nodes)
        ends = np.cumsum(np.maximum(self.route_len, 0)).tolist()
        routes = [nodes[a:b] for a, b in zip([0, *ends], ends)]
        for i in np.flatnonzero(self.route_len < 0).tolist():
            routes[i] = None

        if instance is not None:
            # Every endpoint naming a cell of the image is that cell's
            # (prefixed) name object; any other is prefixed on its own.
            prefix = f"{instance}/"
            cell_names = [prefix + name for name in cell_names]
            net_names = [prefix + name for name in net_names]
            modules = repeat(instance)
            named = [*cell_names, None]      # row -1 (no such cell) picks the None
            row_of = self.cell_of_string()
            driver = self.net_driver
            drivers = [cell or (None if bare is None else prefix + bare) for cell, bare in zip(
                map(named.__getitem__, np.where(driver >= 0, row_of[driver], -1).tolist()),
                drivers)]
            sinks = [cell or prefix + bare for cell, bare in zip(
                map(named.__getitem__, row_of[self.sink_name].tolist()), sinks)]

        new = object.__new__
        cells: dict[str, Cell] = {}
        for name, ctype, placement, locked, luts, ffs, depth, seq, module in zip(
                cell_names, ctypes, placements,
                self.cell_locked.astype(bool).tolist(), self.cell_luts.tolist(),
                self.cell_ffs.tolist(), self.cell_depth.tolist(),
                self.cell_seq.astype(bool).tolist(), modules):
            cell = new(Cell)
            cell.name = name
            cell.ctype = ctype
            cell.placement = placement
            cell.locked = locked
            cell.luts = luts
            cell.ffs = ffs
            cell.comb_depth = depth
            cell.seq = seq
            cell.module = module
            cells[name] = cell

        sink_ends = np.cumsum(self.net_nsinks).tolist()
        route_ends = np.cumsum(self.net_nroutes).tolist()
        net_rows = zip(net_names, drivers, self.net_width.tolist(),
                       self.net_clock.astype(bool).tolist(), self.net_locked.astype(bool).tolist(),
                       [0, *sink_ends], sink_ends, [0, *route_ends], route_ends)
        if live is not None:
            net_rows = compress(net_rows, live)
        nets: dict[str, Net] = {}
        for name, driver, width, is_clock, locked, s0, s1, r0, r1 in net_rows:
            net = new(Net)
            net.name = name
            net.driver = driver
            net.sinks = sinks[s0:s1]
            net.routes = routes[r0:r1]
            net.width = width
            net.is_clock = is_clock
            net.locked = locked
            nets[name] = net
        return cells, nets


# -- convenience API --------------------------------------------------------


def encode_design(design: Design) -> bytes:
    """Design -> binary image bytes (no intermediate dict).

    ``DesignImage.from_design(design).to_bytes()`` without the image in
    between: the runs of each column — a placed block's, the glue's, see
    :meth:`DesignImage.from_design` — are written out as they are, not
    concatenated first.  A block-backed design stays block-backed; the
    bytes are those of the flattened design.
    """
    name, pblock, metadata, strings, columns = _read_design(design)
    try:
        meta_blob = pack_value(metadata)
    except TypeError:
        raise _unserializable(name) from None
    if type(strings) is list:
        raw, lens = _pack_strings(strings)
        strings = [raw], [lens]
    blob = _serialize(name, pblock, meta_blob, strings, columns)
    incr("codec.encode")
    return blob


def decode_design(blob: bytes) -> Design:
    """Binary image bytes -> fresh design (inverse of :func:`encode_design`)."""
    return DesignImage.from_bytes(blob).materialize()
