"""Dalvik executable (DEX) parsing and opcode-frequency extraction.

Parses the DEX container natively (no external disassembler) and counts
how often each of the 256 opcode bytes occurs in the instruction
streams of the code items that the classes' methods name.  Only the
primary instruction stream is walked; debug info, annotations, and
try/catch tables are ignored, and switch / fill-array payload blocks
are skipped without being counted.

The input is treated as adversarial:

- Each distinct code item counts once, however many methods or
  class_defs name it, so aliasing cannot inflate the counts.
- Code items must start after the header, end inside the buffer and
  overlap no other code item.  The units walked are then at most half
  the file, and time is linear in file size.
- A class_data item's declared field and method counts are checked
  against the ULEB128 values left in the buffer before anything is
  sized from them.

``parse_dex`` reads the ``class_data_off`` column of the class_def
table as one array, with no Python object per class.
``opcode_histogram`` works on the whole file at once with numpy.  It
decodes every class_data ULEB128 from the positions of the terminator
bytes (a few 8-byte entries per byte of the class_data span), then
reads the code units in blocks of ``_BLOCK_UNITS``, so the walk's
memory is that of one block (well under 1 MB) whatever the method
sizes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DexParseError

HEADER_SIZE = 0x70
ENDIAN_TAG = 0x12345678
_MAGIC_PREFIX = b"dex\n"
_SUPPORTED_VERSIONS = range(35, 41)

# Payload pseudo-instruction identifiers (full 16-bit code unit).
PACKED_SWITCH_IDENT = 0x0100
SPARSE_SWITCH_IDENT = 0x0200
FILL_ARRAY_IDENT = 0x0300

# Instruction formats per opcode range, from the Dalvik bytecode format
# tables.  The leading digit of a format name is the instruction width in
# 16-bit code units.  Ranges not listed are unused opcode values.
_FORMAT_RANGES = (
    (0x00, 0x00, "10x"),
    (0x01, 0x01, "12x"),
    (0x02, 0x02, "22x"),
    (0x03, 0x03, "32x"),
    (0x04, 0x04, "12x"),
    (0x05, 0x05, "22x"),
    (0x06, 0x06, "32x"),
    (0x07, 0x07, "12x"),
    (0x08, 0x08, "22x"),
    (0x09, 0x09, "32x"),
    (0x0A, 0x0D, "11x"),
    (0x0E, 0x0E, "10x"),
    (0x0F, 0x11, "11x"),
    (0x12, 0x12, "11n"),
    (0x13, 0x13, "21s"),
    (0x14, 0x14, "31i"),
    (0x15, 0x15, "21h"),
    (0x16, 0x16, "21s"),
    (0x17, 0x17, "31i"),
    (0x18, 0x18, "51l"),
    (0x19, 0x19, "21h"),
    (0x1A, 0x1A, "21c"),
    (0x1B, 0x1B, "31c"),
    (0x1C, 0x1C, "21c"),
    (0x1D, 0x1E, "11x"),
    (0x1F, 0x1F, "21c"),
    (0x20, 0x20, "22c"),
    (0x21, 0x21, "12x"),
    (0x22, 0x22, "21c"),
    (0x23, 0x23, "22c"),
    (0x24, 0x24, "35c"),
    (0x25, 0x25, "3rc"),
    (0x26, 0x26, "31t"),
    (0x27, 0x27, "11x"),
    (0x28, 0x28, "10t"),
    (0x29, 0x29, "20t"),
    (0x2A, 0x2A, "30t"),
    (0x2B, 0x2C, "31t"),
    (0x2D, 0x31, "23x"),
    (0x32, 0x37, "22t"),
    (0x38, 0x3D, "21t"),
    (0x44, 0x51, "23x"),
    (0x52, 0x5F, "22c"),
    (0x60, 0x6D, "21c"),
    (0x6E, 0x72, "35c"),
    (0x74, 0x78, "3rc"),
    (0x7B, 0x8F, "12x"),
    (0x90, 0xAF, "23x"),
    (0xB0, 0xCF, "12x"),
    (0xD0, 0xD7, "22s"),
    (0xD8, 0xE2, "22b"),
    (0xFA, 0xFA, "45cc"),
    (0xFB, 0xFB, "4rcc"),
    (0xFC, 0xFC, "35c"),
    (0xFD, 0xFD, "3rc"),
    (0xFE, 0xFF, "21c"),
)


@dataclass(frozen=True)
class DexHeader:
    checksum: int
    signature: bytes
    file_size: int
    header_size: int
    endian_tag: int
    link_size: int
    link_off: int
    map_off: int
    string_ids_size: int
    string_ids_off: int
    type_ids_size: int
    type_ids_off: int
    proto_ids_size: int
    proto_ids_off: int
    field_ids_size: int
    field_ids_off: int
    method_ids_size: int
    method_ids_off: int
    class_defs_size: int
    class_defs_off: int
    data_size: int
    data_off: int


@dataclass(frozen=True)
class DexFile:
    version: int
    header: DexHeader
    # class_data_off of each class_def, in table order.  It is read from
    # ``data``, so comparisons leave it out.
    class_data_offs: np.ndarray = field(repr=False, compare=False)
    data: bytes = field(repr=False)


@dataclass(frozen=True)
class OpcodeHistogram:
    """Counts of each of the 256 opcode bytes, plus their sum."""

    counts: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if len(self.counts) != 256:
            raise ValueError(f"expected 256 opcode columns, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative opcode count")
        if self.total != sum(self.counts):
            raise ValueError("total does not equal the sum of counts")

    @classmethod
    def from_counts(cls, counts) -> "OpcodeHistogram":
        counts = tuple(int(c) for c in counts)
        return cls(counts=counts, total=sum(counts))

    def __add__(self, other: "OpcodeHistogram") -> "OpcodeHistogram":
        merged = tuple(a + b for a, b in zip(self.counts, other.counts))
        return OpcodeHistogram(counts=merged, total=self.total + other.total)


def _check_magic(data: bytes) -> int:
    if data[:4] != _MAGIC_PREFIX or len(data) < 8 or data[7] != 0:
        raise DexParseError("bad magic: not a DEX file")
    try:
        version = int(data[4:7].decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        raise DexParseError("bad magic: unreadable version digits") from None
    if version not in _SUPPORTED_VERSIONS:
        raise DexParseError(f"bad magic: unsupported DEX version {version:03d}")
    return version


def _check_section(name: str, off: int, count: int, item_size: int, limit: int) -> None:
    if count == 0:
        return
    if off < HEADER_SIZE or off + count * item_size > limit:
        raise DexParseError(
            f"{name} section (offset {off:#x}, {count} items) is out of bounds"
        )


def parse_dex(data: bytes) -> DexFile:
    """Parse and validate a DEX buffer.

    Checks the magic, header geometry, and that every table the walker
    needs lies inside the buffer.  The adler32 checksum is not checked:
    real-world samples often carry stale checksums, and they parse.
    """
    version = _check_magic(data)
    if len(data) < HEADER_SIZE:
        raise DexParseError(
            f"truncated header: {len(data)} bytes, need {HEADER_SIZE:#x}"
        )
    fields = struct.unpack_from("<I20s20I", data, 8)
    header = DexHeader(*fields)

    if header.header_size != HEADER_SIZE:
        raise DexParseError(f"header_size {header.header_size:#x}, expected 0x70")
    if header.endian_tag != ENDIAN_TAG:
        raise DexParseError(f"endian_tag {header.endian_tag:#x} not supported")
    if header.file_size < HEADER_SIZE:
        raise DexParseError(f"file_size {header.file_size} smaller than the header")
    if header.file_size > len(data):
        raise DexParseError(
            f"truncated file: header declares {header.file_size} bytes, "
            f"buffer holds {len(data)}"
        )
    limit = header.file_size
    _check_section("string_ids", header.string_ids_off, header.string_ids_size, 4, limit)
    _check_section("type_ids", header.type_ids_off, header.type_ids_size, 4, limit)
    _check_section("proto_ids", header.proto_ids_off, header.proto_ids_size, 12, limit)
    _check_section("field_ids", header.field_ids_off, header.field_ids_size, 8, limit)
    _check_section("method_ids", header.method_ids_off, header.method_ids_size, 8, limit)
    _check_section("class_defs", header.class_defs_off, header.class_defs_size, 32, limit)
    if header.data_size and header.data_off + header.data_size > limit:
        raise DexParseError("data section is out of bounds")
    if header.map_off and header.map_off >= limit:
        raise DexParseError("map_off is out of bounds")

    # class_data_off is the seventh of a class_def's eight uint32 fields.
    # An empty table's offset is left unchecked, so it is not read.
    n = header.class_defs_size
    table = np.frombuffer(data, "<u4", count=8 * n, offset=header.class_defs_off if n else 0)
    class_data_offs = table.reshape(n, 8)[:, 6].astype(np.int64)
    return DexFile(version=version, header=header, class_data_offs=class_data_offs, data=data)


# --- Whole-file vectorised walk -------------------------------------------------

# Code units gathered per block of the walk.  Every array the walk holds
# is about this long, so its memory does not grow with method size.
_BLOCK_UNITS = 1 << 14
# Rounds of lockstep stepping per block, one instruction a round.
# Chains still unfinished after them (long methods) are finished by
# pointer doubling.
_LOCKSTEP_ROUNDS = 128


def _unit_widths() -> np.ndarray:
    by_opcode = np.zeros(256, dtype=np.int8)
    for lo, hi, fmt in _FORMAT_RANGES:
        by_opcode[lo : hi + 1] = int(fmt[0])
    widths = np.tile(by_opcode, 256)
    widths[[PACKED_SWITCH_IDENT, SPARSE_SWITCH_IDENT, FILL_ARRAY_IDENT]] = -1
    return widths


# Width of the instruction each 16-bit code unit starts, by its low
# byte: 0 for an unused opcode, -1 for a payload identifier.
_UNIT_WIDTHS = _unit_widths()
# Width given to a payload whose header runs past its code item.
_TRUNCATED = 1 << 62
_PAYLOAD_NAMES = {
    PACKED_SWITCH_IDENT: "packed-switch",
    SPARSE_SWITCH_IDENT: "sparse-switch",
    FILL_ARRAY_IDENT: "fill-array-data",
}

# Why a class_data item fails.
_CD_OUT_OF_BOUNDS, _CD_SHORT, _CD_LONG_ULEB, _CD_OVERSIZED = 1, 2, 3, 4
# Why a code item fails.
_ITEM_OUT_OF_BOUNDS, _ITEM_PAST_END, _ITEM_OVERLAP, _ITEM_BAD_CODE = 1, 2, 3, 4


def _uleb_values(u8: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Values of the ULEB128s spanning bytes ``begin..end`` (at most 5 each)."""
    value = np.zeros(begin.shape, dtype=np.int64)
    for i in range(5):
        pos = begin + i
        take = pos <= end
        value[take] |= (u8[pos[take]].astype(np.int64) & 0x7F) << (7 * i)
    return value


class _ClassData:
    """Every class_data item of a file, decoded at once.

    A ULEB128 ends at its first byte below 0x80 (a terminator), so the
    k-th value after a start ends at the k-th terminator at or after it.
    ``term`` holds the terminator positions of the class_data span.  A
    class's values take terminators ``first[c] .. end[c] - 1``; its
    methods' code_off values take every third of them from
    ``code_first[c]``.
    """

    def __init__(self, u8: np.ndarray, starts: np.ndarray):
        n = starts.size
        self.u8, self.starts = u8, starts
        self.reason = np.zeros(n, dtype=np.int8)
        self.first, self.end, self.code_first, self.fields, self.methods = (
            np.zeros(n, dtype=np.int64) for _ in range(5))

        self.reason[starts >= u8.size] = _CD_OUT_OF_BOUNDS
        k = np.flatnonzero((starts != 0) & (self.reason == 0))
        lo = int(starts[k].min()) if k.size else u8.size
        self.term = np.flatnonzero(u8[lo:] < 0x80)
        self.term += lo
        nt = self.term.size
        # long_upto[j]: ULEBs ending at term[1..j], each begun right after
        # the previous terminator, that exceed 5 bytes.
        long_upto = np.zeros(max(nt, 1), dtype=np.intp)
        np.cumsum(np.diff(self.term) > 5, out=long_upto[1:])

        j0 = np.searchsorted(self.term, starts[k])
        self.first[k], self.end[k] = j0, j0 + 4
        k, j0 = self._fail(k, j0, j0 + 4 > nt, _CD_SHORT)
        s = starts[k]
        long_head = (self.term[j0] - s >= 5) | (long_upto[j0 + 3] > long_upto[j0])
        k, j0 = self._fail(k, j0, long_head, _CD_LONG_ULEB)

        ends = self.term[j0[:, None] + np.arange(4)]
        begins = np.column_stack((starts[k], ends[:, :3] + 1))
        head = _uleb_values(u8, begins, ends)
        fields = head[:, 0] + head[:, 1]
        methods = head[:, 2] + head[:, 3]
        end = j0 + 4 + 2 * fields + 3 * methods
        self.fields[k], self.methods[k], self.end[k] = fields, methods, end
        self.code_first[k] = j0 + 6 + 2 * fields
        # Counts are checked against the terminators left before anything
        # is sized from them.
        k, j0 = self._fail(k, j0, end > nt, _CD_OVERSIZED)
        long_body = long_upto[self.end[k] - 1] > long_upto[j0 + 3]
        k, _ = self._fail(k, j0, long_body, _CD_LONG_ULEB)
        self.ok = k

    def _fail(self, k, j0, bad, reason):
        self.reason[k[bad]] = reason
        return k[~bad], j0[~bad]

    def _rows_of_three(self) -> int:
        """Rows of three terminator indices that hold every stride-3 run
        of code_offs and the index just past it."""
        return self.term.size // 3 + 2

    def code_terminators(self) -> np.ndarray:
        """Terminator indices of every code_off of a class that decodes.

        Each class's code_offs are a stride-3 run; the runs of all classes
        are merged with one difference array, summed down each residue
        mod 3, so shared or overlapping class_data costs nothing extra.
        """
        a, m = self.code_first[self.ok], self.methods[self.ok]
        size = 3 * self._rows_of_three()
        runs = np.bincount(a, minlength=size)
        runs -= np.bincount(a + 3 * m, minlength=size)
        np.cumsum(runs.reshape(-1, 3), axis=0, out=runs.reshape(-1, 3))
        return np.flatnonzero(runs > 0)

    def values(self, j: np.ndarray) -> np.ndarray:
        """Values of the ULEBs ending at terminators ``j`` (none first in its class)."""
        return _uleb_values(self.u8, self.term[j - 1] + 1, self.term[j])

    def naming(self, marks: np.ndarray) -> np.ndarray:
        """For each class, whether any of its code_offs has a mark."""
        # prefix[k, r]: marks at indices below 3k equal to r mod 3.
        prefix = np.zeros(3 * (self._rows_of_three() + 1), dtype=np.int64)
        prefix[3 : 3 + marks.size] = marks
        prefix = prefix.reshape(-1, 3).cumsum(axis=0)
        hit = np.zeros(self.starts.size, dtype=bool)
        a, m = self.code_first[self.ok], self.methods[self.ok]
        hit[self.ok] = prefix[(a + 3 * m) // 3, a % 3] > prefix[a // 3, a % 3]
        return hit

    def first_marked(self, c: int, marks: np.ndarray) -> int:
        """Terminator index of class ``c``'s first marked code_off."""
        a, m = int(self.code_first[c]), int(self.methods[c])
        return a + 3 * int(np.argmax(marks[a : a + 3 * m : 3]))

    def describe(self, c: int) -> str:
        s, reason = int(self.starts[c]), self.reason[c]
        if reason == _CD_OUT_OF_BOUNDS:
            return f"class_data offset {s:#x} is out of bounds"
        if reason == _CD_SHORT:
            return f"class_data at {s:#x} runs past end of buffer"
        if reason == _CD_OVERSIZED:
            left = self.term.size - int(self.first[c])
            return (f"class_data at {s:#x} declares {self.fields[c]} fields and "
                    f"{self.methods[c]} methods, more than the {left} uleb128 "
                    "values left before end of buffer")
        j0, end = int(self.first[c]), int(self.end[c])
        if self.term[j0] - s >= 5:
            return f"uleb128 at offset {s} exceeds 5 bytes"
        j = j0 + 1 + int(np.argmax(np.diff(self.term[j0:end]) > 5))
        return f"uleb128 at offset {self.term[j - 1] + 1} exceeds 5 bytes"


class _CodeItems:
    """The distinct code items a file names, checked before any is walked.

    An item must lie between the header and the end of the buffer and
    must not overlap another item, so the items walked are disjoint and
    their code units number at most half the file.
    """

    def __init__(self, u8: np.ndarray, offsets: np.ndarray):
        n = offsets.size
        self.offsets = offsets
        self.reason = np.zeros(n, dtype=np.int8)
        self.size = np.zeros(n, dtype=np.int64)
        self.reason[(offsets < HEADER_SIZE) | (offsets + 16 > u8.size)] = _ITEM_OUT_OF_BOUNDS
        k = np.flatnonzero(self.reason == 0)
        at = offsets[k] + 12
        self.size[k] = sum(u8[at + i].astype(np.int64) << (8 * i) for i in range(4))
        end = offsets + 16 + 2 * self.size
        self.reason[k[end[k] > u8.size]] = _ITEM_PAST_END
        k = np.flatnonzero(self.reason == 0)
        o, e = offsets[k], end[k]
        overlap = np.zeros(k.size, dtype=bool)
        overlap[1:] = np.maximum.accumulate(e)[:-1] > o[1:]  # starts inside an earlier item
        overlap[:-1] |= e[:-1] > o[1:]  # runs into the next item
        self.reason[k[overlap]] = _ITEM_OVERLAP
        self.failed_insns = None

    def walk(self, data: bytes) -> np.ndarray:
        """Opcode counts over every sound item; records the items that fail."""
        counts = np.zeros(256, dtype=np.int64)
        failed = []
        for parity in (0, 1):  # items at even, then odd, byte offsets
            k = np.flatnonzero((self.reason == 0) & (self.size > 0) & (self.offsets % 2 == parity))
            if not k.size:
                continue
            units = np.frombuffer(data, dtype="<u2", offset=parity, count=(len(data) - parity) // 2)
            item, unit_index, unit, width = _walk(
                units, (self.offsets[k] + 16) // 2, self.size[k], counts)
            failed.append((k[item], unit_index, unit, width))
        if failed:
            self.failed_insns = tuple(np.concatenate(parts) for parts in zip(*failed))
            self.reason[self.failed_insns[0]] = _ITEM_BAD_CODE
        return counts

    def describe(self, i: int) -> str:
        off, reason = int(self.offsets[i]), self.reason[i]
        if reason == _ITEM_OUT_OF_BOUNDS:
            return f"code item at {off:#x} is out of bounds"
        if reason == _ITEM_PAST_END:
            return (f"code item at {off:#x} declares {self.size[i]} code units "
                    "past end of buffer")
        if reason == _ITEM_OVERLAP:
            return f"code item at {off:#x} overlaps another code item"
        item, unit_index, unit, width = self.failed_insns
        row = int(np.flatnonzero(item == i)[0])
        p, unit, width = int(unit_index[row]), int(unit[row]), int(width[row])
        if _UNIT_WIDTHS[unit] == 0:
            detail = f"unknown opcode {unit & 0xFF:#04x} at code unit {p}"
        elif width == _TRUNCATED:
            detail = f"{_PAYLOAD_NAMES[unit]} payload header runs past end of code"
        else:
            detail = f"instruction at code unit {p} (width {width}) overruns the stream"
        return f"code item at {off:#x}: {detail}"


def _payload_widths(units, at, room):
    """Widths of the payload pseudo-instructions at ``units[at]``;
    ``_TRUNCATED`` for those whose header does not fit in the ``room``
    code units left."""
    ident = units[at]
    last = units.size - 1  # header reads past the item are masked below
    h1, h2, h3 = (units[np.minimum(at + i, last)].astype(np.int64) for i in (1, 2, 3))
    width = np.where(
        ident == PACKED_SWITCH_IDENT, h1 * 2 + 4,
        np.where(ident == SPARSE_SWITCH_IDENT, h1 * 4 + 2, ((h2 | (h3 << 16)) * h1 + 1) // 2 + 4),
    )
    need = np.where(ident == FILL_ARRAY_IDENT, 4, 2)
    return np.where(room < need, _TRUNCATED, width)


def _chain_starts(jump: np.ndarray, entry: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Mark every position the chains from ``entry`` visit along ``jump``.

    ``jump[m]`` is a sink where a chain stops; a chain stays inside its
    code item, which ends at the first of ``ends`` past it, and inside
    the block.  All chains step at once for ``_LOCKSTEP_ROUNDS`` rounds;
    finished chains sit on the sink, which is dropped every 8 rounds.
    Chains still running then are finished by pointer doubling.
    """
    m = jump.size - 1
    marked = np.zeros(m + 1, dtype=bool)
    cur = entry
    for r in range(1, _LOCKSTEP_ROUNDS + 1):
        marked[cur] = True
        cur = jump[cur]
        if r % 8 == 0:
            cur = cur[cur < m]
            if not cur.size:
                break
    cur = cur[cur < m]
    if cur.size:  # _double marks these entries too
        end = np.minimum(ends[np.searchsorted(ends, cur, side="right")], m)
        _double(jump, cur, end, marked)
    return marked[:m]


def _double(jump: np.ndarray, entry: np.ndarray, end: np.ndarray, marked: np.ndarray) -> None:
    """Mark every position reachable from each ``entry`` along ``jump``.

    Each chain stays inside ``entry .. end``; those suffixes are packed
    side by side and walked by pointer doubling (reach |= jump[reach],
    jump = jump[jump]), log2 of the longest suffix rounds in all.
    """
    sink = jump.size - 1
    lens = end - entry
    start = np.cumsum(lens) - lens
    n = int(lens.sum())
    shift = np.repeat(entry - start, lens)
    where = np.arange(n) + shift
    hop = jump[where]
    hop = np.append(np.where(hop == sink, n, hop - shift), n)
    reach = np.zeros(n + 1, dtype=bool)
    reach[start] = True
    for _ in range(int(lens.max()).bit_length()):
        reach[hop[reach]] = True
        hop = hop[hop]
    marked[where[reach[:n]]] = True


def _walk_block(units, lo, hi, begins, ends, carry, counts):
    """Walk ``units[lo:hi]``, adding its instructions' opcodes to ``counts``.

    Positions are local to the block.  The items in it start at
    ``begins`` and end at ``ends`` (the first may begin before the block,
    the last end after it); ``carry`` is the unit index of the next
    instruction of an item begun before the block, or -1.  Returns the
    failing instructions as (position, unit, width) arrays, or None, and
    the carry for the next block.
    """
    m = hi - lo
    unit = units[lo:hi]
    width = _UNIT_WIDTHS.take(unit)
    jump = np.arange(m + 1)  # jump[m] = m is the sink
    jump[:m] += width
    # end: the end of the position's item, or of the gap it lies in.
    end = np.repeat(np.append(ends, m), np.diff(np.minimum(ends, m), prepend=0, append=m))
    pay = np.flatnonzero(width < 0)
    if pay.size:
        jump[pay] = pay + _payload_widths(units, lo + pay, end[pay] - pay)
    bad = (width == 0) | (jump[:m] > end)
    # A chain stops on a bad instruction, at its item's end or at the
    # block's.  ``beyond`` keeps where the stopped ones would go.
    stops = np.flatnonzero(bad | (jump[:m] >= np.minimum(end, m)))
    beyond = jump[stops]
    jump[stops] = m
    del end  # the walk below does not need it

    entry = begins[begins >= 0]
    if begins[0] < 0 and lo <= carry < lo + min(ends[0], m):
        entry = np.append(entry, carry - lo)
    marked = _chain_starts(jump, entry, ends)
    starts = np.flatnonzero(marked)
    failed = None
    if bad[starts].any():
        p = starts[bad[starts]]
        failed = (p, unit[p], beyond[np.searchsorted(stops, p)] - p)
    counts += np.bincount(unit[starts] & 0xFF, minlength=256)
    counts[0] -= np.count_nonzero(marked[pay])  # payload blocks are skipped

    tail = max(int(begins[-1]), 0)
    if ends[-1] <= m:
        carry = -1
    elif marked[tail:].any():  # else its next start lies past this block
        r = tail + int(np.flatnonzero(marked[tail:])[-1])
        carry = -1 if bad[r] else lo + int(beyond[np.searchsorted(stops, r)])
    return failed, carry


def _walk(units, first, sizes, counts):
    """Count the opcodes of disjoint code items into ``counts``.

    Item i holds ``units[first[i] : first[i] + sizes[i]]``; items are in
    order.  The walk takes blocks of up to ``_BLOCK_UNITS`` units that
    start at an item; an item running past a block carries its next
    instruction start into the next.  Returns the failing instructions
    as (item, code unit, unit, width) arrays.
    """
    stop = first + sizes
    failures = []
    carry = -1
    hi = 0
    while (i0 := int(np.searchsorted(stop, hi, side="right"))) < stop.size:
        lo = max(hi, int(first[i0]))
        hi = min(lo + _BLOCK_UNITS, int(stop[-1]))
        i1 = int(np.searchsorted(first, hi, side="left"))
        failed, carry = _walk_block(
            units, lo, hi, first[i0:i1] - lo, stop[i0:i1] - lo, carry, counts)
        if failed is not None:
            p, unit, width = failed
            item = np.searchsorted(stop, lo + p, side="right")
            failures.append((item, lo + p - first[item], unit, width))
    if not failures:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    return tuple(np.concatenate(parts) for parts in zip(*failures))


def opcode_histogram(dex: DexFile) -> OpcodeHistogram:
    """Opcode-frequency histogram over every code item the classes name.

    A code item that several methods name counts once.  A file without
    code items yields an all-zero histogram.  On malformed input the
    error names the lowest class_def whose class_data or code items fail.
    """
    u8 = np.frombuffer(dex.data, dtype=np.uint8)
    classes = _ClassData(u8, dex.class_data_offs)
    terms = classes.code_terminators()
    values = classes.values(terms)
    named = values != 0
    offsets, item_of = np.unique(values[named], return_inverse=True)
    items = _CodeItems(u8, offsets)
    counts = items.walk(dex.data)

    item_failed = items.reason != 0
    if not (classes.reason.any() or item_failed.any()):
        return OpcodeHistogram.from_counts(counts)
    marks = np.zeros(classes.term.size, dtype=bool)
    marks[terms[named]] = item_failed[item_of]
    c = int(np.flatnonzero((classes.reason != 0) | classes.naming(marks))[0])
    if classes.reason[c]:
        detail = classes.describe(c)
    else:
        j = classes.first_marked(c, marks)
        value = values[np.searchsorted(terms, j)]
        detail = items.describe(int(np.searchsorted(offsets, value)))
    raise DexParseError(f"class_def {c}: {detail}")


def extract_histogram(data: bytes) -> OpcodeHistogram:
    """Parse a DEX buffer and return its opcode histogram."""
    return opcode_histogram(parse_dex(data))
