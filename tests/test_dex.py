"""DEX parsing and opcode histogram tests.

The width oracle below is a second, independent transcription of the
Dalvik instruction-width tables, organized by width instead of by
format, so a transcription slip in either copy shows up as a mismatch.
The per-method walk that the vectorised pass replaced is kept here as
``_reference_opcode_histogram``, the oracle for whole files.
"""

import random
import re
import struct
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from droidlens import dex as dexmod
from droidlens.dex import (
    HEADER_SIZE,
    PACKED_SWITCH_IDENT,
    SPARSE_SWITCH_IDENT,
    FILL_ARRAY_IDENT,
    OpcodeHistogram,
    extract_histogram,
    instruction_width,
    opcode_histogram,
    parse_dex,
    read_uleb128,
    OPCODE_WIDTHS,
)
from droidlens.errors import DexParseError

import dexfactory
from dexfactory import (
    build_dex,
    build_dex_raw,
    encode_class_data,
    encode_uleb128,
    histogram_tuple,
)


def _ops(*specs):
    out = set()
    for spec in specs:
        if isinstance(spec, tuple):
            out.update(range(spec[0], spec[1] + 1))
        else:
            out.add(spec)
    return out


ORACLE_WIDTH_SETS = {
    1: _ops(0x00, 0x01, 0x04, 0x07, (0x0A, 0x12), 0x1D, 0x1E, 0x21, 0x27,
            0x28, (0x7B, 0x8F), (0xB0, 0xCF)),
    2: _ops(0x02, 0x05, 0x08, 0x13, 0x15, 0x16, 0x19, 0x1A, 0x1C, 0x1F,
            0x20, 0x22, 0x23, 0x29, (0x2D, 0x3D), (0x44, 0x6D),
            (0x90, 0xAF), (0xD0, 0xE2), 0xFE, 0xFF),
    3: _ops(0x03, 0x06, 0x09, 0x14, 0x17, 0x1B, 0x24, 0x25, 0x26, 0x2A,
            0x2B, 0x2C, (0x6E, 0x72), (0x74, 0x78), 0xFC, 0xFD),
    4: _ops(0xFA, 0xFB),
    5: _ops(0x18),
}
ORACLE_UNUSED = _ops((0x3E, 0x43), 0x73, 0x79, 0x7A, (0xE3, 0xF9))
ORACLE_WIDTH = {op: w for w, ops in ORACLE_WIDTH_SETS.items() for op in ops}
VALID_OPS = sorted(ORACLE_WIDTH)


def test_width_oracle_covers_all_opcodes():
    assert len(ORACLE_WIDTH) + len(ORACLE_UNUSED) == 256
    assert not ORACLE_UNUSED & set(ORACLE_WIDTH)


def test_width_table_matches_oracle():
    for op in range(256):
        assert OPCODE_WIDTHS[op] == ORACLE_WIDTH.get(op), f"opcode {op:#04x}"


def test_instruction_width_matches_oracle():
    for op in VALID_OPS:
        units = [op] + [0] * 5
        assert instruction_width(units, 0) == ORACLE_WIDTH[op], f"opcode {op:#04x}"
    for op in sorted(ORACLE_UNUSED):
        with pytest.raises(DexParseError):
            instruction_width([op, 0, 0], 0)


def test_payload_widths():
    # packed-switch: ident, size, first_key(2), size targets(2 each)
    assert instruction_width([0x0100, 3, 0, 0, 0, 0, 0, 0, 0, 0], 0) == 3 * 2 + 4
    assert instruction_width([0x0100, 0, 0, 0], 0) == 4
    # sparse-switch: ident, size, keys and targets (2 units per entry each)
    assert instruction_width([0x0200, 2, 0, 0, 0, 0, 0, 0, 0, 0], 0) == 2 * 4 + 2
    assert instruction_width([0x0200, 0], 0) == 2
    # fill-array-data: ident, element_width, size(2), ceil(bytes/2) data units
    assert instruction_width([0x0300, 2, 3, 0, 0, 0, 0], 0) == 7
    assert instruction_width([0x0300, 1, 5, 0, 0, 0, 0], 0) == 7
    assert instruction_width([0x0300, 8, 1, 0, 0, 0, 0, 0], 0) == 8
    assert instruction_width([0x0300, 4, 0, 0], 0) == 4
    # A nop whose high byte is not a payload ident is one unit wide.
    assert instruction_width([0x4200], 0) == 1
    assert instruction_width([0x0000], 0) == 1


def test_payload_header_truncated():
    with pytest.raises(DexParseError):
        instruction_width([0x0100], 0)
    with pytest.raises(DexParseError):
        instruction_width([0x0300, 2, 1], 0)


# --- Fixture files with hand-computed histograms -------------------------


def test_plain_fixture_histogram():
    hist = extract_histogram(dexfactory.fixture_plain())
    assert hist.counts == histogram_tuple(dexfactory.FIXTURE_PLAIN_COUNTS)
    assert hist.total == 4


def test_payload_fixture_histogram():
    hist = extract_histogram(dexfactory.fixture_payload())
    assert hist.counts == histogram_tuple(dexfactory.FIXTURE_PAYLOAD_COUNTS)
    assert hist.total == 4


def test_multi_class_fixture_histogram():
    hist = extract_histogram(dexfactory.fixture_multi())
    assert hist.counts == histogram_tuple(dexfactory.FIXTURE_MULTI_COUNTS)
    assert hist.total == 7


def test_empty_dex_all_zero():
    hist = extract_histogram(dexfactory.fixture_empty())
    assert hist.counts == (0,) * 256
    assert hist.total == 0


def test_histogram_merge_adds_counts():
    a = extract_histogram(dexfactory.fixture_plain())
    b = extract_histogram(dexfactory.fixture_multi())
    merged = a + b
    assert merged.total == a.total + b.total
    assert merged.counts == tuple(x + y for x, y in zip(a.counts, b.counts))


def test_parse_exposes_header_and_class_defs():
    data = dexfactory.fixture_multi()
    dex = parse_dex(data, verify_checksum=True)
    assert dex.version == 38
    assert dex.header.header_size == 0x70
    assert dex.header.endian_tag == 0x12345678
    assert dex.header.file_size == len(data)
    assert len(dex.class_defs) == 3
    assert dex.class_defs[2].class_data_off == 0
    assert dex.header.checksum == zlib.adler32(data[12:])


# --- Malformed input ------------------------------------------------------


def test_bad_magic():
    with pytest.raises(DexParseError, match="magic"):
        parse_dex(b"ZIP\x00" + bytes(0x100))
    with pytest.raises(DexParseError, match="magic"):
        parse_dex(b"")
    with pytest.raises(DexParseError, match="magic"):
        parse_dex(b"dex\n990\x00" + bytes(0x100))
    with pytest.raises(DexParseError, match="magic"):
        parse_dex(b"dex\nabc\x00" + bytes(0x100))


def test_truncated_header():
    data = dexfactory.fixture_plain()
    with pytest.raises(DexParseError, match="truncated"):
        parse_dex(data[:0x40])


def test_declared_size_beyond_buffer():
    data = dexfactory.fixture_plain()
    with pytest.raises(DexParseError, match="truncated"):
        parse_dex(data[:-1])


def test_trailing_bytes_tolerated():
    data = dexfactory.fixture_plain()
    hist = extract_histogram(data + b"\x00" * 64)
    assert hist.total == 4


def test_wrong_endian_tag():
    data = bytearray(dexfactory.fixture_plain())
    struct.pack_into("<I", data, 40, 0x78563412)
    with pytest.raises(DexParseError, match="endian"):
        parse_dex(bytes(data))


def test_wrong_header_size():
    data = bytearray(dexfactory.fixture_plain())
    struct.pack_into("<I", data, 36, 0x80)
    with pytest.raises(DexParseError, match="header_size"):
        parse_dex(bytes(data))


def test_checksum_verification_is_optional():
    data = bytearray(dexfactory.fixture_plain())
    struct.pack_into("<I", data, 8, 0xDEADBEEF)
    parse_dex(bytes(data))  # lenient by default
    with pytest.raises(DexParseError, match="checksum"):
        parse_dex(bytes(data), verify_checksum=True)


def test_class_defs_out_of_bounds():
    data = bytearray(dexfactory.fixture_plain())
    struct.pack_into("<II", data, 96, 10_000, 0x70)
    with pytest.raises(DexParseError, match="class_defs"):
        parse_dex(bytes(data))


def test_unused_opcode_rejected():
    for op in (0x3E, 0x73, 0x79, 0xE3, 0xF9):
        data = build_dex([[[op, 0x000E]]])
        with pytest.raises(DexParseError, match="opcode"):
            extract_histogram(data)


def test_instruction_overruns_stream():
    # const-wide needs 5 units but only 1 remains.
    data = build_dex([[[0x0112, 0x0018]]])
    with pytest.raises(DexParseError):
        extract_histogram(data)


def test_error_names_the_class():
    data = build_dex([[[0x000E]], [[0x003E]]])
    with pytest.raises(DexParseError, match="class_def 1"):
        extract_histogram(data)


def test_code_off_outside_buffer():
    data = bytearray(dexfactory.fixture_plain())
    dex = parse_dex(bytes(data))
    class_data_off = dex.class_defs[0].class_data_off
    # Rewrite the method's code_off uleb to point past the end.  The
    # fixture encodes it in two bytes; keep the length identical.
    off = class_data_off + 4 + 2  # sizes, method_idx_diff, access_flags
    old, _ = read_uleb128(bytes(data), off)
    assert old > 0x7F
    data[off] = 0xFF
    data[off + 1] = 0x7F
    with pytest.raises(DexParseError):
        opcode_histogram(parse_dex(bytes(data)))


# --- Truncation fuzzing ---------------------------------------------------


def test_every_truncation_errors_cleanly():
    rng = random.Random(1337)
    files = [
        dexfactory.fixture_plain(),
        dexfactory.fixture_payload(),
        dexfactory.fixture_multi(),
        dexfactory.fixture_empty(),
    ]
    trials = 0
    for data in files:
        for cut in range(len(data)):  # every prefix
            with pytest.raises(DexParseError):
                extract_histogram(data[:cut])
            trials += 1
    while trials < 10_000:
        data = rng.choice(files)
        cut = rng.randrange(len(data))
        with pytest.raises(DexParseError):
            extract_histogram(data[:cut])
        trials += 1
    assert trials >= 10_000


# --- Generative round trip ------------------------------------------------


@st.composite
def instruction_stream(draw):
    """Random well-formed stream: (code units, expected counts)."""
    units: list[int] = []
    expected = [0] * 256
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.integers(min_value=0, max_value=9))
        if kind == 0 and len(units) % 2 == 0:
            which = draw(st.integers(min_value=0, max_value=2))
            if which == 0:
                size = draw(st.integers(min_value=0, max_value=4))
                units += [0x0100, size, 0, 0] + [0] * (2 * size)
            elif which == 1:
                size = draw(st.integers(min_value=0, max_value=4))
                units += [0x0200, size] + [0] * (4 * size)
            else:
                width = draw(st.sampled_from([1, 2, 4, 8]))
                size = draw(st.integers(min_value=0, max_value=5))
                units += [0x0300, width, size, 0] + [0] * ((size * width + 1) // 2)
        else:
            op = draw(st.sampled_from(VALID_OPS))
            arg = draw(st.integers(min_value=0, max_value=0xFF))
            if op == 0x00:
                arg = 0  # keep clear of payload idents
            units += [op | (arg << 8)] + [0] * (ORACLE_WIDTH[op] - 1)
            expected[op] += 1
    return units, tuple(expected)


@given(st.lists(instruction_stream(), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_histogram_matches_constructed_stream(streams):
    classes = [[units for units, _ in streams]]
    hist = extract_histogram(build_dex(classes))
    expected = [0] * 256
    for _, counts in streams:
        for op in range(256):
            expected[op] += counts[op]
    assert hist.counts == tuple(expected)
    assert hist.total == sum(expected)


def test_histogram_validation():
    with pytest.raises(ValueError):
        OpcodeHistogram(counts=(0,) * 255, total=0)
    with pytest.raises(ValueError):
        OpcodeHistogram(counts=(0,) * 255 + (-1,), total=-1)
    with pytest.raises(ValueError):
        OpcodeHistogram(counts=(1,) + (0,) * 255, total=2)
    hist = OpcodeHistogram.from_counts([1] + [0] * 255)
    assert hist.total == 1


# --- Reference: the per-method walk ----------------------------------------
#
# The loop the vectorised pass replaced, kept as the oracle.  It decodes
# each class_data item with read_uleb128 and steps each code item one
# instruction at a time with instruction_width.  Like the vectorised pass
# it counts each distinct code item once, and walks only the items that
# lie between the header and the end of the buffer and overlap no other.


@dataclass(frozen=True)
class CodeItem:
    registers_size: int
    insns_size: int
    insns: tuple[int, ...]


def _read_code_item(data: bytes, offset: int) -> CodeItem:
    if offset < HEADER_SIZE or offset + 16 > len(data):
        raise DexParseError(f"code item at {offset:#x} is out of bounds")
    registers_size = struct.unpack_from("<H", data, offset)[0]
    insns_size = struct.unpack_from("<I", data, offset + 12)[0]
    if offset + 16 + insns_size * 2 > len(data):
        raise DexParseError(f"code item at {offset:#x} runs past end of buffer")
    insns = struct.unpack_from(f"<{insns_size}H", data, offset + 16)
    return CodeItem(registers_size=registers_size, insns_size=insns_size, insns=insns)


def _walk_code_units(code_units, counts: list[int]) -> int:
    """Count one opcode per instruction; skip payload data regions."""
    n = len(code_units)
    i = 0
    stepped = 0
    while i < n:
        unit = code_units[i]
        opcode = unit & 0xFF
        is_payload = opcode == 0x00 and unit in (
            PACKED_SWITCH_IDENT,
            SPARSE_SWITCH_IDENT,
            FILL_ARRAY_IDENT,
        )
        width = instruction_width(code_units, i)
        if i + width > n:
            raise DexParseError(
                f"instruction at code unit {i} (width {width}) overruns the stream"
            )
        if not is_payload:
            counts[opcode] += 1
            stepped += 1
        i += width
    return stepped


def _iter_code_offsets(data: bytes, class_data_off: int):
    """Yield code_item offsets from one class_data item."""
    if class_data_off >= len(data):
        raise DexParseError(f"class_data offset {class_data_off:#x} is out of bounds")
    off = class_data_off
    static_fields, off = read_uleb128(data, off)
    instance_fields, off = read_uleb128(data, off)
    direct_methods, off = read_uleb128(data, off)
    virtual_methods, off = read_uleb128(data, off)
    for _ in range(static_fields + instance_fields):
        _, off = read_uleb128(data, off)  # field_idx_diff
        _, off = read_uleb128(data, off)  # access_flags
    for _ in range(direct_methods + virtual_methods):
        _, off = read_uleb128(data, off)  # method_idx_diff
        _, off = read_uleb128(data, off)  # access_flags
        code_off, off = read_uleb128(data, off)
        if code_off:
            yield code_off


def _reference_opcode_histogram(dex) -> OpcodeHistogram:
    data = dex.data
    failing: set[int] = set()
    namers: dict[int, set[int]] = {}  # code_off -> the classes naming it
    for index, class_def in enumerate(dex.class_defs):
        if class_def.class_data_off == 0:
            continue
        try:
            offsets = list(_iter_code_offsets(data, class_def.class_data_off))
        except DexParseError:
            failing.add(index)
            continue
        for code_off in offsets:
            namers.setdefault(code_off, set()).add(index)

    items = {}
    for code_off in sorted(namers):
        try:
            items[code_off] = _read_code_item(data, code_off)
        except DexParseError:
            failing |= namers[code_off]
    # Bytes covered by each readable item, counted over all of them.
    cover = [0] * len(data)
    for code_off, item in items.items():
        for b in range(code_off, code_off + 16 + 2 * item.insns_size):
            cover[b] += 1
    counts = [0] * 256
    total = 0
    for code_off, item in items.items():
        if max(cover[code_off : code_off + 16 + 2 * item.insns_size]) > 1:
            failing |= namers[code_off]
            continue
        try:
            total += _walk_code_units(item.insns, counts)
        except DexParseError:
            failing |= namers[code_off]
    if failing:
        raise DexParseError(f"class_def {min(failing)}: reference walk failed")
    return OpcodeHistogram(counts=tuple(counts), total=total)


@contextmanager
def _small_blocks(units: int, rounds: int):
    """Run the vectorised pass with tiny blocks and few lockstep rounds,
    so small files cross block boundaries and reach pointer doubling."""
    saved = dexmod._BLOCK_UNITS, dexmod._LOCKSTEP_ROUNDS
    dexmod._BLOCK_UNITS, dexmod._LOCKSTEP_ROUNDS = units, rounds
    try:
        yield
    finally:
        dexmod._BLOCK_UNITS, dexmod._LOCKSTEP_ROUNDS = saved


def _outcome(fn, dex):
    """("ok", histogram) or ("error", "class_def N" or the whole message)."""
    try:
        return "ok", fn(dex)
    except DexParseError as exc:
        return "error", str(exc).split(":")[0]


def _assert_matches_reference(data: bytes):
    try:
        dex = parse_dex(data)
    except DexParseError:
        return
    expected = _outcome(_reference_opcode_histogram, dex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [_outcome(opcode_histogram, dex)]
        for units, rounds in ((1, 1), (5, 0), (7, 2), (64, 9)):
            with _small_blocks(units, rounds):
                got.append(_outcome(opcode_histogram, dex))
    for outcome in got:
        assert outcome == expected
    if expected[0] == "ok":
        assert expected[1].total <= (len(data) - HEADER_SIZE) // 2


def test_reference_agrees_on_fixtures():
    for data in (
        dexfactory.fixture_plain(),
        dexfactory.fixture_payload(),
        dexfactory.fixture_multi(),
        dexfactory.fixture_empty(),
    ):
        dex = parse_dex(data)
        assert opcode_histogram(dex) == _reference_opcode_histogram(dex)
        _assert_matches_reference(data)


# --- Many blocks: long methods, payloads across block edges -------------------


def _long_method(rng: random.Random, n_insns: int) -> list[int]:
    """About ``n_insns`` instructions, 1% of them fill-array-data payloads."""
    units: list[int] = []
    for _ in range(n_insns):
        if rng.random() < 0.01 and len(units) % 2 == 0:
            size = rng.randrange(0, 3000)
            units += [0x0300, 1, size & 0xFFFF, size >> 16] + [0] * ((size + 1) // 2)
            continue
        op = rng.choice(VALID_OPS[1:])
        units += [op | (rng.randrange(256) << 8)] + [0] * (ORACLE_WIDTH[op] - 1)
    return units


def test_many_blocks_match_reference():
    rng = random.Random(7)
    classes = [
        [_long_method(rng, rng.randrange(1, 400)) for _ in range(rng.randrange(1, 6))]
        for _ in range(40)
    ]
    classes[3].append(_long_method(rng, 40_000))  # spans several 2^14-unit blocks
    data = build_dex(classes)
    dex = parse_dex(data)
    expected = _reference_opcode_histogram(dex)
    assert opcode_histogram(dex) == expected
    for units, rounds in ((97, 1), (1000, 4), (1 << 14, 0)):
        with _small_blocks(units, rounds):
            assert opcode_histogram(dex) == expected


def test_payload_skips_whole_blocks():
    # A fill-array-data payload 50,000 units long, far wider than a block.
    size = 100_000
    payload = [0x0300, 1, size & 0xFFFF, size >> 16] + [0x3E3E] * (size // 2)
    insns = [0x0026, 4, 0, 0x000E] + payload + [0x0112, 0x000E]
    data = build_dex([[insns]])
    dex = parse_dex(data)
    hist = opcode_histogram(dex)
    assert hist.counts == histogram_tuple({0x26: 1, 0x0E: 2, 0x12: 1})
    assert hist == _reference_opcode_histogram(dex)


def test_single_long_method_matches_reference():
    # One chain over about 200 blocks, each finished by pointer doubling.
    insns = _long_method(random.Random(3), 600_000)
    data = build_dex([[insns]])
    assert extract_histogram(data) == _reference_opcode_histogram(parse_dex(data))


# --- Aliasing: each distinct code item counts once ---------------------------


def test_methods_naming_one_code_item_count_it_once():
    insns = [0x0112, 0x0713, 0x0005, 0x0018, 1, 2, 3, 4, 0x000E]

    def class_data(offsets):
        methods = [(0x1, offsets[0])] * 1000
        return encode_class_data(methods), [0]

    data = build_dex_raw([insns], class_data)
    dex = parse_dex(data)
    hist = opcode_histogram(dex)
    assert hist.counts == histogram_tuple({0x12: 1, 0x13: 1, 0x18: 1, 0x0E: 1})
    assert hist == _reference_opcode_histogram(dex)


def test_shared_and_overlapping_class_data_count_once():
    insns = [0x0112, 0x000E]

    def class_data(offsets):
        x = offsets[0]
        # Class data A: no fields, one virtual method (0, a, x).  Read
        # from its second value it is B: one direct method (a, x, x).
        values = [0, 0, 0, 1, 0, 0x1, x, x]
        blob = b"".join(encode_uleb128(v) for v in values)
        refs = [0] * 30 + [1] + [0] * 5  # 35 class_defs share A, one starts B
        return blob, refs

    data = build_dex_raw([insns], class_data)
    dex = parse_dex(data)
    assert len({c.class_data_off for c in dex.class_defs}) == 2
    hist = opcode_histogram(dex)
    assert hist.counts == histogram_tuple({0x12: 1, 0x0E: 1})
    assert hist == _reference_opcode_histogram(dex)


def test_code_item_inside_header_rejected():
    def class_data(offsets):
        return encode_class_data([(0x1, 0x20)]), [0]

    data = build_dex_raw([], class_data)
    with pytest.raises(DexParseError, match="out of bounds"):
        extract_histogram(data)


def test_overlap_fails_both_items():
    # Item B starts four bytes into item A and reads A's first code
    # units as its header.  Either class naming either item is at fault.
    insns = [0x0000] * 6 + [0x000E]
    for outer_first in (True, False):

        def class_data(offsets, outer_first=outer_first):
            a, b = offsets[1], offsets[1] + 4
            blob = encode_class_data([(0x1, offsets[0])])
            refs = [0, len(blob)]
            blob += encode_class_data([(0x1, a if outer_first else b)])
            refs.append(len(blob))
            blob += encode_class_data([(0x1, b if outer_first else a)])
            return blob, refs

        data = build_dex_raw([[0x000E], insns], class_data)
        with pytest.raises(DexParseError, match="class_def 1: .*overlaps"):
            extract_histogram(data)
        with pytest.raises(DexParseError, match="class_def 1:"):
            _reference_opcode_histogram(parse_dex(data))


def _item_at_end(insns: list[int], declared: int, pad: int = 0) -> bytes:
    """A one-class file whose only code item ends the buffer, after
    ``pad`` spare bytes, and declares ``declared`` code units."""

    def build(code_off):
        return bytearray(build_dex_raw(
            [], lambda offsets: (encode_class_data([(0x1, code_off)]), [0])))

    size = len(build(0x80))
    data = build(size + pad)  # both offsets take two ULEB128 bytes
    assert len(data) == size
    data += bytes(pad) + struct.pack("<4HII", 2, 0, 0, 0, 0, declared)
    data += struct.pack(f"<{len(insns)}H", *insns)
    struct.pack_into("<I", data, 32, len(data))
    return bytes(data)


@pytest.mark.parametrize("pad", [0, 1, 2, 3])
def test_code_item_ending_the_buffer(pad):
    # pad 1 and 3 put the item at an odd offset.
    insns = [0x0112, 0x0026, 4, 0, 0x000E, 0, 0x0300, 1, 1, 0, 0x0007]
    hist = extract_histogram(_item_at_end(insns, len(insns), pad))
    assert hist.counts == histogram_tuple({0x12: 1, 0x26: 1, 0x0E: 1, 0x00: 1})
    with pytest.raises(DexParseError, match="declares 12 code units past end of buffer"):
        extract_histogram(_item_at_end(insns, len(insns) + 1, pad))


@pytest.mark.parametrize("insns, words", [
    ([0x000E, 0x0100], "packed-switch payload header runs past end of code"),
    ([0x000E, 0x0200], "sparse-switch payload header runs past end of code"),
    ([0x000E, 0x0300, 2, 3], "fill-array-data payload header runs past end of code"),
    ([0x000E, 0x0100, 1, 0, 0, 0], "code unit 1 (width 6) overruns the stream"),
    ([0x0112, 0x0018, 1, 2, 3], "code unit 1 (width 5) overruns the stream"),
    ([0x000E, 0x003E], "unknown opcode 0x3e at code unit 1"),
])
def test_walk_errors_name_the_fault(insns, words):
    data = build_dex([[[0x000E]], [[0x000E], insns]])
    with pytest.raises(DexParseError, match="class_def 1: code item at .*" + re.escape(words)):
        extract_histogram(data)


# --- class_data: every ULEB128 is checked, counts before allocation -----------


def _ulebs(values: list[int]) -> bytes:
    return b"".join(encode_uleb128(v) for v in values)


def _with_class_data(blob: bytes) -> bytes:
    """A one-class file whose class_data is ``blob``, ending the buffer."""
    return build_dex_raw([], lambda offsets: (blob, [0]))


@pytest.mark.parametrize("counts", [
    [0, 0, 2**35 - 1, 0],
    [0, 0, 2**35 - 1, 2**35 - 1],
    [2**35 - 1, 2**35 - 1, 0, 0],
    [0, 0, 0, 2**28],  # needs the fifth byte of its ULEB128
    [0, 0, 3, 0],
])
def test_oversized_counts_rejected_before_allocation(counts):
    data = _with_class_data(_ulebs(counts + [1, 1, 0]))
    assert len(data) < 300
    with pytest.raises(DexParseError, match="class_def 0: .*declares"):
        extract_histogram(data)


@pytest.mark.parametrize("position", range(9))
def test_uleb128_of_six_bytes_rejected(position):
    # One static field and one method without code; one value padded.
    values = [1, 0, 1, 0, 0, 1, 3, 1, 0]
    parts = [encode_uleb128(v) for v in values]
    five = bytes([values[position] | 0x80]) + b"\x80" * 3 + b"\x00"
    six = bytes([values[position] | 0x80]) + b"\x80" * 4 + b"\x00"
    assert extract_histogram(
        _with_class_data(b"".join(parts[:position] + [five] + parts[position + 1:]))).total == 0
    data = _with_class_data(b"".join(parts[:position] + [six] + parts[position + 1:]))
    with pytest.raises(DexParseError, match="class_def 0: uleb128 at offset .* exceeds 5 bytes"):
        extract_histogram(data)
    with pytest.raises(DexParseError):
        _reference_opcode_histogram(parse_dex(data))


def test_class_data_at_end_of_buffer_rejected():
    data = _with_class_data(b"")
    assert parse_dex(data).class_defs[0].class_data_off == len(data)
    with pytest.raises(DexParseError, match="class_def 0: class_data offset .* out of bounds"):
        extract_histogram(data)


def test_code_off_needing_five_bytes():
    def class_data(offsets):
        return encode_class_data([(0x1, offsets[0] + 2**28)]), [0]

    with pytest.raises(DexParseError, match="out of bounds"):
        extract_histogram(build_dex_raw([[0x000E]], class_data))


# --- Hypothesis: structure-aware mutations against the reference -------------


def _layout(data: bytes):
    """Mutation targets of a dexfactory file.

    Returns the (start, end) of every class_data ULEB, those of the
    code_off ULEBs, the code item offsets and their code unit positions.
    """
    dex = parse_dex(data)
    ulebs, code_offs = [], []
    for class_def in dex.class_defs:
        off = class_def.class_data_off
        if not off:
            continue

        def take():
            nonlocal off
            value, end = read_uleb128(data, off)
            ulebs.append((off, end))
            off = end
            return value

        sizes = [take() for _ in range(4)]
        for _ in range(2 * (sizes[0] + sizes[1])):
            take()
        for _ in range(sizes[2] + sizes[3]):
            take(), take()
            start = off
            take()
            code_offs.append((start, off))
    items = sorted({read_uleb128(data, s)[0] for s, _ in code_offs} - {0})
    units = [
        o + 16 + 2 * i
        for o in items
        for i in range(struct.unpack_from("<I", data, o + 12)[0])
    ]
    return ulebs, code_offs, items, units


_SPECIAL_VALUES = st.sampled_from([0, 1, 2, 3, 0x7F, 0x80, 1000, 2**32 - 1, 2**32, 2**35 - 1])


@st.composite
def mutated_dex(draw):
    classes = draw(st.lists(
        st.one_of(st.none(), st.lists(instruction_stream().map(lambda s: s[0]), max_size=3)),
        min_size=1, max_size=4,
    ))
    base = build_dex(classes, abstract_methods=draw(st.integers(0, 1)))
    ulebs, code_offs, items, units = _layout(base)
    data = bytearray(base)
    n_classes = len(classes)
    splices = {}  # start -> (end, new bytes), applied last, back to front
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from([
            "uleb", "code_off", "repeat", "insns_size", "opcode", "payload",
            "share_class_data", "truncate",
        ]))
        if kind == "uleb" and ulebs:
            start, end = draw(st.sampled_from(ulebs))
            raw = draw(st.one_of(
                _SPECIAL_VALUES.map(encode_uleb128),
                st.integers(0, 2**35 - 1).map(encode_uleb128),
                st.integers(1, 7).map(lambda k: b"\x80" * k),
                st.binary(min_size=1, max_size=6),
            ))
            splices[start] = (end, raw)
        elif kind == "code_off" and code_offs:
            start, end = draw(st.sampled_from(code_offs))
            value = draw(st.one_of(
                st.sampled_from(items or [0]),
                st.sampled_from(items or [0]).flatmap(
                    lambda o: st.integers(max(o - 24, 0), o + 24)),
                st.integers(0, len(data) + 64),
                _SPECIAL_VALUES,
            ))
            splices[start] = (end, encode_uleb128(value))
        elif kind == "repeat" and code_offs and items:
            target = encode_uleb128(draw(st.sampled_from(items)))
            for start, end in code_offs:
                if draw(st.booleans()):
                    splices[start] = (end, target)
        elif kind == "insns_size" and items:
            at = draw(st.sampled_from(items)) + 12
            old = struct.unpack_from("<I", data, at)[0]
            new = draw(st.one_of(st.integers(max(old - 3, 0), old + 3),
                                 st.integers(0, 2**32 - 1)))
            struct.pack_into("<I", data, at, new)
        elif kind == "opcode" and units:
            data[draw(st.sampled_from(units))] = draw(st.integers(0, 255))
        elif kind == "payload" and units:
            at = draw(st.sampled_from(units))
            ident = draw(st.sampled_from([PACKED_SWITCH_IDENT, SPARSE_SWITCH_IDENT,
                                          FILL_ARRAY_IDENT]))
            struct.pack_into("<H", data, at, ident)
            if at + 4 <= len(data):
                struct.pack_into("<H", data, at + 2, draw(st.integers(0, 0xFFFF)))
        elif kind == "share_class_data" and n_classes:
            refs = [c.class_data_off for c in parse_dex(base).class_defs]
            target = draw(st.sampled_from(refs)) + draw(st.integers(0, 12))
            k = draw(st.integers(0, n_classes - 1))
            struct.pack_into("<I", data, HEADER_SIZE + 32 * k + 24, target)
        elif kind == "truncate":
            cut = draw(st.integers(HEADER_SIZE, len(data)))
            splices[cut] = (len(data), b"")
    for start in sorted(splices, reverse=True):
        end, raw = splices[start]
        data[start:end] = raw
    if draw(st.booleans()) or "truncate" not in splices:
        # Keep file_size and the data section consistent with the cut.
        struct.pack_into("<I", data, 32, len(data))
        data_off = struct.unpack_from("<I", data, 108)[0]
        struct.pack_into("<I", data, 104, max(len(data) - data_off, 0))
    return bytes(data)


@given(mutated_dex())
@settings(max_examples=400, deadline=None)
def test_mutated_files_match_reference(data):
    _assert_matches_reference(data)


@st.composite
def aliased_dex(draw):
    """Classes naming code items, the same ones and ones at offsets that
    start inside others, so items alias and overlap."""
    items = draw(st.lists(instruction_stream().map(lambda s: s[0]), min_size=1, max_size=4))
    picks = draw(st.lists(
        st.lists(st.tuples(st.integers(0, len(items) - 1),
                           st.sampled_from([0, 0, 0, 2, 4, 8, 14, 16, 18, 30, -2, -4, -16])),
                 max_size=3),
        min_size=1, max_size=5,
    ))

    def class_data(offsets):
        blob, refs = bytearray(), []
        for named in picks:
            refs.append(len(blob))
            blob += encode_class_data([(0x1, max(offsets[i] + d, 0)) for i, d in named])
        return bytes(blob), refs

    return build_dex_raw(items, class_data)


@given(aliased_dex())
@settings(max_examples=300, deadline=None)
def test_aliased_and_overlapping_items_match_reference(data):
    _assert_matches_reference(data)
