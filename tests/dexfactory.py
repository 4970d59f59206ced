"""Hand-assembled DEX fixtures.

Builds small but structurally valid DEX buffers directly from byte
layout rules: real adler32 checksum, real sha1 signature, class_def
table at 0x70, code items 4-byte aligned, class_data after the code so
its uleb128 code offsets are already known.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

HEADER_SIZE = 0x70


def encode_uleb128(value: int) -> bytes:
    if value < 0:
        raise ValueError("uleb128 encodes unsigned values only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


_BITS = [format(b & 0x7F, "07b") for b in range(256)]


def oracle_uleb128(data: bytes, offset: int):
    """Reference ULEB128 decoder.  Returns (value, next_offset), or None
    when no terminator (a byte below 0x80) ends the value within five
    bytes and inside the buffer.

    It reassembles the value from 7-bit groups as a binary string, most
    significant group first, and parses it with int(s, 2), so it shares
    no code with the decoders under test.
    """
    groups = []
    for i in range(5):
        if offset + i >= len(data):
            return None
        byte = data[offset + i]
        groups.append(_BITS[byte])
        if byte < 0x80:
            return int("".join(reversed(groups)), 2), offset + i + 1
    return None


def build_code_item(insns: list[int], registers: int = 2) -> bytes:
    body = struct.pack("<4HII", registers, 0, 0, 0, 0, len(insns))
    body += struct.pack(f"<{len(insns)}H", *insns)
    return body


def build_dex_raw(
    code_items: list[list[int]],
    class_data,
    version: int = 35,
) -> bytes:
    """Assemble a DEX from code items and a raw class_data blob.

    ``code_items`` holds each code item's 16-bit code units.
    ``class_data`` is called with the code items' file offsets and
    returns ``(blob, refs)``: the class_data bytes, placed after the
    code, and one entry per class_def giving its class_data offset into
    the blob, or None for a class without class_data.
    """
    n_classes = len(class_data([0] * len(code_items))[1])
    class_defs_off = HEADER_SIZE if n_classes else 0
    data_off = HEADER_SIZE + 32 * n_classes

    # Code items first, 4-byte aligned, so class_data can name their
    # offsets without fixups.
    blob = bytearray()
    code_offsets: list[int] = []
    for insns in code_items:
        while (data_off + len(blob)) % 4:
            blob.append(0)
        code_offsets.append(data_off + len(blob))
        blob += build_code_item(insns)
    class_data_start = data_off + len(blob)
    class_data_blob, refs = class_data(code_offsets)
    blob += class_data_blob

    file_size = data_off + len(blob)
    header = bytearray(HEADER_SIZE)
    header[0:8] = b"dex\n%03d\x00" % version
    struct.pack_into("<I", header, 32, file_size)
    struct.pack_into("<I", header, 36, HEADER_SIZE)
    struct.pack_into("<I", header, 40, 0x12345678)
    # link_size, link_off, map_off left zero.
    # string/type/proto/field/method id tables left empty.
    struct.pack_into("<II", header, 96, n_classes, class_defs_off)
    struct.pack_into("<II", header, 104, len(blob), data_off)

    out = bytearray(header)
    for i, ref in enumerate(refs):
        out += struct.pack(
            "<8I",
            i,  # class_idx
            0x1,  # access_flags
            0xFFFFFFFF,  # superclass_idx: NO_INDEX
            0,  # interfaces_off
            0xFFFFFFFF,  # source_file_idx
            0,  # annotations_off
            0 if ref is None else class_data_start + ref,
            0,  # static_values_off
        )
    out += blob

    out[12:32] = hashlib.sha1(out[32:]).digest()
    struct.pack_into("<I", out, 8, zlib.adler32(bytes(out[12:])))
    return bytes(out)


def encode_class_data(methods: list[tuple[int, int]], fields: int = 0) -> bytes:
    """One class_data item: ``fields`` static fields, then one direct
    method per ``(access_flags, code_off)`` pair."""
    item = bytearray()
    item += encode_uleb128(fields)  # static fields
    item += encode_uleb128(0)  # instance fields
    item += encode_uleb128(len(methods))  # direct
    item += encode_uleb128(0)  # virtual
    for i in range(fields):
        item += encode_uleb128(1 if i else 0)  # field_idx_diff
        item += encode_uleb128(0x1)  # access_flags: public
    for i, (access, code_off) in enumerate(methods):
        item += encode_uleb128(1 if i else 3)  # method_idx_diff
        item += encode_uleb128(access)
        item += encode_uleb128(code_off)
    return bytes(item)


def build_dex(
    classes: list[list[list[int]] | None],
    version: int = 35,
    abstract_methods: int = 0,
) -> bytes:
    """Assemble a DEX file.

    ``classes`` holds one entry per class: a list of methods (each a
    list of 16-bit code units), or None for a class without class_data.
    ``abstract_methods`` adds that many code-less methods to each class
    that has class_data.
    """
    code_items = [insns for methods in classes for insns in methods or []]

    def class_data(code_offsets):
        blob, refs = bytearray(), []
        offsets = iter(code_offsets)
        for methods in classes:
            if methods is None:
                refs.append(None)
                continue
            refs.append(len(blob))
            named = [(0x1, next(offsets)) for _ in methods]  # public
            blob += encode_class_data(named + [(0x401, 0)] * abstract_methods)
        return bytes(blob), refs

    return build_dex_raw(code_items, class_data, version)


def with_class_data(blob: bytes) -> bytes:
    """A one-class file whose class_data is ``blob``, ending the buffer."""
    return build_dex_raw([], lambda offsets: (blob, [0]))


def build_empty_classes(n: int) -> bytes:
    """A DEX of ``n`` class_defs, none of them with class_data."""
    return build_dex([None] * n)


# --- Known-content fixtures with hand-computed histograms ---------------

# const/4; const/16; nop with a stray high byte; return-void.
FIXTURE_PLAIN_INSNS = [0x0112, 0x0713, 0x0007, 0x4200, 0x000E]
FIXTURE_PLAIN_COUNTS = {0x12: 1, 0x13: 1, 0x00: 1, 0x0E: 1}

# packed-switch / sparse-switch / fill-array-data instructions followed
# by their payload blocks.  Branch targets point at the payloads.
FIXTURE_PAYLOAD_INSNS = [
    0x002B, 10, 0,          # packed-switch v0, payload at +10 units
    0x002C, 15, 0,          # sparse-switch v0, payload at +15 units
    0x0026, 18, 0,          # fill-array-data v0, payload at +18 units
    0x000E,                 # return-void
    0x0100, 2, 0, 0, 4, 0, 6, 0,        # packed: size 2, first_key 0
    0x0200, 1, 5, 0, 7, 0,              # sparse: size 1
    0x0300, 2, 3, 0, 11, 22, 33,        # fill: width 2, size 3
]
FIXTURE_PAYLOAD_COUNTS = {0x2B: 1, 0x2C: 1, 0x26: 1, 0x0E: 1}

# Two classes plus one without class_data; wide and two-unit opcodes.
FIXTURE_MULTI_CLASSES: list[list[list[int]] | None] = [
    [[0x0018, 1, 2, 3, 4, 0x10FA, 0, 0, 0, 0x000E]],
    [[0x0090, 0x0102, 0x000E], [0x01B0, 0x000E]],
    None,
]
FIXTURE_MULTI_COUNTS = {0x18: 1, 0xFA: 1, 0x90: 1, 0xB0: 1, 0x0E: 3}


def histogram_tuple(counts: dict[int, int]) -> tuple[int, ...]:
    full = [0] * 256
    for op, n in counts.items():
        full[op] = n
    return tuple(full)


def fixture_plain() -> bytes:
    return build_dex([[FIXTURE_PLAIN_INSNS]])


def fixture_payload() -> bytes:
    return build_dex([[FIXTURE_PAYLOAD_INSNS]])


def fixture_multi() -> bytes:
    return build_dex(FIXTURE_MULTI_CLASSES, version=38, abstract_methods=1)


def fixture_empty() -> bytes:
    return build_dex([])
