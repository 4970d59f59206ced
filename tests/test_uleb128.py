"""Unsigned LEB128 decoding, checked against an independent oracle.

The oracle reassembles the value from 7-bit groups as a binary string,
most significant group first, and parses it with int(s, 2).  It shares
no code with the production decoders: ``read_uleb128`` and the
vectorised ``_uleb_values`` that ``extract`` uses.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from droidlens.dex import _uleb_values, read_uleb128
from droidlens.errors import DexParseError

from dexfactory import encode_uleb128

_BITS = [format(b & 0x7F, "07b") for b in range(256)]


def oracle_uleb128(data: bytes, offset: int):
    """Reference decoder.  Returns (value, next_offset) or None on error."""
    groups = []
    for i in range(5):
        if offset + i >= len(data):
            return None
        byte = data[offset + i]
        groups.append(_BITS[byte])
        if byte < 0x80:
            return int("".join(reversed(groups)), 2), offset + i + 1
    return None


def check_vectorised(buf: bytes, offsets, expected) -> None:
    """Decode every offset at once with ``_uleb_values``, each value ending
    at the first terminator byte (below 0x80) at or after its start."""
    u8 = np.frombuffer(buf, dtype=np.uint8)
    term = np.flatnonzero(u8 < 0x80)
    begin = np.asarray(offsets, dtype=np.int64)
    end = term[np.searchsorted(term, begin)]
    values = _uleb_values(u8, begin, end)
    assert [(int(v), int(e) + 1) for v, e in zip(values, end)] == expected


def test_one_byte_exhaustive():
    buf = bytes(range(0x80))
    for off in range(0x80):
        assert read_uleb128(buf, off) == oracle_uleb128(buf, off) == (buf[off], off + 1)
    check_vectorised(buf, range(0x80), [oracle_uleb128(buf, off) for off in range(0x80)])


def test_two_byte_exhaustive():
    for b0 in range(0x80, 0x100):
        buf = bytes(b for b1 in range(0x80) for b in (b0, b1))
        expected = []
        for i in range(0x80):
            off = 2 * i
            got = read_uleb128(buf, off)
            assert got == oracle_uleb128(buf, off)
            assert got[1] == off + 2
            expected.append(got)  # the oracle's value, asserted above
        check_vectorised(buf, range(0, 0x100, 2), expected)


def test_three_byte_exhaustive():
    decode = read_uleb128
    oracle = oracle_uleb128
    for b0 in range(0x80, 0x100):
        for b1 in range(0x80, 0x100):
            buf = bytes(b for b2 in range(0x80) for b in (b0, b1, b2))
            expected = []
            for i in range(0x80):
                off = 3 * i
                got = decode(buf, off)
                assert got == oracle(buf, off)
                assert got[1] == off + 3
                expected.append(got)  # the oracle's value, asserted above
            check_vectorised(buf, range(0, 0x180, 3), expected)


@given(st.integers(min_value=0, max_value=2**35 - 1))
def test_encode_decode_round_trip(value):
    encoded = encode_uleb128(value)
    decoded, end = read_uleb128(encoded, 0)
    assert decoded == value
    assert end == len(encoded)
    assert oracle_uleb128(encoded, 0) == (decoded, end)


@given(st.binary(min_size=1, max_size=12), st.integers(min_value=0, max_value=11))
def test_agrees_with_oracle_on_arbitrary_bytes(data, offset):
    expected = oracle_uleb128(data, offset) if offset < len(data) else None
    if expected is None:
        with pytest.raises(DexParseError):
            read_uleb128(data, offset)
    else:
        assert read_uleb128(data, offset) == expected


def test_unterminated_at_end_of_buffer():
    with pytest.raises(DexParseError):
        read_uleb128(b"\x80\x80", 0)


def test_over_five_bytes():
    with pytest.raises(DexParseError):
        read_uleb128(b"\x80\x80\x80\x80\x80\x01", 0)


def test_five_byte_value_is_accepted():
    buf = b"\xff\xff\xff\xff\x0f"
    assert read_uleb128(buf, 0) == (0xFFFFFFFF, 5)
    assert oracle_uleb128(buf, 0) == (0xFFFFFFFF, 5)


def test_offset_out_of_bounds():
    with pytest.raises(DexParseError):
        read_uleb128(b"\x01", 1)
    with pytest.raises(DexParseError):
        read_uleb128(b"\x01", -1)


def test_canonical_examples():
    # Worked by hand from the 7-bit group rule.
    assert read_uleb128(b"\x00", 0) == (0, 1)
    assert read_uleb128(b"\x7f", 0) == (127, 1)
    assert read_uleb128(b"\x80\x01", 0) == (128, 2)
    assert read_uleb128(b"\xe5\x8e\x26", 0) == (624485, 3)
