"""Unsigned LEB128 decoding, checked against an independent oracle.

``dexfactory.oracle_uleb128`` shares no code with the production
decoding: ``_uleb_values``, which ``extract`` uses to decode every
class_data value at once, and the class_data pass of
``extract_histogram``, which rejects unterminated and over-long
encodings.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from droidlens.dex import HEADER_SIZE, _uleb_values, extract_histogram
from droidlens.errors import DexParseError

from dexfactory import encode_uleb128, oracle_uleb128, with_class_data


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
    expected = [oracle_uleb128(buf, off) for off in range(0x80)]
    assert expected == [(buf[off], off + 1) for off in range(0x80)]
    check_vectorised(buf, range(0x80), expected)


def test_two_byte_exhaustive():
    for b0 in range(0x80, 0x100):
        buf = bytes(b for b1 in range(0x80) for b in (b0, b1))
        offsets = range(0, 0x100, 2)
        expected = [oracle_uleb128(buf, off) for off in offsets]
        assert [end for _, end in expected] == [off + 2 for off in offsets]
        check_vectorised(buf, offsets, expected)


def test_three_byte_exhaustive():
    for b0 in range(0x80, 0x100):
        for b1 in range(0x80, 0x100):
            buf = bytes(b for b2 in range(0x80) for b in (b0, b1, b2))
            offsets = range(0, 0x180, 3)
            expected = [oracle_uleb128(buf, off) for off in offsets]
            assert [end for _, end in expected] == [off + 3 for off in offsets]
            check_vectorised(buf, offsets, expected)


@given(st.integers(min_value=0, max_value=2**35 - 1))
def test_encode_decode_round_trip(value):
    encoded = encode_uleb128(value)
    assert oracle_uleb128(encoded, 0) == (value, len(encoded))
    check_vectorised(encoded, [0], [(value, len(encoded))])


@given(st.binary(min_size=1, max_size=12), st.integers(min_value=0, max_value=11))
def test_agrees_with_oracle_on_arbitrary_bytes(data, offset):
    expected = oracle_uleb128(data, offset)
    if expected is None:
        # As the first value of a class_data item, the class_data pass
        # rejects what the oracle cannot decode.
        with pytest.raises(DexParseError):
            extract_histogram(with_class_data(data[offset:]))
    else:
        check_vectorised(data, [offset], [expected])


def test_unterminated_at_end_of_buffer():
    with pytest.raises(DexParseError, match="class_def 0: class_data at .* runs past end"):
        extract_histogram(with_class_data(b"\x80\x80"))


def test_over_five_bytes():
    with pytest.raises(DexParseError, match="class_def 0: uleb128 at offset .* exceeds 5 bytes"):
        extract_histogram(with_class_data(b"\x80\x80\x80\x80\x80\x01" + bytes(3)))


def test_five_byte_value_is_accepted():
    buf = b"\xff\xff\xff\xff\x0f"
    assert oracle_uleb128(buf, 0) == (0xFFFFFFFF, 5)
    check_vectorised(buf, [0], [(0xFFFFFFFF, 5)])


def test_offset_out_of_bounds():
    # class_data_off is the seventh field of the class_def at 0x70.
    data = bytearray(with_class_data(b"\x00" * 4))
    struct.pack_into("<I", data, HEADER_SIZE + 24, 0xFFFFFFFF)
    with pytest.raises(DexParseError, match="class_def 0: class_data offset .* out of bounds"):
        extract_histogram(bytes(data))


def test_canonical_examples():
    # Worked by hand from the 7-bit group rule.
    buf = b"\x00\x7f\x80\x01\xe5\x8e\x26"
    check_vectorised(buf, [0, 1, 2, 4], [(0, 1), (127, 2), (128, 4), (624485, 7)])
