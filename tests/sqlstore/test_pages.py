"""Page format: deterministic codec, admission math, torn-page detection."""

import datetime
import json
import zlib

import pytest

from repro.sqlstore.pages import (
    DEFAULT_PAGE_BYTES,
    HEADER,
    PAGE_MAGIC,
    Page,
    PageFormatError,
    decode_page,
    decode_row,
    decode_scalar,
    encode_page,
    encode_row,
    encode_scalar,
)
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import LONG, TEXT


# -- scalar codec --------------------------------------------------------------

def test_scalar_tags_round_trip():
    stamp = datetime.datetime(2001, 8, 26, 14, 30, 15, 123456)
    day = datetime.date(1999, 12, 31)
    assert decode_scalar(encode_scalar(stamp)) == stamp
    assert decode_scalar(encode_scalar(day)) == day
    # datetime subclasses date: must keep its time part.
    assert isinstance(decode_scalar(encode_scalar(stamp)),
                      datetime.datetime)
    for plain in (None, True, 0, -7, 3.25, "text", float("inf")):
        assert decode_scalar(encode_scalar(plain)) == plain


def test_row_codec_round_trips_everything():
    row = (1, "naïve — ünïcode", None, True, 2.5,
           datetime.date(2000, 1, 1),
           datetime.datetime(2000, 1, 1, 2, 3, 4))
    assert decode_row(encode_row(row)) == row


def test_row_codec_nests_rowsets():
    nested = Rowset([RowsetColumn("k", LONG), RowsetColumn("v", TEXT)],
                    [(1, "a"), (2, None)])
    decoded = decode_row(encode_row((7, nested)))
    assert decoded[0] == 7
    inner = decoded[1]
    assert isinstance(inner, Rowset)
    assert [c.name for c in inner.columns] == ["k", "v"]
    assert inner.rows == [(1, "a"), (2, None)]


def test_row_encoding_is_deterministic_bytes():
    row = (3, "x", 1.5)
    assert encode_row(row) == encode_row(tuple(row))
    assert encode_row(row) == b'[3,"x",1.5]'


def test_nan_and_infinity_round_trip():
    # json.dumps emits NaN/Infinity tokens (allow_nan default); the store
    # must bring them back as the same floats.
    decoded = decode_row(encode_row((float("nan"), float("-inf"))))
    assert decoded[0] != decoded[0]
    assert decoded[1] == float("-inf")


# -- Page admission math -------------------------------------------------------

def test_page_payload_size_tracks_encoding_exactly():
    rows = [(1, "aa"), (2, "bbbb"), (3, None)]
    page = Page(0)
    for row in rows:
        page.append(row, encode_row(row))
    payload = b"[" + b",".join(encode_row(r) for r in rows) + b"]"
    assert page.payload_size == len(payload)
    assert Page(0, list(rows)).payload_size == len(payload)


def test_has_room_respects_budget():
    page = Page(0)
    row = (1, "x" * 40)
    size = len(encode_row(row))
    page.append(row, encode_row(row))
    budget = page.payload_size + size  # one byte short of a second row
    assert not page.has_room(size, budget)
    assert page.has_room(size, budget + 1)


def test_oversized_row_gets_its_own_page():
    page = Page(0)
    assert page.has_room(10 * DEFAULT_PAGE_BYTES, DEFAULT_PAGE_BYTES), \
        "an empty page must accept any row, however wide"


def test_append_marks_dirty():
    page = Page(0)
    assert not page.dirty
    page.append((1,), encode_row((1,)))
    assert page.dirty


# -- full page encode/decode ---------------------------------------------------

def test_page_round_trip():
    rows = [(i, f"row-{i}", i * 0.5, None if i % 3 else True)
            for i in range(20)]
    page = decode_page(encode_page(5, rows), expect_page_id=5)
    assert page.page_id == 5
    assert page.rows == rows
    assert not page.dirty and page.pins == 0


def test_page_bytes_are_deterministic():
    rows = [(1, "a"), (2, "b")]
    assert encode_page(9, rows) == encode_page(9, [(1, "a"), (2, "b")])


@pytest.mark.parametrize("mutilate, message", [
    (lambda d: d[:HEADER.size - 1], "truncated"),
    (lambda d: b"XXXX" + d[4:], "magic"),
    (lambda d: d[:-3], "torn"),
    (lambda d: d[:HEADER.size] + b"x" + d[HEADER.size + 1:], "CRC"),
])
def test_damaged_pages_are_rejected(mutilate, message):
    data = encode_page(3, [(1, "abc"), (2, "def")])
    with pytest.raises(PageFormatError) as excinfo:
        decode_page(mutilate(data))
    assert message.lower() in str(excinfo.value).lower()


def test_page_id_mismatch_is_rejected():
    data = encode_page(3, [(1,)])
    with pytest.raises(PageFormatError):
        decode_page(data, expect_page_id=4)


def test_row_count_mismatch_is_rejected():
    rows = [(1,), (2,)]
    payload = b"[" + b",".join(encode_row(r) for r in rows) + b"]"
    header = HEADER.pack(PAGE_MAGIC, 0, 3, len(payload),
                         __import__("zlib").crc32(payload) & 0xFFFFFFFF)
    with pytest.raises(PageFormatError):
        decode_page(header + payload)


@pytest.mark.parametrize("payload, row_count", [
    (b'{"a":1}', 1),    # used to be served as rows == [("a",)]
    (b"[1,2]", 2),      # used to escape as a bare TypeError
    (b"7", 1),          # likewise
    (b'[[1],{"a":1}]', 2),
    (b'[[{"$date":"not a date"}]]', 1),
    (b'[[{"$datetime":5}]]', 1),
])
def test_well_checksummed_page_of_the_wrong_shape_is_rejected(payload,
                                                              row_count):
    """The CRC only says the bytes are the ones written; a payload that is
    not an array of ``row_count`` arrays fails typed all the same."""
    header = HEADER.pack(PAGE_MAGIC, 0, row_count, len(payload),
                         zlib.crc32(payload) & 0xFFFFFFFF)
    with pytest.raises(PageFormatError):
        decode_page(header + payload)


def test_payload_is_valid_json_array():
    data = encode_page(0, [(1, "a")])
    assert json.loads(data[HEADER.size:].decode("utf-8")) == [[1, "a"]]
