"""Differential: page files joined from kept bytes vs re-encoding the rows.

A resident page keeps the bytes of its rows — what ``extend`` encoded for the
admission check, what a reload read from the file — and a flush joins them
instead of encoding every row again.  The spelling it replaced,
``encode_page(page_id, rows)``, stays the oracle (and
``tests/reference/reference_page_codec.reference_encode_page`` spells the
same file from the format table alone): after *every* flush, whichever path
produced the page — append, batch extend, commit, eviction under a one-frame
pool, reload-then-append, ``replace_all``, truncate, reopen — the file's
bytes must equal the re-encoding of the page's rows, ``payload_size`` must
be the payload's length, and what a reopened provider holds must equal an
in-memory twin's — cell for cell with types told apart, and as
``dump_provider`` text whenever no cell is a nested rowset (a snapshot
cannot spell one in a base table; a page can).
"""

import json
import os
import tempfile

from hypothesis import example, given
from hypothesis import strategies as st

import repro
from repro.core.persistence import dump_provider
from repro.sqlstore.pages import HEADER, encode_page
from repro.sqlstore.rowset import Rowset

from tests.reference.reference_page_codec import reference_encode_page
from tests.sqlstore.test_page_codec_differential import cells, shape

ARITY = 3
rows = st.lists(cells, min_size=ARITY, max_size=ARITY).map(tuple)
operations = st.lists(st.one_of(
    st.tuples(st.just("append"), rows),
    st.tuples(st.just("extend"), st.lists(rows, max_size=8)),
    st.tuples(st.just("replace_all"), st.lists(rows, max_size=8)),
    st.tuples(st.just("truncate")),
    st.tuples(st.just("commit")),
    # A read elsewhere: under a one-frame pool it evicts (and flushes) the
    # tail page, so the next append reloads it from its file first.
    st.tuples(st.just("read"), st.floats(min_value=0, max_value=1)),
    st.tuples(st.just("reopen")),
), max_size=14)

CREATE = "CREATE TABLE T (a TEXT, b TEXT, c TEXT)"


def _dump(provider):
    document = json.loads(dump_provider(provider))
    document.pop("data_version")      # reopen replays a different bump count
    return json.dumps(document, sort_keys=True)


class Paged:
    """The paged provider under test, with every flush checked as it lands."""

    def __init__(self, path, buffer_pages, page_bytes):
        self.kwargs = {"storage_path": path, "buffer_pages": buffer_pages,
                       "storage_page_bytes": page_bytes}
        self.flushes = 0
        self.conn = None
        self.open()

    def open(self):
        self.conn = repro.connect(**self.kwargs)
        manager = self.conn.provider.storage
        flush = manager.flush_page

        def checked(page):
            flush(page)
            self.flushes += 1
            handle = page.handle
            path = manager.disk.page_path(handle.table_id,
                                          handle.current_file)
            with open(path, "rb") as stream:
                data = stream.read()
            assert data == encode_page(handle.page_id, page.rows)
            assert data == reference_encode_page(handle.page_id, page.rows)
            assert page.payload_size == len(data) - HEADER.size
        manager.flush_page = manager.pool.flusher = checked

    def reopen(self):
        self.conn.close()
        self.open()

    def check_committed_files(self):
        """After a commit every page is clean: each handle's file is the
        re-encoding of exactly its slice of the table."""
        store = self.conn.database.table("T").store
        manager = self.conn.provider.storage
        stored = store.snapshot()
        start = 0
        for handle in store.handles:
            path = manager.disk.page_path(handle.table_id,
                                          handle.current_file)
            with open(path, "rb") as stream:
                assert stream.read() == reference_encode_page(
                    handle.page_id, stored[start:start + handle.row_count])
            start += handle.row_count
        assert start == len(stored)


def _apply(table, op):
    """One store-level mutation (no coercion: the cells are the subject)."""
    store = table.store
    if op[0] == "append":
        store.append(op[1])
        moved = 1
    elif op[0] == "extend":
        store.extend(op[1])
        moved = len(op[1])
    elif op[0] == "replace_all":
        store.replace_all(op[1])
        moved = 1 + len(op[1])
    elif op[0] == "truncate":
        store.truncate()
        moved = 1
    else:
        return
    # What dump_provider keys its row text on.  It reads a version that
    # moved by exactly the rows added as "only appended to", which Table
    # keeps true (one per row inserted, one for any other mutation, which
    # adds no row); a replace_all here may add rows, so it moves by more.
    table.version += moved


SMALL = (None, None, None)       # 16 bytes: three to a 64-byte page


@given(operations, st.sampled_from([1, 3]), st.sampled_from([64, 160]))
# Reload-then-append, spelled out: five rows leave a two-row tail page; the
# read evicts and flushes it; the append reloads it from that file and the
# commit joins the file's bytes with the new row's.
@example([("extend", [SMALL] * 5), ("read", 0.0), ("append", (1, "x", None)),
          ("commit",), ("read", 0.0), ("extend", [SMALL, (2.5, None, "y")])],
         1, 64)
# A truncate, then rows added, after a dump: the twin's cached row text
# must not pass for a prefix of the new rows.
@example([("append", (None, None, False)), ("reopen",), ("truncate",),
          ("extend", [SMALL] * 3)], 1, 64)
@example([("append", SMALL), ("reopen",), ("truncate",),
          ("replace_all", [(None, None, False), SMALL, SMALL])], 1, 64)
def test_every_flush_writes_the_re_encoding_of_its_rows(ops, buffer_pages,
                                                        page_bytes):
    twin = repro.connect()
    twin.execute(CREATE)
    nested = any(isinstance(cell, Rowset)
                 for op in ops if op[0] in ("append", "extend", "replace_all")
                 for row in ([op[1]] if op[0] == "append" else op[1])
                 for cell in row)
    with tempfile.TemporaryDirectory() as root:
        paged = Paged(os.path.join(root, "store"), buffer_pages, page_bytes)
        try:
            paged.conn.execute(CREATE)
            for op in ops + [("commit",), ("reopen",)]:
                table = paged.conn.database.table("T")
                _apply(table, op)
                _apply(twin.database.table("T"), op)
                if op[0] == "commit":
                    paged.conn.provider.storage.commit(paged.conn.database)
                    paged.check_committed_files()
                elif op[0] == "read" and len(table.store):
                    position = int(op[1] * (len(table.store) - 1))
                    twin_table = twin.database.table("T")
                    assert shape(table.store.fetch_rows([position])[0]) == \
                        shape(twin_table.store.fetch_rows([position])[0])
                elif op[0] == "reopen":
                    paged.reopen()
                    reopened = paged.conn.database.table("T")
                    expected = twin.database.table("T")
                    assert list(map(shape, reopened.rows)) == \
                        list(map(shape, expected.rows))
                    # The catalog restores the committed version; the twin's
                    # moved with every mutation since.
                    expected.version = reopened.version
                    if not nested:
                        assert _dump(paged.conn.provider) == \
                            _dump(twin.provider)
            stored = sum(len(op[1]) if op[0] == "extend" else 1
                         for op in ops if op[0] in ("append", "extend"))
            assert paged.flushes > 0 or stored == 0
        finally:
            paged.conn.close()
            twin.close()
