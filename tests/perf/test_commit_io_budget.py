"""An I/O budget for the paged commit, beside the call budget.

Wall time on a shared box cannot gate a millisecond of fsync; the number of
``fsync`` calls a commit makes and the bytes it hands to ``write`` can,
because they repeat exactly.  The statements are the benchmark's own
(``benchmarks/e2e/statements.py``: 100-row ``INSERT INTO Sales VALUES …``
on the 5,000-customer warehouse, 16 × 4 KiB pool).  A commit that only
appended rows must cost one fsync per page it flushed, one per directory
that gained a file and one for the root record — and write about what the
statement inserted, not the catalog: the commit this replaced made 5.4
fsyncs and wrote 6.7 × the inserted bytes, ~15 KB of them ``catalog.json``.
This is a regression guard, not a performance claim; wall time is printed,
not gated.
"""

import os
import time

import pytest

import repro
from repro.datagen import WarehouseConfig, load_warehouse
from repro.sqlstore.pages import encode_row

from tests.sqlstore.test_ordered_input_differential import (
    benchmark_statements,
)

CUSTOMERS = 5000
STATEMENTS = 40
FSYNCS_PER_COMMIT_CEILING = 3.8     # 3.67 when set; 5.4 before
WRITE_AMPLIFICATION_CEILING = 3.0   # 1.84 when set; 6.7 before


def _written() -> int:
    """Bytes this process has handed to write(2) so far."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise AssertionError("/proc/self/io has no wchar line")


@pytest.mark.skipif(not os.path.exists("/proc/self/io"),
                    reason="write bytes are read from /proc/self/io")
def test_an_append_only_commit_writes_what_the_statement_changed(
        tmp_path, monkeypatch, capsys):
    statements = benchmark_statements()
    path = str(tmp_path / "store")
    conn = repro.connect(storage_path=path, buffer_pages=16,
                         storage_page_bytes=4096)
    try:
        load_warehouse(conn.database,
                       WarehouseConfig(customers=CUSTOMERS, seed=7))
        for statement in statements.SQL_INDEXES:
            conn.execute(statement)
        generator = statements.SqlStatements(7, CUSTOMERS, seeks=0, ranges=0,
                                             insert_rows=100)
        texts = [op.text for round_no in range(STATEMENTS // 2)
                 for op in generator.round(round_no) if op.kind == "insert"]
        assert len(texts) == STATEMENTS and texts[0].count("(") == 100

        storage = conn.provider.storage
        counts = {"fsync": 0, "flush": 0, "dirs": 0}
        fsync, flush = os.fsync, storage.flush_page
        take = storage.disk.take_unsynced

        def counting_fsync(fd):
            counts["fsync"] += 1
            return fsync(fd)

        def counting_flush(page):
            counts["flush"] += 1
            return flush(page)

        def counting_take():
            taken = take()
            counts["dirs"] += len(taken)
            return taken
        monkeypatch.setattr(os, "fsync", counting_fsync)
        storage.flush_page = storage.pool.flusher = counting_flush
        storage.disk.take_unsynced = counting_take

        sales = conn.database.table("Sales")
        catalog = os.path.join(path, "catalog.json")
        rewrites = conn.provider.metrics.counter("buffer.catalog_rewrites")
        inserted_from = len(sales)
        total_fsyncs = appended = 0
        wrote = _written()
        started = time.perf_counter()
        for text in texts:
            before = dict(counts)
            base, rewritten = os.stat(catalog), rewrites.value
            conn.execute(text)
            spent = {key: counts[key] - before[key] for key in counts}
            total_fsyncs += spent["fsync"]
            after = os.stat(catalog)
            if rewrites.value == rewritten:
                # A delta commit: pages, their directories, one record —
                # and catalog.json is not touched.
                appended += 1
                assert spent["fsync"] <= spent["flush"] + spent["dirs"] + 1
                assert (after.st_ino, after.st_mtime_ns, after.st_size) == \
                    (base.st_ino, base.st_mtime_ns, base.st_size)
            else:
                # The log outgrew the base: folded in, rarely.
                assert after.st_ino != base.st_ino
        wall = time.perf_counter() - started
        wrote = _written() - wrote

        row_bytes = sum(len(encode_row(row))
                        for row in sales.rows[inserted_from:])
        assert len(sales) - inserted_from == 100 * STATEMENTS
        assert appended >= STATEMENTS - 2
        assert total_fsyncs / STATEMENTS <= FSYNCS_PER_COMMIT_CEILING
        assert wrote / row_bytes <= WRITE_AMPLIFICATION_CEILING

        # A statement that changes the catalog's shape does rewrite the base.
        base = os.stat(catalog)
        conn.execute("CREATE INDEX IX_BUDGET ON Sales (Quantity)")
        assert os.stat(catalog).st_ino != base.st_ino
        assert os.path.getsize(os.path.join(path, "catalog.log")) == 0
    finally:
        monkeypatch.undo()
        conn.close()
    with capsys.disabled():
        print(f"\n  paged commit: {total_fsyncs / STATEMENTS:.2f} fsyncs and "
              f"{wrote / STATEMENTS:.0f} bytes per 100-row INSERT "
              f"({wrote / row_bytes:.2f} x the rows' {row_bytes // STATEMENTS}"
              f" bytes), {wall / STATEMENTS * 1e3:.2f} ms per statement")
