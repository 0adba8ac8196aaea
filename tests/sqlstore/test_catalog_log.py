"""Catalog format 2: the base, the appended delta log, and how they replay.

The root pointer is ``catalog.json`` plus ``catalog.log``; these cases pin
what :meth:`DiskCatalog.load` does with every shape the pair can be found
in — a torn tail, interior damage, a gap in the sequence, records older
than the base, a log beside a format-1 base — and when a commit appends a
record rather than rewriting the base.
"""

import json
import os
import shutil

import pytest

import repro
from repro.core.persistence import dump_provider
from repro.sqlstore.catalog import CATALOG_KIND, DiskCatalog
from repro.sqlstore.diskmgr import StorageError
from repro.store.journal import encode_record, read_journal

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "store",
                        "fixtures")
GEOMETRY = {"buffer_pages": 2, "storage_page_bytes": 256}


def _entry(page_id, version, rows):
    return {"id": page_id, "version": version, "rows": rows,
            "file": f"p{page_id}_v{version}.pg"}


def _base(seq=3, fmt=2):
    return {"format": fmt, "kind": CATALOG_KIND, "next_table_id": 2,
            "commit_seq": seq, "data_version": 7, "views": {},
            "tables": {"T": {"id": 1, "name": "T", "version": 4,
                             "columns": [], "indexes": [],
                             "statistics": False,
                             "pages": [_entry(0, 1, 5), _entry(1, 2, 3)]}}}


def _record(seq, first, pages, version=9):
    return {"commit_seq": seq, "data_version": seq * 10,
            "tables": {"T": {"version": version, "from": first,
                             "pages": pages}}}


def _write(tmp_path, base, log=b""):
    (tmp_path / "catalog.json").write_text(json.dumps(base, sort_keys=True))
    (tmp_path / "catalog.log").write_bytes(log)
    return DiskCatalog(str(tmp_path / "catalog.json"))


def _pages(document):
    return [(p["id"], p["version"], p["rows"])
            for p in document["tables"]["T"]["pages"]]


# -- replay ----------------------------------------------------------------------

def test_records_continue_the_base(tmp_path):
    log = encode_record(_record(4, 1, [_entry(1, 3, 6), _entry(2, 4, 1)])) + \
        encode_record(_record(5, 2, [_entry(2, 5, 2)], version=11))
    document = _write(tmp_path, _base(), log).load()
    assert _pages(document) == [(0, 1, 5), (1, 3, 6), (2, 5, 2)]
    assert document["commit_seq"] == 5 and document["data_version"] == 50
    assert document["tables"]["T"]["version"] == 11


def test_a_record_can_truncate_a_page_list(tmp_path):
    log = encode_record(_record(4, 0, []))
    assert _pages(_write(tmp_path, _base(), log).load()) == []


def test_torn_tail_is_skipped_and_truncated_before_the_next_append(tmp_path):
    good = encode_record(_record(4, 2, [_entry(2, 3, 1)]))
    torn = encode_record(_record(5, 2, [_entry(2, 4, 2)]))
    catalog = _write(tmp_path, _base(), good + torn[:len(torn) // 2])
    document = catalog.load()
    assert document["commit_seq"] == 4
    assert _pages(document)[-1] == (2, 3, 1)
    catalog.append(_record(5, 3, [_entry(3, 5, 1)]))
    catalog.close()
    records, torn_count, _ = read_journal(str(tmp_path / "catalog.log"))
    assert torn_count == 0 and [r["commit_seq"] for r in records] == [4, 5]
    assert _pages(DiskCatalog(catalog.path).load())[-1] == (3, 5, 1)


def test_interior_damage_is_an_error(tmp_path):
    first = encode_record(_record(4, 2, [_entry(2, 3, 1)]))
    second = encode_record(_record(5, 2, [_entry(2, 4, 2)]))
    damaged = first[:20] + b"X" + first[21:]
    with pytest.raises(StorageError, match="corrupt"):
        _write(tmp_path, _base(), damaged + second).load()


def test_a_gap_in_the_sequence_is_an_error(tmp_path):
    log = encode_record(_record(4, 2, [_entry(2, 3, 1)])) + \
        encode_record(_record(6, 2, [_entry(2, 4, 2)]))
    with pytest.raises(StorageError, match="jumps from commit 4 to 6"):
        _write(tmp_path, _base(), log).load()


def test_a_record_that_does_not_fit_is_an_error(tmp_path):
    beyond = encode_record(_record(4, 5, [_entry(5, 9, 1)]))
    with pytest.raises(StorageError, match="does not fit"):
        _write(tmp_path, _base(), beyond).load()
    unknown = encode_record({"commit_seq": 4, "data_version": 1,
                             "tables": {"NOPE": {"version": 1, "from": 0,
                                                 "pages": []}}})
    with pytest.raises(StorageError, match="does not fit"):
        _write(tmp_path, _base(), unknown).load()


def test_records_at_or_below_the_base_are_ignored(tmp_path):
    """The writer died between rewriting the base (seq 5) and resetting the
    log that led up to it."""
    log = encode_record(_record(4, 0, [_entry(9, 9, 9)])) + \
        encode_record(_record(5, 0, [_entry(8, 8, 8)]))
    document = _write(tmp_path, _base(seq=5), log).load()
    assert _pages(document) == [(0, 1, 5), (1, 2, 3)]
    assert document["commit_seq"] == 5


def test_a_log_beside_a_format_1_base_is_not_its_continuation(tmp_path):
    log = encode_record(_record(4, 0, [_entry(9, 9, 9)]))
    catalog = _write(tmp_path, _base(fmt=1), log)
    document = catalog.load()
    assert _pages(document) == [(0, 1, 5), (1, 2, 3)]
    assert document["commit_seq"] == 3
    document.pop("format")
    catalog.save(document)            # the first commit: format 2, log emptied
    catalog.close()
    assert (tmp_path / "catalog.log").read_bytes() == b""
    assert json.loads((tmp_path / "catalog.json").read_text())["format"] == 2


def test_an_unknown_format_is_refused(tmp_path):
    with pytest.raises(StorageError, match="format 3 is not supported"):
        _write(tmp_path, _base(fmt=3)).load()


# -- which commits append --------------------------------------------------------

def _files(path):
    with open(os.path.join(path, "catalog.json"), "rb") as handle:
        base = handle.read()
    return base, read_journal(os.path.join(path, "catalog.log"))[0]


def test_append_only_commits_append_and_ddl_rewrites(tmp_path):
    path = str(tmp_path / "store")
    conn = repro.connect(storage_path=path, **GEOMETRY)
    rewrites = conn.provider.metrics.counter("buffer.catalog_rewrites")
    # Wide enough that the base outweighs the few records appended below
    # (the log is folded in once it outgrows the base).
    conn.execute("CREATE TABLE T (id INT, name TEXT, a INT, b INT, c INT, "
                 "d INT, e INT, f INT)")
    conn.execute("CREATE TABLE W (id INT)")
    conn.execute("INSERT INTO T (id, name) VALUES " + ", ".join(
        f"({i}, 'name-{i:03d}-xxxxxxxxxxxxxxxxxxxx')" for i in range(9)))
    base, records = _files(path)
    assert rewrites.value == 2 and len(records) == 1
    stat = os.stat(os.path.join(path, "catalog.json"))

    conn.execute("INSERT INTO T (id, name) VALUES (40, 'one more')")
    conn.execute("INSERT INTO W VALUES (1)")
    same, records = _files(path)
    after = os.stat(os.path.join(path, "catalog.json"))
    assert same == base and rewrites.value == 2
    assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino,
                                                 stat.st_mtime_ns)
    assert [r["commit_seq"] for r in records] == [3, 4, 5]
    # The single-row insert re-lists only the tail page it landed on.
    pages = len(json.loads(base)["tables"]["T"]["pages"])
    assert pages == 0 and records[0]["tables"]["T"]["from"] == 0
    assert list(records[1]["tables"]) == ["T"]
    assert records[1]["tables"]["T"]["from"] == \
        len(records[0]["tables"]["T"]["pages"]) - 1
    assert list(records[2]["tables"]) == ["W"]

    for ddl in ("CREATE INDEX IX ON T (name)",
                "CREATE VIEW V AS SELECT id FROM T", "DROP TABLE W"):
        before = rewrites.value
        conn.execute(ddl)
        changed, records = _files(path)
        assert rewrites.value == before + 1 and records == [], ddl
        assert changed != base, ddl
        base = changed

    # DELETE and UPDATE move only page lists: appended, from index 0.
    conn.execute("DELETE FROM T WHERE id < 5")
    conn.execute("UPDATE T SET name = 'x' WHERE id = 7")
    same, records = _files(path)
    assert same == base
    assert [r["tables"]["T"]["from"] for r in records] == [0, 0]
    expected = dump_provider(conn.provider)

    # A copy taken now — base plus log, no clean close — reopens to the same.
    copy = str(tmp_path / "copy")
    shutil.copytree(path, copy)
    conn.close()
    reopened = repro.connect(storage_path=copy, **GEOMETRY)
    assert dump_provider(reopened.provider) == expected
    # The first commit after open rewrites the base and empties the log.
    reopened.execute("INSERT INTO T (id, name) VALUES (41, 'after reopen')")
    assert _files(copy)[1] == []
    reopened.close()


def test_the_log_is_folded_into_the_base_once_it_outgrows_it(tmp_path):
    path = str(tmp_path / "store")
    conn = repro.connect(storage_path=path, **GEOMETRY)
    rewrites = conn.provider.metrics.counter("buffer.catalog_rewrites")
    conn.execute("CREATE TABLE T (id INT)")
    sizes = []
    for i in range(60):
        before = rewrites.value
        conn.execute(f"INSERT INTO T VALUES ({i})")
        base = os.path.getsize(os.path.join(path, "catalog.json"))
        log = os.path.getsize(os.path.join(path, "catalog.log"))
        if rewrites.value > before:
            assert log == 0
            sizes.append(base)
        # Self-sized: the log never gets further than one record past the
        # base it extends.
        assert log <= base + 400
    assert len(sizes) >= 3, "sixty appends must compact more than twice"
    # Amortised: far fewer rewrites than commits.
    assert len(sizes) <= 25
    expected = dump_provider(conn.provider)
    conn.close()
    reopened = repro.connect(storage_path=path, **GEOMETRY)
    assert dump_provider(reopened.provider) == expected
    reopened.close()


def test_a_failed_root_write_makes_the_next_commit_rewrite_the_base(tmp_path):
    """An I/O error while appending leaves the log's tail unknown; the next
    commit must not append after it."""
    from repro.store.faults import FaultInjector
    faults = FaultInjector()
    path = str(tmp_path / "store")
    conn = repro.connect(storage_path=path, faults=faults,
                         **GEOMETRY)
    rewrites = conn.provider.metrics.counter("buffer.catalog_rewrites")
    conn.execute("CREATE TABLE T (id INT)")
    conn.execute("INSERT INTO T VALUES (1)")
    faults.arm("catalog_log.before_fsync", exc=OSError("disk says no"))
    with pytest.raises(OSError):
        conn.execute("INSERT INTO T VALUES (2)")
    before = rewrites.value
    conn.execute("INSERT INTO T VALUES (3)")
    assert rewrites.value == before + 1
    assert _files(path)[1] == []
    expected = dump_provider(conn.provider)
    copy = str(tmp_path / "copy")
    shutil.copytree(path, copy)
    conn.close()
    reopened = repro.connect(storage_path=copy, **GEOMETRY)
    assert dump_provider(reopened.provider) == expected
    assert reopened.execute("SELECT COUNT(*) FROM T").single_value() == 3
    reopened.close()


# -- a directory the parent commit wrote -----------------------------------------

def test_a_format_1_directory_opens_with_an_identical_dump(tmp_path):
    """``fixtures/paged_format1`` was written by the commit before format 2
    (catalog.json alone, rewritten per commit; page files through temp +
    rename).  It must open, dump identically, and be format 2 after the
    first commit."""
    path = str(tmp_path / "store")
    shutil.copytree(os.path.join(FIXTURES, "paged_format1"), path)
    with open(os.path.join(path, "expected_dump.json")) as handle:
        expected = handle.read()
    os.unlink(os.path.join(path, "expected_dump.json"))
    with open(os.path.join(path, "catalog.json")) as handle:
        assert json.load(handle)["format"] == 1
    conn = repro.connect(storage_path=path, **GEOMETRY)
    try:
        assert dump_provider(conn.provider) == expected
        conn.execute("INSERT INTO U VALUES (3, 'three')")
        with open(os.path.join(path, "catalog.json")) as handle:
            assert json.load(handle)["format"] == 2
        assert conn.execute("SELECT COUNT(*) FROM V").single_value() > 0
    finally:
        conn.close()
    reopened = repro.connect(storage_path=path, **GEOMETRY)
    try:
        assert reopened.execute(
            "SELECT label FROM U WHERE k = 3").single_value() == "three"
    finally:
        reopened.close()
