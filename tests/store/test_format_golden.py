"""Golden pins of the snapshot + journal + paged-catalog on-disk formats.

These literals ARE the compatibility contract: if one of these tests fails,
the change broke the ability of a new build to recover state written by an
old one.  Evolve the format only by bumping the journal magic
(``DMJ1`` → ``DMJ2``) or the snapshot ``format`` number and keeping a read
path for the old one — then re-pin.
"""

import json

import repro
from repro.core.persistence import FORMAT_VERSION, dump_provider
from repro.store.durable import JOURNAL_FILE, SNAPSHOT_FILE
from repro.store.journal import encode_record

GOLDEN_STATEMENTS = [
    "CREATE TABLE G1 (Id LONG)",
    "INSERT INTO G1 VALUES (1),(2)",
]

# The exact bytes a durable provider writes for GOLDEN_STATEMENTS.
GOLDEN_JOURNAL = (
    b'DMJ1 4352810f {"kind":"CREATE_TABLE","seq":1,'
    b'"stmt":"CREATE TABLE G1 (Id LONG)"}\n'
    b'DMJ1 555794cf {"kind":"INSERT","seq":2,'
    b'"stmt":"INSERT INTO G1 VALUES (1),(2)"}\n'
)

# The exact snapshot document for the same provider at last_seq=2.
GOLDEN_SNAPSHOT = (
    '{"format": 3, "kind": "repro-provider-snapshot", "last_seq": 2, '
    '"data_version": 3, "tables": [{"name": "G1", "columns": '
    '[{"name": "Id", "type": "LONG", "nullable": true, '
    '"primary_key": false}], "rows": [[1], [2]], "statistics": true}], '
    '"views": {}, "models": []}'
)


def _populate(tmp_path, **kwargs):
    conn = repro.connect(durable_path=str(tmp_path / "store"), **kwargs)
    for statement in GOLDEN_STATEMENTS:
        conn.execute(statement)
    return conn


def test_journal_bytes_pinned(tmp_path):
    conn = _populate(tmp_path)
    data = (tmp_path / "store" / JOURNAL_FILE).read_bytes()
    conn.close()
    assert data == GOLDEN_JOURNAL


def test_snapshot_document_pinned(tmp_path):
    conn = _populate(tmp_path)
    assert dump_provider(conn.provider, last_seq=2) == GOLDEN_SNAPSHOT
    conn.close()


def test_checkpoint_writes_pinned_snapshot(tmp_path):
    conn = _populate(tmp_path)
    conn.provider.checkpoint()
    text = (tmp_path / "store" / SNAPSHOT_FILE).read_text()
    conn.close()
    assert text == GOLDEN_SNAPSHOT


def test_record_encoding_is_stable():
    line = encode_record({"seq": 1, "kind": "CREATE_TABLE",
                          "stmt": "CREATE TABLE G1 (Id LONG)"})
    assert line == GOLDEN_JOURNAL.splitlines(keepends=True)[0]


def test_old_build_can_be_simulated_reading_golden(tmp_path):
    """A fresh provider recovers the pinned bytes exactly (forward compat
    for files written by this build)."""
    store = tmp_path / "store"
    store.mkdir()
    (store / SNAPSHOT_FILE).write_text(GOLDEN_SNAPSHOT)
    conn = repro.connect(durable_path=str(store))
    assert conn.execute("SELECT COUNT(*) FROM G1").single_value() == 2
    assert conn.provider.store.last_seq == 2
    conn.close()


def test_format_2_snapshot_still_loads():
    """Backward compatibility: pre-statistics (format 2) snapshots load;
    the absent "statistics" key means the flag was off."""
    from repro.core.persistence import load_provider
    snapshot = (
        '{"format": 2, "kind": "repro-provider-snapshot", "last_seq": 2, '
        '"data_version": 3, "tables": [{"name": "G1", "columns": '
        '[{"name": "Id", "type": "LONG", "nullable": true, '
        '"primary_key": false}], "rows": [[1], [2]]}], "views": {}, '
        '"models": []}'
    )
    provider = load_provider(snapshot)
    assert provider.database.table("G1").rows == [(1,), (2,)]


def test_format_1_snapshot_still_loads():
    """Backward compatibility: pre-durability (format 1) snapshots load."""
    from repro.core.persistence import load_provider
    snapshot = {
        "format": 1, "kind": "repro-provider-snapshot",
        "tables": [{"name": "Old", "columns": [
            {"name": "Id", "type": "LONG", "nullable": True,
             "primary_key": False}], "rows": [[7]]}],
        "views": {}, "models": [],
    }
    provider = load_provider(json.dumps(snapshot))
    assert provider.database.table("Old").rows == [(7,)]


def test_format_version_is_three():
    assert FORMAT_VERSION == 3


# -- the paged store's root: catalog format 2 ----------------------------------

# The base a paged provider writes for GOLDEN_STATEMENTS[0] (every DDL
# rewrites it) and the record GOLDEN_STATEMENTS[1] appends to catalog.log —
# the statement journal's framing around "replace G1's page list from
# index 0".
GOLDEN_CATALOG_BASE = (
    '{"commit_seq": 1, "data_version": 1, "format": 2, '
    '"kind": "repro-paged-catalog", "next_table_id": 2, "tables": {"G1": '
    '{"columns": [{"name": "Id", "nullable": true, "primary_key": false, '
    '"type": "LONG"}], "id": 1, "indexes": [], "name": "G1", "pages": [], '
    '"statistics": true, "version": 0}}, "views": {}}'
)
GOLDEN_CATALOG_RECORD = (
    b'DMJ1 a2385c90 {"commit_seq":2,"data_version":3,"tables":{"G1":'
    b'{"from":0,"pages":[{"file":"p0_v1.pg","id":0,"rows":2,"version":1}],'
    b'"version":2}}}\n'
)


def test_paged_catalog_base_and_record_pinned(tmp_path):
    path = tmp_path / "paged"
    conn = repro.connect(storage_path=str(path))
    try:
        for statement in GOLDEN_STATEMENTS:
            conn.execute(statement)
        assert (path / "catalog.json").read_text() == GOLDEN_CATALOG_BASE
        assert (path / "catalog.log").read_bytes() == GOLDEN_CATALOG_RECORD
    finally:
        conn.close()


def test_pinned_paged_catalog_bytes_replay(tmp_path):
    """Forward compatibility: a fresh provider opens the pinned base + log
    (with the page file the record names) to the two rows."""
    from repro.sqlstore.pages import encode_page
    path = tmp_path / "paged"
    (path / "pages" / "t1").mkdir(parents=True)
    (path / "catalog.json").write_text(GOLDEN_CATALOG_BASE)
    (path / "catalog.log").write_bytes(GOLDEN_CATALOG_RECORD)
    (path / "pages" / "t1" / "p0_v1.pg").write_bytes(
        encode_page(0, [(1,), (2,)]))
    conn = repro.connect(storage_path=str(path))
    try:
        assert conn.execute("SELECT Id FROM G1").rows == [(1,), (2,)]
        assert conn.provider.storage.commit_seq == 2
    finally:
        conn.close()
