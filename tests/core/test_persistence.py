"""Provider snapshots: tables, views, and trained models round-trip."""

import datetime

import pytest

import repro
from repro.errors import Error
from repro.core.persistence import (
    dump_provider,
    load_provider,
    open_provider,
    save_provider,
)
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.storage import ListRowStore
from repro.sqlstore.table import Table
from repro.sqlstore.types import LONG

from tests.reference.reference_snapshot import reference_dump_provider


@pytest.fixture
def populated(conn):
    conn.execute("CREATE TABLE T (Id LONG PRIMARY KEY, G TEXT, "
                 "Age DOUBLE, D DATE)")
    rows = ", ".join(
        f"({i}, '{'m' if i % 2 else 'f'}', {20 + (i % 4) * 10}.0, "
        f"'2001-0{1 + i % 9}-01')" for i in range(1, 41))
    conn.execute(f"INSERT INTO T VALUES {rows}")
    conn.execute("CREATE VIEW Men AS SELECT * FROM T WHERE G = 'm'")
    conn.execute("CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
                 "Age DOUBLE DISCRETIZED(EQUAL_COUNT, 2) PREDICT) "
                 "USING Repro_Decision_Trees(MINIMUM_SUPPORT = 2)")
    conn.execute("INSERT INTO M SELECT Id, G, Age FROM T")
    conn.execute("CREATE MINING MODEL Untrained (Id LONG KEY, "
                 "G TEXT DISCRETE) USING Repro_Naive_Bayes")
    return conn


def restore(conn):
    provider = load_provider(dump_provider(conn.provider))
    return repro.Connection(provider)


class TestRoundTrip:
    def test_tables_restored_with_types(self, populated):
        restored = restore(populated)
        assert restored.execute("SELECT COUNT(*) FROM T") \
            .single_value() == 40
        row = restored.execute("SELECT * FROM T WHERE Id = 1").rows[0]
        assert row[2] == 30.0
        assert row[3] == datetime.date(2001, 2, 1)

    def test_primary_key_enforced_after_restore(self, populated):
        restored = restore(populated)
        from repro.errors import SchemaError
        with pytest.raises(SchemaError):
            restored.execute(
                "INSERT INTO T VALUES (1, 'm', 1.0, '2001-01-01')")

    def test_views_restored(self, populated):
        restored = restore(populated)
        assert restored.execute("SELECT COUNT(*) FROM Men") \
            .single_value() == 20

    def test_trained_model_predicts_identically(self, populated):
        query = ("SELECT [M].[Age] FROM M NATURAL PREDICTION JOIN "
                 "(SELECT G FROM T WHERE Id <= 5) AS t")
        before = populated.execute(query)
        restored = restore(populated)
        after = restored.execute(query)
        assert before.rows == after.rows

    def test_untrained_model_restored_as_untrained(self, populated):
        restored = restore(populated)
        model = restored.model("Untrained")
        assert not model.is_trained
        restored.execute("INSERT INTO Untrained SELECT Id, G FROM T")
        assert model.is_trained

    def test_file_round_trip(self, populated, tmp_path):
        path = tmp_path / "snapshot.json"
        save_provider(populated.provider, str(path))
        provider = open_provider(str(path))
        assert provider.model("M").is_trained

    def test_empty_provider(self, conn):
        restored = restore(conn)
        assert restored.models() == []


class TestTemporalValues:
    """Regression: datetime.datetime subclasses date — it used to be tagged
    ``$date`` and its time part rejected or truncated on restore."""

    def test_datetime_date_and_none_round_trip(self, conn):
        conn.execute("CREATE TABLE Times (Id LONG, At DATETIME)")
        table = conn.database.table("Times")
        moment = datetime.datetime(2001, 3, 4, 10, 30, 59)
        day = datetime.date(2001, 3, 4)
        table.insert([1, moment])
        table.insert([2, day])
        table.insert([3, None])
        restored = restore(conn)
        rows = restored.execute("SELECT At FROM Times").rows
        assert rows == [(moment,), (day,), (None,)]
        # The restored values keep their exact types: a datetime stays a
        # datetime (with its time), a date stays a plain date.
        assert type(rows[0][0]) is datetime.datetime
        assert type(rows[1][0]) is datetime.date

    def test_datetime_microseconds_survive(self, conn):
        conn.execute("CREATE TABLE Ts (At DATETIME)")
        moment = datetime.datetime(2020, 1, 2, 3, 4, 5, 678901)
        conn.database.table("Ts").insert([moment])
        restored = restore(conn)
        assert restored.execute("SELECT At FROM Ts").rows == [(moment,)]

    def test_encode_tags_are_distinct(self):
        from repro.core.persistence import _encode_value
        assert _encode_value(datetime.datetime(2001, 1, 1, 12)) == \
            {"$datetime": "2001-01-01T12:00:00"}
        assert _encode_value(datetime.date(2001, 1, 1)) == \
            {"$date": "2001-01-01"}


class TestViewValidation:
    """Regression: restored views used to be installed unvalidated and
    exploded at first query when the snapshot was inconsistent."""

    def _snapshot_with_broken_view(self, conn):
        import json
        conn.execute("CREATE TABLE Known (Id LONG)")
        conn.execute("CREATE VIEW V AS SELECT * FROM Known")
        snapshot = json.loads(dump_provider(conn.provider))
        snapshot["views"]["V"] = "SELECT * FROM NoSuchTable"
        return json.dumps(snapshot)

    def test_unresolvable_view_fails_at_load_naming_the_view(self, conn):
        with pytest.raises(Error, match="view 'V'"):
            load_provider(self._snapshot_with_broken_view(conn))

    def test_view_over_view_resolves(self, populated):
        populated.execute(
            "CREATE VIEW OldMen AS SELECT * FROM Men WHERE Age > 40")
        restored = restore(populated)
        assert restored.execute("SELECT COUNT(*) FROM OldMen") \
            .single_value() > 0

    def test_view_over_untrained_model_content_loads(self, conn):
        conn.execute("CREATE MINING MODEL NotYet (Id LONG KEY, G TEXT "
                     "DISCRETE) USING Repro_Naive_Bayes")
        conn.execute("CREATE VIEW C AS SELECT * FROM NotYet.CONTENT")
        # NotTrainedError is not a resolution failure: the view loads.
        restored = restore(conn)
        assert "C" in restored.database.views


class TestAtomicSave:
    def test_interrupted_save_keeps_previous_snapshot(self, populated,
                                                      tmp_path):
        from repro.store.faults import FaultInjector, InjectedCrash
        path = tmp_path / "snapshot.json"
        save_provider(populated.provider, str(path))
        good = path.read_text()
        populated.execute("INSERT INTO T VALUES (99, 'm', 1.0, "
                          "'2009-09-09')")
        faults = FaultInjector()
        faults.arm("snapshot.before_replace")
        with pytest.raises(InjectedCrash):
            save_provider(populated.provider, str(path), faults=faults)
        assert path.read_text() == good
        assert open_provider(str(path)).database.table("T") is not None

    def test_export_model_is_atomic(self, populated, tmp_path):
        path = tmp_path / "m.pmml"
        populated.execute(f"EXPORT MINING MODEL M TO '{path}'")
        text = path.read_text()
        assert text.startswith("<?xml")
        # Re-export replaces atomically (same content, no truncation window).
        populated.execute(f"EXPORT MINING MODEL M TO '{path}'")
        assert path.read_text() == text


class TestErrors:
    def test_rejects_garbage(self):
        with pytest.raises(Error):
            load_provider("not json at all")

    def test_rejects_wrong_kind(self):
        with pytest.raises(Error, match="snapshot"):
            load_provider('{"kind": "something-else"}')

    def test_rejects_future_format(self):
        with pytest.raises(Error, match="format"):
            load_provider('{"kind": "repro-provider-snapshot", '
                          '"format": 99}')


class _GrowsWhenRead(ListRowStore):
    """A row store that, the first time its rows are read, lets one row in
    through ``Table.insert`` — a writer landing between a dump's read of
    ``table.version`` and its read of the rows, without a thread.  The
    reader gets the live list (the new row included) or, like a paged
    store's materialised snapshot, a copy from before the insert."""

    __slots__ = ("table", "armed", "copy")

    def snapshot(self):
        rows = self.rows
        if self.armed:
            self.armed = False
            if self.copy:
                rows = list(rows)
            self.table.insert((99,))
        return rows


class TestRowFragments:
    """``dump_provider`` keeps each memory table's rows as text on the table
    and labels it with the version it read *before* the rows."""

    @pytest.mark.parametrize("copy, then_encoded",
                             [(False, 4), (True, 1)],
                             ids=["live-list", "copy-before-insert"])
    def test_a_table_that_grows_during_a_dump_is_never_served_stale(
            self, conn, copy, then_encoded):
        store = _GrowsWhenRead()
        table = Table(TableSchema("T", [ColumnSchema("Id", LONG)]),
                      store=store)
        store.table, store.armed, store.copy = table, False, copy
        conn.database.tables["T"] = table
        table.insert_many([(1,), (2,), (3,)])
        encoded = conn.provider.metrics.counter(
            "store.snapshot_rows_encoded")

        store.armed = True
        during = dump_provider(conn.provider)
        assert ("[99]" in during) == (not copy)
        # The label is the version from before the insert: one too old.
        assert table.snapshot_rows[0] == table.version - 1 == 3
        assert encoded.value == (3 if copy else 4)

        # Too old costs an encode — the whole table, or the one new row
        # when the text really is from before the insert — never a stale row.
        after = dump_provider(conn.provider)
        assert after == reference_dump_provider(conn.provider)
        assert '"rows": [[1], [2], [3], [99]]' in after
        assert encoded.value == (3 if copy else 4) + then_encoded
        assert dump_provider(conn.provider) == after
        assert encoded.value == (3 if copy else 4) + then_encoded

    def test_a_restored_provider_starts_without_fragments(self, populated):
        restored = restore(populated)
        assert restored.database.table("T").snapshot_rows is None
        assert dump_provider(restored.provider) == \
            dump_provider(populated.provider)
        assert restored.provider.metrics.value(
            "store.snapshot_rows_encoded") == 40


class TestRetainedCaseset:
    """A model's retained cases are packed into batches on load
    (``CaseBatch.of``), a run of one key layout at a time: the restored
    caseset dumps to the same bytes, and a later INSERT refits over it as
    over the caseset that was never saved."""

    DDL = ("CREATE MINING MODEL Q (Id LONG KEY, H TEXT DISCRETE, "
           "HP DOUBLE PROBABILITY OF H, X DOUBLE CONTINUOUS, "
           "W DOUBLE SUPPORT OF H, T TEXT DISCRETE PREDICT, "
           "B TABLE(P TEXT KEY, Q DOUBLE CONTINUOUS, "
           "QP DOUBLE PROBABILITY OF Q)) "
           "USING Repro_Decision_Trees(MINIMUM_SUPPORT = 1)")
    # Two binding lists: the nested rows' qualifier between two values,
    # then no qualifier and no nested table at all.
    SHAPED = ("INSERT INTO Q (Id, H, HP, X, W, T, B(SKIP, P, QP, Q)) "
              "SHAPE {SELECT Id, H, HP, X, W, T FROM C WHERE Id <= 30 "
              "ORDER BY Id} APPEND ({SELECT CId, Prod, QP, Q FROM S "
              "ORDER BY CId} RELATE Id TO CId) AS B")
    FLAT = "INSERT INTO Q (Id, H, X) SELECT Id, H, X FROM C WHERE Id > 30"
    LATER = ("INSERT INTO Q (Id, H, HP, X, W, T) "
             "SELECT Id, H, HP, X, W, T FROM C WHERE Id > 40")
    SCORE = ("SELECT t.Id, Q.T, PredictProbability(Q.T) FROM Q "
             "NATURAL PREDICTION JOIN (SELECT Id, H, X FROM C) AS t")

    @pytest.fixture
    def trained(self, conn):
        conn.execute("CREATE TABLE C (Id LONG, H TEXT, HP DOUBLE, "
                     "X DOUBLE, W DOUBLE, T TEXT)")
        conn.execute("CREATE TABLE S (CId LONG, Prod TEXT, QP DOUBLE, "
                     "Q DOUBLE)")
        conn.execute("INSERT INTO C VALUES " + ", ".join(
            f"({i}, '{'abc'[i % 3]}', {(i % 4 + 1) / 4}, {i * 1.5}, "
            f"{'NULL' if i % 5 == 0 else i % 3 + 1}, "
            f"'{'yes' if i % 2 else 'no'}')" for i in range(1, 51)))
        conn.execute("INSERT INTO S VALUES " + ", ".join(
            f"({i % 25 + 1}, '{('tv', 'beer', 'wine')[i % 3]}', "
            f"{'NULL' if i % 4 == 0 else 0.5}, {i / 2})" for i in range(60)))
        conn.execute(self.DDL)
        conn.execute(self.SHAPED)
        conn.execute(self.FLAT)
        return conn

    def test_dump_load_dump_is_byte_identical(self, trained):
        text = dump_provider(trained.provider)
        restored = load_provider(text)
        model = restored.model("Q")
        assert model.case_count == 50
        assert len(model.training_cases) == 2   # one batch per layout
        assert dump_provider(restored) == text
        assert '"__QUALIFIERS__": {"Q": {"PROBABILITY": 0.5}}, "Q"' in text

    def test_a_later_insert_refits_as_without_the_restore(self, trained):
        from repro.pmml.writer import to_pmml
        restored = repro.Connection(load_provider(
            dump_provider(trained.provider)))
        for conn in (trained, restored):
            conn.execute(self.LATER)
        assert to_pmml(restored.provider.model("Q")) == \
            to_pmml(trained.provider.model("Q"))
        assert restored.execute(self.SCORE).rows == \
            trained.execute(self.SCORE).rows
        assert dump_provider(restored.provider) == \
            dump_provider(trained.provider)
