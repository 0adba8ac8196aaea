"""Durable provider lifecycle: restart, checkpoint, failure modes, metrics."""

import os

import pytest

import repro
from repro.core.persistence import dump_provider
from repro.errors import Error
from repro.store.durable import JOURNAL_FILE, SNAPSHOT_FILE
from repro.store.faults import FaultInjector

SETUP = [
    "CREATE TABLE T (Id LONG PRIMARY KEY, G TEXT, Age DOUBLE)",
    "INSERT INTO T VALUES (1,'m',30.0),(2,'f',40.0),(3,'m',50.0),"
    "(4,'f',20.0),(5,'m',25.0),(6,'f',45.0)",
    "CREATE VIEW Men AS SELECT * FROM T WHERE G = 'm'",
    "CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
    "Age DOUBLE DISCRETIZED(EQUAL_COUNT, 2) PREDICT) "
    "USING Repro_Naive_Bayes",
    "INSERT INTO M SELECT Id, G, Age FROM T",
]


def open_store(tmp_path, **kwargs):
    return repro.connect(durable_path=str(tmp_path / "store"), **kwargs)


def populate(conn):
    for statement in SETUP:
        conn.execute(statement)
    return conn


class TestRestart:
    def test_restart_restores_everything(self, tmp_path):
        first = populate(open_store(tmp_path))
        reference = dump_provider(first.provider)
        first.close()

        second = open_store(tmp_path)
        assert dump_provider(second.provider) == reference
        assert second.execute("SELECT COUNT(*) FROM Men") \
            .single_value() == 3
        model = second.model("M")
        assert model.is_trained and model.insert_count == 1
        assert model.case_count == 6
        second.close()

    def test_abandoned_process_recovers(self, tmp_path):
        """No clean close() — the journal alone carries the state."""
        conn = populate(open_store(tmp_path))
        reference = dump_provider(conn.provider)
        # Simulated kill -9: drop the object without closing anything.
        del conn

        recovered = open_store(tmp_path)
        assert recovered.provider.recovery_info["replayed"] == len(SETUP)
        assert dump_provider(recovered.provider) == reference
        recovered.close()

    def test_refresh_after_restore_covers_full_history(self, tmp_path):
        """A post-recovery INSERT INTO retrains over the accumulated cases."""
        conn = populate(open_store(tmp_path))
        conn.provider.checkpoint()  # force the snapshot restore path
        conn.close()

        recovered = open_store(tmp_path)
        recovered.execute("INSERT INTO T VALUES (7,'f',60.0)")
        recovered.execute("INSERT INTO M SELECT Id, G, Age FROM T "
                          "WHERE Id = 7")
        model = recovered.model("M")
        assert model.insert_count == 2
        assert model.case_count == 7  # 6 restored + 1 new, not just 1
        recovered.close()

    def test_prediction_identical_after_recovery(self, tmp_path):
        query = ("SELECT [M].[Age] FROM M NATURAL PREDICTION JOIN "
                 "(SELECT G FROM T) AS t")
        conn = populate(open_store(tmp_path))
        before = conn.execute(query).rows
        conn.close()
        recovered = open_store(tmp_path)
        assert recovered.execute(query).rows == before
        recovered.close()


class TestCheckpoint:
    def test_explicit_checkpoint_truncates_journal(self, tmp_path):
        conn = populate(open_store(tmp_path))
        journal = tmp_path / "store" / JOURNAL_FILE
        assert journal.stat().st_size > 0
        conn.provider.checkpoint()
        assert journal.stat().st_size == 0
        assert (tmp_path / "store" / SNAPSHOT_FILE).exists()
        assert conn.provider.metrics.value("store.checkpoints") == 1
        conn.close()

    def test_auto_checkpoint_by_interval(self, tmp_path):
        conn = populate(open_store(tmp_path,
                                   durable_checkpoint_interval=3))
        # 5 statements with interval 3: one auto checkpoint fired.
        assert conn.provider.metrics.value("store.checkpoints") == 1
        conn.close()
        recovered = open_store(tmp_path)
        assert recovered.provider.recovery_info["snapshot_seq"] == 3
        assert recovered.provider.recovery_info["replayed"] == 2
        assert recovered.execute("SELECT COUNT(*) FROM T") \
            .single_value() == 6
        recovered.close()

    def test_checkpoint_without_store_raises(self):
        conn = repro.connect()
        with pytest.raises(Error, match="no durable store"):
            conn.provider.checkpoint()
        conn.close()

    def test_seq_continues_across_checkpoint_and_restart(self, tmp_path):
        conn = populate(open_store(tmp_path))
        conn.provider.checkpoint()
        conn.execute("INSERT INTO T VALUES (7,'m',33.0)")
        assert conn.provider.store.last_seq == len(SETUP) + 1
        conn.close()
        recovered = open_store(tmp_path)
        assert recovered.provider.store.last_seq == len(SETUP) + 1
        recovered.close()


class TestDataVersionContinuity:
    def test_data_version_monotonic_across_restore(self, tmp_path):
        conn = populate(open_store(tmp_path))
        conn.provider.checkpoint()
        before = conn.provider.database.data_version
        conn.close()
        recovered = open_store(tmp_path)
        assert recovered.provider.database.data_version >= before
        recovered.close()


class TestFailureModes:
    def test_journal_io_error_marks_store_broken(self, tmp_path):
        faults = FaultInjector()
        conn = open_store(tmp_path, faults=faults)
        conn.execute(SETUP[0])
        conn.execute(SETUP[1])
        faults.arm("journal.before_write", exc=OSError("disk full"))
        with pytest.raises(Error, match="NOT durable"):
            conn.execute("INSERT INTO T VALUES (9,'m',99.0)")
        # Reads still work; further mutations are refused.
        assert conn.execute("SELECT COUNT(*) FROM T").single_value() == 7
        with pytest.raises(Error, match="read-only"):
            conn.execute("INSERT INTO T VALUES (10,'f',10.0)")
        conn.close()
        # On disk only the acknowledged statements exist.
        recovered = open_store(tmp_path)
        assert recovered.execute("SELECT COUNT(*) FROM T") \
            .single_value() == 6
        recovered.close()

    def test_failed_auto_checkpoint_does_not_fail_its_statement(
            self, tmp_path):
        """The statement that triggers an auto-checkpoint was fsync'd to
        the journal before the checkpoint began: reporting it as failed
        would make a retrying client insert it twice."""
        faults = FaultInjector()
        conn = open_store(tmp_path, faults=faults,
                          durable_checkpoint_interval=3)
        conn.execute("CREATE TABLE T (Id LONG)")
        conn.execute("INSERT INTO T VALUES (1)")
        faults.arm("snapshot.before_fsync", exc=OSError("disk full"))
        assert conn.execute("INSERT INTO T VALUES (2)") == 1
        metrics = conn.provider.metrics
        assert metrics.value("store.checkpoint_failures") == 1
        assert metrics.value("store.checkpoints") == 0
        with pytest.raises(Error, match="read-only"):
            conn.execute("INSERT INTO T VALUES (3)")
        assert conn.execute("SELECT * FROM T").rows == [(1,), (2,)]
        conn.close()
        recovered = open_store(tmp_path)
        assert recovered.execute("SELECT * FROM T").rows == [(1,), (2,)]
        recovered.close()

    def test_failed_explicit_checkpoint_raises(self, tmp_path):
        faults = FaultInjector()
        conn = populate(open_store(tmp_path, faults=faults))
        faults.arm("snapshot.before_fsync", exc=OSError("disk full"))
        with pytest.raises(Error, match="checkpoint failed"):
            conn.provider.checkpoint()
        assert conn.provider.metrics.value("store.checkpoint_failures") == 1
        with pytest.raises(Error, match="read-only"):
            conn.execute("INSERT INTO T VALUES (7,'m',33.0)")
        conn.close()

    def test_crash_in_auto_checkpoint_still_propagates(self, tmp_path):
        from repro.store.faults import InjectedCrash
        faults = FaultInjector()
        conn = open_store(tmp_path, faults=faults,
                          durable_checkpoint_interval=2)
        conn.execute("CREATE TABLE T (Id LONG)")
        faults.arm("snapshot.before_fsync")
        with pytest.raises(InjectedCrash):
            conn.execute("INSERT INTO T VALUES (1)")
        recovered = open_store(tmp_path)
        assert recovered.execute("SELECT * FROM T").rows == [(1,)]
        recovered.close()

    def test_unacknowledged_statement_not_replayed(self, tmp_path):
        faults = FaultInjector()
        conn = open_store(tmp_path, faults=faults)
        conn.execute(SETUP[0])
        faults.arm("journal.before_write")
        from repro.store.faults import InjectedCrash
        with pytest.raises(InjectedCrash):
            conn.execute(SETUP[1])
        recovered = open_store(tmp_path)
        assert recovered.execute("SELECT COUNT(*) FROM T") \
            .single_value() == 0
        recovered.close()


class TestImportReplay:
    def test_import_survives_source_file_deletion(self, tmp_path):
        exporter = populate(open_store(tmp_path))
        pmml_path = tmp_path / "m.pmml"
        exporter.execute(f"EXPORT MINING MODEL M TO '{pmml_path}'")
        exporter.execute(
            f"IMPORT MINING MODEL FROM '{pmml_path}' AS M2")
        exporter.close()
        os.unlink(pmml_path)  # the journal embedded the document

        recovered = open_store(tmp_path)
        assert recovered.model("M2").is_trained
        recovered.close()


class TestMetricsSurface:
    def test_store_counters_via_system_rowset(self, tmp_path):
        conn = populate(open_store(tmp_path))
        conn.provider.checkpoint()
        rows = conn.execute(
            "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS "
            "WHERE METRIC = 'store.journal_appends'").rows
        assert rows and rows[0][1] == len(SETUP)
        conn.close()

    def test_recovery_counters(self, tmp_path):
        populate(open_store(tmp_path)).close()
        recovered = open_store(tmp_path)
        metrics = recovered.provider.metrics
        assert metrics.value("store.recovered_statements") == len(SETUP)
        assert metrics.value("store.torn_records_skipped") == 0
        recovered.close()


class TestCliDurable:
    def test_dmxsh_durable_script_and_reopen(self, tmp_path, capsys):
        from repro.cli import main
        store = str(tmp_path / "store")
        script = tmp_path / "setup.dmx"
        script.write_text(";\n".join(SETUP) + ";\n")
        assert main(["--durable", store, "--script", str(script)]) == 0
        query = tmp_path / "query.dmx"
        query.write_text("SELECT COUNT(*) FROM Men;\n")
        assert main(["--durable", store, "--script", str(query)]) == 0
        out = capsys.readouterr().out
        assert "replayed 5 journaled statement(s)" in out
