"""MiningModel life cycle: train, refresh, reset, drop (paper section 2)."""

import pytest

import repro
from repro.errors import (
    BindError,
    CatalogError,
    Error,
    NotTrainedError,
    TrainError,
)

DDL = """
CREATE MINING MODEL [M] (
    [Id] LONG KEY,
    [Gender] TEXT DISCRETE,
    [Age] DOUBLE CONTINUOUS PREDICT
) USING Repro_Decision_Trees(MINIMUM_SUPPORT = 2)
"""


@pytest.fixture
def conn_with_data(conn):
    conn.execute("CREATE TABLE T (Id LONG, Gender TEXT, Age DOUBLE)")
    rows = ", ".join(
        f"({i}, '{'Male' if i % 2 else 'Female'}', {20 + (i % 5) * 10}.0)"
        for i in range(1, 41))
    conn.execute(f"INSERT INTO T VALUES {rows}")
    return conn


class TestCreate:
    def test_create_registers_model(self, conn_with_data):
        conn_with_data.execute(DDL)
        model = conn_with_data.model("M")
        assert not model.is_trained
        assert model.algorithm.SERVICE_NAME == "Repro_Decision_Trees"

    def test_duplicate_create_rejected(self, conn_with_data):
        conn_with_data.execute(DDL)
        with pytest.raises(CatalogError):
            conn_with_data.execute(DDL)

    def test_model_name_clash_with_table(self, conn_with_data):
        with pytest.raises(CatalogError):
            conn_with_data.execute(DDL.replace("[M]", "[T]"))

    def test_unknown_algorithm(self, conn_with_data):
        with pytest.raises(BindError):
            conn_with_data.execute(
                "CREATE MINING MODEL X (k LONG KEY, a TEXT DISCRETE) "
                "USING No_Such_Service")

    def test_unknown_parameter_rejected_at_create(self, conn_with_data):
        from repro.errors import SchemaError
        with pytest.raises(SchemaError):
            conn_with_data.execute(
                "CREATE MINING MODEL X (k LONG KEY, a TEXT DISCRETE) "
                "USING Repro_Decision_Trees(BOGUS_KNOB = 1)")


class TestTrain:
    def test_insert_select_by_name(self, conn_with_data):
        conn_with_data.execute(DDL)
        count = conn_with_data.execute(
            "INSERT INTO [M] SELECT Id, Gender, Age FROM T")
        assert count == 40
        assert conn_with_data.model("M").is_trained

    def test_insert_with_explicit_bindings(self, conn_with_data):
        conn_with_data.execute(DDL)
        conn_with_data.execute(
            "INSERT INTO [M] ([Id], [Gender], [Age]) "
            "SELECT Id, Gender, Age FROM T")
        assert conn_with_data.model("M").case_count == 40

    def test_insert_values_into_model_rejected(self, conn_with_data):
        conn_with_data.execute(DDL)
        with pytest.raises(Error):
            conn_with_data.execute("INSERT INTO [M] (Id) VALUES (1)")

    def test_empty_source_rejected(self, conn_with_data):
        conn_with_data.execute(DDL)
        with pytest.raises(TrainError):
            conn_with_data.execute(
                "INSERT INTO [M] SELECT Id, Gender, Age FROM T "
                "WHERE Id > 999")

    def test_refresh_accumulates(self, conn_with_data):
        conn_with_data.execute(DDL)
        conn_with_data.execute(
            "INSERT INTO [M] SELECT Id, Gender, Age FROM T WHERE Id <= 20")
        conn_with_data.execute(
            "INSERT INTO [M] SELECT Id, Gender, Age FROM T WHERE Id > 20")
        model = conn_with_data.model("M")
        assert model.case_count == 40
        assert model.insert_count == 2


class TestResetAndDrop:
    def test_delete_from_resets(self, conn_with_data):
        conn_with_data.execute(DDL)
        conn_with_data.execute("INSERT INTO [M] SELECT Id, Gender, Age "
                               "FROM T")
        conn_with_data.execute("DELETE FROM MINING MODEL [M]")
        model = conn_with_data.model("M")
        assert not model.is_trained
        assert model.case_count == 0
        # definition survives: retraining works
        conn_with_data.execute("INSERT INTO [M] SELECT Id, Gender, Age "
                               "FROM T")
        assert model.is_trained

    def test_plain_delete_from_also_resets(self, conn_with_data):
        conn_with_data.execute(DDL)
        conn_with_data.execute("INSERT INTO [M] SELECT Id, Gender, Age "
                               "FROM T")
        conn_with_data.execute("DELETE FROM [M]")
        assert not conn_with_data.model("M").is_trained

    def test_delete_from_model_with_where_rejected(self, conn_with_data):
        conn_with_data.execute(DDL)
        with pytest.raises(Error):
            conn_with_data.execute("DELETE FROM [M] WHERE 1 = 1")

    def test_drop(self, conn_with_data):
        conn_with_data.execute(DDL)
        conn_with_data.execute("DROP MINING MODEL [M]")
        with pytest.raises(BindError):
            conn_with_data.model("M")

    @pytest.mark.parametrize("drop", ["DROP MINING MODEL [M]",
                                      "DROP TABLE [M]"])
    def test_drop_frees_the_cached_casesets(self, conn_with_data, drop):
        """A dropped model's bound casesets leave the cache with it — by
        reference count, not at the next LRU eviction or collection — while
        another model's entries and a DELETE FROM leave the cache alone."""
        import gc
        import sys
        conn = conn_with_data
        cache = conn.provider.caseset_cache
        score = ("SELECT t.Id, [{0}].[Age] FROM [{0}] NATURAL PREDICTION "
                 "JOIN (SELECT Id, Gender FROM T) AS t")
        for name in ("M", "Other"):
            conn.execute(DDL.replace("[M]", f"[{name}]"))
            conn.execute(f"INSERT INTO [{name}] SELECT Id, Gender, Age "
                         f"FROM T")
            conn.execute(score.format(name))
        owners = [key[1] for key in cache._entries]
        assert sorted(owners) == ["M", "M", "OTHER", "OTHER"]
        conn.execute("DELETE FROM [M]")
        assert len(cache) == 4          # a re-INSERT can still hit them
        key = next(k for k in cache._entries
                   if k[:2] == ("prediction", "M"))
        batch = cache._entries[key][0][1][0]    # a cached CaseBatch
        del key
        gc.disable()
        try:
            conn.execute(drop)
            # Only this test's variable (and getrefcount's argument) left.
            assert sys.getrefcount(batch) == 2
        finally:
            gc.enable()
        assert [key[1] for key in cache._entries] == ["OTHER", "OTHER"]
        metrics = dict(conn.execute(
            "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS "
            "WHERE METRIC LIKE 'caseset_cache.%'").rows)
        assert metrics["caseset_cache.purged"] == 2.0
        assert metrics["caseset_cache.entries"] == 2.0
        assert cache.stats()["purged"] == 2.0

    def test_discarded_entries_die_without_a_collection(self):
        import gc
        import weakref
        from repro.core.casecache import CasesetCache

        class Case:
            pass
        cache = CasesetCache(capacity=4)
        case = Case()
        cache.put(("train", "M", "fingerprint", "source"), [case], 1)
        cache.put(("prediction", "M", "fingerprint", "source"), [case], 1)
        cache.put(("train", "MM", "fingerprint", "source"), [Case()], 1)
        ref = weakref.ref(case)
        del case
        gc.disable()
        try:
            cache.discard_model("m")
            assert ref() is None
        finally:
            gc.enable()
        assert len(cache) == 1
        cache.discard_model("m")
        assert len(cache) == 1

    def test_drop_missing(self, conn_with_data):
        with pytest.raises(CatalogError):
            conn_with_data.execute("DROP MINING MODEL ghost")
        conn_with_data.execute("DROP MINING MODEL IF EXISTS ghost")

    def test_predict_before_training(self, conn_with_data):
        conn_with_data.execute(DDL)
        with pytest.raises(NotTrainedError):
            conn_with_data.execute(
                "SELECT [M].[Age] FROM [M] NATURAL PREDICTION JOIN "
                "(SELECT Gender FROM T) AS t")

    def test_content_before_training(self, conn_with_data):
        conn_with_data.execute(DDL)
        with pytest.raises(NotTrainedError):
            conn_with_data.execute("SELECT * FROM [M].CONTENT")

    def test_select_from_model_directly_is_guided(self, conn_with_data):
        conn_with_data.execute(DDL)
        with pytest.raises(Error, match="CONTENT"):
            conn_with_data.execute("SELECT * FROM [M]")


class TestDerivedStateLifetime:
    """The content graph and the snapshot entry are derived state: built on
    demand, dropped by every change to the trained state or the caseset,
    carried by no pickle and no copy."""

    TRAIN = "INSERT INTO [M] SELECT Id, Gender, Age FROM T WHERE Id {}"

    @pytest.fixture
    def trained(self, conn_with_data):
        conn_with_data.execute(DDL)
        conn_with_data.execute(self.TRAIN.format("<= 20"))
        return conn_with_data

    @staticmethod
    def dump_agrees(conn):
        from repro.core.persistence import dump_provider
        from tests.reference.reference_snapshot import reference_dump_provider
        text = dump_provider(conn.provider)
        assert text == reference_dump_provider(conn.provider)
        return text

    def test_a_pickle_and_a_replica_carry_none(self, trained):
        import pickle
        from repro.exec.partition import prediction_replica
        model = trained.model("M")
        before = pickle.dumps(model)
        self.dump_agrees(trained)
        assert set(model._derived) == {"content_root", "snapshot_entry"}
        after = pickle.dumps(model)
        assert len(after) <= len(before)
        assert pickle.loads(after)._derived == {}
        replica = prediction_replica(model)
        assert replica._derived == {} and replica.training_cases == []
        assert model._derived       # the original keeps its own

    def test_the_entry_is_reused_until_the_model_changes(self, trained):
        metrics = trained.provider.metrics
        self.dump_agrees(trained)
        encoded = metrics.value("store.snapshot_cases_encoded")
        assert encoded == 20
        self.dump_agrees(trained)
        trained.execute("SELECT * FROM [M].CONTENT")
        self.dump_agrees(trained)
        assert metrics.value("store.snapshot_cases_encoded") == encoded

    def test_never_served_across_reset_or_adopt_cases(self, trained):
        model = trained.model("M")
        first = self.dump_agrees(trained)
        model.adopt_cases([model.training_cases[0].take([0, 1, 2, 3, 4])])
        adopted = self.dump_agrees(trained)
        assert adopted != first
        model.reset()
        assert self.dump_agrees(trained) not in (first, adopted)

    def test_never_served_across_drop_and_create(self, trained):
        first = self.dump_agrees(trained)
        trained.execute("DROP MINING MODEL [M]")
        trained.execute(DDL)
        trained.execute(self.TRAIN.format("> 20"))
        assert self.dump_agrees(trained) != first

    @pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
    def test_never_served_across_a_refit_that_rolled_back(
            self, trained, monkeypatch, failure):
        """A dump taken while a refit is under way builds its entry from
        this INSERT's cases beside the old content; when the refit fails (or
        is cancelled) and the cases are rolled back, that entry must go
        with them."""
        from repro.core.persistence import dump_provider
        from tests.reference.reference_snapshot import reference_dump_provider
        model = trained.model("M")
        first = reference_dump_provider(trained.provider)
        seen = []

        def train(space, observations):
            seen.append(dump_provider(trained.provider))
            raise failure("mid-refit")
        monkeypatch.setattr(model.algorithm, "train", train)
        with pytest.raises(failure):
            trained.execute(self.TRAIN.format("> 20"))
        monkeypatch.undo()
        assert model.case_count == 20 and model.insert_count == 1
        assert seen and seen[0] != first
        assert self.dump_agrees(trained) == first
