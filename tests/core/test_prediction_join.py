"""PREDICTION JOIN execution and the prediction UDF surface."""

import pytest

import repro
from repro.errors import BindError, PredictionError
from repro.sqlstore.rowset import Rowset

DDL = """
CREATE MINING MODEL [AgeM] (
    [Id] LONG KEY,
    [Gender] TEXT DISCRETE,
    [City] TEXT DISCRETE,
    [Age] DOUBLE DISCRETIZED(EQUAL_RANGE, 3) PREDICT
) USING Repro_Decision_Trees(MINIMUM_SUPPORT = 2)
"""


@pytest.fixture
def trained(conn):
    conn.execute("CREATE TABLE T (Id LONG, Gender TEXT, City TEXT, "
                 "Age DOUBLE)")
    rows = []
    for i in range(1, 61):
        gender = "Male" if i % 2 else "Female"
        city = "Metropolis" if i % 3 else "Smallville"
        age = 25.0 if gender == "Male" else 55.0
        rows.append(f"({i}, '{gender}', '{city}', {age})")
    conn.execute("INSERT INTO T VALUES " + ", ".join(rows))
    conn.execute(DDL)
    conn.execute("INSERT INTO [AgeM] SELECT Id, Gender, City, Age FROM T")
    return conn


class TestJoinForms:
    def test_natural_prediction_join(self, trained):
        rowset = trained.execute(
            "SELECT t.Id, [AgeM].[Age] FROM [AgeM] NATURAL PREDICTION "
            "JOIN (SELECT Id, Gender FROM T WHERE Id <= 2) AS t")
        assert len(rowset) == 2
        assert rowset.rows[0][1] is not None

    def test_on_clause_prediction_join(self, trained):
        rowset = trained.execute(
            "SELECT t.Id, [AgeM].[Age] FROM [AgeM] PREDICTION JOIN "
            "(SELECT Id, Gender AS Sex FROM T WHERE Id <= 2) AS t "
            "ON [AgeM].Gender = t.Sex")
        assert len(rowset) == 2

    def test_predictions_differ_by_evidence(self, trained):
        rowset = trained.execute(
            "SELECT t.Gender, [AgeM].[Age] FROM [AgeM] NATURAL "
            "PREDICTION JOIN (SELECT DISTINCT Gender FROM T) AS t "
            "ORDER BY t.Gender")
        buckets = dict(rowset.rows)
        assert buckets["Male"] != buckets["Female"]

    def test_table_source(self, trained):
        rowset = trained.execute(
            "SELECT [AgeM].[Age] FROM [AgeM] NATURAL PREDICTION JOIN "
            "T AS t")
        assert len(rowset) == 60

    def test_bare_output_column_resolves_to_model(self, trained):
        rowset = trained.execute(
            "SELECT Age FROM [AgeM] NATURAL PREDICTION JOIN "
            "(SELECT Gender FROM T WHERE Id = 1) AS t")
        assert rowset.rows[0][0] is not None

    def test_star_expansion(self, trained):
        rowset = trained.execute(
            "SELECT * FROM [AgeM] NATURAL PREDICTION JOIN "
            "(SELECT Id, Gender FROM T WHERE Id = 1) AS t")
        assert rowset.column_names() == ["Id", "Gender", "Age"]

    def test_where_on_prediction(self, trained):
        rowset = trained.execute(
            "SELECT t.Id FROM [AgeM] NATURAL PREDICTION JOIN "
            "(SELECT Id, Gender FROM T) AS t "
            "WHERE PredictProbability([Age]) > 0.9")
        assert len(rowset) == 60  # deterministic signal: all confident

    def test_order_and_top(self, trained):
        rowset = trained.execute(
            "SELECT TOP 3 t.Id FROM [AgeM] NATURAL PREDICTION JOIN "
            "(SELECT Id, Gender FROM T) AS t ORDER BY t.Id DESC")
        assert rowset.column_values("Id") == [60, 59, 58]

    def test_unknown_model_column_in_select(self, trained):
        with pytest.raises(BindError):
            trained.execute(
                "SELECT [AgeM].[Ghost] FROM [AgeM] NATURAL PREDICTION "
                "JOIN (SELECT Gender FROM T) AS t")

    def test_mixed_on_equality_rejected(self, trained):
        with pytest.raises(PredictionError):
            trained.execute(
                "SELECT t.Id FROM [AgeM] PREDICTION JOIN "
                "(SELECT Id, Gender FROM T) AS t ON t.Id = t.Id")


class TestUdfs:
    def test_predict_matches_direct_reference(self, trained):
        rowset = trained.execute(
            "SELECT [AgeM].[Age], Predict([Age]) FROM [AgeM] NATURAL "
            "PREDICTION JOIN (SELECT Gender FROM T WHERE Id = 1) AS t")
        assert rowset.rows[0][0] == rowset.rows[0][1]

    def test_probability_support_consistency(self, trained):
        rowset = trained.execute(
            "SELECT PredictProbability([Age]) AS p, "
            "PredictSupport([Age]) AS s FROM [AgeM] NATURAL PREDICTION "
            "JOIN (SELECT Gender FROM T WHERE Id = 1) AS t")
        p, s = rowset.rows[0]
        assert 0.0 <= p <= 1.0
        assert s > 0

    def test_probability_of_specific_value(self, trained):
        rowset = trained.execute(
            "SELECT PredictHistogram([Age]) AS h FROM [AgeM] NATURAL "
            "PREDICTION JOIN (SELECT Gender FROM T WHERE Id = 1) AS t")
        histogram = rowset.rows[0][0]
        value, _, probability = histogram.rows[0][:3]
        specific = trained.execute(
            f"SELECT PredictProbability([Age], '{value}') FROM [AgeM] "
            f"NATURAL PREDICTION JOIN (SELECT Gender FROM T WHERE Id = 1) "
            f"AS t")
        assert specific.single_value() == pytest.approx(probability)

    def test_histogram_probabilities_sum_to_one(self, trained):
        rowset = trained.execute(
            "SELECT PredictHistogram([Age]) FROM [AgeM] NATURAL "
            "PREDICTION JOIN (SELECT Gender FROM T WHERE Id = 1) AS t")
        histogram = rowset.rows[0][0]
        assert isinstance(histogram, Rowset)
        total = sum(row[histogram.index_of("$PROBABILITY")]
                    for row in histogram.rows)
        assert total == pytest.approx(1.0)

    def test_topcount_limits_histogram(self, trained):
        rowset = trained.execute(
            "SELECT TopCount(PredictHistogram([Age]), [$PROBABILITY], 1) "
            "FROM [AgeM] NATURAL PREDICTION JOIN "
            "(SELECT Gender FROM T WHERE Id = 1) AS t")
        assert len(rowset.rows[0][0]) == 1

    def test_topsum_and_toppercent(self, trained):
        full = trained.execute(
            "SELECT PredictHistogram([Age]) FROM [AgeM] NATURAL "
            "PREDICTION JOIN (SELECT Gender FROM T WHERE Id = 1) AS t"
        ).rows[0][0]
        top_sum = trained.execute(
            "SELECT TopSum(PredictHistogram([Age]), [$PROBABILITY], 0.99) "
            "FROM [AgeM] NATURAL PREDICTION JOIN "
            "(SELECT Gender FROM T WHERE Id = 1) AS t").rows[0][0]
        assert 1 <= len(top_sum) <= len(full)
        top_percent = trained.execute(
            "SELECT TopPercent(PredictHistogram([Age]), [$PROBABILITY], "
            "50) FROM [AgeM] NATURAL PREDICTION JOIN "
            "(SELECT Gender FROM T WHERE Id = 1) AS t").rows[0][0]
        assert len(top_percent) >= 1

    def test_range_functions_bracket_the_bucket(self, trained):
        rowset = trained.execute(
            "SELECT RangeMin([Age]) AS lo, RangeMid([Age]) AS mid, "
            "RangeMax([Age]) AS hi FROM [AgeM] NATURAL PREDICTION JOIN "
            "(SELECT Gender FROM T WHERE Id = 1) AS t")
        lo, mid, hi = rowset.rows[0]
        assert lo <= mid <= hi
        assert mid == pytest.approx((lo + hi) / 2)

    def test_range_requires_discretized(self, conn):
        conn.execute("CREATE TABLE T2 (Id LONG, G TEXT, Y DOUBLE)")
        conn.execute("INSERT INTO T2 VALUES (1,'a',1.0),(2,'b',2.0),"
                     "(3,'a',1.5),(4,'b',2.5)")
        conn.execute("CREATE MINING MODEL C (Id LONG KEY, G TEXT "
                     "DISCRETE, Y DOUBLE CONTINUOUS PREDICT) USING "
                     "Repro_Decision_Trees(MINIMUM_SUPPORT=1)")
        conn.execute("INSERT INTO C SELECT Id, G, Y FROM T2")
        with pytest.raises(PredictionError):
            conn.execute("SELECT RangeMid([Y]) FROM C NATURAL PREDICTION "
                         "JOIN (SELECT G FROM T2) AS t")

    def test_cluster_udf_on_non_clustering_model(self, trained):
        with pytest.raises(PredictionError):
            trained.execute(
                "SELECT Cluster() FROM [AgeM] NATURAL PREDICTION JOIN "
                "(SELECT Gender FROM T WHERE Id = 1) AS t")

    def test_scalar_functions_still_work(self, trained):
        rowset = trained.execute(
            "SELECT UPPER(t.Gender) FROM [AgeM] NATURAL PREDICTION JOIN "
            "(SELECT Gender FROM T WHERE Id = 1) AS t")
        assert rowset.single_value() == "MALE"

    def test_continuous_prediction_variance(self, conn):
        conn.execute("CREATE TABLE T3 (Id LONG, G TEXT, Y DOUBLE)")
        rows = ", ".join(f"({i}, '{'a' if i % 2 else 'b'}', "
                         f"{10.0 if i % 2 else 20.0})"
                         for i in range(1, 21))
        conn.execute(f"INSERT INTO T3 VALUES {rows}")
        conn.execute("CREATE MINING MODEL R (Id LONG KEY, G TEXT "
                     "DISCRETE, Y DOUBLE CONTINUOUS PREDICT) USING "
                     "Repro_Decision_Trees(MINIMUM_SUPPORT=2)")
        conn.execute("INSERT INTO R SELECT Id, G, Y FROM T3")
        rowset = conn.execute(
            "SELECT [R].[Y], PredictVariance([Y]), PredictStdev([Y]) "
            "FROM R NATURAL PREDICTION JOIN (SELECT 'a' AS G) AS t")
        y, variance, stdev = rowset.rows[0]
        assert y == pytest.approx(10.0)
        assert variance == pytest.approx(0.0, abs=1e-9)
        assert stdev == pytest.approx(0.0, abs=1e-9)


class TestFlattened:
    def test_flattened_prediction(self, trained):
        rowset = trained.execute(
            "SELECT FLATTENED t.Id, PredictHistogram([Age]) AS h "
            "FROM [AgeM] NATURAL PREDICTION JOIN "
            "(SELECT Id, Gender FROM T WHERE Id = 1) AS t")
        assert "h.Age" in rowset.column_names()
        assert len(rowset) >= 1
        assert not any(isinstance(v, Rowset) for v in rowset.rows[0])


class TestStreamedColumnInference:
    """Column metadata of a streamed join comes from a buffered prefix that
    grows until every column has shown a non-NULL value."""

    def test_all_null_column_over_many_batches(self, trained):
        trained.execute("CREATE TABLE N (Id LONG, Gender TEXT, Note TEXT)")
        trained.execute("INSERT INTO N VALUES " + ", ".join(
            f"({i}, 'Male', NULL)" for i in range(1, 201)))
        statement = ("SELECT t.Id, t.Note, [AgeM].[Age] FROM [AgeM] "
                     "NATURAL PREDICTION JOIN "
                     "(SELECT Id, Gender, Note FROM N) AS t")
        whole = trained.execute(statement)
        stream = trained.execute_stream(statement, batch_size=3)
        assert [(c.name, c.type) for c in stream.columns] == \
            [(c.name, c.type) for c in whole.columns]
        batches = list(stream.batches())
        assert len(batches) == 67
        assert [row for batch in batches for row in batch] == whole.rows

    @pytest.mark.parametrize("transport", ["embedded", "stream", "wire"])
    @pytest.mark.parametrize("suffix", ["", " ORDER BY t.Id"])
    def test_an_empty_result_types_its_source_columns(self, trained,
                                                      transport, suffix):
        """With no row to sample, a plain source column is typed as the
        source's column (as the plain SELECT of it is); every other
        output keeps the first-non-NULL rule, which gives TEXT."""
        from repro.client import connect as net_connect
        from repro.server import DmxServer

        statement = ("SELECT t.Id, t.Gender AS g, PredictProbability([Age]) "
                     "AS p, [AgeM].[Age] FROM [AgeM] NATURAL PREDICTION JOIN "
                     "(SELECT Id, Gender FROM T) AS t WHERE t.Id < 0" + suffix)
        plain = trained.execute("SELECT Id, Gender FROM T WHERE Id < 0")
        assert [c.type.name for c in plain.columns] == ["LONG", "TEXT"]
        if transport == "wire":
            with DmxServer(trained.provider, port=0) as server, \
                    net_connect("127.0.0.1", server.port) as wire:
                columns = wire.execute(statement).columns
            assert server.thread_errors == []
        elif transport == "stream":
            columns = trained.execute_stream(statement).columns
        else:
            columns = trained.execute(statement).columns
        assert [(c.name, c.type.name) for c in columns] == [
            ("Id", "LONG"), ("g", "TEXT"), ("p", "TEXT"), ("Age", "TEXT")]

    def test_each_batch_is_sampled_once(self):
        """The prefix used to be rescanned, whole, for every new batch
        while a column stayed all-NULL: quadratic in the batch count.  The
        head is the engine's, which every SELECT's result shares."""
        from repro.sqlstore.engine import typed_stream

        reads = []

        class Row(tuple):
            def __getitem__(self, position):
                reads.append(position)
                return tuple.__getitem__(self, position)

        batches = [[Row((number, None, None)) for number in range(start,
                                                                  start + 4)]
                   for start in range(0, 1200, 4)]
        batches[-1][-1] = Row((1199, None, "late"))
        stream = typed_stream(["a", "b", "c"], [None] * 3, iter(batches))
        assert [c.type.name for c in stream.columns] == \
            ["LONG", "TEXT", "TEXT"]
        # Column a: the first row.  Columns b and c: every row, once (c
        # twice where it is tested and then taken).
        assert len(reads) <= 2 * 1200 + 4
        assert list(stream.batches()) == batches

    @pytest.mark.parametrize("statement", [
        "SELECT t.Id, t.Gender FROM [AgeM] NATURAL PREDICTION JOIN "
        "(SELECT Id, Gender FROM T) AS t",
        "SELECT t.* FROM [AgeM] NATURAL PREDICTION JOIN "
        "(SELECT Id, Gender FROM T) AS t",
        "SELECT TOP 5 t.Id FROM [AgeM] PREDICTION JOIN "
        "(SELECT Id, Gender AS Sex FROM T) AS t ON [AgeM].Gender = t.Sex",
    ])
    def test_a_stream_dropped_unread_releases_the_model(self, trained,
                                                        statement):
        """A stream of declared columns reads no row when it opens, so
        the model's read lease is taken before anything pulls it; dropped
        unread, it gives the lease back and the model can train again."""
        import threading

        stream = trained.execute_stream(statement)
        assert all(c.type.name in ("LONG", "TEXT") for c in stream.columns)
        del stream
        retrain = threading.Thread(target=trained.execute, args=(
            "INSERT INTO [AgeM] SELECT Id, Gender, City, Age FROM T",),
            daemon=True)
        retrain.start()
        retrain.join(timeout=30)
        assert not retrain.is_alive(), "the retrain waits on a read lease"


class TestOnClauseNestedTables:
    """Every column of one model nested table must be joined to the same
    source nested table.  Joining ``P.name`` to ``PA`` and to ``PB`` once
    read ``PB``'s rows at ``PA.name``'s position and answered without an
    error (Female/Male/Female where ``PA`` alone gives Male/Female/Male);
    it is a BindError of the statement, embedded and over the wire."""

    SETUP = [
        "CREATE TABLE C (Id LONG, Gender TEXT)",
        "INSERT INTO C VALUES (1, 'Male'), (2, 'Female'), (3, 'Male')",
        "CREATE TABLE PA (cid LONG, name TEXT)",
        "INSERT INTO PA VALUES (1, 'tv'), (2, 'wine'), (3, 'tv')",
        "CREATE TABLE PB (cid LONG, other TEXT)",
        "INSERT INTO PB VALUES (1, 'wine'), (2, 'tv'), (3, 'wine')",
        "CREATE MINING MODEL mm (Id LONG KEY, Gender TEXT DISCRETE "
        "PREDICT, P TABLE(name TEXT KEY)) USING Repro_Naive_Bayes",
        "INSERT INTO mm (Id, Gender, P(name)) SHAPE {SELECT Id, Gender "
        "FROM C ORDER BY Id} APPEND ({SELECT cid, name FROM PA ORDER BY "
        "cid} RELATE Id TO cid) AS P",
    ]
    SCORE = ("SELECT t.Id, mm.Gender FROM mm PREDICTION JOIN "
             "(SHAPE {SELECT Id FROM C ORDER BY Id} "
             "APPEND ({SELECT cid, name FROM PA ORDER BY cid} "
             "RELATE Id TO cid) AS PA, "
             "({SELECT cid, other FROM PB ORDER BY cid} "
             "RELATE Id TO cid) AS PB) AS t ON {on} ORDER BY t.Id")

    @pytest.mark.parametrize("transport", ["embedded", "wire"])
    def test_one_model_table_joined_to_two_source_tables(self, conn,
                                                         transport):
        from repro.client import connect as net_connect
        from repro.server import DmxServer

        for statement in self.SETUP:
            conn.execute(statement)

        def check(execute):
            assert execute(self.SCORE.replace(
                "{on}", "mm.P.name = t.PA.name")).rows == \
                [(1, "Male"), (2, "Female"), (3, "Male")]
            with pytest.raises(BindError, match="two source nested tables"):
                execute(self.SCORE.replace(
                    "{on}",
                    "mm.P.name = t.PA.name AND mm.P.name = t.PB.other"))

        if transport == "wire":
            with DmxServer(conn.provider, port=0) as server, \
                    net_connect("127.0.0.1", server.port) as wire:
                check(wire.execute)
            assert server.thread_errors == []
        else:
            check(conn.execute)
