"""Exception hierarchy and the public package surface."""

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_everything_derives_from_error(self):
        for name in ("ParseError", "BindError", "SchemaError", "TypeError_",
                     "TrainError", "PredictionError", "NotTrainedError",
                     "CatalogError", "CapabilityError"):
            assert issubclass(getattr(errors, name), errors.Error)

    def test_not_trained_is_a_prediction_error(self):
        assert issubclass(errors.NotTrainedError, errors.PredictionError)

    def test_parse_error_carries_position(self):
        error = errors.ParseError("bad token", line=3, column=7)
        assert error.line == 3 and error.column == 7
        assert "line 3" in str(error)

    def test_parse_error_without_position(self):
        error = errors.ParseError("bad token")
        assert error.line is None
        assert "line" not in str(error)

    def test_one_except_catches_all_provider_failures(self, conn):
        failing_statements = [
            "SELEKT 1",                                   # ParseError
            "SELECT * FROM Missing",                      # BindError
            "DROP MINING MODEL Ghost",                    # CatalogError
            "CREATE TABLE T (a BLOB)",                    # TypeError_
        ]
        for statement in failing_statements:
            with pytest.raises(errors.Error):
                conn.execute(statement)


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_connect_returns_fresh_providers(self):
        a = repro.connect()
        b = repro.connect()
        a.execute("CREATE TABLE T (x LONG)")
        assert not b.database.has_table("T")

    def test_rowset_is_importable_and_usable(self):
        rowset = repro.Rowset([repro.RowsetColumn("a")], [("x",)])
        assert rowset.column_values("a") == ["x"]

    def test_algorithm_services_listing(self):
        names = {cls.SERVICE_NAME for cls in repro.algorithm_services()}
        assert "Repro_Decision_Trees" in names

    def test_flatten_rowset_exported(self, conn):
        conn.execute("CREATE TABLE T (a LONG)")
        conn.execute("INSERT INTO T VALUES (1)")
        rowset = conn.execute("SELECT * FROM T")
        assert repro.flatten_rowset(rowset).rows == rowset.rows
