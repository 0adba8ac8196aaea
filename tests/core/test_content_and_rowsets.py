"""Content graph browsing and the $SYSTEM schema rowsets."""

import pytest

import repro
from repro.core.content import (
    NODE_MODEL,
    NODE_TREE,
    ContentNode,
    DistributionRow,
)

BUILTIN_SERVICES = (
    "Repro_Association_Rules", "Repro_Clustering", "Repro_Decision_Trees",
    "Repro_KMeans", "Repro_Linear_Regression", "Repro_Logistic_Regression",
    "Repro_Naive_Bayes", "Repro_Sequence_Clustering")


class TestContentNode:
    def test_walk_preorder(self):
        root = ContentNode("0", NODE_MODEL, "root")
        a = root.add_child(ContentNode("0.0", NODE_TREE, "a"))
        a.add_child(ContentNode("0.0.0", NODE_TREE, "aa"))
        root.add_child(ContentNode("0.1", NODE_TREE, "b"))
        assert [n.node_id for n in root.walk()] == \
            ["0", "0.0", "0.0.0", "0.1"]

    def test_parent_ids(self):
        root = ContentNode("0", NODE_MODEL, "root")
        child = root.add_child(ContentNode("0.0", NODE_TREE, "a"))
        assert root.parent_id == ""
        assert child.parent_id == "0"

    def test_find_and_leaf_count(self):
        root = ContentNode("0", NODE_MODEL, "root")
        a = root.add_child(ContentNode("0.0", NODE_TREE, "a"))
        a.add_child(ContentNode("0.0.0", NODE_TREE, "aa"))
        root.add_child(ContentNode("0.1", NODE_TREE, "b"))
        assert root.find("0.0.0").caption == "aa"
        assert root.find("zzz") is None
        assert root.leaf_count() == 2

    def test_xml_escapes(self):
        node = ContentNode("0", NODE_MODEL, 'a"b<c>', support=5.0,
                           probability=0.5)
        node.distribution.append(DistributionRow("attr", "x&y", 1.0, 1.0))
        xml = node.to_xml()
        assert "&quot;" in xml and "&lt;c&gt;" in xml and "x&amp;y" in xml


class TestContentQuery:
    def test_content_columns(self, age_model):
        rowset = age_model.execute(
            "SELECT * FROM [Age Prediction].CONTENT")
        names = rowset.column_names()
        for expected in ("MODEL_NAME", "NODE_UNIQUE_NAME", "NODE_TYPE",
                         "NODE_CAPTION", "PARENT_UNIQUE_NAME",
                         "NODE_SUPPORT", "NODE_PROBABILITY", "NODE_RULE",
                         "NODE_DISTRIBUTION", "CHILDREN_CARDINALITY"):
            assert expected in names
        assert len(rowset) >= 2  # model node + at least one tree

    def test_root_is_model_node(self, age_model):
        rowset = age_model.execute(
            "SELECT NODE_TYPE_NAME FROM [Age Prediction].CONTENT "
            "WHERE NODE_UNIQUE_NAME = '0'")
        assert rowset.single_value() == "Model"

    def test_parent_child_ids_consistent(self, age_model):
        rowset = age_model.execute(
            "SELECT NODE_UNIQUE_NAME, PARENT_UNIQUE_NAME "
            "FROM [Age Prediction].CONTENT")
        ids = {row[0] for row in rowset.rows}
        for node_id, parent_id in rowset.rows:
            if parent_id:
                assert parent_id in ids

    def test_distribution_nested_rowset(self, age_model):
        rowset = age_model.execute(
            "SELECT NODE_DISTRIBUTION FROM [Age Prediction].CONTENT "
            "WHERE NODE_UNIQUE_NAME = '0.0'")
        nested = rowset.rows[0][0]
        assert nested.column_names() == [
            "ATTRIBUTE_NAME", "ATTRIBUTE_VALUE", "SUPPORT", "PROBABILITY",
            "VARIANCE"]

    def test_node_rule_is_xml(self, age_model):
        rowset = age_model.execute(
            "SELECT NODE_RULE FROM [Age Prediction].CONTENT "
            "WHERE NODE_UNIQUE_NAME = '0'")
        assert rowset.single_value().startswith("<Node ")

    def test_content_filter_with_sql(self, age_model):
        rowset = age_model.execute(
            "SELECT COUNT(*) FROM [Age Prediction].CONTENT "
            "WHERE NODE_TYPE_NAME = 'Model'")
        assert rowset.single_value() == 1


class TestSystemRowsets:
    def test_mining_models(self, age_model):
        rowset = age_model.execute("SELECT * FROM $SYSTEM.MINING_MODELS")
        assert rowset.rows[0][rowset.index_of("MODEL_NAME")] == \
            "Age Prediction"
        assert rowset.rows[0][rowset.index_of("IS_POPULATED")] is True

    def test_mining_columns_include_nested(self, age_model):
        rowset = age_model.execute(
            "SELECT COLUMN_NAME, NESTED_TABLE FROM $SYSTEM.MINING_COLUMNS "
            "WHERE MODEL_NAME = 'Age Prediction'")
        by_name = {row[0]: row[1] for row in rowset.rows}
        assert by_name["Quantity"] == "Product Purchases"
        assert by_name["Gender"] is None

    def test_mining_services_lists_builtins(self, conn):
        rowset = conn.execute("SELECT SERVICE_NAME, "
                              "SUPPORTS_PARALLEL_TRAINING FROM "
                              "$SYSTEM.MINING_SERVICES")
        flags = dict(rowset.rows)
        assert set(BUILTIN_SERVICES) <= set(flags)
        # Every service trains in one pass; none trains in partitions.
        assert set(flags.values()) == {False}

    @pytest.mark.parametrize("service", BUILTIN_SERVICES)
    def test_no_builtin_trains_in_partitions(self, conn, service):
        rowset = conn.execute(
            "SELECT SUPPORTS_PARALLEL_TRAINING FROM $SYSTEM.MINING_SERVICES "
            f"WHERE SERVICE_NAME = '{service}'")
        assert rowset.rows == [(False,)]

    def test_service_parameters(self, conn):
        rowset = conn.execute(
            "SELECT PARAMETER_NAME FROM $SYSTEM.SERVICE_PARAMETERS "
            "WHERE SERVICE_NAME = 'Repro_Decision_Trees'")
        assert "MINIMUM_SUPPORT" in rowset.column_values("PARAMETER_NAME")

    def test_mining_functions(self, conn):
        rowset = conn.execute("SELECT FUNCTION_NAME FROM "
                              "$SYSTEM.MINING_FUNCTIONS")
        names = rowset.column_values("FUNCTION_NAME")
        assert "PREDICTHISTOGRAM" in names and "TOPCOUNT" in names

    def test_mining_model_content_all_models(self, age_model):
        rowset = age_model.execute(
            "SELECT DISTINCT MODEL_NAME FROM "
            "$SYSTEM.MINING_MODEL_CONTENT")
        assert rowset.column_values("MODEL_NAME") == ["Age Prediction"]

    def test_unknown_system_rowset(self, conn):
        from repro.errors import BindError
        with pytest.raises(BindError):
            conn.execute("SELECT * FROM $SYSTEM.NOPE")

    def test_empty_catalog_rowsets(self, conn):
        assert len(conn.execute(
            "SELECT * FROM $SYSTEM.MINING_MODELS")) == 0
        assert len(conn.execute(
            "SELECT * FROM $SYSTEM.MINING_MODEL_CONTENT")) == 0
