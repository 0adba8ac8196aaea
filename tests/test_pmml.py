"""PMML persistence: structure, export/import, lossless round trips."""

import xml.etree.ElementTree as ET

import pytest

import repro
from repro.algorithms import algorithm_services
from repro.errors import CatalogError, Error
from repro.pmml import read_pmml, to_pmml
from repro.pmml.writer import definition_to_ddl

WAREHOUSE_SETUP = [
    "CREATE TABLE C (Id LONG, G TEXT, Age DOUBLE)",
    "INSERT INTO C VALUES " + ", ".join(
        f"({i}, '{'m' if i % 2 else 'f'}', {20.0 + (i % 4) * 10})"
        for i in range(1, 41)),
    "CREATE TABLE S (Cid LONG, P TEXT)",
    "INSERT INTO S VALUES " + ", ".join(
        f"({i}, '{p}')" for i in range(1, 41)
        for p in (("tv", "beer") if i % 2 else ("wine",))),
]

MODEL_DDLS = {
    "Repro_Decision_Trees": (
        "CREATE MINING MODEL [M] (Id LONG KEY, G TEXT DISCRETE, "
        "Age DOUBLE DISCRETIZED(EQUAL_COUNT, 3) PREDICT, "
        "B TABLE(P TEXT KEY)) "
        "USING Repro_Decision_Trees(MINIMUM_SUPPORT = 2)"),
    "Repro_Naive_Bayes": (
        "CREATE MINING MODEL [M] (Id LONG KEY, G TEXT DISCRETE PREDICT, "
        "Age DOUBLE CONTINUOUS, B TABLE(P TEXT KEY)) "
        "USING Repro_Naive_Bayes"),
    "Repro_Clustering": (
        "CREATE MINING MODEL [M] (Id LONG KEY, G TEXT DISCRETE, "
        "Age DOUBLE CONTINUOUS PREDICT, B TABLE(P TEXT KEY)) "
        "USING Repro_Clustering(CLUSTER_COUNT = 2)"),
    "Repro_KMeans": (
        "CREATE MINING MODEL [M] (Id LONG KEY, G TEXT DISCRETE, "
        "Age DOUBLE CONTINUOUS PREDICT, B TABLE(P TEXT KEY)) "
        "USING Repro_KMeans(CLUSTER_COUNT = 2)"),
    "Repro_Association_Rules": (
        "CREATE MINING MODEL [M] (Id LONG KEY, "
        "B TABLE(P TEXT KEY) PREDICT) "
        "USING Repro_Association_Rules(MINIMUM_SUPPORT = 0.1, "
        "MINIMUM_PROBABILITY = 0.2)"),
    "Repro_Linear_Regression": (
        "CREATE MINING MODEL [M] (Id LONG KEY, G TEXT DISCRETE, "
        "Age DOUBLE CONTINUOUS PREDICT, B TABLE(P TEXT KEY)) "
        "USING Repro_Linear_Regression"),
    "Repro_Logistic_Regression": (
        "CREATE MINING MODEL [M] (Id LONG KEY, G TEXT DISCRETE PREDICT, "
        "Age DOUBLE CONTINUOUS, B TABLE(P TEXT KEY)) "
        "USING Repro_Logistic_Regression"),
    "Repro_Sequence_Clustering": (
        "CREATE MINING MODEL [M] (Id LONG KEY, "
        "Clicks TABLE(Step LONG KEY SEQUENCE_TIME, Page TEXT DISCRETE)) "
        "USING Repro_Sequence_Clustering(CLUSTER_COUNT = 2)"),
}

# Sequence clustering reads click streams, not the customer warehouse.
SEQUENCE_SETUP = [
    "CREATE TABLE E (Id LONG, Step LONG, Page TEXT)",
    "INSERT INTO E VALUES " + ", ".join(
        f"({i}, {step}, '{page}')" for i in range(30)
        for step, page in enumerate(
            ["A", "B", "C"] if i % 2 else ["X", "Y", "X"])),
]

CLICKS = """
SHAPE {SELECT DISTINCT Id FROM E ORDER BY Id}
APPEND ({SELECT Id AS EID, Step, Page FROM E ORDER BY Id}
        RELATE Id TO EID) AS Clicks
"""

TRAIN = """
INSERT INTO [M] SHAPE {SELECT Id, G, Age FROM C ORDER BY Id}
APPEND ({SELECT Cid, P FROM S ORDER BY Cid} RELATE Id TO Cid) AS B
"""

TRAIN_BASKET_ONLY = """
INSERT INTO [M] (Id, B(P))
SHAPE {SELECT Id FROM C ORDER BY Id}
APPEND ({SELECT Cid, P FROM S ORDER BY Cid} RELATE Id TO Cid) AS B
"""

PREDICT = """
SELECT [M].* FROM [M] NATURAL PREDICTION JOIN
(SHAPE {SELECT Id, G, Age FROM C WHERE Id <= 10 ORDER BY Id}
 APPEND ({SELECT Cid, P FROM S ORDER BY Cid} RELATE Id TO Cid) AS B) AS t
"""


TRAINS = {
    "Repro_Association_Rules": TRAIN_BASKET_ONLY,
    "Repro_Sequence_Clustering": "INSERT INTO [M] (Id, Clicks(Step, Page))"
                                 + CLICKS,
}

PREDICTS = {
    "Repro_Sequence_Clustering": "SELECT t.Id, Cluster(), "
    "ClusterProbability() FROM [M] NATURAL PREDICTION JOIN (" + CLICKS
    + ") AS t",
}


def setup_statements(service):
    if service == "Repro_Sequence_Clustering":
        return SEQUENCE_SETUP
    return WAREHOUSE_SETUP


def trained_connection(service):
    conn = repro.connect()
    for statement in setup_statements(service):
        conn.execute(statement)
    conn.execute(MODEL_DDLS[service])
    conn.execute(TRAINS.get(service, TRAIN))
    return conn


class TestDocumentStructure:
    def test_is_valid_xml_with_expected_sections(self):
        conn = trained_connection("Repro_Decision_Trees")
        document = to_pmml(conn.model("M"))
        root = ET.fromstring(document)
        assert root.tag == "PMML"
        tags = {child.tag for child in root}
        assert {"Header", "DataDictionary", "MiningSchema",
                "ModelContent", "Extension"} <= tags

    def test_pmml_facet_query(self):
        conn = trained_connection("Repro_Decision_Trees")
        rowset = conn.execute("SELECT PMML FROM [M].PMML")
        assert rowset.single_value().startswith("<?xml")

    def test_ddl_reconstruction_round_trips(self):
        conn = trained_connection("Repro_Decision_Trees")
        ddl = definition_to_ddl(conn.model("M").definition)
        from repro.lang.parser import parse_statement
        from repro.core.columns import compile_model_definition
        definition = compile_model_definition(parse_statement(ddl))
        assert definition.name == "M"
        assert [c.name for c in definition.columns] == \
            [c.name for c in conn.model("M").definition.columns]


@pytest.mark.parametrize(
    "service", [cls.SERVICE_NAME for cls in algorithm_services()])
def test_round_trip_preserves_predictions(service):
    conn = trained_connection(service)
    predict = PREDICTS.get(service, PREDICT)
    before = conn.execute(predict)
    original = conn.model("M")
    restored = read_pmml(to_pmml(original))

    conn2 = repro.connect()
    for statement in setup_statements(service):
        conn2.execute(statement)
    conn2.provider.models[restored.name.upper()] = restored
    after = conn2.execute(predict)

    # JSON floats round-trip, so the restored model is equal, not close.
    assert restored.algorithm.state() == original.algorithm.state()
    assert before.column_names() == after.column_names()
    assert before.rows == after.rows


class TestExportImportStatements:
    def test_export_import_via_dmx(self, tmp_path):
        conn = trained_connection("Repro_Decision_Trees")
        path = tmp_path / "model.xml"
        conn.execute(f"EXPORT MINING MODEL [M] TO '{path}'")
        assert path.exists()
        conn.execute(f"IMPORT MINING MODEL FROM '{path}' AS [M2]")
        assert conn.model("M2").is_trained

    def test_import_duplicate_name_rejected(self, tmp_path):
        conn = trained_connection("Repro_Decision_Trees")
        path = tmp_path / "model.xml"
        conn.execute(f"EXPORT MINING MODEL [M] TO '{path}'")
        with pytest.raises(CatalogError):
            conn.execute(f"IMPORT MINING MODEL FROM '{path}'")

    def test_imported_model_content_browsable(self, tmp_path):
        conn = trained_connection("Repro_Decision_Trees")
        path = tmp_path / "model.xml"
        conn.execute(f"EXPORT MINING MODEL [M] TO '{path}'")
        conn.execute(f"IMPORT MINING MODEL FROM '{path}' AS [M2]")
        content = conn.execute("SELECT COUNT(*) FROM [M2].CONTENT")
        assert content.single_value() >= 2


class TestReaderErrors:
    def test_rejects_non_xml(self):
        with pytest.raises(Error):
            read_pmml("this is not xml")

    def test_rejects_wrong_root(self):
        with pytest.raises(Error):
            read_pmml("<NotPmml/>")

    def test_rejects_foreign_pmml(self):
        with pytest.raises(Error, match="repro-state"):
            read_pmml("<PMML version='1.0'><TreeModel/></PMML>")
