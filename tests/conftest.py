"""Shared fixtures: fresh providers, the paper's warehouse, trained models."""

import pytest
from hypothesis import settings

import repro
from repro.datagen import WarehouseConfig, load_warehouse

# Hypothesis profiles (``--hypothesis-profile=NAME``).  A test that pins its
# own ``@settings(max_examples=…)`` keeps it under either profile; a test
# that leaves the budget open (tests/differential/test_columnar_cases.py,
# test_compiled_vs_interpreted.py, test_prediction_kernel.py,
# test_schema_from_columns.py, test_scoring_tables.py,
# test_snapshot_fragments.py, test_training_from_counts.py,
# test_prediction_tail.py,
# tests/lang/test_lexer_differential.py,
# test_template_differential.py, tests/sqlstore/
# test_page_codec_differential.py, test_paged_positions.py,
# test_ordered_input_differential.py, test_position_binding.py — each compares
# ``src/`` with its oracle under tests/reference/ — the batch-maintenance
# properties in tests/property/test_storage_props.py and
# test_stats_props.py, which compare with brute force and a rebuild, and
# the INSERT … VALUES round trip in tests/property/test_parser_roundtrip.py)
# runs small in tier-1, which only has to notice that a path broke, and deep
# in its CI step, which is where these modules find bugs.
settings.register_profile("default", max_examples=25)
settings.register_profile("deep", max_examples=2000, deadline=None)

AGE_PREDICTION_DDL = """
CREATE MINING MODEL [Age Prediction] (
%Name of Model
    [Customer ID] LONG KEY,
    [Gender] TEXT DISCRETE,
    [Age] DOUBLE DISCRETIZED PREDICT, %prediction column
    [Product Purchases] TABLE(
        [Product Name] TEXT KEY,
        [Quantity] DOUBLE NORMAL CONTINUOUS,
        [Product Type] TEXT DISCRETE RELATED TO [Product Name]
    )
) USING [Decision_Trees_101]
%Mining Algorithm used
"""

AGE_PREDICTION_INSERT = """
INSERT INTO [Age Prediction] ([Customer ID], [Gender], [Age],
    [Product Purchases]([Product Name], [Quantity], [Product Type]))
SHAPE
    {SELECT [Customer ID], [Gender], [Age] FROM Customers
     ORDER BY [Customer ID]}
APPEND (
    {SELECT [CustID], [Product Name], [Quantity], [Product Type] FROM Sales
     ORDER BY [CustID]}
    RELATE [Customer ID] To [CustID]) AS [Product Purchases]
"""


@pytest.fixture
def conn():
    """A fresh connection to an empty provider."""
    connection = repro.connect()
    yield connection
    connection.close()


@pytest.fixture
def warehouse(conn):
    """Connection with the synthetic warehouse loaded (500 customers)."""
    data = load_warehouse(conn.database, WarehouseConfig(customers=500))
    conn.warehouse_data = data
    return conn


@pytest.fixture
def paper_tables(conn):
    """Connection holding exactly the paper's Customer ID 1 example."""
    load_warehouse(conn.database,
                   WarehouseConfig(customers=1, include_paper_customer=True))
    return conn


@pytest.fixture
def age_model(warehouse):
    """The paper's [Age Prediction] model, trained on the warehouse."""
    warehouse.execute(AGE_PREDICTION_DDL)
    warehouse.execute(AGE_PREDICTION_INSERT)
    return warehouse
