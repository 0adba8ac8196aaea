"""Experiment X4 — the model is "much more compact than the training data".

Paper, footnote 2: a DMM's "internal structure can be more abstract, e.g.,
a decision-tree is a tree-like structure, much more compact than the
training data set used to create it."

Sweep the warehouse size, export each trained model to PMML, and compare
against the byte size of the training data (the CSV the external pipeline
would dump).  Expected shape: data grows linearly, the model plateaus (its
size tracks the learnt structure, not the caseset), so the ratio crosses
in the model's favour as data grows.
"""

import os
import shutil
import tempfile

import pytest

from _helpers import AGE_MODEL_DDL, AGE_MODEL_TRAIN, make_warehouse
from external_pipeline import ExternalMiningPipeline

SCALES = [250, 1000, 4000]


def sizes_at(customers):
    connection, _ = make_warehouse(customers)
    # MINIMUM_SUPPORT scales with the caseset (1%), the usual complexity
    # control: the learnt structure then tracks the signal, not the row
    # count, which is exactly the footnote-2 claim under test.
    minimum_support = max(10, customers // 100)
    connection.execute(AGE_MODEL_DDL.format(
        name="X4",
        algorithm=f"Microsoft_Decision_Trees("
                  f"MINIMUM_SUPPORT = {minimum_support})"))
    connection.execute(AGE_MODEL_TRAIN.format(name="X4"))
    workdir = tempfile.mkdtemp(prefix="x4_")
    try:
        pipeline = ExternalMiningPipeline(connection.database, workdir)
        pipeline.export_table(
            "SELECT [Customer ID], Gender, Age FROM Customers",
            "customers.csv")
        pipeline.export_table(
            "SELECT CustID, [Product Name], Quantity FROM Sales",
            "sales.csv")
        data_bytes = pipeline.stats.bytes_written
        model_path = os.path.join(workdir, "model.xml")
        connection.execute(f"EXPORT MINING MODEL [X4] TO '{model_path}'")
        model_bytes = os.path.getsize(model_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return data_bytes, model_bytes


@pytest.mark.parametrize("customers", SCALES)
def test_bench_x4_export(benchmark, customers):
    connection, _ = make_warehouse(customers)
    connection.execute(AGE_MODEL_DDL.format(
        name="X4", algorithm="Microsoft_Decision_Trees"))
    connection.execute(AGE_MODEL_TRAIN.format(name="X4"))
    workdir = tempfile.mkdtemp(prefix="x4_bench_")
    path = os.path.join(workdir, "model.xml")
    try:
        benchmark(connection.execute,
                  f"EXPORT MINING MODEL [X4] TO '{path}'")
        benchmark.extra_info.update({
            "customers": customers,
            "model_bytes": os.path.getsize(path)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_x4_model_growth_is_sublinear():
    rows = [(customers, *sizes_at(customers)) for customers in SCALES]
    print("\nX4: training-data bytes vs model (PMML) bytes")
    print(f"  {'customers':>10} {'data KiB':>10} {'model KiB':>10} "
          f"{'model/data':>10}")
    for customers, data_bytes, model_bytes in rows:
        print(f"  {customers:>10} {data_bytes / 1024:>10.0f} "
              f"{model_bytes / 1024:>10.0f} "
              f"{model_bytes / data_bytes:>10.2f}")
    data_growth = rows[-1][1] / rows[0][1]
    model_growth = rows[-1][2] / rows[0][2]
    assert data_growth > 10  # linear in customers (16x)
    assert model_growth < data_growth / 2, \
        "the model abstraction must grow much slower than the data"
