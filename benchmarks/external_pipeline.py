"""A faithful "mining outside the DBMS" pipeline — the paper's strawman.

Section 1: "Data is dumped or sampled out of the database, and then a series
of Perl, Awk, and special purpose programs are used for data preparation.
This typically results in the familiar large trail of droppings in the file
system."

:class:`ExternalMiningPipeline` re-enacts that workflow honestly so benchmark
C1 can compare it against the in-provider path on identical work:

1. **export**: SELECT each source table and dump it to CSV files;
2. **prepare**: join/denormalise the CSVs with file-based line processing
   (the Perl/Awk stand-in) into a prepared training file — another dropping;
3. **train**: run the *same* mining algorithm over cases parsed back from
   the prepared file;
4. **predict**: dump the test set, prepare it, score it, and write a
   predictions file, which must then be re-imported into the database.

Every byte written is tallied, so the benchmark reports data movement as
well as wall-clock time.  The in-provider path does the equivalent work via
two DMX statements and moves no bytes through the file system.

The strawman is no part of the provider, so it lives beside the
benchmarks that run it (``bench_claim_data_movement``,
``bench_x4_model_compactness``; tests import it as
``benchmarks.external_pipeline``).
"""

from __future__ import annotations

import csv
import os
from typing import Dict, List, Optional, Tuple

from repro.core.bindings import CaseBatch, MappedCase
from repro.core.columns import ModelDefinition
from repro.core.model import MiningModel
from repro.sqlstore.engine import Database


class PipelineStats:
    """What the external pipeline cost: files, bytes, rows."""

    def __init__(self):
        self.files_written: List[str] = []
        self.bytes_written = 0
        self.rows_exported = 0

    def record(self, path: str, rows: int) -> None:
        self.files_written.append(path)
        self.bytes_written += os.path.getsize(path)
        self.rows_exported += rows

    def __repr__(self) -> str:
        return (f"PipelineStats({len(self.files_written)} files, "
                f"{self.bytes_written} bytes, {self.rows_exported} rows)")


class ExternalMiningPipeline:
    """Export -> file prep -> external train/score -> import."""

    def __init__(self, database: Database, workdir: str):
        self.database = database
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.stats = PipelineStats()

    # -- step 1: export -----------------------------------------------------------

    def export_table(self, query: str, filename: str) -> str:
        """Dump a query result to CSV (the 'data is dumped out' step)."""
        rowset = self.database.execute(query)
        path = os.path.join(self.workdir, filename)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(rowset.column_names())
            for row in rowset.rows:
                writer.writerow(["" if v is None else v for v in row])
        self.stats.record(path, len(rowset))
        return path

    # -- step 2: file-based preparation ---------------------------------------------

    def prepare_cases(self, customers_csv: str, sales_csv: str,
                      output_filename: str) -> str:
        """Line-oriented join of the two dumps (the Perl/Awk stand-in).

        Produces one line per customer:
        ``id,gender,age,product1:qty1;product2:qty2;...`` — yet another
        file-system dropping.
        """
        purchases: Dict[str, List[str]] = {}
        with open(sales_csv, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            for row in reader:
                record = dict(zip(header, row))
                purchases.setdefault(record["CustID"], []).append(
                    f"{record['Product Name']}:{record['Quantity']}")
        path = os.path.join(self.workdir, output_filename)
        rows = 0
        with open(customers_csv, newline="") as source, \
                open(path, "w") as target:
            reader = csv.reader(source)
            header = next(reader)
            for row in reader:
                record = dict(zip(header, row))
                basket = ";".join(purchases.get(record["Customer ID"], []))
                target.write(f"{record['Customer ID']},{record['Gender']},"
                             f"{record['Age']},{basket}\n")
                rows += 1
        self.stats.record(path, rows)
        return path

    # -- step 3: external training ----------------------------------------------------

    @staticmethod
    def parse_prepared_file(path: str) -> CaseBatch:
        """Read prepared cases back from disk (the external tool's loader),
        packed into one batch."""
        cases = []
        with open(path) as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                customer_id, gender, age, basket = line.split(",", 3)
                case = MappedCase()
                case.scalars["CUSTOMER ID"] = int(customer_id)
                case.scalars["GENDER"] = gender or None
                case.scalars["AGE"] = float(age) if age else None
                rows = []
                if basket:
                    for entry in basket.split(";"):
                        name, _, quantity = entry.partition(":")
                        rows.append({"PRODUCT NAME": name,
                                     "QUANTITY": float(quantity or 1.0)})
                case.tables["PRODUCT PURCHASES"] = rows
                cases.append(case)
        return CaseBatch.of(cases)

    def train_external_model(self, definition: ModelDefinition,
                             prepared_path: str) -> MiningModel:
        model = MiningModel(definition)
        model.train([self.parse_prepared_file(prepared_path)])
        return model

    # -- step 4: score + re-import ------------------------------------------------------

    def score_and_import(self, model: MiningModel, prepared_path: str,
                         predictions_table: str,
                         target_column: str) -> str:
        """Score the prepared test file and import predictions back."""
        cases = self.parse_prepared_file(prepared_path)
        predictions_path = os.path.join(self.workdir,
                                        f"{predictions_table}.csv")
        attribute = model.space.for_column(target_column)
        rows = 0
        with open(predictions_path, "w") as handle:
            for case, predicted in zip(cases, model.predict_cases(cases)):
                prediction = predicted.get(attribute)
                value = prediction.value if prediction is not None else None
                handle.write(f"{case.scalars['CUSTOMER ID']},{value}\n")
                rows += 1
        self.stats.record(predictions_path, rows)

        # Re-import: the "data consistency nightmare" round trip.
        self.database.execute(
            f"CREATE TABLE [{predictions_table}] "
            f"([Customer ID] LONG, Predicted TEXT)")
        table = self.database.table(predictions_table)
        with open(predictions_path) as handle:
            for line in handle:
                customer_id, _, value = line.rstrip("\n").partition(",")
                table.insert((int(customer_id), value))
        return predictions_path


AGE_MODEL_DDL = """
CREATE MINING MODEL [{name}] (
    [Customer ID] LONG KEY,
    [Gender] TEXT DISCRETE,
    [Age] DOUBLE DISCRETIZED PREDICT,
    [Product Purchases] TABLE(
        [Product Name] TEXT KEY,
        [Quantity] DOUBLE CONTINUOUS
    )
) USING [Decision_Trees_101]
"""

TRAIN_DMX = """
INSERT INTO [{name}] ([Customer ID], [Gender], [Age],
    [Product Purchases]([Product Name], [Quantity]))
SHAPE
    {{SELECT [Customer ID], [Gender], [Age] FROM Customers
      ORDER BY [Customer ID]}}
APPEND (
    {{SELECT [CustID], [Product Name], [Quantity] FROM Sales
      ORDER BY [CustID]}}
    RELATE [Customer ID] TO [CustID]) AS [Product Purchases]
"""

PREDICT_DMX = """
SELECT t.[Customer ID], [{name}].[Age]
FROM [{name}] NATURAL PREDICTION JOIN
    (SHAPE
        {{SELECT [Customer ID], [Gender] FROM Customers
          ORDER BY [Customer ID]}}
     APPEND (
        {{SELECT [CustID], [Product Name], [Quantity] FROM Sales
          ORDER BY [CustID]}}
        RELATE [Customer ID] TO [CustID]) AS [Product Purchases]) AS t
"""


def run_in_provider_pipeline(provider, model_name: str = "C1 InDb"):
    """The paper's path: define, train, and predict via DMX only."""
    provider.execute(AGE_MODEL_DDL.format(name=model_name))
    provider.execute(TRAIN_DMX.format(name=model_name))
    return provider.execute(PREDICT_DMX.format(name=model_name))


def run_external_pipeline(provider, workdir: str,
                          model_name: str = "C1 External"):
    """The strawman path on the same data; returns (rowset, stats)."""
    from repro.lang.parser import parse_statement
    from repro.core.columns import compile_model_definition

    pipeline = ExternalMiningPipeline(provider.database, workdir)
    customers_csv = pipeline.export_table(
        "SELECT [Customer ID], Gender, Age FROM Customers "
        "ORDER BY [Customer ID]", "customers.csv")
    sales_csv = pipeline.export_table(
        "SELECT CustID, [Product Name], Quantity FROM Sales "
        "ORDER BY CustID", "sales.csv")
    prepared = pipeline.prepare_cases(customers_csv, sales_csv,
                                      "prepared_cases.txt")
    definition = compile_model_definition(
        parse_statement(AGE_MODEL_DDL.format(name=model_name)))
    model = pipeline.train_external_model(definition, prepared)
    pipeline.score_and_import(model, prepared,
                              f"{model_name} Predictions", "Age")
    result = provider.database.execute(
        f"SELECT * FROM [{model_name} Predictions]")
    return result, pipeline.stats
