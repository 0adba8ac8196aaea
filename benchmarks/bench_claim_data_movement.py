"""Experiment C1 — the data-movement claim of section 1/2.

Paper: mining outside the DBMS means "data is dumped or sampled out of the
database, and then a series of Perl, Awk, and special purpose programs are
used for data preparation ... a large trail of droppings in the file
system", while in-provider mining "avoids excessive data movement ...
resulting in better performance and manageability".

This bench runs the identical define/train/predict workload both ways at
several warehouse scales:

* **in-provider** — two DMX statements, zero bytes through the file system;
* **external**    — export Customers+Sales to CSV, prepare a case file with
  line processing, train/score the same algorithm outside, write a
  predictions file and re-import it.

Reported per scale: wall-clock for each path, plus the external path's file
count and bytes moved.  The predictions are identical (same algorithm, same
data), so every byte and second of difference is pure integration overhead
— the paper's point.
"""

import shutil
import tempfile

import pytest

from _helpers import make_warehouse
from external_pipeline import run_external_pipeline, run_in_provider_pipeline

SCALES = [500, 2000, 5000]


@pytest.mark.parametrize("customers", SCALES)
def test_bench_c1_in_provider(benchmark, customers):
    connection, _ = make_warehouse(customers)

    state = {"round": 0}

    def run():
        name = f"C1 InDb {state['round']}"
        state["round"] += 1
        return run_in_provider_pipeline(connection.provider,
                                        model_name=name)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result) == customers
    benchmark.extra_info.update({
        "customers": customers, "files_written": 0, "bytes_moved": 0})


@pytest.mark.parametrize("customers", SCALES)
def test_bench_c1_external_pipeline(benchmark, customers):
    connection, _ = make_warehouse(customers)
    state = {"round": 0}

    def run():
        workdir = tempfile.mkdtemp(prefix="c1_external_")
        name = f"C1 Ext {state['round']}"
        state["round"] += 1
        result, stats = run_external_pipeline(connection.provider, workdir,
                                              model_name=name)
        shutil.rmtree(workdir, ignore_errors=True)
        state["stats"] = stats
        return result

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result) == customers
    stats = state["stats"]
    benchmark.extra_info.update({
        "customers": customers,
        "files_written": len(stats.files_written),
        "bytes_moved": stats.bytes_written})
    print(f"\nC1 external @ {customers} customers: "
          f"{len(stats.files_written)} file droppings, "
          f"{stats.bytes_written / 1024:.0f} KiB moved through the file "
          f"system")


def test_c1_predictions_identical_across_paths():
    """Same algorithm + same data => the comparison isolates integration."""
    connection, _ = make_warehouse(800)
    in_db = run_in_provider_pipeline(connection.provider, "C1 Same InDb")
    workdir = tempfile.mkdtemp(prefix="c1_same_")
    try:
        external, _ = run_external_pipeline(connection.provider, workdir,
                                            model_name="C1 Same Ext")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    in_db_map = {k: str(v) for k, v in in_db.rows}
    external_map = {k: str(v) for k, v in external.rows}
    assert in_db_map == external_map
