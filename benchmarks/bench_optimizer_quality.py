"""Optimizer quality — cardinality q-error.

The cost-based planner's estimates must be honest: across the full
differential statement grid, how far off are the root-node cardinality
estimates?  The standard metric is the *q-error* —
``max(est/actual, actual/est)``, clamped to 1 when both sides agree — and
the gate is relative: the median q-error with statistics must be no worse
than the heuristic defaults produce.  Statistics that estimate *worse*
than guessing would be a regression the differential suite cannot see
(rows stay identical either way).

Run directly under pytest (no pytest-benchmark fixture needed):

    PYTHONPATH=src python -m pytest benchmarks/bench_optimizer_quality.py -s
"""

import statistics as pystats

import repro
from repro.obs.explain import is_plan_rowset

from tests.differential.test_stream_vs_materialize import (
    STATEMENTS,
    _load,
)


def _root(conn, statement):
    rowset = conn.execute(f"EXPLAIN ANALYZE {statement}")
    assert is_plan_rowset(rowset)
    names = [c.name for c in rowset.columns]
    return dict(zip(names, rowset.rows[0]))


def _q_error(estimate, actual):
    estimate = max(float(estimate), 1.0)
    actual = max(float(actual), 1.0)
    return max(estimate / actual, actual / estimate)


def _grid_conn(**kwargs):
    conn = repro.connect(caseset_cache_capacity=0, **kwargs)
    _load(conn)
    return conn


def test_bench_grid_q_error():
    with_stats = _grid_conn()
    without = _grid_conn(statistics=False)
    errors = {"stats": [], "default": []}
    for statement in STATEMENTS:
        for label, conn in (("stats", with_stats), ("default", without)):
            root = _root(conn, statement)
            if root["EST_ROWS"] is None or root["ACTUAL_ROWS"] is None:
                continue
            errors[label].append(_q_error(root["EST_ROWS"],
                                          root["ACTUAL_ROWS"]))
    with_stats.close()
    without.close()

    medians = {label: pystats.median(values)
               for label, values in errors.items()}
    worst = {label: max(values) for label, values in errors.items()}
    print(f"\n[q-error] {len(errors['stats'])} grid statements: "
          f"median {medians['stats']:.2f} with statistics vs "
          f"{medians['default']:.2f} heuristic defaults "
          f"(worst {worst['stats']:.1f} vs {worst['default']:.1f})")
    assert errors["stats"], "grid produced no measurable estimates"
    assert medians["stats"] <= medians["default"], (
        "statistics estimate worse than guessing")

