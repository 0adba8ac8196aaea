"""Provider telemetry: the observability layer, queried with SQL.

Runs a small mining workload (create, train, predict — plus one statement
that fails on purpose), then inspects what the provider recorded about
itself, all through the same statement surface:

1. ``TRACE ON`` and the per-statement trace (``TRACE LAST``);
2. ``$SYSTEM.DM_QUERY_LOG`` — one row per statement, the error row and
   the running query reading the log included, with what each cost, and
   joined on ``FINGERPRINT`` to its shape's ``DM_STATEMENT_STATS`` row;
3. ``$SYSTEM.DM_TRACE_EVENTS`` — the span rows behind the training
   statement, filtered with a WHERE clause like any other rowset;
4. ``$SYSTEM.DM_PROVIDER_METRICS`` — latency percentiles and totals.

Run:  python examples/provider_telemetry.py
"""

import repro
from repro.datagen import WarehouseConfig, load_warehouse
from repro.errors import Error

TRAIN = """
    INSERT INTO [Age Telemetry] ([Customer ID], Gender, Age,
        [Product Purchases]([Product Name]))
    SHAPE {SELECT [Customer ID], Gender, Age FROM Customers
           ORDER BY [Customer ID]}
    APPEND ({SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}
            RELATE [Customer ID] TO CustID) AS [Product Purchases]
"""

PREDICT = """
    SELECT t.[Customer ID], [Age Telemetry].Age
    FROM [Age Telemetry] NATURAL PREDICTION JOIN
        (SELECT [Customer ID], Gender FROM Customers
         ORDER BY [Customer ID]) AS t
"""


def main() -> None:
    conn = repro.connect()
    load_warehouse(conn.database, WarehouseConfig(customers=300))

    # -- 1. trace the workload --------------------------------------------
    print(conn.execute("TRACE ON"))
    conn.execute("""
        CREATE MINING MODEL [Age Telemetry] (
            [Customer ID] LONG KEY,
            Gender TEXT DISCRETE,
            Age DOUBLE DISCRETIZED(EQUAL_COUNT, 3) PREDICT,
            [Product Purchases] TABLE ([Product Name] TEXT KEY))
        USING Microsoft_Decision_Trees
    """)
    conn.execute(TRAIN)
    conn.execute(PREDICT)
    print("\nTrace of the last statement (the prediction join):")
    print(conn.execute("TRACE LAST"))

    # A statement that fails on purpose: error rows are telemetry too.
    try:
        conn.execute("SELECT * FROM [Age Telemetry] PREDICTION JOIN "
                     "Nonexistent AS t ON [Age Telemetry].Age = t.Age")
    except Error as exc:
        print(f"\nDeliberate failure recorded: {exc}")

    # -- 2. the query log --------------------------------------------------
    print("\nQuery log (one row per statement; the running one reads it):")
    log = conn.execute("""
        SELECT STATEMENT_ID, KIND, STATUS, DURATION_MS, CPU_MS,
               ROWS_SCANNED, CASES
        FROM $SYSTEM.DM_QUERY_LOG
    """)
    print(log.pretty())
    print("\nEach finished statement beside its shape's aggregates:")
    shapes = conn.execute("""
        SELECT q.STATEMENT_ID, q.KIND, s.CALLS, s.MEAN_MS
        FROM $SYSTEM.DM_QUERY_LOG q
        JOIN $SYSTEM.DM_STATEMENT_STATS s ON q.FINGERPRINT = s.FINGERPRINT
        WHERE q.STATUS <> 'running'
    """)
    print(shapes.pretty())

    # -- 3. span rows, filtered like any rowset ---------------------------
    print("\nTrace events of the training statement (KIND = 'TRAIN'):")
    events = conn.execute("""
        SELECT e.SPAN_ID, e.SPAN, e.DURATION_MS, e.COUNTERS
        FROM $SYSTEM.DM_TRACE_EVENTS e
        JOIN $SYSTEM.DM_QUERY_LOG q ON e.STATEMENT_ID = q.STATEMENT_ID
        WHERE q.KIND = 'TRAIN'
    """)
    print(events.pretty())

    # -- 4. the metrics registry ------------------------------------------
    print("\nProvider metrics (statement latencies and activity totals):")
    metrics = conn.execute("""
        SELECT METRIC, KIND, VALUE, P50, P95
        FROM $SYSTEM.DM_PROVIDER_METRICS
        WHERE METRIC LIKE 'statements.%' OR METRIC LIKE 'training.%'
    """)
    print(metrics.pretty())

    total = conn.provider.metrics.counter("statements.total").value
    print(f"\nStatements observed by the provider: {total:g}")


if __name__ == "__main__":
    main()
