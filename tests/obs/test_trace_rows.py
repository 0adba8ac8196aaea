"""One record of what a statement ran, read the same by every view.

A statement's counters live in one dict and its captured regions in one
flat list; :meth:`StatementRecord.trace_rows` turns them into the rows that
``$SYSTEM.DM_TRACE_EVENTS``, the Chrome trace, the slow-query sink and
``TRACE LAST`` render.  Two properties follow and are pinned here:

* span capture observes, it does not count — over the telemetry grid
  (``test_telemetry_golden.py``'s statements, failures and streams), the
  ``DM_QUERY_LOG`` totals and the statement row's ``COUNTERS`` are the same
  with ``TRACE ON`` as with ``TRACE OFF``, and under capture each
  statement's rows are ``SPAN_COUNT`` many, every parent listed before its
  children;
* every view shows the same rows.
"""

import pytest

import repro
from repro.core.schema_rowsets import _format_pairs, system_rowset
from repro.obs.export import chrome_trace_events

from tests.differential.test_stream_vs_materialize import STATEMENTS, _load
from tests.obs.test_telemetry_golden import _failures

MINING = [
    "CREATE MINING MODEL Spend (cid LONG KEY, age LONG CONTINUOUS, "
    "city TEXT DISCRETE PREDICT) USING Microsoft_Decision_Trees",
    "INSERT INTO Spend (cid, age, city) SELECT cid, age, city "
    "FROM Customers",
    "SELECT t.cid, Spend.city FROM Spend NATURAL PREDICTION JOIN "
    "(SELECT cid, age FROM Customers) AS t",
]

#: A join streamed to its end: its nodes run while the consumer pulls.
STREAMED = ("SELECT c.name, o.product FROM Customers AS c "
            "JOIN Orders AS o ON c.cid = o.cid")


def _rows(provider, name: str) -> list:
    rowset = system_rowset(provider, name)
    names = [column.name for column in rowset.columns]
    return [dict(zip(names, row)) for row in rowset.rows]


def _run_grid(capture: bool, **options):
    conn = repro.connect(**options)
    _load(conn)
    if capture:
        conn.execute("TRACE ON")
    for statement in STATEMENTS + MINING:
        conn.execute(statement)
    assert sum(len(batch) for batch in
               conn.execute_stream(STREAMED, batch_size=5).batches()) > 5
    _failures(conn)
    return conn


@pytest.fixture(scope="module")
def grids():
    conns = {capture: _run_grid(capture) for capture in (False, True)}
    yield conns
    for conn in conns.values():
        conn.close()


def _totals(provider) -> list:
    return [(row["STATEMENT_ID"], row["STATEMENT"], row["STATUS"],
             row["ROWS_SCANNED"], row["ROWS_OUT"], row["CASES"])
            for row in _rows(provider, "DM_QUERY_LOG")
            if row["STATUS"] != "running"]


def _statement_counters(provider) -> list:
    return [(row["STATEMENT_ID"], row["COUNTERS"])
            for row in _rows(provider, "DM_TRACE_EVENTS")
            if row["DEPTH"] == 0]


def test_capture_does_not_move_counters(grids):
    off, on = grids[False].provider, grids[True].provider
    assert _totals(on) == _totals(off)
    assert _statement_counters(on) == _statement_counters(off)
    statement_counters = dict(_statement_counters(on))
    assert all("tokens=" in statement_counters[statement_id]
               for statement_id, text, status, *_ in _totals(on)
               if status == "ok")


def test_captured_rows_match_span_count_and_nest(grids):
    provider = grids[True].provider
    events = {}
    for row in _rows(provider, "DM_TRACE_EVENTS"):
        events.setdefault(row["STATEMENT_ID"], []).append(row)
    log = [row for row in _rows(provider, "DM_QUERY_LOG")
           if row["STATUS"] != "running"]
    assert {row["STATEMENT_ID"] for row in log} == set(events)
    assert any(row["STATEMENT"] == STREAMED and row["SPAN_COUNT"] > 3
               for row in log)
    for row in log:
        rows = events[row["STATEMENT_ID"]]
        assert len(rows) == row["SPAN_COUNT"], row["STATEMENT"]
        seen = set()
        for event in rows:
            assert event["PARENT_SPAN_ID"] is None \
                if event["DEPTH"] == 0 else event["PARENT_SPAN_ID"] in seen
            seen.add(event["SPAN_ID"])


def test_every_view_renders_the_same_rows(tmp_path):
    conn = repro.connect(telemetry_path=str(tmp_path / "slow.jsonl"))
    try:
        conn.execute("CREATE TABLE T (id INT, v TEXT)")
        conn.execute("INSERT INTO T VALUES (1, 'a'), (2, 'b'), (3, 'a')")
        conn.execute("TRACE ON")
        conn.execute("CREATE MINING MODEL M (id LONG KEY, "
                     "v TEXT DISCRETE PREDICT) USING Microsoft_Naive_Bayes")
        conn.execute("INSERT INTO M (id, v) SELECT id, v FROM T")
        conn.execute("SELECT v, COUNT(*) AS n FROM T GROUP BY v")
        provider = conn.provider
        captured = [record for record in provider.tracer.statements()
                    if record.regions]
        assert len(captured) == 3

        events = {}
        for row in _rows(provider, "DM_TRACE_EVENTS"):
            events.setdefault(row["STATEMENT_ID"], []).append(
                (row["SPAN_ID"], row["PARENT_SPAN_ID"], row["DEPTH"],
                 row["SPAN"], row["DURATION_MS"], row["COUNTERS"],
                 row["ATTRIBUTES"]))

        sink = {entry["statement_id"]: [
            (span["span_id"], span["parent_span_id"], span["depth"],
             span["name"], span["duration_ms"],
             _format_pairs(span["counters"]),
             _format_pairs(span["attributes"]))
            for span in entry["spans"]]
            for entry in provider.slow_sink.records() if "spans" in entry}

        chrome, statement_id = {}, None
        for event in chrome_trace_events(provider):
            if event["ph"] != "X":
                continue
            args = event["args"]
            statement_id = args.get("statement_id", statement_id)
            chrome.setdefault(statement_id, []).append(
                ("statement" if "statement_id" in args else event["name"],
                 event["dur"] / 1000.0,
                 _format_pairs(args.get("counters")),
                 _format_pairs(args.get("attributes"))))

        for record in captured:
            rows = events[record.statement_id]
            assert sink[record.statement_id] == rows
            views = chrome[record.statement_id]
            assert [(name, counters, attributes)
                    for name, _, counters, attributes in views] == \
                [(row[3], row[5], row[6]) for row in rows]
            for (_, duration, _, _), row in zip(views, rows):
                assert duration == pytest.approx(row[4], abs=1e-3)
    finally:
        conn.close()
