"""Value pin of the statement envelope's telemetry, beside the schema pin.

``test_telemetry_schema_pin.py`` holds the *columns* of the telemetry
rowsets; ``golden/telemetry_grid.json`` holds their *cells*.  After the
statement grid of ``test_stream_vs_materialize.py`` — followed by one
statement that fails to parse, one that fails to bind, a stream cancelled
between batches and a stream dropped before its first batch — it pins

* ``DM_PROVIDER_METRICS``: every name, every counter and gauge value,
  every histogram count (clock-valued counters, ``*_ms``, by presence);
* ``DM_QUERY_LOG`` and ``DM_STATEMENT_STATS`` minus their clock columns;

embedded and over the wire, with the workload repository on and off, span
capture on and off, and with a ``provider.metrics.reset()`` half-way
through the grid — sixteen runs.  Attribution and completion may get
cheaper; what they record may not move.  The file is keyed by the axes each
rowset is *allowed* to depend on, which is a pin of its own: the metrics
know the transport (``server.*``) and the reset, never the repository or
span capture; the query log knows the transport (thread, session), span
capture (``SPAN_COUNT``) and whether the repository attributes statements
(``FINGERPRINT``, ``PLAN_HASH``); the statement aggregates know nothing
but whether the repository collects them.  (After a reset the registry
keeps its names, zeroed, where it used to forget them: there the pin holds
every non-zero cell and that nothing the file names is missing.)

Regenerate (only when a recorded value is *meant* to change) with
``PYTHONPATH=src:. python tests/obs/test_telemetry_golden.py``.
"""

import itertools
import json
import os

import pytest

import repro
from repro.client import connect as net_connect
from repro.core.schema_rowsets import system_rowset
from repro.errors import BindError, CancelledError, ParseError
from repro.server import DmxServer

from tests.differential.test_stream_vs_materialize import STATEMENTS, _load

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "telemetry_grid.json")

# (transport, repository, span capture, reset half-way through the grid)
VARIANTS = list(itertools.product(("embedded", "wire"), (True, False),
                                  (False, True), (False, True)))

CLOCK_COLUMNS = {
    "DM_QUERY_LOG": {"STARTED_AT", "DURATION_MS", "CPU_MS", "POOL_CPU_MS",
                     "LOCK_WAIT_MS"},
    "DM_STATEMENT_STATS": {"TOTAL_MS", "MEAN_MS", "MIN_MS", "MAX_MS",
                           "P50_MS", "P95_MS", "P99_MS", "CPU_MS",
                           "FIRST_AT", "LAST_AT"},
}


def label(variant) -> str:
    transport, repository, tracing, reset = variant
    return (f"{transport}, {_repository(repository)}, "
            f"{_capture(tracing)}{_reset(reset)}")


def _repository(repository) -> str:
    return f"repository {'on' if repository else 'off'}"


def _capture(tracing) -> str:
    return f"capture {'on' if tracing else 'off'}"


def _reset(reset) -> str:
    return ", reset mid-grid" if reset else ""


def golden_keys(variant) -> dict:
    """Per rowset, the golden entry a run is held to."""
    transport, repository, tracing, reset = variant
    return {
        "metrics": f"{transport}{_reset(reset)}",
        "query_log": f"{transport}, {_repository(repository)}, "
                     f"{_capture(tracing)}",
        "statement_stats": _repository(repository),
    }


def _failures(conn) -> None:
    """Four statements that do not end in a result; each must still
    complete exactly once."""
    with pytest.raises(ParseError):
        conn.execute("SELECT FROM WHERE")
    with pytest.raises(BindError):
        conn.execute("SELECT nosuch FROM Customers")
    batches = conn.execute_stream("SELECT * FROM Orders",
                                  batch_size=5).batches()
    next(batches)
    live, = conn.provider.workload.active()
    conn.cancel(live.statement_id)
    with pytest.raises(CancelledError):
        for _ in batches:
            pass
    conn.execute_stream("SELECT cid FROM Customers", batch_size=5)
    # (dropped on the spot: it completes through its finalizer)
    assert conn.provider.workload.active() == []


def _masked(provider, name: str) -> list:
    rowset = system_rowset(provider, name)
    keep = [index for index, column in enumerate(rowset.columns)
            if column.name not in CLOCK_COLUMNS[name]]
    rows = [[row[index] for index in keep] for row in rowset.rows]
    if name == "DM_STATEMENT_STATS":
        rows.sort()  # listed hottest first: a clock order
    return [[rowset.columns[index].name for index in keep]] + rows


def _metrics(provider) -> dict:
    cells = {}
    for row in provider.metrics.snapshot():
        if row["kind"] == "histogram":
            cells[row["name"]] = row["count"]
        elif row["name"].endswith("_ms"):
            cells[row["name"]] = "ms"
        elif row["name"].startswith("server.bytes_"):
            # A reply's bytes are counted after it is sent: a reset from
            # the client's side races the count of the reply before it.
            cells[row["name"]] = "bytes"
        else:
            cells[row["name"]] = row["value"]
    return cells


def capture_variant(variant) -> dict:
    transport, repository, tracing, reset = variant
    conn = repro.connect(repository=repository)
    try:
        _load(conn)
        if tracing:
            conn.execute("TRACE ON")
        provider = conn.provider

        def grid(run) -> None:
            for ordinal, statement in enumerate(STATEMENTS):
                if reset and ordinal == len(STATEMENTS) // 2:
                    provider.metrics.reset()
                run(statement)
        if transport == "wire":
            with DmxServer(provider, port=0) as server, \
                    net_connect("127.0.0.1", server.port) as wire:
                grid(wire.execute)
            assert server.thread_errors == []
        else:
            grid(conn.execute)
        _failures(conn)
        return {
            "metrics": _metrics(provider),
            "query_log": _masked(provider, "DM_QUERY_LOG"),
            "statement_stats": _masked(provider, "DM_STATEMENT_STATS"),
        }
    finally:
        conn.close()


def capture() -> dict:
    """Every run folded into the golden's shape; two runs that share an
    entry must agree on it."""
    document = {"metrics": {}, "query_log": {}, "statement_stats": {}}
    for variant in VARIANTS:
        captured = capture_variant(variant)
        for rowset, key in golden_keys(variant).items():
            cell = captured[rowset]
            if variant[3] and rowset == "metrics":
                cell = {name: value for name, value in cell.items() if value}
            assert document[rowset].setdefault(key, cell) == cell, \
                (label(variant), rowset)
    return document


def render(document: dict) -> str:
    """JSON, one rowset row (or metric) per line."""
    lines = []
    for rowset in sorted(document):
        entries = []
        for key in sorted(document[rowset]):
            cell = document[rowset][key]
            cells = ([f"{json.dumps(name)}: {json.dumps(cell[name])}"
                      for name in sorted(cell)] if isinstance(cell, dict)
                     else [json.dumps(row) for row in cell])
            opening, closing = "{}" if isinstance(cell, dict) else "[]"
            entries.append(f"  {json.dumps(key)}: {opening}\n   " +
                           ",\n   ".join(cells) + f"\n  {closing}")
        lines.append(f" {json.dumps(rowset)}: {{\n" +
                     ",\n".join(entries) + "\n }")
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("variant", VARIANTS, ids=label)
def test_telemetry_after_the_grid_matches_golden(golden, variant):
    captured = json.loads(json.dumps(capture_variant(variant)))
    expected = {rowset: golden[rowset][key]
                for rowset, key in golden_keys(variant).items()}
    assert captured["query_log"] == expected["query_log"]
    assert captured["statement_stats"] == expected["statement_stats"]
    if variant[3]:
        assert set(expected["metrics"]) <= set(captured["metrics"])
        captured["metrics"] = {name: cell for name, cell
                               in captured["metrics"].items() if cell}
    assert captured["metrics"] == expected["metrics"]


def test_every_statement_completes_exactly_once(golden):
    """The grid, then the four failures: one ``DM_QUERY_LOG`` row each,
    in completion order, with the status it ended in."""
    header, *rows = golden["query_log"][
        "embedded, repository on, capture off"]
    statuses = [row[header.index("STATUS")] for row in rows]
    # _load's seven statements, the grid, the failures.
    assert len(rows) == 7 + len(STATEMENTS) + 4
    assert statuses[-4:] == ["error", "error", "cancelled", "ok"]
    assert set(statuses[:-4]) == {"ok"}
    metrics = golden["metrics"]["embedded"]
    assert metrics["statements.total"] == len(rows)
    assert metrics["statements.errors"] == 2
    assert metrics["statements.cancelled"] == 1


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(render(capture()))
    print(f"wrote {GOLDEN}")
