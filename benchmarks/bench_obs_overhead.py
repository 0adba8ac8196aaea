"""Observability overhead — instrumented dispatch must stay cheap.

The trace layer is on every statement's hot path, so its disabled-state
cost matters.  Three configurations of the same SELECT workload:

* ``recording off`` — the tracer short-circuits to a null record; the
  closest available stand-in for the pre-instrumentation provider;
* ``default`` — statement log on, span capture off (shipping default);
* ``TRACE ON`` — full span-tree capture.

Reported: statements/second per configuration.  A plain (non-benchmark)
test asserts default dispatch stays within a generous factor of the
recording-off baseline using min-of-N timing, so the suite fails if the
disabled path ever grows a real cost.

``EXPLAIN ANALYZE`` repeats the comparison for the plan profiler: it runs
the statement's plan, whose nodes time and count their own batches as
they go (``PlanNode.run``), then renders those actuals beside the
estimates, so its cost over plain execution is the planner pass, the
per-node cells and the rendering.  That ratio is reported and
(generously) bounded too.

The workload-introspection layer (DM_QUERY_LOG's running rows,
cancellation checkpoints, per-statement resource accounting) rides the
same hot path:
a registry entry per statement and a checkpoint per scan batch.  Its
gate compares a row-heavy streaming scan with the registry on (shipping
default) against ``provider.workload.enabled = False`` and bounds the
added cost at 10%.

The workload repository (DM_STATEMENT_STATS fingerprinting + plan
capture) also rides the dispatch path.  Its steady state is the shape's
fingerprint from the statement template, the skeleton / hash / estimate
read off the plan about to run, and one locked touch plus one locked
aggregate fold per statement (about 15 us in all), so its gate is the
tightest: a streaming scan with the repository on vs
``connect(repository=False)`` must stay under 5%.

Both scan gates are ratios, so what they can see is set by their
denominator.  A bare ``SELECT *`` now hands its batches through untouched
(the select list binds by position) and 2,000 rows of it cost little more
than the statement's envelope, so the gates scan ``Age * 2`` — one compiled
expression per row — over 1,800 customers instead: 0.85 ms here, where the
``SELECT *`` over 2,000 they used to scan took 0.88 ms.  The 5% and 10%
therefore still stand for about 43 us and 87 us of per-statement cost; a
heavier statement under the same ratios would have loosened both gates.
The statement has no WHERE, so its estimate is O(1): what the repository
gate holds is the *fixed* part of attribution (about 25 us with
completion's fold).  The estimate of a range predicate walks the column's
histogram and, with no plan memo, is paid by every execution — ROADMAP
item 4 has it.

A few percent is inside the drift of a machine whose CPU changes speed in
stretches of seconds, so both scan gates alternate their two sides round
by round and divide each round's time by the slowdown the end-to-end
benchmark's ``SpeedProbe`` measured during that round: a speed change
lands on both sides, and what is compared is time at one reference speed.

Set ``REPRO_BENCH_QUICK=1`` to shrink the timing loops for CI smoke runs;
the overhead bounds are asserted either way, which is what the CI
quick-bench gate relies on.
"""

import os
import statistics
import time

import pytest

from _helpers import make_warehouse
from e2e.common import SpeedProbe

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
REPEATS = 3 if QUICK else 5
BATCH = 15 if QUICK else 40

WORKLOAD = "SELECT Gender, AVG(Age) FROM Customers GROUP BY Gender"
GATE_SCAN = "SELECT Age * 2 AS doubled FROM Customers"
GATE_SCAN_CUSTOMERS = 1800


def _fresh_connection(customers=200):
    connection, _ = make_warehouse(customers)
    return connection


@pytest.fixture(scope="module")
def conn_recording_off():
    connection = _fresh_connection()
    connection.provider.tracer.recording = False
    return connection


@pytest.fixture(scope="module")
def conn_default():
    return _fresh_connection()


@pytest.fixture(scope="module")
def conn_tracing_on():
    connection = _fresh_connection()
    connection.provider.tracer.enabled = True
    return connection


def test_bench_dispatch_recording_off(benchmark, conn_recording_off):
    result = benchmark(conn_recording_off.execute, WORKLOAD)
    assert len(result) == 2


def test_bench_dispatch_default(benchmark, conn_default):
    result = benchmark(conn_default.execute, WORKLOAD)
    assert len(result) == 2


def test_bench_dispatch_tracing_on(benchmark, conn_tracing_on):
    result = benchmark(conn_tracing_on.execute, WORKLOAD)
    assert len(result) == 2


def _min_time(connection, statement=WORKLOAD, repeats=REPEATS, batch=BATCH):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batch):
            connection.execute(statement)
        best = min(best, time.perf_counter() - start)
    return best


def test_default_dispatch_overhead_is_bounded():
    """Shipping default (log on, spans off) vs recording fully off."""
    baseline_conn = _fresh_connection()
    baseline_conn.provider.tracer.recording = False
    default_conn = _fresh_connection()

    # Warm both paths before timing.
    for connection in (baseline_conn, default_conn):
        for _ in range(10):
            connection.execute(WORKLOAD)

    baseline = _min_time(baseline_conn)
    default = _min_time(default_conn)
    ratio = default / baseline
    print(f"\nobs overhead: recording-off {baseline:.4f}s, "
          f"default {default:.4f}s, ratio {ratio:.2f}x")
    # Generous bound: the statement-log path adds a record + a few
    # thread-local reads per statement, nowhere near 2x even on CI noise.
    assert ratio < 2.0, (
        f"default dispatch is {ratio:.2f}x slower than recording-off; "
        f"the disabled-tracing path has grown a real cost")


def _scaled_times(connection, statement, probe):
    """``BATCH`` statement times at the reference machine speed: each is
    divided by the slowdown ``probe`` samples right after it."""
    times = []
    for _ in range(BATCH):
        start = time.perf_counter()
        connection.execute(statement)
        elapsed = time.perf_counter() - start
        times.append(elapsed / probe.slowdown())
    return times


def _interleaved(baseline_conn, measured_conn, statement):
    """``(baseline, measured)``: each side's median statement time at the
    reference speed, over rounds that alternate the two sides so a change
    of machine speed falls on both.  The median, not the minimum: a
    speed sample that a preemption inflated must not make a statement
    look fast."""
    probe = SpeedProbe()
    times = ([], [])
    for _ in range(2 * REPEATS):
        for side, connection in enumerate((baseline_conn, measured_conn)):
            times[side].extend(_scaled_times(connection, statement, probe))
    return statistics.median(times[0]), statistics.median(times[1])


def test_workload_accounting_overhead_is_bounded():
    """Per-statement accounting vs the registry disabled, on a scan whose
    batch count makes the per-checkpoint cost visible if it ever grows."""
    scan = GATE_SCAN
    accounted = _fresh_connection(customers=GATE_SCAN_CUSTOMERS)
    unaccounted = _fresh_connection(customers=GATE_SCAN_CUSTOMERS)
    unaccounted.provider.workload.enabled = False

    for connection in (accounted, unaccounted):
        for _ in range(10):
            connection.execute(scan)

    baseline, accounted_time = _interleaved(unaccounted, accounted, scan)
    ratio = accounted_time / baseline
    print(f"\nworkload accounting overhead: registry-off "
          f"{baseline * 1e3:.3f} ms, default {accounted_time * 1e3:.3f} ms "
          f"(reference speed), ratio {ratio:.2f}x")
    # The per-batch checkpoint is a thread-local read plus three integer
    # adds; the per-statement cost is one registry entry.  10% is the gate
    # the introspection layer ships under.
    assert ratio < 1.10, (
        f"workload accounting adds {(ratio - 1) * 100:.0f}% to a streaming "
        f"scan; the checkpoint/accounting hot path has grown a real cost")


def test_repository_overhead_is_bounded():
    """Fingerprinting + plan capture vs ``connect(repository=False)``.

    The repeated-statement steady state is the case that matters: the
    template hands over the shape's fingerprint, the plan about to run is
    described and hashed, and the aggregates are folded once.
    """
    scan = GATE_SCAN
    observed = _fresh_connection(customers=GATE_SCAN_CUSTOMERS)
    unobserved, _ = make_warehouse(GATE_SCAN_CUSTOMERS, repository=False)

    for connection in (observed, unobserved):
        for _ in range(10):
            connection.execute(scan)

    baseline, observed_time = _interleaved(unobserved, observed, scan)
    ratio = observed_time / baseline
    print(f"\nrepository overhead: repository-off {baseline * 1e3:.3f} ms, "
          f"default {observed_time * 1e3:.3f} ms (reference speed), "
          f"ratio {ratio:.2f}x")
    assert ratio < 1.05, (
        f"the workload repository adds {(ratio - 1) * 100:.0f}% to a "
        f"streaming scan; annotate/observe has grown a real per-statement "
        f"cost")


def test_bench_explain_analyze(benchmark, conn_default):
    result = benchmark(conn_default.execute, f"EXPLAIN ANALYZE {WORKLOAD}")
    assert len(result) >= 2  # plan rows, not result rows


def test_explain_analyze_overhead_is_bounded():
    """Profiling a statement (EXPLAIN ANALYZE) vs just running it.

    ANALYZE pays for: the planner pass with its estimates, and rendering
    the actuals the plan's nodes took as they ran (which plain execution
    takes too).  On a real workload that should be a small constant on
    top of execution, not a multiple of it.
    """
    connection = _fresh_connection()
    for _ in range(10):
        connection.execute(WORKLOAD)
        connection.execute(f"EXPLAIN ANALYZE {WORKLOAD}")

    plain = _min_time(connection)
    analyzed = _min_time(connection, f"EXPLAIN ANALYZE {WORKLOAD}")
    ratio = analyzed / plain
    print(f"\nexplain-analyze overhead: plain {plain:.4f}s, "
          f"analyze {analyzed:.4f}s, ratio {ratio:.2f}x")
    # Estimates plus the rendering of the plan's actuals; generous for CI
    # noise on a millisecond-scale workload.
    assert ratio < 3.0, (
        f"EXPLAIN ANALYZE is {ratio:.2f}x plain execution; the profiler "
        f"has grown a real cost beyond estimating and rendering the plan")


def test_plain_explain_is_cheaper_than_execution():
    """Plain EXPLAIN never touches the data path, so it must not scale
    with data volume — pin it under direct execution of the workload."""
    connection = _fresh_connection(customers=2000)
    for _ in range(5):
        connection.execute(WORKLOAD)
        connection.execute(f"EXPLAIN {WORKLOAD}")
    plain = _min_time(connection)
    explained = _min_time(connection, f"EXPLAIN {WORKLOAD}")
    print(f"\nplain-explain: execute {plain:.4f}s, "
          f"explain {explained:.4f}s")
    assert explained < plain, (
        "plain EXPLAIN took longer than executing the statement; the "
        "planner pass is touching the data path")
