"""Durability overhead — journal cost per statement, recovery time vs length.

Two questions the durable store must answer honestly:

1. **Write-path overhead**: how much does journal-append + fsync add to a
   mutating statement, absolute (ms/statement) and relative to the
   in-memory provider?  fsync dominates; the assertion is a generous
   absolute bound (25 ms/statement amortised) rather than a ratio, because
   an in-memory INSERT is microseconds and any fsync at all is a large
   multiple of that — the honest number to report is ms/statement.
2. **Recovery cost**: how does ``connect(durable_path=...)`` scale with
   journal length, and how much does a checkpoint cut it?  Recovery replays
   statements, so it is linear in the journal tail; the checkpointed
   variant must recover strictly faster than the full-journal one.

3. **Checkpoint cost**: what does a checkpoint encode?  The snapshot is
   assembled from per-table and per-model fragments, so the answer must be
   "what changed since the last one" — pinned as exact row and case counts
   (``store.snapshot_rows_encoded`` / ``store.snapshot_cases_encoded``),
   with the first and steady checkpoint times printed beside them.

Run directly under pytest (no pytest-benchmark fixture needed):

    PYTHONPATH=src python -m pytest benchmarks/bench_durability_overhead.py -s

Set ``REPRO_BENCH_QUICK=1`` to shrink the workloads for CI smoke runs.
"""

import os
import time

import pytest

import repro

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
STATEMENTS = 60 if QUICK else 400
STATIC_ROWS = 2000
JOURNAL_LENGTHS = (20, 60) if QUICK else (50, 200, 400)
# Amortised per-statement budget for journal + fsync on CI-grade disks.
MAX_OVERHEAD_MS_PER_STATEMENT = 25.0


def _workload(n):
    statements = ["CREATE TABLE W (Id LONG, G TEXT, Age DOUBLE)"]
    statements += [
        f"INSERT INTO W VALUES ({i}, '{'m' if i % 2 else 'f'}', "
        f"{20 + i % 50}.0)" for i in range(n - 1)]
    return statements


def _run(statements, **kwargs):
    conn = repro.connect(**kwargs)
    started = time.perf_counter()
    for statement in statements:
        conn.execute(statement)
    elapsed = time.perf_counter() - started
    return conn, elapsed


def test_bench_journal_write_overhead(tmp_path):
    statements = _workload(STATEMENTS)
    memory_conn, memory_s = _run(statements)
    memory_conn.close()
    durable_conn, durable_s = _run(
        statements, durable_path=str(tmp_path / "store"),
        durable_checkpoint_interval=0)
    appends = durable_conn.provider.metrics.value("store.journal_appends")
    durable_conn.close()

    per_statement_ms = (durable_s - memory_s) / len(statements) * 1000
    print(f"\n[durability] {len(statements)} mutating statements: "
          f"in-memory {memory_s * 1000:.1f} ms, "
          f"durable {durable_s * 1000:.1f} ms "
          f"({per_statement_ms:.3f} ms/statement journal+fsync overhead, "
          f"{int(appends)} appends)")
    assert appends == len(statements)
    assert per_statement_ms < MAX_OVERHEAD_MS_PER_STATEMENT


@pytest.mark.parametrize("length", JOURNAL_LENGTHS)
def test_bench_recovery_time_vs_journal_length(tmp_path, length):
    path = str(tmp_path / f"store-{length}")
    conn, _ = _run(_workload(length), durable_path=path,
                   durable_checkpoint_interval=0)
    conn.close()

    started = time.perf_counter()
    recovered = repro.connect(durable_path=path)
    elapsed_ms = (time.perf_counter() - started) * 1000
    replayed = recovered.provider.recovery_info["replayed"]
    recovered.close()
    print(f"\n[recovery] journal length {length}: {elapsed_ms:.1f} ms "
          f"({replayed} statements replayed, "
          f"{elapsed_ms / max(1, replayed):.3f} ms/statement)")
    assert replayed == length


def test_bench_checkpoint_cuts_recovery(tmp_path):
    length = max(JOURNAL_LENGTHS)
    statements = _workload(length)

    full_path = str(tmp_path / "full")
    conn, _ = _run(statements, durable_path=full_path,
                   durable_checkpoint_interval=0)
    conn.close()

    checkpointed_path = str(tmp_path / "checkpointed")
    conn, _ = _run(statements, durable_path=checkpointed_path,
                   durable_checkpoint_interval=0)
    conn.provider.checkpoint()
    conn.close()

    def recovery_ms(path):
        started = time.perf_counter()
        recovered = repro.connect(durable_path=path)
        elapsed = (time.perf_counter() - started) * 1000
        replayed = recovered.provider.recovery_info["replayed"]
        recovered.close()
        return elapsed, replayed

    full_ms, full_replayed = recovery_ms(full_path)
    snap_ms, snap_replayed = recovery_ms(checkpointed_path)
    print(f"\n[checkpoint] recovery from {full_replayed}-statement journal "
          f"{full_ms:.1f} ms vs snapshot {snap_ms:.1f} ms "
          f"({full_ms / max(snap_ms, 0.001):.1f}x)")
    assert full_replayed == length and snap_replayed == 0
    assert snap_ms < full_ms


def test_bench_checkpoint_cost_follows_the_change(tmp_path):
    """A static table, a trained model and a growing table: after the first
    checkpoint a checkpoint encodes the rows and cases that changed, not the
    ones that exist.  Counts, not timings — the times are printed only."""
    conn = repro.connect(durable_path=str(tmp_path / "store"),
                         durable_checkpoint_interval=0)
    conn.execute("CREATE TABLE Static (Id LONG, G TEXT, Age DOUBLE)")
    conn.execute("INSERT INTO Static VALUES " + ", ".join(
        f"({i}, '{'m' if i % 2 else 'f'}', {20 + i % 50}.0)"
        for i in range(STATIC_ROWS)))
    conn.execute("CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
                 "Age DOUBLE DISCRETIZED(EQUAL_COUNT, 4) PREDICT) "
                 "USING Repro_Naive_Bayes")
    train = "INSERT INTO M SELECT Id, G, Age FROM Static WHERE Id {}"
    conn.execute(train.format("< 1000"))
    conn.execute("CREATE TABLE Growing (Id LONG, V TEXT)")
    metrics = conn.provider.metrics

    def checkpoint_after(statements):
        """(rows encoded, cases encoded, checkpoint ms) of one checkpoint
        taken after ``statements``."""
        for statement in statements:
            conn.execute(statement)
        before = (metrics.value("store.snapshot_rows_encoded"),
                  metrics.value("store.snapshot_cases_encoded"))
        started = time.perf_counter()
        conn.provider.checkpoint()
        elapsed_ms = (time.perf_counter() - started) * 1000
        return (metrics.value("store.snapshot_rows_encoded") - before[0],
                metrics.value("store.snapshot_cases_encoded") - before[1],
                elapsed_ms)

    def inserts(start):
        return [f"INSERT INTO Growing VALUES ({i}, 'v{i}')"
                for i in range(start, start + 40)]

    rows, cases, first_ms = checkpoint_after([])
    assert (rows, cases) == (STATIC_ROWS, 1000)
    rows, cases, steady_ms = checkpoint_after(inserts(0))
    assert (rows, cases) == (40, 0)
    rows, cases, _ = checkpoint_after(inserts(40))
    assert (rows, cases) == (40, 0)
    rows, cases, update_ms = checkpoint_after(
        ["UPDATE Static SET Age = 1.0 WHERE Id = 7"])
    assert (rows, cases) == (STATIC_ROWS, 0)
    rows, cases, retrain_ms = checkpoint_after([train.format(">= 1000")])
    assert (rows, cases) == (0, STATIC_ROWS)
    rows, cases, idle_ms = checkpoint_after([])
    assert (rows, cases) == (0, 0)
    histogram = metrics.get("store.checkpoint_ms")
    assert histogram.count == metrics.value("store.checkpoints") == 6
    size = os.path.getsize(tmp_path / "store" / "snapshot.json")
    conn.close()
    print(f"\n[checkpoint cost] {size} B snapshot: first {first_ms:.1f} ms, "
          f"after 40 INSERTs {steady_ms:.1f} ms, after an UPDATE of the "
          f"{STATIC_ROWS}-row table {update_ms:.1f} ms, after a refit over "
          f"{STATIC_ROWS} cases {retrain_ms:.1f} ms, idle {idle_ms:.1f} ms")
