"""The four workloads: set-up, the timed closed-loop phase, answer checks and
the metrics derived from the samples.

Each workload runs in its own fresh process (``run.py --child``).  The load
is closed-loop: a caller sends its next statement only after the previous
reply.  The three embedded workloads have one caller; ``served_mixed`` has
two client connections on two threads of this one generator process
(``nproc`` = 2).  Op counts are fixed by the arguments, never by durations.

A timed phase is split into equal rounds (the served clients meet at a
barrier between rounds).  A round's wall is the largest sum of statement
latencies any one caller saw in it; timing metrics are medians over rounds,
or over op samples where stated.  Latencies are scaled to a reference machine
speed by ``common.SpeedProbe`` (the raw values are kept beside them).
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import subprocess
import sys
import threading
from typing import Dict, List, Optional, Tuple

import repro
from repro.client import connect as net_connect
from repro.datagen import WarehouseConfig, load_warehouse
from repro.errors import Error
from repro.sqlstore.pages import encode_row
from repro.sqlstore.rowset import Rowset

import oracle
from common import (HERE, OUT, SpeedProbe, bytes_written, directory_bytes,
                    exact, now, peak_rss_mb, percentile, scratch_dir,
                    summarize)
from statements import (SCAN_SHAPES, SERVED_SETUP, SQL_INDEXES,
                        ServedStatements, SqlStatements, lifecycle_round)
from tracing import ROOT, Stages, Trace

#: Program counters read as deltas around every timed statement.
TRACKED_COUNTERS = ("buffer.hits", "buffer.misses", "buffer.evictions",
                    "buffer.flushes", "caseset_cache.hits",
                    "caseset_cache.misses")

#: Statement classes behind the three class metrics, per workload.
SCAN_KINDS = tuple(kind for kind, _, _ in SCAN_SHAPES)
CLASSES = {
    "lifecycle_mem": {"insert": ("train",), "query": ("predict_cold",),
                      "point": ("browse",)},
    "sql_mem": {"insert": ("insert",), "query": SCAN_KINDS,
                "point": ("seek",)},
    "sql_paged": {"insert": ("insert",), "query": SCAN_KINDS,
                  "point": ("seek",)},
    "served_mixed": {"insert": ("insert",), "query": ("predict",),
                     "point": ("point",)},
}

#: Statement classes whose latency is a wait, not computation, and is
#: therefore not scaled to the reference machine speed.  A SELECT streamed
#: over the wire spends ~40 of its ~44 ms waiting for the kernel's
#: delayed-ACK timer: the server writes the column frame and the first batch
#: frame separately, so Nagle holds the second until the client's ACK.
WAITING_KINDS = {"served_mixed": ("range",)}

#: Stage spans that become a ``<name>_ms`` layer metric, with the kind of
#: count that accompanies it.
LAYER_SPANS = {
    "lang.tokenize": "calls", "lang.parse": "calls",
    "lang.normalize": "calls",
    "sqlstore.engine.plan": "calls", "sqlstore.indexes.seek": "calls",
    "sqlstore.storage.scan": "rows", "sqlstore.expressions.eval": "rows",
    "sqlstore.table.insert": "rows", "sqlstore.pages.encode": "rows",
    "sqlstore.pages.decode": "rows",
    "shaping.shape": "calls", "core.columns.compile": "calls",
    "core.bindings.map": "rows", "core.prediction.join": "rows",
    "core.schema_rowsets.content": "rows",
    "algorithms.attributes.fit": "rows",
    "algorithms.attributes.encode": "rows",
    "algorithms.decision_tree.train": "rows",
    "algorithms.decision_tree.predict": "rows",
    "algorithms.naive_bayes.train": "rows",
    "algorithms.naive_bayes.predict": "rows",
    "algorithms.content": "calls",
    "server.protocol.encode": "calls", "server.protocol.decode": "calls",
    "store.journal.encode": "calls", "store.journal.append": "calls",
}


class Sample:
    """One timed statement.  ``raw`` is the measured latency; ``seconds`` is
    ``raw`` scaled to the reference machine speed (see ``SpeedProbe``)."""

    __slots__ = ("kind", "round", "client", "raw", "seconds", "rows")

    def __init__(self, kind: str, round_no: int, raw: float, rows: int,
                 client: int = 0):
        self.kind = kind
        self.round = round_no
        self.client = client
        self.raw = raw
        self.seconds = raw
        self.rows = rows


class Workload:
    """Common life cycle: ``setup`` (repeatable), ``run``, ``finish``."""

    name = ""
    embedded = True

    def __init__(self, seed: int, scale: dict, traced: bool):
        self.seed = seed
        self.scale = scale
        self.traced = traced
        self.rounds = scale["rounds"]
        self.checks = oracle.Checks()
        self.samples: List[Sample] = []
        self.round_walls: List[float] = []      # at reference speed
        self.raw_round_walls: List[float] = []  # as measured
        self.slowdowns: List[float] = []        # machine slowdown per round
        self.probe = SpeedProbe()
        self.errors = 0
        self.counters: Dict[str, float] = {}
        self.extra: Dict[str, dict] = {}      # workload-specific metrics
        self.counts: Dict[str, float] = {}    # exact counts (self-check)
        self.trace = Trace() if traced else None
        self.stages: Optional[Stages] = None
        self.timed_wall = 0.0
        self.replay_wall = 0.0
        self.server_p50_ms = 0.0
        self.conn = None

    def warehouse(self) -> WarehouseConfig:
        return WarehouseConfig(customers=self.scale["customers"],
                               seed=self.seed)

    # -- embedded closed loop ----------------------------------------------------

    def round_ops(self, round_no: int) -> list:
        raise NotImplementedError

    def verify(self, op, result) -> None:
        raise NotImplementedError

    def rows_of(self, op, result) -> int:
        return len(result.rows) if isinstance(result, Rowset) else 0

    def warm_up(self) -> None:
        """One untimed round, so lazy set-up is paid before the clock."""
        for op in self.round_ops(-1):
            self.probe.tick()
            self.acknowledge(op, self.conn.execute(op.text))

    def acknowledge(self, op, result) -> None:
        """Fold an untimed statement's effect into the oracle."""

    def run(self) -> None:
        provider = self.conn.provider
        value = provider.metrics.value
        paged = provider.storage is not None
        if self.traced:
            self.stages = Stages(provider, self.trace)
        started = now()
        for round_no in range(self.rounds):
            self.current_round = round_no
            ops = self.round_ops(round_no)
            gc.collect()
            first = len(self.samples)
            for op in ops:
                self.probe.tick()
                before = [value(name) for name in TRACKED_COUNTERS]
                written = bytes_written() if paged and op.kind == "insert" \
                    else None
                t0 = now()
                try:
                    result = self.conn.execute(op.text)
                except Error as exc:
                    result = exc
                t1 = now()
                if written is not None:
                    self.counts["bytes_written"] = self.counts.get(
                        "bytes_written", 0) + bytes_written() - written
                for name, old in zip(TRACKED_COUNTERS, before):
                    self.counters[name] = self.counters.get(name, 0) + \
                        value(name) - old
                if isinstance(result, Error):
                    self.errors += 1
                    self.checks.record(False, f"{op.kind}: {result}")
                    continue
                self.samples.append(Sample(op.kind, round_no, t1 - t0,
                                           self.rows_of(op, result)))
                self.verify(op, result)
                if self.stages is not None:
                    t2 = now()
                    self.stages.replay(op, result, t0, t1)
                    self.replay_wall += now() - t2
            self.close_round(self.samples[first:], self.probe.slowdown())
        self.timed_wall = now() - started

    def close_round(self, samples: List[Sample], slowdown: float) -> None:
        """Scale a round's samples to the reference speed; the round's wall
        is the largest sum of statement times any one caller saw."""
        waiting = WAITING_KINDS.get(self.name, ())
        walls: Dict[int, float] = {}
        raw_walls: Dict[int, float] = {}
        for sample in samples:
            if sample.kind not in waiting:
                sample.seconds = sample.raw / slowdown
            walls[sample.client] = walls.get(sample.client, 0.0) + \
                sample.seconds
            raw_walls[sample.client] = raw_walls.get(sample.client, 0.0) + \
                sample.raw
        self.slowdowns.append(slowdown)
        self.round_walls.append(max(walls.values(), default=0.0))
        self.raw_round_walls.append(max(raw_walls.values(), default=0.0))

    def finish(self) -> None:
        pass

    def teardown(self) -> None:
        if self.stages is not None:
            self.stages.close()
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


class LifecycleMem(Workload):
    """Embedded, in memory: the paper's define/train/score/browse cycle."""

    name = "lifecycle_mem"

    def setup(self) -> None:
        self.conn = repro.connect()
        self.probe.tick()
        data = load_warehouse(self.conn.database, self.warehouse())
        self.oracle = oracle.LifecycleOracle(data)
        self.warm_up()

    def round_ops(self, round_no: int) -> list:
        return lifecycle_round(round_no)

    def rows_of(self, op, result) -> int:
        if op.kind == "train":
            return result
        return super().rows_of(op, result)

    def verify(self, op, result) -> None:
        self.oracle.check(self.checks, self.conn, op, result)


class SqlMem(Workload):
    """Embedded relational work: scans, seeks and multi-row inserts."""

    name = "sql_mem"

    def connect_kwargs(self) -> dict:
        return {}

    def build(self, **kwargs):
        """A loaded, indexed provider with the warm-up round applied, and
        the statement generator and oracle that match its state."""
        conn = repro.connect(**kwargs)
        self.probe.tick()
        data = load_warehouse(conn.database, self.warehouse())
        for statement in SQL_INDEXES:
            self.probe.tick()
            conn.execute(statement)
        scale = self.scale
        generator = SqlStatements(self.seed, scale["customers"],
                                  scale["seeks"], scale["ranges"],
                                  scale["insert_rows"])
        return conn, generator, oracle.WarehouseOracle(data)

    def setup(self) -> None:
        self.conn, self.generator, self.oracle = self.build(
            **self.connect_kwargs())
        self.warm_up()

    def round_ops(self, round_no: int) -> list:
        return self.generator.round(round_no)

    def acknowledge(self, op, result) -> None:
        if op.kind == "insert":
            self.oracle.sales.extend(op.meta["rows"])

    def rows_of(self, op, result) -> int:
        if op.kind == "insert":
            return result
        if op.kind in SCAN_KINDS:
            # Base-table rows the statement had to read.
            sizes = {"Customers": len(self.oracle.customers),
                     "Sales": len(self.oracle.sales)}
            return sum(sizes[table] for table in op.meta["tables"])
        return super().rows_of(op, result)

    def verify(self, op, result) -> None:
        self.oracle.check(self.checks, op, result)

    def finish(self) -> None:
        self.counts["rows_inserted"] = sum(
            s.rows for s in self.samples if s.kind == "insert")


class SqlPaged(SqlMem):
    """The same statements and data on the paged store with a 16-frame
    pool: the difference from ``sql_mem`` is storage/buffer/pages/diskmgr."""

    name = "sql_paged"

    def connect_kwargs(self) -> dict:
        self.storage_path = scratch_dir("paged")
        return {"storage_path": self.storage_path,
                "buffer_pages": self.scale["buffer_pages"],
                "storage_page_bytes": self.scale["page_bytes"]}

    def run(self) -> None:
        # The twin: an embedded in-memory provider on the same seed, in the
        # same state; the first round's answers must be rowset_dump-equal.
        self.twin, generator, _ = self.build()
        for op in generator.round(-1):
            self.twin.execute(op.text)
        super().run()

    def verify(self, op, result) -> None:
        super().verify(op, result)
        if self.current_round == 0:
            oracle.check_against_twin(self.checks, self.twin, op, result)

    def finish(self) -> None:
        super().finish()
        database = self.conn.database
        user_bytes = sum(len(encode_row(row)) for table in
                         database.tables.values() for row in table.rows)
        inserted = int(self.counts["rows_inserted"])
        inserted_bytes = sum(len(encode_row(row)) for row in
                             database.table("Sales").rows[-inserted:])
        self.counts["pool_bytes"] = \
            self.scale["buffer_pages"] * self.scale["page_bytes"]
        self.counts["table_bytes"] = user_bytes
        write_amp = self.counts.get("bytes_written", 0) / inserted_bytes
        self.counts["write_amp"] = write_amp
        self.extra["stmt.write_amp"] = exact(write_amp)
        if self.traced:
            flushed = [(table.store.manager.disk, handle)
                       for table in database.tables.values()
                       for handle in table.store.handles
                       if handle.current_file]
            page_bytes = sum(
                os.path.getsize(disk.page_path(handle.table_id,
                                               handle.current_file))
                for disk, handle in flushed)
            self.extra["sqlstore.pages.bytes_per_row"] = exact(
                page_bytes / sum(handle.row_count for _, handle in flushed))
            self.extra["sqlstore.diskmgr.space_amp"] = exact(
                directory_bytes(self.storage_path) / user_bytes)

    def teardown(self) -> None:
        super().teardown()
        if getattr(self, "twin", None) is not None:
            self.twin.close()
            self.twin = None
        shutil.rmtree(self.storage_path, ignore_errors=True)


class ServedMixed(Workload):
    """Wire + durable: a server process, two closed-loop client connections,
    a seeded statement mix, then SIGKILL and recovery."""

    name = "served_mixed"
    embedded = False

    def setup(self) -> None:
        scale = self.scale
        self.durable = scratch_dir("durable")
        self.probe.tick()
        self.server = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_child.py"),
             "--durable", self.durable,
             "--customers", str(scale["customers"]),
             "--seed", str(self.seed),
             "--checkpoint-interval", str(scale["checkpoint_interval"])],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.server.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"server child did not start: {line!r}")
        port = int(line.split()[1])
        self.clients = [net_connect("127.0.0.1", port)
                        for _ in range(scale["clients"])]
        self.generators = [
            ServedStatements(self.seed, client, scale["customers"],
                             scale["per_round"])
            for client in range(scale["clients"])]
        self.acknowledged = 0
        for client, generator in zip(self.clients, self.generators):
            for op in generator.round(-1):
                self.probe.tick()
                result = self.execute(client, op)
                if op.kind == "insert":
                    self.acknowledged += result

    @staticmethod
    def execute(client, op):
        if not op.stream:
            return client.execute(op.text)
        stream = client.execute_stream(op.text)
        rows = [row for batch in stream.batches() for row in batch]
        return Rowset(stream.columns, rows)

    def server_metrics(self) -> Tuple[Dict[str, tuple], Rowset]:
        rowset = self.clients[0].execute(
            "SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS")
        name = rowset.index_of("METRIC")
        return {row[name]: row for row in rowset.rows}, rowset

    def run(self) -> None:
        clients = len(self.clients)
        barrier = threading.Barrier(clients)
        slowdowns = [[1.0] * self.rounds for _ in range(clients)]
        done: List[List[tuple]] = [[] for _ in range(clients)]
        crashes: List[BaseException] = []

        def client_loop(index: int) -> None:
            client, generator = self.clients[index], self.generators[index]
            probe = SpeedProbe()
            try:
                for round_no in range(self.rounds):
                    ops = generator.round(round_no)
                    barrier.wait()
                    for op in ops:
                        probe.tick()
                        t0 = now()
                        try:
                            result = self.execute(client, op)
                        except Error as exc:
                            result = exc
                        done[index].append((op, result, round_no, t0, now()))
                    slowdowns[index][round_no] = probe.slowdown()
            except BaseException as exc:   # re-raised by the main thread
                crashes.append(exc)
                barrier.abort()

        before, _ = self.server_metrics()
        gc.collect()
        threads = [threading.Thread(target=client_loop, args=(index,),
                                    name=f"e2e-client-{index}")
                   for index in range(clients)]
        started = now()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.timed_wall = now() - started
        if crashes:
            raise crashes[0]
        after, rowset = self.server_metrics()
        self.client_slowdowns = slowdowns
        self.done = done

        value = rowset.index_of("VALUE")

        def delta(name: str) -> float:
            return (after[name][value] if name in after else 0.0) - \
                (before[name][value] if name in before else 0.0)
        self.counts["store.journal.appends"] = delta("store.journal_appends")
        self.counts["store.checkpoints"] = delta("store.checkpoints")
        self.counts["server.sessions_refused"] = delta("server.rejections")
        latency = after.get("statements.latency_ms")
        self.server_p50_ms = latency[rowset.index_of("P50")] \
            if latency else 0.0
        if self.traced:
            pings = []
            for _ in range(200):
                t0 = now()
                self.clients[0].ping()
                pings.append((now() - t0) * 1e3)
            self.extra["client.ping_ms_p50"] = summarize(pings)

    def peak_rss_mb(self) -> float:
        return self._server_rss

    def finish(self) -> None:
        """Kill the server, re-open copies of its directory, then check every
        wire answer against an embedded in-memory twin."""
        self._server_rss = peak_rss_mb(self.server.pid)
        for client in self.clients:
            client.close()
        self.kill_server()
        self.collect_samples()
        self.recover_copies()
        self.check_against_twin()

    def collect_samples(self) -> None:
        by_round: List[List[Sample]] = [[] for _ in range(self.rounds)]
        for client, thread_results in enumerate(self.done):
            for op, result, round_no, t0, t1 in thread_results:
                if isinstance(result, Error):
                    self.errors += 1
                    self.checks.record(False, f"{op.kind}: {result}")
                    continue
                rows = result if op.kind == "insert" else len(result.rows)
                by_round[round_no].append(
                    Sample(op.kind, round_no, t1 - t0, rows, client))
                if op.kind == "insert":
                    self.acknowledged += result
        for round_no, samples in enumerate(by_round):
            self.samples.extend(samples)
            self.close_round(samples, sum(
                per_client[round_no] for per_client in
                self.client_slowdowns) / len(self.client_slowdowns))
        self.counts["rows_inserted"] = sum(
            s.rows for s in self.samples if s.kind == "insert")

    def recover_copies(self) -> None:
        recoveries = []
        for number in range(self.scale["recoveries"]):
            copy = f"{self.durable}-copy{number}"
            shutil.copytree(self.durable, copy)
            try:
                t0 = now()
                recovered = repro.connect(durable_path=copy)
                recoveries.append(now() - t0)
                try:
                    oracle.check_recovered(self.checks, recovered,
                                           self.acknowledged)
                    self.counts["store.replayed_records"] = \
                        recovered.provider.recovery_info["replayed"]
                    if self.traced and number == 0:
                        t0 = now()
                        recovered.provider.checkpoint()
                        self.extra["store.checkpoint_ms"] = exact(
                            (now() - t0) * 1e3)
                        self.extra["store.snapshot_bytes"] = exact(
                            os.path.getsize(
                                os.path.join(copy, "snapshot.json")))
                finally:
                    recovered.close()
            finally:
                shutil.rmtree(copy, ignore_errors=True)
        self.extra["stmt.recover_s"] = summarize(recoveries)

    def check_against_twin(self) -> None:
        """Every wire answer against an embedded in-memory provider on the
        same seed; in a traced run the twin also hosts the stage replays."""
        twin = repro.connect()
        load_warehouse(twin.database, self.warehouse())
        for statement in SERVED_SETUP:
            twin.execute(statement)
        if self.traced:
            self.journal_dir = scratch_dir("journal")
            self.stages = Stages(
                twin.provider, self.trace,
                journal_path=os.path.join(self.journal_dir, "scratch.dmj"))
        try:
            for thread_results in self.done:
                for op, result, _, t0, t1 in thread_results:
                    if isinstance(result, Error):
                        continue
                    oracle.check_against_twin(self.checks, twin, op, result)
                    if self.stages is not None:
                        t2 = now()
                        self.stages.replay(op, result, t0, t1, wire=True)
                        self.replay_wall += now() - t2
            if self.traced:
                self.extra["obs.overhead_share"] = exact(
                    self.obs_overhead())
        finally:
            twin.close()

    def obs_overhead(self) -> float:
        """Embedded point seeks at ``connect()`` defaults against the same
        seeks with the workload repository off, in alternating blocks."""
        customers = self.scale["customers"]
        pair = []
        for kwargs in ({}, {"repository": False}):
            conn = repro.connect(**kwargs)
            load_warehouse(conn.database, self.warehouse())
            conn.execute(SERVED_SETUP[0])
            pair.append(conn)
        totals = [0.0, 0.0]
        try:
            for block in range(10):
                for side, conn in enumerate(pair):
                    t0 = now()
                    for step in range(customers // 10):
                        key = 1 + (block * 7919 + step * 31) % customers
                        conn.execute(f"SELECT * FROM Customers "
                                     f"WHERE [Customer ID] = {key}")
                    totals[side] += now() - t0
        finally:
            for conn in pair:
                conn.close()
        return totals[0] / totals[1] - 1.0

    def kill_server(self) -> None:
        server = getattr(self, "server", None)
        if server is not None and server.poll() is None:
            os.kill(server.pid, signal.SIGKILL)
        if server is not None:
            server.wait()
            server.stdin.close()
            server.stdout.close()

    def teardown(self) -> None:
        if self.stages is not None:
            self.stages.close()
        for client in getattr(self, "clients", []):
            client.close()
        self.kill_server()
        shutil.rmtree(self.durable, ignore_errors=True)
        if getattr(self, "journal_dir", None):
            shutil.rmtree(self.journal_dir, ignore_errors=True)


WORKLOAD_CLASSES = {cls.name: cls for cls in
                    (LifecycleMem, SqlMem, SqlPaged, ServedMixed)}


# -- metrics ---------------------------------------------------------------------------

def _per_round_rate(samples: List[Sample], kinds: Tuple[str, ...],
                    rounds: int, clock: str = "seconds") -> List[float]:
    rates = []
    for round_no in range(rounds):
        chosen = [s for s in samples if s.round == round_no
                  and s.kind in kinds]
        seconds = sum(getattr(s, clock) for s in chosen)
        if seconds > 0:
            rates.append(sum(s.rows for s in chosen) / seconds)
    return rates


def end_to_end_metrics(workload: Workload, setups: List[float],
                       clock: str = "seconds") -> dict:
    """The end-to-end metrics; ``clock="raw"`` gives them as measured,
    without scaling to the reference machine speed."""
    samples, rounds = workload.samples, workload.rounds
    walls = workload.round_walls if clock == "seconds" \
        else workload.raw_round_walls
    classes = CLASSES[workload.name]
    per_round = [0] * rounds
    for sample in samples:
        per_round[sample.round] += 1
    point = [s for s in samples if s.kind in classes["point"]]
    if workload.name == "lifecycle_mem":
        # One sample per round: the mean of its two CONTENT browses (a tree
        # and a naive-Bayes graph differ in size by design).
        point_ms = [1e3 * sum(getattr(s, clock) for s in point
                              if s.round == r) /
                    max(1, sum(1 for s in point if s.round == r))
                    for r in range(rounds)]
    else:
        point_ms = [getattr(s, clock) * 1e3 for s in point]
    return {
        "setup_s": summarize(setups),
        "stmts_per_s": summarize(
            n / wall for n, wall in zip(per_round, walls) if wall),
        "cycle_s": summarize(walls),
        "insert_rows_per_s": summarize(
            _per_round_rate(samples, classes["insert"], rounds, clock)),
        "query_rows_per_s": summarize(
            _per_round_rate(samples, classes["query"], rounds, clock)),
        "point_ms_p50": summarize(point_ms),
        "stmt_ms_p95": summarize(
            [getattr(s, clock) * 1e3 for s in samples], 0.95),
        "peak_rss_mb": exact(workload.peak_rss_mb()),
    }


def statement_class_metrics(workload: Workload) -> dict:
    """Metrics of one statement class, defined on some workloads only; the
    driver gets them with the ``per_layer`` metrics (zero where undefined)."""
    samples, rounds = workload.samples, workload.rounds

    def latencies(kind: str) -> List[float]:
        return [s.seconds * 1e3 for s in samples if s.kind == kind]
    out = {
        "stmt.rescore_cases_per_s": summarize(
            _per_round_rate(samples, ("predict_warm",), rounds)),
        "stmt.predict_single_ms_p50": summarize(latencies("predict")),
        "stmt.range_ms_p50": summarize(latencies("range")),
        "stmt.recover_s": exact(0.0),
        "stmt.write_amp": exact(0.0),
    }
    out.update({name: value for name, value in workload.extra.items()
                if name.startswith("stmt.")})
    return out


def layer_metrics(workload: Workload) -> dict:
    """Everything the traced run adds: stage self times with their counts,
    program counters, and the residual no stage accounts for."""
    trace, stages = workload.trace, workload.stages
    # Spans are wall-clock; one factor per run (scaled over raw statement
    # time) puts their totals on the reference speed of the end-to-end view.
    raw_wall = sum(workload.raw_round_walls)
    scale = sum(workload.round_walls) / raw_wall if raw_wall else 1.0
    self_times = {name: (ms * scale, calls)
                  for name, (ms, calls) in trace.self_times().items()}
    totals = {name: ms * scale for name, ms in trace.totals().items()}
    counts = stages.counts
    metrics: Dict[str, dict] = {}
    for span, unit in LAYER_SPANS.items():
        self_ms, calls = self_times.get(span, (0.0, 0))
        metrics[f"{span}_ms"] = exact(self_ms, calls)
        metrics[f"{span}_{unit}"] = exact(
            calls if unit == "calls" else counts.get(f"{span}_rows", 0))
    select_self, select_calls = self_times.get("sqlstore.engine.select",
                                               (0.0, 0))
    metrics["sqlstore.engine.select_ms"] = exact(
        totals.get("sqlstore.engine.select", 0.0), select_calls)
    metrics["sqlstore.engine.select_calls"] = exact(select_calls)
    metrics["sqlstore.engine.other_ms"] = exact(select_self, select_calls)
    returned = counts.get("rows_returned", 0)
    metrics["sqlstore.engine.rows_examined_per_returned"] = exact(
        counts.get("rows_examined", 0) / returned if returned else 0.0)
    metrics["lang.stmt_bytes"] = exact(counts.get("lang.stmt_bytes", 0))
    metrics["shaping.cases_out"] = exact(counts.get("shaping.cases_out", 0))
    metrics["shaping.nested_rows_out"] = exact(
        counts.get("shaping.nested_rows_out", 0))

    counters = workload.counters
    hits, misses = counters.get("buffer.hits", 0), \
        counters.get("buffer.misses", 0)
    metrics["sqlstore.buffer.hits"] = exact(hits)
    metrics["sqlstore.buffer.misses"] = exact(misses)
    metrics["sqlstore.buffer.evictions"] = exact(
        counters.get("buffer.evictions", 0))
    metrics["sqlstore.buffer.flushes"] = exact(
        counters.get("buffer.flushes", 0))
    metrics["sqlstore.buffer.hit_share"] = exact(
        hits / (hits + misses) if hits + misses else 0.0)
    cache_hits = counters.get("caseset_cache.hits", 0)
    cache_total = cache_hits + counters.get("caseset_cache.misses", 0)
    metrics["core.casecache.hit_share"] = exact(
        cache_hits / cache_total if cache_total else 0.0)

    residual, statements = self_times.get(ROOT, (0.0, 0))
    statement_wall = totals.get(ROOT, 0.0)
    metrics["core.provider.residual_ms"] = exact(residual, statements)
    metrics["core.provider.residual_share"] = exact(
        residual / statement_wall if statement_wall else 0.0)
    # What tracing adds: replay time over the statements' own wall.
    metrics["trace_overhead_share"] = exact(
        workload.replay_wall * 1e3 / statement_wall if statement_wall
        else 0.0)

    latencies = [s.seconds * 1e3 for s in workload.samples]
    wire = not workload.embedded
    metrics["server.protocol.bytes_out"] = exact(
        counts.get("server.protocol.bytes_out", 0))
    metrics["client.stmt_ms_p99"] = summarize(latencies, 0.99) if wire \
        else exact(0.0)
    metrics["server.overhead_ms_p50"] = exact(
        percentile(latencies, 0.5) - workload.server_p50_ms if wire else 0.0)
    metrics["store.checkpoint_stall_ms_max"] = exact(
        max(latencies) if wire else 0.0)
    appends = self_times.get("store.journal.append", (0.0, 0))[1]
    metrics["store.journal.bytes_per_insert"] = exact(
        counts.get("store.journal.bytes", 0) / appends if appends else 0.0)
    for name in ("store.journal.appends", "store.checkpoints",
                 "store.replayed_records", "server.sessions_refused"):
        metrics[name] = exact(workload.counts.get(name, 0))
    for name in ("client.ping_ms_p50", "store.checkpoint_ms",
                 "store.snapshot_bytes", "obs.overhead_share",
                 "sqlstore.pages.bytes_per_row",
                 "sqlstore.diskmgr.space_amp"):
        metrics[name] = workload.extra.get(name, exact(0.0))
    return metrics


def run_workload(name: str, seed: int, scale: dict, traced: bool,
                 setups: int) -> dict:
    """Set up ``setups`` times (the last one is used), run, check, measure."""
    workload = WORKLOAD_CLASSES[name](seed, scale, traced)
    setup_seconds, raw_setup_seconds = [], []
    try:
        for attempt in range(setups):
            if attempt:
                workload.teardown()
            t0 = now()
            workload.setup()
            raw_setup_seconds.append(now() - t0)
            setup_seconds.append(raw_setup_seconds[-1] /
                                 workload.probe.slowdown())
        workload.run()
        workload.finish()
        metrics = end_to_end_metrics(workload, setup_seconds)
        raw_metrics = end_to_end_metrics(workload, raw_setup_seconds, "raw")
        statement_classes = statement_class_metrics(workload)
        layers = layer_metrics(workload) if traced else {}
        if traced:
            workload.trace.dump(
                os.path.join(OUT, f"trace_{name}.json"),
                {"workload": name, "seed": seed, "scale": scale})
    finally:
        workload.teardown()
    checks = workload.checks
    counts = dict(workload.counts)
    counts["statements"] = len(workload.samples)
    counts["rows"] = sum(s.rows for s in workload.samples)
    counts["checks"] = checks.attempted
    if name == "sql_paged":
        counts["buffer.misses"] = workload.counters.get("buffer.misses", 0)
    return {
        "workload": name, "traced": traced,
        "attempted": len(workload.samples) + workload.errors,
        "errors": workload.errors,
        "checks_attempted": checks.attempted, "checks_failed": checks.failed,
        "failures": checks.failures,
        "timed_wall_s": workload.timed_wall,
        "end_to_end": metrics, "end_to_end_raw": raw_metrics,
        "slowdown": summarize(workload.slowdowns),
        "statement_classes": statement_classes,
        "per_layer": layers, "counts": counts,
        "sample_counts": _sample_counts(workload.samples),
    }


def _sample_counts(samples: List[Sample]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for sample in samples:
        out[sample.kind] = out.get(sample.kind, 0) + 1
    return out
