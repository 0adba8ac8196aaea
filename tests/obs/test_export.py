"""Telemetry export: Prometheus exposition format and the JSONL sink.

The exposition parser implemented here is deliberately strict — it
re-implements the text-format grammar (HELP/TYPE comment lines, sample
lines with optional labels, escape rules) rather than fuzzy-matching
substrings, so a malformed rendering fails loudly.
"""

import json
import re
from datetime import datetime

import pytest

from repro.obs.export import (
    CONTENT_TYPE,
    escape_label_value,
    metric_name,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import SlowQuerySink, statement_record_dict
from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer

# -- a strict text-format (0.0.4) parser --------------------------------------

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(
    rf"^(?P<name>{_NAME})"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>-?(?:\d+(?:\.\d+)?(?:e-?\d+)?|NaN|[+-]Inf))$")
_LABEL = re.compile(rf'({_NAME})="((?:[^"\\]|\\.)*)"(?:,|$)')


def parse_exposition(text):
    """Parse an exposition into {family: {"type", "help", "samples"}}.

    Raises AssertionError on any line that is not a well-formed comment
    or sample, on samples without a preceding TYPE, and on unescaped
    label values.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families = {}
    current = None
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families[name] = {"help": help_text, "type": None, "samples": []}
            current = name
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name in families, f"TYPE before HELP for {name}"
            assert kind in ("counter", "gauge", "summary", "histogram",
                            "untyped"), f"bad type {kind!r}"
            families[name]["type"] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name = match.group("name")
        family = name
        for suffix in ("_count", "_sum"):
            if family not in families and family.endswith(suffix):
                family = family[:-len(suffix)]
        assert family in families, f"sample {name} has no HELP/TYPE family"
        assert families[family]["type"] is not None
        labels = {}
        raw = match.group("labels")
        if raw is not None:
            consumed = 0
            for pair in _LABEL.finditer(raw):
                labels[pair.group(1)] = pair.group(2)
                consumed = pair.end()
            assert consumed == len(raw), f"trailing label junk: {raw!r}"
        value = match.group("value")
        families[family]["samples"].append(
            (name, labels, float("nan") if value == "NaN" else float(value)))
    return families


def _sample(families, family, name=None, **labels):
    for sample_name, sample_labels, value in families[family]["samples"]:
        if sample_name == (name or family) and sample_labels == labels:
            return value
    raise KeyError(f"{name or family} {labels} not in {family}")


# -- exposition rendering ------------------------------------------------------

class TestRenderPrometheus:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("statements.total").inc(7)
        registry.gauge("pool.max_workers").set(4)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("statements.latency_ms").observe(value)
        return registry

    def test_round_trips_through_the_strict_parser(self):
        families = parse_exposition(render_prometheus(self._registry()))
        assert families["repro_statements_total"]["type"] == "counter"
        assert _sample(families, "repro_statements_total") == 7
        assert families["repro_pool_max_workers"]["type"] == "gauge"
        assert _sample(families, "repro_pool_max_workers") == 4

    def test_histogram_renders_quantiles_count_and_sum(self):
        families = parse_exposition(render_prometheus(self._registry()))
        latency = "repro_statements_latency_ms"
        assert families[latency]["type"] == "summary"
        assert _sample(families, latency, quantile="0.5") == 2.0
        assert _sample(families, latency, name=latency + "_count") == 4
        assert _sample(families, latency, name=latency + "_sum") == 10.0

    def test_histogram_count_and_sum_survive_window_eviction(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", window=8)
        for value in range(1, 1001):
            histogram.observe(float(value))
        families = parse_exposition(render_prometheus(registry))
        # Quantiles see only the last 8 observations...
        assert _sample(families, "repro_h", quantile="0.5") >= 993.0
        # ...the monotonic accumulators never forget: sum(1..1000).
        assert _sample(families, "repro_h", name="repro_h_count") == 1000
        assert _sample(families, "repro_h", name="repro_h_sum") == 500500.0

    def test_info_gauge_with_escaped_labels(self):
        families = parse_exposition(render_prometheus(
            MetricsRegistry(),
            info={"version": "1.0", "note": 'quote " slash \\ nl \n end'}))
        name, labels, value = \
            families["repro_provider_info"]["samples"][0]
        assert value == 1
        assert labels["version"] == "1.0"
        assert labels["note"] == 'quote \\" slash \\\\ nl \\n end'

    def test_empty_histogram_skips_quantiles_keeps_count(self):
        registry = MetricsRegistry()
        registry.histogram("idle")
        families = parse_exposition(render_prometheus(registry))
        names = [s[0] for s in families["repro_idle"]["samples"]]
        assert "repro_idle_count" in names
        assert all("quantile" not in s[1] for s in
                   families["repro_idle"]["samples"])

    def test_golden_exposition_pin(self):
        """Byte-exact pin of a tiny exposition — scrape configs key on it."""
        registry = MetricsRegistry()
        registry.counter("ops").inc(3)
        registry.gauge("depth").set(1.5)
        expected = (
            "# HELP repro_depth gauge depth\n"
            "# TYPE repro_depth gauge\n"
            "repro_depth 1.5\n"
            "# HELP repro_ops counter ops\n"
            "# TYPE repro_ops counter\n"
            "repro_ops 3\n")
        assert render_prometheus(registry) == expected

    def test_name_sanitization(self):
        assert metric_name("statements.latency_ms") == \
            "repro_statements_latency_ms"
        assert metric_name("model.My Model!.cases") == \
            "repro_model_My_Model__cases"
        assert metric_name("9lives", namespace="") == "_9lives"

    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_content_type_is_the_exposition_version(self):
        assert "version=0.0.4" in CONTENT_TYPE

    def test_live_provider_exposition_parses(self, conn):
        conn.execute("CREATE TABLE T (x INT)")
        conn.execute("INSERT INTO T VALUES (1), (2)")
        conn.execute("SELECT * FROM T")
        families = parse_exposition(
            render_prometheus(conn.provider.metrics))
        assert _sample(families, "repro_statements_total") >= 3
        latency = "repro_statements_latency_ms"
        assert _sample(families, latency, name=latency + "_count") >= 3


# -- the JSONL slow-query sink -------------------------------------------------

def _record(tracer, text="SELECT 1", duration_ms=5.0):
    with tracer.statement(text, kind="SELECT") as record:
        pass
    record.duration_ms = duration_ms
    return record


class TestSlowQuerySink:
    def test_record_schema_is_pinned(self, tmp_path):
        """The JSONL record keys are a contract for log shippers."""
        tracer = Tracer()
        sink = SlowQuerySink(str(tmp_path / "slow.jsonl"))
        assert sink.maybe_write(_record(tracer))
        record = sink.records()[0]
        # DM_QUERY_LOG's columns, lower-cased, plus the counter totals.
        assert sorted(record) == [
            "batches", "cache_hits", "cache_misses", "cancel_requested",
            "cases", "counters", "cpu_ms", "duration_ms", "error",
            "fingerprint", "kind", "lock_wait_ms", "lock_waits",
            "peak_batch_rows",
            "phase", "plan_hash", "pool_cpu_ms", "pool_tasks",
            "pool_tasks_in_flight", "rows_out", "rows_processed",
            "rows_scanned", "session", "span_count", "started_at",
            "statement", "statement_id", "status", "thread",
        ]
        assert record["kind"] == "SELECT"
        assert record["status"] == "ok"
        assert record["thread"]
        # Local time with its UTC offset, to the millisecond.
        started = datetime.fromisoformat(record["started_at"])
        assert started.utcoffset() is not None
        assert re.search(r"T\d\d:\d\d:\d\d\.\d{3}[+-]\d\d:\d\d$",
                         record["started_at"])

    def test_trace_rows_included_only_when_captured(self, tmp_path):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.statement("SELECT 2", kind="SELECT") as record:
            with obs_trace.region("engine.select"):
                obs_trace.add("rows_out", 2)
        record.duration_ms = 1.0
        sink = SlowQuerySink(str(tmp_path / "slow.jsonl"))
        sink.maybe_write(record)
        statement, region = sink.records()[0]["spans"]
        assert (statement["name"], statement["counters"]) == \
            ("statement", {"rows_out": 2})
        assert (region["name"], region["parent_span_id"],
                region["counters"]) == ("engine.select", "1", {})
        tracer.enabled = False
        sink.maybe_write(_record(tracer, duration_ms=1.0))
        assert "spans" not in sink.records()[1]

    def test_threshold_filters_fast_statements(self, tmp_path):
        tracer = Tracer()
        sink = SlowQuerySink(str(tmp_path / "slow.jsonl"), threshold_ms=10.0)
        assert not sink.maybe_write(_record(tracer, duration_ms=5.0))
        assert sink.maybe_write(_record(tracer, duration_ms=15.0))
        assert len(sink.records()) == 1

    def test_rotation_shifts_backups(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        sink = SlowQuerySink(str(path), max_bytes=300, backups=2)
        tracer = Tracer()
        for index in range(40):
            sink.maybe_write(_record(tracer, text=f"SELECT {index} AS v"))
        assert path.exists()
        assert (tmp_path / "slow.jsonl.1").exists()
        # Every rotated file still holds valid JSONL.
        for rotated in tmp_path.glob("slow.jsonl*"):
            for line in rotated.read_text().splitlines():
                json.loads(line)

    def test_write_failure_disables_the_sink(self, tmp_path):
        sink = SlowQuerySink(str(tmp_path / "slow.jsonl"))
        sink.path = str(tmp_path)  # a directory: open(...) raises OSError
        assert not sink.maybe_write(_record(Tracer()))
        assert sink.broken
        assert not sink.maybe_write(_record(Tracer()))

    def test_provider_wiring_via_connect_kwargs(self, tmp_path):
        import repro
        path = tmp_path / "telemetry" / "slow.jsonl"
        conn = repro.connect(telemetry_path=str(path), slow_query_ms=0.0)
        try:
            conn.execute("CREATE TABLE T (x INT)")
            conn.execute("SELECT 1 AS v")
            records = conn.provider.slow_sink.records()
            assert [r["kind"] for r in records] == ["CREATE_TABLE", "SELECT"]
            assert all(r["statement_id"] > 0 for r in records)
        finally:
            conn.close()

    def test_threshold_keeps_fast_statements_out_of_the_file(self, tmp_path):
        import repro
        path = tmp_path / "slow.jsonl"
        conn = repro.connect(telemetry_path=str(path), slow_query_ms=10_000)
        try:
            conn.execute("SELECT 1 AS v")
            assert conn.provider.slow_sink.records() == []
        finally:
            conn.close()
