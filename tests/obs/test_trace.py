"""The trace layer: spans, statement records, the ring, the no-op path."""

import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_SPAN, Tracer


@pytest.fixture
def tracer():
    # Tracer.statement() makes its record the thread's active one, so the
    # module-level helpers resolve it without further plumbing.
    return Tracer(enabled=True)


class TestSpanNesting:
    def test_spans_nest_under_the_statement_root(self, tracer):
        with tracer.statement("SELECT 1") as record:
            with obs_trace.span("outer"):
                with obs_trace.span("inner"):
                    obs_trace.add("rows", 3)
        root = record.root
        assert [s.name for s in root.children] == ["outer"]
        assert [s.name for s in root.children[0].children] == ["inner"]
        assert root.children[0].children[0].counters["rows"] == 3

    def test_sibling_spans_stay_siblings(self, tracer):
        with tracer.statement("x") as record:
            with obs_trace.span("a"):
                pass
            with obs_trace.span("b"):
                pass
        assert [s.name for s in record.root.children] == ["a", "b"]

    def test_counters_roll_up_in_totals(self, tracer):
        with tracer.statement("x") as record:
            with obs_trace.span("a"):
                obs_trace.add("rows", 2)
                with obs_trace.span("b"):
                    obs_trace.add("rows", 5)
                    obs_trace.add("cases", 1)
        assert record.totals() == {"rows": 7, "cases": 1}

    def test_span_durations_are_measured(self, tracer):
        with tracer.statement("x") as record:
            with obs_trace.span("a"):
                pass
        assert record.duration_ms >= 0
        assert record.root.children[0].duration_ms >= 0

    def test_spans_walk_depth_first_with_depths(self, tracer):
        with tracer.statement("x") as record:
            with obs_trace.span("a"):
                with obs_trace.span("b"):
                    pass
            with obs_trace.span("c"):
                pass
        walked = [(span.name, depth) for span, depth in record.spans()]
        assert walked == [("statement", 0), ("a", 1), ("b", 2), ("c", 1)]

    def test_attributes_are_kept(self, tracer):
        with tracer.statement("x") as record:
            with obs_trace.span("bind", model="M1"):
                pass
        assert record.root.children[0].attributes == {"model": "M1"}


class TestStatementRecords:
    def test_error_statements_capture_type_and_message(self, tracer):
        with pytest.raises(ValueError):
            with tracer.statement("BROKEN"):
                raise ValueError("boom")
        record = tracer.last()
        assert record.status == "error"
        assert record.error == "ValueError: boom"

    def test_statement_ids_are_monotonic(self, tracer):
        for text in ("a", "b", "c"):
            with tracer.statement(text):
                pass
        ids = [r.statement_id for r in tracer.statements()]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3

    def test_on_statement_callback_fires(self, tracer):
        seen = []
        tracer.on_statement = seen.append
        with tracer.statement("x"):
            pass
        assert len(seen) == 1
        assert seen[0].text == "x"


class TestRingBuffer:
    def test_ring_evicts_oldest_first(self):
        tracer = Tracer(ring_size=3)
        for index in range(5):
            with tracer.statement(f"stmt {index}"):
                pass
        texts = [r.text for r in tracer.statements()]
        assert texts == ["stmt 2", "stmt 3", "stmt 4"]
        assert len(tracer) == 3

    def test_resize_keeps_newest(self):
        tracer = Tracer(ring_size=10)
        for index in range(6):
            with tracer.statement(f"stmt {index}"):
                pass
        tracer.resize_ring(2)
        assert [r.text for r in tracer.statements()] == \
            ["stmt 4", "stmt 5"]
        assert tracer.ring_size == 2

    def test_clear_empties_the_ring(self):
        tracer = Tracer()
        with tracer.statement("x"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.last() is None


class TestDisabledPaths:
    def test_spans_are_noops_when_capture_disabled(self):
        tracer = Tracer(enabled=False)
        with tracer.statement("x") as record:
            with obs_trace.span("a") as span:
                assert span is NULL_SPAN
                obs_trace.add("rows", 4)
        # Counters still land on the statement root for the log.
        assert record.totals() == {"rows": 4}
        assert record.root.children == []

    def test_recording_off_produces_null_records(self):
        tracer = Tracer()
        tracer.recording = False
        with tracer.statement("x") as record:
            record.kind = "SELECT"  # swallowed, not stored
            obs_trace.add("rows", 1)
        assert len(tracer) == 0

    def test_module_helpers_are_noops_without_active_tracer(self):
        assert obs_trace.active_record() is None
        with obs_trace.span("orphan") as span:
            assert span is NULL_SPAN
        obs_trace.add("rows", 1)  # must not raise


class TestThreading:
    def test_each_thread_gets_its_own_span_stack(self):
        tracer = Tracer(enabled=True)
        errors = []

        def worker(name):
            for index in range(20):
                with tracer.statement(f"{name} {index}") as record:
                    with obs_trace.span(name):
                        obs_trace.add("rows", 1)
                if [s.name for s in record.root.children] != [name]:
                    errors.append(record)

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(tracer) == 80


class TestCaptureIsPerStatement:
    """EXPLAIN ANALYZE profiles its own record only, and captures no spans:
    its plan nodes take their actuals without them."""

    ANALYZE = "EXPLAIN ANALYZE SELECT COUNT(*) FROM T WHERE V > 10"

    @pytest.fixture
    def held(self, monkeypatch):
        """A connection whose EXPLAIN ANALYZE threads park at the entry of
        their plan's run() until released: ``hold(name)`` returns the
        (entered, release) events of the thread called ``name``."""
        import repro
        from repro.core import provider as provider_module
        conn = repro.connect()
        conn.execute("CREATE TABLE T (Id LONG, V DOUBLE)")
        conn.execute("INSERT INTO T VALUES " + ", ".join(
            f"({i}, {i * 0.5})" for i in range(200)))
        gates = {}
        build = provider_module.build_plan

        def build_held(provider, statement):
            plan = build(provider, statement)
            gate = gates.get(threading.current_thread().name)
            if gate is not None:
                opener = plan.open

                def open_held(node, batch_size):
                    gate[0].set()
                    assert gate[1].wait(10)
                    return opener(node, batch_size)
                plan.open = open_held
            return plan

        monkeypatch.setattr(provider_module, "build_plan", build_held)

        def hold(name):
            gates[name] = (threading.Event(), threading.Event())
            return gates[name]

        yield conn, hold
        conn.close()

    def _analyze_on(self, conn, name, results):
        thread = threading.Thread(
            name=name, target=lambda: results.__setitem__(
                name, conn.execute(self.ANALYZE)))
        thread.start()
        return thread

    def test_a_concurrent_select_captures_nothing(self, held):
        conn, hold = held
        entered, release = hold("analyzer")
        results = {}
        thread = self._analyze_on(conn, "analyzer", results)
        try:
            assert entered.wait(10)
            conn.execute("SELECT Id FROM T WHERE V > 10")
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        spans = dict(conn.execute(
            "SELECT KIND, SPAN_COUNT FROM $SYSTEM.DM_QUERY_LOG "
            "WHERE KIND <> 'INSERT'").rows)
        assert spans["SELECT"] == 1
        assert spans["EXPLAIN_ANALYZE"] == 1
        assert conn.provider.tracer.enabled is False

    def test_overlapping_analyzes_leave_tracing_off_and_both_profiled(
            self, held):
        conn, hold = held
        first, second = hold("first"), hold("second")
        results = {}
        threads = [self._analyze_on(conn, name, results)
                   for name in ("first", "second")]
        try:
            assert first[0].wait(10) and second[0].wait(10)
            first[1].set()
            threads[0].join(10)
        finally:
            first[1].set()
            second[1].set()
            threads[1].join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert conn.provider.tracer.enabled is False
        for name in ("first", "second"):
            plan = results[name]
            actual = [row[plan.index_of("ACTUAL_ROWS")] for row in plan.rows]
            assert actual and None not in actual, (name, plan.rows)
