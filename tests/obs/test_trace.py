"""The trace layer: regions, statement records, the ring, the no-op path."""

import threading

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import NO_REGION, Tracer


@pytest.fixture
def tracer():
    # Tracer.statement() makes its record the thread's active one, so the
    # module-level helpers resolve it without further plumbing.
    return Tracer(enabled=True)


def _shape(record):
    """``(span_id, parent_span_id, depth, name)`` of each trace row."""
    return [row[:4] for row in record.trace_rows()]


class TestRegionNesting:
    def test_regions_nest_under_the_statement(self, tracer):
        with tracer.statement("SELECT 1") as record:
            with obs_trace.region("outer"):
                with obs_trace.region("inner"):
                    obs_trace.add("rows", 3)
        assert _shape(record) == [("1", None, 0, "statement"),
                                  ("1.1", "1", 1, "outer"),
                                  ("1.1.1", "1.1", 2, "inner")]

    def test_sibling_regions_stay_siblings(self, tracer):
        with tracer.statement("x") as record:
            with obs_trace.region("a"):
                pass
            with obs_trace.region("b"):
                with obs_trace.region("c"):
                    pass
            with obs_trace.region("d"):
                pass
        assert _shape(record) == [("1", None, 0, "statement"),
                                  ("1.1", "1", 1, "a"),
                                  ("1.2", "1", 1, "b"),
                                  ("1.2.1", "1.2", 2, "c"),
                                  ("1.3", "1", 1, "d")]

    def test_counters_are_the_statements(self, tracer):
        with tracer.statement("x") as record:
            with obs_trace.region("a"):
                obs_trace.add("rows", 2)
                with obs_trace.region("b"):
                    obs_trace.add("rows", 5)
                    obs_trace.add("cases", 1)
        assert record.totals() == {"rows": 7, "cases": 1}
        counters = [row[6] for row in record.trace_rows()]
        assert counters == [{"rows": 7, "cases": 1}, {}, {}]

    def test_region_durations_are_measured(self, tracer):
        with tracer.statement("x") as record:
            with obs_trace.region("a"):
                pass
        statement, region = record.trace_rows()
        assert statement[5] == record.duration_ms >= 0
        assert region[5] >= 0
        assert statement[4] <= region[4]

    def test_attributes_are_kept(self, tracer):
        with tracer.statement("x") as record:
            with obs_trace.region("bind", model="M1"):
                pass
        assert record.trace_rows()[1][7] == {"model": "M1"}

    def test_a_plan_nodes_region_reports_its_cell(self, tracer):
        from repro.obs.explain import PlanNode
        node = PlanNode("count", target="T", open=lambda node, arg: arg)
        with tracer.statement("x") as record:
            assert node.run(7) == 7
            cell = record.actuals[node]
        _, region = record.trace_rows()
        assert region[3] == "count"
        assert region[5] == cell.wall_ms
        assert region[7] == {"target": "T", "rows": 7}

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
    def test_regions_are_noops_when_capture_disabled(self):
        tracer = Tracer(enabled=False)
        with tracer.statement("x") as record:
            assert obs_trace.region("a") is NO_REGION
            with obs_trace.region("a") as region:
                assert region is None
                obs_trace.add("rows", 4)
        # Counters still land on the statement for the log.
        assert record.totals() == {"rows": 4}
        assert record.regions is None
        assert _shape(record) == [("1", None, 0, "statement")]

    def test_recording_off_produces_null_records(self):
        tracer = Tracer()
        tracer.recording = False
        with tracer.statement("x") as record:
            record.kind = "SELECT"  # swallowed, not stored
            obs_trace.add("rows", 1)
        assert len(tracer) == 0

    def test_module_helpers_are_noops_without_active_tracer(self):
        assert obs_trace.active_record() is None
        with obs_trace.region("orphan") as region:
            assert region is None
        obs_trace.add("rows", 1)  # must not raise


class TestThreading:
    def test_each_thread_gets_its_own_regions(self):
        tracer = Tracer(enabled=True)
        errors = []

        def worker(name):
            for index in range(20):
                with tracer.statement(f"{name} {index}") as record:
                    with obs_trace.region(name):
                        obs_trace.add("rows", 1)
                if _shape(record)[1:] != [("1.1", "1", 1, name)]:
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
