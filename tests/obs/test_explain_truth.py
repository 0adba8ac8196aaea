"""EXPLAIN names the path that runs — and the path is decided once.

For every statement of the characterisation golden (the 41-shape grid, the
optimizer and index cases, and the joins whose plan text used to disagree
with execution) the strategy text must agree with what execution did:

* ``index.seeks`` / ``index.range_seeks`` move once per ``index seek`` node
  shown, and not at all when none is;
* ``index.join_probes`` moves once per join whose strategy says
  ``right side index <name>``;
* a join says ``nested loop`` exactly when no ON equality relates a column
  of its left side to a column of its right side — judged here against the
  column names of the sides as *executed*, not as planned.

The mining case of the golden gets the same treatment: pushdown text vs
``cases_bound``, ``parallel`` / ``serial (<reason>)`` vs the pool's
statement and fallback counters, and — under EXPLAIN ANALYZE on a
four-worker pool — actuals on every node that ran and on none that did not.

The second half pins "decide once": a first-seen indexed SELECT makes its
index choice (``index_choice``) a single time, and a first-seen PREDICTION
JOIN plans its sub-select a single time, however many observers (workload
repository, EXPLAIN ANALYZE) look at the plan.
"""

import re

import pytest

import repro
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_statement
from repro.obs.explain import is_plan_rowset
from repro.sqlstore import engine as engine_module

from tests.differential.test_parallel_vs_serial import SCENARIOS
from tests.obs.test_explain_golden import (
    CASES,
    MINING_POOLS,
    case_connection,
    mining_connection,
    mining_statements,
)

SEEK_COUNTERS = ("index.seeks", "index.range_seeks")


def _plan_rows(conn, statement):
    rowset = conn.execute(statement)
    assert is_plan_rowset(rowset)
    names = [c.name for c in rowset.columns]
    return [dict(zip(names, row)) for row in rowset.rows]


def _counter(conn, name):
    return conn.provider.metrics.counter(name).value


def _joins(ref):
    """Join nodes of a FROM tree in plan (pre-)order."""
    if isinstance(ref, ast.Join):
        yield ref
        yield from _joins(ref.left)
        yield from _joins(ref.right)


def _column_equalities(condition):
    if isinstance(condition, ast.BinaryOp) and condition.op == "AND":
        yield from _column_equalities(condition.left)
        yield from _column_equalities(condition.right)
    elif isinstance(condition, ast.BinaryOp) and condition.op == "=" and \
            isinstance(condition.left, ast.ColumnRef) and \
            isinstance(condition.right, ast.ColumnRef):
        yield condition.left, condition.right


def _names(conn, ref):
    """Upper-cased (qualifier, name) of a FROM source, from running it."""
    relation = conn.provider.database.resolve_table_ref(ref)
    return {((qualifier or "").upper(), column.name.upper())
            for qualifier, column in relation.columns}


def _resolves(column_ref, names):
    parts = [part.upper() for part in column_ref.parts]
    if len(parts) == 1:
        return any(name == parts[0] for _, name in names)
    return (parts[-2], parts[-1]) in names


def _binds_an_equi_pair(conn, join):
    left, right = _names(conn, join.left), _names(conn, join.right)
    return any(
        (_resolves(a, left) and _resolves(b, right)) or
        (_resolves(b, left) and _resolves(a, right))
        for a, b in _column_equalities(join.condition))


@pytest.fixture(scope="module", params=[True, False],
                ids=["stats_on", "stats_off"])
def connections(request):
    conns = {case: case_connection(case, statistics=request.param)
             for case, _, _, _ in CASES}
    yield conns
    for conn in conns.values():
        conn.close()


@pytest.mark.parametrize(
    "case,statement",
    [(case, statement) for case, _, _, statements in CASES
     for statement in statements])
def test_strategy_text_matches_execution(connections, case, statement):
    conn = connections[case]
    plan = _plan_rows(conn, f"EXPLAIN {statement}")
    before = {name: _counter(conn, name)
              for name in SEEK_COUNTERS + ("index.join_probes",)}
    conn.execute(statement)
    moved = {name: _counter(conn, name) - value
             for name, value in before.items()}

    seek_nodes = [row for row in plan if row["OPERATOR"] == "index seek"]
    assert sum(moved[name] for name in SEEK_COUNTERS) == len(seek_nodes)
    for row in seek_nodes:
        counter = ("index.range_seeks" if "(range)" in row["STRATEGY"]
                   else "index.seeks")
        assert moved[counter] >= 1

    join_rows = [row for row in plan if row["OPERATOR"] == "join"]
    indexed = [row for row in join_rows
               if "right side index" in row["STRATEGY"]]
    assert moved["index.join_probes"] == len(indexed)

    parsed = parse_statement(statement)
    if not isinstance(parsed, ast.SelectStatement):
        return
    joins = list(_joins(parsed.from_clause))
    assert len(joins) == len(join_rows)
    for join, row in zip(joins, join_rows):
        if join.kind == "CROSS":
            assert "cross product" in row["STRATEGY"]
            continue
        nested = "nested loop" in row["STRATEGY"]
        assert nested == (not _binds_an_equi_pair(conn, join)), \
            f"{row['STRATEGY']!r} for ON {join.condition!r}"


def test_join_over_provider_leaf_names_its_method_once_opened():
    """A ``$SYSTEM`` rowset names its columns only by running, so the join
    binds its keys at open — through the same decision function — and
    EXPLAIN ANALYZE restates the strategy with what ran."""
    conn = case_connection("indexes")
    try:
        statement = ("SELECT p.id, i.INDEX_NAME FROM People AS p "
                     "JOIN $SYSTEM.DM_INDEXES AS i ON p.city = i.TABLE_NAME")
        planned = next(row for row in _plan_rows(conn, f"EXPLAIN {statement}")
                       if row["OPERATOR"] == "join")
        assert "chosen at open" in planned["STRATEGY"]
        analyzed = next(
            row for row in _plan_rows(conn, f"EXPLAIN ANALYZE {statement}")
            if row["OPERATOR"] == "join")
        assert analyzed["STRATEGY"].startswith("hash join (")
    finally:
        conn.close()


# -- the mining case ---------------------------------------------------------

#: ``serial (<reason>)`` -> the ``pool.serial_fallbacks.*`` metric that run
#: owes; the two pre-gate reasons (no usable pool) owe none.
FALLBACK_OF_REASON = {
    "blocking clause": "blocking_clause",
    "subquery": "subquery",
    "small input": "small_input",
    "effective dop is 1": None,
    "pool mode is serial": None,
}


def _metrics(conn, prefixes):
    rows = conn.execute(
        "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS").rows
    return {name: value for name, value in rows if name.startswith(prefixes)}


def _pool_counters(conn):
    return _metrics(conn, ("pool.parallel_statements",
                           "pool.serial_fallbacks"))


def _moved(before, after):
    return {name: after[name] - before.get(name, 0.0) for name in after
            if after[name] != before.get(name, 0.0)}


def _source_rows(conn, statement):
    """The PREDICTION JOIN source's rows (as dicts), from running it."""
    source = parse_statement(statement).from_clause.source
    relation = conn.provider.database.resolve_table_ref(source)
    names = [column.name for _, column in relation.columns]
    return [dict(zip(names, row)) for batch in relation.batches(1024)
            for row in batch]


@pytest.mark.parametrize("statistics", [True, False],
                         ids=["stats_on", "stats_off"])
@pytest.mark.parametrize("pool", [label for label, _ in MINING_POOLS])
@pytest.mark.parametrize("service", sorted(SCENARIOS))
def test_mining_strategy_text_matches_execution(service, pool, statistics):
    conn = mining_connection(service, statistics, **dict(MINING_POOLS)[pool])
    conn.provider.tracer.enabled = True
    try:
        for statement in mining_statements(service):
            root = next(row for row in _plan_rows(conn, f"EXPLAIN {statement}")
                        if row["OPERATOR"] in ("train", "prediction join"))
            # Every binding is a cache miss, so cases_bound counts them all.
            conn.provider.caseset_cache.clear()
            before = _pool_counters(conn)
            conn.execute(statement)
            bound = conn.provider.tracer.last().totals().get("cases_bound", 0)
            moved = _moved(before, _pool_counters(conn))
            if root["OPERATOR"] == "train":
                # Training never fans out and owes no fallback.
                assert moved == {}
                continue
            strategy = root["STRATEGY"].split("; ", 1)[1]
            if strategy.startswith("parallel"):
                assert moved == {"pool.parallel_statements": 1.0,
                                 "pool.parallel_statements.predict": 1.0}
            else:
                reason = re.fullmatch(r"serial \((.*)\)", strategy).group(1)
                fallback = next(metric for prefix, metric
                                in FALLBACK_OF_REASON.items()
                                if reason.startswith(prefix))
                assert moved == ({} if fallback is None else {
                    "pool.serial_fallbacks": 1.0,
                    f"pool.serial_fallbacks.{fallback}": 1.0})

            rows = _source_rows(conn, statement)
            if "source predicate(s) below binding" in (root["DETAIL"] or ""):
                assert statement.endswith(" WHERE t.Id > 50")
                assert bound == sum(1 for row in rows if row["Id"] > 50) == 10
            elif parse_statement(statement).top is None:
                assert bound == len(rows)
            else:  # TOP stops pulling early
                assert 0 < bound <= len(rows)
    finally:
        conn.close()


@pytest.mark.parametrize("service,variant", [
    ("Repro_Naive_Bayes", ""),
    ("Repro_Naive_Bayes", " WHERE t.Id > 50"),
    ("Repro_Association_Rules", ""),
])
def test_analyzed_parallel_prediction_reports_every_node_that_ran(
        service, variant):
    conn = mining_connection(service, max_workers=4, pool_mode="thread")
    try:
        conn.execute(SCENARIOS[service]["train"])
        plan = _plan_rows(
            conn, "EXPLAIN ANALYZE " + SCENARIOS[service]["predict"] + variant)
        root, stage, source = plan[0], plan[1], plan[2]
        assert root["OPERATOR"] == "prediction join"
        assert stage["OPERATOR"] == "parallel predict"
        assert all(row["ACTUAL_ROWS"] is not None for row in plan), plan
        # Nesting, not a timing threshold: the source opens inside the
        # parallel stage, which runs inside the join.
        assert source["WALL_MS"] <= stage["WALL_MS"] <= root["WALL_MS"]
        for row in plan:
            assert (row["POOL_TASKS"] is not None) == \
                ("dop=" in (row["STRATEGY"] or "")
                 and row["OPERATOR"] == "parallel predict")
        assert stage["POOL_TASKS"] >= 1
    finally:
        conn.close()


def test_a_constant_source_never_meets_the_caseset_cache():
    """A FROM-less source is one literal row nothing replays: EXPLAIN says
    the cache is bypassed and the run neither probes nor fills it — while
    the same model joined to a table still misses, fills, then hits."""
    conn = mining_connection("Repro_Decision_Trees")
    singleton = ("SELECT Predict(Buys) FROM M NATURAL PREDICTION JOIN "
                 "(SELECT 'm' AS G, 'hi' AS H) AS t")
    batch = SCENARIOS["Repro_Decision_Trees"]["predict"]
    cache = conn.provider.caseset_cache

    def moved(statement):
        before = cache.stats()
        conn.execute(statement)
        return {name: value - before[name]
                for name, value in cache.stats().items()
                if value != before[name]}
    try:
        conn.execute(SCENARIOS["Repro_Decision_Trees"]["train"])
        entries = len(cache)
        for _ in range(2):
            root = _plan_rows(conn, f"EXPLAIN {singleton}")[0]
            assert root["CACHE"] == "bypassed (constant source)"
            assert moved(singleton) == {}
        analyzed = _plan_rows(conn, f"EXPLAIN ANALYZE {singleton}")[0]
        assert analyzed["CACHE"] == "bypassed (constant source)"
        assert len(cache) == entries
        record = conn.provider.tracer.last()
        assert (record.cache_hits, record.cache_misses) == (0, 0)

        assert _plan_rows(conn, f"EXPLAIN {batch}")[0]["CACHE"] == \
            "miss expected"
        assert moved(batch) == {"misses": 1.0}
        assert _plan_rows(conn, f"EXPLAIN {batch}")[0]["CACHE"] == \
            "hit expected"
        assert moved(batch) == {"hits": 1.0}
        # ...and is still there after more singletons than the cache has
        # entries: one-row casesets used to evict it.
        for number in range(cache.capacity + 2):
            conn.execute(singleton.replace("'hi'", f"'h{number}'"))
        assert moved(batch) == {"hits": 1.0}
    finally:
        conn.close()


@pytest.mark.parametrize("pool", [label for label, _ in MINING_POOLS])
def test_second_insert_into_an_incremental_service_names_what_runs(pool):
    """A trained naive-Bayes model absorbs a covered caseset: no refit runs,
    so none is shown, and the root reports the cache outcome it saw."""
    conn = mining_connection("Repro_Naive_Bayes", **dict(MINING_POOLS)[pool])
    train = SCENARIOS["Repro_Naive_Bayes"]["train"]
    refits = ("fit schema", "fit")
    try:
        first = _plan_rows(conn, f"EXPLAIN ANALYZE {train}")
        assert "incremental absorb" not in first[0]["STRATEGY"]
        assert first[0]["CACHE"] == "miss expected, actual miss"
        assert [row["ACTUAL_ROWS"] for row in first
                if row["OPERATOR"] in refits] == [60, 60]

        planned = _plan_rows(conn, f"EXPLAIN {train}")
        assert planned[0]["STRATEGY"].startswith("incremental absorb")
        assert not [row for row in planned if row["OPERATOR"] in refits]

        second = _plan_rows(conn, f"EXPLAIN ANALYZE {train}")
        assert second[0]["CACHE"] == "hit expected, actual hit"
        assert not [row for row in second if row["OPERATOR"] in refits]
        absorb = next(row for row in second
                      if row["OPERATOR"] == "incremental absorb")
        assert absorb["ACTUAL_ROWS"] == 60
        assert conn.provider.model("M").case_count == 120
    finally:
        conn.close()


# -- decide once -------------------------------------------------------------

@pytest.fixture
def counted_choose_index(monkeypatch):
    """The engine's index choices (``index_choice``), whether a statement
    is planned on its own or bound to a kept plan by its values."""
    calls = []
    real = engine_module.index_choice
    monkeypatch.setattr(engine_module, "index_choice", lambda *args: (
        calls.append(args) or real(*args)))
    return calls


def _indexed_connection(**kwargs):
    conn = repro.connect(**kwargs)
    conn.execute("CREATE TABLE T (id INT, v TEXT)")
    conn.execute("INSERT INTO T VALUES " + ", ".join(
        f"({i}, 'v{i}')" for i in range(50)))
    conn.execute("CREATE INDEX ix_t_id ON T (id)")
    return conn


def test_first_seen_select_chooses_its_index_once(counted_choose_index):
    conn = _indexed_connection()
    try:
        assert conn.execute("SELECT v FROM T WHERE id = 7").rows == [("v7",)]
        assert len(counted_choose_index) == 1
    finally:
        conn.close()


def test_explain_analyze_executes_the_tree_it_renders(counted_choose_index):
    conn = _indexed_connection()
    try:
        plan = _plan_rows(conn, "EXPLAIN ANALYZE SELECT v FROM T WHERE id = 8")
        assert len(counted_choose_index) == 1
        seek = plan[-1]
        assert seek["OPERATOR"] == "index seek"
        assert seek["ACTUAL_ROWS"] == 1
        assert _counter(conn, "index.seeks") == 1
    finally:
        conn.close()


def test_plain_explain_plans_once_and_moves_no_usage_counter(
        counted_choose_index):
    conn = _indexed_connection()
    try:
        plan = _plan_rows(conn, "EXPLAIN SELECT v FROM T WHERE id = 9")
        assert plan[-1]["OPERATOR"] == "index seek"
        assert len(counted_choose_index) == 1
        index = conn.provider.database.table("T").indexes["IX_T_ID"]
        assert (index.seeks, index.range_seeks, index.join_probes) == \
            (0, 0, 0)
        for name in SEEK_COUNTERS + ("index.join_probes",):
            assert _counter(conn, name) == 0
    finally:
        conn.close()


def test_repository_off_still_chooses_once(counted_choose_index):
    conn = _indexed_connection(repository=False)
    try:
        conn.execute("SELECT v FROM T WHERE id = 10")
        assert len(counted_choose_index) == 1
    finally:
        conn.close()


@pytest.fixture
def counted_plan_select(monkeypatch):
    calls = []
    real = engine_module.Database.plan_select

    def counting(self, statement, *args):
        calls.append(statement)
        return real(self, statement, *args)
    monkeypatch.setattr(engine_module.Database, "plan_select", counting)
    return calls


PREDICT = SCENARIOS["Repro_Naive_Bayes"]["predict"]


def _trained_connection(**kwargs):
    conn = mining_connection("Repro_Naive_Bayes", **kwargs)
    conn.execute(SCENARIOS["Repro_Naive_Bayes"]["train"])
    return conn


@pytest.mark.parametrize("kwargs", [
    dict(),
    dict(max_workers=4, pool_mode="thread"),
    dict(repository=False),
    dict(max_workers=4, pool_mode="thread", repository=False),
], ids=["defaults", "pool", "no_repository", "pool_no_repository"])
def test_first_seen_prediction_join_plans_its_source_once(
        counted_plan_select, kwargs):
    conn = _trained_connection(**kwargs)
    try:
        del counted_plan_select[:]
        assert len(conn.execute(PREDICT).rows) == 60
        assert len(counted_plan_select) == 1
    finally:
        conn.close()


def test_explain_analyze_plans_a_prediction_source_once(counted_plan_select):
    conn = _trained_connection(max_workers=4, pool_mode="thread")
    try:
        del counted_plan_select[:]
        plan = _plan_rows(conn, f"EXPLAIN ANALYZE {PREDICT}")
        assert len(counted_plan_select) == 1
        assert plan[0]["ACTUAL_ROWS"] == 60
    finally:
        conn.close()


def test_plain_explain_of_a_parallel_prediction_moves_no_metric():
    conn = _trained_connection(max_workers=4, pool_mode="thread")
    watched = ("pool.", "caseset_cache.", "prediction.", "index.")
    try:
        before = _metrics(conn, watched)
        plan = _plan_rows(conn, f"EXPLAIN {PREDICT} WHERE t.Id > 50")
        assert "parallel (dop=4)" in plan[0]["STRATEGY"]
        assert _metrics(conn, watched) == before
    finally:
        conn.close()
