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

The second half pins "decide once": a first-seen indexed SELECT consults
``choose_index`` a single time however many observers (workload
repository, EXPLAIN ANALYZE) look at its plan.
"""

import pytest

import repro
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_statement
from repro.obs.explain import is_plan_rowset
from repro.sqlstore import engine as engine_module

from tests.obs.test_explain_golden import CASES, case_connection

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


# -- decide once -------------------------------------------------------------

@pytest.fixture
def counted_choose_index(monkeypatch):
    calls = []
    real = engine_module.choose_index

    def counting(where, table, qualifier):
        calls.append(qualifier)
        return real(where, table, qualifier)
    monkeypatch.setattr(engine_module, "choose_index", counting)
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
