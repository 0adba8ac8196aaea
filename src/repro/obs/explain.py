"""EXPLAIN / EXPLAIN ANALYZE: the per-statement plan profiler.

``EXPLAIN <statement>`` runs a lightweight planner pass over the parsed
statement — reading only catalog statistics (table sizes, model case
counts, pool configuration, caseset-cache membership), never touching the
data path — and returns the operator tree as a rowset: operator, target,
chosen strategy (streamed vs. materialized, parallel vs. serial with the
worker count, caseset-cache hit expectation), and estimated row counts.

``EXPLAIN ANALYZE`` additionally executes the statement with span capture
forced on and annotates each plan operator with actuals reconciled from
the captured span tree: rows, batches, wall-clock milliseconds, cache
hits, and pool tasks, estimated-vs-actual side by side in one rowset.

For SELECT/UNION (and every SHAPE), PREDICTION JOIN and ``INSERT INTO
<model>`` the tree EXPLAIN renders *is* the executor:
:meth:`Database.plan_select`, :meth:`Database.plan_union`,
:func:`repro.shaping.shape.plan_shape`,
:func:`repro.core.prediction.plan_prediction` and
:func:`repro.exec.partition.plan_train` take every strategy decision once
and hang ``run`` on the root, so ``EXPLAIN ANALYZE`` executes the tree it
then renders; what only the run can know is announced as a candidate and
restated by the run.  This module owns the :class:`PlanNode` vocabulary,
the statement-level dispatch, the span reconciliation, and the rowset
rendering.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import Error
from repro.lang import ast_nodes as ast
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import DOUBLE, LONG, TEXT


class PlanNode:
    """One operator of a statement plan, with estimates and (later) actuals.

    ``span_name``/``match`` steer reconciliation against the captured span
    tree of an ANALYZE run:

    * ``match="one"`` — claim the first unclaimed span of that name; the
      node's children then reconcile inside that span's subtree;
    * ``match="all"`` — aggregate every in-scope span of that name
      (e.g. per-batch ``bind`` spans);
    * ``match="parent"`` — read ``rows_counter`` off the nearest matched
      ancestor's own span (e.g. a scan's ``rows_scanned`` lives on the
      enclosing ``engine.select`` span).

    Engine, SHAPE, mining-provider source, PREDICTION JOIN and training
    nodes are also the executor: ``run(batch_size)`` runs the operator its
    strategy text names — a :class:`RowStream` from a select/union/shape/
    prediction-join/flatten root, a ``SourceRelation`` from a FROM source,
    the number of cases consumed from a ``train`` root.  Planning only reads
    the catalog; scanning, locks, spans and usage counters start at ``run``.
    What runs is ``open(node, batch_size)``: an opener is handed its node
    rather than closing over it, so a plan tree is no reference cycle and
    everything it holds is freed with the last reference to its root.
    ``columns`` lists a FROM source's ``(qualifier, name)`` pairs when they
    are known without reading data (None for mining-provider leaves), so a
    join above it can bind its keys at plan time.  ``estimator`` fills the
    display-only fields (``est_rows``, ``cost``) from the already-estimated
    children; :meth:`estimate` runs it on demand, so a statement whose plan
    nobody looks at never pays for estimates.
    """

    __slots__ = ("operator", "target", "strategy", "est_rows", "cost",
                 "detail", "children", "span_name", "rows_counter", "match",
                 "cache", "actual_rows", "actual_batches", "wall_ms",
                 "pool_tasks", "cache_actual", "open", "columns", "estimator")

    def __init__(self, operator: str, target: Optional[str] = None,
                 strategy: Optional[str] = None,
                 est_rows: Optional[int] = None,
                 detail: Optional[str] = None,
                 span_name: Optional[str] = None,
                 rows_counter: Optional[str] = None,
                 match: str = "one",
                 cache: Optional[str] = None,
                 cost: Optional[float] = None,
                 open: Optional[Callable] = None):
        self.operator = operator
        self.target = target
        self.strategy = strategy
        self.est_rows = est_rows
        # Estimated cumulative cost (abstract row/page units) of producing
        # this operator's output, children included.  Like est_rows it is
        # an estimate, so plain EXPLAIN shows it too.
        self.cost = cost
        self.detail = detail
        self.children: List[PlanNode] = []
        self.span_name = span_name
        self.rows_counter = rows_counter
        self.match = match
        self.cache = cache
        # Actuals, filled by reconcile_plan after an ANALYZE run.
        self.actual_rows: Optional[int] = None
        self.actual_batches: Optional[int] = None
        self.wall_ms: Optional[float] = None
        self.pool_tasks: Optional[int] = None
        self.cache_actual: Optional[str] = None
        self.open = open
        self.columns: Optional[List[Tuple[Optional[str], str]]] = None
        self.estimator: Optional[Callable[["PlanNode"], None]] = None

    def estimate(self) -> Optional[int]:
        """Fill ``est_rows``/``cost`` bottom-up (once); returns ``est_rows``."""
        for child in self.children:
            child.estimate()
        if self.estimator is not None:
            estimator, self.estimator = self.estimator, None
            estimator(self)
        return self.est_rows

    def run(self, batch_size: int):
        """Run this operator (see the class docstring)."""
        return self.open(self, batch_size)

    def add(self, child: "PlanNode") -> "PlanNode":
        self.children.append(child)
        return child

    def walk(self, depth: int = 0):
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def __repr__(self) -> str:
        return (f"PlanNode({self.operator!r}, target={self.target!r}, "
                f"est={self.est_rows}, {len(self.children)} children)")


# ---------------------------------------------------------------------------
# Statement-level plan dispatch
# ---------------------------------------------------------------------------

def build_plan(provider, statement: ast.Statement) -> PlanNode:
    """Describe ``statement``'s execution plan without running it.

    Reads catalog and statistics only: no table is scanned, no model is
    trained, mutated or locked, no span besides the parser's is opened, no
    usage metric moves.  The tree of a SELECT/UNION, a PREDICTION JOIN or
    a model INSERT carries ``run``: the provider executes it instead of
    planning the statement a second time.
    """
    database = provider.database
    if isinstance(statement, ast.SelectStatement):
        if isinstance(statement.from_clause, ast.PredictionJoin):
            from repro.core.prediction import plan_prediction
            node = plan_prediction(provider, statement)
        else:
            node = database.plan_select(statement)
        if statement.flattened:
            from repro.shaping.shape import flatten_stream
            flat = PlanNode("flatten", strategy="streamed")
            flat.add(node)
            flat.estimator = _copy_child_rows
            flat.open = lambda _, batch_size: flatten_stream(
                node.run(batch_size))
            return flat
        return node
    if isinstance(statement, ast.UnionStatement):
        return database.plan_union(statement)
    if isinstance(statement, ast.InsertValuesStatement) and \
            provider.has_model(statement.table):
        statement = _as_model_insert(statement)
    if isinstance(statement, ast.InsertModelStatement):
        from repro.exec.partition import plan_train
        return plan_train(provider, statement)
    if isinstance(statement, ast.InsertValuesStatement):
        return _plan_insert(provider, statement)
    if isinstance(statement, ast.CreateMiningModelStatement):
        return PlanNode("create mining model", target=statement.name,
                        strategy="catalog only", est_rows=0,
                        detail=f"USING {statement.algorithm}")
    if isinstance(statement, ast.CreateTableStatement):
        return PlanNode("create table", target=statement.name,
                        strategy="catalog only", est_rows=0)
    if isinstance(statement, ast.CreateViewStatement):
        node = PlanNode("create view", target=statement.name,
                        strategy="catalog only (definition stored)",
                        est_rows=0)
        node.add(database.plan_select(statement.select))
        return node
    if isinstance(statement, ast.DeleteModelStatement):
        return _plan_model_reset(provider, statement.name,
                                 "delete from mining model")
    if isinstance(statement, ast.DeleteStatement):
        if provider.has_model(statement.table):
            return _plan_model_reset(provider, statement.table,
                                     "delete from mining model")
        est = _table_size(database, statement.table)
        strategy = ("truncate" if statement.where is None
                    else "scan + predicate delete")
        return PlanNode("delete", target=statement.table, strategy=strategy,
                        est_rows=est)
    if isinstance(statement, ast.UpdateStatement):
        return PlanNode("update", target=statement.table,
                        strategy="scan + predicate update",
                        est_rows=_table_size(database, statement.table))
    if isinstance(statement, ast.UpdateStatisticsStatement):
        if statement.table is not None:
            targets = [statement.table]
            est = _table_size(database, statement.table)
        else:
            targets = sorted(
                table.schema.name for table in database.tables.values())
            est = sum(len(table) for table in database.tables.values())
        return PlanNode("update statistics",
                        target=statement.table or "(all tables)",
                        strategy="full rebuild from stored rows",
                        est_rows=est,
                        detail=f"{len(targets)} table(s)")
    if isinstance(statement, ast.DropMiningModelStatement):
        return PlanNode("drop mining model", target=statement.name,
                        strategy="catalog only", est_rows=0)
    if isinstance(statement, ast.DropTableStatement):
        if provider.has_model(statement.name):
            return PlanNode("drop mining model", target=statement.name,
                            strategy="catalog only", est_rows=0)
        return PlanNode("drop table", target=statement.name,
                        strategy="catalog only", est_rows=0)
    if isinstance(statement, ast.ExportModelStatement):
        return PlanNode("export model", target=statement.name,
                        strategy="PMML file write", est_rows=0,
                        detail=statement.path)
    if isinstance(statement, ast.ImportModelStatement):
        return PlanNode("import model", target=statement.rename_to,
                        strategy="PMML file read", est_rows=0,
                        detail=statement.path)
    raise Error(
        f"EXPLAIN does not support {type(statement).__name__}")


def _copy_child_rows(node: PlanNode) -> None:
    node.est_rows = node.children[0].est_rows


def _table_size(database, name: str) -> Optional[int]:
    table = database.tables.get(name.upper())
    return len(table) if table is not None else None


def _plan_model_reset(provider, name: str, operator: str) -> PlanNode:
    model = provider.model(name)  # same missing-model error as execution
    return PlanNode(operator, target=model.name,
                    strategy="reset caseset and content", est_rows=0)


def _as_model_insert(
        statement: ast.InsertValuesStatement) -> ast.InsertModelStatement:
    """The parser hands ``INSERT INTO t (cols) SELECT …`` back as a table
    insert; when ``t`` is a model (paper: 'analogous to a table in SQL')
    it is re-dispatched here — once, for EXPLAIN and execution alike."""
    if statement.select is None:
        raise Error(
            f"INSERT INTO mining model {statement.table!r} requires "
            f"a SELECT or SHAPE source, not VALUES")
    bindings = [ast.BindingColumn(name) for name in statement.columns]
    return ast.InsertModelStatement(
        model=statement.table, bindings=bindings, source=statement.select)


def _plan_insert(provider, statement: ast.InsertValuesStatement) -> PlanNode:
    node = PlanNode("insert", target=statement.table,
                    strategy="row append")
    if statement.select is not None:
        child = node.add(provider.database.plan_select(statement.select))
        node.est_rows = child.estimate()
    else:
        node.est_rows = len(statement.rows)
    return node


# ---------------------------------------------------------------------------
# Reconciliation (EXPLAIN ANALYZE)
# ---------------------------------------------------------------------------

def reconcile_plan(plan: PlanNode, root_span,
                   result_rows: Optional[int] = None) -> None:
    """Annotate ``plan`` with actuals from an executed span tree.

    ``root_span`` is the span that wrapped the ANALYZE execution; spans
    are claimed in plan pre-order so nested operators of the same name
    (sub-selects, views, union branches) pair up positionally.  The root
    operator's actual row count is then pinned to the statement's real
    result (``result_rows``), which is the invariant the differential
    suite asserts against direct execution.
    """
    all_spans = [s for s, _ in root_span.walk()]
    claimed: set = set()

    def annotate(node: PlanNode, totals: Dict[str, float],
                 wall_ms: Optional[float]) -> None:
        node.wall_ms = wall_ms
        if node.rows_counter is not None and node.rows_counter in totals:
            node.actual_rows = int(totals[node.rows_counter])
        if "batches" in totals:
            node.actual_batches = int(totals["batches"])
        if "pool_tasks" in totals:
            node.pool_tasks = int(totals["pool_tasks"])
        if totals.get("cache_hit"):
            node.cache_actual = "hit"
        elif totals.get("cache_miss"):
            node.cache_actual = "miss"

    def visit(node: PlanNode, scope: List[Any], context_span) -> None:
        child_scope, context = scope, context_span
        matched = None
        if node.span_name is not None and node.match == "one":
            matched = next(
                (s for s in scope
                 if s.name == node.span_name and id(s) not in claimed),
                None)
            if matched is not None:
                claimed.add(id(matched))
                # Own counters only: a nested select's rows_out must not
                # roll up into its parent select's actuals.
                annotate(node, dict(matched.counters), matched.duration_ms)
                child_scope = [s for s, _ in matched.walk()]
                context = matched
        elif node.span_name is not None and node.match == "all":
            group = [s for s in scope if s.name == node.span_name]
            if group:
                totals: Dict[str, float] = {}
                wall = 0.0
                for s in group:
                    for name, amount in s.counters.items():
                        totals[name] = totals.get(name, 0) + amount
                    wall += s.duration_ms or 0.0
                annotate(node, totals, round(wall, 6))
        elif node.match == "parent" and context_span is not None and \
                node.rows_counter is not None:
            value = context_span.counters.get(node.rows_counter)
            if value is not None:
                node.actual_rows = int(value)
        for child in node.children:
            visit(child, child_scope, context)
        if matched is not None:
            # Seal the claimed subtree so later siblings cannot reach in.
            claimed.update(id(s) for s, _ in matched.walk())

    visit(plan, all_spans, root_span)
    if result_rows is not None:
        plan.actual_rows = result_rows
    if plan.wall_ms is None:
        plan.wall_ms = root_span.duration_ms


# ---------------------------------------------------------------------------
# Rowset rendering
# ---------------------------------------------------------------------------

PLAN_COLUMNS = [
    RowsetColumn("OP_ID", LONG),
    RowsetColumn("PARENT_ID", LONG),
    RowsetColumn("DEPTH", LONG),
    RowsetColumn("OPERATOR", TEXT),
    RowsetColumn("TARGET", TEXT),
    RowsetColumn("STRATEGY", TEXT),
    RowsetColumn("EST_ROWS", LONG),
    RowsetColumn("COST", DOUBLE),
    RowsetColumn("ACTUAL_ROWS", LONG),
    RowsetColumn("Q_ERROR", DOUBLE),
    RowsetColumn("ACTUAL_BATCHES", LONG),
    RowsetColumn("WALL_MS", DOUBLE),
    RowsetColumn("CACHE", TEXT),
    RowsetColumn("POOL_TASKS", LONG),
    RowsetColumn("DETAIL", TEXT),
]


def explain_rowset(plan: PlanNode, analyzed: bool) -> Rowset:
    """Flatten a plan tree into the EXPLAIN rowset (pre-order)."""
    from repro.obs.repository import q_error
    rows: List[tuple] = []
    ids: Dict[int, int] = {}
    parents: Dict[int, Optional[int]] = {}
    stack = [(plan, 0, None)]
    order: List[tuple] = []
    while stack:
        node, depth, parent_id = stack.pop()
        op_id = len(ids) + 1
        ids[id(node)] = op_id
        parents[op_id] = parent_id
        order.append((node, depth, op_id, parent_id))
        for child in reversed(node.children):
            stack.append((child, depth + 1, op_id))
    for node, depth, op_id, parent_id in order:
        cache = node.cache
        if analyzed and node.cache_actual is not None:
            cache = (f"{cache}, actual {node.cache_actual}"
                     if cache else node.cache_actual)
        q_err = None
        if analyzed:
            q_err = q_error(node.est_rows, node.actual_rows)
        rows.append((
            op_id, parent_id, depth, node.operator, node.target,
            node.strategy, node.est_rows,
            None if node.cost is None else round(node.cost, 3),
            node.actual_rows if analyzed else None,
            None if q_err is None else round(q_err, 3),
            node.actual_batches if analyzed else None,
            None if not analyzed or node.wall_ms is None
            else round(node.wall_ms, 3),
            cache,
            node.pool_tasks if analyzed else None,
            node.detail,
        ))
    return Rowset(list(PLAN_COLUMNS), rows)


def is_plan_rowset(rowset) -> bool:
    """True when ``rowset`` is an EXPLAIN plan (dmxsh renders it as a tree)."""
    names = [c.name for c in getattr(rowset, "columns", [])]
    return names == [c.name for c in PLAN_COLUMNS]
