"""EXPLAIN / EXPLAIN ANALYZE: the per-statement plan profiler.

``EXPLAIN <statement>`` runs a lightweight planner pass over the parsed
statement — reading only catalog statistics (table sizes, model case
counts, pool configuration, caseset-cache membership), never touching the
data path — and returns the operator tree as a rowset: operator, target,
chosen strategy (streamed vs. materialized, parallel vs. serial with the
worker count, caseset-cache hit expectation), and estimated row counts.

``EXPLAIN ANALYZE`` additionally executes the statement and shows, beside
each operator's estimates, what it did: rows, batches, wall-clock
milliseconds, the cache outcome and pool tasks, in one rowset.

For every statement the tree EXPLAIN renders *is* the executor:
:meth:`Database.plan` (a query's tree from ``plan_select`` /
``plan_union``, one node for DDL and DML),
:func:`repro.shaping.shape.plan_shape`,
:func:`repro.core.prediction.plan_prediction`,
:func:`repro.exec.partition.plan_train` and :func:`build_plan`'s nodes
for the mining DDL take every strategy decision once and hang ``run`` on
the root, so ``EXPLAIN ANALYZE`` executes the tree it then renders; what
only the run can know is announced as a candidate and restated by the
run.  Each node takes its own actuals as it runs
(:meth:`PlanNode.run`), so the tree carries its counts and ANALYZE reads
them off the nodes it renders.  This module owns the :class:`PlanNode`
vocabulary, the statement-level dispatch, the actuals and the rowset
rendering.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CancelledError, Error
from repro.lang import ast_nodes as ast
from repro.obs import trace as obs_trace
from repro.obs import workload as obs_workload
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import DOUBLE, LONG, TEXT

#: The operators that bind source rows to cases (CASES, ``cases_bound``),
#: and those whose work is pool tasks (POOL_TASKS).
BIND_OPERATORS = ("bind cases", "parallel predict")
POOL_OPERATORS = ("parallel predict",)


class PlanNode:
    """One operator of a statement plan: what it is, its estimates, and the
    opener that runs it.

    Engine, SHAPE, mining-provider source, PREDICTION JOIN and training
    nodes are also the executor: ``run(arg)`` runs the operator its
    strategy text names — a :class:`RowStream` from a select/union/shape/
    prediction-join/flatten root or a ``bind cases`` / ``parallel predict``
    stage, a ``SourceRelation`` from a FROM source, a count from a
    ``train`` root and from the training steps under it but ``fit
    schema``, which returns the space it fitted.  ``arg`` is the batch
    size, except for a training step, which is handed what it consumes:
    the bound cases (``incremental absorb``), nothing (``fit schema``) or
    the schema-fitted space (``fit``).  Planning
    only reads the catalog; scanning, locks, regions and usage counters
    start at ``run``.  What runs is ``open(node, arg)``: an opener is
    handed its node rather than closing over it, so a plan tree is no
    reference cycle and everything it holds is freed with the last
    reference to its root.
    ``columns`` lists a FROM source's ``(qualifier, name)`` pairs when they
    are known without reading data (None for mining-provider leaves), so a
    join above it can bind its keys at plan time.  ``estimator`` fills the
    display-only fields (``est_rows``, ``cost``) from the already-estimated
    children; :meth:`estimate` runs it on demand, so a statement whose plan
    nobody looks at never pays for estimates.
    """

    __slots__ = ("operator", "target", "strategy", "est_rows", "cost",
                 "detail", "children", "cache", "open", "columns",
                 "estimator")

    def __init__(self, operator: str, target: Optional[str] = None,
                 strategy: Optional[str] = None,
                 est_rows: Optional[int] = None,
                 detail: Optional[str] = None,
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
        # The caseset-cache expectation (ANALYZE appends the outcome).
        self.cache = cache
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

    def run(self, arg):
        """Run this operator (see the class docstring) — the one place a
        plan's actuals are taken.

        On the active statement's record the node gets a cell
        (:class:`Actuals`): the opener is timed; a count it returns is
        the node's rows, and so is the ``case_count`` of a space it
        returns; a stream or relation it returns is handed on with every
        batch, as it is pulled, timed and counted (per batch, never per
        row) — so a node's time includes its children's, which run
        inside its opener and its pulls.  That pull is also the
        statement's one per-batch point (:meth:`Actuals.counted`): where
        ``CANCEL`` lands, and, at a leaf, its live progress.  Under
        capture the node is one region, named by its operator, that
        reports its cell.  With no active statement the opener just
        runs."""
        record = obs_trace.active_record()
        if record is None:
            return self.open(self, arg)
        cells = record.actuals
        if cells is None:
            cells = record.actuals = PlanActuals()
        cell = cells.get(self)
        if cell is None:
            cell = cells[self] = Actuals()
        region = None
        if record.regions is not None:
            region = obs_trace.Region(
                record, self.operator,
                {} if self.target is None else {"target": self.target}, cell)
        started = perf_counter()
        try:
            result = self.open(self, arg)
        finally:
            cell.wall_ms += (perf_counter() - started) * 1000.0
            if region is not None:
                region.close()
        if type(result) is int:
            cell.rows += result
        elif hasattr(result, "pipe"):
            cell.batches = cell.batches or 0
            return result.pipe(partial(
                cell.counted,
                record if record.registry is not None else None,
                not self.children))
        else:   # the space ``fit schema`` fitted
            cell.rows += result.case_count
        return result

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


class Actuals:
    """What one plan node did in one statement: the rows it produced (the
    cases, for a node that returns a count), the batches they came in
    (None for a count), and the milliseconds spent in its opener and in
    pulling its batches.  Under capture the node's region reports it."""

    __slots__ = ("rows", "batches", "wall_ms")

    def __init__(self):
        self.rows = 0
        self.batches: Optional[int] = None
        self.wall_ms = 0.0

    def counted(self, record, leaf: bool, batches, clock=perf_counter):
        """``batches``, each pull timed and each batch counted.  On a
        ``record`` the workload registry accounts for, each batch is a
        cancellation point and a ``leaf``'s batches — what the statement
        reads, the rows ``PlanActuals.totals`` sums to ``rows_scanned`` —
        are its live progress (``StatementRecord.advance``)."""
        advance = token = None
        if record is not None:
            if leaf:
                advance = record.advance
            else:
                token = record.token
        started = clock()
        try:
            for batch in batches:
                self.wall_ms += (clock() - started) * 1000.0
                self.rows += len(batch)
                self.batches += 1
                if advance is not None:
                    advance(len(batch))
                elif token is not None and token.cancelled:
                    token.check()
                yield batch
                started = clock()
        except CancelledError:
            # Unwind the producers now — a pool's fan-out accounts for
            # its tasks as it closes — not when the traceback is freed.
            close = getattr(batches, "close", None)
            if close is not None:
                close()
            raise
        self.wall_ms += (clock() - started) * 1000.0


class PlanActuals(dict):
    """A statement's :class:`Actuals`, keyed by plan node in the order the
    nodes started — ``StatementRecord.actuals`` from the first node's run
    until completion folds its :meth:`totals` into the record."""

    def totals(self) -> Dict[str, int]:
        """The statement's row counters: ``rows_out``, the rows of the
        first node that ran (the plan's root); ``rows_scanned``, those of
        every leaf that streamed (a training step returns a count, and
        scans nothing); ``cases_bound``, those of the bind stages."""
        scanned = cases = 0
        for node, cell in self.items():
            if node.operator in BIND_OPERATORS:
                cases += cell.rows
            elif not node.children and cell.batches is not None:
                scanned += cell.rows
        return {"rows_out": next(iter(self.values())).rows,
                "rows_scanned": scanned, "cases_bound": cases}


# ---------------------------------------------------------------------------
# Statement-level plan dispatch
# ---------------------------------------------------------------------------

def build_plan(provider, statement: ast.Statement) -> PlanNode:
    """The plan of ``statement``: the tree EXPLAIN renders, the workload
    repository hashes and ``run`` executes.  Every statement but the
    control verbs (TRACE, CANCEL, EXPLAIN) has one; the root of a DDL or
    DML statement runs it whole and returns its count.

    Reads catalog and statistics only: no table is scanned, no model is
    trained, mutated or locked, no region besides the parser's is opened, no
    usage metric moves.  The mining statements are planned here, and the
    rule that makes ``DELETE FROM``, ``DROP TABLE`` and ``INSERT INTO (…)
    SELECT`` on a model a model statement is decided here, once; every
    other statement is the relational engine's (``Database.plan``).
    """
    statement = _as_model_statement(provider, statement)
    if isinstance(statement, ast.InsertModelStatement):
        from repro.exec.partition import plan_train
        return plan_train(provider, statement)
    if isinstance(statement, ast.CreateMiningModelStatement):
        return whole("create mining model", statement.name,
                     "catalog only", provider.create_model, statement,
                     detail=f"USING {statement.algorithm}")
    if isinstance(statement, ast.DeleteModelStatement):
        return whole("delete from mining model",
                     provider.model(statement.name).name,
                     "reset caseset and content", provider.reset_model,
                     statement)
    if isinstance(statement, ast.DropMiningModelStatement):
        return whole("drop mining model", statement.name, "catalog only",
                     provider.drop_model, statement)
    if isinstance(statement, ast.ExportModelStatement):
        return whole("export model", statement.name, "PMML file write",
                     provider.export_model, statement,
                     detail=statement.path)
    if isinstance(statement, ast.ImportModelStatement):
        return whole("import model", statement.rename_to, "PMML file read",
                     provider.import_model, statement,
                     detail=statement.path)
    if isinstance(getattr(statement, "from_clause", None), ast.PredictionJoin):
        from repro.core.prediction import plan_prediction
        node = plan_prediction(provider, statement)
    else:
        node = provider.database.plan(statement)
    if getattr(statement, "flattened", False):
        from repro.shaping.shape import flatten_stream
        flat = PlanNode("flatten", strategy="streamed")
        flat.add(node)
        flat.estimator = copy_child_rows
        flat.open = lambda _, batch_size: flatten_stream(
            node.run(batch_size))
        return flat
    return node


def whole(operator: str, target: Optional[str], strategy: str, run,
          statement: ast.Statement, detail: Optional[str] = None,
          est_rows: Optional[int] = 0) -> PlanNode:
    """The node of a statement one call runs whole: ``run(statement)``,
    which returns its count.  The statement leaves ``parse`` as it runs."""
    def open_whole(*_):
        obs_workload.set_phase("scan", leaving="parse")
        return run(statement)
    return PlanNode(operator, target, strategy, est_rows, detail,
                    open=open_whole)


def copy_child_rows(node: PlanNode) -> None:
    """An estimator: the node passes its one child's rows on."""
    node.est_rows = node.children[0].est_rows


def _as_model_statement(provider, statement: ast.Statement) -> ast.Statement:
    """The paper's model as a table: ``INSERT INTO``, ``DELETE FROM`` and
    ``DROP TABLE`` naming a model are the model statement they mean (the
    parser hands them back as table statements; EXPLAIN and execution
    alike are re-dispatched here, once).  Any other statement as it is."""
    if isinstance(statement, ast.InsertValuesStatement) and \
            provider.has_model(statement.table):
        if statement.select is None:
            raise Error(
                f"INSERT INTO mining model {statement.table!r} requires "
                f"a SELECT or SHAPE source, not VALUES")
        return ast.InsertModelStatement(
            model=statement.table, source=statement.select,
            bindings=[ast.BindingColumn(name) for name in statement.columns])
    if isinstance(statement, ast.DeleteStatement) and \
            provider.has_model(statement.table):
        if statement.where is not None:
            raise Error(
                f"DELETE FROM a mining model resets it entirely; a WHERE "
                f"clause is not supported ({statement.table!r} is a model)")
        return ast.DeleteModelStatement(statement.table)
    if isinstance(statement, ast.DropTableStatement) and \
            provider.has_model(statement.name):
        return ast.DropMiningModelStatement(statement.name,
                                            statement.if_exists)
    return statement


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


def explain_rowset(plan: PlanNode, record=None) -> Rowset:
    """Flatten a plan tree into the EXPLAIN rowset (pre-order).

    With ``record`` — the statement that ran ``plan`` under EXPLAIN
    ANALYZE — every node that ran shows its :class:`Actuals`; one that did
    not run shows none.  The statement's caseset-cache outcome is appended
    to the first node that ran with a cache expectation, its pool tasks
    shown on the node that fanned out."""
    from repro.obs.repository import q_error
    cells = {} if record is None else record.actuals or {}
    outcome = None
    if record is not None and (record.cache_hits or record.cache_misses):
        outcome = "hit" if record.cache_hits else "miss"
    rows: List[tuple] = []
    stack = [(plan, 0, None)]
    while stack:
        node, depth, parent_id = stack.pop()
        op_id = len(rows) + 1
        for child in reversed(node.children):
            stack.append((child, depth + 1, op_id))
        cell = cells.get(node)
        cache, actuals, pool_tasks = node.cache, (None,) * 4, None
        if cell is not None:
            if outcome is not None and cache is not None:
                cache, outcome = f"{cache}, actual {outcome}", None
            q_err = q_error(node.est_rows, cell.rows)
            actuals = (cell.rows, None if q_err is None else round(q_err, 3),
                       cell.batches, round(cell.wall_ms, 3))
            if node.operator in POOL_OPERATORS:
                pool_tasks = record.pool_tasks
        rows.append((
            op_id, parent_id, depth, node.operator, node.target,
            node.strategy, node.est_rows,
            None if node.cost is None else round(node.cost, 3),
            *actuals, cache, pool_tasks, node.detail))
    return Rowset(list(PLAN_COLUMNS), rows)


def is_plan_rowset(rowset) -> bool:
    """True when ``rowset`` is an EXPLAIN plan (dmxsh renders it as a tree)."""
    names = [c.name for c in getattr(rowset, "columns", [])]
    return names == [c.name for c in PLAN_COLUMNS]
