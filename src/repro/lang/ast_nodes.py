"""AST node definitions for the SQL core and the DMX extensions.

All nodes are frozen-ish dataclasses: mutable for parser convenience, but
read-only once parsed — the statement-template cache
(:mod:`repro.lang.templates`) hands the same node objects to every statement
of one shape, on every session.  Expression nodes are shared between the two
dialects; statement nodes split into plain-SQL statements (executed by
``repro.sqlstore.engine``) and DMX statements (executed by
``repro.core.provider``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Any, List, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for expression nodes."""


@dataclass
class Literal(Expr):
    """A constant: number, string, boolean, or NULL (value=None)."""
    value: Any


@dataclass
class ColumnRef(Expr):
    """A possibly-qualified column reference.

    ``parts`` holds each dotted component, e.g. ``("t", "Age")`` for
    ``t.[Age]`` or ``("Age Prediction", "Product Purchases", "Quantity")`` for
    a nested-table reference through a model alias.
    """
    parts: Tuple[str, ...]

    @property
    def name(self) -> str:
        """The final (column) component."""
        return self.parts[-1]


@dataclass
class Star(Expr):
    """``*`` or ``alias.*`` in a select list or COUNT(*)."""
    qualifier: Optional[str] = None


@dataclass
class FuncCall(Expr):
    """A function application — SQL scalar/aggregate or DMX prediction UDF."""
    name: str
    args: List[Expr] = field(default_factory=list)
    distinct: bool = False  # COUNT(DISTINCT x)


@dataclass
class BinaryOp(Expr):
    """Binary operator: AND OR = <> < <= > >= + - * / ||."""
    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    """Unary operator: NOT or numeric negation ('-')."""
    op: str
    operand: Expr


@dataclass
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""
    operand: Expr
    negated: bool = False


@dataclass
class InList(Expr):
    """``expr [NOT] IN (item, ...)``."""
    operand: Expr
    items: List[Expr] = field(default_factory=list)
    negated: bool = False


@dataclass
class InSelect(Expr):
    """``expr [NOT] IN (SELECT ...)`` — membership in a subquery column."""
    operand: Expr
    select: "SelectStatement" = None
    negated: bool = False


@dataclass
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""
    operand: Expr
    low: Expr = None
    high: Expr = None
    negated: bool = False


@dataclass
class Like(Expr):
    """``expr [NOT] LIKE pattern`` with % and _ wildcards."""
    operand: Expr
    pattern: Expr = None
    negated: bool = False


@dataclass
class Case(Expr):
    """Searched CASE: ``CASE WHEN cond THEN value ... [ELSE value] END``."""
    whens: List[Tuple[Expr, Expr]] = field(default_factory=list)
    else_result: Optional[Expr] = None


@dataclass
class SubSelect(Expr):
    """A parenthesised scalar sub-select used as an expression.

    DMX also allows ``(SELECT ... FROM PredictHistogram([Age]))`` style
    sub-selects over table-valued prediction functions; the prediction layer
    evaluates those against nested rowsets.
    """
    select: "SelectStatement" = None


def children(expr: Expr) -> List[Expr]:
    """The direct sub-expressions of ``expr``, in evaluation order — the one
    enumeration every tree walk reads.  A subquery's SELECT is a statement,
    not a child: walks stay inside the expression they were given."""
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, (UnaryOp, IsNull, InSelect)):
        return [expr.operand]
    if isinstance(expr, FuncCall):
        return list(expr.args)
    if isinstance(expr, InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, Like):
        return [expr.operand, expr.pattern]
    if isinstance(expr, Case):
        found = [part for when in expr.whens for part in when]
        if expr.else_result is not None:
            found.append(expr.else_result)
        return found
    return []


def conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """The operands of a top-level AND tree, left to right: ``[expr]`` when
    it is not an AND, ``[]`` for an absent predicate."""
    if type(expr) is not BinaryOp or expr.op != "AND":
        return [] if expr is None else [expr]
    found: List[Expr] = []
    pending = [expr]
    while pending:
        node = pending.pop()
        if isinstance(node, BinaryOp) and node.op == "AND":
            pending += [node.right, node.left]
        elif node is not None:
            found.append(node)
    return found


def conjoin(conjuncts: List[Expr]) -> Optional[Expr]:
    """The AND of ``conjuncts``, left to right (None for none)."""
    return reduce(partial(BinaryOp, "AND"), conjuncts or [None])


# ---------------------------------------------------------------------------
# Table references (FROM clause sources)
# ---------------------------------------------------------------------------

class TableRef:
    """Base class for FROM-clause sources."""


@dataclass
class NamedTable(TableRef):
    """A base table, view, or mining model referenced by name."""
    name: str
    alias: Optional[str] = None


@dataclass
class ModelContentRef(TableRef):
    """``<model>.CONTENT`` or ``<model>.PMML`` in table position (section 3.3)."""
    model: str
    facet: str = "CONTENT"  # CONTENT | PMML | CASES
    alias: Optional[str] = None


@dataclass
class SystemRowsetRef(TableRef):
    """``$SYSTEM.<rowset>``: the OLE DB DM schema rowsets (section 2)."""
    rowset: str
    alias: Optional[str] = None


@dataclass
class SubquerySource(TableRef):
    """A parenthesised derived table: ``(SELECT ...) AS alias``."""
    select: "SelectStatement" = None
    alias: Optional[str] = None


@dataclass
class Join(TableRef):
    """INNER/LEFT/CROSS join between two table refs."""
    kind: str  # INNER | LEFT | CROSS
    left: TableRef = None
    right: TableRef = None
    condition: Optional[Expr] = None


@dataclass
class ShapeSource(TableRef):
    """A SHAPE expression used as a rowset source (hierarchical caseset)."""
    shape: "ShapeExpr" = None
    alias: Optional[str] = None


@dataclass
class PredictionJoin(TableRef):
    """``FROM <model> [NATURAL] PREDICTION JOIN <source> [AS alias] [ON cond]``."""
    model: str
    source: TableRef = None
    natural: bool = False
    condition: Optional[Expr] = None


# ---------------------------------------------------------------------------
# SHAPE (Data Shaping Service)
# ---------------------------------------------------------------------------

@dataclass
class ShapeAppend:
    """One APPEND arm: child query related to the master, named ``alias``."""
    child: Union["SelectStatement", "ShapeExpr"]
    relate_master: str
    relate_child: str
    alias: str


@dataclass
class ShapeExpr:
    """``SHAPE {master} APPEND ({child} RELATE m TO c) AS name, ...``."""
    master: Union["SelectStatement", "ShapeExpr"]
    appends: List[ShapeAppend] = field(default_factory=list)


# ---------------------------------------------------------------------------
# SQL statements
# ---------------------------------------------------------------------------

class Statement:
    """Base class for all statements."""


@dataclass
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass
class SelectStatement(Statement):
    select_list: List[SelectItem] = field(default_factory=list)
    from_clause: Optional[TableRef] = None
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    distinct: bool = False
    top: Optional[int] = None
    flattened: bool = False  # DMX SELECT FLATTENED: un-nest TABLE columns
    maxdop: Optional[int] = None  # WITH MAXDOP n; 0 = provider maximum


@dataclass
class UnionStatement(Statement):
    """``<select> UNION [ALL] <select> [UNION ...]``.

    Branches are full SelectStatements; ``all_rows[i]`` records whether the
    i-th UNION keyword carried ALL.  ORDER BY/TOP of the final branch apply
    to the combined result (the usual SQL reading).
    """
    branches: List[SelectStatement] = field(default_factory=list)
    all_rows: List[bool] = field(default_factory=list)


@dataclass
class ColumnDef:
    """Column of CREATE TABLE."""
    name: str
    type_name: str
    nullable: bool = True
    primary_key: bool = False


@dataclass
class CreateTableStatement(Statement):
    name: str
    columns: List[ColumnDef] = field(default_factory=list)


@dataclass
class CreateViewStatement(Statement):
    name: str
    select: SelectStatement = None


#: One VALUES row: the tuple of its values when every cell is a plain
#: literal (number, string, NULL, TRUE, FALSE), else its cell expressions.
ValueRow = Union[Tuple[Any, ...], List[Expr]]


@dataclass
class InsertValuesStatement(Statement):
    """``INSERT INTO t [(cols)] VALUES (...), (...)`` or ``... SELECT ...``.

    Plain-SQL insert into a base table.  Inserts whose target resolves to a
    mining model are represented by :class:`InsertModelStatement` instead; the
    dispatcher decides by catalog lookup.
    """
    table: str
    columns: List[str] = field(default_factory=list)
    rows: List[ValueRow] = field(default_factory=list)
    select: Optional[SelectStatement] = None


@dataclass
class DeleteStatement(Statement):
    table: str
    where: Optional[Expr] = None


@dataclass
class UpdateStatement(Statement):
    table: str
    assignments: List[Tuple[str, Expr]] = field(default_factory=list)
    where: Optional[Expr] = None


@dataclass
class UpdateStatisticsStatement(Statement):
    """``UPDATE STATISTICS [<table>]`` — rebuild optimizer statistics from
    the stored rows; with no table, every base table is refreshed."""
    table: Optional[str] = None


@dataclass
class DropTableStatement(Statement):
    name: str
    if_exists: bool = False


@dataclass
class CreateIndexStatement(Statement):
    """``CREATE INDEX <name> ON <table> (<column>)`` — a named secondary
    index (hash + sorted) the engine uses for WHERE seeks and join builds."""
    name: str
    table: str = ""
    column: str = ""


@dataclass
class DropIndexStatement(Statement):
    """``DROP INDEX [IF EXISTS] <name> ON <table>``."""
    name: str
    table: str = ""
    if_exists: bool = False


# ---------------------------------------------------------------------------
# DMX statements
# ---------------------------------------------------------------------------

@dataclass
class ModelColumnDef:
    """One column of CREATE MINING MODEL (section 3.2 of the paper).

    ``content_type`` is one of KEY, DISCRETE, CONTINUOUS, DISCRETIZED,
    ORDERED, CYCLICAL, SEQUENCE_TIME (None for nested TABLE columns).
    ``qualifier``/``qualifier_of`` represent the ``PROBABILITY OF [Age]``
    style modifier columns; ``related_to`` the RELATED TO clause;
    ``distribution`` the hint keywords (NORMAL, UNIFORM, LOG_NORMAL,
    BINOMIAL, MULTINOMIAL, POISSON, MIXTURE).
    """
    name: str
    data_type: Optional[str] = None      # LONG / DOUBLE / TEXT / DATE / BOOLEAN
    content_type: Optional[str] = None
    predict: bool = False
    predict_only: bool = False
    related_to: Optional[str] = None
    qualifier: Optional[str] = None      # PROBABILITY | VARIANCE | SUPPORT | ...
    qualifier_of: Optional[str] = None
    distribution: Optional[str] = None
    model_existence_only: bool = False
    not_null: bool = False
    discretization_method: Optional[str] = None  # EQUAL_RANGE/EQUAL_COUNT/CLUSTERS
    discretization_buckets: Optional[int] = None
    sequence_time: bool = False  # KEY SEQUENCE_TIME combination
    nested_columns: Optional[List["ModelColumnDef"]] = None

    @property
    def is_table(self) -> bool:
        return self.nested_columns is not None


@dataclass
class CreateMiningModelStatement(Statement):
    name: str
    columns: List[ModelColumnDef] = field(default_factory=list)
    algorithm: str = ""
    parameters: List[Tuple[str, Any]] = field(default_factory=list)


# Column-binding tree of INSERT INTO <model> (...): names, SKIP markers, and
# nested table bindings.

@dataclass
class BindingColumn:
    name: str


@dataclass
class BindingSkip:
    """The DMX SKIP keyword: source column present but not mapped."""


@dataclass
class BindingTable:
    name: str
    children: List[Union[BindingColumn, BindingSkip, "BindingTable"]] = \
        field(default_factory=list)


@dataclass
class InsertModelStatement(Statement):
    """``INSERT INTO <model> [(bindings)] <source>`` — trains the model."""
    model: str
    bindings: List[Union[BindingColumn, BindingSkip, BindingTable]] = \
        field(default_factory=list)
    source: Union[SelectStatement, ShapeExpr, None] = None
    maxdop: Optional[int] = None  # WITH MAXDOP n; 0 = provider maximum


@dataclass
class DropMiningModelStatement(Statement):
    name: str
    if_exists: bool = False


@dataclass
class DeleteModelStatement(Statement):
    """``DELETE FROM MINING MODEL <name>`` — resets the trained content."""
    name: str


@dataclass
class ExportModelStatement(Statement):
    """``EXPORT MINING MODEL <name> TO '<path>'`` (PMML persistence)."""
    name: str
    path: str = ""


@dataclass
class ImportModelStatement(Statement):
    """``IMPORT MINING MODEL FROM '<path>'``."""
    path: str = ""
    rename_to: Optional[str] = None


@dataclass
class TraceStatement(Statement):
    """``TRACE ON | OFF | LAST | STATUS`` — the shell-level observability verb.

    ON/OFF toggle span capture on the provider's tracer; LAST renders the
    trace of the most recent statement; STATUS reports the tracer state.
    TRACE statements are themselves excluded from the query log.
    """
    mode: str = "STATUS"


@dataclass
class CancelStatement(Statement):
    """``CANCEL <statement-id>`` — cooperative cancellation of a live statement.

    The id is the ``STATEMENT_ID`` of a ``running`` row of
    ``$SYSTEM.DM_QUERY_LOG``.  The target unwinds at its next checkpoint
    (batch, pool task, or training iteration boundary) with a
    ``cancelled`` status in the query log.
    """
    statement_id: int = 0


@dataclass
class ExplainStatement(Statement):
    """``EXPLAIN [ANALYZE] <statement>`` — the per-statement plan profiler.

    Plain EXPLAIN runs only the planner pass (no data-path work) and
    returns the operator tree as a rowset with strategy and row estimates;
    EXPLAIN ANALYZE also executes the wrapped statement and shows each
    operator's actuals, taken by the operator as it ran.  EXPLAIN and
    TRACE cannot themselves be wrapped.
    """
    statement: Optional[Statement] = None
    analyze: bool = False
