"""Table and column statistics: the planner's estimate source.

The paper's integration argument (section 2) is that mining primitives
should sit *inside* the SQL engine precisely so they benefit from
database-style query processing.  Query processing without cardinality
estimates is guesswork, so this module maintains, per table:

* the row count;
* per column: distinct-value count (NDV), null fraction, min/max, and an
  equi-depth histogram over the non-null values.

Statistics are maintained incrementally, once per statement and only
once it can no longer fail: an INSERT's rows add to an exact per-column
value counter after every row passed its checks, a DELETE's or UPDATE's
old rows subtract (and an UPDATE's new rows add) once the new row list is
complete.  :meth:`TableStatistics.rebuild` re-derives the same counter
from the stored rows — the hypothesis suite pins incremental == rebuilt,
failing statements included.  NDV, min/max, and the histogram are *derived*
lazily from the counter and cached against a mutation version, so reads
are cheap and writes stay O(changed rows).

The second half of the module is the estimation vocabulary the engine's
cost model consumes: predicate selectivity (:func:`estimate_selectivity`),
equi-join cardinality (:func:`estimate_join_rows`), and grouping output
size (:func:`estimate_group_rows`).  Every function degrades to a
documented default constant when statistics are absent — estimates are
advisory and must never raise out of a planning pass.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, List, Optional, Tuple

from repro.lang import ast_nodes as ast
from repro.sqlstore import values as V
from repro.sqlstore.values import group_keys

# -- fallback constants (documented in docs/internals.md) ----------------------

#: WHERE-clause conjunct with no usable statistics (LIKE, subqueries,
#: expressions over functions): assume a third of the input survives.
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: Equality against an un-statistics'd column.
DEFAULT_EQ_SELECTIVITY = 0.1
#: Range comparison against an un-statistics'd column.
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
#: IS NULL against an un-statistics'd column.
DEFAULT_NULL_SELECTIVITY = 0.1
#: Distinct-value count assumed for grouping keys without statistics.
DEFAULT_NDV = 10
#: Equi-depth histogram resolution (buckets hold ~rows/32 rows each).
HISTOGRAM_BUCKETS = 32
#: Page-touch cost of a buffer-resident page relative to a cold page.
BUFFERED_PAGE_COST = 0.25

_NULL_KEY = group_keys((None,))[0]


class ColumnStats:
    """Exact value statistics for one column, maintained by its table's
    :class:`TableStatistics`.

    The backbone is a counter ``key -> [representative value, count]``
    keyed by :func:`values.group_keys` (GROUP BY's bucketing, as the
    indexes key it); NULLs count under their own key, whose representative
    is None.  NDV, min/max, and the equi-depth histogram are derived views
    over the counter, cached until the next mutation.
    """

    __slots__ = ("name", "counter", "version",
                 "_derived_version", "_min", "_max", "_histogram")

    def __init__(self, name: str):
        self.name = name
        self.counter: Dict[Any, List[Any]] = {}
        self.version = 0
        self._derived_version = -1
        self._min = None
        self._max = None
        self._histogram: List[Tuple[Any, Any, int, int]] = []

    # -- derived statistics ----------------------------------------------------

    @property
    def null_count(self) -> int:
        entry = self.counter.get(_NULL_KEY)
        return 0 if entry is None else entry[1]

    @property
    def ndv(self) -> int:
        return len(self.counter) - (_NULL_KEY in self.counter)

    def null_fraction(self, row_count: int) -> float:
        if row_count <= 0:
            return 0.0
        return self.null_count / row_count

    def _refresh_derived(self) -> None:
        if self._derived_version == self.version:
            return
        ordered = sorted((entry for entry in self.counter.values()
                          if entry[0] is not None),
                         key=lambda entry: V.sort_key(entry[0]))
        self._min = ordered[0][0] if ordered else None
        self._max = ordered[-1][0] if ordered else None
        self._histogram = _equi_depth(ordered, HISTOGRAM_BUCKETS)
        self._derived_version = self.version

    @property
    def min_value(self) -> Any:
        self._refresh_derived()
        return self._min

    @property
    def max_value(self) -> Any:
        self._refresh_derived()
        return self._max

    @property
    def histogram(self) -> List[Tuple[Any, Any, int, int]]:
        """Equi-depth buckets ``(lo, hi, rows, ndv)`` over non-null values."""
        self._refresh_derived()
        return self._histogram

    # -- selectivity ----------------------------------------------------------

    def eq_selectivity(self, value: Any, row_count: int) -> float:
        """Fraction of rows equal to ``value`` (exact: counter probe)."""
        if row_count <= 0:
            return 0.0
        if value is None:
            return 0.0  # SQL: column = NULL never matches
        entry = self.counter.get(group_keys((value,))[0])
        return (entry[1] / row_count) if entry is not None else 0.0

    def range_selectivity(self, op: str, bound: Any,
                          row_count: int) -> float:
        """Fraction of rows with ``column <op> bound`` via the histogram.

        Full buckets on the matching side count whole; the bucket
        straddling the bound contributes a linearly interpolated share
        (half a bucket for non-numeric values).  NULLs never match.
        """
        if row_count <= 0 or bound is None:
            return 0.0
        if not self.ndv:  # no non-NULL value (entries leave at zero)
            return 0.0
        histogram = self.histogram
        los = [lo for lo, _, _, _ in histogram]
        his = [hi for _, hi, _, _ in histogram]
        if not _bisectable(los + his, bound):
            return _walked_selectivity(histogram, op, bound, row_count)
        # The buckets stand in native order: bisection finds the run wholly
        # on the matching side and the run wholly off it; only the buckets
        # between straddle the bound.  Summed in bucket order, as the walk
        # sums, so the float is the walk's.
        side = bisect_left if op in ("<", ">=") else bisect_right
        first, last = side(his, bound), side(los, bound)
        below = 1.0 if op in ("<", "<=") else 0.0
        matching = 0.0
        for position, (lo, hi, rows, _) in enumerate(histogram):
            matching += rows * (
                below if position < first else 1.0 - below
                if position >= last else _straddle(op, lo, hi, bound))
        return _clamp(matching / row_count)

    def snapshot(self, row_count: int) -> dict:
        """Canonical view for tests and ``$SYSTEM.DM_COLUMN_STATISTICS``."""
        return {
            "column": self.name,
            "rows": row_count,
            "ndv": self.ndv,
            "nulls": self.null_count,
            "null_fraction": round(self.null_fraction(row_count), 6),
            "min": self.min_value,
            "max": self.max_value,
            "histogram": list(self.histogram),
        }


def _bisectable(bounds: list, bound: Any) -> bool:
    """Whether native order on the bucket bounds and ``bound`` is
    ``sql_compare``'s: the bounds order natively
    (:func:`values.orders_natively`) and ``bound``, no NaN, is of their
    class or both are numbers."""
    classes = {type(bound), type(bounds[0])}
    return V.orders_natively(bounds) and bound == bound and (
        len(classes) == 1 or classes <= {int, float, bool})


def _walked_selectivity(histogram, op: str, bound: Any,
                        row_count: int) -> float:
    """:meth:`ColumnStats.range_selectivity` by ``sql_compare`` against
    both bounds of every bucket — for bounds that do not order natively."""
    matching = 0.0
    for lo, hi, rows, _ in histogram:
        try:
            cmp_lo = V.sql_compare(lo, bound)
            cmp_hi = V.sql_compare(hi, bound)
        except Exception:
            return DEFAULT_RANGE_SELECTIVITY
        if cmp_lo is None or cmp_hi is None:
            return DEFAULT_RANGE_SELECTIVITY
        matching += rows * _bucket_overlap(op, lo, hi, cmp_lo, cmp_hi,
                                           bound)
    return _clamp(matching / row_count)


def _bucket_overlap(op: str, lo, hi, cmp_lo, cmp_hi, bound) -> float:
    """Share of one histogram bucket matching ``value <op> bound``."""
    if op in ("<", "<="):
        if cmp_hi < 0 or (cmp_hi == 0 and op == "<="):
            return 1.0
        if cmp_lo > 0 or (cmp_lo == 0 and op == "<"):
            return 0.0
    else:  # ">", ">="
        if cmp_lo > 0 or (cmp_lo == 0 and op == ">="):
            return 1.0
        if cmp_hi < 0 or (cmp_hi == 0 and op == ">"):
            return 0.0
    return _straddle(op, lo, hi, bound)


def _straddle(op: str, lo, hi, bound) -> float:
    """Share of a bucket the bound falls inside: interpolated for
    numerics, half a bucket else."""
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (lo, hi, bound))
    if numeric and hi != lo:
        below = (float(bound) - float(lo)) / (float(hi) - float(lo))
    else:
        below = 0.5
    return _clamp(below if op in ("<", "<=") else 1.0 - below)


def _equi_depth(ordered: List[List[Any]],
                buckets: int) -> List[Tuple[Any, Any, int, int]]:
    """Equi-depth buckets from sorted ``[value, count]`` pairs."""
    total = sum(entry[1] for entry in ordered)
    if total == 0:
        return []
    depth = max(1, -(-total // buckets))  # ceil(total / buckets)
    out: List[Tuple[Any, Any, int, int]] = []
    lo = None
    rows = 0
    ndv = 0
    hi = None
    for value, count in ordered:
        if lo is None:
            lo = value
        hi = value
        rows += count
        ndv += 1
        if rows >= depth:
            out.append((lo, hi, rows, ndv))
            lo, rows, ndv = None, 0, 0
    if rows:
        out.append((lo, hi, rows, ndv))
    return out


class TableStatistics:
    """Row count plus per-column :class:`ColumnStats` for one table."""

    __slots__ = ("row_count", "columns", "_by_name")

    def __init__(self, schema):
        self.row_count = 0
        self.columns: List[ColumnStats] = [
            ColumnStats(column.name) for column in schema.columns]
        self._by_name = {column.name.upper(): index
                         for index, column in enumerate(schema.columns)}

    def note_inserts(self, columns: list, keys: list) -> None:
        """Count a statement's inserted rows, given column by column with
        each column's :func:`group_keys`."""
        self.row_count += len(keys[0])
        for stats, values, column_keys in zip(self.columns, columns, keys):
            stats.version += 1
            counter = stats.counter
            for value, key in zip(values, column_keys):
                entry = counter.get(key)
                if entry is None:
                    counter[key] = [value, 1]
                else:
                    entry[1] += 1

    def note_deletes(self, keys: list) -> None:
        """Uncount a statement's deleted rows by each column's keys."""
        self.row_count = max(0, self.row_count - len(keys[0]))
        for stats, column_keys in zip(self.columns, keys):
            stats.version += 1
            counter = stats.counter
            for key in column_keys:
                entry = counter.get(key)
                if entry is not None:
                    entry[1] -= 1
                    if entry[1] <= 0:
                        del counter[key]

    def rebuild(self, rows) -> None:
        """Re-derive from ``rows``: empty counters, then one insert."""
        self.row_count = 0
        for stats in self.columns:
            stats.counter = {}
        columns = list(zip(*rows)) or [()] * len(self.columns)
        self.note_inserts(columns, list(map(group_keys, columns)))

    def column(self, name: str) -> Optional[ColumnStats]:
        index = self._by_name.get(name.upper())
        return None if index is None else self.columns[index]

    def snapshot(self) -> List[dict]:
        return [stats.snapshot(self.row_count) for stats in self.columns]


# ---------------------------------------------------------------------------
# Predicate selectivity
# ---------------------------------------------------------------------------
#
# ``resolver(parts) -> (ColumnStats, row_count) | None`` maps a column
# reference onto statistics; the engine supplies one per FROM source.  All
# estimation is read-only and exception-safe: anything unrecognised falls
# back to a constant, never an error.

def estimate_selectivity(expr: Optional[ast.Expr], resolver) -> float:
    """Estimated fraction of rows satisfying ``expr`` (1.0 when absent)."""
    if expr is None:
        return 1.0
    try:
        return _clamp(_selectivity(expr, resolver))
    except Exception:
        return DEFAULT_SELECTIVITY


def _selectivity(expr: ast.Expr, resolver) -> float:
    if isinstance(expr, ast.BinaryOp):
        if expr.op == "AND":
            return (_selectivity(expr.left, resolver) *
                    _selectivity(expr.right, resolver))
        if expr.op == "OR":
            a = _selectivity(expr.left, resolver)
            b = _selectivity(expr.right, resolver)
            return a + b - a * b  # inclusion–exclusion
        if expr.op in ("=", "<>", "<", "<=", ">", ">="):
            return _comparison_selectivity(expr, resolver)
        return DEFAULT_SELECTIVITY
    if isinstance(expr, ast.UnaryOp) and expr.op.upper() == "NOT":
        return 1.0 - _selectivity(expr.operand, resolver)
    if isinstance(expr, ast.IsNull):
        stats = _column_stats(expr.operand, resolver)
        if stats is None:
            fraction = DEFAULT_NULL_SELECTIVITY
        else:
            column, rows = stats
            fraction = column.null_fraction(rows)
        return 1.0 - fraction if expr.negated else fraction
    if isinstance(expr, ast.InList):
        fraction = sum(_eq_fraction(expr.operand, item, resolver)
                       for item in expr.items)
        fraction = _clamp(fraction)
        return 1.0 - fraction if expr.negated else fraction
    if isinstance(expr, ast.Between):
        low = _selectivity(
            ast.BinaryOp(">=", expr.operand, expr.low), resolver)
        high = _selectivity(
            ast.BinaryOp("<=", expr.operand, expr.high), resolver)
        fraction = _clamp(max(0.0, low + high - 1.0))
        return 1.0 - fraction if expr.negated else fraction
    if isinstance(expr, ast.Like):
        return DEFAULT_SELECTIVITY
    return DEFAULT_SELECTIVITY


def _comparison_selectivity(expr: ast.BinaryOp, resolver) -> float:
    column, literal = _column_vs_literal(expr.left, expr.right)
    op = expr.op
    if column is None:
        column, literal = _column_vs_literal(expr.right, expr.left)
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if column is None:
        return (DEFAULT_EQ_SELECTIVITY if expr.op == "="
                else DEFAULT_RANGE_SELECTIVITY)
    if op == "=":
        return _eq_fraction(column, literal, resolver)
    if op == "<>":
        return 1.0 - _eq_fraction(column, literal, resolver)
    stats = _column_stats(column, resolver)
    if stats is None:
        return DEFAULT_RANGE_SELECTIVITY
    column_stats, rows = stats
    return column_stats.range_selectivity(op, _literal_value(literal), rows)


def _eq_fraction(column_expr, literal_expr, resolver) -> float:
    if not isinstance(column_expr, ast.ColumnRef) or \
            not _is_literal(literal_expr):
        return DEFAULT_EQ_SELECTIVITY
    stats = _column_stats(column_expr, resolver)
    if stats is None:
        return DEFAULT_EQ_SELECTIVITY
    column_stats, rows = stats
    return column_stats.eq_selectivity(_literal_value(literal_expr), rows)


def _column_vs_literal(a, b):
    if isinstance(a, ast.ColumnRef) and _is_literal(b):
        return a, b
    return None, None


def _is_literal(expr) -> bool:
    if isinstance(expr, ast.Literal):
        return True
    return (isinstance(expr, ast.UnaryOp) and expr.op == "-" and
            isinstance(expr.operand, ast.Literal))


def _literal_value(expr):
    if isinstance(expr, ast.Literal):
        return expr.value
    value = expr.operand.value  # UnaryOp("-", Literal)
    return -value if isinstance(value, (int, float)) else value


def _column_stats(expr, resolver):
    if not isinstance(expr, ast.ColumnRef) or resolver is None:
        return None
    return resolver(expr.parts)


def _clamp(fraction: float) -> float:
    return min(1.0, max(0.0, fraction))


# ---------------------------------------------------------------------------
# Cardinality estimates for joins and grouping
# ---------------------------------------------------------------------------

def estimate_join_rows(kind: str, left_rows: Optional[int],
                       right_rows: Optional[int],
                       equi: bool,
                       key_ndvs: Tuple[Optional[int], Optional[int]] =
                       (None, None)) -> Optional[int]:
    """Estimated output cardinality of one join operator.

    * CROSS: ``|L| * |R|``.
    * Equi join with key NDVs: ``|L| * |R| / max(ndv_l, ndv_r)`` — the
      textbook containment assumption.
    * Equi join without key statistics: ``max(|L|, |R|)`` (foreign-key
      shape, the common case).
    * Non-equi (nested loop): ``|L| * |R| * DEFAULT_SELECTIVITY``.
    * LEFT joins never drop a left row: the estimate is floored at ``|L|``.
    """
    if left_rows is None or right_rows is None:
        return None
    if kind == "CROSS":
        return left_rows * right_rows
    if equi:
        ndv = max((n for n in key_ndvs if n), default=0)
        if ndv > 0:
            est = left_rows * right_rows / ndv
        else:
            est = float(max(left_rows, right_rows))
    else:
        est = left_rows * right_rows * DEFAULT_SELECTIVITY
    if kind == "LEFT":
        est = max(est, float(left_rows))
    return int(round(min(est, float(left_rows * right_rows))))


def estimate_group_rows(input_rows: int,
                        key_ndvs: List[Optional[int]]) -> int:
    """Estimated group count: product of key NDVs, capped by the input."""
    if not key_ndvs:
        return 1  # global aggregate: one output row
    product = 1
    for ndv in key_ndvs:
        product *= ndv if ndv and ndv > 0 else DEFAULT_NDV
        if product >= input_rows:
            return max(0, input_rows)
    return max(0, min(product, input_rows))
