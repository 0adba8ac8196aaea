"""Secondary indexes: hash (point/join) plus sorted (range) structures.

A user-created index (``CREATE INDEX ix ON T (col)``) maintains two views
of one column, both keyed by :func:`~repro.sqlstore.values.group_keys`:

* a **hash** map from each key to the ascending row positions holding it
  — serving WHERE equality/IN seeks and the build side of hash joins
  (each bucket is one key's rows in insertion order, as a scan-built
  bucket holds them);
* a **sorted** run of the distinct non-NULL keys — serving range
  predicates via bisection, for the column classes whose key is their
  order: a LONG or DOUBLE value's float, a TEXT value itself.  A range
  seek concatenates the buckets of the keys it bisects to.

Index *selection* must be conservative: the engine re-applies the full
WHERE to every candidate, so an index may return a superset of the true
matches but never miss one.  The subtlety is mixed-type comparison
semantics — ``sql_compare`` falls back to *string* comparison for
mismatched types (a LONG column against the literal ``'5'`` matches by
string compare, which a numeric range scan would miss), and the key
separates ``bool`` from numbers while ``sql_equal`` normalises them.  So
:func:`choose_index` only fires when the literal's type class strictly
matches the column's declared class (str literals on TEXT, non-bool
numbers on LONG/DOUBLE, bools — equality only — on BOOLEAN), and DATE
columns never seek from literals (SQL literals are never date objects;
they compare as strings).  Everything else scans, exactly as before.

Candidate positions are always returned in ascending order, so an
index-driven scan yields rows in base-table order and the differential
suites see byte-identical output with and without the index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from functools import partial
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, List, Optional

from repro.lang import ast_nodes as ast
from repro.sqlstore.values import NUMBER_TYPES, group_keys, native_classes

# Column classes eligible for the sorted (range) structure.  DATE is
# excluded: a WHERE literal can never be a date object, so range seeks on
# DATE columns would compare dates against strings — semantics the scan
# path resolves by string comparison, which toordinal bisection does not
# reproduce.
_RANGE_TYPES = ("LONG", "DOUBLE", "TEXT")


def _literal_matches(type_name: str, value: Any) -> bool:
    """Strict type-class match between a WHERE literal and a column."""
    if value is None:
        return False
    if type_name == "TEXT":
        return isinstance(value, str)
    if type_name in ("LONG", "DOUBLE"):  # an int past the float range too
        return native_classes(value) is NUMBER_TYPES
    if type_name == "BOOLEAN":
        return isinstance(value, bool)
    return False


class TableIndex:
    """One named single-column index: hash buckets and, where the column
    class is ordered, the sorted run of its distinct keys."""

    __slots__ = ("name", "column_name", "column_index", "type_name",
                 "hash", "_ordered", "_has_nan",
                 "seeks", "range_seeks", "join_probes")

    def __init__(self, name: str, column_name: str, column_index: int,
                 type_name: str):
        self.name = name
        self.column_name = column_name
        self.column_index = column_index
        self.type_name = type_name
        self.hash: Dict[Any, List[int]] = {}
        # The distinct non-NULL keys, sorted; None for non-range classes.
        self._ordered: Optional[List[Any]] = \
            [] if type_name in _RANGE_TYPES else None
        self._has_nan = False
        self.seeks = 0
        self.range_seeks = 0
        self.join_probes = 0

    @property
    def kind(self) -> str:
        return "hash+sorted" if self._ordered is not None else "hash"

    @property
    def entries(self) -> int:
        return sum(len(p) for p in self.hash.values())

    @property
    def keys(self) -> int:
        return len(self.hash)

    # -- maintenance ----------------------------------------------------------

    def extend(self, keys: List[Any], base: int) -> None:
        """Index one statement's cells of this column, by their
        :func:`group_keys`, stored at positions ``base``, ``base + 1``, …:
        a known key costs a bucket append, a new one an insort into the
        run."""
        run = self._ordered
        for key in self._fill(keys, base):
            insort(run, key)

    def rebuild(self, rows) -> None:
        """Re-derive from ``rows``: one pass fills the buckets, one sort
        orders the distinct keys."""
        self.hash = {}
        self._has_nan = False
        new = self._fill(group_keys(
            list(map(itemgetter(self.column_index), rows))), 0)
        if self._ordered is not None:
            self._ordered = sorted(new)

    def _fill(self, keys: List[Any], base: int) -> List[Any]:
        """Append each key's position to its bucket; returns the keys new
        to the index that belong in the run."""
        buckets = self.hash
        new = []
        for position, key in enumerate(keys, base):
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [position]
                new.append(key)
            else:
                bucket.append(position)
        if self._ordered is None or not new:
            return []
        # NULL's key is a tuple and stays out of the run.  NaN has no place
        # in a total order: range seeks are disabled for this index (NaN
        # satisfies >=/<= under sql_compare's three-way fallback, so a
        # bisected slice could no longer be a superset of the scan's).
        present = [key for key in new if type(key) is not tuple]
        ordered = [key for key in present if key == key]
        self._has_nan |= len(ordered) < len(present)
        return ordered

    # -- seeks ----------------------------------------------------------------

    def range_capable(self) -> bool:
        return self._ordered is not None and not self._has_nan

    def positions_equal(self, literal: Any) -> List[int]:
        return list(self.hash.get(group_keys((literal,))[0], ()))

    def positions_in(self, literals) -> List[int]:
        buckets = self.hash
        positions = [position
                     for key in dict.fromkeys(group_keys(literals))
                     for position in buckets.get(key, ())]
        positions.sort()
        return positions

    def positions_range(self, low: Any = None, high: Any = None) -> List[int]:
        """Positions with key in ``[low, high]`` (bounds inclusive).

        Bounds are applied *inclusively* regardless of the predicate's
        strictness — deliberately conservative: the key may collapse
        distinct values (it only promises monotonicity), and the full WHERE
        re-filters, so over-inclusion at the boundary is free correctness.
        """
        run = self._ordered or []
        lo = 0 if low is None else bisect_left(run, group_keys((low,))[0])
        hi = len(run) if high is None else \
            bisect_right(run, group_keys((high,))[0])
        return sorted(chain.from_iterable(
            map(self.hash.__getitem__, run[lo:hi])))


class IndexChoice:
    """The outcome of :func:`choose_index`: which index, how, and the
    candidate positions (ascending)."""

    __slots__ = ("index", "access", "detail", "positions")

    def __init__(self, index: TableIndex, access: str, detail: str,
                 positions: List[int]):
        self.index = index
        self.access = access  # "point" | "in" | "range"
        self.detail = detail
        self.positions = positions

    def note_use(self) -> None:
        if self.access == "range":
            self.index.range_seeks += 1
        else:
            self.index.seeks += 1


def _column_of(expr: ast.Expr, table, qualifier: str) -> Optional[int]:
    """Resolve a ColumnRef to this table's column ordinal, else None."""
    if not isinstance(expr, ast.ColumnRef):
        return None
    parts = expr.parts
    if len(parts) == 1:
        name = parts[0]
    elif len(parts) == 2 and parts[0].upper() == qualifier.upper():
        name = parts[1]
    else:
        return None
    if not table.schema.has_column(name):
        return None
    return table.schema.index_of(name)


def choose_index(where: Optional[ast.Expr], table,
                 qualifier: str) -> Optional[IndexChoice]:
    """Pick an index seek for the leftmost sargable AND-conjunct, if any.

    Sargable forms (column and literal may appear on either side):
    ``col = lit``, ``col </<=/>/>= lit``, ``col IN (lit, ...)``,
    ``col BETWEEN lit AND lit`` — all under the strict type-class rule in
    the module docstring.  Returns ``None`` when nothing qualifies (the
    caller falls back to a sequential scan).
    """
    return index_choice(seek_forms(where, table, qualifier), LITERAL_VALUE)


#: ``value_of`` of a statement read as written: each literal node's value.
LITERAL_VALUE = attrgetter("value")


def seek_forms(where: Optional[ast.Expr], table,
               qualifier: str) -> List[Callable]:
    """What a WHERE's shape decides of its seeks: per AND-conjunct an index
    of ``table`` could serve, leftmost first, ``form(value_of)`` — the
    :class:`IndexChoice` the conjunct's literal nodes give when
    ``value_of(node)`` are their values, or None where a value's class does
    not match the column's (or a range meets a NaN in the index)."""
    if where is None or not getattr(table, "indexes", None):
        return []
    return [form for form in (_form(conjunct, table, qualifier)
                              for conjunct in ast.conjuncts(where)) if form]


def index_choice(forms: List[Callable], value_of) -> Optional[IndexChoice]:
    """The first of :func:`seek_forms` that the values let seek, if any."""
    for form in forms:
        choice = form(value_of)
        if choice is not None:
            return choice
    return None


def _index_for(table, column_index: int) -> Optional[TableIndex]:
    for index in table.indexes.values():
        if index.column_index == column_index:
            return index
    return None


_MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _form(expr: ast.Expr, table, qualifier: str) -> Optional[Callable]:
    kind = type(expr)
    if kind is ast.BinaryOp and expr.op in _MIRRORED:
        column, literals, op = (_column_of(expr.left, table, qualifier),
                                [expr.right], expr.op)
        if column is None:
            # Mirror the operator when the literal is on the left.
            column, literals, op = (_column_of(expr.right, table, qualifier),
                                    [expr.left], _MIRRORED[op])
    elif kind in (ast.InList, ast.Between) and not expr.negated:
        column = _column_of(expr.operand, table, qualifier)
        literals, op = ((expr.items, "in") if kind is ast.InList
                        else ([expr.low, expr.high], "between"))
    else:
        return None
    index = None if column is None else _index_for(table, column)
    if index is None or any(type(node) is not ast.Literal
                            for node in literals):
        return None
    access = {"=": "point", "in": "in"}.get(op, "range")
    if access == "range" and index.type_name == "BOOLEAN":
        return None
    detail = {"point": "point lookup", "in": "in-list lookup"}.get(
        access, "range") + f" on {index.column_name}"
    positions = {"=": index.positions_equal,
                 "in": lambda *values: index.positions_in(values),
                 "<": partial(index.positions_range, None),
                 "<=": partial(index.positions_range, None)}.get(
        op, index.positions_range)
    matches = partial(_literal_matches, index.type_name)

    def form(value_of):
        values = list(map(value_of, literals))
        if all(map(matches, values)) and \
                (access != "range" or index.range_capable()):
            return IndexChoice(index, access, detail, positions(*values))
        return None
    return form
