"""Statement templates: parse a statement shape once.

Applications re-issue the same command text with different constants — a
point SELECT per key, a singleton PREDICTION JOIN per case, a VALUES list
per batch.  Such statements have the same *shape* (:meth:`Scan.shape`: the
token stream with its NUMBER/STRING values taken out), and every statement of
one shape parses to the same tree but for the places those values land in:
a :class:`~repro.lang.ast_nodes.Literal` node, or a cell of a VALUES row
whose every cell is a plain literal (such a row is a tuple of values, not
of nodes).  A :class:`TemplateCache` keeps, per shape, that tree and the
way to rebuild it around new values — the *slot vector*, the shape's
values in source order:

* a **miss** parses the tokens the scan already produced; the parser reports
  where each value it read from a token landed: a ``Literal`` it built, or
  a VALUES cell ``(row, column)``;
* the shape gets a :class:`Template` only if *every* NUMBER/STRING token
  landed exactly once in the final tree.  Where the grammar consumes a
  literal as anything else — ``TOP n``, ``MAXDOP n``, ``DISCRETIZED(…,
  3)``, algorithm parameters, ``CANCEL id``, EXPORT/IMPORT paths — the
  shape is remembered as *unparameterizable* and parsed in full every
  time;
* a **hit** returns the template and the slot vector.  Made into a
  statement (:meth:`Template.instantiate`), a VALUES statement's tuple rows
  are made from the slot vector with one ``itemgetter`` over every cell
  and one slice per row — no node, and no Python call, per value; for
  ``Literal`` slots (point SELECTs, predicates, expression cells) only the
  *spine* is copied — the nodes on a path from the root to a substituted
  literal — and every other node is shared with the template.

A template's tree is syntax only, nothing from the catalog, so no DDL or
data change can invalidate it.  Beside it the template has one slot,
:attr:`Template.plan`, that the provider fills with ``(catalog version,
prepared, by values)``: the shape's prepared plan
(:class:`repro.sqlstore.engine.Prepared`, or for a singleton PREDICTION
JOIN :class:`repro.core.prediction.PreparedPrediction`), which holds only
what the catalog and the model decide, the catalog version it was prepared
at, and whether a statement is bound by its values alone (every literal of
the shape is read by a WHERE kernel, or is an item of the singleton's
source row).  A hit while that version is current binds the plan to
the statement's values — read through :meth:`Template.value_of`, the
statement made only when it is not bound by its values alone; any other
re-prepares and refills the slot, so the template LRU bounds the plans
too.  What a template
shares is shared between statements that may be executing at the same
moment: **the tree a statement executes is read-only** (the engine,
prediction, shaping and EXPLAIN layers keep their per-execution state in
maps of their own, never on the nodes).

The normalized text and fingerprint of a shape
(:func:`repro.lang.normalizer.statement_shape`) do not depend on the values
either, so the template computes them once, on first request.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.lang import ast_nodes as ast
from repro.lang.lexer import Scan, Token, TokenKind
from repro.lang.normalizer import statement_shape
from repro.lang.parser import Parser
from repro.obs import trace as obs_trace

#: Shapes remembered per provider (least recently used evicted).  A
#: constant, not an option: a template is a few times the size of its text.
TEMPLATE_CACHE_LIMIT = 256

_ABSENT = object()

#: ``template`` attribute of the parse region -> the counter it increments.
_COUNTERS = {"hit": "lang.template_hits",
             "miss": "lang.template_misses",
             "none": "lang.template_unparameterizable"}

Builder = Callable[[list], Any]
Shape = Callable[[], Tuple[str, str]]


class Template:
    """The parsed statement of one shape and how to re-make it."""

    __slots__ = ("statement", "slots", "_build", "_shape", "plan")

    def __init__(self, statement: ast.Statement, build: Optional[Builder],
                 slots: Dict[Any, int]):
        self.statement = statement
        self.slots = slots  # id of a Literal (or a VALUES cell) -> its slot
        self._build = build  # None: the shape has no literal to substitute
        self._shape: Optional[Tuple[str, str]] = None
        # (catalog version, prepared, by values): None as the prepared plan
        # plans the shape's statements one by one at that version; (None,
        # False, _) a kept plan dropped when the catalog moved on.
        self.plan: Optional[tuple] = None

    def instantiate(self, values: list) -> ast.Statement:
        """The statement of this shape whose literals are ``values``."""
        if self._build is None:
            return self.statement
        return self._build(values)

    def value_of(self, values: list) -> Callable[[ast.Literal], Any]:
        """``value_of(node)``: for a Literal of the template's statement,
        the value the statement of this shape whose literals are
        ``values`` holds there — the reader a kept plan binds by."""
        slot_of = self.slots.get
        return lambda node: node.value if (
            slot := slot_of(id(node))) is None else values[slot]

    def shape(self) -> Tuple[str, str]:
        """``(normalized text, fingerprint)``, computed once."""
        if self._shape is None:
            self._shape = statement_shape(self.statement)
        return self._shape


def _clone(node):
    """A shallow copy of a dataclass node."""
    new = object.__new__(type(node))
    new.__dict__.update(node.__dict__)
    return new


def _compile(node, slot_of: Dict[Any, int],
             found: List[int]) -> Optional[Builder]:
    """The builder of ``node``'s copy around a vector of literal values, or
    None when no slot lies beneath it (the node is then shared).

    ``slot_of`` maps where a value landed — ``id`` of a Literal, or a
    VALUES cell ``(row, column)`` — to its slot."""
    if type(node) is ast.Literal:
        slot = slot_of.get(id(node))
        if slot is None:
            return None  # NULL / TRUE / FALSE: spelled by the shape itself
        found.append(slot)
        return lambda values: ast.Literal(values[slot])
    if type(node) is ast.InsertValuesStatement and \
            tuple in set(map(type, node.rows)):
        return _compile_values(node, slot_of, found)
    if isinstance(node, (list, tuple)):
        parts = [(index, build) for index, item in enumerate(node)
                 if (build := _compile(item, slot_of, found)) is not None]
        if not parts:
            return None
        as_tuple = isinstance(node, tuple)

        def rebuild_sequence(values):
            items = list(node)
            for index, build in parts:
                items[index] = build(values)
            return tuple(items) if as_tuple else items
        return rebuild_sequence
    if dataclasses.is_dataclass(node):
        fields = [(field.name, build) for field in dataclasses.fields(node)
                  if (build := _compile(getattr(node, field.name), slot_of,
                                        found)) is not None]
        if not fields:
            return None

        def rebuild_node(values):
            new = _clone(node)
            for name, build in fields:
                setattr(new, name, build(values))
            return new
        return rebuild_node
    return None


def _compile_values(node: ast.InsertValuesStatement, slot_of: Dict[Any, int],
                    found: List[int]) -> Builder:
    """The builder of a VALUES statement with tuple rows: every tuple-row
    cell picked by one ``itemgetter`` from the slot vector followed by the
    template's own cells (a NULL, TRUE or FALSE is read from those), each
    row one slice of what it picks; an expression row is built as any
    other node."""
    own: List[Any] = []  # the tuple rows' cells, row after row
    cells, slices, expression_rows = [], [], []
    for number, row in enumerate(node.rows):
        if type(row) is tuple:
            slices.append(slice(len(own), len(own) + len(row)))
            own += row
            cells += [(number, column) for column in range(len(row))]
        else:
            expression_rows.append(
                (number, row, _compile(row, slot_of, found)))
    picks = [slot_of.get(cell, position - len(own))
             for position, cell in enumerate(cells)]
    found += [slot for slot in picks if slot >= 0]
    pick = itemgetter(*picks, -1)  # one index more: one cell is a tuple too

    def rebuild_values(values):
        picked = pick(values + own)
        rows = list(map(picked.__getitem__, slices))
        for number, row, build in expression_rows:  # in row order
            rows.insert(number, row if build is None else build(values))
        new = _clone(node)
        new.rows = rows
        return new
    return rebuild_values


def make_template(statement: ast.Statement, tokens: List[Token],
                  literals: List[Tuple[int, Any]]) -> Optional[Template]:
    """The template of a freshly parsed statement, or None when some
    NUMBER/STRING token did not land exactly once in the tree.

    ``literals`` is the parser's record, in token order, of the ``(token
    index, destination)`` of each such token: the Literal built from it,
    or the VALUES cell ``(row, column)`` its value was put in.
    """
    value_tokens = [index for index, token in enumerate(tokens)
                    if token.kind is TokenKind.NUMBER
                    or token.kind is TokenKind.STRING]
    if [index for index, _ in literals] != value_tokens:
        return None
    slot_of = {id(target) if type(target) is ast.Literal else target: slot
               for slot, (_, target) in enumerate(literals)}
    found: List[int] = []
    build = _compile(statement, slot_of, found)
    if sorted(found) != list(range(len(literals))):
        return None  # a literal the parser built was dropped or repeated
    return Template(statement, build, slot_of)


class TemplateCache:
    """A bounded LRU of statement shapes, safe to share between sessions."""

    def __init__(self, metrics=None):
        self.metrics = metrics
        self._lock = threading.Lock()
        # shape key -> Template; None marks an unparameterizable shape
        self._entries: "OrderedDict[tuple, Optional[Template]]" = \
            OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def parse(self, text: str) -> Tuple[
            Optional[ast.Statement], Shape, Optional[Tuple[Template, list]]]:
        """Parse one statement; returns it with the callable that gives
        its ``(normalized text, fingerprint)`` and, for a templated shape,
        ``(template, slot values)`` (None otherwise).  A hit returns None
        for the statement: the caller makes it,
        ``template.instantiate(values)``, only if it needs it — a kept
        plan binds the values alone.

        Runs under a ``parse`` region with the ``tokens`` counter and a
        ``template`` attribute: ``hit`` (made from a template), ``miss``
        (parsed in full, template kept) or ``none`` (parsed in full, the
        shape cannot be templated).
        """
        with obs_trace.region("parse") as region:
            scan = Scan(text)
            shaped = scan.shape()  # None: scan.tokens() raises the reason
            key = None
            outcome = "miss"
            if shaped is not None:
                key, values = shaped
                with self._lock:
                    template = self._entries.get(key, _ABSENT)
                    if template is not _ABSENT:
                        self._entries.move_to_end(key)
                if template is None:
                    outcome = "none"
                elif template is not _ABSENT:
                    obs_trace.add("tokens", len(scan.rows))
                    self._count(region, "hit")
                    return None, template.shape, (template, values)
            try:
                tokens = scan.tokens()
                parser = Parser(text, tokens)
                statement = parser.parse_statement()
                obs_trace.add("tokens", len(tokens))
                if outcome == "miss":
                    template = make_template(statement, tokens,
                                             parser.literals)
                    self._remember(key, template)
                    if template is not None:
                        return statement, template.shape, (template, values)
                    outcome = "none"
                return statement, partial(statement_shape, statement), None
            finally:
                self._count(region, outcome)

    def drop_plans(self) -> None:
        """Drop every template's kept plan: the catalog moved on, and a
        plan kept against the old one would keep what it read alive.  The
        slot keeps ``False`` in its place, so the shape's next statement
        still counts the re-prepare as a plan-cache miss."""
        with self._lock:
            for template in filter(None, self._entries.values()):
                if template.plan is not None and template.plan[1]:
                    template.plan = (None, False, template.plan[2])

    def _remember(self, key: tuple, entry: Optional[Template]) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > TEMPLATE_CACHE_LIMIT:
                self._entries.popitem(last=False)

    def _count(self, region, outcome: str) -> None:
        if region is not None:
            region.attributes["template"] = outcome
        obs_trace.count(self.metrics, _COUNTERS[outcome])
