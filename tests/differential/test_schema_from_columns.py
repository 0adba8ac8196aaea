"""Differential harness: the dictionary pass and the absorb gate over
columns vs the per-case loops they replaced.

``AttributeSpace.fit_schema`` and ``covers`` read a caseset as its
``CaseBatch`` columns; they must equal ``reference_fit_schema`` /
``reference_covers`` of ``tests/reference/reference_trainers.py``, which
read each case's dicts, over generated casesets that mix, across several
INSERTs, whole bound batches, some cases of each (``CaseBatch.take``) and
standalone cases packed by ``CaseBatch.of`` — cases read off a batch and
hand-built cases whose ``1`` / ``1.0`` / ``True`` / ``-0.0`` values no
coercion touched and whose two ``SUPPORT`` qualifiers come in either
order.  The model has ``RELATED TO`` columns
in two nested tables (one bound from the source, the other filled only
by hand-built cases), a ``MODEL_EXISTENCE_ONLY`` column, a
``DISCRETIZED`` column by ``EQUAL_COUNT`` or ``CLUSTERS``, ``SUPPORT``
weights of 0, fractions and 2, and ``MAXIMUM_STATES`` /
``MAXIMUM_ITEMS`` low enough to truncate.

Equal are: every attribute (name, kind, flags, item, categories by type
and ``repr``, discretizer edges, minimum and maximum), ``relations`` with
their key order, ``total_weight`` bit for bit, ``case_count``, a failed
fit's error, and the ``covers`` verdict of each INSERT against the space
fitted before it.  The reference reads standalone cases, so its case
weights come from ``MappedCase.weight``'s per-case loop.  The budget comes
from the hypothesis profile (25 in tier-1, 2,000 under
``--hypothesis-profile=deep``).
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.algorithms.attributes import AttributeSpace
from repro.core.bindings import CaseBatch, MappedCase, case_binder
from repro.core.columns import compile_model_definition
from repro.errors import TrainError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_statement
from repro.shaping import shape
from repro.sqlstore.rowset import DEFAULT_BATCH_SIZE, RowsetColumn
from repro.sqlstore.types import DOUBLE, TEXT

from tests.differential.test_columnar_cases import (
    CHILD,
    Source,
    append,
    children,
    in_key_order,
    keys,
    numbers,
)
from tests.reference.reference_trainers import (
    reference_covers,
    reference_fit_schema,
)

DDL = """
    CREATE MINING MODEL s (
        K TEXT KEY,
        G TEXT DISCRETE,
        W DOUBLE SUPPORT OF G,
        H TEXT DISCRETE MODEL_EXISTENCE_ONLY,
        HP DOUBLE SUPPORT OF H,
        X DOUBLE DISCRETIZED({method}, 3),
        N DOUBLE DISCRETE,
        B TABLE(P TEXT KEY, Q DOUBLE CONTINUOUS,
                QP DOUBLE PROBABILITY OF Q,
                QS DOUBLE DISCRETE RELATED TO P,
                R TEXT DISCRETE RELATED TO P),
        C TABLE(P2 TEXT KEY, R2 TEXT DISCRETE RELATED TO P2)
    ) USING Repro_Decision_Trees{limits}
"""
LIMITS = ["", "(MAXIMUM_STATES = 2, MAXIMUM_ITEMS = 3)"]

MASTER = [RowsetColumn("K", TEXT), RowsetColumn("G", TEXT),
          RowsetColumn("W", DOUBLE), RowsetColumn("H", TEXT),
          RowsetColumn("HP", DOUBLE), RowsetColumn("X", DOUBLE),
          RowsetColumn("N", DOUBLE)]

supports = st.sampled_from([None, 0, 0.0, 0.1, 0.25, 1.0, 2])
masters = st.lists(st.tuples(
    keys, st.sampled_from([None, "m", "f", "M"]), supports,
    st.sampled_from([None, "hi", "lo"]), supports, numbers, numbers),
    max_size=10)
#: What a hand-built case may hold where no coercion ran.
raw = st.sampled_from([None, 1, 1.0, True, "1", 0.0, -0.0, "m", "M"])
raw_numbers = st.sampled_from([None, 0.0, -0.0, 1, 1.0, True, 2.5, 40.0])
related = st.sampled_from([None, "x", "y"])

BINDINGS = {
    "natural": None,
    "positional": [
        ast.BindingColumn("K"), ast.BindingColumn("G"),
        ast.BindingColumn("W"), ast.BindingColumn("H"),
        ast.BindingSkip(), ast.BindingColumn("X"), ast.BindingColumn("N"),
        ast.BindingTable("B", [ast.BindingColumn("P"),
                               ast.BindingColumn("Q"), ast.BindingSkip(),
                               ast.BindingColumn("QS")])],
}


@st.composite
def hand_built(draw):
    """A standalone case filled by hand, its SUPPORTs in either order."""
    case = MappedCase()
    for name in "KGHN":
        case.scalars[name] = draw(raw)
    case.scalars["X"] = draw(raw_numbers)
    for name in draw(st.permutations(["G", "H"])):
        if draw(st.booleans()):
            case.qualifiers[name] = {"SUPPORT": draw(supports)}
    case.tables["B"] = [
        {"P": draw(st.sampled_from([None, "tv", "TV", 1, 1.0, True])),
         "Q": draw(raw_numbers), "QS": draw(raw), "R": draw(related)}
        for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        case.tables["C"] = [{"P2": draw(raw), "R2": draw(related)}
                            for _ in range(draw(st.integers(0, 2)))]
    return case


@st.composite
def inserts(draw):
    """One INSERT's source and how its cases reach the caseset."""
    child = draw(children)
    if draw(st.booleans()):
        child = in_key_order(child)
    return SimpleNamespace(
        master=draw(masters), child=child,
        mode=draw(st.sampled_from(sorted(BINDINGS))),
        batch_size=draw(st.sampled_from([1, 3, DEFAULT_BATCH_SIZE])),
        form=draw(st.sampled_from(["batches", "partial", "standalone"])),
        start=draw(st.integers(0, 4)), step=draw(st.sampled_from([1, 2])),
        reorder=draw(st.booleans()),
        extra=draw(st.lists(hand_built(), max_size=3)))


def bound_cases(definition, insert):
    """The INSERT's batches, in the form it draws — its bound batches, some
    cases of each, or its cases read off them plus hand-built cases packed
    into one — and the standalone cases they hold, which the reference
    reads."""
    arm = SimpleNamespace(appends=[append("B")])
    stream = shape._open_shape(arm, [Source(MASTER, insert.master),
                                     Source(CHILD, insert.child)],
                               insert.batch_size)
    bind = case_binder(definition, stream, BINDINGS[insert.mode])
    batches = list(map(bind, stream.batches()))
    if insert.form == "partial":
        batches = [batch.take(list(range(len(batch)))[
            insert.start::insert.step]) for batch in batches]
    cases = [case for batch in batches for case in batch]
    if insert.form != "standalone":
        return batches, cases
    if insert.reorder:
        for case in cases:
            case.qualifiers = dict(reversed(case.qualifiers.items()))
    cases += insert.extra
    return [CaseBatch.of(cases)], cases


def canonical(value):
    """A value with its type and spelling, dict keys included."""
    if isinstance(value, dict):
        return [(canonical(key), canonical(item))
                for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return type(value).__name__, repr(value)


def schema_dump(space):
    return (
        [(a.name, a.kind, a.is_input, a.is_output, canonical(a.key_value),
          canonical(a.categories),
          None if a.discretizer is None else
          canonical((a.discretizer.edges, a.discretizer.minimum,
                     a.discretizer.maximum)))
         for a in space.attributes],
        [(key, canonical(mapping)) for key, mapping in space.relations.items()],
        space.total_weight.hex(), space.case_count)


def fitted(definition, fit, cases):
    space = AttributeSpace(definition)
    try:
        fit(space, cases)
    except TrainError as exc:
        return None, ("raised", str(exc))
    return space, schema_dump(space)


@settings(deadline=None)
@given(method=st.sampled_from(["EQUAL_COUNT", "CLUSTERS"]),
       limits=st.sampled_from(LIMITS),
       statements=st.lists(inserts(), min_size=1, max_size=3))
def test_schema_and_gate_from_columns_equal_the_per_case_loops(
        method, limits, statements):
    definition = compile_model_definition(parse_statement(
        DDL.format(method=method, limits=limits)))
    caseset, standalone, space = [], [], None
    for insert in statements:
        batches, cases = bound_cases(definition, insert)
        if space is not None:
            assert space.covers(batches) == all(
                reference_covers(space, case) for case in cases)
        caseset += batches
        standalone += cases
        # The reference reads standalone cases: per-case weights.
        space, dump = fitted(definition, AttributeSpace.fit_schema, caseset)
        _, expected = fitted(definition, reference_fit_schema, standalone)
        assert dump == expected
    if space is not None:
        assert space.covers(caseset) == all(
            reference_covers(space, case) for case in standalone)


def test_a_batch_is_its_own_caseset():
    """A ``CaseBatch`` passed alone is a caseset of that one batch."""
    definition = compile_model_definition(parse_statement(
        DDL.format(method="EQUAL_COUNT", limits="")))
    master = [("k1", "m", 2, "hi", 0.5, 1.5, -0.0),
              ("k2", "f", 0, None, None, 3.0, 0.0),
              ("k3", "m", None, "lo", 0.1, None, 1.0)]
    child = [("k1", "tv", 1.0, None, 2), ("k3", "TV", 2.0, None, 3),
             ("k1", "beer", None, None, 5), ("k1", "tv", 3.0, None, 4)]
    arm = SimpleNamespace(appends=[append("B")])
    stream = shape._open_shape(arm, [Source(MASTER, master),
                                     Source(CHILD, child)],
                               DEFAULT_BATCH_SIZE)
    bind = case_binder(definition, stream, None)
    [batch] = [bind(rows) for rows in stream.batches()]
    _, dump = fitted(definition, AttributeSpace.fit_schema, batch)
    _, expected = fitted(definition, reference_fit_schema, list(batch))
    assert dump == expected
    # "TV" keeps its first place and takes its last value (case k3's).
    assert dump[1] == [(("B", "QS"), [(("str", "'TV'"), ("float", "3.0")),
                                      (("str", "'BEER'"), ("float", "5.0"))])]
    # Weights: G's SUPPORT 2, G's SUPPORT 0, then H's 0.1 (G's is NULL).
    assert float.fromhex(dump[2]) == 2.0 + 0.0 + 0.1
