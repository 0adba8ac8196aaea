"""Differential harness: the compiled prediction kernel vs the per-case
interpreter it replaced.

``compile_cases(model, ctx, where, exprs)(cases)`` — WHERE and the select
list bound once, the bound batch scored through ``predict_cases`` — must
equal
``tests/reference/prediction_oracle.evaluate_cases`` — a fresh context per case,
every name resolved again, the case scored on first use — value for value
(``==`` on every float, nested rowsets included), or fail with the same
provider error, over

* model columns (predicted, input-only, nested TABLE), every entry of
  ``PREDICTION_FUNCTIONS``, source columns and literals,
* CASE / AND / OR / IN / comparisons / IS NULL around them, and a WHERE
  that may or may not read a prediction,
* all eight registered services, bound by ON pairs, NATURAL and
  positionally, over flat and nested (SHAPE) sources that include missing
  inputs and categories the model never saw.

The one sanctioned difference is *when* names bind: the kernel raises a
``BindError`` / ``PredictionError`` of the statement once, before any case;
the interpreter raises it on the first case that reaches the node.

The example budget comes from the hypothesis profile (``tests/conftest.py``):
12 per service in tier-1, 1,000 under ``--hypothesis-profile=deep``.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.functions import PREDICTION_FUNCTIONS
from repro.core.prediction import (
    _source_alias,
    _source_context,
    case_binder,
    compile_cases,
    plan_prediction_source,
    split_on_condition,
)
from repro.errors import BindError, Error, PredictionError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_statement
from repro.sqlstore.rowset import Rowset

from tests.reference import prediction_oracle as oracle
from tests.differential.test_parallel_vs_serial import SCENARIOS, _load

#: Rows added to the sources *after* training: a missing input, categories
#: and items the model never saw, a missing continuous input.
LATE_ROWS = [
    "INSERT INTO C VALUES (61, NULL, 'hi', 30.0, 90.0, 'yes'), "
    "(62, 'x', 'never', NULL, NULL, NULL), (63, 'm', NULL, 99.0, 1.0, 'no')",
    "INSERT INTO S VALUES (61, 'tv'), (61, 'TV'), (62, 'unseen'), "
    "(63, 'beer')",
    "INSERT INTO E VALUES (31, 0, 'A'), (31, 1, 'never'), (31, 2, 'B')",
]

CASES_PER_SERVICE = 14


def canonical(value):
    if isinstance(value, Rowset):
        return ("rowset",
                [(c.name, c.type.name if c.type is not None else None)
                 for c in value.columns],
                [tuple(canonical(v) for v in row) for row in value.rows])
    return (type(value).__name__, value)


def outcome(thunk):
    try:
        rows = thunk()
    except Error as exc:
        return ("raised", type(exc).__name__, str(exc))
    return ("rows", [tuple(canonical(v) for v in row) for row in rows])


class Harness:
    """One trained model, and per join mode the source context plus the
    bound batch the join would feed the kernel (and, for the interpreter,
    its ``(source_row, MappedCase)`` pairs)."""

    def __init__(self, service):
        scenario = SCENARIOS[service]
        self.conn = repro.connect()
        _load(self.conn)
        self.conn.execute(scenario["ddl"])
        self.conn.execute(scenario["train"])
        for statement in LATE_ROWS:
            self.conn.execute(statement)
        provider = self.conn.provider
        self.model = provider.model("M")
        join = parse_statement(scenario["predict"]).from_clause
        self.alias = _source_alias(join.source)
        stream = plan_prediction_source(provider, join.source).run(10 ** 9)
        columns = list(stream.columns)
        rows = [row for batch in stream.batches() for row in batch]
        rows = rows[:CASES_PER_SERVICE - 3] + rows[-3:]
        self.source_names = [column.name for column in columns
                             if column.nested_columns is None]
        self.context = _source_context(columns, self.alias)
        self.context.subquery_executor = provider.database.execute_select
        # The scenario's own mode (ON pairs or NATURAL), and by-name
        # binding without either keyword — the positional spelling.
        modes = {"positional": None}
        if join.condition is not None:
            modes["on"] = split_on_condition("M", self.alias, join.condition)
        self.batches, self.pairs = {}, {}
        for mode, on_pairs in modes.items():
            cases = case_binder(self.model, columns, self.alias,
                                on_pairs)(rows)
            self.batches[mode] = cases
            self.pairs[mode] = list(zip(rows, cases))

        definition = self.model.definition
        space = self.model.space
        scalars = [c for c in definition.columns
                   if not c.is_table and space.for_column(c.name) is not None]
        self.attributes = [c.name for c in scalars]
        self.discretized = [
            c.name for c in scalars
            if space.for_column(c.name).discretizer is not None]
        self.tables = [c.name for c in definition.columns if c.is_table]
        # Bare names resolve to the model only where the source has none.
        self.bare = [name for name in self.attributes
                     if name.upper() not in
                     {n.upper() for n in self.source_names}]

    def close(self):
        self.conn.close()


@pytest.fixture(scope="module")
def harnesses():
    built = {service: Harness(service) for service in SCENARIOS}
    for harness in built.values():
        harness.strategies = expression_strategy(harness)
    yield built
    for harness in built.values():
        harness.close()


def assert_kernels_agree(harness, where, exprs):
    for mode, pairs in harness.pairs.items():
        expected = outcome(lambda: oracle.evaluate_cases(
            harness.model, harness.context, where, exprs, pairs))
        try:
            kernel = compile_cases(harness.model, harness.context, where,
                                   exprs)
        except (BindError, PredictionError) as exc:
            # Bound once instead of per case: the interpreter must have
            # failed the same way on the first case that got there.
            assert expected == ("raised", type(exc).__name__, str(exc)), mode
            continue
        assert outcome(lambda: kernel(harness.batches[mode])) == expected, \
            mode


# -- generated select lists and filters ---------------------------------------------

def _ref(*parts):
    return ast.ColumnRef(parts=tuple(parts))


def _literal(value):
    return ast.Literal(value)


def _call(name, *args):
    return ast.FuncCall(name, list(args))


def expression_strategy(harness):
    """Expressions that are valid for this model (bind errors have their
    own, enumerated test below): scalar-valued leaves to wrap in
    operators, table-valued ones to select whole or pass to Top*."""
    attribute_refs = [_ref("M", name) for name in harness.attributes] + \
        [_ref(name) for name in harness.bare]
    attribute = st.sampled_from(attribute_refs) if attribute_refs else None
    literals = st.sampled_from(
        [None, 0, 1, 2, 0.5, 30.0, "m", "yes", "no", "tv", "A"]
    ).map(_literal)
    source = st.sampled_from(
        [_ref(harness.alias, name) for name in harness.source_names] +
        [_ref(name) for name in harness.source_names])

    scalar_leaves = [literals, source, st.just(_call("Cluster")),
                     st.builds(_call, st.just("ClusterProbability"),
                               st.sampled_from([1, 2, 3]).map(_literal)),
                     # (the interpreter let ClusterDistance(3) escape as a
                     # raw IndexError; see test_prediction_join.py)
                     st.builds(_call, st.just("ClusterDistance"),
                               st.sampled_from([1, 2]).map(_literal)),
                     st.sampled_from([_call("ClusterProbability"),
                                      _call("ClusterDistance")])]
    table_leaves = [st.just(_call("PredictHistogram", _call("Cluster")))]
    if attribute is not None:
        scalar_leaves += [
            attribute,
            st.builds(_call, st.sampled_from(
                ["Predict", "PredictProbability", "PredictSupport",
                 "PredictVariance", "PredictStdev"]), attribute),
            st.builds(_call, st.sampled_from(
                ["PredictProbability", "PredictSupport"]), attribute,
                st.one_of(literals, source)),
        ]
        table_leaves.append(st.builds(_call, st.just("PredictHistogram"),
                                      attribute))
    if harness.discretized:
        scalar_leaves.append(st.builds(
            _call, st.sampled_from(["RangeMin", "RangeMid", "RangeMax"]),
            st.sampled_from([_ref("M", name)
                             for name in harness.discretized])))
    if harness.tables:
        table = st.sampled_from(
            [_ref("M", name) for name in harness.tables] +
            [_ref(name) for name in harness.tables])
        table_leaves += [
            st.sampled_from([_ref("M", name) for name in harness.tables]),
            st.builds(_call, st.sampled_from(
                ["Predict", "PredictAssociation", "PredictHistogram"]),
                table),
            st.builds(_call, st.just("PredictAssociation"), table,
                      st.sampled_from([0, 1, 2]).map(_literal)),
        ]
    tables = st.one_of(*table_leaves)
    tables = st.one_of(tables, st.builds(
        _call, st.sampled_from(["TopCount", "TopSum", "TopPercent"]),
        tables,
        st.sampled_from([_ref("$PROBABILITY"), _literal("$SUPPORT")]),
        st.sampled_from([0, 1, 2, 0.4, 50]).map(_literal)))

    def extend(children):
        flags = st.booleans()
        return st.one_of(
            st.builds(ast.BinaryOp, st.sampled_from(["AND", "OR"]),
                      children, children),
            st.builds(ast.BinaryOp,
                      st.sampled_from(["=", "<>", "<", ">=", "+", "||"]),
                      children, children),
            st.builds(ast.UnaryOp, st.just("NOT"), children),
            st.builds(ast.IsNull, children, flags),
            st.builds(ast.InList, children,
                      st.lists(children, min_size=1, max_size=3), flags),
            st.builds(ast.Case,
                      st.lists(st.tuples(children, children), min_size=1,
                               max_size=2),
                      st.one_of(st.none(), children)),
            st.builds(_call, st.just("COALESCE"),
                      children, children),
        )
    scalars = st.recursive(st.one_of(*scalar_leaves), extend, max_leaves=5)
    return scalars, st.one_of(scalars, tables)


# Eight services share the profile's budget two by two.
@pytest.mark.parametrize("service", sorted(SCENARIOS))
@settings(deadline=None, max_examples=settings.default.max_examples // 2)
@given(data=st.data())
def test_generated_select_lists_agree(harnesses, service, data):
    harness = harnesses[service]
    scalars, outputs = harness.strategies
    where = data.draw(st.one_of(st.none(), scalars), label="where")
    exprs = data.draw(st.lists(outputs, min_size=1, max_size=3),
                      label="exprs")
    assert_kernels_agree(harness, where, exprs)


def test_every_prediction_function_is_generated():
    """The strategy above names functions by hand; a new UDF must join it."""
    drawn = {"PREDICT", "PREDICTPROBABILITY", "PREDICTSUPPORT",
             "PREDICTVARIANCE", "PREDICTSTDEV", "PREDICTHISTOGRAM",
             "PREDICTASSOCIATION", "CLUSTER", "CLUSTERPROBABILITY",
             "CLUSTERDISTANCE", "RANGEMIN", "RANGEMID", "RANGEMAX",
             "TOPCOUNT", "TOPSUM", "TOPPERCENT"}
    assert drawn == set(PREDICTION_FUNCTIONS) == \
        set(oracle.PREDICTION_FUNCTIONS)


# -- errors of the statement: bound once vs raised per case ---------------------------

STATEMENT_ERRORS = [
    _ref("M"),                                  # the model, no column
    _ref("M", "NoSuch"),
    _ref("M", "Id"),                            # a KEY is no attribute
    _ref("M", "G", "Deeper"),
    _ref("NoSuchAnywhere"),
    _call("NoSuchFn", _ref("M", "G")),
    _call("Predict"),
    _call("Predict", _literal(1)),
    _call("PredictProbability", _ref("M", "NoSuch")),
    _call("PredictAssociation", _ref("M", "G")),
    _call("RangeMin", _ref("M", "G")),
    _call("TopCount", _call("PredictHistogram", _ref("M", "G"))),
    ast.Case([(_literal(False), _ref("M", "NoSuch"))], _literal(0)),
    ast.BinaryOp("AND", _literal(False), _call("NoSuchFn")),
]


@pytest.mark.parametrize("expr", STATEMENT_ERRORS, ids=repr)
def test_statement_errors_bind_before_any_case(harnesses, expr):
    harness = harnesses["Repro_Naive_Bayes"]
    with pytest.raises((BindError, PredictionError)) as bound:
        compile_cases(harness.model, harness.context, None, [expr])
    # The same error whatever the source holds — and behind a WHERE, too.
    with pytest.raises(type(bound.value),
                       match=f"^{re.escape(str(bound.value))}$"):
        compile_cases(harness.model, harness.context, expr, [_literal(1)])


@pytest.mark.parametrize("expr", STATEMENT_ERRORS[:12], ids=repr)
def test_statement_errors_match_the_interpreter(harnesses, expr):
    """Where the interpreter reaches the node at all (no short-circuit in
    front of it), it raises what the kernel raised at bind."""
    assert_kernels_agree(harnesses["Repro_Naive_Bayes"], None, [expr])
