"""Differential harness: training from the case matrix vs the per-observation
trainers it replaced (``tests/reference/reference_trainers.py``).

(i)   a model trained through ``MiningModel.train`` — one INSERT, or a
      second one that is absorbed (naive Bayes) or refits — equals the
      reference on every ``<model>.CONTENT`` row, on the whole PMML document
      (which spells out every count, key and dict order of the trained
      state), and on the marginals *including dict item order*: discrete,
      discretized and continuous inputs and targets, nested-table existence
      and per-item value attributes, missing values, fractional SUPPORT and
      PROBABILITY qualifiers, ENTROPY and GINI, MINIMUM_SUPPORT /
      MAXIMUM_DEPTH / COMPLEXITY_PENALTY at their edges;
(ii)  naive Bayes ``partial_train`` and ``AttributeSpace.absorb`` continue
      the sums: train + partial_train == train over the union, on one space;
(iii) a ``max_workers=2`` connection trains the reference model too;
(iv)  a node's support is the explicit left-to-right sum of its weights on
      every interpreter, builtin ``sum`` or not.

Equality is exact everywhere.  The hypothesis budget comes from the profile
(25 in tier-1, 2,000 under ``--hypothesis-profile=deep``).
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro
from repro.algorithms.attributes import AttributeSpace
from repro.algorithms.registry import create_algorithm
from repro.core.bindings import CaseBatch, MappedCase
from repro.core.model import MiningModel
from repro.core.schema_rowsets import model_content_rowset
from repro.errors import Error
from repro.pmml.writer import to_pmml

from tests.reference.reference_trainers import reference_model_train
from tests.differential.test_parallel_vs_serial import (
    SCENARIOS,
    _canonical,
    _load,
)
from tests.differential.test_scoring_tables import definition_of

COLUMNS = """
    Id LONG KEY,
    G TEXT DISCRETE,
    W DOUBLE SUPPORT OF G,
    H TEXT DISCRETE,
    HP DOUBLE PROBABILITY OF H,
    X DOUBLE CONTINUOUS{X},
    D DOUBLE DISCRETIZED(EQUAL_COUNT, 3){D},
    E DOUBLE CONTINUOUS MODEL_EXISTENCE_ONLY,
    T TEXT DISCRETE{T},
    TP DOUBLE PROBABILITY OF T,
    B TABLE(P TEXT KEY, Q DOUBLE CONTINUOUS{Q}){B}
"""


#: No continuous input anywhere, the shape of the life cycle's tree (a
#: discretized target over a discrete column and a nested table's
#: existence columns): every split is a categorical one.
CATEGORICAL_COLUMNS = """
    Id LONG KEY,
    G TEXT DISCRETE,
    W DOUBLE SUPPORT OF G,
    H TEXT DISCRETE,
    HP DOUBLE PROBABILITY OF H,
    D DOUBLE DISCRETIZED(EQUAL_COUNT, 3){D},
    E DOUBLE CONTINUOUS MODEL_EXISTENCE_ONLY,
    T TEXT DISCRETE{T},
    TP DOUBLE PROBABILITY OF T,
    B TABLE(P TEXT KEY){B}
"""


def ddl(using, columns=COLUMNS, **predict):
    marks = {name: " PREDICT" if name in predict else "" for name in "XDTQB"}
    return (f"CREATE MINING MODEL m ({columns.format(**marks)}) "
            f"USING {using}")


#: Which columns are PREDICT: one shape per kind of target, over the
#: mixed column list unless the shape names another.
TREE_TARGETS = {
    "discrete": dict(T=1),
    "continuous": dict(X=1),
    "discretized+discrete": dict(D=1, T=1),
    "nested existence+value": dict(B=1, Q=1),
    "all-categorical discretized": dict(D=1, columns=CATEGORICAL_COLUMNS),
    "all-categorical discrete": dict(T=1, columns=CATEGORICAL_COLUMNS),
    "all-categorical nested existence": dict(B=1,
                                             columns=CATEGORICAL_COLUMNS),
}
BAYES_TARGETS = {
    "discrete": dict(T=1),
    "discretized+nested existence": dict(D=1, B=1),
}

tree_parameters = st.builds(
    "MINIMUM_SUPPORT = {}, MAXIMUM_DEPTH = {}, COMPLEXITY_PENALTY = {}, "
    "SCORE_METHOD = '{}'".format,
    st.sampled_from([0.25, 1, 2.5]), st.sampled_from([0, 1, 16]),
    st.sampled_from([0, 0.1, 3]), st.sampled_from(["ENTROPY", "GINI"]))

categories = st.sampled_from([None, "m", "f", "M", "x"])
numbers = st.one_of(st.none(), st.sampled_from([0.0, 1.5, 2.0, 7.25, 40.0]))
weights = st.sampled_from([None, 1.0, 2.0, 0.5, 0.1, 0.3, 0.0])
shares = st.sampled_from([None, 0.25, 0.1, 1.0, 0.0])


@st.composite
def mapped_cases(draw, complete=False):
    """A bound case; ``complete`` fills every scalar, so a caseset that
    starts with one fits every attribute."""
    case = MappedCase()
    case.scalars["ID"] = draw(st.integers(1, 99))
    for name, values in (("G", categories), ("H", categories),
                         ("T", st.sampled_from([None, "yes", "no", "?"])),
                         ("X", numbers), ("D", numbers), ("E", numbers)):
        value = draw(values)
        if complete and value is None:
            value = "m" if name in "GHT" else 1.5
        case.scalars[name] = value
    if draw(st.booleans()):
        case.qualifiers["G"] = {"SUPPORT": draw(weights)}
    for name in "HT":
        if draw(st.booleans()):
            case.qualifiers[name] = {"PROBABILITY": draw(shares)}
    basket = []
    for _ in range(draw(st.integers(0, 3))):
        row = {"P": draw(st.sampled_from([None, "tv", "TV", "beer", "wine"])),
               "Q": draw(numbers)}
        if draw(st.booleans()):
            row["__QUALIFIERS__"] = {"P": {"PROBABILITY": draw(shares)}}
        basket.append(row)
    case.tables["B"] = basket
    return case


def casesets(max_size):
    return st.builds(lambda first, rest: [first] + rest,
                     mapped_cases(complete=True),
                     st.lists(mapped_cases(), min_size=2, max_size=max_size))


def distribution_dump(statistic):
    if hasattr(statistic, "counts"):
        return list(statistic.counts.items()), statistic.total
    return (statistic.sum_weight, statistic.mean, statistic._m2,
            statistic.minimum, statistic.maximum)


def model_dump(model):
    """Everything a trained model shows: CONTENT rows, the PMML document,
    marginals with their item order, the space's counters."""
    return (_canonical(model_content_rowset(model)), to_pmml(model),
            [distribution_dump(m) for m in model.space.marginals],
            model.space.total_weight, model.space.case_count)


def assert_counts_equal_reference(definition, inserts):
    shipped, reference = MiningModel(definition), MiningModel(definition)
    for cases in inserts:
        cases = [CaseBatch.of(cases)]
        try:
            reference_model_train(reference, cases)
        except Error:
            assume(False)   # e.g. a discretized column with no value
        shipped.train(cases)
        assert model_dump(shipped) == model_dump(reference)


# -- (i) whole models ----------------------------------------------------------------------

@pytest.mark.parametrize("targets", sorted(TREE_TARGETS))
@settings(deadline=None, max_examples=settings.default.max_examples // 2)
@given(parameters=tree_parameters, first=casesets(24),
       second=st.lists(mapped_cases(), max_size=6))
def test_decision_tree_equals_reference(targets, parameters, first, second):
    definition = definition_of(ddl(
        f"Repro_Decision_Trees({parameters})", **TREE_TARGETS[targets]))
    assert_counts_equal_reference(
        definition, [first, second] if second else [first])


@pytest.mark.parametrize("targets", sorted(BAYES_TARGETS))
@settings(deadline=None, max_examples=settings.default.max_examples // 2)
@given(first=casesets(16), second=st.lists(mapped_cases(), max_size=6))
def test_naive_bayes_equals_reference(targets, first, second):
    """The second INSERT is absorbed when every case fits the fitted space
    and refits when one does not; both happen."""
    definition = definition_of(ddl("Repro_Naive_Bayes",
                                   **BAYES_TARGETS[targets]))
    assert_counts_equal_reference(
        definition, [first, second] if second else [first])


# -- (ii) absorbing continues the sums ---------------------------------------------------------

@settings(deadline=None, max_examples=settings.default.max_examples // 2)
@given(first=casesets(12), second=st.lists(mapped_cases(), min_size=1,
                                           max_size=8))
def test_partial_train_equals_retrain_over_the_union(first, second):
    definition = definition_of(ddl("Repro_Naive_Bayes", D=1, B=1))
    space = AttributeSpace(definition)
    try:
        space.fit_schema(CaseBatch.of(first))
    except Error:
        assume(False)
    head = space.encode_many(CaseBatch.of(first))
    tail = space.encode_many(CaseBatch.of(second))

    absorbed = create_algorithm(definition.algorithm, definition.parameters)
    absorbed.train(space, head)
    absorbed.partial_train(tail)
    retrained = create_algorithm(definition.algorithm, definition.parameters)
    retrained.train(space, list(head) + list(tail))
    assert absorbed.state() == retrained.state()

    space.marginals_from_observations(head)
    space.total_weight = 0.0
    space.absorb(tail, len(tail))
    absorbed_marginals = [distribution_dump(m) for m in space.marginals]
    space.marginals_from_observations(list(head) + list(tail))
    assert absorbed_marginals == \
        [distribution_dump(m) for m in space.marginals]
    total = 0.0
    for observation in tail:
        total += observation.weight
    assert space.total_weight == total


# -- (iii) a pooled connection -----------------------------------------------------------------

def test_two_workers_train_the_reference_model():
    scenario = SCENARIOS["Repro_Naive_Bayes"]
    conn = repro.connect(max_workers=2, pool_mode="thread",
                         caseset_cache_capacity=0)
    try:
        _load(conn)
        conn.execute(scenario["ddl"])
        conn.execute(scenario["train"] + " WITH MAXDOP 2")
        model = conn.provider.model("M")
        reference = MiningModel(model.definition)
        reference_model_train(reference, model.training_cases)
        assert model_dump(model) == model_dump(reference)
    finally:
        conn.close()


# -- (iv) supports are left-to-right sums -------------------------------------------------------

def test_node_supports_are_sequential_sums_of_fractional_weights():
    """Thirty cases of SUPPORT 0.1: builtin ``sum`` gives 3.0000000000000004
    before CPython 3.12 and 3.0 from it on; a node's support is the explicit
    loop's float on both."""
    definition = definition_of(
        "CREATE MINING MODEL m (Id LONG KEY, G TEXT DISCRETE, "
        "W DOUBLE SUPPORT OF G, T TEXT DISCRETE PREDICT) "
        "USING Repro_Decision_Trees(MINIMUM_SUPPORT = 0.5, "
        "COMPLEXITY_PENALTY = 0)")
    cases = []
    for number in range(30):
        case = MappedCase()
        case.scalars.update(
            ID=number, G="mf"[number % 2],
            T="no" if number % 2 or number % 3 == 0 else "yes")
        case.qualifiers["G"] = {"SUPPORT": 0.1}
        cases.append(case)
    cases = [CaseBatch.of(cases)]
    model = MiningModel(definition)
    model.train(cases)

    def loop(count):
        total = 0.0
        for _ in range(count):
            total += 0.1
        return total

    tree = model.algorithm.tree_for("T")
    assert tree.support == loop(30) == model.space.total_weight
    assert [child.support for child in tree.children] == [loop(15), loop(15)]
    assert tree.distribution.total == loop(30)
    assert list(tree.distribution.counts.items()) == \
        [(0, loop(20)), (1, loop(10))]
    reference = MiningModel(definition)
    reference_model_train(reference, cases)
    assert model_dump(model) == model_dump(reference)
