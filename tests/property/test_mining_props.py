"""Mining invariants: discretizers, statistics, Apriori, predictions."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.discretization import fit_discretizer
from repro.algorithms.statistics import CategoricalDistribution, GaussianStats

values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=200)

methods = st.sampled_from(["EQUAL_RANGE", "EQUAL_COUNT", "CLUSTERS"])


@given(values_strategy, methods, st.integers(min_value=1, max_value=12))
@settings(max_examples=80, deadline=None)
def test_discretizer_covers_all_training_values(values, method, buckets):
    discretizer = fit_discretizer(values, method, buckets)
    for value in values:
        bucket = discretizer.bucket_of(value)
        assert 0 <= bucket < discretizer.bucket_count
        low, high = discretizer.range_of(bucket)
        assert low <= high


@given(values_strategy, methods, st.integers(min_value=1, max_value=12))
@settings(max_examples=80, deadline=None)
def test_discretizer_edges_sorted_and_within_range(values, method, buckets):
    discretizer = fit_discretizer(values, method, buckets)
    edges = discretizer.edges
    assert edges == sorted(edges)
    assert len(set(edges)) == len(edges)
    for edge in edges:
        assert discretizer.minimum <= edge <= discretizer.maximum


@given(values_strategy, methods, st.integers(min_value=1, max_value=12))
@settings(max_examples=80, deadline=None)
def test_discretizer_is_monotonic(values, method, buckets):
    discretizer = fit_discretizer(values, method, buckets)
    ordered = sorted(values)
    previous = -1
    for value in ordered:
        bucket = discretizer.bucket_of(value)
        assert bucket >= previous
        previous = bucket


@given(st.lists(st.floats(min_value=-1e4, max_value=1e4,
                          allow_nan=False), min_size=2, max_size=100))
@settings(max_examples=100, deadline=None)
def test_gaussian_matches_numpy(values):
    stats = GaussianStats()
    for value in values:
        stats.add(value)
    assert stats.mean == np.mean(values) or \
        abs(stats.mean - np.mean(values)) < 1e-6 * (1 + abs(np.mean(values)))
    assert abs(stats.variance - np.var(values)) < \
        1e-6 * (1 + abs(np.var(values)))


@given(st.lists(st.tuples(st.sampled_from("abcde"),
                          st.floats(min_value=0.01, max_value=10,
                                    allow_nan=False)),
                min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_categorical_probabilities_form_distribution(pairs):
    distribution = CategoricalDistribution()
    for value, weight in pairs:
        distribution.add(value, weight)
    total = sum(distribution.probability(v) for v in set(distribution.counts))
    assert abs(total - 1.0) < 1e-9
    assert 0.0 <= distribution.entropy() <= math.log2(
        max(len(distribution), 1)) + 1e-9


baskets_strategy = st.lists(
    st.frozensets(st.sampled_from("abcdefg"), max_size=5),
    min_size=1, max_size=60)


@given(baskets_strategy, st.floats(min_value=0.05, max_value=0.8))
@settings(max_examples=50, deadline=None)
def test_apriori_downward_closure_and_exact_supports(baskets, threshold):
    from repro.lang.parser import parse_statement
    from repro.core.bindings import CaseBatch, MappedCase
    from repro.core.columns import compile_model_definition
    from repro.algorithms.attributes import AttributeSpace
    from repro.algorithms.association import AssociationRulesAlgorithm

    assume(any(baskets))
    definition = compile_model_definition(parse_statement(
        "CREATE MINING MODEL m (Id LONG KEY, B TABLE(I TEXT KEY) PREDICT) "
        "USING Repro_Association_Rules"))
    cases = []
    for position, basket in enumerate(baskets):
        case = MappedCase()
        case.scalars["ID"] = position
        case.tables["B"] = [{"I": item} for item in sorted(basket)]
        cases.append(case)
    space = AttributeSpace(definition)
    space.fit(CaseBatch.of(cases))
    algorithm = AssociationRulesAlgorithm({
        "MINIMUM_SUPPORT": threshold, "MINIMUM_PROBABILITY": 0.1})
    algorithm.train(space, space.encode_many(CaseBatch.of(cases)))

    by_index = {a.index: str(a.key_value) for a in algorithm.items}
    minimum = threshold * len(baskets)
    for itemset, support in algorithm.itemsets.items():
        names = {by_index[i] for i in itemset}
        # support is the exact count of covering baskets
        exact = sum(1 for basket in baskets if names <= set(basket))
        assert support == exact
        assert support >= minimum - 1e-9
        # downward closure
        for item in itemset:
            subset = itemset - {item}
            if subset:
                assert subset in algorithm.itemsets
                assert algorithm.itemsets[subset] >= support

    for rule in algorithm.rules:
        left_support = algorithm.itemsets[rule.left]
        union_support = algorithm.itemsets[rule.left | {rule.right}]
        assert rule.confidence == union_support / left_support


@given(st.lists(st.tuples(st.sampled_from(["x", "y"]),
                          st.floats(min_value=0, max_value=10,
                                    allow_nan=False),
                          st.sampled_from(["p", "q"])),
                min_size=8, max_size=60))
@settings(max_examples=30, deadline=None)
def test_tree_histograms_are_distributions(rows):
    from repro.lang.parser import parse_statement
    from repro.core.bindings import CaseBatch, MappedCase
    from repro.core.columns import compile_model_definition
    from repro.algorithms.attributes import AttributeSpace
    from repro.algorithms.decision_tree import DecisionTreeAlgorithm

    assume(len({r[2] for r in rows}) > 0)
    definition = compile_model_definition(parse_statement(
        "CREATE MINING MODEL m (Id LONG KEY, A TEXT DISCRETE, "
        "V DOUBLE CONTINUOUS, L TEXT DISCRETE PREDICT) "
        "USING Repro_Decision_Trees"))
    cases = []
    for position, (a, v, label) in enumerate(rows):
        case = MappedCase()
        case.scalars.update({"ID": position, "A": a, "V": v, "L": label})
        cases.append(case)
    space = AttributeSpace(definition)
    space.fit(CaseBatch.of(cases))
    algorithm = DecisionTreeAlgorithm({"MINIMUM_SUPPORT": 2.0})
    algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
    label_attribute = space.by_name("L")
    for probe in cases[:10]:
        prediction = algorithm.predict(space.encode(probe)) \
            .get(label_attribute)
        total = sum(b.probability for b in prediction.histogram)
        assert abs(total - 1.0) < 1e-6
        assert prediction.value == prediction.histogram[0].value
        assert all(0.0 <= b.probability <= 1.0 + 1e-9
                   for b in prediction.histogram)
