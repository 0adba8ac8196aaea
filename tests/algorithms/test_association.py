"""Apriori association rules: itemsets, rules, recommendations."""

import pytest

from repro.errors import CapabilityError, TrainError
from repro.lang.parser import parse_statement
from repro.core.bindings import CaseBatch, MappedCase
from repro.core.columns import compile_model_definition
from repro.algorithms.attributes import AttributeSpace
from repro.algorithms.association import AssociationRulesAlgorithm

DDL = """
CREATE MINING MODEL m (
    [Id] LONG KEY,
    [Basket] TABLE([Item] TEXT KEY) PREDICT
) USING Repro_Association_Rules
"""

# 10 baskets: {beer, chips} always together; diapers with beer 4/5 times.
BASKETS = [
    ["beer", "chips", "diapers"],
    ["beer", "chips", "diapers"],
    ["beer", "chips", "diapers"],
    ["beer", "chips", "diapers"],
    ["beer", "chips"],
    ["milk", "bread"],
    ["milk", "bread"],
    ["milk"],
    ["bread"],
    ["milk", "bread", "chips"],
]


def basket_case(identifier, items):
    case = MappedCase()
    case.scalars["ID"] = identifier
    case.tables["BASKET"] = [{"ITEM": item} for item in items]
    return case


def build(min_support=0.2, min_probability=0.5, baskets=None):
    definition = compile_model_definition(parse_statement(DDL))
    cases = [basket_case(i, items)
             for i, items in enumerate(baskets or BASKETS)]
    space = AttributeSpace(definition)
    space.fit(CaseBatch.of(cases))
    algorithm = AssociationRulesAlgorithm({
        "MINIMUM_SUPPORT": min_support,
        "MINIMUM_PROBABILITY": min_probability})
    algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
    return space, algorithm, cases


class TestItemsets:
    def test_singleton_supports_are_counts(self):
        _, algorithm, _ = build()
        itemsets = dict(algorithm.frequent_itemsets())
        assert itemsets[("beer",)] == 5.0
        assert itemsets[("milk",)] == 4.0

    def test_pair_supports(self):
        _, algorithm, _ = build()
        itemsets = dict(algorithm.frequent_itemsets())
        assert itemsets[("beer", "chips")] == 5.0
        assert itemsets[("beer", "diapers")] == 4.0

    def test_support_threshold_prunes(self):
        _, generous, _ = build(min_support=0.1)
        _, strict, _ = build(min_support=0.45)
        assert len(strict.itemsets) < len(generous.itemsets)
        for itemset, support in strict.itemsets.items():
            assert support >= 0.45 * strict.case_total

    def test_absolute_support_threshold(self):
        _, algorithm, _ = build(min_support=5.0)  # >1 means a count
        for support in algorithm.itemsets.values():
            assert support >= 5.0

    def test_subset_support_monotonicity(self):
        _, algorithm, _ = build(min_support=0.1)
        for itemset, support in algorithm.itemsets.items():
            for item in itemset:
                subset = itemset - {item}
                if subset:
                    assert algorithm.itemsets[subset] >= support

    def test_maximum_itemset_size(self):
        definition = compile_model_definition(parse_statement(DDL))
        cases = [basket_case(i, items) for i, items in enumerate(BASKETS)]
        space = AttributeSpace(definition)
        space.fit(CaseBatch.of(cases))
        algorithm = AssociationRulesAlgorithm({
            "MINIMUM_SUPPORT": 0.1, "MAXIMUM_ITEMSET_SIZE": 2})
        algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
        assert max(len(s) for s in algorithm.itemsets) <= 2


class TestRules:
    def test_confidence_values(self):
        _, algorithm, _ = build(min_probability=0.5)
        rules = {(left, right): confidence
                 for left, right, _, confidence in
                 algorithm.rules_as_tuples()}
        assert rules[(("beer",), "chips")] == pytest.approx(1.0)
        assert rules[(("beer",), "diapers")] == pytest.approx(0.8)

    def test_confidence_threshold(self):
        _, algorithm, _ = build(min_probability=0.9)
        for _, _, _, confidence in algorithm.rules_as_tuples():
            assert confidence >= 0.9

    def test_rules_sorted_by_confidence(self):
        _, algorithm, _ = build(min_probability=0.5)
        confidences = [r.confidence for r in algorithm.rules]
        assert confidences == sorted(confidences, reverse=True)


class TestRecommendations:
    def test_applicable_rule_drives_recommendation(self):
        space, algorithm, _ = build()
        observation = space.encode(basket_case(99, ["beer"]))
        prediction = algorithm.predict(observation)
        recommendations = prediction.recommendations["BASKET"]
        assert recommendations[0].value == "chips"
        assert recommendations[0].probability == pytest.approx(1.0)

    def test_owned_items_not_recommended(self):
        space, algorithm, _ = build()
        observation = space.encode(basket_case(99, ["beer", "chips"]))
        values = [b.value for b in
                  algorithm.predict(observation).recommendations["BASKET"]]
        assert "beer" not in values and "chips" not in values

    def test_empty_basket_gets_popularity_fallback(self):
        space, algorithm, _ = build()
        observation = space.encode(basket_case(99, []))
        recommendations = algorithm.predict(observation) \
            .recommendations["BASKET"]
        assert recommendations  # every frequent item is rankable


class TestCapabilities:
    def test_requires_nested_table(self):
        ddl = ("CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE "
               "PREDICT) USING Repro_Association_Rules")
        definition = compile_model_definition(parse_statement(ddl))
        case = MappedCase()
        case.scalars["K"] = 1
        case.scalars["A"] = "x"
        space = AttributeSpace(definition)
        space.fit(CaseBatch.of([case]))
        algorithm = AssociationRulesAlgorithm()
        with pytest.raises(TrainError):
            algorithm.train(space, space.encode_many(CaseBatch.of([case])))

    def test_refuses_continuous_targets(self):
        ddl = ("CREATE MINING MODEL m (k LONG KEY, y DOUBLE CONTINUOUS "
               "PREDICT, b TABLE(i TEXT KEY)) "
               "USING Repro_Association_Rules")
        definition = compile_model_definition(parse_statement(ddl))
        case = basket_case(1, ["x"])
        case.scalars["Y"] = 1.0
        space = AttributeSpace(definition)
        space.fit(CaseBatch.of([case]))
        algorithm = AssociationRulesAlgorithm()
        with pytest.raises(CapabilityError):
            algorithm.train(space, space.encode_many(CaseBatch.of([case])))


class TestContent:
    def test_itemset_and_rule_nodes(self):
        _, algorithm, _ = build()
        root = algorithm.content_nodes()
        types = {n.node_type_name for n in root.walk()}
        assert "ItemSet" in types and "Rule" in types
        rules = [n for n in root.walk() if n.node_type_name == "Rule"]
        assert all("->" in n.caption for n in rules)
