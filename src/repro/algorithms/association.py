"""Association-rules mining service (Apriori).

Mines frequent itemsets and rules over the existence attributes of a
PREDICT-able nested table — the paper's market-basket motivation ("the set
of products that the customer is likely to buy").  Prediction returns a
recommendation histogram for the nested table: for each candidate item not
already in the case, the best applicable rule's confidence; PredictHistogram
/ TopCount over that histogram give the usual top-N recommendations.

Reference: Agrawal et al., "Fast discovery of association rules" ([2] in the
paper).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import CapabilityError, TrainError
from repro.algorithms.attributes import Attribute, AttributeSpace, Observation
from repro.algorithms.base import (
    AttributePrediction,
    CasePrediction,
    MiningAlgorithm,
    PredictionBucket,
)
from repro.core.content import (
    NODE_ITEMSET,
    NODE_MODEL,
    NODE_RULE,
    ContentNode,
    DistributionRow,
)


class AssociationRule:
    """left => right with support/confidence/lift (right is one item)."""

    __slots__ = ("left", "right", "support", "confidence", "lift")

    def __init__(self, left: FrozenSet[int], right: int, support: float,
                 confidence: float, lift: float):
        self.left = left
        self.right = right
        self.support = support
        self.confidence = confidence
        self.lift = lift


class AssociationRulesAlgorithm(MiningAlgorithm):
    """Apriori frequent itemsets + confidence-filtered rules."""

    SERVICE_NAME = "Repro_Association_Rules"
    DISPLAY_NAME = "Association Rules (reproduction)"
    ALIASES = ("Microsoft_Association_Rules", "Association_Rules", "Apriori")
    SERVICE_TYPE_ID = 5
    PREDICTS_DISCRETE = True
    PREDICTS_CONTINUOUS = False
    SUPPORTED_PARAMETERS = {
        "MINIMUM_SUPPORT": 0.02,        # fraction of cases (or count if > 1)
        "MINIMUM_PROBABILITY": 0.3,     # rule confidence threshold
        "MAXIMUM_ITEMSET_SIZE": 4,
        "MAXIMUM_RULE_LEFT_SIZE": 3,
    }

    def __init__(self, parameters=None):
        super().__init__(parameters)
        self.items: List[Attribute] = []
        self.itemsets: Dict[FrozenSet[int], float] = {}
        self.rules: List[AssociationRule] = []
        self.case_total = 0.0
        self._table_name: Optional[str] = None

    # -- persistence ------------------------------------------------------------

    def state(self) -> dict:
        name = {a.index: a.name for a in self.items}
        return {
            "table": self._table_name,
            "case_total": self.case_total,
            "items": [a.name for a in self.items],
            "itemsets": [[sorted(name[i] for i in itemset), support]
                         for itemset, support in self.itemsets.items()],
            "rules": [[sorted(name[i] for i in rule.left), name[rule.right],
                       rule.support, rule.confidence, rule.lift]
                      for rule in self.rules],
        }

    def load_state(self, space: AttributeSpace, state: dict) -> None:
        self._table_name = state["table"]
        self.case_total = state["case_total"]
        self.items = [space.by_name(n) for n in state["items"]]
        index = {a.name: a.index for a in self.items}
        self.itemsets = {frozenset(index[n] for n in names): support
                         for names, support in state["itemsets"]}
        self.rules = [
            AssociationRule(frozenset(index[n] for n in left), index[right],
                            support, confidence, lift)
            for left, right, support, confidence, lift in state["rules"]]

    # -- training -------------------------------------------------------------

    def _train(self, space: AttributeSpace,
               observations: List[Observation]) -> None:
        continuous_targets = [a.name for a in space.outputs()
                              if not a.is_categorical and not a.is_existence]
        if continuous_targets:
            raise CapabilityError(
                f"{self.SERVICE_NAME} cannot predict continuous "
                f"attribute(s): {', '.join(continuous_targets)}")
        tables = [t for t in space.definition.nested_tables() if t.predict] \
            or space.definition.nested_tables()
        if not tables:
            raise TrainError(
                f"{self.SERVICE_NAME} requires a nested TABLE column (the "
                f"basket); model {space.definition.name!r} has none")
        table = tables[0]
        self._table_name = table.name
        self.items = space.existence_attributes(table.name)
        if not self.items:
            raise TrainError(
                f"nested table {table.name!r} produced no item attributes")

        baskets: List[Tuple[FrozenSet[int], float]] = []
        for observation in observations:
            basket = frozenset(
                a.index for a in self.items
                if observation.values[a.index] == 1.0)
            baskets.append((basket, observation.weight))
        self.case_total = sum(w for _, w in baskets)

        threshold = float(self.param("MINIMUM_SUPPORT"))
        if threshold <= 1.0:
            threshold *= self.case_total

        # Apriori level-wise search.
        level: Dict[FrozenSet[int], float] = {}
        for attribute in self.items:
            single = frozenset([attribute.index])
            support = sum(w for basket, w in baskets if attribute.index in
                          basket)
            if support >= threshold:
                level[single] = support
        self.itemsets = dict(level)
        size = 1
        while level and size < int(self.param("MAXIMUM_ITEMSET_SIZE")):
            size += 1
            candidates = self._candidates(level, size)
            level = {}
            for candidate in candidates:
                support = sum(w for basket, w in baskets
                              if candidate <= basket)
                if support >= threshold:
                    level[candidate] = support
            self.itemsets.update(level)

        self._generate_rules()

    @staticmethod
    def _candidates(level: Dict[FrozenSet[int], float],
                    size: int) -> List[FrozenSet[int]]:
        """Join step: merge (size-1)-sets sharing a (size-2)-prefix, then
        prune candidates with an infrequent subset."""
        previous = sorted(level, key=lambda s: sorted(s))
        candidates = set()
        for a, b in itertools.combinations(previous, 2):
            union = a | b
            if len(union) != size:
                continue
            if all(frozenset(subset) in level
                   for subset in itertools.combinations(union, size - 1)):
                candidates.add(union)
        return sorted(candidates, key=lambda s: sorted(s))

    def _generate_rules(self) -> None:
        self.rules = []
        minimum_probability = float(self.param("MINIMUM_PROBABILITY"))
        maximum_left = int(self.param("MAXIMUM_RULE_LEFT_SIZE"))
        for itemset, support in self.itemsets.items():
            if len(itemset) < 2:
                continue
            for right in itemset:
                left = itemset - {right}
                if len(left) > maximum_left:
                    continue
                left_support = self.itemsets.get(left)
                if not left_support:
                    continue
                confidence = support / left_support
                if confidence < minimum_probability:
                    continue
                right_support = self.itemsets.get(frozenset([right]), 0.0)
                lift = (confidence /
                        (right_support / self.case_total)
                        if right_support else 0.0)
                self.rules.append(AssociationRule(
                    left, right, support, confidence, lift))
        self.rules.sort(key=lambda r: (-r.confidence, -r.support,
                                       sorted(r.left), r.right))

    # -- prediction -------------------------------------------------------------

    def predict(self, observation: Observation) -> CasePrediction:
        """Recommendations: best-rule confidence per absent item."""
        self.require_trained()
        result = CasePrediction()
        basket = frozenset(a.index for a in self.items
                           if observation.values[a.index] == 1.0)
        scores: Dict[int, Tuple[float, float]] = {}  # item -> (conf, support)
        for rule in self.rules:
            if rule.right in basket:
                continue
            if rule.left <= basket:
                best = scores.get(rule.right)
                if best is None or rule.confidence > best[0]:
                    scores[rule.right] = (rule.confidence, rule.support)
        # Fall back to item popularity so every item is rankable.
        for attribute in self.items:
            if attribute.index in basket or attribute.index in scores:
                continue
            support = self.itemsets.get(frozenset([attribute.index]))
            if support:
                scores[attribute.index] = (0.0, support)

        # Existence attributes get individual predictions, plus a
        # case-level recommendation histogram used by PredictAssociation.
        recommendation: List[PredictionBucket] = []
        for attribute in self.items:
            if attribute.index in basket:
                present = PredictionBucket(True, 1.0, observation.weight)
                result.set(AttributePrediction(
                    attribute, True, 1.0, observation.weight, None,
                    [present]))
                continue
            confidence, support = scores.get(attribute.index, (0.0, 0.0))
            buckets = [PredictionBucket(True, confidence, support),
                       PredictionBucket(False, 1.0 - confidence, 0.0)]
            result.set(AttributePrediction(
                attribute, confidence >= 0.5, confidence, support, None,
                buckets))
            recommendation.append(PredictionBucket(
                attribute.key_value, confidence, support))
        recommendation.sort(key=lambda b: (-b.probability, -b.support,
                                           str(b.value)))
        result.recommendations = {self._table_name.upper(): recommendation}
        return result

    # -- content ---------------------------------------------------------------

    def content_nodes(self) -> ContentNode:
        self.require_trained()
        root = ContentNode(
            "0", NODE_MODEL, self.space.definition.name,
            description=f"Association model: {len(self.itemsets)} frequent "
                        f"itemsets, {len(self.rules)} rules",
            support=self.case_total, probability=1.0)
        by_index = {a.index: a for a in self.items}
        for position, (itemset, support) in enumerate(
                sorted(self.itemsets.items(),
                       key=lambda kv: (-kv[1], sorted(kv[0])))):
            names = [str(by_index[i].key_value) for i in sorted(itemset)]
            root.add_child(ContentNode(
                f"0.I{position}", NODE_ITEMSET, ", ".join(names),
                support=support,
                probability=support / self.case_total if self.case_total
                else 0.0,
                distribution=[DistributionRow(by_index[i].name,
                                              by_index[i].key_value,
                                              support, 1.0)
                              for i in sorted(itemset)]))
        for position, rule in enumerate(self.rules):
            left = ", ".join(str(by_index[i].key_value)
                             for i in sorted(rule.left))
            right = by_index[rule.right].key_value
            root.add_child(ContentNode(
                f"0.R{position}", NODE_RULE, f"{left} -> {right}",
                description=f"confidence={rule.confidence:.3f}, "
                            f"lift={rule.lift:.3f}",
                support=rule.support, probability=rule.confidence))
        return root

    # -- introspection helpers (used by tests and examples) ---------------------

    def frequent_itemsets(self) -> List[Tuple[Tuple, float]]:
        """(item value tuple, support) pairs, largest support first."""
        by_index = {a.index: a for a in self.items}
        output = []
        for itemset, support in self.itemsets.items():
            values = tuple(sorted(str(by_index[i].key_value)
                                  for i in itemset))
            output.append((values, support))
        output.sort(key=lambda pair: (-pair[1], pair[0]))
        return output

    def rules_as_tuples(self) -> List[Tuple[Tuple, str, float, float]]:
        by_index = {a.index: a for a in self.items}
        return [
            (tuple(sorted(str(by_index[i].key_value) for i in rule.left)),
             str(by_index[rule.right].key_value),
             rule.support, rule.confidence)
            for rule in self.rules]
