"""Decision-tree mining service (classification and regression).

The reference service behind the paper's ``USING [Decision_Trees_101]``
example.  One tree is grown per PREDICT attribute:

* categorical targets: greedy top-down induction maximising entropy gain
  (or Gini, per SCORE_METHOD);
* continuous targets: regression trees maximising weighted variance
  reduction, leaves carrying mean/variance;
* categorical inputs split multiway, continuous inputs split on a binary
  threshold chosen among quantile candidates;
* missing values are routed *fractionally* down every child in proportion
  to the children's weights (CART-style), both in training and prediction —
  this is what lets a PREDICTION JOIN supply only a subset of the input
  columns, as the paper's section 3.3 example does.

Growth is regularised by MINIMUM_SUPPORT, MAXIMUM_DEPTH and a
COMPLEXITY_PENALTY charged per additional child.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algorithms.attributes import Attribute, AttributeSpace, Observation
from repro.algorithms.base import (
    AttributePrediction,
    CasePrediction,
    MiningAlgorithm,
)
from repro.algorithms.statistics import CategoricalDistribution, GaussianStats
from repro.core.content import (
    NODE_DISTRIBUTION,
    NODE_INTERIOR,
    NODE_MODEL,
    NODE_TREE,
    ContentNode,
    DistributionRow,
)

_MAX_THRESHOLD_CANDIDATES = 32


class _TreeNode:
    """One node of a grown tree."""

    __slots__ = ("distribution", "stats", "split_attribute", "threshold",
                 "children", "child_values", "support", "depth", "condition")

    def __init__(self, support: float, depth: int, condition: str):
        self.distribution: Optional[CategoricalDistribution] = None
        self.stats: Optional[GaussianStats] = None
        self.split_attribute: Optional[Attribute] = None
        self.threshold: Optional[float] = None       # continuous splits
        self.children: List["_TreeNode"] = []
        self.child_values: List[Optional[float]] = []  # categorical splits
        self.support = support
        self.depth = depth
        self.condition = condition  # display text, e.g. "Gender = 'Male'"

    @property
    def is_leaf(self) -> bool:
        return not self.children


class DecisionTreeAlgorithm(MiningAlgorithm):
    """Greedy decision/regression trees with fractional missing-value routing."""

    SERVICE_NAME = "Repro_Decision_Trees"
    DISPLAY_NAME = "Decision Trees (reproduction)"
    ALIASES = ("Microsoft_Decision_Trees", "Decision_Trees_101",
               "Decision_Trees")
    SERVICE_TYPE_ID = 1
    PREDICTS_DISCRETE = True
    PREDICTS_CONTINUOUS = True
    SUPPORTED_PARAMETERS = {
        "MINIMUM_SUPPORT": 10.0,
        "COMPLEXITY_PENALTY": 0.1,
        "MAXIMUM_DEPTH": 16,
        "SCORE_METHOD": "ENTROPY",   # ENTROPY | GINI
    }

    def __init__(self, parameters=None):
        super().__init__(parameters)
        self.trees: Dict[int, _TreeNode] = {}

    # -- training -------------------------------------------------------------

    def _train(self, space: AttributeSpace,
               observations: List[Observation]) -> None:
        self.trees = {}
        outputs = space.outputs() or []
        for target in outputs:
            inputs = [a for a in space.inputs()
                      if a.index != target.index and
                      not self._same_nested_item(a, target)]
            weighted = [(o, o.effective_weight(target.index))
                        for o in observations
                        if o.values[target.index] is not None]
            self.trees[target.index] = self._grow(
                target, inputs, weighted, depth=0, condition="All")

    @staticmethod
    def _same_nested_item(a: Attribute, b: Attribute) -> bool:
        """Existence and its per-item value attribute must not predict
        each other (they are two facets of the same nested row)."""
        return (a.table is not None and b.table is not None and
                a.table is b.table and a.key_value == b.key_value)

    def _grow(self, target: Attribute, inputs: List[Attribute],
              weighted: List[Tuple[Observation, float]], depth: int,
              condition: str) -> _TreeNode:
        node = _TreeNode(sum(w for _, w in weighted), depth, condition)
        self._summarise(node, target, weighted)

        if depth >= int(self.param("MAXIMUM_DEPTH")):
            return node
        if node.support < 2 * float(self.param("MINIMUM_SUPPORT")):
            return node
        if target.is_categorical and node.distribution is not None and \
                len(node.distribution) <= 1:
            return node

        best = self._best_split(target, inputs, weighted, node)
        if best is None:
            return node
        attribute, threshold, partitions, labels = best
        node.split_attribute = attribute
        node.threshold = threshold
        remaining = [a for a in inputs if a.index != attribute.index] \
            if attribute.is_categorical else inputs
        for partition, label, child_value in zip(
                partitions, labels, _child_values(attribute, threshold,
                                                  partitions)):
            child = self._grow(target, remaining, partition, depth + 1, label)
            node.children.append(child)
            node.child_values.append(child_value)
        return node

    def _summarise(self, node: _TreeNode, target: Attribute,
                   weighted: List[Tuple[Observation, float]]) -> None:
        if target.is_categorical:
            distribution = CategoricalDistribution()
            for observation, weight in weighted:
                distribution.add(observation.values[target.index], weight)
            node.distribution = distribution
        else:
            stats = GaussianStats()
            for observation, weight in weighted:
                stats.add(observation.values[target.index], weight)
            node.stats = stats

    def _impurity(self, target: Attribute,
                  weighted: List[Tuple[Observation, float]]) -> float:
        if target.is_categorical:
            distribution = CategoricalDistribution()
            for observation, weight in weighted:
                distribution.add(observation.values[target.index], weight)
            if self.param("SCORE_METHOD").upper() == "GINI":
                return distribution.gini()
            return distribution.entropy()
        stats = GaussianStats()
        for observation, weight in weighted:
            stats.add(observation.values[target.index], weight)
        return stats.variance

    def _best_split(self, target: Attribute, inputs: List[Attribute],
                    weighted: List[Tuple[Observation, float]],
                    node: _TreeNode):
        total = node.support
        if total <= 0:
            return None
        parent_impurity = self._impurity(target, weighted)
        minimum_support = float(self.param("MINIMUM_SUPPORT"))
        penalty = float(self.param("COMPLEXITY_PENALTY"))
        best_gain = 0.0
        best = None

        for attribute in inputs:
            if attribute.is_categorical:
                result = self._categorical_split(attribute, target, weighted,
                                                 minimum_support)
            else:
                result = self._continuous_split(attribute, target, weighted,
                                                minimum_support)
            if result is None:
                continue
            threshold, partitions, labels = result
            known = sum(sum(w for _, w in p) for p in partitions)
            if known <= 0:
                continue
            child_impurity = sum(
                (sum(w for _, w in p) / known) *
                self._impurity(target, p)
                for p in partitions)
            gain = (parent_impurity - child_impurity) * (known / total)
            gain -= penalty * (len(partitions) - 1) / max(total, 1.0)
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = (attribute, threshold,
                        self._route_missing(attribute, weighted, partitions),
                        labels)
        return best

    def _categorical_split(self, attribute, target, weighted,
                           minimum_support):
        buckets: Dict[float, List[Tuple[Observation, float]]] = {}
        for observation, weight in weighted:
            value = observation.values[attribute.index]
            if value is None:
                continue
            buckets.setdefault(value, []).append((observation, weight))
        if len(buckets) < 2:
            return None
        values = sorted(buckets)
        partitions = [buckets[v] for v in values]
        if sum(1 for p in partitions
               if sum(w for _, w in p) >= minimum_support) < 2:
            return None
        labels = [f"{attribute.name} = {attribute.decode(v)!r}"
                  for v in values]
        return None, partitions, labels

    def _continuous_split(self, attribute, target, weighted,
                          minimum_support):
        known = [(observation.values[attribute.index], observation, weight)
                 for observation, weight in weighted
                 if observation.values[attribute.index] is not None]
        if len(known) < 2:
            return None
        known.sort(key=lambda item: item[0])
        distinct = sorted({value for value, _, _ in known})
        if len(distinct) < 2:
            return None
        if len(distinct) > _MAX_THRESHOLD_CANDIDATES:
            step = len(distinct) / _MAX_THRESHOLD_CANDIDATES
            candidates = [distinct[int(i * step)]
                          for i in range(1, _MAX_THRESHOLD_CANDIDATES)]
        else:
            candidates = [(distinct[i] + distinct[i + 1]) / 2.0
                          for i in range(len(distinct) - 1)]

        best_threshold = None
        best_impurity = None
        for threshold in candidates:
            low = [(o, w) for v, o, w in known if v <= threshold]
            high = [(o, w) for v, o, w in known if v > threshold]
            low_weight = sum(w for _, w in low)
            high_weight = sum(w for _, w in high)
            if low_weight < minimum_support or high_weight < minimum_support:
                continue
            total = low_weight + high_weight
            impurity = (low_weight / total * self._impurity(target, low) +
                        high_weight / total * self._impurity(target, high))
            if best_impurity is None or impurity < best_impurity - 1e-12:
                best_impurity = impurity
                best_threshold = threshold
        if best_threshold is None:
            return None
        low = [(o, w) for v, o, w in known if v <= best_threshold]
        high = [(o, w) for v, o, w in known if v > best_threshold]
        labels = [f"{attribute.name} <= {best_threshold:g}",
                  f"{attribute.name} > {best_threshold:g}"]
        return best_threshold, [low, high], labels

    def _route_missing(self, attribute, weighted, partitions):
        """Distribute missing-valued observations across children
        proportionally to child weights."""
        missing = [(o, w) for o, w in weighted
                   if o.values[attribute.index] is None]
        if not missing:
            return partitions
        child_weights = [sum(w for _, w in p) for p in partitions]
        total = sum(child_weights)
        if total <= 0:
            return partitions
        routed = [list(p) for p in partitions]
        for observation, weight in missing:
            for child, child_weight in zip(routed, child_weights):
                share = weight * child_weight / total
                if share > 0:
                    child.append((observation, share))
        return routed

    # -- prediction -----------------------------------------------------------

    def _build_tables(self):
        """``(targets, shared)``: every output attribute with its tree, and
        ``node -> the prediction of a case that ends in it``, filled as
        nodes are reached — every case routed whole to one node shares
        that node's prediction."""
        return ([(target, self.trees.get(target.index))
                 for target in self.space.outputs()], {})

    def predict(self, observation: Observation) -> CasePrediction:
        self.require_trained()
        result = CasePrediction()
        values = observation.values
        targets, shared = self.prediction_tables()
        for target, tree in targets:
            if tree is None:
                result.set(self.marginal_prediction(target))
                continue
            node = tree
            while node.children:
                value = values[node.split_attribute.index]
                if value is None:
                    node = None  # routed fractionally, from the root
                    break
                if node.threshold is not None:
                    node = node.children[0 if value <= node.threshold else 1]
                    continue
                for child, child_value in zip(node.children,
                                              node.child_values):
                    if child_value == value:
                        node = child
                        break
                else:
                    # Unseen category: this node's own distribution.
                    break
            if node is None:
                prediction = self._mixture(
                    target, self._walk(tree, observation, 1.0))
            else:
                prediction = shared.get(node)
                if prediction is None:
                    prediction = shared[node] = self._mixture(
                        target, [(node, 1.0)])
            result.set(prediction)
        return result

    def _walk(self, node: _TreeNode, observation: Observation,
              weight: float):
        """Yield (leaf, weight) pairs, splitting on missing values."""
        if node.is_leaf:
            yield node, weight
            return
        attribute = node.split_attribute
        value = observation.values[attribute.index]
        if value is None:
            total = sum(child.support for child in node.children)
            if total <= 0:
                yield node, weight
                return
            for child in node.children:
                share = weight * child.support / total
                if share > 0:
                    yield from self._walk(child, observation, share)
            return
        if node.threshold is not None:
            child = node.children[0] if value <= node.threshold \
                else node.children[1]
            yield from self._walk(child, observation, weight)
            return
        for child, child_value in zip(node.children, node.child_values):
            if child_value == value:
                yield from self._walk(child, observation, weight)
                return
        # Unseen category: fall back to this node's own distribution.
        yield node, weight

    @staticmethod
    def _mixture(target: Attribute, leaves) -> AttributePrediction:
        """The prediction from ``(node, share)`` pairs: the share-weighted
        mixture of the nodes' distributions (or Gaussians)."""
        if target.is_categorical:
            merged = CategoricalDistribution()
            for leaf, share in leaves:
                if leaf.distribution is None or leaf.distribution.total <= 0:
                    continue
                for value, count in leaf.distribution.counts.items():
                    merged.add(value, share * count / leaf.distribution.total)
            return AttributePrediction.from_categorical(target, merged)
        stats = _WeightedMoments()
        for leaf, share in leaves:
            if leaf.stats is None or leaf.stats.sum_weight <= 0:
                continue
            stats.add(leaf.stats.mean, leaf.stats.variance,
                      leaf.stats.sum_weight, share)
        return stats.to_prediction(target)

    # -- content --------------------------------------------------------------

    def content_nodes(self) -> ContentNode:
        self.require_trained()
        root = ContentNode("0", NODE_MODEL, self.space.definition.name,
                           description=f"Decision tree model "
                                       f"({len(self.trees)} trees)",
                           support=self.space.total_weight, probability=1.0)
        for position, (target_index, tree) in enumerate(
                sorted(self.trees.items())):
            target = self.space.attributes[target_index]
            tree_node = root.add_child(ContentNode(
                f"0.{position}", NODE_TREE, target.name,
                description=f"Tree for predictable attribute {target.name}",
                support=tree.support, probability=1.0))
            self._render(tree, target, tree_node, f"0.{position}", "All")
        return root

    def _render(self, node: _TreeNode, target: Attribute,
                content: ContentNode, prefix: str, path: str) -> None:
        content.distribution = _distribution_rows(node, target)
        for position, child in enumerate(node.children):
            node_id = f"{prefix}.{position}"
            node_type = NODE_DISTRIBUTION if child.is_leaf else NODE_INTERIOR
            child_content = content.add_child(ContentNode(
                node_id, node_type, child.condition,
                description=f"{path} and {child.condition}",
                support=child.support,
                probability=(child.support / node.support
                             if node.support else 0.0)))
            self._render(child, target, child_content, node_id,
                         f"{path} and {child.condition}")

    def tree_for(self, attribute_name: str) -> Optional[_TreeNode]:
        """The grown tree for one predictable attribute (for tests/tools)."""
        self.require_trained()
        attribute = self.space.by_name(attribute_name)
        if attribute is None:
            return None
        return self.trees.get(attribute.index)


class _WeightedMoments:
    """Mixture of leaf Gaussians: combined mean/variance across leaves."""

    def __init__(self):
        self.weight = 0.0
        self.mean_sum = 0.0
        self.second_moment = 0.0
        self.support = 0.0

    def add(self, mean: float, variance: float, support: float,
            share: float) -> None:
        self.weight += share
        self.mean_sum += share * mean
        self.second_moment += share * (variance + mean * mean)
        self.support += share * support

    def to_prediction(self, target: Attribute) -> AttributePrediction:
        from repro.algorithms.base import PredictionBucket
        if self.weight <= 0:
            return AttributePrediction(target, None, None, 0.0, None, [])
        mean = self.mean_sum / self.weight
        variance = max(self.second_moment / self.weight - mean * mean, 0.0)
        bucket = PredictionBucket(mean, 1.0, self.support, variance)
        return AttributePrediction(target, mean, None, self.support,
                                   variance, [bucket])


def _child_values(attribute: Attribute, threshold: Optional[float],
                  partitions) -> List[Optional[float]]:
    """Internal split values aligned with partitions."""
    if threshold is not None:
        return [None, None]  # binary continuous split uses the threshold
    # Categorical: recover each partition's shared category code.
    values = []
    for partition in partitions:
        code = None
        for observation, _ in partition:
            value = observation.values[attribute.index]
            if value is not None:
                code = value
                break
        values.append(code)
    return values


def _distribution_rows(node: _TreeNode, target: Attribute):
    rows = []
    if node.distribution is not None and node.distribution.total > 0:
        for value, weight in node.distribution.sorted_items():
            rows.append(DistributionRow(
                target.name, target.decode(value), weight,
                weight / node.distribution.total))
    elif node.stats is not None and node.stats.sum_weight > 0:
        rows.append(DistributionRow(
            target.name, node.stats.mean, node.stats.sum_weight, 1.0,
            node.stats.variance))
    return rows
