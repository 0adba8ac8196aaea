"""Test-side transcriptions of the per-observation trainers as they were
before a refit counted from one :class:`~repro.algorithms.attributes.
CaseMatrix`: marginals, ``absorb``, naive Bayes ``_train`` /
``partial_train`` and decision-tree growth, one ``(observation, weight)``
pair at a time.

Each function is the method body it replaces, taking the fitted space /
algorithm as ``self`` — with one deliberate change: every weight total is an
explicit left-to-right loop where the bodies said ``sum(...)``, because
builtin ``sum`` is compensated from CPython 3.12 on and these are the
oracle on every interpreter CI runs.  The differential tests require the
shipped code to equal these exactly (``==`` on every float, dict item order
included); nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.algorithms.attributes import (
    Attribute,
    AttributeSpace,
    Observation,
)
from repro.algorithms.decision_tree import (
    _MAX_THRESHOLD_CANDIDATES,
    DecisionTreeAlgorithm,
    _TreeNode,
)
from repro.algorithms.naive_bayes import NaiveBayesAlgorithm, _TargetModel
from repro.algorithms.statistics import CategoricalDistribution, GaussianStats
from repro.core.model import MiningModel

Weighted = List[Tuple[Observation, float]]


def total_weight(weighted: Weighted) -> float:
    total = 0.0
    for _, weight in weighted:
        total += weight
    return total


# -- the attribute space --------------------------------------------------------------

def reference_partial_marginals(self: AttributeSpace,
                                observations) -> List[Any]:
    partials: List[Any] = []
    for attribute in self.attributes:
        if attribute.is_categorical:
            partials.append(CategoricalDistribution())
        else:
            partials.append(GaussianStats())
    for observation in observations:
        for attribute, marginal in zip(self.attributes, partials):
            value = observation.values[attribute.index]
            if value is None:
                continue
            weight = observation.effective_weight(attribute.index)
            marginal.add(value, weight)
    return partials


def reference_absorb(self: AttributeSpace, observations,
                     case_count: int) -> None:
    self.case_count += case_count
    for observation in observations:
        self.total_weight += observation.weight
        for attribute, marginal in zip(self.attributes, self.marginals):
            value = observation.values[attribute.index]
            if value is not None:
                marginal.add(
                    value, observation.effective_weight(attribute.index))


# -- naive Bayes --------------------------------------------------------------------------

def _bayes_add(model: _TargetModel, target_index: int,
               inputs: List[Attribute], observations) -> None:
    for observation in observations:
        state = observation.values[target_index]
        if state is None:
            continue
        weight = observation.effective_weight(target_index)
        model.prior.add(state, weight)
        for attribute in inputs:
            value = observation.values[attribute.index]
            if value is None:
                continue
            key = (attribute.index, state)
            if attribute.is_categorical:
                model.categorical.setdefault(
                    key, CategoricalDistribution()).add(value, weight)
            else:
                model.gaussian.setdefault(
                    key, GaussianStats()).add(value, weight)


def reference_naive_bayes_train(self: NaiveBayesAlgorithm,
                                space: AttributeSpace, observations) -> None:
    self.models = {}
    self._inputs = {}
    for target in space.outputs():
        inputs = [a for a in space.inputs() if a.index != target.index]
        self._inputs[target.index] = inputs
        model = _TargetModel()
        _bayes_add(model, target.index, inputs, observations)
        self.models[target.index] = model


def reference_naive_bayes_partial_train(self: NaiveBayesAlgorithm,
                                        observations) -> None:
    self.drop_tables()
    for target_index, model in self.models.items():
        _bayes_add(model, target_index, self._inputs[target_index],
                   observations)


# -- decision trees -----------------------------------------------------------------------

def reference_decision_tree_train(self: DecisionTreeAlgorithm,
                                  space: AttributeSpace,
                                  observations) -> None:
    self.trees = {}
    for target in space.outputs():
        inputs = [a for a in space.inputs()
                  if a.index != target.index and
                  not self._same_nested_item(a, target)]
        weighted = [(o, o.effective_weight(target.index))
                    for o in observations
                    if o.values[target.index] is not None]
        self.trees[target.index] = _grow(
            self, target, inputs, weighted, depth=0, condition="All")


def _grow(self, target: Attribute, inputs: List[Attribute],
          weighted: Weighted, depth: int, condition: str) -> _TreeNode:
    node = _TreeNode(total_weight(weighted), depth, condition)
    _summarise(node, target, weighted)

    if depth >= int(self.param("MAXIMUM_DEPTH")):
        return node
    if node.support < 2 * float(self.param("MINIMUM_SUPPORT")):
        return node
    if target.is_categorical and node.distribution is not None and \
            len(node.distribution) <= 1:
        return node

    best = _best_split(self, target, inputs, weighted, node)
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
        child = _grow(self, target, remaining, partition, depth + 1, label)
        node.children.append(child)
        node.child_values.append(child_value)
    return node


def _summarise(node: _TreeNode, target: Attribute,
               weighted: Weighted) -> None:
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


def _impurity(self, target: Attribute, weighted: Weighted) -> float:
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
                weighted: Weighted, node: _TreeNode):
    total = node.support
    if total <= 0:
        return None
    parent_impurity = _impurity(self, target, weighted)
    minimum_support = float(self.param("MINIMUM_SUPPORT"))
    penalty = float(self.param("COMPLEXITY_PENALTY"))
    best_gain = 0.0
    best = None

    for attribute in inputs:
        if attribute.is_categorical:
            result = _categorical_split(attribute, weighted, minimum_support)
        else:
            result = _continuous_split(self, attribute, target, weighted,
                                       minimum_support)
        if result is None:
            continue
        threshold, partitions, labels = result
        known = 0.0
        for partition in partitions:
            known += total_weight(partition)
        if known <= 0:
            continue
        child_impurity = 0.0
        for partition in partitions:
            child_impurity += (total_weight(partition) / known) * \
                _impurity(self, target, partition)
        gain = (parent_impurity - child_impurity) * (known / total)
        gain -= penalty * (len(partitions) - 1) / max(total, 1.0)
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = (attribute, threshold,
                    _route_missing(attribute, weighted, partitions),
                    labels)
    return best


def _categorical_split(attribute, weighted: Weighted, minimum_support):
    buckets: Dict[float, Weighted] = {}
    for observation, weight in weighted:
        value = observation.values[attribute.index]
        if value is None:
            continue
        buckets.setdefault(value, []).append((observation, weight))
    if len(buckets) < 2:
        return None
    values = sorted(buckets)
    partitions = [buckets[v] for v in values]
    supported = 0
    for partition in partitions:
        if total_weight(partition) >= minimum_support:
            supported += 1
    if supported < 2:
        return None
    labels = [f"{attribute.name} = {attribute.decode(v)!r}"
              for v in values]
    return None, partitions, labels


def _continuous_split(self, attribute, target, weighted: Weighted,
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
        low_weight = total_weight(low)
        high_weight = total_weight(high)
        if low_weight < minimum_support or high_weight < minimum_support:
            continue
        total = low_weight + high_weight
        impurity = (low_weight / total * _impurity(self, target, low) +
                    high_weight / total * _impurity(self, target, high))
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


def _route_missing(attribute, weighted: Weighted, partitions):
    """Distribute missing-valued observations across children
    proportionally to child weights."""
    missing = [(o, w) for o, w in weighted
               if o.values[attribute.index] is None]
    if not missing:
        return partitions
    child_weights = [total_weight(p) for p in partitions]
    total = 0.0
    for weight in child_weights:
        total += weight
    if total <= 0:
        return partitions
    routed = [list(p) for p in partitions]
    for observation, weight in missing:
        for child, child_weight in zip(routed, child_weights):
            share = weight * child_weight / total
            if share > 0:
                child.append((observation, share))
    return routed


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


# -- a whole model --------------------------------------------------------------------------

REFERENCE_TRAIN = {
    DecisionTreeAlgorithm.SERVICE_NAME: reference_decision_tree_train,
    NaiveBayesAlgorithm.SERVICE_NAME: reference_naive_bayes_train,
}


def reference_model_train(model: MiningModel, cases) -> None:
    """``MiningModel.train`` (absorb when the service and the cases allow
    it, else refit over everything accumulated) through the trainers above,
    from plain observation lists."""
    model.training_cases.extend(cases)
    model.insert_count += 1
    model._invalidate_derived()
    algorithm = model.algorithm
    if model.can_absorb and all(model.space.covers(c) for c in cases):
        observations = [model.space.encode(case) for case in cases]
        reference_naive_bayes_partial_train(algorithm, observations)
        reference_absorb(model.space, observations, len(cases))
        return
    space = AttributeSpace(model.definition)
    space.fit_schema(model.training_cases)
    observations = [space.encode(case) for case in model.training_cases]
    space.marginals = reference_partial_marginals(space, observations)
    algorithm.space = space
    algorithm.drop_tables()
    REFERENCE_TRAIN[algorithm.SERVICE_NAME](algorithm, space, observations)
    algorithm.trained = True
    model.space = space
