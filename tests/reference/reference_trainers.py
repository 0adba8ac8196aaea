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

``reference_fit_schema`` and ``reference_covers`` are the per-case
dictionary pass and absorb gate as they were before both read
``CaseBatch`` columns: each case's ``scalars`` / ``tables`` dicts, one
``CategoricalDistribution.add`` per case and value.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

from repro.algorithms.attributes import (
    Attribute,
    AttributeSpace,
    Observation,
    _norm,
)
from repro.core.bindings import MappedCase
from repro.core.columns import AttributeType, ContentRole
from repro.algorithms.decision_tree import (
    _MAX_THRESHOLD_CANDIDATES,
    DecisionTreeAlgorithm,
    _TreeNode,
)
from repro.algorithms.naive_bayes import NaiveBayesAlgorithm, _TargetModel
from repro.algorithms.statistics import CategoricalDistribution, GaussianStats
from repro.core.model import MiningModel
from repro.errors import TrainError

Weighted = List[Tuple[Observation, float]]


def total_weight(weighted: Weighted) -> float:
    total = 0.0
    for _, weight in weighted:
        total += weight
    return total


# -- the attribute space --------------------------------------------------------------

def reference_fit_schema(self: AttributeSpace,
                         cases: List[MappedCase]) -> None:
    """The dictionary pass only: attributes, relations, discretizers.

    After this the space can :meth:`encode` cases, but marginals are
    unfitted.
    """
    if not cases:
        raise TrainError(
            f"model {self.definition.name!r}: the training caseset is "
            f"empty")
    self.case_count = len(cases)
    # A second fit starts over rather than on top of the first.
    self.attributes, self._by_name, self._slots = [], {}, None
    self.relations, self.total_weight = {}, 0.0
    scalar_columns = [
        c for c in self.definition.scalar_attributes()]
    observed: Dict[str, CategoricalDistribution] = {}
    numeric_values: Dict[str, List[float]] = {}
    for column in scalar_columns:
        observed[column.name.upper()] = CategoricalDistribution()
        numeric_values[column.name.upper()] = []

    item_counts: Dict[str, CategoricalDistribution] = {
        t.name.upper(): CategoricalDistribution()
        for t in self.definition.nested_tables()}
    relation_maps: Dict[Tuple[str, str], Dict[Any, Any]] = {}

    for case in cases:
        weight = case.weight()
        self.total_weight += weight
        for column in scalar_columns:
            key = column.name.upper()
            value = case.scalars.get(key)
            if column.model_existence_only:
                observed[key].add(value is not None, weight)
                continue
            if value is None:
                continue
            if column.attribute_type in (AttributeType.CONTINUOUS,
                                         AttributeType.DISCRETIZED):
                numeric_values[key].append(float(value))
            else:
                observed[key].add(value, weight)
        for table in self.definition.nested_tables():
            key_column = table.key_column()
            table_key = table.name.upper()
            for row in case.tables.get(table_key, []):
                item = row.get(key_column.name.upper())
                if item is None:
                    continue
                item_counts[table_key].add(item, weight)
                for nested in table.nested_columns:
                    if nested.role is ContentRole.RELATION and \
                            nested.related_to and \
                            nested.related_to.upper() == \
                            key_column.name.upper():
                        relation_value = row.get(nested.name.upper())
                        if relation_value is not None:
                            relation_maps.setdefault(
                                (table_key, nested.name.upper()), {})[
                                _norm(item)] = relation_value

    self.relations = relation_maps
    self._build_attributes(scalar_columns, observed, numeric_values,
                           item_counts)


def reference_covers(self: AttributeSpace, case: MappedCase) -> bool:
    """True if the case encodes without losing information.

    Used by the incremental-maintenance path: a case with an unseen
    category, an unseen nested item, or a value outside a discretizer's
    fitted range requires a full refit of the attribute space.
    """
    for column in self.definition.scalar_attributes():
        value = case.scalars.get(column.name.upper())
        if value is None or column.model_existence_only:
            continue
        attribute = self.by_name(column.name)
        if attribute is None:
            return False
        if attribute.discretizer is not None:
            if not (attribute.discretizer.minimum <= float(value) <=
                    attribute.discretizer.maximum):
                return False
        elif attribute.is_categorical and \
                attribute.encode(value) is None:
            return False
    for table in self.definition.nested_tables():
        key_name = table.key_column().name.upper()
        known = {_norm(a.key_value)
                 for a in self.existence_attributes(table.name)}
        for row in case.tables.get(table.name.upper(), []):
            item = row.get(key_name)
            if item is not None and _norm(item) not in known:
                return False
    return True


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
    # The gate is the per-case one above since ``covers`` became a batch
    # check over columns.
    cases = list(chain.from_iterable(cases))
    if model.can_absorb and all(reference_covers(model.space, c)
                                for c in cases):
        observations = [model.space.encode(case) for case in cases]
        reference_naive_bayes_partial_train(algorithm, observations)
        reference_absorb(model.space, observations, len(cases))
        return
    space = AttributeSpace(model.definition)
    space.fit_schema(model.training_cases)
    observations = [space.encode(case) for case
                    in chain.from_iterable(model.training_cases)]
    space.marginals = reference_partial_marginals(space, observations)
    algorithm.space = space
    algorithm.drop_tables()
    REFERENCE_TRAIN[algorithm.SERVICE_NAME](algorithm, space, observations)
    algorithm.trained = True
    model.space = space
