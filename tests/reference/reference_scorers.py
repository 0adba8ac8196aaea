"""Test-side transcriptions of the encoder and the two scorers as they were
before they ran off per-space slot plans and per-model prediction tables.

Each function is the method body it replaces, verbatim, taking the fitted
space / trained algorithm as ``self``.  The differential tests require the
shipped code to equal these exactly (``==`` on every float); nothing under
``src/`` imports this module.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.algorithms.attributes import (
    AttributeSpace,
    Observation,
    _norm,
)
from repro.algorithms.base import AttributePrediction, CasePrediction
from repro.algorithms.decision_tree import _TreeNode, _WeightedMoments
from repro.algorithms.statistics import CategoricalDistribution, log_sum_exp
from repro.core.bindings import MappedCase
from repro.core.columns import AttributeType


def reference_encode(self: AttributeSpace, case: MappedCase) -> Observation:
    """``AttributeSpace.encode`` as it was: every attribute looks its value up
    by name, every nested table is indexed per case."""
    values: List[Optional[float]] = [None] * len(self.attributes)
    confidences: Dict[int, float] = {}
    case_key = None
    key_column = self.definition.case_key()
    if key_column is not None:
        case_key = case.scalars.get(key_column.name.upper())

    nested_index: Dict[str, Dict[Any, Dict[str, Any]]] = {}
    for table in self.definition.nested_tables():
        table_key = table.name.upper()
        key_name = table.key_column().name.upper()
        rows = {}
        for row in case.tables.get(table_key, []):
            item = row.get(key_name)
            if item is not None:
                rows[_norm(item)] = row
        nested_index[table_key] = rows

    for attribute in self.attributes:
        if attribute.table is not None:
            table_key = attribute.table.name.upper()
            row = nested_index[table_key].get(_norm(attribute.key_value))
            if attribute.is_existence:
                values[attribute.index] = 1.0 if row is not None else 0.0
                if row is not None:
                    qualifier = row.get("__QUALIFIERS__", {})
                    key_name = attribute.table.key_column().name.upper()
                    probability = qualifier.get(key_name, {}).get(
                        "PROBABILITY")
                    if probability is not None:
                        confidences[attribute.index] = float(probability)
            elif row is not None:
                value = row.get(attribute.value_column.name.upper())
                if value is not None:
                    values[attribute.index] = float(value)
            continue
        column = attribute.column
        raw = case.scalars.get(column.name.upper())
        if column.model_existence_only:
            values[attribute.index] = attribute.encode(raw is not None)
        else:
            values[attribute.index] = attribute.encode(raw)
        qualifiers = case.qualifiers.get(column.name.upper(), {})
        probability = qualifiers.get("PROBABILITY")
        if probability is not None:
            confidences[attribute.index] = float(probability)

    sequences: Dict[str, List[Any]] = {}
    for table in self.definition.nested_tables():
        time_column = next(
            (c for c in table.nested_columns
             if c.sequence_time or
             c.attribute_type is AttributeType.SEQUENCE_TIME), None)
        if time_column is None:
            continue
        state_column = self.sequence_state_column(table)
        rows = case.tables.get(table.name.upper(), [])
        ordered = sorted(
            (row for row in rows
             if row.get(time_column.name.upper()) is not None),
            key=lambda row: row[time_column.name.upper()])
        sequences[table.name.upper()] = [
            row.get(state_column.name.upper()) for row in ordered]

    return Observation(values, weight=case.weight(),
                       confidences=confidences, case_key=case_key,
                       sequences=sequences)


def reference_naive_bayes_predict(self, observation: Observation) \
        -> CasePrediction:
    """``NaiveBayesAlgorithm.predict`` as it was: the formula, term by term,
    from the counts."""
    self.require_trained()
    result = CasePrediction()
    smoothing = float(self.param("SMOOTHING"))
    for target in self.space.outputs():
        model = self.models[target.index]
        states = list(model.prior.counts)
        if not states:
            result.set(self.marginal_prediction(target))
            continue
        log_scores = []
        for state in states:
            score = math.log(max(model.prior.probability(state), 1e-12))
            for attribute in self._inputs[target.index]:
                value = observation.values[attribute.index]
                if value is None:
                    continue
                key = (attribute.index, state)
                if attribute.is_categorical:
                    conditional = model.categorical.get(key)
                    if conditional is None:
                        conditional = CategoricalDistribution()
                    p = conditional.probability(
                        value, smoothing=smoothing,
                        cardinality=max(attribute.cardinality, 1))
                    score += math.log(max(p, 1e-12))
                else:
                    stats = model.gaussian.get(key)
                    if stats is None or stats.sum_weight <= 0:
                        continue
                    score += math.log(max(stats.pdf(value), 1e-300))
            log_scores.append(score)
        normaliser = log_sum_exp(log_scores)
        posterior = CategoricalDistribution()
        for state, score in zip(states, log_scores):
            posterior.add(state, math.exp(score - normaliser) *
                          model.prior.total)
        result.set(AttributePrediction.from_categorical(target,
                                                        posterior))
    return result


def reference_decision_tree_predict(self, observation: Observation) \
        -> CasePrediction:
    """``DecisionTreeAlgorithm.predict`` as it was: every case walks the tree
    recursively with a fractional weight and builds its own prediction."""
    self.require_trained()
    result = CasePrediction()
    for target in self.space.outputs():
        tree = self.trees.get(target.index)
        if tree is None:
            result.set(self.marginal_prediction(target))
            continue
        if target.is_categorical:
            merged = CategoricalDistribution()
            _collect_categorical(tree, observation, 1.0, merged)
            result.set(AttributePrediction.from_categorical(target,
                                                            merged))
        else:
            stats = _WeightedMoments()
            _collect_gaussian(tree, observation, 1.0, stats)
            result.set(stats.to_prediction(target))
    return result


def _walk(node: _TreeNode, observation: Observation, weight: float):
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
                yield from _walk(child, observation, share)
        return
    if node.threshold is not None:
        child = node.children[0] if value <= node.threshold \
            else node.children[1]
        yield from _walk(child, observation, weight)
        return
    for child, child_value in zip(node.children, node.child_values):
        if child_value == value:
            yield from _walk(child, observation, weight)
            return
    # Unseen category: fall back to this node's own distribution.
    yield node, weight


def _collect_categorical(tree, observation, weight, merged):
    for leaf, share in _walk(tree, observation, weight):
        if leaf.distribution is None or leaf.distribution.total <= 0:
            continue
        for value, count in leaf.distribution.counts.items():
            merged.add(value, share * count / leaf.distribution.total)


def _collect_gaussian(tree, observation, weight, stats):
    for leaf, share in _walk(tree, observation, weight):
        if leaf.stats is None or leaf.stats.sum_weight <= 0:
            continue
        stats.add(leaf.stats.mean, leaf.stats.variance,
                  leaf.stats.sum_weight, share)
