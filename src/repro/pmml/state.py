"""Lossless (de)serialization of attribute spaces and algorithm state.

The visible PMML body is for interchange and human inspection; this module
produces the JSON state blob embedded in the document's ``Extension``
element, from which :mod:`repro.pmml.reader` reconstructs a fully working
model without retraining.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.errors import Error
from repro.algorithms.attributes import Attribute, AttributeSpace
from repro.algorithms.discretization import Discretizer
from repro.algorithms.statistics import CategoricalDistribution, GaussianStats
from repro.core.columns import ModelDefinition


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def _categorical_to_json(distribution: CategoricalDistribution) -> dict:
    return {"type": "categorical",
            "counts": [[value, weight]
                       for value, weight in distribution.counts.items()],
            "total": distribution.total}


def _categorical_from_json(state: dict) -> CategoricalDistribution:
    distribution = CategoricalDistribution()
    distribution.counts = {_revive(value): weight
                           for value, weight in state["counts"]}
    distribution.total = state["total"]
    return distribution


def _revive(value: Any) -> Any:
    """JSON keys/values arrive as-is; nothing to fix beyond identity."""
    return value


def _gaussian_to_json(stats: GaussianStats) -> dict:
    return {"type": "gaussian", "sum_weight": stats.sum_weight,
            "mean": stats.mean, "m2": stats._m2,
            "min": stats.minimum, "max": stats.maximum}


def _gaussian_from_json(state: dict) -> GaussianStats:
    stats = GaussianStats()
    stats.sum_weight = state["sum_weight"]
    stats.mean = state["mean"]
    stats._m2 = state["m2"]
    stats.minimum = state["min"]
    stats.maximum = state["max"]
    return stats


def _stat_to_json(stat) -> dict:
    if isinstance(stat, CategoricalDistribution):
        return _categorical_to_json(stat)
    return _gaussian_to_json(stat)


def _stat_from_json(state: dict):
    if state["type"] == "categorical":
        return _categorical_from_json(state)
    return _gaussian_from_json(state)


# ---------------------------------------------------------------------------
# Attribute space
# ---------------------------------------------------------------------------

def space_to_json(space: AttributeSpace) -> dict:
    attributes = []
    for attribute in space.attributes:
        discretizer = None
        if attribute.discretizer is not None:
            d = attribute.discretizer
            discretizer = {"method": d.method, "buckets": d.buckets,
                           "edges": d.edges, "min": d.minimum,
                           "max": d.maximum}
        attributes.append({
            "name": attribute.name,
            "kind": attribute.kind,
            "is_input": attribute.is_input,
            "is_output": attribute.is_output,
            "column": attribute.column.name if attribute.column else None,
            "table": attribute.table.name if attribute.table else None,
            "key_value": attribute.key_value,
            "value_column": (attribute.value_column.name
                             if attribute.value_column else None),
            "categories": attribute.categories,
            "is_existence": attribute.is_existence,
            "discretizer": discretizer,
        })
    return {
        "case_count": space.case_count,
        "total_weight": space.total_weight,
        "maximum_states": space.maximum_states,
        "maximum_items": space.maximum_items,
        "relations": [[table, column, list(mapping.items())]
                      for (table, column), mapping in
                      space.relations.items()],
        "attributes": attributes,
        "marginals": [_stat_to_json(m) for m in space.marginals],
    }


def space_from_json(definition: ModelDefinition,
                    state: dict) -> AttributeSpace:
    space = AttributeSpace(definition)
    space.case_count = state["case_count"]
    space.total_weight = state["total_weight"]
    space.maximum_states = state["maximum_states"]
    space.maximum_items = state["maximum_items"]
    space.relations = {
        (table, column): {key: value for key, value in mapping}
        for table, column, mapping in state["relations"]}
    for entry in state["attributes"]:
        column = definition.find(entry["column"]) if entry["column"] else None
        table = definition.find(entry["table"]) if entry["table"] else None
        value_column = None
        if table is not None and entry["value_column"]:
            value_column = table.find_nested(entry["value_column"])
        discretizer = None
        if entry["discretizer"]:
            d = entry["discretizer"]
            discretizer = Discretizer(d["method"], d["buckets"],
                                      list(d["edges"]), d["min"], d["max"])
        categories = [_revive_category(c) for c in entry["categories"]]
        space._add(Attribute(
            len(space.attributes), entry["name"], entry["kind"],
            is_input=entry["is_input"], is_output=entry["is_output"],
            column=column, table=table, key_value=entry["key_value"],
            value_column=value_column, categories=categories,
            discretizer=discretizer, is_existence=entry["is_existence"]))
    space.marginals = [_stat_from_json(m) for m in state["marginals"]]
    return space


def _revive_category(value: Any) -> Any:
    return value


# ---------------------------------------------------------------------------
# Algorithm state (per service)
# ---------------------------------------------------------------------------

def algorithm_state_to_json(algorithm) -> dict:
    name = algorithm.SERVICE_NAME
    handler = _TO_JSON.get(name)
    if handler is None:
        raise Error(f"no PMML state serializer for service {name!r}")
    return {"service": name, **handler(algorithm)}


def algorithm_state_from_json(algorithm, space: AttributeSpace,
                              state: dict) -> None:
    handler = _FROM_JSON.get(algorithm.SERVICE_NAME)
    if handler is None:
        raise Error(f"no PMML state loader for service "
                    f"{algorithm.SERVICE_NAME!r}")
    algorithm.space = space
    handler(algorithm, space, state)
    algorithm.drop_tables()
    algorithm.trained = True


# -- decision tree ----------------------------------------------------------

def _tree_node_to_json(node) -> dict:
    return {
        "support": node.support,
        "depth": node.depth,
        "condition": node.condition,
        "threshold": node.threshold,
        "split": node.split_attribute.name if node.split_attribute else None,
        "child_values": node.child_values,
        "children": [_tree_node_to_json(c) for c in node.children],
        "distribution": (_categorical_to_json(node.distribution)
                         if node.distribution is not None else None),
        "stats": (_gaussian_to_json(node.stats)
                  if node.stats is not None else None),
    }


def _tree_node_from_json(state: dict, space: AttributeSpace):
    from repro.algorithms.decision_tree import _TreeNode
    node = _TreeNode(state["support"], state["depth"], state["condition"])
    node.threshold = state["threshold"]
    if state["split"]:
        node.split_attribute = space.by_name(state["split"])
    node.child_values = state["child_values"]
    node.children = [_tree_node_from_json(c, space)
                     for c in state["children"]]
    if state["distribution"] is not None:
        node.distribution = _categorical_from_json(state["distribution"])
    if state["stats"] is not None:
        node.stats = _gaussian_from_json(state["stats"])
    return node


def _trees_to_json(algorithm) -> dict:
    return {"trees": [
        [algorithm.space.attributes[index].name, _tree_node_to_json(tree)]
        for index, tree in sorted(algorithm.trees.items())]}


def _trees_from_json(algorithm, space, state) -> None:
    algorithm.trees = {}
    for target_name, tree_state in state["trees"]:
        target = space.by_name(target_name)
        algorithm.trees[target.index] = _tree_node_from_json(tree_state,
                                                             space)


# -- naive bayes --------------------------------------------------------------

def _bayes_to_json(algorithm) -> dict:
    models = []
    for target_index, model in sorted(algorithm.models.items()):
        target = algorithm.space.attributes[target_index]
        models.append({
            "target": target.name,
            "prior": _categorical_to_json(model.prior),
            "categorical": [
                [algorithm.space.attributes[input_index].name, state,
                 _categorical_to_json(distribution)]
                for (input_index, state), distribution in
                model.categorical.items()],
            "gaussian": [
                [algorithm.space.attributes[input_index].name, state,
                 _gaussian_to_json(stats)]
                for (input_index, state), stats in model.gaussian.items()],
        })
    return {"models": models}


def _bayes_from_json(algorithm, space, state) -> None:
    from repro.algorithms.naive_bayes import _TargetModel
    algorithm.models = {}
    algorithm._inputs = {}
    for entry in state["models"]:
        target = space.by_name(entry["target"])
        model = _TargetModel()
        model.prior = _categorical_from_json(entry["prior"])
        for name, value_state, distribution in entry["categorical"]:
            model.categorical[(space.by_name(name).index, value_state)] = \
                _categorical_from_json(distribution)
        for name, value_state, stats in entry["gaussian"]:
            model.gaussian[(space.by_name(name).index, value_state)] = \
                _gaussian_from_json(stats)
        algorithm.models[target.index] = model
        algorithm._inputs[target.index] = [
            a for a in space.inputs() if a.index != target.index]


# -- EM clustering ---------------------------------------------------------------

def _em_to_json(algorithm) -> dict:
    return {
        "cluster_count": algorithm.cluster_count,
        "weights": algorithm.weights.tolist(),
        "cluster_support": algorithm.cluster_support.tolist(),
        "means": algorithm.means.tolist() if algorithm.means is not None
        else None,
        "variances": (algorithm.variances.tolist()
                      if algorithm.variances is not None else None),
        "categorical": {str(k): v.tolist()
                        for k, v in algorithm.categorical.items()},
        "continuous_names": [a.name for a in algorithm._continuous],
        "categorical_names": [a.name for a in algorithm._categorical],
    }


def _em_from_json(algorithm, space, state) -> None:
    algorithm.cluster_count = state["cluster_count"]
    algorithm.weights = np.array(state["weights"])
    algorithm.cluster_support = np.array(state["cluster_support"])
    algorithm.means = (np.array(state["means"])
                       if state["means"] is not None else None)
    algorithm.variances = (np.array(state["variances"])
                           if state["variances"] is not None else None)
    algorithm.categorical = {int(k): np.array(v)
                             for k, v in state["categorical"].items()}
    algorithm._continuous = [space.by_name(n)
                             for n in state["continuous_names"]]
    algorithm._categorical = [space.by_name(n)
                              for n in state["categorical_names"]]


# -- k-means ------------------------------------------------------------------------

def _kmeans_to_json(algorithm) -> dict:
    return {
        "cluster_count": algorithm.cluster_count,
        "centroids": algorithm.centroids.tolist(),
        "cluster_support": algorithm.cluster_support.tolist(),
        "scale_mean": algorithm._scale_mean.tolist(),
        "scale_std": algorithm._scale_std.tolist(),
        "per_cluster": [
            {str(index): _stat_to_json(stat)
             for index, stat in stats.items()}
            for stats in algorithm._per_cluster_stats],
    }


def _kmeans_from_json(algorithm, space, state) -> None:
    algorithm.cluster_count = state["cluster_count"]
    algorithm.centroids = np.array(state["centroids"])
    algorithm.cluster_support = np.array(state["cluster_support"])
    algorithm._scale_mean = np.array(state["scale_mean"])
    algorithm._scale_std = np.array(state["scale_std"])
    algorithm._build_plan(space)
    algorithm._per_cluster_stats = [
        {int(index): _stat_from_json(stat)
         for index, stat in stats.items()}
        for stats in state["per_cluster"]]


# -- association rules -----------------------------------------------------------------

def _association_to_json(algorithm) -> dict:
    by_index = {a.index: a.name for a in algorithm.items}
    return {
        "table": algorithm._table_name,
        "case_total": algorithm.case_total,
        "items": [a.name for a in algorithm.items],
        "itemsets": [[sorted(by_index[i] for i in itemset), support]
                     for itemset, support in algorithm.itemsets.items()],
        "rules": [[sorted(by_index[i] for i in rule.left),
                   by_index[rule.right], rule.support, rule.confidence,
                   rule.lift]
                  for rule in algorithm.rules],
    }


def _association_from_json(algorithm, space, state) -> None:
    from repro.algorithms.association import AssociationRule
    algorithm._table_name = state["table"]
    algorithm.case_total = state["case_total"]
    algorithm.items = [space.by_name(n) for n in state["items"]]
    name_to_index = {a.name: a.index for a in algorithm.items}
    algorithm.itemsets = {
        frozenset(name_to_index[n] for n in names): support
        for names, support in state["itemsets"]}
    algorithm.rules = [
        AssociationRule(frozenset(name_to_index[n] for n in left),
                        name_to_index[right], support, confidence, lift)
        for left, right, support, confidence, lift in state["rules"]]


# -- linear regression --------------------------------------------------------------------

def _regression_to_json(algorithm) -> dict:
    models = []
    for target_index, model in sorted(algorithm.models.items()):
        target = algorithm.space.attributes[target_index]
        models.append({
            "target": target.name,
            "coefficients": model.coefficients.tolist(),
            "residual_variance": model.residual_variance,
            "support": model.support,
            "r_squared": model.r_squared,
            "feature_means":
                algorithm._feature_means[target_index].tolist(),
        })
    return {"models": models}


def _regression_from_json(algorithm, space, state) -> None:
    from repro.algorithms.linear_regression import _RegressionModel
    algorithm.models = {}
    algorithm._plans = {}
    algorithm._feature_means = {}
    for entry in state["models"]:
        target = space.by_name(entry["target"])
        algorithm.models[target.index] = _RegressionModel(
            np.array(entry["coefficients"]), entry["residual_variance"],
            entry["support"], entry["r_squared"])
        algorithm._plans[target.index] = algorithm._plan_for(space, target)
        algorithm._feature_means[target.index] = \
            np.array(entry["feature_means"])


# -- logistic regression --------------------------------------------------------------------

def _logistic_to_json(algorithm) -> dict:
    models = []
    for target_index, model in sorted(algorithm.models.items()):
        target = algorithm.space.attributes[target_index]
        models.append({
            "target": target.name,
            "weights": model.weights.tolist(),
            "feature_means": model.feature_means.tolist(),
            "support": model.support,
            "log_loss": model.log_loss,
        })
    return {"models": models}


def _logistic_from_json(algorithm, space, state) -> None:
    from repro.algorithms.logistic_regression import _LogisticModel
    algorithm.models = {}
    algorithm._plans = {}
    for entry in state["models"]:
        target = space.by_name(entry["target"])
        algorithm.models[target.index] = _LogisticModel(
            np.array(entry["weights"]), np.array(entry["feature_means"]),
            entry["support"], entry["log_loss"])
        algorithm._plans[target.index] = algorithm._plan_for(space, target)


# -- sequence clustering ----------------------------------------------------------------------

def _sequence_to_json(algorithm) -> dict:
    return {
        "table": algorithm._table_name,
        "states": algorithm.states,
        "cluster_count": algorithm.cluster_count,
        "mixture": algorithm.mixture.tolist(),
        "initial": algorithm.initial.tolist(),
        "transition": algorithm.transition.tolist(),
        "cluster_support": algorithm.cluster_support.tolist(),
    }


def _sequence_from_json(algorithm, space, state) -> None:
    algorithm._table_name = state["table"]
    algorithm.states = state["states"]
    algorithm._state_index = {s: i for i, s in enumerate(algorithm.states)}
    algorithm.cluster_count = state["cluster_count"]
    algorithm.mixture = np.array(state["mixture"])
    algorithm.initial = np.array(state["initial"])
    algorithm.transition = np.array(state["transition"])
    algorithm.cluster_support = np.array(state["cluster_support"])


_TO_JSON = {
    "Repro_Decision_Trees": _trees_to_json,
    "Repro_Naive_Bayes": _bayes_to_json,
    "Repro_Clustering": _em_to_json,
    "Repro_KMeans": _kmeans_to_json,
    "Repro_Association_Rules": _association_to_json,
    "Repro_Linear_Regression": _regression_to_json,
    "Repro_Logistic_Regression": _logistic_to_json,
    "Repro_Sequence_Clustering": _sequence_to_json,
}

_FROM_JSON = {
    "Repro_Decision_Trees": _trees_from_json,
    "Repro_Naive_Bayes": _bayes_from_json,
    "Repro_Clustering": _em_from_json,
    "Repro_KMeans": _kmeans_from_json,
    "Repro_Association_Rules": _association_from_json,
    "Repro_Linear_Regression": _regression_from_json,
    "Repro_Logistic_Regression": _logistic_from_json,
    "Repro_Sequence_Clustering": _sequence_from_json,
}
