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

from collections import defaultdict
from itertools import chain, compress
from typing import Dict, List, Optional

import numpy as np

from repro.obs import workload as obs_workload
from repro.algorithms.attributes import (
    Attribute,
    AttributeSpace,
    CaseMatrix,
    Observation,
)
from repro.algorithms.base import (
    AttributePrediction,
    CasePrediction,
    MiningAlgorithm,
)
from repro.algorithms.statistics import (
    CategoricalDistribution,
    GaussianStats,
    count_into,
    entropy_bits,
    first_seen,
    gini_impurity,
)
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

    def to_json(self) -> dict:
        return {
            "support": self.support,
            "depth": self.depth,
            "condition": self.condition,
            "threshold": self.threshold,
            "split": self.split_attribute.name
            if self.split_attribute else None,
            "child_values": self.child_values,
            "children": [child.to_json() for child in self.children],
            "distribution": self.distribution.to_json()
            if self.distribution is not None else None,
            "stats": self.stats.to_json() if self.stats is not None else None,
        }

    @classmethod
    def from_json(cls, state: dict, space: AttributeSpace) -> "_TreeNode":
        node = cls(state["support"], state["depth"], state["condition"])
        node.threshold = state["threshold"]
        if state["split"]:
            node.split_attribute = space.by_name(state["split"])
        node.child_values = state["child_values"]
        node.children = [cls.from_json(child, space)
                         for child in state["children"]]
        if state["distribution"] is not None:
            node.distribution = CategoricalDistribution.from_json(
                state["distribution"])
        if state["stats"] is not None:
            node.stats = GaussianStats.from_json(state["stats"])
        return node


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
        matrix = CaseMatrix.of(observations, len(space.attributes))
        # Growth can be cancelled at any level: the trees a refit replaces
        # stay until every target's tree has finished.
        trees: Dict[int, _TreeNode] = {}
        for target in space.outputs():
            inputs = [a for a in space.inputs()
                      if a.index != target.index and
                      not self._same_nested_item(a, target)]
            rows, _ = matrix.known(target.index)
            weights = matrix.effective_weights(target.index)[rows]
            trees[target.index] = _Growth(
                self, matrix, target, inputs).grow(rows, weights)
        self.trees = trees

    def state(self) -> dict:
        return {"trees": [[self.space.attributes[index].name, tree.to_json()]
                          for index, tree in sorted(self.trees.items())]}

    def load_state(self, space: AttributeSpace, state: dict) -> None:
        self.trees = {space.by_name(name).index: _TreeNode.from_json(tree,
                                                                     space)
                      for name, tree in state["trees"]}

    @staticmethod
    def _same_nested_item(a: Attribute, b: Attribute) -> bool:
        """Existence and its per-item value attribute must not predict
        each other (they are two facets of the same nested row)."""
        return (a.table is not None and b.table is not None and
                a.table is b.table and a.key_value == b.key_value)

    # -- prediction -----------------------------------------------------------

    def _build_tables(self):
        """``(targets, shared)``: every output attribute with its tree and
        the tree's :class:`_FlatTree` (None for both when it has none), and
        ``node -> the prediction of a case that ends in it``, filled as
        nodes are reached — every case routed whole to one node shares
        that node's prediction."""
        trees = [(target, self.trees.get(target.index))
                 for target in self.space.outputs()]
        return [(target, tree, tree and _FlatTree(tree))
                for target, tree in trees], {}

    def predict(self, observation: Observation) -> CasePrediction:
        self.require_trained()
        result = CasePrediction()
        values = observation.values
        targets, shared = self.prediction_tables()
        for target, tree, _ in targets:
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
                prediction = self._whole(shared, target, node)
            result.set(prediction)
        return result

    def _whole(self, shared, target: Attribute,
               node: _TreeNode) -> AttributePrediction:
        """The prediction every case that ends whole in ``node`` shares."""
        prediction = shared.get(node)
        if prediction is None:
            prediction = shared[node] = self._mixture(target, [(node, 1.0)])
        return prediction

    def predict_many(self, observations, reads=None):
        """:meth:`predict` over a batch, from its :class:`CaseMatrix`: the
        batch is routed down each target's tree (:meth:`_FlatTree.route`),
        and all the cases that end whole in the same node of every tree
        share one :class:`CasePrediction` — a batch allocates per leaf, not
        per case.  A case missing a split value somewhere is scored by
        :meth:`predict` (the fractional walk); so is every case while some
        target has no tree (or there is no target to key a batch by)."""
        self.require_trained()
        targets, shared = self.prediction_tables()
        if not targets or any(tree is None for _, tree, _ in targets):
            yield from map(self.predict, observations)
            return
        values = CaseMatrix.of(observations, len(self.space.attributes)).values
        ends = [flat.route(values).tolist() for _, _, flat in targets]
        whole = {}   # end numbers, one per target -> the shared prediction
        for row, key in enumerate(zip(*ends)):
            if -1 in key:
                yield self.predict(observations[row])
                continue
            result = whole.get(key)
            if result is None:
                result = whole[key] = CasePrediction()
                for (target, _, flat), number in zip(targets, key):
                    result.set(self._whole(shared, target,
                                           flat.nodes[number]))
            yield result

    def predict_values(self, observations, attributes):
        """:meth:`predict`'s value of each attribute over a batch without
        a prediction object: a target with a tree is routed
        (:meth:`_FlatTree.route`) and each node a case ends in gives its
        value once; any other attribute has the marginals' value.  A case
        missing a split value is taken from :meth:`predict`."""
        self.require_trained()
        targets, shared = self.prediction_tables()
        wanted = {attribute.index for attribute in attributes}
        values = CaseMatrix.of(observations, len(self.space.attributes)).values
        walked, columns = np.zeros(len(values), dtype=bool), {}
        for target, _, flat in targets:
            if flat is None or target.index not in wanted:
                continue
            ends = flat.route(values)
            walked |= ends < 0
            ends = ends.tolist()
            ended = {number: self._whole(shared, target,
                                         flat.nodes[number]).value
                     for number in set(ends) - {-1}}
            columns[target.index] = list(map(ended.get, ends))
        return self._completed(observations, attributes, columns, walked)

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


class _FlatTree:
    """A grown tree as arrays, for routing a batch: the nodes numbered
    level by level, and per node its split attribute (-1 at a leaf), its
    threshold (NaN at a categorical split), its first child's number
    (children are numbered consecutively) and, for a categorical split,
    its span of ``children``: the child number per category code, the
    node's own number for a code no child has."""

    __slots__ = ("nodes", "split", "threshold", "first", "base", "size",
                 "children")

    def __init__(self, tree: _TreeNode):
        self.nodes = nodes = [tree]
        for node in nodes:   # grows as it is walked: level by level
            nodes += node.children
        self.split = np.array([node.split_attribute.index if node.children
                               else -1 for node in nodes], dtype=np.intp)
        self.threshold = np.array([np.nan if node.threshold is None
                                   else node.threshold for node in nodes])
        self.first = np.cumsum([1] + [len(node.children)
                                      for node in nodes[:-1]])
        spans = []
        for number, (node, first) in enumerate(zip(nodes,
                                                   self.first.tolist())):
            codes = [] if node.threshold is not None else \
                list(map(int, node.child_values))
            spans.append([number] * (max(codes, default=-1) + 1))
            for position, code in enumerate(codes):
                spans[-1][code] = first + position
        self.size = np.array(list(map(len, spans)), dtype=np.intp)
        self.base = np.cumsum([0] + self.size.tolist())[:-1]
        self.children = np.array(list(chain.from_iterable(spans)) + [0],
                                 dtype=np.intp)

    def route(self, values: np.ndarray) -> np.ndarray:
        """Per case (a row of the encoded ``values``), the number of the
        node it ends in whole, or -1 where a split value it reaches is
        missing.  One set of array operations per depth: every case still
        descending reads its node's split column, goes below or above a
        threshold, or looks its code up in the node's span of
        ``children``; a code outside it, or no integer, ends the case in
        that node."""
        ends = np.zeros(len(values), dtype=np.intp)
        rows = np.arange(len(values))
        while len(rows):
            at = ends[rows]
            inner = self.split[at] >= 0
            rows, at = rows[inner], at[inner]
            value = values[rows, self.split[at]]
            threshold = self.threshold[at]
            coded = (value >= 0) & (value < self.size[at]) & \
                (value == np.floor(value))
            looked = self.children[self.base[at] + np.where(
                coded, value, 0).astype(np.intp)]
            child = np.where(np.isnan(threshold),
                             np.where(coded, looked, at),
                             self.first[at] + (value > threshold))
            child[np.isnan(value)] = -1
            ends[rows] = child
            rows = rows[child > at]   # a child's number exceeds its parent's
        return ends


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


class _Growth:
    """Growing one target's tree from the case matrix, a level at a time.

    A level's population is three parallel arrays, node-major: ``rows``
    (row numbers into the matrix), ``weights`` (the rows' weights in their
    node) and ``owner`` (the node's place in the level).  Within a node the
    rows are in the order the per-case trainer would hold its
    ``(observation, weight)`` pairs (case order; value order below a
    threshold split; fractionally routed cases appended), and every
    statistic is accumulated in that order, so the grown tree equals the
    per-case trainer's bit for bit (``tests/reference/
    reference_trainers.py``): supports, class counts and child weights are
    ``bincount`` sums, which add in array order (one contingency table per
    level covers every node's categorical candidate splits), impurities
    read each child's counts in its first-seen order of classes, and
    Welford statistics are fed value by value.  A node still picks its own
    split (:meth:`_best_split`: scalar gains, in input order) and scores
    its own continuous candidates (:meth:`_continuous_split`).
    """

    def __init__(self, algorithm: DecisionTreeAlgorithm, matrix: CaseMatrix,
                 target: Attribute, inputs: List[Attribute]):
        self.matrix, self.target, self.inputs = matrix, target, inputs
        self.maximum_depth = int(algorithm.param("MAXIMUM_DEPTH"))
        self.minimum_support = float(algorithm.param("MINIMUM_SUPPORT"))
        self.penalty = float(algorithm.param("COMPLEXITY_PENALTY"))
        self.gini = algorithm.param("SCORE_METHOD").upper() == "GINI"
        column = matrix.values[:, target.index]
        # Rows without a target value never enter a population.
        if target.is_categorical:
            self.classes = np.nan_to_num(column).astype(np.intp)
            self.class_count = int(self.classes.max(initial=0)) + 1
        else:
            self.classes = column
        # The candidate children of every categorical split: a child is
        # (input, code), an input's children are adjacent — those of
        # ``categorical[i]`` start at ``bases[i]`` — and ``numbers`` holds,
        # per case and input, the child the case falls in; a missing value
        # falls in its input's slot past ``bases[-1]``, which is counted
        # and never a candidate.
        self.categorical = [a for a in inputs if a.is_categorical]
        bases = np.cumsum([0] + [max(a.cardinality, 1)
                                 for a in self.categorical])
        codes = matrix.values[:, [a.index for a in self.categorical]]
        self.numbers = np.where(
            np.isnan(codes), bases[-1] + np.arange(len(self.categorical)),
            codes + bases[:-1]).astype(np.intp)
        self.bases = bases.tolist()
        # A split has a cut below each child but the first (_next_level).
        self.most_cuts = max([1] + (np.diff(bases) - 1).tolist())

    def grow(self, rows: np.ndarray, weights: np.ndarray) -> _TreeNode:
        """The tree over the population ``(rows, weights)``.  A level is
        ``[(node, the inputs left to it)]``; a CANCEL stops growth at the
        next level."""
        root = _TreeNode(0.0, 0, "All")
        level = [(root, self.inputs)]
        owner = np.zeros(len(rows), dtype=np.intp)
        while level:
            obs_workload.checkpoint()
            bounds = np.searchsorted(owner, np.arange(len(level) + 1)).tolist()
            # astype: an empty population's bincount is int64 zeros.
            supports = np.bincount(owner, weights, minlength=len(level))
            for (node, _), support in zip(level,
                                          supports.astype(float).tolist()):
                node.support = support
            self._summarise(level, bounds, owner, rows, weights)
            searched = [number for number, (node, _) in enumerate(level)
                        if node.depth < self.maximum_depth and
                        node.support >= 2 * self.minimum_support and
                        (node.distribution is None or
                         len(node.distribution) > 1)]
            splits = []
            for number, categorical in zip(searched, self._categorical_splits(
                    level, searched, owner, rows, weights)):
                start, end = bounds[number], bounds[number + 1]
                best = self._best_split(*level[number], rows[start:end],
                                        weights[start:end], categorical)
                if best is not None:
                    splits.append((number, best))
            level, rows, weights, owner = self._next_level(
                level, splits, owner, rows, weights)
        return root

    def _summarise(self, level, bounds, owner, rows, weights) -> None:
        """Every node's target distribution (one ``count_into`` for the
        level) or Welford statistics."""
        if self.target.is_categorical:
            distributions = {number: CategoricalDistribution()
                             for number in range(len(level))}
            count_into(distributions, owner, self.classes[rows], weights,
                       lambda _, code: self.target.state_key(code))
            for (node, _), distribution in zip(level, distributions.values()):
                node.distribution = distribution
            return
        values, shares = self.classes[rows].tolist(), weights.tolist()
        for (node, _), start, end in zip(level, bounds, bounds[1:]):
            node.stats = GaussianStats()
            node.stats.add_many(values[start:end], shares[start:end])

    # -- impurity -------------------------------------------------------------

    def _group_impurities(self, groups: np.ndarray, classes: np.ndarray,
                          weights: np.ndarray, totals: List[float]):
        """``impurity(group)``: the target impurity of one of the groups a
        population is split into (``groups`` and ``classes``: a group
        number and a target value per row; ``totals``: each group's
        weights added in population order), accumulated in population
        order; 0.0 for a group no positive weight reaches.  Only the
        groups asked for are scored."""
        if not self.target.is_categorical:
            statistics: Dict[int, GaussianStats] = defaultdict(GaussianStats)
            for group, value, weight in zip(
                    groups.tolist(), classes.tolist(), weights.tolist()):
                statistics[group].add(value, weight)
            return lambda group: statistics[group].variance
        count, positive = len(totals), weights > 0
        if not positive.all():
            groups, classes, weights = \
                groups[positive], classes[positive], weights[positive]
            totals = np.bincount(groups, weights, minlength=count).tolist()
        # The contingency table, read in each group's first-seen order of
        # classes (the order a distribution filled case by case iterates),
        # a group's cells side by side.
        cells = groups * self.class_count + classes
        order = first_seen(cells, count * self.class_count)
        order = order[np.argsort(order // self.class_count, kind="stable")]
        counts = np.bincount(cells, weights, minlength=count *
                             self.class_count)[order].tolist()
        bounds = np.searchsorted(order // self.class_count,
                                 np.arange(count + 1)).tolist()
        impurity = gini_impurity if self.gini else entropy_bits
        return lambda group: impurity(
            counts[bounds[group]:bounds[group + 1]], totals[group])

    # -- split search ---------------------------------------------------------

    def _categorical_splits(self, level, searched: List[int],
                            owner: np.ndarray, rows: np.ndarray,
                            weights: np.ndarray) -> List[dict]:
        """Per searched node, every categorical input left to it that
        splits it at all: ``{attribute index: (None, child codes, child
        weights, child impurities)}``, all from one contingency table over
        (node, candidate child, class) cells — one cell per row and input,
        row-major, so each cell adds in population order."""
        if not searched or not self.categorical:
            return [{} for _ in searched]
        rank = np.full(len(level), -1, dtype=np.intp)
        rank[searched] = np.arange(len(searched))
        taken = rank[owner] >= 0
        rows, weights, rank = rows[taken], weights[taken], rank[owner[taken]]
        inputs, bases = len(self.categorical), self.bases
        size = bases[-1] + inputs       # candidate children, missing slots
        groups = ((rank * size)[:, None] + self.numbers[rows]).ravel()
        weights = np.repeat(weights, inputs)
        members = np.bincount(groups, minlength=len(searched) * size)
        child_weights = np.bincount(groups, weights,
                                    minlength=len(searched) * size)
        # A split needs two children of MINIMUM_SUPPORT, of an input left.
        supported = (members > 0) & (child_weights >= self.minimum_support)
        supported = np.add.reduceat(supported.reshape(
            len(searched), size)[:, :bases[-1]].astype(np.intp),
            bases[:-1], axis=1) >= 2
        supported &= [list(map(level[number][1].__contains__,
                               self.categorical)) for number in searched]
        members, child_weights = members.tolist(), child_weights.tolist()
        impurity = self._group_impurities(
            groups, np.repeat(self.classes[rows], inputs), weights,
            child_weights)
        splits = [{} for _ in searched]
        for node, column in np.argwhere(supported).tolist():
            start, end = (node * size + bases[column],
                          node * size + bases[column + 1])
            present = list(compress(range(start, end), members[start:end]))
            splits[node][self.categorical[column].index] = (
                None, [child - start for child in present],
                [child_weights[child] for child in present],
                list(map(impurity, present)))
        return splits

    def _best_split(self, node: _TreeNode, inputs: List[Attribute],
                    rows: np.ndarray, weights: np.ndarray, categorical: dict):
        """``(attribute, threshold, child codes, child weights)`` of the
        split of one node with the largest penalised gain, or None;
        ``categorical`` is the node's share of the level's table."""
        total = node.support
        if total <= 0:
            return None
        parent_impurity = node.stats.variance if node.stats is not None \
            else node.distribution.gini() if self.gini \
            else node.distribution.entropy()
        best_gain = 0.0
        best = None
        for attribute in inputs:
            if attribute.is_categorical:
                split = categorical.get(attribute.index)
            else:
                split = self._continuous_split(attribute, rows, weights)
            if split is None:
                continue
            threshold, values, child_weights, impurities = split
            known = 0.0
            for weight in child_weights:
                known += weight
            if known <= 0:
                continue
            child_impurity = 0.0
            for weight, impurity in zip(child_weights, impurities):
                child_impurity += (weight / known) * impurity
            gain = (parent_impurity - child_impurity) * (known / total)
            gain -= self.penalty * (len(values) - 1) / max(total, 1.0)
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = (attribute, threshold, values, child_weights)
        return best

    def _continuous_split(self, attribute: Attribute, rows: np.ndarray,
                          weights: np.ndarray):
        """The best binary threshold split of one population on a
        continuous input: ``(threshold, [None, None], child weights, child
        impurities)``, or None.  Candidates are judged, as the children
        are later filled, in value order."""
        column = self.matrix.values[rows, attribute.index]
        known = np.flatnonzero(~np.isnan(column))
        known = known[np.argsort(column[known], kind="stable")]
        values = column[known]
        distinct = np.unique(values).tolist()
        if len(distinct) < 2:
            return None
        if len(distinct) > _MAX_THRESHOLD_CANDIDATES:
            step = len(distinct) / _MAX_THRESHOLD_CANDIDATES
            candidates = [distinct[int(i * step)]
                          for i in range(1, _MAX_THRESHOLD_CANDIDATES)]
        else:
            candidates = [(distinct[i] + distinct[i + 1]) / 2.0
                          for i in range(len(distinct) - 1)]

        classes, weights = self.classes[rows[known]], weights[known]
        best = best_impurity = None
        for threshold in candidates:
            side = (values > threshold).astype(np.intp)
            low_weight, high_weight = np.bincount(
                side, weights, minlength=2).tolist()
            if low_weight < self.minimum_support or \
                    high_weight < self.minimum_support:
                continue
            impurity = self._group_impurities(
                side, classes, weights, [low_weight, high_weight])
            total = low_weight + high_weight
            low, high = impurity(0), impurity(1)
            impurity = low_weight / total * low + high_weight / total * high
            if best_impurity is None or impurity < best_impurity - 1e-12:
                best_impurity = impurity
                best = (threshold, [None, None], [low_weight, high_weight],
                        [low, high])
        return best

    # -- the next level -------------------------------------------------------

    def _next_level(self, level, splits, owner: np.ndarray, rows: np.ndarray,
                    weights: np.ndarray):
        """``(level, rows, weights, owner)`` of the split nodes' children.
        A child holds its parent's rows of its code, or of its side of the
        threshold in value order, then every row of the parent missing the
        split value, with the share of its weight the child's weight earns
        (``weight * child weight / the children's total``, appended in
        population order) — one stable sort by (child, value) lays it out.
        A row's child is the number of its node's cuts below its value: the
        threshold, or halfway below each code after the first."""
        following, child_weights = [], []
        count, column = np.zeros((2, len(level)), dtype=np.intp)
        cuts = np.full((len(level), self.most_cuts), np.inf)
        for number, (attribute, threshold, values, weights_of) in splits:
            node, inputs = level[number]
            node.split_attribute, node.threshold = attribute, threshold
            if threshold is None:
                inputs = [a for a in inputs if a is not attribute]
                labels = [f"{attribute.name} = {attribute.decode(value)!r}"
                          for value in values]
                node.child_values = [attribute.state_key(value)
                                     for value in values]
                cuts[number, :len(values) - 1] = np.array(values[1:]) - 0.5
            else:
                labels = [f"{attribute.name} <= {threshold:g}",
                          f"{attribute.name} > {threshold:g}"]
                node.child_values = [None, None]  # the threshold decides
                cuts[number, 0] = threshold
            node.children = [_TreeNode(0.0, node.depth + 1, label)
                             for label in labels]
            following += [(child, inputs) for child in node.children]
            count[number], column[number] = len(labels), attribute.index
            child_weights += weights_of
        first = np.cumsum(count) - count
        # The children's total, added left to right (> 0: the split was
        # chosen for it).
        total = np.bincount(np.repeat(np.arange(len(level)), count),
                            child_weights, minlength=len(level))
        value = self.matrix.values[rows, column[owner]]
        known = ~np.isnan(value)
        # A row goes to its child, a row missing the split value to every
        # child of its node, a row of a node that did not split nowhere.
        spread = np.where(known, 1, count[owner]) * (count[owner] > 0)
        entry = np.repeat(np.arange(len(rows)), spread)
        rows, weights, owner, value, known = (
            array[entry] for array in (rows, weights, owner, value, known))
        child = first[owner] + np.where(
            known, sum(cuts[owner].T < value),
            np.arange(len(entry)) - np.repeat(np.cumsum(spread) - spread,
                                              spread))
        weights = np.where(known, weights, weights * np.array(
            child_weights)[child] / total[owner])
        kept = known | (weights > 0)
        order = np.lexsort((np.where(known, value, np.inf)[kept], child[kept]))
        return following, rows[kept][order], weights[kept][order], \
            child[kept][order]


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
