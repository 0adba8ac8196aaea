"""Naive Bayes mining service.

Predicts categorical targets from conditional independence: categorical
inputs contribute multinomial likelihoods with Laplace smoothing, continuous
inputs contribute Gaussian likelihoods fitted per target state.  Missing
inputs simply drop out of the product — which again is what lets a
PREDICTION JOIN present partial cases.

Continuous *targets* are out of scope for this service (the provider's
MINING_SERVICES rowset advertises ``PREDICTS_CONTINUOUS = False`` and the
training call fails fast), demonstrating how OLE DB DM surfaces per-service
capability limits.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import CapabilityError
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
    first_seen,
    log_sum_exp,
)
from repro.core.content import (
    NODE_DISTRIBUTION,
    NODE_MODEL,
    NODE_PREDICTABLE,
    ContentNode,
    DistributionRow,
)

#: A predicted value is a row's arg-max state when its top log score beats
#: the second by more than this, and the prior total per state exceeds
#: ``_SAFE_TOTAL`` (see :meth:`NaiveBayesAlgorithm._values_of`).
_MARGIN = 1e-9
_SAFE_TOTAL = 1e-300


class _TargetModel:
    """Per-target conditional statistics."""

    def __init__(self):
        self.prior = CategoricalDistribution()
        # (input_index, state) -> CategoricalDistribution of input values
        self.categorical: Dict[Tuple[int, float], CategoricalDistribution] = {}
        # (input_index, state) -> GaussianStats of input values
        self.gaussian: Dict[Tuple[int, float], GaussianStats] = {}


class NaiveBayesAlgorithm(MiningAlgorithm):
    """Multinomial/Gaussian naive Bayes over the attribute space."""

    SERVICE_NAME = "Repro_Naive_Bayes"
    DISPLAY_NAME = "Naive Bayes (reproduction)"
    ALIASES = ("Microsoft_Naive_Bayes", "Naive_Bayes")
    SERVICE_TYPE_ID = 2
    PREDICTS_DISCRETE = True
    PREDICTS_CONTINUOUS = False
    SUPPORTS_INCREMENTAL = True  # counts are additive (section 2's
    # "support for incremental model maintenance" capability)
    SUPPORTED_PARAMETERS = {
        "SMOOTHING": 1.0,          # Laplace pseudo-count
        "MINIMUM_DEPENDENCY_PROBABILITY": 0.0,
    }

    def __init__(self, parameters=None):
        super().__init__(parameters)
        self.models: Dict[int, _TargetModel] = {}
        self._inputs: Dict[int, List[Attribute]] = {}

    def _train(self, space: AttributeSpace,
               observations: List[Observation]) -> None:
        continuous_targets = [a.name for a in space.outputs()
                              if not a.is_categorical]
        if continuous_targets:
            raise CapabilityError(
                f"{self.SERVICE_NAME} cannot predict continuous "
                f"attribute(s): {', '.join(continuous_targets)} "
                f"(declare them DISCRETIZED, or use a tree/regression "
                f"service)")
        self.models = {}
        self._inputs = {}
        for target in space.outputs():
            self._inputs[target.index] = [
                a for a in space.inputs() if a.index != target.index]
            self.models[target.index] = _TargetModel()
        self._count(space, observations)

    def state(self) -> dict:
        name = [a.name for a in self.space.attributes]
        return {"models": [{
            "target": name[target],
            "prior": model.prior.to_json(),
            "categorical": [[name[index], value, distribution.to_json()]
                            for (index, value), distribution in
                            model.categorical.items()],
            "gaussian": [[name[index], value, stats.to_json()]
                         for (index, value), stats in model.gaussian.items()],
        } for target, model in sorted(self.models.items())]}

    def load_state(self, space: AttributeSpace, state: dict) -> None:
        self.models = {}
        self._inputs = {}
        for entry in state["models"]:
            target = space.by_name(entry["target"])
            model = self.models[target.index] = _TargetModel()
            model.prior = CategoricalDistribution.from_json(entry["prior"])
            for name, value, distribution in entry["categorical"]:
                model.categorical[(space.by_name(name).index, value)] = \
                    CategoricalDistribution.from_json(distribution)
            for name, value, stats in entry["gaussian"]:
                model.gaussian[(space.by_name(name).index, value)] = \
                    GaussianStats.from_json(stats)
            self._inputs[target.index] = [
                a for a in space.inputs() if a.index != target.index]

    def partial_train(self, observations: List[Observation]) -> None:
        """Fold new observations into the counts (exactly equivalent to a
        full retrain over the union, because every statistic is a sum)."""
        self.require_trained()
        self.drop_tables()
        self._count(self.space, observations)

    def _count(self, space: AttributeSpace,
               observations: List[Observation]) -> None:
        """Add the observations to every target's statistics.  What a pass
        over the cases (outer) and the inputs (inner) would leave: the
        conditionals appear in the order that pass first meets their
        ``(input, state)``, every count is summed in case order, and an
        already-filled model continues from its counts."""
        matrix = CaseMatrix.of(observations, len(space.attributes))
        for target_index, model in self.models.items():
            target = space.attributes[target_index]
            inputs = self._inputs[target_index]
            rows, states = matrix.known(target_index)
            states = states.astype(np.intp)
            weights = matrix.effective_weights(target_index)[rows]
            model.prior.add_codes(states, weights, target.state_key)
            if not inputs or not len(rows):
                continue
            values = matrix.values[rows[:, None],
                                   [a.index for a in inputs]]
            known = ~np.isnan(values)
            row_of, input_of = np.nonzero(known)  # case order, row-major
            values = values[known]
            weights = weights[row_of]
            width = int(states.max()) + 1
            groups = input_of * width + states[row_of]  # (input, state)
            distributions, gaussians = {}, {}
            for group in first_seen(groups, len(inputs) * width).tolist():
                position, state = divmod(group, width)
                attribute = inputs[position]
                key = (attribute.index, target.state_key(state))
                if attribute.is_categorical:
                    distributions[group] = model.categorical.setdefault(
                        key, CategoricalDistribution())
                else:
                    gaussians[group] = model.gaussian.setdefault(
                        key, GaussianStats())
            categorical = np.array(
                [a.is_categorical for a in inputs])[input_of]
            count_into(
                distributions, groups[categorical],
                values[categorical].astype(np.intp), weights[categorical],
                lambda group, code: inputs[group // width].state_key(code))
            continuous = ~categorical
            for group, value, weight in zip(
                    groups[continuous].tolist(), values[continuous].tolist(),
                    weights[continuous].tolist()):
                gaussians[group].add(value, weight)

    def _log_conditionals(self, model: _TargetModel, attribute: Attribute,
                          states: List[float], value: float) -> List[float]:
        """``log P(attribute = value | state)`` per target state, Laplace
        smoothed and floored at 1e-12."""
        smoothing = float(self.param("SMOOTHING"))
        cardinality = max(attribute.cardinality, 1)
        logs = []
        for state in states:
            conditional = model.categorical.get((attribute.index, state))
            if conditional is None:
                conditional = CategoricalDistribution()
            logs.append(math.log(max(conditional.probability(
                value, smoothing=smoothing, cardinality=cardinality), 1e-12)))
        return logs

    def _build_tables(self):
        """Per target: its states, their display labels and log priors
        and, per input in scoring order, the log conditionals of every
        category code — as ``{code: [log P(code | state) per state]}`` for
        :meth:`predict` and as one ``(cardinality + 1) x states`` array for
        :meth:`predict_many`, whose extra last row is the zeros a missing
        value adds — or, for a continuous input, the usable per-state
        Gaussians.  Both scorers add the terms the formula defines, in the
        order it defines them, without recomputing any that depend on the
        model alone."""
        tables = []
        for target in self.space.outputs():
            model = self.models[target.index]
            states = list(model.prior.counts)
            log_prior = [math.log(max(model.prior.probability(state), 1e-12))
                         for state in states]
            inputs = []
            for attribute in self._inputs[target.index]:
                if attribute.is_categorical:
                    logs = {code: self._log_conditionals(model, attribute,
                                                         states, code)
                            for code in range(attribute.cardinality)}
                    inputs.append((attribute, logs, None, np.array(
                        list(logs.values()) + [[0.0] * len(states)])))
                else:
                    gaussians = [model.gaussian.get((attribute.index, state))
                                 for state in states]
                    inputs.append((attribute, None, [
                        stats if stats is not None and stats.sum_weight > 0
                        else None for stats in gaussians], None))
            labels = {state: target.decode(state) for state in states}
            tables.append((target, model, states, labels, log_prior, inputs))
        return tables

    def predict(self, observation: Observation) -> CasePrediction:
        self.require_trained()
        result = CasePrediction()
        values = observation.values
        for target, model, states, labels, log_prior, inputs in \
                self.prediction_tables():
            if not states:
                result.set(self.marginal_prediction(target))
                continue
            terms = []  # per known input, in input order: one term per state
            for attribute, logs, gaussians, _ in inputs:
                value = values[attribute.index]
                if value is None:
                    continue
                if gaussians is not None:
                    terms.append([
                        None if stats is None
                        else math.log(max(stats.pdf(value), 1e-300))
                        for stats in gaussians])
                    continue
                row = logs.get(value)
                if row is None:  # a code outside the fitted categories
                    row = self._log_conditionals(model, attribute, states,
                                                 value)
                terms.append(row)
            log_scores = []
            for position, score in enumerate(log_prior):
                for row in terms:
                    term = row[position]
                    if term is not None:
                        score += term
                log_scores.append(score)
            result.set(self._posterior(target, model, states, labels,
                                       log_scores))
        return result

    @staticmethod
    def _posterior(target, model, states, labels,
                   log_scores: List[float]) -> AttributePrediction:
        """The prediction from one case's unnormalised log scores."""
        normaliser = log_sum_exp(log_scores)
        posterior = CategoricalDistribution()
        for state, score in zip(states, log_scores):
            posterior.add(state, math.exp(score - normaliser) *
                          model.prior.total)
        return AttributePrediction.from_categorical(target, posterior, labels)

    def predict_many(self, observations, reads=None):
        """:meth:`predict` over a batch, from its :class:`CaseMatrix` and
        :meth:`_log_scores`: a target ``reads`` leaves out is not scored,
        every other gets its posterior, once per case as its prediction is
        taken.  A case with a known continuous input or a code outside the
        fitted categories is scored by :meth:`predict`; so is every case
        while some target has no states."""
        self.require_trained()
        tables = self.prediction_tables()
        if not all(states for _, _, states, _, _, _ in tables):
            yield from map(self.predict, observations)
            return
        if reads is not None:
            tables = [table for table in tables if table[0].index in reads]
        tabular, scores = self._log_scores(tables, observations)
        scored = [table[:4] + (rows.tolist(),)
                  for table, rows in zip(tables, scores)]
        for row, scores_whole in enumerate(tabular.tolist()):
            if not scores_whole:
                yield self.predict(observations[row])
                continue
            result = CasePrediction()
            for target, model, states, labels, rows in scored:
                result.set(self._posterior(target, model, states, labels,
                                           rows[row]))
            yield result

    def predict_values(self, observations, attributes):
        """:meth:`predict`'s value of each attribute over a batch without
        a prediction object: a target's column is, per case, the state of
        the heaviest posterior weight (:meth:`_values_of`), an attribute
        that is no target's the marginals' value.  A case the tables do
        not score (see :meth:`predict_many`) is taken from :meth:`predict`;
        every case while some target has no states."""
        self.require_trained()
        tables = {table[0].index: table for table in self.prediction_tables()}
        if not all(table[2] for table in tables.values()):
            return super().predict_values(observations, attributes)
        scored = [tables[a.index] for a in attributes if a.index in tables]
        tabular, scores = self._log_scores(scored, observations)
        values = dict(zip([table[0].index for table in scored],
                          map(self._values_of, scored, scores)))
        return self._completed(observations, attributes, values, ~tabular)

    def _log_scores(self, tables, observations):
        """``(tabular, scores)``: whether the tables score each case, and
        per target its cases x states log scores — the prior, then each
        categorical input's table rows gathered by the code column and
        added input by input, so a case's sum is the float the per-case
        loop reaches (a missing value adds an exact 0.0).  Only look-ups
        and adds are array work: ``exp`` / ``log`` stay on ``math`` (numpy's
        are not bit-identical to libm's)."""
        values = CaseMatrix.of(observations, len(self.space.attributes)).values
        tabular = np.ones(len(values), dtype=bool)
        scored = []
        for target, model, states, labels, log_prior, inputs in tables:
            scores = np.tile(np.array(log_prior), (len(values), 1))
            tabular &= np.isnan(values[:, [a.index for a, _, _, table in inputs
                                           if table is None]]).all(axis=1)
            categorical = [(a.index, table) for a, _, _, table in inputs
                           if table is not None]
            codes = values[:, [index for index, _ in categorical]]
            # Per input, the row a missing value reads: its zeros.
            zeros = np.array([len(table) - 1 for _, table in categorical])
            fitted = (codes >= 0) & (codes < zeros) & (codes == np.floor(codes))
            tabular &= (fitted | np.isnan(codes)).all(axis=1)
            for (_, table), rows in zip(categorical, np.where(
                    fitted, codes, zeros).astype(np.intp).T):
                scores += table[rows]   # input by input, in scoring order
            scored.append(scores)
        return tabular, scored

    @classmethod
    def _values_of(cls, table, scores: np.ndarray) -> list:
        """Per case (a row of log ``scores``), :meth:`_posterior`'s value:
        the state of the heaviest weight ``exp(score - normaliser) *
        total``.  Where a row's top score exceeds its second by more than
        ``_MARGIN`` and ``total`` per state is far from underflow, that is
        the arg-max state: the two weights' exponents then differ by far
        more than the rounding of the subtractions, ``exp`` and ``* total``
        can close, so the weights cannot tie or swap.  Any other row — a
        tie, a near-tie, a NaN — gets :meth:`_posterior`'s own value (ties
        go by ``_tiebreak`` there; every weight underflowed: None)."""
        target, model, states, labels = table[:4]
        top = np.partition(np.hstack([scores, np.full((len(scores), 1),
                                                      -np.inf)]), -2, axis=1)
        sure = (top[:, -1] - top[:, -2] > _MARGIN) & \
            np.isfinite(top[:, -1]) & \
            (_SAFE_TOTAL < model.prior.total / len(states) < math.inf)
        values = list(map([labels[state] for state in states].__getitem__,
                          scores.argmax(axis=1).tolist()))
        for row in np.flatnonzero(~sure).tolist():
            values[row] = cls._posterior(target, model, states, labels,
                                         scores[row].tolist()).value
        return values

    def content_nodes(self) -> ContentNode:
        self.require_trained()
        root = ContentNode("0", NODE_MODEL, self.space.definition.name,
                           description="Naive Bayes model",
                           support=self.space.total_weight, probability=1.0)
        for position, (target_index, model) in enumerate(
                sorted(self.models.items())):
            target = self.space.attributes[target_index]
            target_node = root.add_child(ContentNode(
                f"0.{position}", NODE_PREDICTABLE, target.name,
                description=f"Priors and conditionals for {target.name}",
                support=model.prior.total, probability=1.0,
                distribution=[
                    DistributionRow(target.name, target.decode(state),
                                    weight,
                                    weight / model.prior.total
                                    if model.prior.total else 0.0)
                    for state, weight in model.prior.sorted_items()]))
            for state_position, (state, state_weight) in enumerate(
                    model.prior.sorted_items()):
                rows = []
                for attribute in self._inputs[target_index]:
                    key = (attribute.index, state)
                    if attribute.is_categorical and key in model.categorical:
                        conditional = model.categorical[key]
                        for value, weight in conditional.sorted_items()[:5]:
                            rows.append(DistributionRow(
                                attribute.name, attribute.decode(value),
                                weight,
                                weight / conditional.total
                                if conditional.total else 0.0))
                    elif key in model.gaussian:
                        stats = model.gaussian[key]
                        rows.append(DistributionRow(
                            attribute.name, stats.mean, stats.sum_weight,
                            1.0, stats.variance))
                target_node.add_child(ContentNode(
                    f"0.{position}.{state_position}", NODE_DISTRIBUTION,
                    f"{target.name} = {target.decode(state)!r}",
                    support=state_weight,
                    probability=(state_weight / model.prior.total
                                 if model.prior.total else 0.0),
                    distribution=rows))
        return root
