"""Logistic-regression mining service (probabilistic discrete targets).

Complements the tree/Bayes services with a calibrated linear classifier:
multinomial logistic regression over the same one-hot/continuous design
matrix as :mod:`repro.algorithms.linear_regression`, fitted by batch
gradient descent with L2 regularisation (numpy only).  Included chiefly as
a further demonstration that new services keep plugging into the same
definition/training/prediction statements — and because its calibrated
probabilities make the lift charts of ``repro.evaluation`` interesting.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import CapabilityError, TrainError
from repro.algorithms.attributes import Attribute, AttributeSpace, Observation
from repro.algorithms.base import (
    AttributePrediction,
    CasePrediction,
    MiningAlgorithm,
)
from repro.algorithms.statistics import CategoricalDistribution
from repro.core.content import (
    NODE_MODEL,
    NODE_PREDICTABLE,
    ContentNode,
    DistributionRow,
)


class _LogisticModel:
    """Per-target fitted weights: (classes, features) plus feature means."""

    __slots__ = ("weights", "feature_means", "support", "log_loss")

    def __init__(self, weights: np.ndarray, feature_means: np.ndarray,
                 support: float, log_loss: float):
        self.weights = weights
        self.feature_means = feature_means
        self.support = support
        self.log_loss = log_loss


class LogisticRegressionAlgorithm(MiningAlgorithm):
    """Multinomial logistic regression by batch gradient descent."""

    SERVICE_NAME = "Repro_Logistic_Regression"
    DISPLAY_NAME = "Logistic Regression (reproduction)"
    ALIASES = ("Microsoft_Logistic_Regression", "Logistic_Regression")
    SERVICE_TYPE_ID = 8
    PREDICTS_DISCRETE = True
    PREDICTS_CONTINUOUS = False
    SUPPORTED_PARAMETERS = {
        "MAX_ITERATIONS": 300,
        "LEARNING_RATE": 0.5,
        "L2": 1e-3,
        "TOLERANCE": 1e-6,
    }

    def __init__(self, parameters=None):
        super().__init__(parameters)
        self.models: Dict[int, _LogisticModel] = {}
        self._plans: Dict[int, List] = {}

    # -- persistence ------------------------------------------------------------

    def state(self) -> dict:
        return {"models": [{
            "target": self.space.attributes[target].name,
            "weights": model.weights.tolist(),
            "feature_means": model.feature_means.tolist(),
            "support": model.support,
            "log_loss": model.log_loss,
        } for target, model in sorted(self.models.items())]}

    def load_state(self, space: AttributeSpace, state: dict) -> None:
        self.models, self._plans = {}, {}
        for entry in state["models"]:
            target = space.by_name(entry["target"])
            self.models[target.index] = _LogisticModel(
                np.array(entry["weights"]), np.array(entry["feature_means"]),
                entry["support"], entry["log_loss"])
            self._plans[target.index] = self._plan_for(space, target)

    # -- design matrix (shared shape with the linear service) ----------------

    def _plan_for(self, space: AttributeSpace, target: Attribute) -> List:
        plan = []
        offset = 1  # intercept
        for attribute in space.inputs():
            if attribute.index == target.index:
                continue
            width = max(attribute.cardinality, 1) \
                if attribute.is_categorical else 1
            plan.append((attribute, offset, width))
            offset += width
        return plan

    def _design_row(self, plan, width: int,
                    observation: Observation) -> np.ndarray:
        row = np.full(width, np.nan)
        row[0] = 1.0
        for attribute, offset, columns in plan:
            value = observation.values[attribute.index]
            if attribute.is_categorical:
                if value is not None and 0 <= int(value) < columns:
                    row[offset:offset + columns] = 0.0
                    row[offset + int(value)] = 1.0
            elif value is not None:
                row[offset] = value
        return row

    # -- training ---------------------------------------------------------------

    def _train(self, space: AttributeSpace,
               observations: List[Observation]) -> None:
        targets = space.outputs()
        continuous = [t.name for t in targets if not t.is_categorical]
        if continuous:
            raise CapabilityError(
                f"{self.SERVICE_NAME} only predicts categorical "
                f"attributes; {', '.join(continuous)} is continuous")
        if not targets:
            raise TrainError(
                f"model {space.definition.name!r} declares no PREDICT "
                f"column")
        self.models = {}
        for target in targets:
            self._fit_target(space, target, observations)

    def _fit_target(self, space, target, observations) -> None:
        plan = self._plan_for(space, target)
        width = 1 + sum(columns for _, _, columns in plan)
        classes = max(target.cardinality, 1)
        rows, labels, weights = [], [], []
        for observation in observations:
            value = observation.values[target.index]
            if value is None:
                continue
            rows.append(self._design_row(plan, width, observation))
            labels.append(int(value))
            weights.append(observation.effective_weight(target.index))
        if not rows:
            raise TrainError(
                f"no training cases have a value for {target.name!r}")
        design = np.array(rows)
        label_array = np.array(labels)
        case_weights = np.array(weights)

        means = np.nanmean(design, axis=0)
        means = np.where(np.isnan(means), 0.0, means)
        design = np.where(np.isnan(design), means, design)
        # Scale features for stable gradient steps; constant columns
        # (std 0, e.g. a one-hot level present in every row) keep scale 1.
        std = design.std(axis=0)
        scale = np.where(std > 1e-9, std, 1.0)
        scale[0] = 1.0
        design_scaled = design / scale

        one_hot = np.zeros((len(labels), classes))
        one_hot[np.arange(len(labels)), label_array] = 1.0
        total_weight = case_weights.sum()

        weights_matrix = np.zeros((classes, width))
        learning_rate = float(self.param("LEARNING_RATE"))
        l2 = float(self.param("L2"))
        previous_loss = None
        log_loss = 0.0
        for _ in range(int(self.param("MAX_ITERATIONS"))):
            self.note_pass()
            logits = design_scaled @ weights_matrix.T
            logits -= logits.max(axis=1, keepdims=True)
            probabilities = np.exp(logits)
            probabilities /= probabilities.sum(axis=1, keepdims=True)
            log_loss = float(
                -(case_weights *
                  np.log(np.maximum(
                      probabilities[np.arange(len(labels)), label_array],
                      1e-12))).sum() / max(total_weight, 1e-9))
            if previous_loss is not None and \
                    abs(previous_loss - log_loss) < \
                    float(self.param("TOLERANCE")):
                break
            previous_loss = log_loss
            gradient = ((probabilities - one_hot) *
                        case_weights[:, None]).T @ design_scaled
            gradient /= max(total_weight, 1e-9)
            gradient += l2 * weights_matrix
            weights_matrix -= learning_rate * gradient

        # Fold the feature scaling back into the weights.
        self.models[target.index] = _LogisticModel(
            weights_matrix / scale, means, float(total_weight), log_loss)
        self._plans[target.index] = plan

    # -- prediction ----------------------------------------------------------------

    def predict(self, observation: Observation) -> CasePrediction:
        self.require_trained()
        result = CasePrediction()
        for target in self.space.outputs():
            model = self.models[target.index]
            plan = self._plans[target.index]
            width = model.weights.shape[1]
            row = self._design_row(plan, width, observation)
            row = np.where(np.isnan(row), model.feature_means, row)
            logits = model.weights @ row
            logits -= logits.max()
            probabilities = np.exp(logits)
            probabilities /= probabilities.sum()
            distribution = CategoricalDistribution()
            for code, probability in enumerate(probabilities):
                distribution.add(float(code),
                                 float(probability) * model.support)
            result.set(AttributePrediction.from_categorical(target,
                                                            distribution))
        return result

    # -- content -----------------------------------------------------------------

    def content_nodes(self) -> ContentNode:
        self.require_trained()
        root = ContentNode("0", NODE_MODEL, self.space.definition.name,
                           description="Logistic regression model",
                           support=self.space.total_weight,
                           probability=1.0)
        for position, (target_index, model) in enumerate(
                sorted(self.models.items())):
            target = self.space.attributes[target_index]
            rows = []
            for class_code, class_weights in enumerate(model.weights):
                label = target.decode(float(class_code))
                rows.append(DistributionRow(
                    f"{target.name}={label} (intercept)",
                    float(class_weights[0]), model.support, 1.0))
                for attribute, offset, columns in \
                        self._plans[target_index]:
                    for column in range(columns):
                        coefficient = float(class_weights[offset + column])
                        if abs(coefficient) < 1e-9:
                            continue
                        if attribute.is_categorical:
                            name = (f"{target.name}={label} | "
                                    f"{attribute.name}="
                                    f"{attribute.decode(float(column))}")
                        else:
                            name = f"{target.name}={label} | " \
                                   f"{attribute.name}"
                        rows.append(DistributionRow(
                            name, coefficient, model.support, 1.0))
            root.add_child(ContentNode(
                f"0.{position}", NODE_PREDICTABLE, target.name,
                description=f"log loss {model.log_loss:.4f}",
                support=model.support, probability=1.0,
                distribution=rows))
        return root
