"""Linear (multi-)regression mining service.

The paper's section 3.3 mentions "multi-regression DMM" content as one of
the model families a provider may expose.  Continuous targets are fitted by
ordinary least squares over a design matrix of continuous inputs plus
one-hot-encoded categorical inputs (numpy ``lstsq``); missing design entries
are mean-imputed with means learned at training time.
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
    PredictionBucket,
)
from repro.core.content import (
    NODE_MODEL,
    NODE_REGRESSION_ROOT,
    ContentNode,
    DistributionRow,
)


class _RegressionModel:
    """Per-target fitted coefficients and residual statistics."""

    __slots__ = ("coefficients", "residual_variance", "support", "r_squared")

    def __init__(self, coefficients: np.ndarray, residual_variance: float,
                 support: float, r_squared: float):
        self.coefficients = coefficients
        self.residual_variance = residual_variance
        self.support = support
        self.r_squared = r_squared


class LinearRegressionAlgorithm(MiningAlgorithm):
    """Ordinary least squares over one-hot/continuous features."""

    SERVICE_NAME = "Repro_Linear_Regression"
    DISPLAY_NAME = "Linear Regression (reproduction)"
    ALIASES = ("Microsoft_Linear_Regression", "Linear_Regression")
    SERVICE_TYPE_ID = 6
    PREDICTS_DISCRETE = False
    PREDICTS_CONTINUOUS = True
    SUPPORTED_PARAMETERS = {
        "RIDGE": 1e-6,   # Tikhonov stabiliser on the normal equations
    }

    def __init__(self, parameters=None):
        super().__init__(parameters)
        self.models: Dict[int, _RegressionModel] = {}
        self._plans: Dict[int, List] = {}   # target -> (attr, offset, width)
        self._feature_means: Dict[int, np.ndarray] = {}

    # -- persistence ------------------------------------------------------------

    def state(self) -> dict:
        return {"models": [{
            "target": self.space.attributes[target].name,
            "coefficients": model.coefficients.tolist(),
            "residual_variance": model.residual_variance,
            "support": model.support,
            "r_squared": model.r_squared,
            "feature_means": self._feature_means[target].tolist(),
        } for target, model in sorted(self.models.items())]}

    def load_state(self, space: AttributeSpace, state: dict) -> None:
        self.models, self._plans, self._feature_means = {}, {}, {}
        for entry in state["models"]:
            target = space.by_name(entry["target"])
            self.models[target.index] = _RegressionModel(
                np.array(entry["coefficients"]), entry["residual_variance"],
                entry["support"], entry["r_squared"])
            self._plans[target.index] = self._plan_for(space, target)
            self._feature_means[target.index] = \
                np.array(entry["feature_means"])

    # -- design matrix ----------------------------------------------------------

    def _plan_for(self, space: AttributeSpace,
                  target: Attribute) -> List:
        plan = []
        offset = 1  # column 0 is the intercept
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

    # -- training ----------------------------------------------------------------

    def _train(self, space: AttributeSpace,
               observations: List[Observation]) -> None:
        targets = space.outputs()
        discrete = [t.name for t in targets if t.is_categorical]
        if discrete:
            raise CapabilityError(
                f"{self.SERVICE_NAME} only predicts CONTINUOUS attributes; "
                f"{', '.join(discrete)} is categorical")
        if not targets:
            raise TrainError(
                f"model {space.definition.name!r} declares no PREDICT "
                f"column")
        self.models = {}
        for target in targets:
            plan = self._plan_for(space, target)
            width = 1 + sum(columns for _, _, columns in plan)
            rows = []
            y = []
            weights = []
            for observation in observations:
                value = observation.values[target.index]
                if value is None:
                    continue
                rows.append(self._design_row(plan, width, observation))
                y.append(value)
                weights.append(observation.effective_weight(target.index))
            if not rows:
                raise TrainError(
                    f"no training cases have a value for {target.name!r}")
            design = np.array(rows)
            target_values = np.array(y)
            case_weights = np.array(weights)

            means = np.nanmean(design, axis=0)
            means = np.where(np.isnan(means), 0.0, means)
            design = np.where(np.isnan(design), means, design)
            self._feature_means[target.index] = means

            sqrt_weights = np.sqrt(case_weights)
            a = design * sqrt_weights[:, None]
            b = target_values * sqrt_weights
            ridge = float(self.param("RIDGE"))
            gram = a.T @ a + ridge * np.eye(width)
            coefficients = np.linalg.solve(gram, a.T @ b)

            predictions = design @ coefficients
            residuals = target_values - predictions
            total_weight = case_weights.sum()
            residual_variance = float(
                (case_weights * residuals ** 2).sum() / max(total_weight, 1e-9))
            mean_y = float((case_weights * target_values).sum() /
                           max(total_weight, 1e-9))
            total_variance = float(
                (case_weights * (target_values - mean_y) ** 2).sum() /
                max(total_weight, 1e-9))
            r_squared = 1.0 - residual_variance / total_variance \
                if total_variance > 0 else 0.0
            self.models[target.index] = _RegressionModel(
                coefficients, residual_variance, float(total_weight),
                r_squared)
            self._plans[target.index] = plan

    # -- prediction ---------------------------------------------------------------

    def predict(self, observation: Observation) -> CasePrediction:
        self.require_trained()
        result = CasePrediction()
        for target in self.space.outputs():
            model = self.models[target.index]
            plan = self._plans[target.index]
            width = len(model.coefficients)
            row = self._design_row(plan, width, observation)
            means = self._feature_means[target.index]
            row = np.where(np.isnan(row), means, row)
            estimate = float(row @ model.coefficients)
            bucket = PredictionBucket(estimate, 1.0, model.support,
                                      model.residual_variance)
            result.set(AttributePrediction(
                target, estimate, None, model.support,
                model.residual_variance, [bucket]))
        return result

    # -- content -----------------------------------------------------------------

    def content_nodes(self) -> ContentNode:
        self.require_trained()
        root = ContentNode("0", NODE_MODEL, self.space.definition.name,
                           description="Linear regression model",
                           support=self.space.total_weight, probability=1.0)
        for position, (target_index, model) in enumerate(
                sorted(self.models.items())):
            target = self.space.attributes[target_index]
            rows = [DistributionRow("(intercept)",
                                    float(model.coefficients[0]),
                                    model.support, 1.0)]
            for attribute, offset, columns in self._plans[target_index]:
                for column in range(columns):
                    coefficient = float(model.coefficients[offset + column])
                    if attribute.is_categorical:
                        label = (f"{attribute.name}="
                                 f"{attribute.decode(float(column))}")
                    else:
                        label = attribute.name
                    rows.append(DistributionRow(label, coefficient,
                                                model.support, 1.0))
            root.add_child(ContentNode(
                f"0.{position}", NODE_REGRESSION_ROOT, target.name,
                description=f"R^2={model.r_squared:.4f}, residual "
                            f"variance={model.residual_variance:.4f}",
                support=model.support, probability=1.0,
                distribution=rows))
        return root
