"""K-means clustering mining service (hard-assignment counterpart of EM).

Categorical attributes are one-hot encoded, continuous attributes are
z-scored, and missing entries are imputed with the column mean so distance
stays defined.  Kept alongside the EM service to demonstrate that two
services of the same *capability class* (segmentation) plug into the same
model definition — benchmark X1's point.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import TrainError
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
    PredictionBucket,
)
from repro.algorithms.statistics import (
    CategoricalDistribution,
    GaussianStats,
    stat_from_json,
)
from repro.core.content import (
    NODE_CLUSTER,
    NODE_MODEL,
    ContentNode,
    DistributionRow,
)


class KMeansAlgorithm(MiningAlgorithm):
    """Lloyd's algorithm over a one-hot / z-scored embedding."""

    SERVICE_NAME = "Repro_KMeans"
    DISPLAY_NAME = "K-Means Clustering (reproduction)"
    ALIASES = ("KMeans", "K_Means")
    SERVICE_TYPE_ID = 4
    PREDICTS_DISCRETE = True
    PREDICTS_CONTINUOUS = True
    SUPPORTED_PARAMETERS = {
        "CLUSTER_COUNT": 8,
        "MAX_ITERATIONS": 100,
        "CLUSTER_SEED": 42,
    }

    def __init__(self, parameters=None):
        super().__init__(parameters)
        self.cluster_count = 0
        self.centroids: Optional[np.ndarray] = None
        self.cluster_support: Optional[np.ndarray] = None
        self._feature_column: Optional[np.ndarray] = None   # _build_plan
        self._feature_code: Optional[np.ndarray] = None
        self._feature_width: Optional[np.ndarray] = None
        self._scale_mean: Optional[np.ndarray] = None
        self._scale_std: Optional[np.ndarray] = None
        self._per_cluster_stats = []  # per cluster: {attr_index: dist/stats}

    # -- persistence ----------------------------------------------------------------

    def state(self) -> dict:
        return {
            "cluster_count": self.cluster_count,
            "centroids": self.centroids.tolist(),
            "cluster_support": self.cluster_support.tolist(),
            "scale_mean": self._scale_mean.tolist(),
            "scale_std": self._scale_std.tolist(),
            "per_cluster": [{str(index): stat.to_json()
                             for index, stat in stats.items()}
                            for stats in self._per_cluster_stats],
        }

    def load_state(self, space: AttributeSpace, state: dict) -> None:
        self.cluster_count = state["cluster_count"]
        self.centroids = np.array(state["centroids"])
        self.cluster_support = np.array(state["cluster_support"])
        self._scale_mean = np.array(state["scale_mean"])
        self._scale_std = np.array(state["scale_std"])
        self._build_plan(space)
        self._per_cluster_stats = [{int(index): stat_from_json(stat)
                                    for index, stat in stats.items()}
                                   for stats in state["per_cluster"]]

    # -- embedding ----------------------------------------------------------------

    def _build_plan(self, space: AttributeSpace) -> None:
        """Per feature of the embedding: the attribute it reads, and for a
        one-hot feature the code it stands for and how many codes its
        attribute was fitted with (NaN for a continuous feature)."""
        columns, codes, widths = [], [], []
        for attribute in space.attributes:
            if attribute.is_categorical:
                width = max(attribute.cardinality, 1)
                codes.extend(range(width))
                widths.extend([width] * width)
            else:
                width = 1
                codes.append(np.nan)
                widths.append(np.nan)
            columns.extend([attribute.index] * width)
        self._feature_column = np.array(columns, dtype=np.intp)
        self._feature_code = np.array(codes, dtype=np.float64)
        self._feature_width = np.array(widths, dtype=np.float64)

    def _embed(self, values: np.ndarray) -> np.ndarray:
        """The feature matrix of a cases x attributes value array
        (:class:`CaseMatrix` ``values``): a continuous value as it is,
        a category one-hot, NaN where the value is missing or its code was
        not fitted."""
        values = values.take(self._feature_column, axis=1)   # row-major
        fitted = (values >= 0) & (values < self._feature_width)
        one_hot = np.where(fitted, values == self._feature_code, np.nan)
        return np.where(np.isnan(self._feature_code), values, one_hot)

    # -- training -------------------------------------------------------------------

    def _train(self, space: AttributeSpace,
               observations: List[Observation]) -> None:
        k = int(self.param("CLUSTER_COUNT"))
        if k < 1:
            raise TrainError("CLUSTER_COUNT must be >= 1")
        k = min(k, len(observations))
        self.cluster_count = k
        self._build_plan(space)
        cases = CaseMatrix.of(observations, len(space.attributes))
        matrix = self._embed(cases.values)
        case_weights = cases.weights

        # Impute missing with column means, then z-score.
        column_means = np.nanmean(np.where(np.isnan(matrix), np.nan, matrix),
                                  axis=0)
        column_means = np.where(np.isnan(column_means), 0.0, column_means)
        matrix = np.where(np.isnan(matrix), column_means, matrix)
        std = matrix.std(axis=0)
        std = np.where(std < 1e-9, 1.0, std)
        self._scale_mean = column_means
        self._scale_std = std
        scaled = (matrix - column_means) / std

        rng = np.random.RandomState(int(self.param("CLUSTER_SEED")))
        centroids = scaled[rng.choice(len(scaled), size=k, replace=False)]
        assignment = np.zeros(len(scaled), dtype=np.int64)
        for _ in range(int(self.param("MAX_ITERATIONS"))):
            self.note_pass()
            distances = ((scaled[:, None, :] - centroids[None, :, :]) ** 2) \
                .sum(axis=2)
            new_assignment = distances.argmin(axis=1)
            if (new_assignment == assignment).all() and _ > 0:
                break
            assignment = new_assignment
            for cluster in range(k):
                mask = assignment == cluster
                if mask.any():
                    weights = case_weights[mask]
                    centroids[cluster] = np.average(scaled[mask], axis=0,
                                                    weights=weights)
        self.centroids = centroids
        self.cluster_support = np.array([
            case_weights[assignment == cluster].sum() for cluster in range(k)])

        # Per-cluster raw-value statistics for attribute prediction/content.
        self._per_cluster_stats = []
        for cluster in range(k):
            mask = assignment == cluster
            stats = {}
            for attribute in space.attributes:
                if attribute.is_categorical:
                    distribution = CategoricalDistribution()
                    for row in np.nonzero(mask)[0]:
                        value = observations[row].values[attribute.index]
                        if value is not None:
                            distribution.add(value, case_weights[row])
                    stats[attribute.index] = distribution
                else:
                    gaussian = GaussianStats()
                    for row in np.nonzero(mask)[0]:
                        value = observations[row].values[attribute.index]
                        if value is not None:
                            gaussian.add(value, case_weights[row])
                    stats[attribute.index] = gaussian
            self._per_cluster_stats.append(stats)

    # -- prediction -------------------------------------------------------------------

    def _assign(self, observation: Observation):
        matrix = self._embed(
            np.array([observation.values], dtype=np.float64))[0]
        matrix = np.where(np.isnan(matrix), self._scale_mean, matrix)
        scaled = (matrix - self._scale_mean) / self._scale_std
        distances = ((self.centroids - scaled) ** 2).sum(axis=1)
        return int(distances.argmin()), distances

    def predict(self, observation: Observation) -> CasePrediction:
        self.require_trained()
        result = CasePrediction()
        cluster, distances = self._assign(observation)
        result.cluster_id = cluster + 1
        result.cluster_distances = [float(d) for d in distances]
        # A soft pseudo-posterior from inverse distances (for UDF parity).
        inverse = 1.0 / (distances + 1e-9)
        result.cluster_probabilities = [float(p) for p in inverse /
                                        inverse.sum()]
        stats = self._per_cluster_stats[cluster]
        for target in self.space.outputs():
            stat = stats[target.index]
            if target.is_categorical:
                if stat.total > 0:
                    result.set(AttributePrediction.from_categorical(target,
                                                                    stat))
                else:
                    result.set(self.marginal_prediction(target))
            else:
                if stat.sum_weight > 0:
                    result.set(AttributePrediction.from_gaussian(target,
                                                                 stat))
                else:
                    result.set(self.marginal_prediction(target))
        return result

    # -- content ---------------------------------------------------------------------

    def content_nodes(self) -> ContentNode:
        self.require_trained()
        total = float(self.cluster_support.sum()) or 1.0
        root = ContentNode("0", NODE_MODEL, self.space.definition.name,
                           description=f"K-means model "
                                       f"({self.cluster_count} clusters)",
                           support=total, probability=1.0)
        for cluster in range(self.cluster_count):
            rows = []
            for attribute in self.space.attributes:
                stat = self._per_cluster_stats[cluster][attribute.index]
                if attribute.is_categorical:
                    for value, weight in stat.sorted_items()[:5]:
                        rows.append(DistributionRow(
                            attribute.name, attribute.decode(value), weight,
                            weight / stat.total if stat.total else 0.0))
                elif stat.sum_weight > 0:
                    rows.append(DistributionRow(
                        attribute.name, stat.mean, stat.sum_weight, 1.0,
                        stat.variance))
            support = float(self.cluster_support[cluster])
            root.add_child(ContentNode(
                f"0.{cluster}", NODE_CLUSTER, f"Cluster {cluster + 1}",
                description=f"Cluster {cluster + 1} centroid",
                support=support, probability=support / total,
                distribution=rows))
        return root
