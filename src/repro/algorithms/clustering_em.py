"""EM (mixture-model) clustering mining service.

A segmentation service in the paper's sense ("the supported capabilities,
e.g. prediction, segmentation, ...").  Each cluster is a product
distribution: Gaussian per continuous attribute, multinomial per categorical
attribute; missing values drop out of the likelihood.  Because every cluster
carries a full distribution over every attribute, the model can also
*predict* any PREDICT column by mixing per-cluster distributions with the
case's cluster posterior — so segmentation models participate in PREDICTION
JOIN like any other model.

The E/M steps are vectorised with numpy; initialisation is deterministic
given CLUSTER_SEED.
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
from repro.algorithms.statistics import CategoricalDistribution
from repro.core.content import (
    NODE_CLUSTER,
    NODE_MODEL,
    ContentNode,
    DistributionRow,
)

_VARIANCE_FLOOR = 1e-4
_LOG_FLOOR = 1e-12


def _logsumexp_rows(matrix: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(.))) with the usual max-shift stabilisation."""
    peak = matrix.max(axis=1)
    return peak + np.log(np.exp(matrix - peak[:, None]).sum(axis=1))


class EMClusteringAlgorithm(MiningAlgorithm):
    """Mixture-model clustering with per-attribute product distributions."""

    SERVICE_NAME = "Repro_Clustering"
    DISPLAY_NAME = "EM Clustering (reproduction)"
    ALIASES = ("Microsoft_Clustering", "Clustering", "EM_Clustering")
    SERVICE_TYPE_ID = 3
    PREDICTS_DISCRETE = True
    PREDICTS_CONTINUOUS = True
    SUPPORTED_PARAMETERS = {
        "CLUSTER_COUNT": 8,
        "MAX_ITERATIONS": 50,
        "CLUSTER_SEED": 42,
        "STOPPING_TOLERANCE": 1e-4,
    }

    def __init__(self, parameters=None):
        super().__init__(parameters)
        self.cluster_count = 0
        self.weights: Optional[np.ndarray] = None          # (K,)
        self.cluster_support: Optional[np.ndarray] = None  # (K,)
        self.means = None       # (K, Dc)
        self.variances = None   # (K, Dc)
        self.categorical = {}   # attr position -> (K, cardinality) probs
        self._continuous: List[Attribute] = []
        self._categorical: List[Attribute] = []
        self.log_likelihood_trace: List[float] = []

    # -- persistence --------------------------------------------------------------

    def state(self) -> dict:
        return {
            "cluster_count": self.cluster_count,
            "weights": self.weights.tolist(),
            "cluster_support": self.cluster_support.tolist(),
            "means": self.means.tolist() if self.means is not None else None,
            "variances": self.variances.tolist()
            if self.variances is not None else None,
            "categorical": {str(position): probabilities.tolist()
                            for position, probabilities in
                            self.categorical.items()},
            "continuous_names": [a.name for a in self._continuous],
            "categorical_names": [a.name for a in self._categorical],
        }

    def load_state(self, space: AttributeSpace, state: dict) -> None:
        self.cluster_count = state["cluster_count"]
        self.weights = np.array(state["weights"])
        self.cluster_support = np.array(state["cluster_support"])
        self.means = np.array(state["means"]) \
            if state["means"] is not None else None
        self.variances = np.array(state["variances"]) \
            if state["variances"] is not None else None
        self.categorical = {int(position): np.array(probabilities)
                            for position, probabilities in
                            state["categorical"].items()}
        self._continuous = [space.by_name(n)
                            for n in state["continuous_names"]]
        self._categorical = [space.by_name(n)
                             for n in state["categorical_names"]]

    # -- encoding to matrices ---------------------------------------------------

    def _matrices(self, values: np.ndarray):
        """``(x, codes)`` from a cases x attributes value array
        (:class:`CaseMatrix` ``values``): the continuous columns (NaN =
        missing) and the categorical ones as integer codes (-1 = missing),
        both in row-major layout so every sum adds in the order it always
        has."""
        x = values.take([a.index for a in self._continuous], axis=1)
        codes = values.take([a.index for a in self._categorical], axis=1)
        codes = np.where(np.isnan(codes), -1, codes).astype(np.int64)
        return x, codes

    # -- training ---------------------------------------------------------------

    def _train(self, space: AttributeSpace,
               observations: List[Observation]) -> None:
        self._continuous = [a for a in space.attributes
                            if not a.is_categorical]
        self._categorical = [a for a in space.attributes if a.is_categorical]
        k = int(self.param("CLUSTER_COUNT"))
        if k < 1:
            raise TrainError("CLUSTER_COUNT must be >= 1")
        k = min(k, len(observations))
        self.cluster_count = k
        matrix = CaseMatrix.of(observations, len(space.attributes))
        x, codes = self._matrices(matrix.values)
        case_weights = matrix.weights
        n = len(observations)
        rng = np.random.RandomState(int(self.param("CLUSTER_SEED")))

        # Parameter initialisation from k distinct seed cases (k-means
        # style) breaks the symmetry a uniform responsibility init gets
        # stuck in: each cluster starts centred on a real case.
        self._init_parameters(x, codes, case_weights, rng)
        self.log_likelihood_trace = []
        previous = None
        responsibilities = None
        for _ in range(int(self.param("MAX_ITERATIONS"))):
            self.note_pass()
            if responsibilities is not None:
                self._m_step(x, codes, case_weights, responsibilities)
            log_density = self._log_density(x, codes)
            log_norm = _logsumexp_rows(log_density)
            responsibilities = np.exp(log_density - log_norm[:, None])
            likelihood = float(np.sum(case_weights * log_norm))
            self.log_likelihood_trace.append(likelihood)
            if previous is not None and \
                    abs(likelihood - previous) < \
                    float(self.param("STOPPING_TOLERANCE")) * max(n, 1):
                break
            previous = likelihood
        if responsibilities is not None:
            self._m_step(x, codes, case_weights, responsibilities)
            self.cluster_support = (responsibilities *
                                    case_weights[:, None]).sum(axis=0)

    def _init_parameters(self, x, codes, case_weights, rng) -> None:
        """Seed each cluster on one random case (global spread elsewhere)."""
        k = self.cluster_count
        n = max(x.shape[0], codes.shape[0])
        seeds = rng.choice(n, size=k, replace=False)
        self.weights = np.full(k, 1.0 / k)
        self.cluster_support = np.full(k, case_weights.sum() / k)
        if self._continuous:
            known = ~np.isnan(x)
            filled = np.where(known, x, 0.0)
            counts = np.maximum(known.sum(axis=0), 1)
            global_mean = filled.sum(axis=0) / counts
            centred = np.where(known, x - global_mean, 0.0)
            global_var = np.maximum(
                (centred ** 2).sum(axis=0) / counts, _VARIANCE_FLOOR)
            means = np.tile(global_mean, (k, 1))
            for cluster, seed in enumerate(seeds):
                row = x[seed]
                means[cluster] = np.where(np.isnan(row), global_mean, row)
            self.means = means
            self.variances = np.tile(global_var, (k, 1))
        self.categorical = {}
        for position, attribute in enumerate(self._categorical):
            cardinality = max(attribute.cardinality, 1)
            probs = np.full((k, cardinality), 1.0 / cardinality)
            for cluster, seed in enumerate(seeds):
                code = codes[seed, position]
                if code >= 0:
                    probs[cluster] *= 0.5
                    probs[cluster, code] += 0.5
            self.categorical[position] = probs

    def _m_step(self, x, codes, case_weights, responsibilities) -> None:
        weighted = responsibilities * case_weights[:, None]  # (n, K)
        cluster_weight = weighted.sum(axis=0)                # (K,)
        total = cluster_weight.sum()
        self.weights = np.maximum(cluster_weight / max(total, _LOG_FLOOR),
                                  _LOG_FLOOR)

        if self._continuous:
            known = ~np.isnan(x)                     # (n, Dc)
            filled = np.where(known, x, 0.0)
            # Per cluster/dimension effective weights over known entries.
            effective = weighted.T @ known           # (K, Dc)
            effective = np.maximum(effective, _LOG_FLOOR)
            means = (weighted.T @ filled) / effective
            square = (weighted.T @ (filled ** 2)) / effective
            variances = np.maximum(square - means ** 2, _VARIANCE_FLOOR)
            self.means = means
            self.variances = variances

        self.categorical = {}
        for position, attribute in enumerate(self._categorical):
            cardinality = max(attribute.cardinality, 1)
            column = codes[:, position]
            probs = np.full((self.cluster_count, cardinality),
                            1.0 / cardinality)
            known_rows = column >= 0
            if known_rows.any():
                counts_by_value = np.zeros((cardinality, self.cluster_count))
                np.add.at(counts_by_value, column[known_rows],
                          weighted[known_rows])
                counts = counts_by_value.T            # (K, cardinality)
                totals = counts.sum(axis=1, keepdims=True)
                probs = (counts + 0.5) / (totals + 0.5 * cardinality)
            self.categorical[position] = probs

    def _log_density(self, x, codes) -> np.ndarray:
        """(n, K) log joint density log pi_k + log p(case | cluster k)."""
        n = x.shape[0] if len(self._continuous) else codes.shape[0]
        log_density = np.tile(np.log(self.weights), (n, 1))
        if self._continuous:
            known = ~np.isnan(x)
            filled = np.where(known, x, 0.0)
            for cluster in range(self.cluster_count):
                mean = self.means[cluster]
                variance = self.variances[cluster]
                log_pdf = -0.5 * (np.log(2 * np.pi * variance) +
                                  (filled - mean) ** 2 / variance)
                log_density[:, cluster] += np.where(known, log_pdf, 0.0) \
                    .sum(axis=1)
        for position in range(len(self._categorical)):
            probs = self.categorical[position]
            column = codes[:, position]
            known_rows = column >= 0
            if known_rows.any():
                contribution = np.log(
                    np.maximum(probs[:, column[known_rows]], _LOG_FLOOR))
                log_density[known_rows] += contribution.T
        return log_density

    # -- prediction ---------------------------------------------------------------

    def _posterior(self, observation: Observation) -> np.ndarray:
        x, codes = self._matrices(
            np.array([observation.values], dtype=np.float64))
        log_density = self._log_density(x, codes)[0]
        log_density -= log_density.max()
        posterior = np.exp(log_density)
        return posterior / posterior.sum()

    def predict(self, observation: Observation) -> CasePrediction:
        self.require_trained()
        result = CasePrediction()
        posterior = self._posterior(observation)
        result.cluster_id = int(np.argmax(posterior)) + 1  # 1-based ids
        result.cluster_probabilities = [float(p) for p in posterior]

        for target in self.space.outputs():
            result.set(self._predict_attribute(target, posterior))
        return result

    def _predict_attribute(self, target: Attribute,
                           posterior: np.ndarray) -> AttributePrediction:
        if target.is_categorical:
            position = self._categorical.index(target)
            probs = self.categorical[position]      # (K, cardinality)
            mixed = posterior @ probs                # (cardinality,)
            distribution = CategoricalDistribution()
            support_scale = float(self.cluster_support.sum())
            for code, probability in enumerate(mixed):
                if probability > 0:
                    distribution.add(float(code),
                                     float(probability) * support_scale)
            return AttributePrediction.from_categorical(target, distribution)
        position = self._continuous.index(target)
        means = self.means[:, position]
        variances = self.variances[:, position]
        mean = float(posterior @ means)
        variance = float(posterior @ (variances + means ** 2) - mean ** 2)
        support = float(posterior @ self.cluster_support)
        bucket = PredictionBucket(mean, 1.0, support, max(variance, 0.0))
        return AttributePrediction(target, mean, None, support,
                                   max(variance, 0.0), [bucket])

    # -- content -----------------------------------------------------------------

    def content_nodes(self) -> ContentNode:
        self.require_trained()
        root = ContentNode("0", NODE_MODEL, self.space.definition.name,
                           description=f"EM clustering model "
                                       f"({self.cluster_count} clusters)",
                           support=float(self.cluster_support.sum()),
                           probability=1.0)
        total = float(self.cluster_support.sum()) or 1.0
        for cluster in range(self.cluster_count):
            rows = []
            for position, attribute in enumerate(self._continuous):
                rows.append(DistributionRow(
                    attribute.name, float(self.means[cluster, position]),
                    float(self.cluster_support[cluster]), 1.0,
                    float(self.variances[cluster, position])))
            for position, attribute in enumerate(self._categorical):
                probs = self.categorical[position][cluster]
                top = np.argsort(-probs)[:5]
                for code in top:
                    if probs[code] <= 0:
                        continue
                    rows.append(DistributionRow(
                        attribute.name, attribute.decode(float(code)),
                        float(self.cluster_support[cluster] * probs[code]),
                        float(probs[code])))
            root.add_child(ContentNode(
                f"0.{cluster}", NODE_CLUSTER, f"Cluster {cluster + 1}",
                description=f"Cluster {cluster + 1} "
                            f"({self.cluster_support[cluster]:.1f} cases)",
                support=float(self.cluster_support[cluster]),
                probability=float(self.cluster_support[cluster]) / total,
                distribution=rows))
        return root
