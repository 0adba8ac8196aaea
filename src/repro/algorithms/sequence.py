"""Sequence-clustering mining service (mixture of Markov chains).

The paper lists "sequence analysis" among the capabilities a provider
advertises; this service implements it for nested tables carrying a
SEQUENCE_TIME column.  Each cluster is a first-order Markov chain (initial
distribution + transition matrix), fitted by EM over whole sequences.
Prediction assigns a cluster and ranks next states given the case's last
observed state, publishing them as the nested table's recommendation
histogram (consumed by PredictHistogram / TopCount, like association
recommendations).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import TrainError
from repro.algorithms.attributes import AttributeSpace, Observation
from repro.algorithms.base import (
    CasePrediction,
    MiningAlgorithm,
    PredictionBucket,
)
from repro.core.content import (
    NODE_CLUSTER,
    NODE_MODEL,
    NODE_SEQUENCE,
    ContentNode,
    DistributionRow,
)

_FLOOR = 1e-9


class SequenceClusteringAlgorithm(MiningAlgorithm):
    """EM over a mixture of first-order Markov chains."""

    SERVICE_NAME = "Repro_Sequence_Clustering"
    DISPLAY_NAME = "Sequence Clustering (reproduction)"
    ALIASES = ("Microsoft_Sequence_Clustering", "Sequence_Clustering")
    SERVICE_TYPE_ID = 7
    PREDICTS_DISCRETE = True
    PREDICTS_CONTINUOUS = False
    SUPPORTED_PARAMETERS = {
        "CLUSTER_COUNT": 4,
        "MAX_ITERATIONS": 40,
        "CLUSTER_SEED": 42,
        "STOPPING_TOLERANCE": 1e-4,
    }

    def __init__(self, parameters=None):
        super().__init__(parameters)
        self.states: List[Any] = []
        self._state_index: Dict[Any, int] = {}
        self.cluster_count = 0
        self.mixture: Optional[np.ndarray] = None     # (K,)
        self.initial: Optional[np.ndarray] = None     # (K, S)
        self.transition: Optional[np.ndarray] = None  # (K, S, S)
        self.cluster_support: Optional[np.ndarray] = None
        self._table_name: Optional[str] = None

    # -- persistence ------------------------------------------------------------

    def state(self) -> dict:
        return {
            "table": self._table_name,
            "states": self.states,
            "cluster_count": self.cluster_count,
            "mixture": self.mixture.tolist(),
            "initial": self.initial.tolist(),
            "transition": self.transition.tolist(),
            "cluster_support": self.cluster_support.tolist(),
        }

    def load_state(self, space: AttributeSpace, state: dict) -> None:
        self._table_name = state["table"]
        self.states = state["states"]
        self._state_index = {s: i for i, s in enumerate(self.states)}
        self.cluster_count = state["cluster_count"]
        self.mixture = np.array(state["mixture"])
        self.initial = np.array(state["initial"])
        self.transition = np.array(state["transition"])
        self.cluster_support = np.array(state["cluster_support"])

    # -- training -------------------------------------------------------------

    def _encode_sequences(self, observations: List[Observation]):
        sequences = []
        for observation in observations:
            raw = observation.sequences.get(self._table_name.upper(), [])
            encoded = [self._state_index[s] for s in raw
                       if s in self._state_index]
            sequences.append((encoded, observation.weight))
        return sequences

    def _train(self, space: AttributeSpace,
               observations: List[Observation]) -> None:
        tables = [t for t in space.definition.nested_tables()
                  if observations and
                  t.name.upper() in observations[0].sequences]
        if not tables:
            raise TrainError(
                f"{self.SERVICE_NAME} requires a nested TABLE with a "
                f"SEQUENCE_TIME column; model {space.definition.name!r} "
                f"has none")
        table = tables[0]
        self._table_name = table.name

        seen: Dict[Any, int] = {}
        for observation in observations:
            for state in observation.sequences.get(table.name.upper(), []):
                if state is not None and state not in seen:
                    seen[state] = len(seen)
        if not seen:
            raise TrainError("no sequence states found in the caseset")
        self.states = list(seen)
        self._state_index = seen
        state_count = len(self.states)

        k = min(int(self.param("CLUSTER_COUNT")), len(observations))
        self.cluster_count = max(k, 1)
        sequences = self._encode_sequences(observations)
        n = len(sequences)
        rng = np.random.RandomState(int(self.param("CLUSTER_SEED")))
        responsibilities = rng.dirichlet(np.ones(self.cluster_count), size=n)

        weights = np.array([w for _, w in sequences])
        previous = None
        for _ in range(int(self.param("MAX_ITERATIONS"))):
            self._m_step(sequences, responsibilities, state_count)
            log_likelihoods = self._sequence_log_likelihoods(sequences)
            peak = log_likelihoods.max(axis=1, keepdims=True)
            posterior = np.exp(log_likelihoods - peak)
            log_norm = peak[:, 0] + np.log(posterior.sum(axis=1))
            posterior /= posterior.sum(axis=1, keepdims=True)
            responsibilities = posterior
            total = float((weights * log_norm).sum())
            if previous is not None and \
                    abs(total - previous) < \
                    float(self.param("STOPPING_TOLERANCE")) * max(n, 1):
                break
            previous = total
        self._m_step(sequences, responsibilities, state_count)
        self.cluster_support = (responsibilities * weights[:, None]).sum(axis=0)

    def _m_step(self, sequences, responsibilities, state_count) -> None:
        k = self.cluster_count
        mixture = np.full(k, _FLOOR)
        initial = np.full((k, state_count), 0.5)
        transition = np.full((k, state_count, state_count), 0.5)
        for (sequence, weight), responsibility in zip(sequences,
                                                      responsibilities):
            for cluster in range(k):
                share = weight * responsibility[cluster]
                mixture[cluster] += share
                if sequence:
                    initial[cluster, sequence[0]] += share
                    for a, b in zip(sequence, sequence[1:]):
                        transition[cluster, a, b] += share
        self.mixture = mixture / mixture.sum()
        self.initial = initial / initial.sum(axis=1, keepdims=True)
        self.transition = transition / transition.sum(axis=2, keepdims=True)

    def _sequence_log_likelihoods(self, sequences) -> np.ndarray:
        log_initial = np.log(self.initial)
        log_transition = np.log(self.transition)
        log_mixture = np.log(self.mixture)
        result = np.zeros((len(sequences), self.cluster_count))
        for row, (sequence, _) in enumerate(sequences):
            scores = log_mixture.copy()
            if sequence:
                scores = scores + log_initial[:, sequence[0]]
                for a, b in zip(sequence, sequence[1:]):
                    scores = scores + log_transition[:, a, b]
            result[row] = scores
        return result

    # -- prediction -------------------------------------------------------------

    def predict(self, observation: Observation) -> CasePrediction:
        self.require_trained()
        result = CasePrediction()
        raw = observation.sequences.get(self._table_name.upper(), [])
        sequence = [self._state_index[s] for s in raw
                    if s in self._state_index]
        scores = self._sequence_log_likelihoods([(sequence, 1.0)])[0]
        scores -= scores.max()
        posterior = np.exp(scores)
        posterior /= posterior.sum()
        result.cluster_id = int(posterior.argmax()) + 1
        result.cluster_probabilities = [float(p) for p in posterior]

        # Next-state distribution mixed over clusters.
        if sequence:
            next_probs = posterior @ self.transition[:, sequence[-1], :]
        else:
            next_probs = posterior @ self.initial
        support_scale = float(self.cluster_support.sum())
        buckets = [
            PredictionBucket(self.states[state], float(p),
                             float(p) * support_scale)
            for state, p in enumerate(next_probs)]
        buckets.sort(key=lambda b: (-b.probability, str(b.value)))
        result.recommendations = {self._table_name.upper(): buckets}
        return result

    # -- content ---------------------------------------------------------------

    def content_nodes(self) -> ContentNode:
        self.require_trained()
        total = float(self.cluster_support.sum()) or 1.0
        root = ContentNode(
            "0", NODE_MODEL, self.space.definition.name,
            description=f"Sequence clustering: {self.cluster_count} "
                        f"Markov chains over {len(self.states)} states",
            support=total, probability=1.0)
        for cluster in range(self.cluster_count):
            support = float(self.cluster_support[cluster])
            cluster_node = root.add_child(ContentNode(
                f"0.{cluster}", NODE_CLUSTER, f"Chain {cluster + 1}",
                support=support, probability=support / total,
                distribution=[
                    DistributionRow("(initial)", self.states[state],
                                    support * float(p), float(p))
                    for state, p in enumerate(self.initial[cluster])
                    if p > 0.01]))
            for state in range(len(self.states)):
                rows = [DistributionRow(
                    str(self.states[state]), self.states[target],
                    support * float(p), float(p))
                    for target, p in enumerate(
                        self.transition[cluster, state])
                    if p > 0.01]
                cluster_node.add_child(ContentNode(
                    f"0.{cluster}.{state}", NODE_SEQUENCE,
                    f"from {self.states[state]!r}",
                    support=support, probability=1.0, distribution=rows))
        return root
