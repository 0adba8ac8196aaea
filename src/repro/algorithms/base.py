"""The mining-service plug-in interface and prediction result types.

A mining algorithm is "plugged in" (paper section 1) by subclassing
:class:`MiningAlgorithm` and registering it; the provider routes the USING
clause to the registry.  Algorithms receive the fitted
:class:`~repro.algorithms.attributes.AttributeSpace` and encoded
observations, and answer predictions as :class:`CasePrediction` objects from
which the prediction UDFs (Predict, PredictProbability, PredictHistogram,
...) extract their values.
"""

from __future__ import annotations

import abc
import functools
from itertools import compress
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from repro.errors import CapabilityError, NotTrainedError, SchemaError
from repro.obs import trace as obs_trace
from repro.obs import workload as obs_workload
from repro.algorithms.attributes import Attribute, AttributeSpace, Observation
from repro.algorithms.statistics import CategoricalDistribution, GaussianStats
from repro.core.content import ContentNode


class PredictionBucket:
    """One histogram entry of a prediction (paper section 3.2.4)."""

    __slots__ = ("value", "probability", "support", "variance")

    def __init__(self, value: Any, probability: float, support: float,
                 variance: Optional[float] = None):
        self.value = value
        self.probability = probability
        self.support = support
        self.variance = variance

    def __repr__(self) -> str:
        return (f"PredictionBucket({self.value!r}, p={self.probability:.4f}, "
                f"support={self.support:g})")


class AttributePrediction:
    """The full prediction for one attribute: best estimate plus histogram.

    "Predictions may convey not only simple information such as 'estimated
    age is 21' but ... additional statistical information ... a histogram
    provides multiple possible prediction values, each accompanied by a
    probability and other statistics."
    """

    def __init__(self, attribute: Attribute, value: Any,
                 probability: Optional[float], support: float,
                 variance: Optional[float],
                 histogram: List[PredictionBucket]):
        self.attribute = attribute
        self.value = value
        self.probability = probability
        self.support = support
        self.variance = variance
        self.histogram = histogram

    @classmethod
    def from_categorical(cls, attribute: Attribute,
                         distribution: CategoricalDistribution,
                         labels: Optional[Dict[Any, Any]] = None) \
            -> "AttributePrediction":
        """Build from a weighted value distribution over internal codes;
        ``labels`` is the codes' decoded form where the caller keeps it."""
        histogram = []
        for internal, weight in distribution.sorted_items():
            value = labels[internal] if labels is not None \
                else attribute.decode(internal)
            probability = weight / distribution.total if distribution.total \
                else 0.0
            histogram.append(PredictionBucket(value, probability, weight))
        if histogram:
            best = histogram[0]
            return cls(attribute, best.value, best.probability,
                       best.support, None, histogram)
        return cls(attribute, None, 0.0, 0.0, None, [])

    @classmethod
    def from_gaussian(cls, attribute: Attribute,
                      stats: GaussianStats) -> "AttributePrediction":
        if stats.sum_weight <= 0:
            return cls(attribute, None, None, 0.0, None, [])
        bucket = PredictionBucket(stats.mean, 1.0, stats.sum_weight,
                                  stats.variance)
        return cls(attribute, stats.mean, None, stats.sum_weight,
                   stats.variance, [bucket])

    def __repr__(self) -> str:
        return (f"AttributePrediction({self.attribute.name!r}, "
                f"{self.value!r}, p={self.probability})")


class CasePrediction:
    """Predictions for every output attribute of one case."""

    def __init__(self):
        self._by_index: Dict[int, AttributePrediction] = {}
        self.cluster_id: Optional[int] = None
        self.cluster_probabilities: List[float] = []
        self.cluster_distances: List[float] = []
        # Per nested-table recommendation histograms (association models):
        # upper-cased table name -> ranked PredictionBucket list.
        self.recommendations: Dict[str, List[PredictionBucket]] = {}

    def set(self, prediction: AttributePrediction) -> None:
        self._by_index[prediction.attribute.index] = prediction

    def get(self, attribute: Attribute) -> Optional[AttributePrediction]:
        return self._by_index.get(attribute.index)

    def __iter__(self):
        return iter(self._by_index.values())


def _not_persisted(service) -> CapabilityError:
    return CapabilityError(
        f"{service.SERVICE_NAME} does not persist its trained state (it "
        f"implements no state() / load_state()), so its models cannot be "
        f"checkpointed, saved or exported")


class MiningAlgorithm(abc.ABC):
    """Base class for pluggable mining services.

    Subclasses declare a ``SERVICE_NAME`` (the canonical USING name),
    optional ``ALIASES``, capability flags, and ``SUPPORTED_PARAMETERS``
    (name -> default), and implement :meth:`state` / :meth:`load_state`
    to be checkpointed, saved and exported.  The provider validates
    USING-clause parameters against that declaration, which is how the
    paper's "schema rowsets describe the capabilities and limitations of
    the provider" surfaces.
    """

    SERVICE_NAME: str = ""
    DISPLAY_NAME: str = ""
    ALIASES: tuple = ()
    SERVICE_TYPE_ID: int = 0
    PREDICTS_DISCRETE: bool = True
    PREDICTS_CONTINUOUS: bool = True
    SUPPORTS_NESTED_TABLES: bool = True
    SUPPORTS_INCREMENTAL: bool = False
    SUPPORTED_PARAMETERS: Dict[str, Any] = {}

    #: Prediction tables: whatever a service precomputes from its trained
    #: state so that scoring a case is lookups and adds (see
    #: :meth:`prediction_tables`).  Derived, never authoritative.
    _tables: Any = None

    def __init__(self, parameters: Optional[Dict[str, Any]] = None):
        parameters = dict(parameters or {})
        # Shared, space-level parameters are accepted by every service.
        shared = {"MAXIMUM_STATES", "MAXIMUM_ITEMS"}
        unknown = [name for name in parameters
                   if name not in self.SUPPORTED_PARAMETERS
                   and name not in shared]
        if unknown:
            raise SchemaError(
                f"algorithm {self.SERVICE_NAME} does not support "
                f"parameter(s) {', '.join(sorted(unknown))} (supported: "
                f"{', '.join(sorted(self.SUPPORTED_PARAMETERS)) or 'none'})")
        self.parameters = {**self.SUPPORTED_PARAMETERS, **parameters}
        self.space: Optional[AttributeSpace] = None
        self.trained = False

    def param(self, name: str) -> Any:
        return self.parameters[name]

    # -- life cycle -----------------------------------------------------------

    def train(self, space: AttributeSpace,
              observations: List[Observation]) -> None:
        """Consume the caseset (INSERT INTO semantics, section 3.3).

        A refit that fails or is cancelled leaves the previous space and
        its prediction tables in place; a service keeps its side of that
        by installing its trained state only once ``_train`` has it all.
        """
        obs_workload.check()
        previous = self.space
        self.space = space     # services read it while they train
        try:
            with obs_trace.region("algorithm.train",
                                  service=self.SERVICE_NAME):
                obs_trace.add("observations", len(observations))
                self._train(space, observations)
        except BaseException:
            self.space = previous
            raise
        self.drop_tables()
        self.trained = True

    def partial_train(self, observations: List[Observation]) -> None:
        """Fold additional observations into an already-trained model.

        Only services declaring ``SUPPORTS_INCREMENTAL`` implement this;
        the provider falls back to a full refit otherwise (and whenever the
        new cases contain values outside the fitted attribute space).
        """
        raise CapabilityError(
            f"{self.SERVICE_NAME} does not support incremental "
            f"maintenance; retrain with the full caseset")

    def note_pass(self, **counters: float) -> None:
        """Record one training pass on the active trace.

        Iterative services call this from their fitting loop so the
        statement's counters (``DM_QUERY_LOG`` totals) carry a
        ``training_passes`` count plus any extra per-pass counters the service supplies.  It
        doubles as the cooperative-cancellation checkpoint between passes:
        a ``CANCEL`` lands here, so long iterative fits stop at the next
        iteration boundary rather than running to completion.
        """
        obs_workload.checkpoint()
        obs_trace.add("training_passes", 1)
        for name, amount in counters.items():
            obs_trace.add(name, amount)

    def reset(self) -> None:
        """DELETE FROM semantics: drop learned content, keep the definition."""
        self.space = None
        self.trained = False
        self.drop_tables()

    # -- derived prediction state ---------------------------------------------

    def prediction_tables(self) -> Any:
        """The service's prediction tables, built from the trained state on
        first use and kept until that state changes.

        They belong to the trained model, not to a statement (a singleton
        PREDICTION JOIN must not pay for them), so everything that changes
        trained state calls :meth:`drop_tables`: ``train`` and ``reset``
        here, a service's own ``partial_train`` / ``merge``, and
        :meth:`restore`.  They are not pickled — a worker process rebuilds
        them from the state it received.  Concurrent readers may build them
        twice; both builds are equal and either may win.
        """
        tables = self._tables
        if tables is None:
            tables = self._tables = self._build_tables()
        return tables

    def _build_tables(self) -> Any:
        """Services that score from tables build them here."""
        return None

    def drop_tables(self) -> None:
        self._tables = None

    def __getstate__(self):
        return dict(self.__dict__, _tables=None)

    # -- persistence ----------------------------------------------------------

    def state(self) -> Dict[str, Any]:
        """The trained state as canonical JSON-able data: what EXPORT,
        ``save_provider`` and a durable checkpoint write, and what
        :meth:`load_state` takes back.  A service persists when it
        overrides this pair (``register_algorithm`` refuses one without
        the other); the default refuses."""
        raise _not_persisted(type(self))

    def load_state(self, space: AttributeSpace,
                   state: Dict[str, Any]) -> None:
        """Install what :meth:`state` returned, over the restored
        ``space`` (already on ``self.space``).  Derived state is dropped
        and ``trained`` set by :meth:`restore`, the caller."""
        raise _not_persisted(type(self))

    def restore(self, space: AttributeSpace, state: Dict[str, Any]) -> None:
        """Make this untrained service the one :meth:`state` described."""
        self.space = space
        self.load_state(space, state)
        self.drop_tables()
        self.trained = True

    @classmethod
    def require_persistence(cls) -> None:
        """Raise unless the service can save and restore its state."""
        if cls.state is MiningAlgorithm.state:
            raise _not_persisted(cls)

    def require_trained(self) -> None:
        if not self.trained:
            raise NotTrainedError(
                f"model using {self.SERVICE_NAME} has not been trained "
                f"(INSERT INTO it first)")

    @abc.abstractmethod
    def _train(self, space: AttributeSpace,
               observations: List[Observation]) -> None:
        """Algorithm-specific training."""

    @abc.abstractmethod
    def predict(self, observation: Observation) -> CasePrediction:
        """Predict all output attributes for one encoded case."""

    def predict_many(self, observations: Sequence[Observation],
                     reads: Optional[Set[int]] = None) \
            -> Iterable[CasePrediction]:
        """Predict a batch of encoded cases, in order: the entry the
        prediction join scores every batch of two or more through when it
        reads more than predicted values (:meth:`MiningModel.predict_cases`
        hands it what :meth:`AttributeSpace.encode_many` returned, so
        :meth:`CaseMatrix.of` finds the batch's matrix already built).
        The default predicts each observation as it is asked for; a
        tabular service overrides it to do its look-ups and adds once per
        batch, over the matrix.  Either way the result is a lazy iterable
        — a prediction object is built as it is taken — and must equal
        ``[predict(o) for o in observations]`` exactly in what is read.

        ``reads`` says what that is: None, everything; otherwise the set of
        output attribute indices read — a service may leave out any other.
        """
        return map(self.predict, observations)

    def predict_values(self, observations: Sequence[Observation],
                       attributes: Sequence[Attribute]) -> List[list]:
        """Per attribute, the column of the cases' predicted ``.value`` —
        the training marginals' where the service has no prediction for
        it: what a batch that reads nothing else of its predictions asks
        for.  The default reads them off :meth:`predict_many`; a tabular
        service overrides it to build no prediction object at all, and
        must equal the default exactly."""
        return self.value_columns(
            list(self.predict_many(observations,
                                   {a.index for a in attributes})),
            attributes)

    def value_columns(self, predictions: Sequence[CasePrediction],
                      attributes: Sequence[Attribute]) -> List[list]:
        """Per attribute, the ``.value`` of its prediction in each of
        ``predictions``, the training marginals' where one has none."""
        marginal = functools.cache(self.marginal_prediction)
        return [[(prediction.get(attribute) or marginal(attribute)).value
                 for prediction in predictions] for attribute in attributes]

    def _completed(self, observations, attributes: Sequence[Attribute],
                   computed: Dict[int, list], redo) -> List[list]:
        """What a tabular :meth:`predict_values` returns: per attribute its
        column in ``computed`` (by index), else the marginals' value for
        every case — and, for every case ``redo`` marks, the values
        :meth:`predict` gives it."""
        columns = [computed[a.index] if a.index in computed else
                   [self.marginal_prediction(a).value] * len(redo)
                   for a in attributes]
        for row in compress(range(len(redo)), redo.tolist()):
            for column, (value,) in zip(columns, self.value_columns(
                    [self.predict(observations[row])], attributes)):
                column[row] = value
        return columns

    @abc.abstractmethod
    def content_nodes(self) -> ContentNode:
        """The model content graph (root node)."""

    # -- shared helpers -------------------------------------------------------

    def marginal_prediction(self, attribute: Attribute) -> AttributePrediction:
        """Fallback prediction from the training marginals."""
        self.require_trained()
        marginal = self.space.marginals[attribute.index]
        if attribute.is_categorical:
            return AttributePrediction.from_categorical(attribute, marginal)
        return AttributePrediction.from_gaussian(attribute, marginal)

    def describe(self) -> Dict[str, Any]:
        """Service self-description for the MINING_SERVICES schema rowset."""
        return {
            "SERVICE_NAME": self.SERVICE_NAME,
            "DISPLAY_NAME": self.DISPLAY_NAME or self.SERVICE_NAME,
            "PREDICTS_DISCRETE": self.PREDICTS_DISCRETE,
            "PREDICTS_CONTINUOUS": self.PREDICTS_CONTINUOUS,
            "SUPPORTS_NESTED_TABLES": self.SUPPORTS_NESTED_TABLES,
            "SUPPORTS_INCREMENTAL": self.SUPPORTS_INCREMENTAL,
            "SUPPORTS_PARALLEL_TRAINING": False,
        }
