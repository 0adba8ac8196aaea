"""The mining model object: a first-class, table-like catalog entity.

Section 2 of the paper: a DMM "can be defined via the CREATE statement ...
populated, possibly repeatedly via the INSERT INTO statement ... emptied
(reset) via the DELETE statement" and "is populated by consuming a rowset but
its own internal structure can be more abstract".  :class:`MiningModel`
carries the compiled definition, the algorithm instance created from the
USING clause, the fitted attribute space, and the learned content.

Repeated INSERT INTO statements accumulate cases and refresh (retrain) the
model over the union — the model-maintenance story the paper calls out as
neglected by prior work.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, \
    Set

from repro.errors import NotTrainedError, TrainError
from repro.core.bindings import CaseBatch
from repro.core.columns import ModelDefinition
from repro.core.content import ContentNode
from repro.algorithms.attributes import Attribute, AttributeSpace
from repro.algorithms.base import CasePrediction, MiningAlgorithm
from repro.algorithms.registry import create_algorithm
from repro.exec.locks import RWLock


class MiningModel:
    """One mining model in the provider catalog."""

    def __init__(self, definition: ModelDefinition):
        self.definition = definition
        self.algorithm: MiningAlgorithm = create_algorithm(
            definition.algorithm, definition.parameters)
        self.space: Optional[AttributeSpace] = None
        self.training_cases: List[CaseBatch] = []
        self.insert_count = 0       # number of INSERT INTO statements consumed
        # What :meth:`derived` has built from the trained state and the
        # caseset: the content graph, the snapshot entry.  Not pickled.
        self._derived: Dict[str, Any] = {}
        # Concurrency: predictions/content reads share, training/reset/DROP
        # are exclusive.  Not pickled — recreated on unpickle.  The name
        # keys the DM_LOCK_WAITS contention table.
        self.lock = RWLock(name=f"model:{definition.name.upper()}")

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("lock", None)
        state.pop("_derived", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._derived = {}
        self.lock = RWLock(name=f"model:{self.definition.name.upper()}")

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def is_trained(self) -> bool:
        return self.algorithm.trained

    @property
    def case_count(self) -> int:
        return sum(map(len, self.training_cases))

    # -- life cycle -----------------------------------------------------------

    @property
    def can_absorb(self) -> bool:
        """Whether the next INSERT may be absorbed incrementally rather
        than refit — provided every new case fits the fitted space."""
        return (self.is_trained and self.space is not None and
                self.algorithm.SUPPORTS_INCREMENTAL)

    def train(self, cases: List[CaseBatch], consume=None) -> int:
        """Consume a caseset (INSERT INTO semantics); returns cases consumed.

        Cases accumulate across INSERT statements.  Services that declare
        ``SUPPORTS_INCREMENTAL`` absorb the new cases into the existing
        model when every case fits the fitted attribute space (same
        categories, items, and discretizer ranges); otherwise — and for all
        other services — the algorithm retrains over the full accumulated
        caseset, so a second INSERT acts as a refresh with more data.

        ``consume(cases)`` is what absorbs or refits once the cases are
        appended — :meth:`consume` by default, the training plan's steps
        when a plan runs (:func:`repro.exec.partition.plan_train`).
        """
        count = sum(map(len, cases))
        if not count:
            raise TrainError(
                f"INSERT INTO {self.name!r}: the source produced no cases")
        before = len(self.training_cases)
        self.training_cases.extend(cases)
        self.insert_count += 1
        try:
            (consume or self.consume)(cases)
        except BaseException:
            # A failed (or cancelled) refit must not leave this INSERT's
            # cases in the accumulated caseset: the next INSERT would then
            # silently train over data no acknowledged statement delivered.
            del self.training_cases[before:]
            self.insert_count -= 1
            raise
        finally:
            # Absorbed, refit or rolled back:
            # whatever was derived before or during this call is stale.
            self._invalidate_derived()
        return count

    def consume(self, cases: List[CaseBatch]) -> None:
        """Absorb the appended ``cases`` if they fit, else refit serially."""
        if not self.absorb(cases):
            self.refit(self.fit_schema())

    def absorb(self, cases: List[CaseBatch]) -> int:
        """Fold ``cases`` into the trained model incrementally; the number
        absorbed, 0 when the service or the fitted space does not allow
        it (nothing changed then)."""
        if not self.can_absorb or not self.space.covers(cases):
            return 0
        observations = self.space.encode_many(cases)
        self.algorithm.partial_train(observations)
        self.space.absorb(observations, len(observations))
        return len(observations)

    def fit_schema(self) -> AttributeSpace:
        """A fresh space with the dictionary pass over the whole caseset
        done and its marginals still unfitted — what a refit starts from."""
        space = AttributeSpace(self.definition)
        space.fit_schema(self.training_cases)
        return space

    def refit(self, space: AttributeSpace) -> int:
        """Train the algorithm afresh over the whole caseset in the
        schema-fitted ``space``; returns the cases trained on."""
        observations = space.encode_many(self.training_cases)
        space.marginals_from_observations(observations)
        self.algorithm.train(space, observations)
        self.space = space
        return len(observations)

    def adopt_cases(self, cases: List[CaseBatch]) -> None:
        """Install a restored caseset without retraining (snapshot restore).

        The trained state travels separately (PMML); adopting the cases a
        snapshot preserved means a *subsequent* INSERT INTO still refreshes
        over the full accumulated history, exactly as if the process had
        never died.
        """
        self.training_cases = list(cases)
        self._invalidate_derived()

    def reset(self) -> None:
        """DELETE FROM semantics: drop content, keep the definition."""
        self.training_cases = []
        self.insert_count = 0
        self.space = None
        self._invalidate_derived()
        self.algorithm.reset()

    def require_trained(self) -> None:
        if not self.is_trained or self.space is None:
            raise NotTrainedError(
                f"model {self.name!r} is not populated; INSERT INTO it "
                f"before predicting or browsing content")

    # -- prediction -----------------------------------------------------------

    def predict_cases(self, cases: CaseBatch,
                      reads: Optional[Set[int]] = None) \
            -> Iterable[CasePrediction]:
        """Encode and score a batch of bound cases, in order — the
        prediction entry behind the prediction join (when it reads more
        than values) and the external pipeline.  The batch is encoded as
        one matrix (:meth:`AttributeSpace.encode_many`) and handed to the
        service's ``predict_many`` whole, with ``reads`` (see there); a
        prediction object is built when it is taken.  A batch of one — the
        singleton PREDICTION JOIN — is the per-case ``encode`` +
        ``predict``: 9.3 us against 40 us through the arrays (naive Bayes,
        two inputs), and the two are equal by ``predict_many``'s
        contract."""
        self.require_trained()
        if len(cases) == 1:
            return map(self.algorithm.predict, map(self.space.encode, cases))
        return self.algorithm.predict_many(self.space.encode_many(cases),
                                           reads=reads)

    def predict_values(self, cases: CaseBatch,
                       attributes: Sequence[Attribute]) -> List[list]:
        """Encode a batch of bound cases and return, per attribute, the
        column of their predicted values (the service's
        ``predict_values``); a batch of one is ``encode`` + ``predict``,
        as in :meth:`predict_cases`."""
        self.require_trained()
        algorithm = self.algorithm
        if len(cases) == 1:
            return algorithm.value_columns(
                [algorithm.predict(self.space.encode(cases[0]))], attributes)
        return algorithm.predict_values(self.space.encode_many(cases),
                                        attributes)

    # -- content --------------------------------------------------------------

    def content_root(self) -> ContentNode:
        """The (cached) content graph of section 3.3."""
        self.require_trained()
        return self.derived("content_root", self.algorithm.content_nodes)

    # -- derived state --------------------------------------------------------

    def derived(self, key: str, build: Callable[[], Any]) -> Any:
        """``build()``, remembered until the model next changes.

        For values that are a function of the trained state and the
        accumulated caseset.  The holder is taken before ``build`` runs, so
        a value built while the model was changing lands in a holder
        :meth:`_invalidate_derived` has already replaced and is never
        served.
        """
        holder = self._derived
        try:
            return holder[key]
        except KeyError:
            value = holder[key] = build()
            return value

    def _invalidate_derived(self) -> None:
        """Follows every write to the trained state or the caseset."""
        self._derived = {}

    def __repr__(self) -> str:
        state = f"trained on {self.case_count} cases" if self.is_trained \
            else "not trained"
        return (f"MiningModel({self.name!r}, "
                f"USING {self.algorithm.SERVICE_NAME}, {state})")
