"""The attribute space: the case representation every algorithm consumes.

The paper's pluggability story rests on giving any algorithm the same view of
a case.  ``AttributeSpace`` compiles a model's column tree into a flat list of
:class:`Attribute` and encodes each :class:`MappedCase` into an
:class:`Observation` (a value vector plus weights):

* scalar ATTRIBUTE/RELATION columns become categorical or continuous
  attributes (DISCRETIZED columns are bucketed by the fitted discretizer;
  MODEL_EXISTENCE_ONLY columns become present/absent booleans);
* each frequent key value of a nested table becomes an *existence* attribute
  ("does this case contain TV?") — the paper's "truth table" reading of a
  model, where a case is characterised by which nested rows it contains;
* non-key CONTINUOUS columns of a nested table become per-item value
  attributes ("Quantity of TV"), missing when the item is absent;
* PROBABILITY qualifiers become per-attribute observation confidences and
  SUPPORT qualifiers become case weights (section 3.2.1).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from itertools import chain, compress
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import TrainError
from repro.core.bindings import (
    CaseBatch,
    MappedCase,
    case_batches,
    column_runs,
)
from repro.core.columns import (
    AttributeType,
    ContentRole,
    ModelColumn,
    ModelDefinition,
)
from repro.algorithms.discretization import Discretizer, fit_discretizer
from repro.algorithms.statistics import (
    CategoricalDistribution,
    GaussianStats,
    sequential_sum,
    stat_from_json,
)

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"

DEFAULT_MAXIMUM_STATES = 100
DEFAULT_MAXIMUM_ITEMS = 500


class Attribute:
    """One dimension of the attribute space."""

    def __init__(self, index: int, name: str, kind: str,
                 is_input: bool, is_output: bool,
                 column: Optional[ModelColumn] = None,
                 table: Optional[ModelColumn] = None,
                 key_value: Any = None,
                 value_column: Optional[ModelColumn] = None,
                 categories: Optional[List[Any]] = None,
                 discretizer: Optional[Discretizer] = None,
                 is_existence: bool = False):
        self.index = index
        self.name = name
        self.kind = kind
        self.is_input = is_input
        self.is_output = is_output
        self.column = column          # scalar model column (if any)
        self.table = table            # owning nested table (if any)
        self.key_value = key_value    # nested item value for existence attrs
        self.value_column = value_column  # nested value column, if per-item
        self.categories = categories or []
        self._category_index = {_norm(v): i
                                for i, v in enumerate(self.categories)}
        self.discretizer = discretizer
        self.is_existence = is_existence

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL

    @property
    def cardinality(self) -> int:
        return len(self.categories) if self.is_categorical else 0

    def encode(self, value: Any) -> Optional[float]:
        """Raw value -> internal representation (None = missing)."""
        if value is None:
            return None
        if self.discretizer is not None:
            return self.discretizer.bucket_of(float(value))
        if self.is_categorical:
            return self._category_index.get(_norm(value))
        return float(value)

    def state_key(self, code: int) -> Any:
        """Category ``code`` as :meth:`AttributeSpace.encode` spells it in
        an observation — ``0.0`` / ``1.0`` under an existence attribute,
        the ``int`` code elsewhere — which is how trained statistics key
        their counts (a service's ``state()`` writes the keys out)."""
        return float(code) if self.is_existence else code

    def decode(self, internal: Optional[float]) -> Any:
        """Internal representation -> display value."""
        if internal is None:
            return None
        if self.discretizer is not None:
            return self.discretizer.label(int(internal))
        if self.is_categorical:
            index = int(internal)
            if 0 <= index < len(self.categories):
                return self.categories[index]
            return None
        return internal

    def __repr__(self) -> str:
        flags = []
        if self.is_input:
            flags.append("input")
        if self.is_output:
            flags.append("output")
        return f"Attribute({self.index}, {self.name!r}, {self.kind}, {'/'.join(flags)})"


def _norm(value: Any) -> Any:
    """Category identity: case-insensitive for strings, numeric-widened."""
    if isinstance(value, str):
        return value.upper()
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    return value


def _tally(distribution: CategoricalDistribution, values: list,
           weights: np.ndarray) -> None:
    """``distribution.add(value, weight)`` for each pair of the parallel
    ``values`` and ``weights`` whose value is not None, in order, as one
    ``bincount``.  Bit for bit what the loop leaves: each key spelled and
    placed where it was first added (``1``, ``1.0`` and ``True`` are one
    key), its weights added in order after the count it already had, and
    a pair of weight <= 0 never seen."""
    unseen = weights <= 0
    if unseen.any():
        values = list(compress(values, (~unseen).tolist()))
        weights = weights[~unseen]
    counts = distribution.counts
    index = {value: code for code, value in
             enumerate(dict.fromkeys(chain(counts, values)))}
    codes = np.fromiter(map(index.__getitem__, values), np.intp, len(values))
    if None in index:
        kept = codes != index[None]
        codes, weights = codes[kept], weights[kept]
    sums = np.bincount(
        np.concatenate((np.arange(len(counts), dtype=np.intp), codes)),
        np.concatenate((list(counts.values()), weights)),
        minlength=len(index)).tolist()
    distribution.counts = {value: total for value, total in zip(index, sums)
                           if value is not None}
    distribution.total = sequential_sum(weights, distribution.total)


class Observation:
    """One encoded case: value vector, case weight, optional confidences.

    ``sequences`` holds, per nested table with a SEQUENCE_TIME column, the
    case's state values in time order (used by the sequence service).
    """

    __slots__ = ("values", "weight", "confidences", "case_key", "sequences")

    def __init__(self, values: List[Optional[float]], weight: float = 1.0,
                 confidences: Optional[Dict[int, float]] = None,
                 case_key: Any = None,
                 sequences: Optional[Dict[str, List[Any]]] = None):
        self.values = values
        self.weight = weight
        self.confidences = confidences or {}
        self.case_key = case_key
        self.sequences = sequences or {}

    def confidence(self, index: int) -> float:
        return self.confidences.get(index, 1.0)

    def effective_weight(self, index: int) -> float:
        """Weight of this observation for one attribute (weight x confidence)."""
        return self.weight * self.confidences.get(index, 1.0)


class CaseMatrix:
    """One encoded caseset as arrays: what a refit counts from and a batch
    is scored from.

    ``values``       ``float64``, cases x attributes, in case order; NaN is
                     a missing value, a category is its code;
    ``weights``      the case weights;
    ``confidences``  ``{attribute index: column}`` for the attributes some
                     case carries a PROBABILITY for (1.0 where it does not).

    :meth:`AttributeSpace.encode_many` fills one straight from the mapped
    cases; :meth:`of` derives one from observations that came from
    elsewhere.  Owned by nobody's trained state: marginals, training and
    scoring read it during one statement and keep only what they computed.
    """

    __slots__ = ("values", "weights", "confidences")

    def __init__(self, values: np.ndarray, weights: np.ndarray,
                 confidences: Dict[int, np.ndarray]):
        self.values = values
        self.weights = weights
        self.confidences = confidences

    @classmethod
    def of(cls, observations: Sequence[Observation],
           width: int) -> "CaseMatrix":
        """The matrix of ``observations``: the one :meth:`AttributeSpace.
        encode_many` built with them, or, for any other sequence, a fresh
        one read off the observations case by case."""
        if isinstance(observations, EncodedCases):
            return observations.matrix
        count = len(observations)
        confidences: Dict[int, np.ndarray] = {}
        for row, observation in enumerate(observations):
            for index, confidence in observation.confidences.items():
                column = confidences.get(index)
                if column is None:
                    column = confidences[index] = np.ones(count)
                column[row] = confidence
        return cls(
            np.array([o.values for o in observations],
                     dtype=np.float64).reshape(count, width),
            np.array([o.weight for o in observations], dtype=np.float64),
            confidences)

    @classmethod
    def concat(cls, matrices: List["CaseMatrix"]) -> "CaseMatrix":
        """The matrix of the parts' cases, in order (one part at least)."""
        return cls(
            np.concatenate([matrix.values for matrix in matrices]),
            np.concatenate([matrix.weights for matrix in matrices]),
            {index: np.concatenate([matrix.confidences.get(
                index, np.ones(len(matrix.weights))) for matrix in matrices])
             for index in dict.fromkeys(chain.from_iterable(
                 matrix.confidences for matrix in matrices))})

    def take(self, rows: List[int]) -> "CaseMatrix":
        """The matrix of the cases at ``rows`` (a confidence column stays,
        if all 1.0, where none of them carries a PROBABILITY)."""
        return CaseMatrix(self.values[rows], self.weights[rows], {
            index: column[rows] for index, column in self.confidences.items()})

    def effective_weights(self, index: int) -> np.ndarray:
        """Per case, ``Observation.effective_weight(index)``."""
        confidence = self.confidences.get(index)
        if confidence is None:
            return self.weights
        return self.weights * confidence

    def known(self, index: int):
        """``(rows, values)`` of the cases that have attribute ``index``,
        in case order."""
        column = self.values[:, index]
        rows = np.flatnonzero(~np.isnan(column))
        return rows, column[rows]


class EncodedCases(Sequence):
    """What :meth:`AttributeSpace.encode_many` returns: the batch's
    :class:`CaseMatrix`, built straight from the mapped cases, and — as a
    read-only sequence — their :class:`Observation`s, which exist only
    once something asks for them: iterating (or slicing) derives the whole
    list through the per-case :meth:`AttributeSpace.encode` and keeps it,
    ``cases[i]`` before that encodes case ``i`` alone.  Marginals, naive
    Bayes and the decision tree read ``matrix`` and never ask."""

    __slots__ = ("matrix", "_space", "_cases", "_observations")

    def __init__(self, space: "AttributeSpace", cases: List[MappedCase],
                 matrix: CaseMatrix):
        self.matrix = matrix
        self._space = space
        self._cases = cases
        self._observations: Optional[List[Observation]] = None

    def __len__(self) -> int:
        return len(self._cases)

    def _derived(self) -> List[Observation]:
        if self._observations is None:
            self._observations = list(map(self._space.encode, self._cases))
        return self._observations

    def __iter__(self):
        return iter(self._derived())

    def __getitem__(self, index):
        if self._observations is None and isinstance(index, int):
            return self._space.encode(self._cases[index])
        return self._derived()[index]


class AttributeSpace:
    """Fitted attribute dictionary + encoder for one mining model."""

    def __init__(self, definition: ModelDefinition):
        self.definition = definition
        self.attributes: List[Attribute] = []
        self.case_count = 0
        self.total_weight = 0.0
        self.marginals: List[Any] = []  # CategoricalDistribution | GaussianStats
        self.relations: Dict[Tuple[str, str], Dict[Any, Any]] = {}
        self._by_name: Dict[str, Attribute] = {}
        # The encoder's slot plan: derived from ``attributes``, built on
        # first use, dropped when an attribute is added, never pickled.
        self._slots = None
        maximum_states = definition.parameters.get("MAXIMUM_STATES",
                                                   DEFAULT_MAXIMUM_STATES)
        maximum_items = definition.parameters.get("MAXIMUM_ITEMS",
                                                  DEFAULT_MAXIMUM_ITEMS)
        self.maximum_states = int(maximum_states)
        self.maximum_items = int(maximum_items)

    def __getstate__(self):
        return dict(self.__dict__, _slots=None)

    # -- fitting --------------------------------------------------------------

    def fit(self, cases: List[MappedCase]) -> None:
        """Build the attribute dictionary and marginals from training cases."""
        self.fit_schema(cases)
        self.marginals_from_observations(self.encode_many(cases))

    def fit_schema(self, cases: Sequence[MappedCase]) -> None:
        """The dictionary pass only: attributes, relations, discretizers.

        After this the space can :meth:`encode` cases, but marginals are
        unfitted — :meth:`marginals_from_observations` fits them from the
        encoded caseset.

        The pass reads columns, never a case's dicts: per run of the
        caseset (:func:`~repro.core.bindings.column_runs`) one
        :func:`_tally` per counted column, the discretizers' value lists
        and the ``RELATED TO`` maps off the nested columns, and the case
        weights from :meth:`CaseBatch.weights` — what one
        ``CategoricalDistribution.add`` per case and value left.
        """
        if not cases:
            raise TrainError(
                f"model {self.definition.name!r}: the training caseset is "
                f"empty")
        self.case_count = len(cases)
        # A second fit starts over rather than on top of the first.
        self.attributes, self._by_name, self._slots = [], {}, None
        self.relations, self.total_weight = {}, 0.0
        scalar_columns = self.definition.scalar_attributes()
        observed = {column.name.upper(): CategoricalDistribution()
                    for column in scalar_columns}
        numeric_values: Dict[str, List[float]] = {
            column.name.upper(): [] for column in scalar_columns}
        item_counts = {table.name.upper(): CategoricalDistribution()
                       for table in self.definition.nested_tables()}

        for batch in column_runs(cases):
            weights = np.array(batch.weights(), dtype=np.float64)
            self.total_weight = sequential_sum(weights, self.total_weight)
            absent = [None] * len(batch)
            columns = {key: values for key, kind, values in batch.columns
                       if kind is None}       # a later key replaces
            for column in scalar_columns:
                key = column.name.upper()
                values = columns.get(key, absent)
                if column.model_existence_only:
                    _tally(observed[key],
                           [value is not None for value in values], weights)
                elif column.attribute_type in (AttributeType.CONTINUOUS,
                                               AttributeType.DISCRETIZED):
                    numeric_values[key] += [float(value) for value in values
                                            if value is not None]
                else:
                    _tally(observed[key], values, weights)
            self._fit_items(batch, weights, item_counts)

        self._build_attributes(scalar_columns, observed, numeric_values,
                               item_counts)

    def _fit_items(self, batch: CaseBatch, weights: np.ndarray,
                   item_counts: Dict[str, CategoricalDistribution]) -> None:
        """The nested half of :meth:`fit_schema` over one run: item counts
        (each nested row weighted by its case) and the ``RELATED TO`` maps,
        whose items keep their first place and take their last value, and
        which start in the order their first writes came case by case."""
        nested = {table: (offsets, {key: values for key, kind, values
                                    in columns if kind is None})
                  for table, offsets, columns in batch.nested}
        started = []   # (where the first write came, map key, writes)
        for number, table in enumerate(self.definition.nested_tables()):
            table_key = table.name.upper()
            item_name = table.key_column().name.upper()
            offsets, columns = nested.get(table_key, (None, {}))
            items = columns.get(item_name)
            if items is None:
                continue
            _tally(item_counts[table_key], items,
                   np.repeat(weights, np.diff(offsets)))
            for place, related in enumerate(table.nested_columns):
                if related.role is not ContentRole.RELATION or \
                        (related.related_to or "").upper() != item_name:
                    continue
                values = columns.get(related.name.upper(), ())
                written = [position for position, (item, value)
                           in enumerate(zip(items, values))
                           if item is not None and value is not None]
                if written:
                    first = written[0]
                    started.append((
                        (bisect_right(offsets, first) - 1, number, first,
                         place), (table_key, related.name.upper()),
                        [(_norm(items[p]), values[p]) for p in written]))
        for _, key, writes in sorted(started, key=itemgetter(0)):
            self.relations.setdefault(key, {}).update(writes)

    def _build_attributes(self, scalar_columns, observed, numeric_values,
                          item_counts) -> None:
        for column in scalar_columns:
            key = column.name.upper()
            if column.model_existence_only:
                self._add(Attribute(
                    len(self.attributes), column.name, CATEGORICAL,
                    is_input=column.is_input, is_output=column.is_output,
                    column=column, categories=[False, True]))
                continue
            if column.attribute_type is AttributeType.DISCRETIZED:
                if not numeric_values[key]:
                    raise TrainError(
                        f"column {column.name!r} has no non-NULL training "
                        f"values to discretize")
                discretizer = fit_discretizer(
                    numeric_values[key], column.discretization_method,
                    column.discretization_buckets)
                categories = [discretizer.label(b)
                              for b in range(discretizer.bucket_count)]
                self._add(Attribute(
                    len(self.attributes), column.name, CATEGORICAL,
                    is_input=column.is_input, is_output=column.is_output,
                    column=column, categories=categories,
                    discretizer=discretizer))
            elif column.attribute_type is AttributeType.CONTINUOUS:
                self._add(Attribute(
                    len(self.attributes), column.name, CONTINUOUS,
                    is_input=column.is_input, is_output=column.is_output,
                    column=column))
            else:
                states = [value for value, _ in
                          observed[key].sorted_items()[:self.maximum_states]]
                # Deterministic category order: by descending frequency.
                self._add(Attribute(
                    len(self.attributes), column.name, CATEGORICAL,
                    is_input=column.is_input, is_output=column.is_output,
                    column=column, categories=states))

        for table in self.definition.nested_tables():
            table_key = table.name.upper()
            key_column = table.key_column()
            items = [value for value, _ in
                     item_counts[table_key].sorted_items()
                     [:self.maximum_items]]
            value_columns = [
                c for c in table.nested_columns
                if c.role is ContentRole.ATTRIBUTE and
                c.attribute_type is AttributeType.CONTINUOUS]
            for item in items:
                self._add(Attribute(
                    len(self.attributes), f"{table.name}({item})",
                    CATEGORICAL, is_input=table.is_input,
                    is_output=table.predict, table=table,
                    key_value=item, categories=[False, True],
                    is_existence=True))
                for value_column in value_columns:
                    self._add(Attribute(
                        len(self.attributes),
                        f"{table.name}({item}).{value_column.name}",
                        CONTINUOUS,
                        is_input=table.is_input and value_column.is_input,
                        is_output=table.predict and value_column.predict,
                        table=table, key_value=item,
                        value_column=value_column))

        if not self.attributes:
            raise TrainError(
                f"model {self.definition.name!r} has no attributes to mine "
                f"(every column is a KEY or qualifier)")

    def marginals_from_observations(
            self, observations: List[Observation]) -> None:
        """Fit marginals from already-encoded observations (encode once,
        feed both marginals and the algorithm)."""
        marginals = [CategoricalDistribution() if attribute.is_categorical
                     else GaussianStats() for attribute in self.attributes]
        self._count_marginals(marginals, observations)
        self.marginals = marginals

    def _count_marginals(self, marginals, observations) -> None:
        """``marginal.add(value, effective weight)`` per case and
        attribute, in case order: one count per categorical column."""
        matrix = CaseMatrix.of(observations, len(self.attributes))
        for attribute, marginal in zip(self.attributes, marginals):
            rows, values = matrix.known(attribute.index)
            weights = matrix.effective_weights(attribute.index)[rows]
            if attribute.is_categorical:
                marginal.add_codes(values.astype(np.intp), weights,
                                   attribute.state_key)
            else:
                marginal.add_many(values.tolist(), weights.tolist())

    def _add(self, attribute: Attribute) -> None:
        self.attributes.append(attribute)
        self._by_name[attribute.name.upper()] = attribute
        self._slots = None

    # -- persistence ----------------------------------------------------------

    def to_json(self) -> dict:
        """The fitted space as JSON-able data; columns go by name."""
        return {
            "case_count": self.case_count,
            "total_weight": self.total_weight,
            "maximum_states": self.maximum_states,
            "maximum_items": self.maximum_items,
            "relations": [[table, column, list(mapping.items())]
                          for (table, column), mapping in
                          self.relations.items()],
            "attributes": [{
                "name": a.name,
                "kind": a.kind,
                "is_input": a.is_input,
                "is_output": a.is_output,
                "column": a.column.name if a.column else None,
                "table": a.table.name if a.table else None,
                "key_value": a.key_value,
                "value_column": (a.value_column.name
                                 if a.value_column else None),
                "categories": a.categories,
                "is_existence": a.is_existence,
                "discretizer": (a.discretizer.to_json()
                                if a.discretizer is not None else None),
            } for a in self.attributes],
            "marginals": [m.to_json() for m in self.marginals],
        }

    @classmethod
    def from_json(cls, definition: ModelDefinition,
                  state: dict) -> "AttributeSpace":
        """The space :meth:`to_json` spelled, over ``definition``."""
        space = cls(definition)
        space.case_count = state["case_count"]
        space.total_weight = state["total_weight"]
        space.maximum_states = state["maximum_states"]
        space.maximum_items = state["maximum_items"]
        space.relations = {
            (table, column): dict(mapping)
            for table, column, mapping in state["relations"]}
        for entry in state["attributes"]:
            column = definition.find(entry["column"]) \
                if entry["column"] else None
            table = definition.find(entry["table"]) if entry["table"] else None
            value_column = None
            if table is not None and entry["value_column"]:
                value_column = table.find_nested(entry["value_column"])
            discretizer = Discretizer.from_json(entry["discretizer"]) \
                if entry["discretizer"] else None
            space._add(Attribute(
                len(space.attributes), entry["name"], entry["kind"],
                is_input=entry["is_input"], is_output=entry["is_output"],
                column=column, table=table, key_value=entry["key_value"],
                value_column=value_column,
                categories=list(entry["categories"]),
                discretizer=discretizer, is_existence=entry["is_existence"]))
        space.marginals = [stat_from_json(m) for m in state["marginals"]]
        return space

    # -- lookup ---------------------------------------------------------------

    def by_name(self, name: str) -> Optional[Attribute]:
        return self._by_name.get(name.upper())

    def for_column(self, column_name: str) -> Optional[Attribute]:
        """The attribute backing a top-level scalar model column."""
        return self._by_name.get(column_name.upper())

    def inputs(self) -> List[Attribute]:
        return [a for a in self.attributes if a.is_input]

    def outputs(self) -> List[Attribute]:
        return [a for a in self.attributes if a.is_output]

    def existence_attributes(self, table_name: str) -> List[Attribute]:
        return [a for a in self.attributes
                if a.is_existence and a.table is not None and
                a.table.name.upper() == table_name.upper()]

    def covers(self, cases: Sequence[MappedCase]) -> bool:
        """True if every case encodes without losing information.

        Used by the incremental-maintenance path: a case with an unseen
        category, an unseen nested item, or a value outside a discretizer's
        fitted range requires a full refit of the attribute space.  Checked
        column by column (:func:`~repro.core.bindings.column_runs`), once
        per distinct value or item.
        """
        known = [(table.name.upper(), table.key_column().name.upper(),
                  {_norm(a.key_value)
                   for a in self.existence_attributes(table.name)})
                 for table in self.definition.nested_tables()]
        for batch in column_runs(cases):
            columns = {key: values for key, kind, values in batch.columns
                       if kind is None}
            for column in self.definition.scalar_attributes():
                values = set(columns.get(column.name.upper(), ())) - {None}
                if not values or column.model_existence_only:
                    continue
                attribute = self.by_name(column.name)
                if attribute is None:
                    return False
                discretizer = attribute.discretizer
                if discretizer is not None:
                    if not all(discretizer.minimum <= float(value) <=
                               discretizer.maximum for value in values):
                        return False
                elif attribute.is_categorical and \
                        None in map(attribute.encode, values):
                    return False
            nested = {table: {key: values for key, kind, values in columns
                              if kind is None}
                      for table, _, columns in batch.nested}
            for table_key, item_name, items in known:
                seen = set(nested.get(table_key, {}).get(item_name, ()))
                if not items.issuperset(map(_norm, seen - {None})):
                    return False
        return True

    def absorb(self, observations: List["Observation"],
               case_count: int) -> None:
        """Update marginals/counters for incrementally-absorbed cases."""
        self.case_count += case_count
        matrix = CaseMatrix.of(observations, len(self.attributes))
        self.total_weight = sequential_sum(matrix.weights, self.total_weight)
        self._count_marginals(self.marginals, observations)

    # -- encoding -------------------------------------------------------------

    def _slot_plan(self):
        """Everything :meth:`encode` needs that is fixed once the space is
        fitted, so a case costs O(its scalars + its nested rows):

        ``template``   the value vector of an empty case (0.0 under every
                       existence attribute, None elsewhere);
        ``scalars``    ``(index, NAME, encode, existence_only)`` per scalar
                       attribute;
        ``tables``     ``(TABLE, KEY, items)`` per nested table the space
                       drew attributes from, ``items`` mapping a normalised
                       item to ``(existence indices, (value index, COLUMN)
                       pairs)`` — tables without attributes are never read;
        ``sequences``  ``(TABLE, TIME, STATE)`` per sequence table;
        ``key_name``   the case key's NAME, or None.
        """
        plan = self._slots
        if plan is not None:
            return plan
        template: List[Optional[float]] = [None] * len(self.attributes)
        scalars = []
        items_by_table: Dict[str, Dict[Any, Tuple[list, list]]] = {}
        for attribute in self.attributes:
            if attribute.table is None:
                column = attribute.column
                scalars.append((attribute.index, column.name.upper(),
                                attribute.encode,
                                column.model_existence_only))
                continue
            slot = items_by_table.setdefault(
                attribute.table.name.upper(), {}).setdefault(
                _norm(attribute.key_value), ([], []))
            if attribute.is_existence:
                template[attribute.index] = 0.0
                slot[0].append(attribute.index)
            else:
                slot[1].append((attribute.index,
                                attribute.value_column.name.upper()))
        tables = []
        sequences = []
        for table in self.definition.nested_tables():
            table_key = table.name.upper()
            if table_key in items_by_table:
                tables.append((table_key, table.key_column().name.upper(),
                               items_by_table[table_key]))
            time_column = next(
                (c for c in table.nested_columns
                 if c.sequence_time or
                 c.attribute_type is AttributeType.SEQUENCE_TIME), None)
            if time_column is not None:
                sequences.append(
                    (table_key, time_column.name.upper(),
                     self.sequence_state_column(table).name.upper()))
        key_column = self.definition.case_key()
        plan = self._slots = (
            template, scalars, tables, sequences,
            key_column.name.upper() if key_column is not None else None)
        return plan

    def encode(self, case: MappedCase) -> Observation:
        template, scalars, tables, sequence_tables, key_name = \
            self._slot_plan()
        values = template[:]
        confidences: Dict[int, float] = {}
        case_scalars = case.scalars
        case_qualifiers = case.qualifiers

        for index, name, encode, existence_only in scalars:
            raw = case_scalars.get(name)
            values[index] = encode(raw is not None) if existence_only \
                else encode(raw)
            if case_qualifiers:
                probability = case_qualifiers.get(name, {}).get("PROBABILITY")
                if probability is not None:
                    confidences[index] = float(probability)

        for table_key, item_name, items in tables:
            for row in case.tables.get(table_key, ()):
                item = row.get(item_name)
                if item is None:
                    continue
                slot = items.get(_norm(item))
                if slot is None:
                    continue
                # A later row of the same item replaces an earlier one whole.
                existence, value_slots = slot
                qualifiers = row.get("__QUALIFIERS__")
                probability = qualifiers.get(item_name, {}).get(
                    "PROBABILITY") if qualifiers else None
                for index in existence:
                    values[index] = 1.0
                    if probability is not None:
                        confidences[index] = float(probability)
                    else:
                        confidences.pop(index, None)
                for index, name in value_slots:
                    value = row.get(name)
                    values[index] = None if value is None else float(value)

        sequences: Dict[str, List[Any]] = {}
        for table_key, time_name, state_name in sequence_tables:
            ordered = sorted(
                (row for row in case.tables.get(table_key, ())
                 if row.get(time_name) is not None),
                key=lambda row: row[time_name])
            sequences[table_key] = [row.get(state_name) for row in ordered]

        return Observation(
            values, weight=case.weight(), confidences=confidences,
            case_key=case_scalars.get(key_name) if key_name else None,
            sequences=sequences)

    @staticmethod
    def sequence_state_column(table: ModelColumn) -> ModelColumn:
        """The column whose values form the sequence states.

        The first non-key DISCRETE attribute if one exists, otherwise the
        nested table's KEY (market-basket-style sequences of items).
        """
        for column in table.nested_columns:
            if column.role is ContentRole.ATTRIBUTE and \
                    column.attribute_type is AttributeType.DISCRETE:
                return column
        return table.key_column()

    def encode_many(self, cases: Sequence[MappedCase]) -> EncodedCases:
        """Encode a batch: its :class:`CaseMatrix` now, its observations
        when asked for (see :class:`EncodedCases`).  The matrix is the one
        ``CaseMatrix.of(list(map(self.encode, cases)), width)`` gives.  A
        :class:`CaseBatch` — and a run of views of one, as the rows they
        cover — is encoded column by column off the slot plan
        (:meth:`_matrix`); a run of standalone cases case by case."""
        if not isinstance(cases, (list, tuple, CaseBatch)):
            cases = list(cases)
        width = len(self.attributes)
        matrices = [
            CaseMatrix.of(list(map(self.encode, run)), width) if batch is None
            else self._matrix(batch) if run is None
            else self._matrix(batch).take(run)
            for batch, run in case_batches(cases)] or \
            [CaseMatrix.of([], width)]
        return EncodedCases(self, cases, matrices[0] if len(matrices) == 1
                            else CaseMatrix.concat(matrices))

    def _matrix(self, batch: CaseBatch) -> CaseMatrix:
        """A batch's matrix from its columns, at one
        :meth:`Attribute.encode` per distinct scalar value and one
        ``_norm`` per distinct nested item rather than one per cell."""
        template, scalars, tables, _, _ = self._slot_plan()
        count, width = len(batch), len(template)
        values = np.tile(np.array(template, dtype=np.float64),  # None: NaN
                         (count, 1))
        columns, qualifiers = {}, {}
        for key, kind, column in batch.columns:   # a later key replaces
            if kind is None:
                columns[key] = column
            else:
                qualifiers.setdefault(key, {})[kind] = column
        weights = np.array(batch.weights(), dtype=np.float64)
        confidences: Dict[int, np.ndarray] = {}
        absent = [None] * count

        for index, name, encode, existence_only in scalars:
            raws = columns.get(name, absent)
            if existence_only:
                raws = [raw is not None for raw in raws]
            if self.attributes[index].is_categorical:
                codes = {raw: encode(raw) for raw in set(raws)}
                values[:, index] = list(map(codes.__getitem__, raws))
            else:  # a float is not memoised by hash: -0.0 is not 0.0
                values[:, index] = [None if raw is None else float(raw)
                                    for raw in raws]
            probabilities = qualifiers.get(name, {}).get("PROBABILITY")
            if probabilities is not None and \
                    probabilities.count(None) < count:
                confidences[index] = np.array(
                    [1.0 if probability is None else float(probability)
                     for probability in probabilities])

        cells: Dict[int, Optional[float]] = {}  # flat position -> value
        nested = {table: (offsets, {key: column for key, kind, column in
                                    table_columns if kind is None})
                  for table, offsets, table_columns in batch.nested}
        for table_key, item_name, items in tables:
            offsets, columns = nested.get(table_key, (None, {}))
            items_of = columns.get(item_name)
            if items_of is None:
                continue
            slot_of = {item: None if item is None else items.get(_norm(item))
                       for item in set(items_of)}
            case_of = np.repeat(np.arange(count), np.diff(offsets))
            # Existence is 1.0 however often an item recurs.
            existence = list(map({item: slot[0] if slot else ()
                                  for item, slot in slot_of.items()}
                                 .__getitem__, items_of))
            values[np.repeat(case_of, list(map(len, existence))),
                   np.fromiter(chain.from_iterable(existence), np.intp)] = 1.0
            if not any(slot[1] for slot in slot_of.values() if slot):
                continue
            # A later row of the same item replaces its per-item values
            # whole: a dict keeps the last write per position.  (A nested
            # KEY takes no qualifier, so no confidence comes from here.)
            for position, (row, item) in enumerate(zip(case_of.tolist(),
                                                       items_of)):
                slot = slot_of[item]
                if slot is None:
                    continue
                for index, name in slot[1]:
                    column = columns.get(name)
                    value = None if column is None else column[position]
                    cells[row * width + index] = None if value is None \
                        else float(value)
        if cells:
            values.put(list(cells), list(cells.values()))

        return CaseMatrix(values, weights, confidences)
