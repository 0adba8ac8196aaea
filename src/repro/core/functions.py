"""Prediction functions (UDFs) on output columns — paper section 3.2.4.

"OLE DB DM defines a set of standard transformation functions on output
columns ... Some UDFs are scalar-valued, such as probability, or support.
Others have tables as values, such as histogram and hence return nested
tables when invoked."

Every entry of :data:`PREDICTION_FUNCTIONS` is a *binder*: called once per
statement with the active :class:`PredictionScope` and the raw argument AST
(most arguments name *attributes* rather than values —
``PredictProbability([Age])``), it resolves attributes, nested tables and
plain arguments there and then, and returns the closure the prediction
join applies to every case.  A closure receives an *entry*, ``(source_row,
CasePrediction, the case's value per value column)``; an unknown attribute,
a non-discretized RangeMin argument or a wrong argument count is an error
of the statement, raised before any case is read.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import BindError, PredictionError
from repro.lang import ast_nodes as ast
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import DOUBLE, LONG, TEXT
from repro.algorithms.attributes import Attribute, AttributeSpace
from repro.algorithms.base import AttributePrediction, PredictionBucket

_CASE_PREDICTION = operator.itemgetter(1)

_COLUMN_ARGUMENT = ("prediction functions take a model column reference, "
                    "e.g. PredictProbability([Age])")


def _column_argument(args: List[ast.Expr]) -> ast.Expr:
    if not args:
        raise PredictionError(_COLUMN_ARGUMENT)
    return args[0]


class PredictionScope:
    """Everything a UDF may consult while it is bound.

    What the bound closures read of a case's prediction accumulates here:
    ``values`` lists the attributes whose predicted value alone some
    closure reads — the batch's value columns, in position order — and
    ``reads`` the indices of those whose whole prediction one reads; it
    becomes None (read anything) once a closure takes the case prediction
    itself.  ``columns`` maps each reader of a plain column to where the
    batch holds that column whole: ``("value", position)`` among the value
    columns, or ``("source", ordinal)`` for a source column (the join's
    context registers those).
    """

    def __init__(self, model, compile: Callable[[ast.Expr], Callable]):
        self.model = model
        self.compile = compile  # binds a plain (non-attribute) argument
        self.reads: Optional[Set[int]] = set()
        self.values: List[Attribute] = []
        self.columns: Dict[Callable, tuple] = {}

    def case_prediction(self) -> Callable[[tuple], Any]:
        """The ``entry -> CasePrediction`` reader.  Taking it is what tells
        the join that the statement has to score its cases at all."""
        self.reads = None
        return _CASE_PREDICTION

    # -- argument resolution ----------------------------------------------------

    def strip_model_qualifier(self, parts) -> tuple:
        if len(parts) > 1 and parts[0].upper() == self.model.name.upper():
            return tuple(parts[1:])
        return tuple(parts)

    def target_attribute(self, arg: ast.Expr) -> Attribute:
        """Resolve a UDF argument naming a scalar model attribute."""
        if not isinstance(arg, ast.ColumnRef):
            raise PredictionError(_COLUMN_ARGUMENT)
        parts = self.strip_model_qualifier(arg.parts)
        name = ".".join(parts) if len(parts) > 1 else parts[0]
        attribute = self.model.space.by_name(name)
        if attribute is None and len(parts) == 1:
            attribute = self.model.space.by_name(parts[0])
        if attribute is None:
            raise BindError(
                f"model {self.model.name!r} has no attribute {name!r}")
        return attribute

    def target_table(self, arg: ast.Expr) -> Optional[str]:
        """Resolve a UDF argument naming a nested TABLE column, or None."""
        if not isinstance(arg, ast.ColumnRef):
            return None
        parts = self.strip_model_qualifier(arg.parts)
        if len(parts) != 1:
            return None
        column = self.model.definition.find(parts[0])
        if column is not None and column.is_table:
            return column.name
        return None

    def attribute_reader(self, attribute: Attribute) \
            -> Callable[[tuple], AttributePrediction]:
        """``entry -> AttributePrediction`` for one attribute; where the
        algorithm does not output it, the training marginals stand in."""
        if self.reads is not None:
            self.reads.add(attribute.index)
        algorithm = self.model.algorithm
        marginal = functools.cache(
            lambda: algorithm.marginal_prediction(attribute))

        def read(entry):
            prediction = entry[1].get(attribute)
            return prediction if prediction is not None else marginal()
        return read

    def value_reader(self, attribute: Attribute) -> Callable[[tuple], Any]:
        """``entry -> predicted value`` of one attribute: the entry's
        value of the batch's value column for it."""
        if attribute not in self.values:
            self.values.append(attribute)
        position = self.values.index(attribute)

        def read(entry):
            return entry[2][position]
        self.columns[read] = ("value", position)
        return read

    def attribute_prediction(self, arg: ast.Expr) \
            -> Callable[[tuple], AttributePrediction]:
        return self.attribute_reader(self.target_attribute(arg))


# ---------------------------------------------------------------------------
# Histogram rowsets
# ---------------------------------------------------------------------------

def histogram_rowset(name: str, buckets: List[PredictionBucket]) -> Rowset:
    """The nested rowset shape shared by PredictHistogram and friends."""
    columns = [
        RowsetColumn(name, TEXT),
        RowsetColumn("$SUPPORT", DOUBLE),
        RowsetColumn("$PROBABILITY", DOUBLE),
        RowsetColumn("$VARIANCE", DOUBLE),
        RowsetColumn("$STDEV", DOUBLE),
    ]
    rows = []
    for bucket in buckets:
        variance = bucket.variance
        stdev = variance ** 0.5 if variance is not None else None
        rows.append((bucket.value, bucket.support, bucket.probability,
                     variance, stdev))
    return Rowset(columns, rows)


def _bind_cluster_histogram(scope: PredictionScope):
    columns = [
        RowsetColumn("$CLUSTER", LONG),
        RowsetColumn("$PROBABILITY", DOUBLE),
        RowsetColumn("$SUPPORT", DOUBLE),
    ]
    case_prediction = scope.case_prediction()
    total = scope.model.space.total_weight

    def histogram(entry):
        rows = sorted(
            ((cluster + 1, float(p), float(p) * total)
             for cluster, p in enumerate(
                 case_prediction(entry).cluster_probabilities)),
            key=lambda row: -row[1])
        return Rowset(columns, rows)
    return histogram


# ---------------------------------------------------------------------------
# The functions
# ---------------------------------------------------------------------------

def bind_predict(scope: PredictionScope, args: List[ast.Expr]):
    """Predict(<column>): best estimate; for TABLE columns, the
    recommendation rowset (association/sequence models)."""
    if not args:
        raise PredictionError("Predict() requires a column argument")
    if scope.target_table(args[0]) is not None:
        return bind_predict_association(scope, args)
    return scope.value_reader(scope.target_attribute(_column_argument(args)))


def _bind_statistic(statistic: str):
    """PredictProbability / PredictSupport (col[, value]): the statistic of
    the predicted (or of a specific) value."""
    pick = operator.attrgetter(statistic)

    def bind(scope: PredictionScope, args: List[ast.Expr]):
        read = scope.attribute_prediction(_column_argument(args))
        if len(args) == 1:
            return lambda entry: pick(read(entry))
        target_of = scope.compile(args[1])

        def of_value(entry) -> Optional[float]:
            prediction = read(entry)
            target = target_of(entry)
            for bucket in prediction.histogram:
                if _value_equal(bucket.value, target):
                    return pick(bucket)
            return 0.0
        return of_value
    return bind


def bind_predict_variance(scope: PredictionScope, args: List[ast.Expr]):
    read = scope.attribute_prediction(_column_argument(args))
    return lambda entry: read(entry).variance


def bind_predict_stdev(scope: PredictionScope, args: List[ast.Expr]):
    read = scope.attribute_prediction(_column_argument(args))

    def stdev(entry) -> Optional[float]:
        variance = read(entry).variance
        return variance ** 0.5 if variance is not None else None
    return stdev


def bind_predict_histogram(scope: PredictionScope, args: List[ast.Expr]):
    """PredictHistogram(col) or PredictHistogram(Cluster())."""
    if args and isinstance(args[0], ast.FuncCall) and \
            args[0].name.upper() == "CLUSTER":
        return _bind_cluster_histogram(scope)
    table = scope.target_table(args[0]) if args else None
    if table is not None:
        case_prediction = scope.case_prediction()
        key, header = table.upper(), _table_key_name(scope.model, table)
        return lambda entry: histogram_rowset(
            header, case_prediction(entry).recommendations.get(key, []))
    attribute = scope.target_attribute(_column_argument(args))
    read = scope.attribute_reader(attribute)
    return lambda entry: histogram_rowset(attribute.name,
                                          read(entry).histogram)


def bind_predict_association(scope: PredictionScope, args: List[ast.Expr]):
    """PredictAssociation(table[, n]): top-n recommended nested-table items."""
    table = scope.target_table(args[0]) if args else None
    if table is None:
        raise PredictionError(
            "PredictAssociation requires a nested TABLE column argument")
    case_prediction = scope.case_prediction()
    key, header = table.upper(), _table_key_name(scope.model, table)
    existence = scope.model.space.existence_attributes(table)
    limit_of = scope.compile(args[1]) if len(args) > 1 else None

    def association(entry) -> Rowset:
        prediction = case_prediction(entry)
        buckets = prediction.recommendations.get(key)
        if buckets is None:
            # Models without explicit recommendations: rank existence
            # attributes by predicted membership probability.
            buckets = []
            for attribute in existence:
                member = prediction.get(attribute)
                if member is None:
                    continue
                probability = 0.0
                for bucket in member.histogram:
                    if bucket.value is True:
                        probability = bucket.probability
                buckets.append(PredictionBucket(
                    attribute.key_value, probability, member.support))
            buckets.sort(key=lambda b: (-b.probability, str(b.value)))
        if limit_of is not None:
            buckets = buckets[:int(limit_of(entry))]
        return histogram_rowset(header, buckets)
    return association


def bind_cluster(scope: PredictionScope, args: List[ast.Expr]):
    """Cluster(): the 1-based id of the most probable cluster."""
    case_prediction = scope.case_prediction()
    model = scope.model

    def cluster(entry) -> int:
        cluster_id = case_prediction(entry).cluster_id
        if cluster_id is None:
            raise PredictionError(
                f"model {model.name!r} ({model.algorithm.SERVICE_NAME}) "
                f"is not a clustering model")
        return cluster_id
    return cluster


def _bind_cluster_argument(scope: PredictionScope, args: List[ast.Expr]):
    """The optional cluster-id argument of ClusterProbability /
    ClusterDistance: ``(entry, cluster count) -> 0-based cluster``, or
    None when the call names no cluster."""
    if not args:
        return None
    cluster_of = scope.compile(args[0])

    def chosen(entry, count: int) -> int:
        cluster = int(cluster_of(entry))
        if not 1 <= cluster <= count:
            raise PredictionError(
                f"cluster id {cluster} out of range 1..{count}")
        return cluster - 1
    return chosen


def bind_cluster_probability(scope: PredictionScope, args: List[ast.Expr]):
    case_prediction = scope.case_prediction()
    chosen = _bind_cluster_argument(scope, args)
    name = scope.model.name

    def probability(entry) -> float:
        probabilities = case_prediction(entry).cluster_probabilities
        if not probabilities:
            raise PredictionError(
                f"model {name!r} is not a clustering model")
        if chosen is None:
            return max(probabilities)
        return probabilities[chosen(entry, len(probabilities))]
    return probability


def bind_cluster_distance(scope: PredictionScope, args: List[ast.Expr]):
    case_prediction = scope.case_prediction()
    probability = bind_cluster_probability(scope, args)
    chosen = _bind_cluster_argument(scope, args)

    def distance(entry) -> float:
        prediction = case_prediction(entry)
        distances = prediction.cluster_distances
        if not distances:
            # EM models: use 1 - probability as a distance surrogate.
            return 1.0 - probability(entry)
        if chosen is not None:
            return distances[chosen(entry, len(distances))]
        return distances[prediction.cluster_id - 1]
    return distance


def _bind_range(edge: Callable):
    """RangeMin / RangeMid / RangeMax (col): ``edge(discretizer, bucket)``
    of the predicted bucket of a DISCRETIZED column."""
    def bind(scope: PredictionScope, args: List[ast.Expr]):
        attribute = scope.target_attribute(_column_argument(args))
        discretizer = attribute.discretizer
        if discretizer is None:
            raise PredictionError(
                f"RangeMin/Mid/Max require a DISCRETIZED column; "
                f"{attribute.name!r} is not discretized")
        read = scope.value_reader(attribute)
        buckets: dict = {}
        for bucket in range(discretizer.bucket_count):
            buckets.setdefault(discretizer.label(bucket), bucket)

        def of_predicted(entry) -> float:
            predicted = read(entry)
            bucket = buckets.get(predicted)
            if bucket is None:
                raise PredictionError(
                    f"predicted value {predicted!r} is not a bucket of "
                    f"{attribute.name!r}")
            return edge(discretizer, bucket)
        return of_predicted
    return bind


# ---------------------------------------------------------------------------
# Table transforms: TopCount / TopSum / TopPercent
# ---------------------------------------------------------------------------

def _rank_column_index(rowset: Rowset, arg: ast.Expr) -> int:
    if isinstance(arg, ast.ColumnRef):
        return rowset.index_of(arg.parts[-1])
    if isinstance(arg, ast.Literal) and isinstance(arg.value, str):
        return rowset.index_of(arg.value)
    raise PredictionError(
        "the rank argument must name a column of the table expression, "
        "e.g. TopCount(PredictHistogram([Age]), [$PROBABILITY], 3)")


def _ranked(rowset: Rowset, rank: int) -> List[tuple]:
    return sorted(rowset.rows,
                  key=lambda row: -(row[rank] if row[rank] is not None
                                    else float("-inf")))


def _top_count(rowset: Rowset, rank: int, count) -> List[tuple]:
    """n rows with the largest rank."""
    return _ranked(rowset, rank)[:int(count)]


def _top_sum(rowset: Rowset, rank: int, threshold) -> List[tuple]:
    """Smallest prefix of rank-sorted rows whose rank values sum to at
    least the threshold."""
    threshold = float(threshold)
    output = []
    accumulated = 0.0
    for row in _ranked(rowset, rank):
        output.append(row)
        accumulated += row[rank] or 0.0
        if accumulated >= threshold:
            break
    return output


def _top_percent(rowset: Rowset, rank: int, percent) -> List[tuple]:
    """Prefix covering percent% of the rank column's total."""
    percent = float(percent)
    total = sum(row[rank] or 0.0 for row in rowset.rows)
    return _top_sum(rowset, rank, total * percent / 100.0)


def _bind_top(usage: str, select: Callable):
    """``select(table, rank, amount)`` over a table-valued first argument,
    a rank column named by the second and an amount given by the third."""
    def bind(scope: PredictionScope, args: List[ast.Expr]):
        if len(args) != 3:
            raise PredictionError(usage)
        table_of = scope.compile(args[0])
        amount_of = scope.compile(args[2])

        def top(entry) -> Rowset:
            rowset = table_of(entry)
            if not isinstance(rowset, Rowset):
                raise PredictionError(
                    "the first argument of TopCount/TopSum/TopPercent must "
                    "be table-valued (e.g. PredictHistogram(...))")
            rank = _rank_column_index(rowset, args[1])
            return Rowset(rowset.columns,
                          select(rowset, rank, amount_of(entry)))
        return top
    return bind


def _table_key_name(model, table: str) -> str:
    """Column header for a nested recommendation histogram.

    For market-basket tables the recommended values are key values; for
    SEQUENCE_TIME tables they are states of the sequence state column.
    """
    column = model.definition.find(table)
    if column is None:
        return table
    has_time = any(getattr(c, "sequence_time", False)
                   for c in column.nested_columns or [])
    if has_time:
        return AttributeSpace.sequence_state_column(column).name
    key = column.key_column()
    return key.name if key is not None else table


def _value_equal(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, str) and isinstance(b, str):
        return a.upper() == b.upper()
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    return a == b


#: name -> binder ``(scope, argument ASTs) -> (entry -> value)``.
PREDICTION_FUNCTIONS = {
    "PREDICT": bind_predict,
    "PREDICTPROBABILITY": _bind_statistic("probability"),
    "PREDICTSUPPORT": _bind_statistic("support"),
    "PREDICTVARIANCE": bind_predict_variance,
    "PREDICTSTDEV": bind_predict_stdev,
    "PREDICTHISTOGRAM": bind_predict_histogram,
    "PREDICTASSOCIATION": bind_predict_association,
    "CLUSTER": bind_cluster,
    "CLUSTERPROBABILITY": bind_cluster_probability,
    "CLUSTERDISTANCE": bind_cluster_distance,
    "RANGEMIN": _bind_range(lambda d, bucket: d.range_of(bucket)[0]),
    "RANGEMID": _bind_range(lambda d, bucket: d.midpoint_of(bucket)),
    "RANGEMAX": _bind_range(lambda d, bucket: d.range_of(bucket)[1]),
    "TOPCOUNT": _bind_top("TopCount(table, rank_column, n)", _top_count),
    "TOPSUM": _bind_top("TopSum(table, rank_column, threshold)", _top_sum),
    "TOPPERCENT": _bind_top("TopPercent(table, rank_column, percent)",
                            _top_percent),
}
