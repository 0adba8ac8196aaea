"""The per-case interpreter for prediction expressions — the oracle.

This is the evaluator PREDICTION JOIN shipped before its WHERE and select
list were compiled once per statement
(:func:`repro.core.prediction.compile_cases`): a fresh
:class:`PredictionEvalContext` per case, every model column, attribute and
function argument resolved again for every case through
the interpreter's ``evaluate`` (``tests/reference/reference_evaluator.py``
since PR 21), and the case scored on first
use.  It is kept, unoptimised, as the reference the compiled kernel is
tested against; nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.algorithms.attributes import Attribute
from repro.algorithms.base import AttributePrediction, PredictionBucket
from repro.core.bindings import MappedCase
from repro.errors import BindError, PredictionError
from repro.lang import ast_nodes as ast
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import DOUBLE, LONG, TEXT

from tests.reference.reference_evaluator import EvalContext, evaluate


class PredictionScope:
    """Everything a UDF may consult for the current case."""

    def __init__(self, model, case, evaluator):
        self.model = model
        self.case = case
        self._prediction = None
        self.evaluate = evaluator  # evaluates plain (non-attribute) args

    @property
    def prediction(self):
        if self._prediction is None:
            self._prediction = self.model.algorithm.predict(
                self.model.space.encode(self.case))
        return self._prediction

    # -- argument resolution ----------------------------------------------------

    def strip_model_qualifier(self, parts) -> tuple:
        if len(parts) > 1 and parts[0].upper() == self.model.name.upper():
            return tuple(parts[1:])
        return tuple(parts)

    def target_attribute(self, arg: ast.Expr) -> Attribute:
        """Resolve a UDF argument naming a scalar model attribute."""
        if not isinstance(arg, ast.ColumnRef):
            raise PredictionError(
                "prediction functions take a model column reference, e.g. "
                "PredictProbability([Age])")
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

    def attribute_prediction(self, arg: ast.Expr) -> AttributePrediction:
        attribute = self.target_attribute(arg)
        prediction = self.prediction.get(attribute)
        if prediction is None:
            # Not an output of this algorithm: fall back to the marginals.
            prediction = self.model.algorithm.marginal_prediction(attribute)
        return prediction


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


def cluster_histogram_rowset(scope: PredictionScope) -> Rowset:
    columns = [
        RowsetColumn("$CLUSTER", LONG),
        RowsetColumn("$PROBABILITY", DOUBLE),
        RowsetColumn("$SUPPORT", DOUBLE),
    ]
    probabilities = scope.prediction.cluster_probabilities
    total = scope.model.space.total_weight
    rows = sorted(
        ((cluster + 1, float(p), float(p) * total)
         for cluster, p in enumerate(probabilities)),
        key=lambda row: -row[1])
    return Rowset(columns, rows)


# ---------------------------------------------------------------------------
# The functions
# ---------------------------------------------------------------------------

def fn_predict(scope: PredictionScope, args: List[ast.Expr]) -> Any:
    """Predict(<column>): best estimate; for TABLE columns, the
    recommendation rowset (association/sequence models)."""
    if not args:
        raise PredictionError("Predict() requires a column argument")
    table = scope.target_table(args[0])
    if table is not None:
        return fn_predict_association(scope, args)
    return scope.attribute_prediction(args[0]).value


def fn_predict_probability(scope: PredictionScope,
                           args: List[ast.Expr]) -> Optional[float]:
    """PredictProbability(col[, value]): probability of the predicted (or a
    specific) value."""
    prediction = scope.attribute_prediction(args[0])
    if len(args) == 1:
        return prediction.probability
    target = scope.evaluate(args[1])
    for bucket in prediction.histogram:
        if _value_equal(bucket.value, target):
            return bucket.probability
    return 0.0


def fn_predict_support(scope: PredictionScope,
                       args: List[ast.Expr]) -> Optional[float]:
    prediction = scope.attribute_prediction(args[0])
    if len(args) == 1:
        return prediction.support
    target = scope.evaluate(args[1])
    for bucket in prediction.histogram:
        if _value_equal(bucket.value, target):
            return bucket.support
    return 0.0


def fn_predict_variance(scope: PredictionScope,
                        args: List[ast.Expr]) -> Optional[float]:
    return scope.attribute_prediction(args[0]).variance


def fn_predict_stdev(scope: PredictionScope,
                     args: List[ast.Expr]) -> Optional[float]:
    variance = scope.attribute_prediction(args[0]).variance
    return variance ** 0.5 if variance is not None else None


def fn_predict_histogram(scope: PredictionScope,
                         args: List[ast.Expr]) -> Rowset:
    """PredictHistogram(col) or PredictHistogram(Cluster())."""
    if args and isinstance(args[0], ast.FuncCall) and \
            args[0].name.upper() == "CLUSTER":
        return cluster_histogram_rowset(scope)
    table = scope.target_table(args[0]) if args else None
    if table is not None:
        buckets = scope.prediction.recommendations.get(table.upper(), [])
        return histogram_rowset(_table_key_name(scope, table), buckets)
    prediction = scope.attribute_prediction(args[0])
    return histogram_rowset(prediction.attribute.name, prediction.histogram)


def fn_predict_association(scope: PredictionScope,
                           args: List[ast.Expr]) -> Rowset:
    """PredictAssociation(table[, n]): top-n recommended nested-table items."""
    if not args:
        raise PredictionError(
            "PredictAssociation requires a nested TABLE column argument")
    table = scope.target_table(args[0])
    if table is None:
        raise PredictionError(
            "PredictAssociation requires a nested TABLE column argument")
    buckets = scope.prediction.recommendations.get(table.upper())
    if buckets is None:
        # Models without explicit recommendations: rank existence attributes
        # by predicted membership probability.
        buckets = []
        for attribute in scope.model.space.existence_attributes(table):
            prediction = scope.prediction.get(attribute)
            if prediction is None:
                continue
            probability = 0.0
            for bucket in prediction.histogram:
                if bucket.value is True:
                    probability = bucket.probability
            buckets.append(PredictionBucket(attribute.key_value, probability,
                                            prediction.support))
        buckets.sort(key=lambda b: (-b.probability, str(b.value)))
    limit = None
    if len(args) > 1:
        limit = int(scope.evaluate(args[1]))
    if limit is not None:
        buckets = buckets[:limit]
    return histogram_rowset(_table_key_name(scope, table), buckets)


def fn_cluster(scope: PredictionScope, args: List[ast.Expr]) -> Optional[int]:
    """Cluster(): the 1-based id of the most probable cluster."""
    cluster = scope.prediction.cluster_id
    if cluster is None:
        raise PredictionError(
            f"model {scope.model.name!r} ({scope.model.algorithm.SERVICE_NAME}) "
            f"is not a clustering model")
    return cluster


def fn_cluster_probability(scope: PredictionScope,
                           args: List[ast.Expr]) -> float:
    probabilities = scope.prediction.cluster_probabilities
    if not probabilities:
        raise PredictionError(
            f"model {scope.model.name!r} is not a clustering model")
    if args:
        cluster = int(scope.evaluate(args[0]))
        if not 1 <= cluster <= len(probabilities):
            raise PredictionError(
                f"cluster id {cluster} out of range 1..{len(probabilities)}")
        return probabilities[cluster - 1]
    return max(probabilities)


def fn_cluster_distance(scope: PredictionScope,
                        args: List[ast.Expr]) -> float:
    distances = scope.prediction.cluster_distances
    if not distances:
        # EM models: use 1 - probability as a distance surrogate.
        return 1.0 - fn_cluster_probability(scope, args)
    if args:
        cluster = int(scope.evaluate(args[0]))
        return distances[cluster - 1]
    return distances[scope.prediction.cluster_id - 1]


def _range_bucket(scope: PredictionScope, args: List[ast.Expr]):
    attribute = scope.target_attribute(args[0])
    if attribute.discretizer is None:
        raise PredictionError(
            f"RangeMin/Mid/Max require a DISCRETIZED column; "
            f"{attribute.name!r} is not discretized")
    predicted = scope.attribute_prediction(args[0]).value
    for bucket in range(attribute.discretizer.bucket_count):
        if attribute.discretizer.label(bucket) == predicted:
            return attribute.discretizer, bucket
    raise PredictionError(
        f"predicted value {predicted!r} is not a bucket of "
        f"{attribute.name!r}")


def fn_range_min(scope: PredictionScope, args: List[ast.Expr]) -> float:
    discretizer, bucket = _range_bucket(scope, args)
    return discretizer.range_of(bucket)[0]


def fn_range_mid(scope: PredictionScope, args: List[ast.Expr]) -> float:
    discretizer, bucket = _range_bucket(scope, args)
    return discretizer.midpoint_of(bucket)


def fn_range_max(scope: PredictionScope, args: List[ast.Expr]) -> float:
    discretizer, bucket = _range_bucket(scope, args)
    return discretizer.range_of(bucket)[1]


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


def _table_argument(scope: PredictionScope, arg: ast.Expr) -> Rowset:
    value = scope.evaluate(arg)
    if not isinstance(value, Rowset):
        raise PredictionError(
            "the first argument of TopCount/TopSum/TopPercent must be "
            "table-valued (e.g. PredictHistogram(...))")
    return value


def fn_top_count(scope: PredictionScope, args: List[ast.Expr]) -> Rowset:
    """TopCount(table, rank_column, n): n rows with the largest rank."""
    if len(args) != 3:
        raise PredictionError("TopCount(table, rank_column, n)")
    rowset = _table_argument(scope, args[0])
    rank = _rank_column_index(rowset, args[1])
    count = int(scope.evaluate(args[2]))
    rows = sorted(rowset.rows,
                  key=lambda row: -(row[rank] if row[rank] is not None
                                    else float("-inf")))
    return Rowset(rowset.columns, rows[:count])


def fn_top_sum(scope: PredictionScope, args: List[ast.Expr]) -> Rowset:
    """TopSum(table, rank_column, threshold): smallest prefix of rank-sorted
    rows whose rank values sum to at least the threshold."""
    if len(args) != 3:
        raise PredictionError("TopSum(table, rank_column, threshold)")
    rowset = _table_argument(scope, args[0])
    rank = _rank_column_index(rowset, args[1])
    threshold = float(scope.evaluate(args[2]))
    rows = sorted(rowset.rows,
                  key=lambda row: -(row[rank] if row[rank] is not None
                                    else float("-inf")))
    output = []
    accumulated = 0.0
    for row in rows:
        output.append(row)
        accumulated += row[rank] or 0.0
        if accumulated >= threshold:
            break
    return Rowset(rowset.columns, output)


def fn_top_percent(scope: PredictionScope, args: List[ast.Expr]) -> Rowset:
    """TopPercent(table, rank_column, percent): prefix covering percent% of
    the rank column's total."""
    if len(args) != 3:
        raise PredictionError("TopPercent(table, rank_column, percent)")
    rowset = _table_argument(scope, args[0])
    rank = _rank_column_index(rowset, args[1])
    percent = float(scope.evaluate(args[2]))
    total = sum(row[rank] or 0.0 for row in rowset.rows)
    return fn_top_sum_impl(rowset, rank, total * percent / 100.0)


def fn_top_sum_impl(rowset: Rowset, rank: int, threshold: float) -> Rowset:
    rows = sorted(rowset.rows,
                  key=lambda row: -(row[rank] if row[rank] is not None
                                    else float("-inf")))
    output = []
    accumulated = 0.0
    for row in rows:
        output.append(row)
        accumulated += row[rank] or 0.0
        if accumulated >= threshold:
            break
    return Rowset(rowset.columns, output)


def _table_key_name(scope: PredictionScope, table: str) -> str:
    """Column header for a nested recommendation histogram.

    For market-basket tables the recommended values are key values; for
    SEQUENCE_TIME tables they are states of the sequence state column.
    """
    column = scope.model.definition.find(table)
    if column is None:
        return table
    has_time = any(getattr(c, "sequence_time", False)
                   for c in column.nested_columns or [])
    if has_time:
        from repro.algorithms.attributes import AttributeSpace
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


PREDICTION_FUNCTIONS = {
    "PREDICT": fn_predict,
    "PREDICTPROBABILITY": fn_predict_probability,
    "PREDICTSUPPORT": fn_predict_support,
    "PREDICTVARIANCE": fn_predict_variance,
    "PREDICTSTDEV": fn_predict_stdev,
    "PREDICTHISTOGRAM": fn_predict_histogram,
    "PREDICTASSOCIATION": fn_predict_association,
    "CLUSTER": fn_cluster,
    "CLUSTERPROBABILITY": fn_cluster_probability,
    "CLUSTERDISTANCE": fn_cluster_distance,
    "RANGEMIN": fn_range_min,
    "RANGEMID": fn_range_mid,
    "RANGEMAX": fn_range_max,
    "TOPCOUNT": fn_top_count,
    "TOPSUM": fn_top_sum,
    "TOPPERCENT": fn_top_percent,
}


class PredictionEvalContext(EvalContext):
    """Expression context inside a prediction query.

    Resolution order for column references:

    1. ``<model>.<column>`` (or ``<model>.<table>.<column>``) — predicted
       value of a model column;
    2. ``<alias>.<column>`` / bare names — the source row;
    3. bare names matching a model PREDICT column — predicted value.
    """

    def __init__(self, model, source_context: EvalContext,
                 source_row: tuple, case: MappedCase):
        super().__init__(source_context.columns, source_row)
        self.subquery_executor = source_context.subquery_executor
        self._subquery_cache = source_context._subquery_cache
        self.model = model
        self.scope = PredictionScope(
            model, case, evaluator=lambda e: evaluate(e, self))

    def resolve_column(self, ref: ast.ColumnRef) -> Any:
        parts = ref.parts
        if parts[0].upper() == self.model.name.upper():
            if len(parts) == 1:
                raise BindError(
                    f"select a column of model {self.model.name!r}, e.g. "
                    f"[{self.model.name}].[{self._first_output_name()}]")
            return self._predicted_value(tuple(parts[1:]))
        index = self.resolve_index(parts)
        if index is not None:
            return self.row[index]
        if len(parts) == 1:
            column = self.model.definition.find(parts[0])
            if column is not None and not column.is_table:
                return self._predicted_value((parts[0],))
        raise BindError(
            f"cannot resolve column {'.'.join(parts)!r} in prediction query")

    def _first_output_name(self) -> str:
        outputs = self.model.definition.output_columns()
        return outputs[0].name if outputs else "<column>"

    def _predicted_value(self, parts: Tuple[str, ...]) -> Any:
        if len(parts) == 1:
            column = self.model.definition.find(parts[0])
            if column is None:
                raise BindError(
                    f"model {self.model.name!r} has no column {parts[0]!r}")
            if column.is_table:
                return fn_predict_association(
                    self.scope, [ast.ColumnRef(parts=(column.name,))])
            attribute = self.model.space.for_column(column.name)
            if attribute is None:
                raise BindError(
                    f"column {parts[0]!r} is not part of the trained "
                    f"attribute space")
            prediction = self.scope.prediction.get(attribute)
            if prediction is None:
                prediction = self.model.algorithm.marginal_prediction(
                    attribute)
            return prediction.value
        raise BindError(
            f"unsupported model column path "
            f"{'.'.join((self.model.name,) + parts)!r} in a select list; "
            f"use prediction functions for nested results")

    def call_function(self, call: ast.FuncCall, evaluator) -> Any:
        handler = PREDICTION_FUNCTIONS.get(call.name.upper())
        if handler is not None:
            return handler(self.scope, call.args)
        return super().call_function(call, evaluator)


def evaluate_cases(model, source_context: EvalContext,
                   where: Optional[ast.Expr], exprs: List[ast.Expr],
                   pairs) -> List[tuple]:
    """WHERE, then ``exprs``, interpreted per ``(source_row, MappedCase)``
    pair."""
    out = []
    for row, case in pairs:
        context = PredictionEvalContext(model, source_context, row, case)
        if where is not None and evaluate(where, context) is not True:
            continue
        out.append(tuple(evaluate(expr, context) for expr in exprs))
    return out
