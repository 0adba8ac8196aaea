"""Answers are checked, not assumed.

* SQL results are compared with plain-Python list comprehensions over the
  rows ``load_warehouse`` returned (plus the rows the workload inserted).
* Life-cycle statements: training consumes one case per customer, scoring
  returns one row per customer, the warm re-score equals the cold one, and
  Age-bucket accuracy clears the 0.40 majority-class floor that
  ``benchmarks/bench_x1_pluggability.py`` asserts.
* ``sql_paged`` and wire results must be ``rowset_dump``-equal to an embedded
  in-memory provider fed the same statements.
* After the server is killed, ``COUNT(*)`` of the sink table in every
  recovered copy equals the number of acknowledged inserts.

Every miss is recorded and counted in ``failed``."""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from repro.server.protocol import rowset_dump
from repro.sqlstore.rowset import Rowset

ACCURACY_FLOOR = 0.40


class Checks:
    """Tally of verified answers and the first few failures in words."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def _same_value(a: Any, b: Any) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def same_rows(actual, expected) -> bool:
    actual = list(actual)
    if len(actual) != len(expected):
        return False
    return all(len(a) == len(e) and
               all(_same_value(x, y) for x, y in zip(a, e))
               for a, e in zip(actual, expected))


class WarehouseOracle:
    """The relational statement list, recomputed over Python lists."""

    def __init__(self, data):
        self.customers = list(data.customers)   # (id, gender, hair, age, p)
        self.sales = list(data.sales)           # (cust, product, qty, type)

    def expected(self, op) -> Optional[List[tuple]]:
        kind = op.kind
        customers, sales = self.customers, self.sales
        if kind == "scan_filter":
            return [(c[0], c[3]) for c in customers
                    if c[1] == "Male" and c[3] > 40]
        if kind == "scan_like":
            return [(s[0], s[2]) for s in sales
                    if s[1].startswith("B") and 2 <= s[2] <= 6]
        if kind == "scan_group":
            groups: Dict[str, List[float]] = {}
            for s in sales:
                groups.setdefault(s[3], []).append(s[2])
            return [(type_, len(q), sum(q)) for type_, q in groups.items()]
        if kind == "scan_join":
            by_customer: Dict[int, List[str]] = {}
            for s in sales:
                by_customer.setdefault(s[0], []).append(s[1])
            return [(c[0], product) for c in customers if c[3] > 60
                    for product in by_customer.get(c[0], [])]
        if kind == "scan_top":
            ranked = sorted(customers, key=lambda c: (-c[3], c[0]))[:50]
            return [(c[0], c[3]) for c in ranked]
        if kind in ("seek", "point"):
            return [c for c in customers if c[0] == op.meta["key"]]
        if kind == "range":
            low, high = op.meta["low"], op.meta["high"]
            return [s for s in sales if low <= s[0] <= high]
        return None

    def check(self, checks: Checks, op, result) -> None:
        if op.kind == "insert":
            rows = op.meta["rows"]
            ok = result == len(rows)
            if ok:
                self.sales.extend(rows)   # acknowledged: now part of truth
            checks.record(ok, f"insert acknowledged {result!r}, "
                              f"sent {len(rows)} rows")
            return
        expected = self.expected(op)
        ok = isinstance(result, Rowset) and same_rows(result.rows, expected)
        checks.record(ok, f"{op.kind}: wrong answer for {op.text[:70]!r}")


def bucket_accuracy(connection, model_name: str, scored: Rowset,
                    truth: Dict[int, float]) -> float:
    """Share of customers whose predicted Age bucket holds their true age."""
    target = connection.model(model_name).space.for_column("Age")
    hits = 0
    for customer_id, predicted in scored.rows:
        label = target.discretizer.label(
            target.discretizer.bucket_of(truth[customer_id]))
        hits += predicted == label
    return hits / max(1, len(scored.rows))


class LifecycleOracle:
    def __init__(self, data):
        self.truth = {c[0]: c[3] for c in data.customers}
        self.customers = len(data.customers)
        self.cold: Dict[str, Rowset] = {}

    def check(self, checks: Checks, connection, op, result) -> None:
        kind, model = op.kind, op.meta["model"]
        if kind in ("create", "drop"):
            checks.record(result == 0, f"{kind} {model}: returned {result!r}")
        elif kind == "train":
            checks.record(result == self.customers,
                          f"train {model}: consumed {result!r} cases, "
                          f"expected {self.customers}")
        elif kind == "predict_cold":
            ok = isinstance(result, Rowset) and \
                len(result.rows) == self.customers
            checks.record(ok, f"score {model}: wrong row count")
            if ok:
                self.cold[model] = result
                accuracy = bucket_accuracy(connection, model, result,
                                           self.truth)
                checks.record(accuracy > ACCURACY_FLOOR,
                              f"score {model}: bucket accuracy "
                              f"{accuracy:.3f} <= {ACCURACY_FLOOR}")
        elif kind == "predict_warm":
            cold = self.cold.pop(model, None)
            checks.record(cold is not None and isinstance(result, Rowset)
                          and rowset_dump(result) == rowset_dump(cold),
                          f"re-score {model}: differs from the cold answer")
        elif kind == "browse":
            ok = isinstance(result, Rowset) and len(result.rows) >= 2 and \
                all(row[result.index_of("MODEL_NAME")] == model
                    for row in result.rows)
            checks.record(ok, f"browse {model}: content graph is wrong")


def check_against_twin(checks: Checks, twin, op, result) -> None:
    """``rowset_dump`` equality with an embedded in-memory provider that is
    fed the same statement (streams are compared as their drained rows)."""
    expected = twin.execute(op.text)
    if isinstance(expected, Rowset):
        ok = isinstance(result, Rowset) and \
            rowset_dump(result) == rowset_dump(expected)
    else:
        ok = result == expected
    checks.record(ok, f"{op.kind}: differs from the embedded in-memory "
                      f"answer for {op.text[:70]!r}")


def check_recovered(checks: Checks, connection, acknowledged: int) -> None:
    count = connection.execute("SELECT COUNT(*) AS n FROM Sink").rows[0][0]
    checks.record(count == acknowledged,
                  f"recovery: sink holds {count} rows, "
                  f"{acknowledged} inserts were acknowledged")
