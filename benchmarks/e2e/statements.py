"""The statements each workload sends, generated from the seed.

The provider only ever sees these command strings: every key, range and
inserted value is drawn here from ``random.Random(seed)``, so equal seeds
give equal statement lists and the op *counts* never depend on how fast the
program runs.  Nothing in this module imports :mod:`repro`."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

# -- the life cycle (paper sections 3.2-3.3) --------------------------------------

LIFECYCLE_ALGORITHMS = (("dt", "Repro_Decision_Trees"),
                        ("nb", "Repro_Naive_Bayes"))

CREATE_MODEL = """
CREATE MINING MODEL [{name}] (
    [Customer ID] LONG KEY,
    [Gender]      TEXT DISCRETE,
    [Age]         DOUBLE DISCRETIZED(EQUAL_COUNT, 3) PREDICT,
    [Product Purchases] TABLE([Product Name] TEXT KEY)
) USING {algorithm}
"""

TRAIN_MODEL = """
INSERT INTO [{name}] ([Customer ID], [Gender], [Age],
    [Product Purchases]([Product Name]))
SHAPE {{SELECT [Customer ID], Gender, Age FROM Customers
        ORDER BY [Customer ID]}}
APPEND ({{SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}}
        RELATE [Customer ID] TO CustID) AS [Product Purchases]
"""

SCORE_MODEL = """
SELECT t.[Customer ID], [{name}].[Age] AS predicted
FROM [{name}] NATURAL PREDICTION JOIN
    (SHAPE {{SELECT [Customer ID], Gender FROM Customers
             ORDER BY [Customer ID]}}
     APPEND ({{SELECT CustID, [Product Name] FROM Sales ORDER BY CustID}}
             RELATE [Customer ID] TO CustID) AS [Product Purchases]) AS t
"""

# -- the relational statement list (sql_mem and sql_paged share it) -----------------

SCAN_SHAPES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("scan_filter",
     "SELECT [Customer ID], Age FROM Customers "
     "WHERE Gender = 'Male' AND Age > 40", ("Customers",)),
    ("scan_like",
     "SELECT CustID, Quantity FROM Sales "
     "WHERE [Product Name] LIKE 'B%' AND Quantity BETWEEN 2 AND 6",
     ("Sales",)),
    ("scan_group",
     "SELECT [Product Type], COUNT(*) AS n, SUM(Quantity) AS q "
     "FROM Sales GROUP BY [Product Type]", ("Sales",)),
    ("scan_join",
     "SELECT c.[Customer ID], s.[Product Name] FROM Customers AS c "
     "INNER JOIN Sales AS s ON c.[Customer ID] = s.CustID "
     "WHERE c.Age > 60", ("Customers", "Sales")),
    ("scan_top",
     "SELECT TOP 50 [Customer ID], Age FROM Customers "
     "ORDER BY Age DESC, [Customer ID]", ("Customers",)),
)

SQL_INDEXES = ("CREATE INDEX ix_customers_id ON Customers ([Customer ID])",
               "CREATE INDEX ix_sales_cust ON Sales (CustID)")

INSERT_PRODUCTS = (("Beer", "Beverage"), ("Bread", "Food"),
                   ("Laptop", "Electronic"), ("Toy Car", "Toys"))

RANGE_WIDTH = 20

# -- the served mix --------------------------------------------------------------------

SERVED_MODEL = "Served NB"

SERVED_SETUP = (
    "CREATE INDEX ix_customers_id ON Customers ([Customer ID])",
    "CREATE TABLE Sink (id LONG, client LONG, note TEXT)",
    f"CREATE MINING MODEL [{SERVED_MODEL}] ([Customer ID] LONG KEY, "
    f"Gender TEXT DISCRETE, [Hair Color] TEXT DISCRETE, "
    f"Age DOUBLE DISCRETIZED(EQUAL_COUNT, 3) PREDICT) "
    f"USING Repro_Naive_Bayes",
    f"INSERT INTO [{SERVED_MODEL}] ([Customer ID], Gender, [Hair Color], "
    f"Age) SELECT [Customer ID], Gender, [Hair Color], Age FROM Customers",
)

SERVED_MIX = (("point", 40), ("predict", 30), ("insert", 20), ("range", 10))
SERVED_RANGE_WIDTH = 40
GENDERS = ("Male", "Female")
HAIR_COLORS = ("Black", "Brown", "Blond", "Red", "Gray")


class Op:
    """One statement: its class, its text, and what the oracle needs.
    ``stream`` statements go through ``execute_stream``."""

    __slots__ = ("kind", "text", "stream", "meta")

    def __init__(self, kind: str, text: str, stream: bool = False,
                 meta: Optional[dict] = None):
        self.kind = kind
        self.text = text
        self.stream = stream
        self.meta = meta or {}


def lifecycle_round(round_no: int) -> List[Op]:
    """CREATE -> train -> score cold -> score warm -> browse -> DROP, for a
    decision tree then a naive Bayes model.  A fresh model name per round
    keeps the first scoring statement cold in the caseset cache."""
    ops: List[Op] = []
    for tag, algorithm in LIFECYCLE_ALGORITHMS:
        name = f"LC {tag} r{round_no}"
        meta = {"model": name, "algorithm": tag}
        score = SCORE_MODEL.format(name=name)
        ops += [
            Op("create", CREATE_MODEL.format(name=name, algorithm=algorithm),
               meta=meta),
            Op("train", TRAIN_MODEL.format(name=name), meta=meta),
            Op("predict_cold", score, meta=meta),
            Op("predict_warm", score, meta=meta),
            Op("browse", f"SELECT * FROM [{name}].CONTENT", meta=meta),
            Op("drop", f"DROP MINING MODEL [{name}]", meta=meta),
        ]
    return ops


class SqlStatements:
    """Rounds of: five scan shapes, seeded point and range seeks, and two
    multi-row ``INSERT INTO Sales VALUES`` statements."""

    def __init__(self, seed: int, customers: int, seeks: int, ranges: int,
                 insert_rows: int):
        self.rng = random.Random(seed * 7919 + 1)
        self.customers = customers
        self.seeks = seeks
        self.ranges = ranges
        self.insert_rows = insert_rows

    def round(self, round_no: int) -> List[Op]:
        rng = self.rng
        ops = [Op(kind, text, meta={"tables": tables})
               for kind, text, tables in SCAN_SHAPES]
        for _ in range(self.seeks):
            key = rng.randint(1, self.customers)
            ops.append(Op(
                "seek",
                f"SELECT * FROM Customers WHERE [Customer ID] = {key}",
                meta={"key": key}))
        for _ in range(self.ranges):
            low = rng.randint(1, max(1, self.customers - RANGE_WIDTH))
            high = low + RANGE_WIDTH
            ops.append(Op(
                "range",
                f"SELECT * FROM Sales WHERE CustID BETWEEN {low} AND {high}",
                meta={"low": low, "high": high}))
        for _ in range(2):
            rows = []
            for _ in range(self.insert_rows):
                product, type_ = rng.choice(INSERT_PRODUCTS)
                rows.append((rng.randint(1, self.customers), product,
                             float(rng.randint(1, 9)), type_))
            values = ", ".join(
                f"({cust}, '{product}', {quantity!r}, '{type_}')"
                for cust, product, quantity, type_ in rows)
            ops.append(Op("insert", f"INSERT INTO Sales VALUES {values}",
                          meta={"rows": rows}))
        return ops


class ServedStatements:
    """Per client and round, a seeded shuffle holding exactly the mix's
    shares of point SELECTs, singleton predictions, journaled single-row
    INSERTs and streamed range SELECTs."""

    def __init__(self, seed: int, client: int, customers: int,
                 per_round: int):
        self.rng = random.Random(seed * 104729 + client)
        self.client = client
        self.customers = customers
        self.per_round = per_round
        self.next_id = 0

    def round(self, round_no: int) -> List[Op]:
        rng = self.rng
        kinds: List[str] = []
        for kind, share in SERVED_MIX:
            kinds += [kind] * (self.per_round * share // 100)
        kinds += ["point"] * (self.per_round - len(kinds))
        rng.shuffle(kinds)
        ops = []
        for kind in kinds:
            if kind == "point":
                key = rng.randint(1, self.customers)
                ops.append(Op(
                    kind,
                    f"SELECT * FROM Customers WHERE [Customer ID] = {key}",
                    meta={"key": key}))
            elif kind == "predict":
                ops.append(Op(
                    kind,
                    f"SELECT [{SERVED_MODEL}].[Age] FROM [{SERVED_MODEL}] "
                    f"NATURAL PREDICTION JOIN "
                    f"(SELECT '{rng.choice(GENDERS)}' AS Gender, "
                    f"'{rng.choice(HAIR_COLORS)}' AS [Hair Color]) AS t"))
            elif kind == "insert":
                self.next_id += 1
                ops.append(Op(
                    kind,
                    f"INSERT INTO Sink VALUES ({self.next_id}, "
                    f"{self.client}, 'note {self.next_id}')",
                    meta={"rows": 1}))
            else:
                low = rng.randint(
                    1, max(1, self.customers - SERVED_RANGE_WIDTH))
                ops.append(Op(
                    kind,
                    f"SELECT [Customer ID], Gender, Age FROM Customers "
                    f"WHERE [Customer ID] BETWEEN {low} AND "
                    f"{low + SERVED_RANGE_WIDTH}",
                    stream=True))
        return ops


def scale_of(workload: str, seconds: float, quick: bool) -> Dict[str, int]:
    """Data size and op counts of one run.

    Counts are fixed by ``seconds`` alone — ``rounds`` is ``seconds``
    divided by the round's wall time on the seed commit (two cores), so the
    timed phase lasts about ``seconds`` there while equal arguments always
    mean equal work.  ``quick`` is the 1/10-scale smoke configuration.
    """
    def rounds(per_round_s: float, floor: int) -> int:
        return max(floor, int(round(seconds / per_round_s)))

    if workload == "lifecycle_mem":
        if quick:
            return {"customers": 200, "rounds": 3}
        return {"customers": 2000, "rounds": rounds(1.25, 4)}
    if workload in ("sql_mem", "sql_paged"):
        paged = workload == "sql_paged"
        if quick:
            scale = {"customers": 500, "rounds": 3, "seeks": 20,
                     "ranges": 4, "insert_rows": 20}
        else:
            scale = {"customers": 5000,
                     "rounds": rounds(0.95 if paged else 0.55, 6),
                     "seeks": 200, "ranges": 20, "insert_rows": 100}
        if paged:
            scale.update(buffer_pages=2 if quick else 16, page_bytes=4096)
        return scale
    if workload == "served_mixed":
        scale = {"customers": 200, "rounds": 3, "per_round": 40,
                 "clients": 2, "recoveries": 2} if quick else \
                {"customers": 2000, "rounds": rounds(0.62, 6),
                 "per_round": 100, "clients": 2, "recoveries": 5}
        # One auto-checkpoint per round (the interval is a round's journaled
        # INSERTs), so every round does the same work.
        insert_share = dict(SERVED_MIX)["insert"]
        scale["checkpoint_interval"] = \
            scale["clients"] * scale["per_round"] * insert_share // 100
        return scale
    raise ValueError(f"unknown workload {workload!r}")
