"""Differential harness: the relational join subset against SQLite.

Every other oracle in this suite is an earlier version of this engine's
own code.  This one is not: the standard library's ``sqlite3`` answers the
same statements over the same rows, and the result multisets must agree.

A fixed seed draws INNER and LEFT joins of two tables with LONG, DOUBLE
and TEXT columns, NULLs among their values, under a WHERE of conjuncts:
some one join side decides alone (with statistics on they run below the
join, on the preserved side of a LEFT join only), some read both sides,
name a column without its qualifier, call a function or hold a subquery.
Each statement runs on four connections — statistics on, statistics off,
indexes on the join keys (an index-built join), and the paged store with
a two-page pool — and each must return SQLite's rows.

The deliberate differences are listed in ``tests/reference/README.md``:
this engine's LIKE ignores case, so the SQLite rendering of a LIKE lowers
both operands (under ``case_sensitive_like = ON``, so SQLite folds nothing
else); and no statement divides, since ``/`` on two LONGs is a DOUBLE here
and an integer in SQLite.
"""

import random
import sqlite3
from collections import Counter

import pytest

import repro

SEED = 2001
STATEMENTS = 160

TEXTS = ["a", "ab", "Ab", "b", "ba", "B", "abc", ""]
COLUMNS = {  # table -> (column, class) in declaration order
    "L": [("lid", "LONG"), ("lx", "LONG"), ("ld", "DOUBLE"), ("lt", "TEXT")],
    "R": [("rid", "LONG"), ("rx", "LONG"), ("rd", "DOUBLE"), ("rt", "TEXT")],
}
SQLITE_TYPES = {"LONG": "INTEGER", "DOUBLE": "REAL", "TEXT": "TEXT"}
SIZES = {"L": 40, "R": 60}
INDEXES = ["CREATE INDEX ix_rx ON R (rx)", "CREATE INDEX ix_rt ON R (rt)",
           "CREATE INDEX ix_rd ON R (rd)", "CREATE INDEX ix_lx ON L (lx)"]


def _value(rng, kind):
    if rng.random() < 0.15:
        return None
    if kind == "LONG":
        return rng.randrange(-2, 8)
    if kind == "DOUBLE":
        return rng.randrange(-4, 12) / 2
    return rng.choice(TEXTS)


def _literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def _rows(rng):
    return {table: [tuple([position] + [_value(rng, kind)
                                        for _, kind in columns[1:]])
                    for position in range(SIZES[table])]
            for table, columns in COLUMNS.items()}


class _Conjuncts:
    """Draws WHERE conjuncts, each as ``(ours, sqlite's)`` texts."""

    def __init__(self, rng):
        self.rng = rng

    def column(self, table, kinds=("LONG", "DOUBLE", "TEXT")):
        name, kind = self.rng.choice(
            [column for column in COLUMNS[table][1:] if column[1] in kinds])
        return name, kind

    def constant(self, kind):
        value = None
        while value is None:
            value = _value(self.rng, kind)
        return _literal(value)

    def on(self, table, qualified=True):
        """A conjunct over one side's columns."""
        rng = self.rng
        name, kind = self.column(table)
        ref = f"{table.lower()}.{name}" if qualified else name
        shape = rng.randrange(7)
        if shape == 0:
            return self.same(f"{ref} IS {rng.choice(['', 'NOT '])}NULL")
        if shape == 1:
            low, high = sorted([self.constant(kind), self.constant(kind)],
                               key=None if kind == "TEXT" else float)
            return self.same(f"{ref} BETWEEN {low} AND {high}")
        if shape == 2:
            items = ", ".join(self.constant(kind) for _ in range(3))
            return self.same(f"{ref} {rng.choice(['', 'NOT '])}IN ({items})")
        if shape == 3 and kind == "TEXT":
            pattern = rng.choice(["a%", "%b", "_a%", "B%", "%", "a_"])
            negated = rng.choice(["", "NOT "])
            return (f"{ref} {negated}LIKE '{pattern}'",
                    f"LOWER({ref}) {negated}LIKE LOWER('{pattern}')")
        if shape == 4:
            other, other_kind = self.column(table)
            other_ref = (f"{table.lower()}.{other}" if qualified else other)
            return self.same(
                f"({ref} = {self.constant(kind)} OR "
                f"{other_ref} <> {self.constant(other_kind)})")
        if shape == 5:
            return self.same(
                f"NOT ({ref} {rng.choice(['<', '>='])} "
                f"{self.constant(kind)})")
        op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
        return self.same(f"{ref} {op} {self.constant(kind)}")

    def across(self):
        """A conjunct that reads both sides."""
        rng = self.rng
        kind = rng.choice(["LONG", "DOUBLE", "TEXT"])
        kinds = ("LONG", "DOUBLE") if kind != "TEXT" else ("TEXT",)
        left, _ = self.column("L", kinds)
        right, _ = self.column("R", kinds)
        if rng.random() < 0.3:
            return self.same(f"(l.{left} IS NULL OR r.{right} IS NULL)")
        op = rng.choice(["=", "<>", "<", ">="])
        return self.same(f"l.{left} {op} r.{right}")

    def called(self):
        """A conjunct calling a function: it never runs below the join."""
        table = self.rng.choice(["L", "R"])
        name, kind = self.column(table, ("LONG", "TEXT"))
        ref = f"{table.lower()}.{name}"
        if kind == "TEXT":
            return self.same(
                f"LOWER({ref}) = {self.constant('TEXT').lower()}")
        return self.same(f"ABS({ref}) > {self.rng.randrange(0, 4)}")

    def subquery(self):
        """A conjunct holding a subquery: it never runs below the join."""
        rng = self.rng
        if rng.random() < 0.5:
            return self.same(
                f"l.lx {rng.choice(['', 'NOT '])}IN (SELECT rx FROM R "
                f"WHERE rd > {self.constant('DOUBLE')})")
        return self.same("r.rd >= (SELECT MIN(ld) FROM L WHERE lt = "
                         f"{self.constant('TEXT')})")

    @staticmethod
    def same(text):
        return text, text

    def draw(self):
        rng = self.rng
        pick = rng.random()
        if pick < 0.3:
            return self.on("L")
        if pick < 0.55:
            return self.on("R")
        if pick < 0.7:
            return self.across()
        if pick < 0.8:
            return self.on(rng.choice(["L", "R"]), qualified=False)
        if pick < 0.9:
            return self.called()
        return self.subquery()


ON_KEYS = [("lx", "rx"), ("lt", "rt"), ("ld", "rd"), ("lx", "rd")]


def _statements(rng):
    conjuncts = _Conjuncts(rng)
    drawn = []
    for _ in range(STATEMENTS):
        kind = rng.choice(["INNER", "LEFT"])
        left, right = rng.choice(ON_KEYS)
        on = f"l.{left} = r.{right}"
        if rng.random() < 0.2:
            on += f" AND {conjuncts.across()[0]}"
        where = [conjuncts.draw() for _ in range(rng.randrange(1, 4))]
        text = (f"SELECT l.lid, r.rid, l.lx, r.rd, r.rt FROM L AS l "
                f"{kind} JOIN R AS r ON {on} WHERE ")
        drawn.append((text + " AND ".join(ours for ours, _ in where),
                      text + " AND ".join(theirs for _, theirs in where)))
    return drawn


def _oracle(rows):
    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like = ON")
    for table, columns in COLUMNS.items():
        conn.execute(f"CREATE TABLE {table} (" + ", ".join(
            f"{name} {SQLITE_TYPES[kind]}" for name, kind in columns) + ")")
        conn.executemany(
            f"INSERT INTO {table} VALUES ({', '.join('?' * len(columns))})",
            rows[table])
    return conn


def _engine(rows, **kwargs):
    indexed = kwargs.pop("indexed", False)
    conn = repro.connect(batch_size=8, caseset_cache_capacity=0, **kwargs)
    for table, columns in COLUMNS.items():
        conn.execute(f"CREATE TABLE {table} (" + ", ".join(
            f"{name} {kind}" for name, kind in columns) + ")")
        conn.execute(f"INSERT INTO {table} VALUES " + ", ".join(
            "(" + ", ".join(map(_literal, row)) + ")"
            for row in rows[table]))
    if indexed:
        for ddl in INDEXES:
            conn.execute(ddl)
    return conn


@pytest.fixture(scope="module")
def setups(tmp_path_factory):
    rng = random.Random(SEED)
    rows = _rows(rng)
    engines = {
        "statistics on": _engine(rows),
        "statistics off": _engine(rows, statistics=False),
        "indexed": _engine(rows, indexed=True),
        "paged": _engine(rows, indexed=True,
                         storage_path=str(tmp_path_factory.mktemp("paged")),
                         buffer_pages=2, storage_page_bytes=512),
    }
    oracle = _oracle(rows)
    yield _statements(rng), engines, oracle
    oracle.close()
    for conn in engines.values():
        conn.close()


@pytest.mark.parametrize("engine", ["statistics on", "statistics off",
                                    "indexed", "paged"])
def test_joins_return_sqlites_rows(setups, engine):
    statements, engines, oracle = setups
    conn = engines[engine]
    for ours, theirs in statements:
        expected = Counter(oracle.execute(theirs).fetchall())
        assert Counter(conn.execute(ours).rows) == expected, ours


def test_the_draw_covers_pushed_and_kept_conjuncts(setups):
    """Guard against a sweep that tests nothing: with statistics on, some
    statements run a conjunct below the join and some keep one above."""
    statements, engines, _ = setups
    conn = engines["statistics on"]
    filters = selects_filtering = 0
    for ours, _ in statements[:60]:
        plan = conn.execute(f"EXPLAIN {ours}")
        names = [column.name for column in plan.columns]
        rows = [dict(zip(names, row)) for row in plan.rows]
        filters += any(row["OPERATOR"] == "filter" for row in rows)
        selects_filtering += rows[0]["DETAIL"] is not None
    assert filters > 10 and selects_filtering > 10
