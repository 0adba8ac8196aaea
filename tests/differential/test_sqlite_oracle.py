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

A second fixed seed draws a DML history (see the section below) that each
connection runs statement by statement beside SQLite.

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


# -- DML histories ------------------------------------------------------------
#
# A fixed-seed history of multi-row INSERTs (some with a duplicate key or a
# NULL where NOT NULL forbids it), UPDATEs and DELETEs over one table with a
# PRIMARY KEY and a NOT NULL column, run statement by statement on each
# connection and on SQLite.  After every statement the outcome (the count it
# returned, or its error class) and the table's ``SELECT *`` multiset must
# agree.  The WHERE trees hold ``=``, ranges, BETWEEN with NULL bounds,
# IS [NOT] NULL, IN lists with NULL, IN (SELECT …) and NOT, under AND / OR;
# on the indexed connections a sargable conjunct makes the statement seek.

DML_SEED = 4501
DML_STATEMENTS = 200
KEYS = 150   # keys are drawn from range(KEYS); the table starts with 40
P_COLUMNS = [("id", "LONG"), ("x", "LONG"), ("d", "DOUBLE"), ("t", "TEXT")]
P_INDEXES = ["CREATE INDEX ix_id ON P (id)", "CREATE INDEX ix_x ON P (x)",
             "CREATE INDEX ix_d ON P (d)", "CREATE INDEX ix_t ON P (t)"]
Q_ROWS = [(0, 1, 0.5), (1, 3, None), (2, None, 2.0), (3, 5, 3.5),
          (4, 7, 1.0), (5, 2, None), (6, 11, 4.5), (7, 4, 2.5)]


def _p_value(rng, kind):
    if kind == "LONG":
        return rng.randrange(-3, 12)
    if kind == "DOUBLE":
        return rng.randrange(-4, 16) / 2
    return rng.choice(TEXTS)


def _p_row(rng, key):
    """A row for P: now and then a NULL key or a NULL ``x`` (both refused)."""
    if rng.random() < 0.02:
        key = None
    x = None if rng.random() < 0.03 else _p_value(rng, "LONG")
    d = None if rng.random() < 0.2 else _p_value(rng, "DOUBLE")
    t = None if rng.random() < 0.2 else _p_value(rng, "TEXT")
    return (key, x, d, t)


class _Where:
    """Draws a DML WHERE tree as one text both engines read alike."""

    def __init__(self, rng):
        self.rng = rng

    def constant(self, kind, null_share=0.0):
        if self.rng.random() < null_share:
            return "NULL"
        if kind == "LONG" and self.rng.random() < 0.5:
            return _literal(self.rng.randrange(0, KEYS))   # a key in range
        return _literal(_p_value(self.rng, kind))

    def leaf(self):
        rng = self.rng
        name, kind = rng.choice(P_COLUMNS)
        shape = rng.randrange(8)
        if shape == 0:
            return f"{name} IS {rng.choice(['', 'NOT '])}NULL"
        if shape == 1:
            low = self.constant(kind, null_share=0.3)
            high = self.constant(kind, null_share=0.3)
            negated = rng.choice(["", "", "NOT "])
            return f"{name} {negated}BETWEEN {low} AND {high}"
        if shape == 2:
            items = ", ".join(self.constant(kind, null_share=0.25)
                              for _ in range(rng.randrange(1, 4)))
            return f"{name} {rng.choice(['', '', 'NOT '])}IN ({items})"
        if shape == 3 and kind == "LONG":
            column = rng.choice(["qx", "qid"])
            return (f"{name} {rng.choice(['', 'NOT '])}IN (SELECT {column} "
                    f"FROM Q WHERE qd > {self.constant('DOUBLE')})")
        if shape == 4:
            return f"NOT ({self.leaf()})"
        if shape == 5:
            op = rng.choice(["<", "<=", ">", ">="])
            return f"{name} {op} {self.constant(kind)}"
        return f"{name} = {self.constant(kind)}"

    def narrowed(self, share):
        """A tree under a conjunct on the key, ``share`` of the time: what
        keeps the DELETEs from emptying the table (and gives an index a
        seek)."""
        rng = self.rng
        if rng.random() >= share:
            return self.draw()
        low = rng.randrange(0, KEYS)
        key = rng.choice([
            f"id = {low}", f"id BETWEEN {low} AND {low + rng.randrange(8)}",
            f"id IN ({low}, {rng.randrange(0, KEYS)}, NULL)",
            f"id >= {rng.randrange(KEYS - 15, KEYS)}", f"{low // 4} > id"])
        return f"{key} AND {self.draw()}"

    def draw(self, depth=0):
        rng = self.rng
        if depth < 2 and rng.random() < 0.35:
            return (f"({self.draw(depth + 1)} {rng.choice(['AND', 'OR'])} "
                    f"{self.draw(depth + 1)})")
        return self.leaf()


def _assignment(rng, column):
    """One SET item for ``column``.  The key is only ever set to a
    constant (see the README's rule on SQLite's row-by-row UNIQUE check)."""
    if column == "id":
        return f"id = {rng.randrange(0, KEYS)}"
    kind = dict(P_COLUMNS)[column]
    return rng.choice({
        "x": [f"x = x + {rng.randrange(1, 4)}", "x = NULL"],
        "d": ["d = d * 2", "d = NULL"],
        "t": ["t = LOWER(t)", "t = NULL"],
    }[column] + [f"{column} = {_literal(_p_value(rng, kind))}"] * 2)


def _dml_history(rng):
    where = _Where(rng)
    drawn = ["INSERT INTO P VALUES " + ", ".join(
        "(" + ", ".join(map(_literal, (key, key % 7) + _p_row(rng, key)[2:]))
        + ")" for key in range(40))]
    for _ in range(DML_STATEMENTS):
        pick = rng.random()
        if pick < 0.35:
            rows = [_p_row(rng, rng.randrange(0, KEYS))
                    for _ in range(rng.randrange(1, 5))]
            drawn.append("INSERT INTO P VALUES " + ", ".join(
                "(" + ", ".join(map(_literal, row)) + ")" for row in rows))
        elif pick < 0.75:
            columns = [column for column in ("x", "d", "t")
                       if rng.random() < 0.5] or ["x"]
            if rng.random() < 0.1:
                columns.append("id")
            sets = ", ".join(_assignment(rng, column) for column in columns)
            drawn.append(f"UPDATE P SET {sets} WHERE {where.narrowed(0.5)}")
        else:
            drawn.append(f"DELETE FROM P WHERE {where.narrowed(0.9)}")
    return drawn


def _dml_oracle():
    conn = sqlite3.connect(":memory:", isolation_level=None)
    # The key is NOT NULL and INT: SQLite lets a non-INTEGER PRIMARY KEY
    # hold NULL, and an INTEGER PRIMARY KEY makes a NULL the next rowid.
    conn.execute("CREATE TABLE P (id INT NOT NULL PRIMARY KEY, "
                 "x INTEGER NOT NULL, d REAL, t TEXT)")
    conn.execute("CREATE TABLE Q (qid INTEGER, qx INTEGER, qd REAL)")
    conn.executemany("INSERT INTO Q VALUES (?, ?, ?)", Q_ROWS)
    return conn


def _dml_engine(indexed=False, **kwargs):
    conn = repro.connect(batch_size=8, caseset_cache_capacity=0, **kwargs)
    conn.execute("CREATE TABLE P (id LONG PRIMARY KEY, x LONG NOT NULL, "
                  "d DOUBLE, t TEXT)")
    conn.execute("CREATE TABLE Q (qid LONG, qx LONG, qd DOUBLE)")
    conn.execute("INSERT INTO Q VALUES " + ", ".join(
        "(" + ", ".join(map(_literal, row)) + ")" for row in Q_ROWS))
    if indexed:
        for ddl in P_INDEXES:
            conn.execute(ddl)
    return conn


#: Error classes by what refused the statement.  A refused key or NOT NULL
#: cell is a SchemaError / TypeError here and an IntegrityError in SQLite.
OUR_ERRORS = {"SchemaError": "constraint", "TypeError_": "constraint"}
SQLITE_ERRORS = {"IntegrityError": "constraint"}


def _outcome(run, errors):
    try:
        return "ok", run()
    except Exception as exc:  # the class is what is compared
        return "error", errors.get(type(exc).__name__, type(exc).__name__)


DML_CONNECTIONS = {
    "statistics on": {},
    "statistics off": {"statistics": False},
    "indexed": {"indexed": True},
    "indexed, statistics off": {"indexed": True, "statistics": False},
    "paged": {"indexed": True, "buffer_pages": 2, "storage_page_bytes": 512},
}


@pytest.mark.parametrize("engine", list(DML_CONNECTIONS))
def test_dml_histories_leave_sqlites_rows(engine, tmp_path):
    kwargs = dict(DML_CONNECTIONS[engine])
    if "buffer_pages" in kwargs:
        kwargs["storage_path"] = str(tmp_path)
    conn, oracle = _dml_engine(**kwargs), _dml_oracle()
    try:
        for statement in _dml_history(random.Random(DML_SEED)):
            ours = _outcome(lambda: conn.execute(statement), OUR_ERRORS)
            theirs = _outcome(lambda: oracle.execute(statement).rowcount,
                              SQLITE_ERRORS)
            assert ours == theirs, statement
            assert Counter(conn.execute("SELECT * FROM P").rows) == \
                Counter(oracle.execute("SELECT * FROM P").fetchall()), \
                statement
    finally:
        conn.close()
        oracle.close()


def test_the_dml_history_covers_refusals_and_changes():
    """Guard against a history that tests nothing: some statements are
    refused and many change rows."""
    conn = _dml_engine(indexed=True)
    refused = changed = 0
    for statement in _dml_history(random.Random(DML_SEED)):
        outcome = _outcome(lambda: conn.execute(statement), OUR_ERRORS)
        refused += outcome[0] == "error"
        changed += outcome[0] == "ok" and outcome[1] > 0
    conn.close()
    assert refused > 10 and changed > 50
