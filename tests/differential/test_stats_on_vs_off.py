"""Differential harness: cost-based planning vs the heuristic baseline.

Statistics feed the planner real decisions — hash-join build side, index
seek vs table scan, parallel-vs-serial gating, prediction source-predicate
pushdown — and every one of them must be *invisible* in results.  Two
providers hold identical data; one runs with table statistics (the
default), the other with ``statistics=False``, which pins the planner to
the pre-statistics heuristics.  For every statement shape in the grid the
canonical :func:`~repro.server.protocol.rowset_dump` must be
byte-identical: a cost-based plan that changes output is a planner bug,
full stop.

The sweep covers the plain grid, an indexed pair (seek gating and
index-built joins in play), a forced-spill paged pair (page-cost-aware
decisions in play), the wire transport, and PREDICTION JOIN with a
pushable source predicate (the pushdown path).  A join grid runs on every
pair: with statistics a WHERE conjunct that one join leaf decides runs
below the join, without them the whole WHERE runs above it.
"""

import pytest

import repro
from repro.errors import BindError, Error
from repro.server.protocol import rowset_dump

from tests.differential.test_stream_vs_materialize import (
    STATEMENTS,
    TINY_BATCH,
    _load,
)

FORCED_BUFFER_PAGES = 2
TINY_PAGE_BYTES = 512

INDEX_DDL = [
    "CREATE INDEX ix_cust_city ON Customers (city)",
    "CREATE INDEX ix_cust_age ON Customers (age)",
    "CREATE INDEX ix_orders_cid ON Orders (cid)",
]

# Join keys with NULLs and NaNs, a BOOLEAN index as a build side, and a
# table joined to itself under one qualifier.
JOIN_SETUP = [
    "CREATE TABLE Keys (id LONG, k DOUBLE, flag BOOLEAN, note TEXT)",
    "INSERT INTO Keys VALUES (1, 1.0, TRUE, 'a'), (2, NULL, FALSE, 'b'), "
    "(3, 'NaN', TRUE, NULL), (4, 2.0, NULL, 'c'), (5, 1.0, FALSE, 'd'), "
    "(6, 'NaN', FALSE, 'e'), (7, 2.0, TRUE, 'f')",
    "CREATE TABLE Flags (flag BOOLEAN, label TEXT)",
    "INSERT INTO Flags VALUES (TRUE, 'yes'), (FALSE, 'no'), "
    "(NULL, 'unknown'), (TRUE, 'again')",
    "CREATE INDEX ix_flags_flag ON Flags (flag)",
    "CREATE INDEX ix_keys_k ON Keys (k)",
    "CREATE TABLE T2 (k LONG, c TEXT, a LONG)",
    "INSERT INTO T2 VALUES (1, 'p', 1), (2, 'q', 3), (3, NULL, 3), "
    "(NULL, 's', 7), (7, 'p', 7), (5, 'r', 4), (9, 'x', 2)",
]

JOIN_ON = "FROM Customers AS c JOIN Orders AS o ON c.cid = o.cid "
LEFT_ON = "FROM Customers AS c LEFT JOIN Orders AS o ON c.cid = o.cid "

JOIN_STATEMENTS = [
    # INNER: a conjunct on the left only, the right only, across both
    # sides, unqualified, and with a subquery.
    "SELECT c.name, o.product " + JOIN_ON + "WHERE c.age > 40",
    "SELECT c.name, o.oid " + JOIN_ON + "WHERE o.qty >= 5 AND o.price < 60",
    "SELECT c.cid, o.oid " + JOIN_ON +
    "WHERE c.spend > o.price AND o.product <> 'TV'",
    "SELECT c.cid, o.oid " + JOIN_ON + "WHERE qty > 3 AND c.city = 'Austin'",
    "SELECT c.cid, o.oid " + JOIN_ON +
    "WHERE c.cid IN (SELECT cid FROM Customers WHERE age < 40) "
    "AND o.price > 20 AND c.name LIKE 'c0%'",
    "SELECT c.city, COUNT(*) AS n " + JOIN_ON +
    "WHERE o.product IN ('TV', 'Ham') GROUP BY c.city ORDER BY c.city",
    "SELECT TOP 5 c.name, o.price " + JOIN_ON +
    "WHERE c.age BETWEEN 20 AND 50 ORDER BY o.price DESC, o.oid",
    # LEFT: the preserved side takes its conjuncts; the NULL-padded side's
    # (``o.oid IS NULL`` among them) stay above the join.
    "SELECT c.name, o.oid " + LEFT_ON + "WHERE c.city = 'Boston'",
    "SELECT c.cid, c.name " + LEFT_ON + "WHERE o.oid IS NULL",
    "SELECT c.cid, o.oid " + LEFT_ON + "WHERE o.qty > 2 AND c.age < 50",
    "SELECT c.cid, o.oid " + LEFT_ON + "WHERE NOT (c.age < 30) "
    "AND (o.qty IS NULL OR o.qty < 4)",
    # CROSS, spelled out and as a comma list.
    "SELECT c.cid, s.region FROM Customers AS c CROSS JOIN Stores AS s "
    "WHERE s.region = 'West' AND c.age > 60",
    "SELECT c.name, s.city FROM Customers AS c, Stores AS s "
    "WHERE c.city = s.city AND s.region IS NOT NULL AND c.spend < 100",
    # Three-way, and a LEFT join nested under an INNER one.
    "SELECT c.name, o.product, s.region FROM Customers AS c "
    "JOIN Orders AS o ON c.cid = o.cid JOIN Stores AS s ON c.city = s.city "
    "WHERE s.region <> 'East' AND o.qty BETWEEN 2 AND 6 AND c.age > 25",
    "SELECT c.cid, o.oid, s.region FROM Customers AS c "
    "LEFT JOIN Orders AS o ON c.cid = o.cid "
    "JOIN Stores AS s ON c.city = s.city "
    "WHERE o.price > 10 AND s.region IS NOT NULL AND c.cid < 40",
    # NULL and NaN join keys, and a BOOLEAN index as the build side.
    "SELECT a.id, b.id FROM Keys AS a JOIN Keys AS b ON a.k = b.k "
    "WHERE b.id > 1",
    "SELECT a.id, b.note FROM Keys AS a LEFT JOIN Keys AS b ON a.k = b.k "
    "WHERE a.note IS NOT NULL",
    "SELECT k.id, f.label FROM Keys AS k JOIN Flags AS f ON k.flag = f.flag "
    "WHERE k.id <> 4",
    "SELECT k.id, f.label FROM Keys AS k JOIN Flags AS f ON k.id = f.flag "
    "WHERE f.label <> 'no'",
    "SELECT k.id, f.label FROM Keys AS k LEFT JOIN Flags AS f "
    "ON k.flag = f.flag WHERE k.k IS NULL OR k.k > 1",
    # One qualifier, two leaves: by name ``T2.c`` reads the left one.
    "SELECT * FROM T2 INNER JOIN T2 ON T2.k = T2.a WHERE T2.c = 'q'",
    "SELECT l.k, r.c FROM T2 AS l JOIN T2 AS r ON l.k = r.a "
    "WHERE r.c = 'p' AND l.c IS NOT NULL",
]

# ``c.region`` names no Customers column.  A qualified name never falls
# back to another source's bare column (here Stores' ``region``), so the
# conjunct is the same BindError pushed below the join and above it.
UNKNOWN_QUALIFIED = (
    "SELECT c.cid, s.region FROM Customers AS c JOIN Stores AS s "
    "ON c.city = s.city WHERE c.region = 'West' AND c.age > 30")

MODEL_DDL = [
    "CREATE MINING MODEL SpendModel (cid LONG KEY, city TEXT DISCRETE, "
    "spend DOUBLE CONTINUOUS PREDICT) USING Repro_Linear_Regression",
    "INSERT INTO SpendModel (cid, city, spend) "
    "SELECT cid, city, spend FROM Customers",
]

PREDICTION_STATEMENTS = [
    # Alias-qualified source conjunct: eligible for pushdown below binding.
    "SELECT t.cid, SpendModel.spend FROM SpendModel NATURAL PREDICTION "
    "JOIN (SELECT cid, city, spend FROM Customers) AS t "
    "WHERE t.city = 'Austin'",
    # Mixed WHERE: one pushable conjunct, one over the prediction output.
    "SELECT t.cid FROM SpendModel NATURAL PREDICTION JOIN "
    "(SELECT cid, city, spend FROM Customers) AS t "
    "WHERE t.cid > 10 AND PredictProbability(SpendModel.spend) >= 0",
    # Nothing pushable (unqualified model column in every conjunct).
    "SELECT TOP 7 t.cid, SpendModel.spend FROM SpendModel NATURAL "
    "PREDICTION JOIN (SELECT cid, city, spend FROM Customers) AS t",
]


def _pair(maker):
    on = maker(statistics=True)
    off = maker(statistics=False)
    return on, off


def _load_all(conn):
    _load(conn)
    for statement in JOIN_SETUP:
        conn.execute(statement)


def _memory(**kwargs):
    conn = repro.connect(batch_size=TINY_BATCH, caseset_cache_capacity=0,
                         **kwargs)
    _load_all(conn)
    return conn


@pytest.fixture(scope="module")
def plain_pair():
    on, off = _pair(_memory)
    yield on, off
    on.close()
    off.close()


@pytest.fixture(scope="module")
def indexed_pair():
    on, off = _pair(_memory)
    for conn in (on, off):
        for ddl in INDEX_DDL:
            conn.execute(ddl)
    yield on, off
    on.close()
    off.close()


@pytest.fixture(scope="module")
def paged_pair(tmp_path_factory):
    def make(statistics):
        root = tmp_path_factory.mktemp(
            "stats-on" if statistics else "stats-off")
        conn = repro.connect(batch_size=TINY_BATCH,
                             caseset_cache_capacity=0,
                             storage_path=str(root),
                             buffer_pages=FORCED_BUFFER_PAGES,
                             storage_page_bytes=TINY_PAGE_BYTES,
                             statistics=statistics)
        _load_all(conn)
        for ddl in INDEX_DDL:
            conn.execute(ddl)
        return conn
    on, off = _pair(lambda statistics: make(statistics))
    yield on, off
    on.close()
    off.close()


@pytest.fixture(scope="module")
def prediction_pair():
    def make(statistics):
        conn = _memory(statistics=statistics)
        for ddl in MODEL_DDL:
            conn.execute(ddl)
        return conn
    on, off = _pair(lambda statistics: make(statistics))
    yield on, off
    on.close()
    off.close()


# -- the grid, byte for byte ---------------------------------------------------

@pytest.mark.parametrize("statement", STATEMENTS + JOIN_STATEMENTS)
def test_stats_on_matches_stats_off(plain_pair, statement):
    on, off = plain_pair
    assert rowset_dump(on.execute(statement)) == \
        rowset_dump(off.execute(statement))


@pytest.mark.parametrize("statement", STATEMENTS + JOIN_STATEMENTS)
def test_indexed_stats_on_matches_stats_off(indexed_pair, statement):
    """Cost-based seek gating and build-side choice may pick different
    access paths than the heuristics — never different rows."""
    on, off = indexed_pair
    assert rowset_dump(on.execute(statement)) == \
        rowset_dump(off.execute(statement))


@pytest.mark.parametrize("statement", STATEMENTS + JOIN_STATEMENTS)
def test_paged_stats_on_matches_stats_off(paged_pair, statement):
    """Page-cost-aware planning under forced spill: a plan that weighs
    buffer residency must still reproduce the heuristic output exactly."""
    on, off = paged_pair
    assert rowset_dump(on.execute(statement)) == \
        rowset_dump(off.execute(statement))


def test_cost_based_planner_really_diverges(paged_pair):
    """Guard against the sweep silently testing nothing: under forced
    spill with statistics on, at least one access-path decision must
    differ from the heuristic baseline (the decisions differ; the rows
    above never do)."""
    on, off = paged_pair
    query = ("SELECT TABLE_NAME, INDEX_NAME, SEEKS, RANGE_SEEKS "
             "FROM $SYSTEM.DM_INDEXES")
    assert rowset_dump(on.execute(query)) != rowset_dump(off.execute(query))


# -- wire transport ------------------------------------------------------------

@pytest.fixture(scope="module")
def stats_wire(plain_pair):
    from repro.client import connect as net_connect
    from repro.server import DmxServer
    on, _ = plain_pair
    with DmxServer(on.provider, port=0) as server:
        with net_connect("127.0.0.1", server.port) as conn:
            yield conn
    assert server.thread_errors == []


@pytest.mark.parametrize("statement", STATEMENTS[::3] + JOIN_STATEMENTS)
def test_wire_over_stats_matches_stats_off(plain_pair, stats_wire,
                                           statement):
    _, off = plain_pair
    assert rowset_dump(stats_wire.execute(statement)) == \
        rowset_dump(off.execute(statement))


@pytest.mark.parametrize("pair", ["plain_pair", "indexed_pair",
                                  "paged_pair", "stats_wire"])
def test_a_column_its_qualifier_lacks_is_one_bind_error(request, pair):
    if pair == "stats_wire":
        on, off = request.getfixturevalue(pair), \
            request.getfixturevalue("plain_pair")[1]
    else:
        on, off = request.getfixturevalue(pair)
    messages = []
    for conn in (on, off):
        with pytest.raises(BindError) as caught:
            conn.execute(UNKNOWN_QUALIFIED)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert "'c.region'" in messages[0]


# -- PREDICTION JOIN pushdown --------------------------------------------------

@pytest.mark.parametrize("statement", PREDICTION_STATEMENTS)
def test_prediction_pushdown_matches_unpushed(prediction_pair, statement):
    """Source-predicate pushdown below the binding stage must be
    row-for-row invisible: the full WHERE still applies downstream."""
    on, off = prediction_pair
    assert rowset_dump(on.execute(statement)) == \
        rowset_dump(off.execute(statement))


def test_a_pushed_conjunct_raises_where_the_unpushed_where_does(
        prediction_pair):
    """A NULL conjunct does not stop an AND: below binding as above it,
    the conjunct after it is evaluated on that row, and here it raises.
    (Pushed conjuncts once stopped at the first one not True.)"""
    statement = ("SELECT t.cid FROM SpendModel NATURAL PREDICTION JOIN "
                 "(SELECT cid, city, spend FROM Customers) AS t "
                 "WHERE t.city = 'Nowhere' AND t.spend + 'x' > 0")
    messages = []
    for conn in prediction_pair:
        with pytest.raises(Error) as raised:
            conn.execute(statement)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
