"""Differential: a statement made from a cached template vs a fresh parse.

``TemplateCache.parse`` answers a statement whose *shape* it has seen by
copying the template's spine around the new literal values.  Whatever the
text, the tree it returns must ``==`` (dataclass equality, so deeply) the
tree ``parse_statement`` builds from scratch, its ``(normalized,
fingerprint)`` must be the normalizer's, and a text that does not parse must
fail with the same error — on the miss that makes the template, on every
hit after it, and for shapes that cannot be templated at all.

Because a template's tree holds syntax and nothing from the catalog, no
DDL, index or statistics change can make it stale.  What can go stale is
the prepared plan a templated SELECT or UNION keeps in its template's slot:
the last tests run same-shape statements around schema, index, statistics
and data changes on a caching and a never-caching provider — in memory,
with statistics off, and on the paged store with one buffer page — and
compare every answer, every ``EXPLAIN ANALYZE`` row but its clock and
every ``DM_PLAN_HISTORY`` hash — and do the same over same-shape
statements whose literal values move the seek, the value classes and the
lists and patterns a kept plan binds them into; and they hold the LRU to
its bound.
"""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.errors import Error
from repro.lang.formatter import format_statement
from repro.lang.lexer import Scan
from repro.lang.normalizer import statement_shape
from repro.lang.parser import parse_statement
from repro.lang import templates
from repro.lang.templates import TEMPLATE_CACHE_LIMIT, TemplateCache
from repro.obs import MetricsRegistry

from tests.property.test_parser_roundtrip import (
    create_model_statements,
    select_statements,
)


def _in_list(length):
    return "SELECT a FROM t WHERE b IN (" + ", ".join(["{}"] * length) + ")"


def _values(rows, width):
    row = "(" + ", ".join(["{}"] * width) + ")"
    return "INSERT INTO t VALUES " + ", ".join([row] * rows)


# (statement text with one {} per literal, whether its shape is templated
# when every {} is a plain constant).
SHAPES = [
    ("SELECT * FROM t WHERE id = {}", True),
    ("SELECT {}", True),
    ("SELECT {}, {} AS two", True),
    ("SELECT a, {} AS k FROM t WHERE b BETWEEN {} AND {} AND c LIKE {}",
     True),
    ("SELECT CASE WHEN a > {} THEN {} WHEN a IS NULL THEN NULL ELSE {} END "
     "AS c FROM t", True),
    ("SELECT a FROM t WHERE NOT (b = {}) AND c IS NOT NULL AND -{} < d "
     "OR e = TRUE", True),
    ("SELECT f({}, {}, a) FROM t GROUP BY a HAVING COUNT(*) > {} "
     "ORDER BY a + {} DESC", True),
    ("SELECT a FROM t WHERE b IN (SELECT b FROM u WHERE c = {}) "
     "AND d > (SELECT MAX(d) FROM u WHERE e <> {})", True),
    ("SELECT x.a FROM (SELECT a FROM t WHERE b = {}) AS x WHERE x.a < {}",
     True),
    ("SELECT * FROM SHAPE {{SELECT a FROM t WHERE b = {}}} APPEND "
     "({{SELECT c, d FROM u WHERE d > {}}} RELATE a TO c) AS n", True),
    ("SELECT a FROM t WHERE b = {} UNION ALL SELECT a FROM u WHERE c = {}",
     True),
    ("EXPLAIN SELECT a FROM t WHERE b = {}", True),
    ("EXPLAIN ANALYZE SELECT a FROM t WHERE b = {} AND c = {}", True),
    ("UPDATE t SET a = {}, b = a + {} WHERE c = {}", True),
    ("DELETE FROM t WHERE a = {} OR b = -{}", True),
    ("INSERT INTO t (a, b) SELECT a, {} FROM u WHERE c = {}", True),
    ("CREATE VIEW v AS SELECT a FROM t WHERE b > {}", True),
    ("SELECT [m].[x] FROM [m] NATURAL PREDICTION JOIN "
     "(SELECT {} AS g, {} AS [h c]) AS t", True),
    ("SELECT Predict(x), PredictProbability(x, {}) FROM m PREDICTION JOIN "
     "(SELECT {} AS g) AS t ON m.g = t.g WHERE t.g = {}", True),
    ("SELECT a FROM t WHERE b = {} ;", True),
    ("SELECT a -- note {}\nFROM t /* and {} */ WHERE b = {}", True),
    (_in_list(1), True), (_in_list(2), True), (_in_list(7), True),
    (_values(1, 3), True), (_values(2, 3), True), (_values(100, 4), True),
    # Width-1 rows (one itemgetter index gives an item, not a 1-tuple),
    # ragged rows, NULL / TRUE / FALSE beside slots, a column list.
    (_values(1, 1), True), (_values(3, 1), True),
    ("INSERT INTO t VALUES ({}), ({}, {}, {}), ({}, {})", True),
    ("INSERT INTO t VALUES ({}, NULL, {}), (TRUE, {}, FALSE), "
     "(NULL, NULL, {}), ({}, TRUE, NULL)", True),
    ("INSERT INTO t (b, a) VALUES ({}, {}), ({}, {})", True),
    ("INSERT INTO t VALUES ({}, {} + 1), ({}, {}), ((SELECT {}), -{})", True),
    ("EXPLAIN INSERT INTO t VALUES ({}, {})", True),
    # A literal the grammar consumes as something other than a Literal.
    ("SELECT TOP {} a FROM t WHERE b = {}", False),
    ("SELECT a FROM t WHERE b = {} WITH MAXDOP {}", False),
    ("INSERT INTO m (a, b) SELECT a, b FROM t WHERE c = {} WITH MAXDOP {}",
     False),
    ("CANCEL {}", False),
    ("EXPORT MINING MODEL m TO {}", False),
    ("IMPORT MINING MODEL FROM {} AS m2", False),
    ("CREATE MINING MODEL m (id LONG KEY, a DOUBLE DISCRETIZED(EQUAL_COUNT, "
     "{}) PREDICT) USING Repro_Decision_Trees", False),
    ("CREATE MINING MODEL m (id LONG KEY, a TEXT DISCRETE PREDICT) "
     "USING Repro_Decision_Trees(MINIMUM_SUPPORT = {})", False),
]

numbers = st.one_of(
    st.integers(min_value=0, max_value=10 ** 12).map(str),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "007", "1e5", "1E-3", ".5", "2.50", "١٢"]))
strings = st.one_of(
    st.text(alphabet="ab'\"[]{}-%/* \n?é", max_size=8).map(
        lambda s: "'" + s.replace("'", "''") + "'"),
    st.text(alphabet="ab'\" ", max_size=5).map(
        lambda s: '"' + s.replace('"', '""') + '"'))
# What a statement author may write in a literal position; a sign is its
# own token, and NULL/TRUE/FALSE are identifiers the shape spells out.
KINDS = {
    "number": numbers,
    "negative": numbers.map(lambda text: "-" + text),
    "string": strings,
    "keyword": st.sampled_from(["NULL", "TRUE", "FALSE", "null"]),
}


def outcome(parse, text):
    try:
        return parse(text)
    except Error as exc:
        return type(exc), str(exc)


def parsed(cache, text):
    """``cache.parse(text)``, the statement made from its template on a
    hit (the parse hands the template and the slot values out instead)."""
    statement, shape, slot = cache.parse(text)
    return statement or slot[0].instantiate(slot[1]), shape, slot


def assert_same_as_fresh(cache, text):
    """``cache.parse(text)`` is indistinguishable from a fresh parse."""
    fresh = outcome(parse_statement, text)
    cached = outcome(lambda text: parsed(cache, text), text)
    if isinstance(fresh, tuple):
        assert cached == fresh
        return
    statement, shape, _ = cached
    assert statement == fresh
    assert shape() == statement_shape(fresh)


# One cache for the whole module: examples meet each other's templates.
CACHE = TemplateCache()


@given(st.data())
def test_template_with_new_literals_equals_fresh_parse(data):
    text, _ = data.draw(st.sampled_from(SHAPES))
    slots = text.replace("{{", "").replace("}}", "").count("{}")
    kinds = data.draw(st.lists(st.sampled_from(sorted(KINDS)),
                               min_size=slots, max_size=slots))
    # Two statements of one shape: the second meets the first's template.
    for _ in range(2):
        literals = [data.draw(KINDS[kind]) for kind in kinds]
        assert_same_as_fresh(CACHE, text.format(*literals))


def with_new_literals(text, data):
    """``text`` with every NUMBER/STRING literal redrawn, kind kept."""
    scan = Scan(text)
    parts = [text[:scan.start]]
    for spelled, number, string, trivia in scan.rows:
        if number:
            spelled = data.draw(numbers)
        elif string:
            spelled = data.draw(strings)
        parts += [spelled, trivia]
    return "".join(parts)


@given(st.one_of(select_statements(), create_model_statements()), st.data())
def test_round_trip_generator_statements_through_the_cache(statement, data):
    """Every statement of tests/property's round-trip generator, then the
    same statement with other constants."""
    text = format_statement(statement)
    assert_same_as_fresh(CACHE, text)
    assert_same_as_fresh(CACHE, text)
    assert_same_as_fresh(CACHE, with_new_literals(text, data))


@pytest.mark.parametrize("text, templated", SHAPES,
                         ids=[text[:48] for text, _ in SHAPES])
def test_which_shapes_are_templated(text, templated):
    metrics = MetricsRegistry()
    cache = TemplateCache(metrics=metrics)
    slots = text.replace("{{", "").replace("}}", "").count("{}")
    # Plain constants the grammar accepts there: a path is a string.
    quote = "'" if text.startswith(("EXPORT", "IMPORT")) else ""
    first, again = (
        text.format(*[f"{quote}{base + slot}{quote}"
                      for slot in range(slots)]) for base in (1, 101))
    for statement in (first, again, again):
        assert_same_as_fresh(cache, statement)
    hits = metrics.value("lang.template_hits")
    misses = metrics.value("lang.template_misses")
    unparameterizable = metrics.value("lang.template_unparameterizable")
    if templated:
        assert (hits, misses, unparameterizable) == (2, 1, 0)
    else:
        assert (hits, misses, unparameterizable) == (0, 0, 3)
    assert len(cache) == 1


def test_a_template_is_never_written_by_its_instances():
    cache = TemplateCache()
    text = "SELECT a, 'x' FROM t WHERE b IN (1, 2) AND c = NULL"
    master = parsed(cache, text)[0]
    copy = parsed(cache,
                  "SELECT a, 'y' FROM t WHERE b IN (3, 4) AND c = NULL")[0]
    assert master == parse_statement(text)
    assert copy is not master and copy.where is not master.where
    # Off the spine everything is shared, the NULL literal included.
    assert copy.from_clause is master.from_clause
    assert copy.select_list[0] is master.select_list[0]
    assert copy.where.right.right is master.where.right.right
    # A shape without literals is its template.
    assert parsed(cache, "SELECT a FROM t")[0] is \
        parsed(cache, "SELECT a FROM t")[0]


# -- templates hold syntax only; their prepared plans are keyed ---------------------

SCHEMA_CHURN = [
    "CREATE TABLE T (id INT, v TEXT)",
    "INSERT INTO T VALUES (1, 'one'), (2, 'two'), (3, 'three')",
    "SELECT * FROM T WHERE id = 1",
    "SELECT v FROM T WHERE id = 2",
    "SELECT COUNT(*) FROM T WHERE id IN (SELECT id FROM T WHERE id > 1)",
    "DROP TABLE T",
    "SELECT * FROM T WHERE id = 1",
    # Same names, another schema: id is TEXT now and v is gone.
    "CREATE TABLE T (w INT, id TEXT, z INT)",
    "INSERT INTO T VALUES (10, '1', 100), (20, '2', 200), (30, '2', 300)",
    "SELECT * FROM T WHERE id = 1",
    "SELECT * FROM T WHERE id = '2'",
    "SELECT v FROM T WHERE id = 2",
    "SELECT COUNT(*) FROM T WHERE id IN (SELECT id FROM T WHERE id > 1)",
    "SELECT * FROM T WHERE w = 10",
    "EXPLAIN SELECT * FROM T WHERE w = 10",
    "CREATE INDEX ix_w ON T (w)",
    "SELECT * FROM T WHERE w = 20",
    "EXPLAIN SELECT * FROM T WHERE w = 20",
    "INSERT INTO T VALUES (40, '4', 400), (50, '5', 500), (60, '6', 600)",
    "UPDATE STATISTICS T",
    "SELECT * FROM T WHERE w = 40",
    "EXPLAIN SELECT * FROM T WHERE w = 40",
    "DROP INDEX ix_w ON T",
    "EXPLAIN SELECT * FROM T WHERE w = 50",
    "SELECT * FROM T WHERE w = 50",
    "CREATE MINING MODEL M (w LONG KEY, id TEXT DISCRETE PREDICT, "
    "z LONG CONTINUOUS) USING Repro_Naive_Bayes",
    "INSERT INTO M (w, id, z) SELECT w, id, z FROM T",
    "SELECT M.id FROM M NATURAL PREDICTION JOIN (SELECT 100 AS z) AS t",
    "SELECT M.id FROM M NATURAL PREDICTION JOIN (SELECT 600 AS z) AS t",
    "DROP MINING MODEL M",
    "SELECT M.id FROM M NATURAL PREDICTION JOIN (SELECT 100 AS z) AS t",
    # Same model name, other columns: z is the target now.
    "CREATE MINING MODEL M (w LONG KEY, id TEXT DISCRETE, "
    "z LONG DISCRETE PREDICT) USING Repro_Naive_Bayes",
    "INSERT INTO M (w, id, z) SELECT w, id, z FROM T",
    "SELECT M.id FROM M NATURAL PREDICTION JOIN (SELECT 100 AS z) AS t",
    "SELECT M.z FROM M NATURAL PREDICTION JOIN (SELECT '2' AS id) AS t",
    "SELECT M.z FROM M NATURAL PREDICTION JOIN (SELECT '6' AS id) AS t",
    # A kept singleton's plan, against the life of its model: one slot fed
    # a string, an int, a float and NULL (the row is typed by its values);
    # an ON join, a WHERE on a prediction (with a literal of its own: the
    # shape is planned statement by statement), *, ORDER BY and TOP.
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT 'Male' AS id) "
    "AS t",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT '2' AS id) AS t",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT 6 AS id) AS t",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT 6.5 AS id) AS t",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT 1 AS id) AS t",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT NULL AS id) AS t",
    "SELECT M.z FROM M PREDICTION JOIN (SELECT '4' AS k) AS t ON M.id = t.k",
    "SELECT M.z FROM M PREDICTION JOIN (SELECT '5' AS k) AS t ON M.id = t.k",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT '5' AS id) AS t "
    "WHERE Predict(z) IS NOT NULL",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT '4' AS id) AS t "
    "WHERE Predict(z) IS NOT NULL",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT '5' AS id) AS t "
    "WHERE Predict(z) = 500",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT '4' AS id) AS t "
    "WHERE Predict(z) = 500",
    "SELECT * FROM M NATURAL PREDICTION JOIN (SELECT '4' AS id, 7 AS w) AS t",
    "SELECT * FROM M NATURAL PREDICTION JOIN (SELECT '1' AS id, 8 AS w) AS t",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT '2' AS id) AS t "
    "ORDER BY M.z DESC",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT '6' AS id) AS t "
    "ORDER BY M.z DESC",
    "SELECT TOP 1 t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT '2' AS id) "
    "AS t ORDER BY M.z",
    # A subquery is read afresh by every statement: such a shape is
    # planned statement by statement.
    "CREATE TABLE One (w INT)",
    "INSERT INTO One VALUES (1)",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT '2' AS id) AS t "
    "ORDER BY (SELECT w FROM One)",
    "INSERT INTO One VALUES (2)",
    "SELECT t.id, M.z FROM M NATURAL PREDICTION JOIN (SELECT '6' AS id) AS t "
    "ORDER BY (SELECT w FROM One)",
    # Its trained state emptied (NotTrainedError), then replaced by a
    # TRAIN on other data (other answers: the kernel's marginals too),
    # then the model imported again.
    "SELECT M.z, PredictProbability(id) FROM M NATURAL PREDICTION JOIN "
    "(SELECT '2' AS id) AS t",
    "EXPORT MINING MODEL M TO '<PMML>'",
    "DELETE FROM M",
    "SELECT M.z FROM M NATURAL PREDICTION JOIN (SELECT '2' AS id) AS t",
    "INSERT INTO M (w, id, z) SELECT w, id, z + 1000 FROM T WHERE w > 10",
    "SELECT M.z FROM M NATURAL PREDICTION JOIN (SELECT '2' AS id) AS t",
    "SELECT M.z FROM M NATURAL PREDICTION JOIN (SELECT '6' AS id) AS t",
    "SELECT M.z, PredictProbability(id) FROM M NATURAL PREDICTION JOIN "
    "(SELECT '2' AS id) AS t",
    "DROP MINING MODEL M",
    "IMPORT MINING MODEL FROM '<PMML>'",
    "SELECT M.z FROM M NATURAL PREDICTION JOIN (SELECT '2' AS id) AS t",
    "SELECT M.z FROM M NATURAL PREDICTION JOIN (SELECT '6' AS id) AS t",
    # The prepared plan's key, component by component.  Catalog version:
    # the same name re-created with its columns reordered and retyped.
    "SELECT * FROM T WHERE w = 10",
    "DROP TABLE T",
    "CREATE TABLE T (z INT, w TEXT, id INT)",
    "INSERT INTO T VALUES (100, '10', 1), (200, '20', 2)",
    "SELECT * FROM T WHERE w = 10",
    "SELECT * FROM T WHERE w = '20'",
    "SELECT id, 'one' AS tag FROM T WHERE id = 1",
    "SELECT id, 'two' AS tag FROM T WHERE id = 2",
    # An index created and dropped between two seeks of one shape.
    "CREATE TABLE S (k INT, tag TEXT)",
    "INSERT INTO S VALUES (7, 'a'), (7, 'b'), (7, 'c')",
    "SELECT * FROM S WHERE k = 7",
    "CREATE INDEX ix_k ON S (k)",
    "SELECT * FROM S WHERE k = 7",
    "SELECT * FROM S WHERE k = 1",
    # Table versions: rows that flip the seek-vs-scan gate (three of three
    # rows scan; three of eight seek).
    "INSERT INTO S VALUES (1, 'd'), (2, 'e'), (3, 'f'), (4, 'g'), (5, 'h')",
    "SELECT * FROM S WHERE k = 7",
    "SELECT * FROM S WHERE k = 3",
    # The statistics gate.
    "UPDATE STATISTICS S",
    "SELECT * FROM S WHERE k = 7",
    "SELECT * FROM S WHERE k < 4",
    # One slot fed an integer, a float and a string.
    "SELECT * FROM S WHERE k = 3",
    "SELECT * FROM S WHERE k = 3.5",
    "SELECT * FROM S WHERE k = 3.0",
    "SELECT * FROM S WHERE k = '3'",
    "SELECT tag FROM S WHERE k = 2",
    "SELECT tag FROM S WHERE k = 2.0",
    # A UNION shape.
    "SELECT k FROM S WHERE k = 7 UNION ALL SELECT k FROM S WHERE k = 1",
    "SELECT k FROM S WHERE k = 2 UNION ALL SELECT k FROM S WHERE k = 7",
    "SELECT k FROM S WHERE k = 7 UNION SELECT k FROM S WHERE k = 3",
    "DROP INDEX ix_k ON S",
    "SELECT k FROM S WHERE k = 1 UNION ALL SELECT k FROM S WHERE k = 7",
    "SELECT k FROM S WHERE k = 5 UNION SELECT k FROM S WHERE k = 7",
    # A view shape, and the view re-created over other columns.
    "CREATE VIEW V AS SELECT k, tag FROM S WHERE k > 2",
    "SELECT * FROM V WHERE k = 7",
    "SELECT * FROM V WHERE k = 4",
    "DROP VIEW V",
    "CREATE VIEW V AS SELECT tag, k, k + 1 AS n FROM S WHERE k < 5",
    "SELECT * FROM V WHERE k = 4",
    "SELECT * FROM V WHERE k = 7",
    # The same table re-created: another order, another type, an index.
    "DROP TABLE S",
    "CREATE TABLE S (tag TEXT, k DOUBLE)",
    "CREATE INDEX ix_k ON S (k)",
    "INSERT INTO S VALUES ('x', 7), ('y', 3.5), ('z', 3)",
    "SELECT * FROM S WHERE k = 7",
    "SELECT * FROM S WHERE k = 3.5",
    "SELECT tag FROM S WHERE k = 3",
    "SELECT k FROM S WHERE k = 7 UNION ALL SELECT k FROM S WHERE k = 1",
    "SELECT * FROM V WHERE k = 3",
]


def _answer(conn, statement):
    try:
        result = conn.execute(statement)
    except Error as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, int):
        return result
    return ([(c.name, c.type.name) for c in result.columns],
            [tuple(r) for r in result.rows])


def _analyzed(conn, statement):
    """``EXPLAIN ANALYZE statement`` but its clock column."""
    if not statement.startswith("SELECT"):
        return None
    plan = _answer(conn, f"EXPLAIN ANALYZE {statement}")
    if not isinstance(plan[0], list):
        return plan  # the error
    clock = plan[0].index(("WALL_MS", "DOUBLE"))
    return [row[:clock] + row[clock + 1:] for row in plan[1]]


def _plan_hashes(conn):
    return sorted(tuple(row[:3]) for row in conn.execute(
        "SELECT FINGERPRINT, PLAN_HASH, EXECUTIONS "
        "FROM $SYSTEM.DM_PLAN_HISTORY").rows)


# A kept plan binds each statement's literals to the shape's one tree per
# access path: same-shape statements whose values flip a seek to a scan and
# back (a BETWEEN over a few keys, then over most of the table), change a
# slot's class (an int, a float, 2**53 + 1, a string against a LONG
# column, an int past the DOUBLE range) and fill an IN list and a LIKE
# pattern (a TOP n is consumed by the grammar: its shape is parsed whole),
# around INSERT, UPDATE, DELETE and CREATE / DROP INDEX.
SLOT_BINDING = [
    "CREATE TABLE K (k LONG, v TEXT, d DOUBLE)",
    "INSERT INTO K VALUES " + ", ".join(
        f"({i}, '{'abc'[i % 3]}{i}', {i / 2})" for i in range(1, 41)),
    "CREATE INDEX ix_kk ON K (k)",
    "SELECT * FROM K WHERE k BETWEEN 3 AND 5",
    "SELECT * FROM K WHERE k BETWEEN 1 AND 39",
    "SELECT * FROM K WHERE k BETWEEN 7 AND 8",
    "SELECT v FROM K WHERE k BETWEEN 2 AND 40 AND d > 3",
    "SELECT v FROM K WHERE k = 3",
    "SELECT v FROM K WHERE k = 3.0",
    "SELECT v FROM K WHERE k = 3.5",
    "SELECT v FROM K WHERE k = 9007199254740993",
    "SELECT v FROM K WHERE k = '3'",
    "SELECT v FROM K WHERE k = 1" + "0" * 400,
    "SELECT v FROM K WHERE k < 1" + "0" * 400,
    "SELECT v FROM K WHERE k > 38",
    "SELECT v FROM K WHERE k > '38'",
    "SELECT TOP 2 v FROM K WHERE k > 1",
    "SELECT TOP 5 v FROM K WHERE k > 1",
    "SELECT v FROM K WHERE k IN (1, 2, 3)",
    "SELECT v FROM K WHERE k IN (4, 5.0, '6')",
    "SELECT v FROM K WHERE k IN (7, 1" + "0" * 400 + ")",
    "SELECT v FROM K WHERE v LIKE 'a%'",
    "SELECT v FROM K WHERE v LIKE '%b_'",
    "SELECT v FROM K WHERE v LIKE 3",
    "INSERT INTO K VALUES (9007199254740993, 'big', 1.5)",
    "SELECT v FROM K WHERE k = 9007199254740993",
    "SELECT v FROM K WHERE k = 9007199254740992",
    "UPDATE K SET k = 100 WHERE k = 4",
    "SELECT v FROM K WHERE k BETWEEN 3 AND 5",
    "SELECT v FROM K WHERE k = 100",
    "DELETE FROM K WHERE k = 5",
    "SELECT v FROM K WHERE k BETWEEN 3 AND 5",
    "SELECT v FROM K WHERE k BETWEEN 1 AND 39",
    "DROP INDEX ix_kk ON K",
    "SELECT v FROM K WHERE k BETWEEN 3 AND 5",
    "SELECT v FROM K WHERE k = 100",
    "CREATE INDEX ix_kv ON K (v)",
    "SELECT v FROM K WHERE k = 6 AND v = 'a6'",
    "SELECT v FROM K WHERE k = 6 AND v = 7",
    "CREATE INDEX ix_kk ON K (k)",
    "SELECT v FROM K WHERE k = 6 AND v = 'a6'",
    "SELECT v FROM K WHERE k = 'x' AND v = 'a6'",
    "SELECT k FROM K WHERE k = 1 UNION ALL SELECT k FROM K WHERE v = 'b2'",
    "SELECT k FROM K WHERE k = 2 UNION ALL SELECT k FROM K WHERE v = 'c3'",
    "SELECT k FROM K WHERE k BETWEEN 1 AND 39 UNION "
    "SELECT k FROM K WHERE v LIKE 'c%'",
    # A literal outside a WHERE kernel: in the select list, in HAVING, in
    # a function or arithmetic conjunct.  The kept plan binds each
    # statement made from the template, a seek beside it by its values.
    "SELECT v, 1 AS one FROM K WHERE k = 3",
    "SELECT v, 'two' AS one FROM K WHERE k = 8",
    "SELECT v, 3 AS one FROM K WHERE k BETWEEN 1 AND 39",
    "SELECT v, 4 AS one FROM K WHERE k BETWEEN 2 AND 3",
    "SELECT d, COUNT(*) AS n FROM K WHERE k < 20 GROUP BY d "
    "HAVING COUNT(*) > 0",
    "SELECT d, COUNT(*) AS n FROM K WHERE k < 9 GROUP BY d "
    "HAVING COUNT(*) > 1",
    "SELECT v FROM K WHERE UPPER(v) = 'A3' AND k = 3",
    "SELECT v FROM K WHERE UPPER(v) = 'C8' AND k = 8",
    "SELECT v FROM K WHERE UPPER(v) = 'B7' AND k BETWEEN 1 AND 39",
    "SELECT v FROM K WHERE k + 1 > 38",
    "SELECT v FROM K WHERE k + 2 > 3.5",
    "SELECT v FROM K WHERE k + 'x' > 3",
    "INSERT INTO K VALUES (7, 'c7', 0)",
    "SELECT v, 5 AS one FROM K WHERE k = 7",
    "SELECT v FROM K WHERE UPPER(v) = 'C7' AND k = 7",
    "SELECT d FROM K WHERE k = 7",
    "SELECT d FROM K WHERE k = 7.0",
    "SELECT d FROM K WHERE nosuch = 7",
    "SELECT d FROM K WHERE nosuch = 8",
    # A kept singleton binds each statement's row: its slots fed ints,
    # floats, 2**53 + 1, an int past the DOUBLE range and strings.
    "CREATE MINING MODEL KM (k LONG KEY, v TEXT DISCRETE PREDICT, "
    "d DOUBLE CONTINUOUS) USING Repro_Naive_Bayes",
    "INSERT INTO KM (k, v, d) SELECT k, v, d FROM K",
    "SELECT t.d, KM.v FROM KM NATURAL PREDICTION JOIN (SELECT 1.5 AS d) AS t",
    "SELECT t.d, KM.v FROM KM NATURAL PREDICTION JOIN (SELECT 15 AS d) AS t",
    "SELECT t.d, KM.v FROM KM NATURAL PREDICTION JOIN (SELECT 1.5 AS d) AS t",
    "SELECT t.d, KM.v FROM KM NATURAL PREDICTION JOIN "
    "(SELECT 9007199254740993 AS d) AS t",
    "SELECT t.d, KM.v FROM KM NATURAL PREDICTION JOIN (SELECT 1"
    + "0" * 400 + " AS d) AS t",
    "SELECT t.d, KM.v FROM KM NATURAL PREDICTION JOIN (SELECT '7' AS d) AS t",
    "SELECT t.d, KM.v FROM KM NATURAL PREDICTION JOIN (SELECT 'x' AS d) AS t",
    "SELECT t.k, t.d, KM.v FROM KM NATURAL PREDICTION JOIN "
    "(SELECT 3 AS k, 19.5 AS d) AS t",
    "SELECT t.k, t.d, KM.v FROM KM NATURAL PREDICTION JOIN "
    "(SELECT 4.5 AS k, 2 AS d) AS t",
]


def _churn(monkeypatch, caching_kwargs, never_kwargs, statements):
    """``statements`` on a caching provider and on one that makes no
    template (so keeps no plan: each statement is parsed and planned on
    its own); each statement's answer, ``EXPLAIN ANALYZE`` rows and plan
    history must be the same on both.  Returns the caching side's
    ``(template hits, plan-cache hits, plan-cache misses)``."""
    caching = repro.connect(**caching_kwargs)
    never = repro.connect(**never_kwargs)
    try:
        for statement in statements:
            expected = (_answer(caching, statement),
                        _analyzed(caching, statement), _plan_hashes(caching))
            with monkeypatch.context() as patch:  # a cache of nothing
                patch.setattr(templates, "TEMPLATE_CACHE_LIMIT", 0)
                patch.setattr(templates, "make_template", lambda *_: None)
                assert (_answer(never, statement), _analyzed(never, statement),
                        _plan_hashes(never)) == expected, statement
        assert len(never.provider.templates) == 0
        assert never.provider.metrics.value("lang.template_hits") == 0
        assert never.provider.metrics.value("sqlstore.plan_cache.hits") == 0
        return tuple(caching.provider.metrics.value(name) for name in (
            "lang.template_hits", "sqlstore.plan_cache.hits",
            "sqlstore.plan_cache.misses"))
    finally:
        caching.close()
        never.close()


def _configured(configuration, tmp_path):
    """``(caching, never)`` connect() arguments of a configuration."""
    if configuration == "paged":
        return tuple(dict(storage_path=os.path.join(str(tmp_path), side),
                          buffer_pages=1) for side in ("caching", "never"))
    kwargs = {"statistics off": dict(statistics=False),
              # Without statistics a constant row fans out on a pool.
              "parallel": dict(statistics=False, max_workers=2,
                               pool_mode="thread")}.get(configuration, {})
    return kwargs, kwargs


def _schema_churn(monkeypatch, configuration, tmp_path):
    pmml = os.path.join(str(tmp_path), "m.pmml")
    hits, plan_hits, plan_misses = _churn(
        monkeypatch, *_configured(configuration, tmp_path),
        [statement.replace("<PMML>", pmml) for statement in SCHEMA_CHURN])
    assert hits >= 40
    # Served from a kept plan, and a kept plan re-prepared.
    assert plan_hits >= 5
    assert plan_misses >= 10


def test_schema_changes_need_no_invalidation(monkeypatch, tmp_path):
    """A template needs none; a kept plan is re-prepared by its key."""
    _schema_churn(monkeypatch, "memory", tmp_path)


@pytest.mark.parametrize("configuration",
                         ["statistics off", "paged", "parallel"])
def test_schema_changes_never_serve_a_stale_plan(monkeypatch, tmp_path,
                                                 configuration):
    _schema_churn(monkeypatch, configuration, tmp_path)


@pytest.mark.parametrize("configuration",
                         ["memory", "statistics off", "paged"])
def test_a_kept_plan_binds_each_statements_own_values(monkeypatch, tmp_path,
                                                      configuration):
    """SLOT_BINDING: every statement of a kept shape runs on its own
    values, never on another's of its shape."""
    hits, plan_hits, _ = _churn(monkeypatch,
                                *_configured(configuration, tmp_path),
                                SLOT_BINDING)
    assert hits >= 30
    assert plan_hits >= 10


@pytest.mark.parametrize("shape", [
    "SELECT v, {} AS one FROM K WHERE k = 3",
    "SELECT d, COUNT(*) AS n FROM K GROUP BY d HAVING COUNT(*) > {}",
    "SELECT v FROM K WHERE UPPER(v) = 'A{}' AND k > 1",
    "SELECT v FROM K WHERE k + {} > 3",
])
def test_a_shape_with_a_literal_outside_its_where_kernels_keeps_its_plan(
        monkeypatch, shape):
    """A literal no WHERE kernel reads makes each statement of the shape
    its own, made from the template, but its shape is prepared once: every
    statement after the first is bound from the kept plan."""
    from repro.sqlstore.engine import Database
    conn = repro.connect()
    try:
        conn.execute("CREATE TABLE K (k LONG, v TEXT, d DOUBLE)")
        conn.execute("INSERT INTO K VALUES (1, 'a1', 0.5), (3, 'a3', 1.5)")
        conn.execute("CREATE INDEX ix_kk ON K (k)")
        prepared = []
        real = Database.prepare
        monkeypatch.setattr(Database, "prepare", lambda *args, **kwargs: (
            prepared.append(args) or real(*args, **kwargs)))
        answers = [conn.execute(shape.format(value)).rows
                   for value in (1, 3, 1)]
        assert answers[0] == answers[2]
        assert len(prepared) == 1
        assert conn.provider.metrics.value("sqlstore.plan_cache.hits") == 2
    finally:
        conn.close()


def test_a_shape_whose_plan_is_not_kept_is_prepared_once(monkeypatch):
    """A join's plan is not kept: each statement of its shape is planned
    on its own, and the first after a DDL prepares it once too — the
    prepare that finds the shape is not kept plans the statement."""
    from repro.sqlstore.engine import Database
    conn = repro.connect()
    try:
        conn.execute("CREATE TABLE A (id INT, x INT)")
        conn.execute("CREATE TABLE B (id INT)")
        conn.execute("INSERT INTO A VALUES (1, 0), (2, 1)")
        conn.execute("INSERT INTO B VALUES (1), (2)")
        shape = "SELECT A.id FROM A JOIN B ON A.id = B.id WHERE A.x = {}"
        prepared = []
        real = Database.prepare
        monkeypatch.setattr(Database, "prepare", lambda *args: (
            prepared.append(args) or real(*args)))
        per_statement = []
        for statement in (shape.format(0), shape.format(1),
                          "CREATE TABLE Z (k INT)", shape.format(0),
                          shape.format(1)):
            del prepared[:]
            answer = conn.execute(statement)
            if not isinstance(answer, int):
                per_statement.append((answer.rows, len(prepared)))
    finally:
        conn.close()
    assert per_statement == [([(1,)], 1), ([(2,)], 1), ([(1,)], 1),
                             ([(2,)], 1)]


# -- the bound --------------------------------------------------------------------

def test_cache_is_bounded_and_an_evicted_shape_parses_again():
    metrics = MetricsRegistry()
    cache = TemplateCache(metrics=metrics)
    first = "SELECT c0 FROM t WHERE id = 0"
    assert_same_as_fresh(cache, first)
    for shape in range(1, 10 * TEMPLATE_CACHE_LIMIT):
        cache.parse(f"SELECT c{shape} FROM t WHERE id = {shape}")
        assert len(cache) <= TEMPLATE_CACHE_LIMIT
    assert len(cache) == TEMPLATE_CACHE_LIMIT
    assert metrics.value("lang.template_hits") == 0
    # The first shape is long gone: a miss again, and right again.
    assert_same_as_fresh(cache, "SELECT c0 FROM t WHERE id = 5")
    assert metrics.value("lang.template_hits") == 0
    assert_same_as_fresh(cache, "SELECT c0 FROM t WHERE id = 6")
    assert metrics.value("lang.template_hits") == 1
    assert len(cache) == TEMPLATE_CACHE_LIMIT


def test_a_kept_plan_serves_with_statement_recording_off():
    """With the statement log off a record takes no stamps: the plan is
    kept and served all the same."""
    conn = repro.connect()
    try:
        conn.provider.tracer.recording = False
        conn.execute("CREATE TABLE R (k INT)")
        conn.execute("INSERT INTO R VALUES (1), (2)")
        answers = [conn.execute(f"SELECT * FROM R WHERE k = {k}").rows
                   for k in (1, 2, 3)]
        assert answers == [[(1,)], [(2,)], []]
        assert conn.provider.metrics.value("sqlstore.plan_cache.hits") == 2
    finally:
        conn.close()
