"""Concurrency smoke test: one provider, many threads, exact counters.

N worker threads hammer a single :class:`repro.core.provider.Provider`
concurrently with the full statement mix — INSERT, SELECT, CREATE MINING
MODEL, training INSERT, and NATURAL PREDICTION JOIN.  Afterwards the
provider's metrics registry (the backing store of
``$SYSTEM.DM_PROVIDER_METRICS``) must account for every statement and every
bound case exactly: counters are locked, the active statement is
thread-local, so nothing may be lost or double-counted under interleaving.
"""

import threading

import pytest

import repro

THREADS = 6
LOOPS = 5
ROWS_PER_INSERT = 4
SEED_ROWS = 10


@pytest.fixture()
def conn():
    connection = repro.connect(batch_size=3, caseset_cache_capacity=0)
    yield connection
    connection.close()


SETUP = [
    "CREATE TABLE People (pid INT, age INT, grade TEXT)",
    "CREATE TABLE Seed (pid INT, age INT, grade TEXT)",
    "INSERT INTO Seed VALUES " + ", ".join(
        f"({pid}, {20 + pid * 3}, '{'pass' if pid % 2 else 'fail'}')"
        for pid in range(1, SEED_ROWS + 1)),
]


def _worker(conn, index, errors):
    try:
        for loop in range(LOOPS):
            base = index * 10_000 + loop * 100
            values = ", ".join(
                f"({base + k}, {18 + (base + k) % 50}, 'g{index}')"
                for k in range(ROWS_PER_INSERT))
            conn.execute(f"INSERT INTO People VALUES {values}")
            conn.execute("SELECT COUNT(*) AS n FROM People")
        model = f"M{index}"
        conn.execute(
            f"CREATE MINING MODEL {model} (pid LONG KEY, "
            f"age LONG CONTINUOUS, grade TEXT DISCRETE PREDICT) "
            f"USING Microsoft_Decision_Trees")
        conn.execute(f"INSERT INTO {model} (pid, age, grade) "
                     f"SELECT pid, age, grade FROM Seed")
        predicted = conn.execute(
            f"SELECT t.pid, {model}.grade FROM {model} "
            f"NATURAL PREDICTION JOIN (SELECT pid, age FROM Seed) AS t")
        assert len(predicted) == SEED_ROWS
    except Exception as exc:  # pragma: no cover - failure path
        errors.append((index, exc))


def test_concurrent_statement_mix_counts_exactly(conn):
    for statement in SETUP:
        conn.execute(statement)
    errors = []
    threads = [
        threading.Thread(target=_worker, args=(conn, index, errors))
        for index in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []

    # Every row from every thread landed.
    count = conn.execute("SELECT COUNT(*) AS n FROM People")
    assert count.rows[0][0] == THREADS * LOOPS * ROWS_PER_INSERT

    metrics = conn.provider.metrics
    per_thread = 2 * LOOPS + 3  # inserts+selects, DDL, train, predict
    expected_total = len(SETUP) + THREADS * per_thread + 1  # +1 final SELECT
    assert metrics.value("statements.total") == expected_total
    assert metrics.value("statements.errors") == 0
    assert metrics.value("training.cases_total") == THREADS * SEED_ROWS
    # Each training pass and each prediction binds the seed caseset once
    # (cache disabled).
    assert metrics.value("activity.cases_bound") == 2 * THREADS * SEED_ROWS

    # The same numbers through the SQL surface.
    rowset = conn.execute("SELECT METRIC, VALUE FROM "
                          "$SYSTEM.DM_PROVIDER_METRICS")
    values = {row[0]: row[1] for row in rowset.rows}
    assert values["training.cases_total"] == THREADS * SEED_ROWS
    # The errors counter is created lazily; absent means zero errors.
    assert values.get("statements.errors", 0) == 0


SHARED_DDL = ("CREATE MINING MODEL Shared (pid LONG KEY, "
              "color TEXT DISCRETE, grade TEXT DISCRETE PREDICT) "
              "USING Repro_Naive_Bayes")
SHARED_TRAIN = ("INSERT INTO Shared (pid, color, grade) "
                "SELECT pid, color, grade FROM Cat WITH MAXDOP 3")
SHARED_PREDICT = ("SELECT t.pid, Shared.grade FROM Shared "
                  "NATURAL PREDICTION JOIN (SELECT pid, color FROM Cat) AS t")


def test_same_model_name_stress_with_active_pool():
    """Threads create/train/predict/DROP one model name over a live pool.

    Every worker races the SAME model name, barrier-synchronized so each
    round's operations collide as hard as the scheduler allows, while the
    worker pool parallelizes eligible training and prediction underneath.
    Lifecycle races must surface as the package's own errors (model missing,
    not trained, already exists) — never deadlock, never a torn counter:
    ``statements.total`` must equal the number of attempts exactly, the
    pool's task ledger must balance, and the caseset cache must respect its
    invariants.
    """
    connection = repro.connect(max_workers=3, pool_mode="thread",
                               batch_size=3)
    try:
        connection.execute("CREATE TABLE Cat (pid INT, color TEXT, "
                           "grade TEXT)")
        connection.execute("INSERT INTO Cat VALUES " + ", ".join(
            f"({pid}, '{('red', 'green', 'blue')[pid % 3]}', "
            f"'{'pass' if pid % 2 else 'fail'}')"
            for pid in range(1, 13)))
        setup_statements = 2

        barrier = threading.Barrier(THREADS)
        ledger_lock = threading.Lock()
        attempts = [0]
        expected_errors = [0]
        unexpected = []

        def worker(index):
            for loop in range(LOOPS):
                try:
                    barrier.wait(timeout=60)
                except threading.BrokenBarrierError as exc:
                    unexpected.append((index, loop, exc))
                    return
                op = (index + loop) % 4
                if op == 0:
                    statements = [SHARED_DDL, SHARED_TRAIN]
                elif op == 3:
                    statements = ["DROP MINING MODEL Shared"]
                else:
                    statements = [SHARED_PREDICT]
                for statement in statements:
                    try:
                        with ledger_lock:
                            attempts[0] += 1
                        connection.execute(statement)
                    except repro.Error:
                        # Lifecycle race lost: model already exists, was
                        # dropped mid-flight, or is not trained yet.
                        with ledger_lock:
                            expected_errors[0] += 1
                    except Exception as exc:
                        unexpected.append((index, loop, exc))
                        return

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        hung = [thread for thread in threads if thread.is_alive()]
        assert not hung, f"deadlock: {len(hung)} worker(s) never finished"
        assert unexpected == []

        metrics = connection.provider.metrics

        # No torn statement counts: every attempt was traced exactly once,
        # and every lifecycle race surfaced as a counted error.
        assert metrics.value("statements.total") == \
            setup_statements + attempts[0]
        assert metrics.value("statements.errors") == expected_errors[0]

        # The pool's task ledger balances: nothing lost, nothing leaked.
        submitted = metrics.value("pool.tasks_submitted")
        accounted = (metrics.value("pool.tasks_completed")
                     + metrics.value("pool.tasks_cancelled")
                     + metrics.value("pool.tasks_abandoned"))
        assert submitted == accounted

        # Caseset cache invariants hold under interleaving.
        cache = connection.provider.caseset_cache
        assert len(cache) <= cache.capacity
        stats = cache.stats()
        assert stats["evictions"] <= stats["misses"]

        # The provider is still fully functional after the melee.
        try:
            connection.execute("DROP MINING MODEL Shared")
        except repro.Error:
            pass  # a worker's DROP already won the last round
        connection.execute(SHARED_DDL)
        connection.execute(SHARED_TRAIN)
        after = connection.execute(SHARED_PREDICT)
        assert len(after) == 12
    finally:
        connection.close()


def test_concurrent_reads_of_one_stream_source(conn):
    """Parallel SELECTs over the same tables return consistent results."""
    for statement in SETUP:
        conn.execute(statement)
    results = [None] * THREADS

    def reader(index):
        rowset = conn.execute(
            "SELECT pid, age FROM Seed ORDER BY pid")
        results[index] = [tuple(row) for row in rowset.rows]

    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(result == results[0] for result in results)
    assert len(results[0]) == SEED_ROWS


def test_two_threads_share_one_template_and_keep_their_own_answers(conn):
    """Two threads execute one statement shape 2,000 times each with
    different literals: every statement is made from the shape's one
    template, and each thread must read back exactly its own constants."""
    import sys

    rounds = 2000
    conn.execute("CREATE TABLE Keyed (k INT, owner TEXT)")
    conn.execute("INSERT INTO Keyed VALUES " + ", ".join(
        f"({k}, '{'even' if k % 2 == 0 else 'odd'}')" for k in range(200)))
    conn.execute("CREATE INDEX ix_keyed ON Keyed (k)")
    point = ("SELECT k, owner, {tag} AS tag FROM Keyed "
             "WHERE k = {k} AND owner IN ('{owner}', 'nobody')")
    conn.execute(point.format(tag="'w'", k=0, owner="even"))  # the template
    wrong = []

    def worker(parity):
        owner = "even" if parity == 0 else "odd"
        try:
            for step in range(rounds):
                k = (2 * step + parity) % 200
                rows = conn.execute(point.format(
                    tag=f"'{owner}{step}'", k=k, owner=owner)).rows
                if rows != [(k, owner, f"{owner}{step}")]:
                    wrong.append((owner, step, rows))
        except Exception as exc:  # pragma: no cover - failure path
            wrong.append((owner, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=worker, args=(parity,))
                   for parity in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert conn.provider.metrics.value("lang.template_hits") == 2 * rounds
    assert len(conn.provider.templates) == 4  # DDL, INSERT, index, the shape


def test_one_shape_keeps_its_answers_while_an_index_comes_and_goes(conn):
    """Three threads run one point-SELECT shape with different literals
    while a fourth creates and drops an index on the column they seek:
    the shape's prepared plan is re-prepared under them (every DDL moves
    its key), and every answer must be the row the table holds."""
    import sys

    keys = 60
    conn.execute("CREATE TABLE Churn (k INT, v TEXT)")
    conn.execute("INSERT INTO Churn VALUES " + ", ".join(
        f"({k}, 'v{k}')" for k in range(keys)))
    conn.execute("SELECT * FROM Churn WHERE k = 0")  # the template
    done = threading.Event()
    wrong, answered = [], [0, 0, 0]

    def reader(offset):
        step = 0
        try:
            while not done.is_set():
                k = (7 * step + offset) % keys
                rows = conn.execute(f"SELECT * FROM Churn WHERE k = {k}").rows
                if rows != [(k, f"v{k}")]:
                    wrong.append((k, rows))
                step += 1
            answered[offset] = step
        except Exception as exc:  # pragma: no cover - failure path
            wrong.append(exc)

    def churner():
        try:
            for _ in range(150):
                conn.execute("CREATE INDEX ix_churn ON Churn (k)")
                conn.execute("DROP INDEX ix_churn ON Churn")
        except Exception as exc:  # pragma: no cover - failure path
            wrong.append(exc)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=reader, args=(offset,))
                   for offset in range(3)]
        threads.append(threading.Thread(target=churner))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert min(answered) > 0
    metrics = conn.provider.metrics
    assert metrics.value("sqlstore.plan_cache.hits") > 0
    assert metrics.value("sqlstore.plan_cache.misses") > 0


def test_one_singleton_shape_keeps_its_answers_while_its_model_trains(conn):
    """Three threads run one singleton PREDICTION JOIN shape, each with
    its own literal, while a fourth trains the model again and again: the
    shape's kept plan binds each statement's own row, and its compiled
    select list is compiled again, under the read lease, after every
    TRAIN replaced the trained state it read."""
    import sys

    conn.execute("CREATE TABLE Sexes (pid INT, sex TEXT, buys TEXT)")
    conn.execute("INSERT INTO Sexes VALUES " + ", ".join(
        f"({i}, '{'m' if i % 2 else 'f'}', '{'yes' if i % 2 else 'no'}')"
        for i in range(1, 41)))
    conn.execute("CREATE MINING MODEL Buyer (pid LONG KEY, sex TEXT "
                 "DISCRETE, buys TEXT DISCRETE PREDICT) "
                 "USING Repro_Naive_Bayes")
    train = "INSERT INTO Buyer (pid, sex, buys) SELECT pid, sex, buys " \
        "FROM Sexes"
    conn.execute(train)
    singleton = ("SELECT t.sex, Buyer.buys FROM Buyer NATURAL PREDICTION "
                 "JOIN (SELECT '{}' AS sex) AS t")
    done = threading.Event()
    wrong, answered = [], [0, 0, 0]

    def reader(index, sex, expected):
        try:
            while not done.is_set():
                rows = conn.execute(singleton.format(sex)).rows
                if rows != [(sex, expected)]:
                    wrong.append((sex, rows))
                answered[index] += 1
        except Exception as exc:  # pragma: no cover - failure path
            wrong.append(exc)

    def trainer():
        try:
            for _ in range(30):
                conn.execute(train)
        except Exception as exc:  # pragma: no cover - failure path
            wrong.append(exc)
        finally:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=reader, args=args) for args in
                   ((0, "m", "yes"), (1, "f", "no"), (2, "m", "yes"))]
        threads.append(threading.Thread(target=trainer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert min(answered) > 0
    assert conn.provider.metrics.value("sqlstore.plan_cache.hits") > 0
