"""Differential harness: slot encoding and table-driven scoring vs the code
they replaced, and the life cycle of the tables themselves.

(ii)  ``predict_many(obs) == [predict(o) for o in obs]`` for all eight
      registered services, and the table-driven ``predict`` of naive Bayes
      and the decision tree equals the test-side transcription of the old
      formula (``tests/reference/reference_scorers.py``) — over missing
      inputs, unseen categories, codes outside the fitted range,
      PROBABILITY / SUPPORT qualifiers, continuous inputs and targets, all
      mixed in one batch, so the array path and each of its per-case
      fallbacks run side by side (one fixed batch counts them);
(iii) ``AttributeSpace.encode`` off its slot plan equals the transcription
      of the old attribute-by-attribute encoder — duplicate and
      case-variant nested keys, per-item value columns, nested qualifiers,
      existence-only columns, sequence tables — and ``encode_many``'s
      batch-built ``CaseMatrix`` equals the one read off those per-case
      observations, at batch sizes 0, 1, 2 and many, with the lazily
      derived observations equal to the per-case ones;
(iv)  tables never outlive the state they were built from: an absorbed
      second INSERT, ``DELETE FROM`` + retrain, a refit, a PMML state load
      into a used algorithm — each scores like a model that never scored
      before;
(v)   a model whose tables (and slot plan) are built still pickles,
      without them, and process-mode prediction equals serial.

Equality is exact everywhere: ``==`` on value, probability, support,
variance and the whole histogram.  The hypothesis budget comes from the
profile (25 in tier-1, 2,000 under ``--hypothesis-profile=deep``; the two
scorers share it).
"""

import functools
import math
import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro
from repro.algorithms.attributes import (
    AttributeSpace,
    CaseMatrix,
    Observation,
)
from repro.algorithms.registry import create_algorithm
from repro.core.bindings import CaseBatch, MappedCase
from repro.core.columns import compile_model_definition
from repro.errors import Error
from repro.exec.partition import prediction_replica
from repro.lang.parser import parse_statement

from tests.reference.reference_scorers import (
    reference_decision_tree_predict,
    reference_encode,
    reference_naive_bayes_predict,
)
from tests.differential.test_parallel_vs_serial import (
    SCENARIOS,
    _canonical,
    _load,
)
from tests.differential.test_prediction_kernel import Harness

REFERENCE = {"Repro_Naive_Bayes": reference_naive_bayes_predict,
             "Repro_Decision_Trees": reference_decision_tree_predict}


def prediction_dump(prediction):
    def buckets(histogram):
        return [(b.value, b.probability, b.support, b.variance)
                for b in histogram]
    return (
        sorted((p.attribute.index, p.value, p.probability, p.support,
                p.variance, buckets(p.histogram)) for p in prediction),
        prediction.cluster_id,
        [float(p) for p in prediction.cluster_probabilities],
        [float(d) for d in prediction.cluster_distances],
        {table: buckets(ranked)
         for table, ranked in prediction.recommendations.items()})


def observation_dump(observation):
    return (observation.values, observation.weight, observation.confidences,
            observation.case_key, observation.sequences)


# -- (ii) the shipped services over their scenario data --------------------------------

@pytest.fixture(scope="module")
def harnesses():
    built = {service: Harness(service) for service in SCENARIOS}
    yield built
    for harness in built.values():
        harness.close()


@pytest.mark.parametrize("service", sorted(SCENARIOS))
def test_predict_many_equals_predict(harnesses, service):
    model = harnesses[service].model
    cases = harnesses[service].batches["positional"]
    observations = model.space.encode_many(cases)
    one_by_one = [prediction_dump(model.algorithm.predict(observation))
                  for observation in observations]
    assert [prediction_dump(p) for p in
            model.algorithm.predict_many(observations)] == one_by_one
    assert [prediction_dump(p) for p in
            model.predict_cases(cases)] == one_by_one
    reference = REFERENCE.get(service)
    if reference is not None:
        assert [prediction_dump(reference(model.algorithm, observation))
                for observation in observations] == one_by_one


# -- generated casesets ----------------------------------------------------------------

ENCODER_DDL = """
CREATE MINING MODEL m (
    Id LONG KEY,
    G TEXT DISCRETE,
    W DOUBLE SUPPORT OF G,
    H TEXT DISCRETE,
    HP DOUBLE PROBABILITY OF H,
    X DOUBLE CONTINUOUS,
    D DOUBLE DISCRETIZED(EQUAL_COUNT, 3),
    E DOUBLE CONTINUOUS MODEL_EXISTENCE_ONLY,
    T TEXT DISCRETE PREDICT,
    B TABLE(P TEXT KEY, Q DOUBLE CONTINUOUS),
    Clicks TABLE(Step LONG KEY SEQUENCE_TIME, Page TEXT DISCRETE)
) USING {service}
"""

#: The same inputs with the targets each service can predict.
SCORER_DDL = {
    "Repro_Naive_Bayes": ENCODER_DDL.replace(
        "D DOUBLE DISCRETIZED(EQUAL_COUNT, 3),",
        "D DOUBLE DISCRETIZED(EQUAL_COUNT, 3) PREDICT,"),
    "Repro_Decision_Trees": ENCODER_DDL.replace(
        "X DOUBLE CONTINUOUS,", "X DOUBLE CONTINUOUS PREDICT,").replace(
        "USING {service}", "USING {service}(MINIMUM_SUPPORT = 1)"),
}

categories = st.sampled_from([None, "m", "f", "M", "x"])
numbers = st.one_of(st.none(), st.sampled_from([0.0, 1.5, 2.0, 7.25, 40.0]))
shares = st.sampled_from([0.25, 0.5, 1.0])


@st.composite
def mapped_cases(draw, complete=False):
    """A bound case as ``_map_row`` builds one; ``complete`` fills every
    scalar (so a one-case training set still fits every attribute)."""
    case = MappedCase()
    case.scalars["ID"] = draw(st.integers(1, 99))
    for name, values in (("G", categories), ("H", categories),
                         ("T", st.sampled_from([None, "yes", "no", "?"])),
                         ("X", numbers), ("D", numbers), ("E", numbers)):
        value = draw(values)
        if complete and value is None:
            value = "m" if name in "GHT" else 1.5
        case.scalars[name] = value
    if draw(st.booleans()):
        case.qualifiers["G"] = {"SUPPORT": draw(st.sampled_from(
            [None, 1.0, 2.0, 0.5]))}
    if draw(st.booleans()):
        case.qualifiers["H"] = {"PROBABILITY": draw(st.one_of(st.none(),
                                                              shares))}
    basket = []
    for _ in range(draw(st.integers(0, 4))):
        row = {"P": draw(st.sampled_from(
            [None, "tv", "TV", "Tv", "beer", "wine", "unseen"])),
            "Q": draw(numbers)}
        if draw(st.booleans()):
            # No DDL can declare a qualifier of a nested KEY, but the
            # encoder honours one on a hand-bound row; so must the slots.
            row["__QUALIFIERS__"] = {"P": {"PROBABILITY": draw(
                st.one_of(st.none(), shares))}}
        basket.append(row)
    case.tables["B"] = basket
    if draw(st.booleans()):   # a case may lack the nested table altogether
        case.tables["CLICKS"] = [
            {"STEP": draw(st.one_of(st.none(), st.integers(0, 5))),
             "PAGE": draw(st.sampled_from([None, "A", "B", "a"]))}
            for _ in range(draw(st.integers(0, 4)))]
    return case


casesets = st.tuples(mapped_cases(complete=True),
                     st.lists(mapped_cases(), min_size=2, max_size=8))


@functools.lru_cache(maxsize=None)
def definition_of(ddl, service="Repro_Decision_Trees"):
    return compile_model_definition(
        parse_statement(ddl.replace("{service}", service)))


# -- (iii) encode by slot ----------------------------------------------------------------

def assert_same_matrix(built, expected):
    """Equal cell for cell: NaN where NaN, and -0.0 is not 0.0."""
    assert built.values.shape == expected.values.shape
    assert np.array_equal(built.values, expected.values, equal_nan=True)
    assert np.array_equal(np.signbit(built.values),
                          np.signbit(expected.values))
    assert np.array_equal(built.weights, expected.weights)
    assert sorted(built.confidences) == sorted(expected.confidences)
    for index, column in expected.confidences.items():
        assert np.array_equal(built.confidences[index], column)


@settings(deadline=None)
@given(training=casesets, probes=st.lists(mapped_cases(), max_size=3))
def test_slot_encode_equals_reference_encode(training, probes):
    first, rest = training
    space = AttributeSpace(definition_of(ENCODER_DDL))
    space.fit(CaseBatch.of([first] + rest))
    cases = [first] + rest + probes
    expected = [observation_dump(reference_encode(space, case))
                for case in cases]
    assert [observation_dump(space.encode(case))
            for case in cases] == expected
    width = len(space.attributes)
    for size in (0, 1, 2, len(cases)):
        batch = space.encode_many(CaseBatch.of(cases[:size]))
        assert_same_matrix(batch.matrix, CaseMatrix.of(
            [space.encode(case) for case in cases[:size]], width))
        assert CaseMatrix.of(batch, width) is batch.matrix
        assert batch._observations is None and len(batch) == size
        assert [observation_dump(o) for o in batch] == expected[:size]
    # The plan is derived state: a pickled space carries none and
    # rebuilds an equal one.
    assert space._slots is not None
    clone = pickle.loads(pickle.dumps(space))
    assert clone._slots is None
    assert [observation_dump(clone.encode(case))
            for case in cases] == expected


# -- (ii) score from tables ----------------------------------------------------------------

def train(service, cases):
    definition = definition_of(SCORER_DDL[service], service)
    space = AttributeSpace(definition)
    cases = CaseBatch.of(cases)
    space.fit_schema(cases)
    observations = space.encode_many(cases)
    space.marginals_from_observations(observations)
    algorithm = create_algorithm(definition.algorithm, definition.parameters)
    algorithm.train(space, observations)
    return space, algorithm, observations


@pytest.mark.parametrize("service", sorted(REFERENCE))
@settings(deadline=None, max_examples=settings.default.max_examples // 2)
@given(training=casesets, probes=st.lists(mapped_cases(), max_size=3),
       stray=st.lists(st.tuples(st.integers(0, 40),
                                st.sampled_from([None, 7, 99, -1, 2.5])),
                      max_size=3))
def test_table_scoring_equals_reference_formula(service, training, probes,
                                                stray):
    first, rest = training
    try:
        space, algorithm, observations = train(service, [first] + rest)
    except Error:
        assume(False)   # e.g. a target with no training value
    cases = [first] + rest + probes
    observations = list(observations) + list(space.encode_many(
        CaseBatch.of(probes)))
    # Hand-made observations: codes no fitted category maps to.
    for position, value in stray:
        values = list(observations[0].values)
        values[position % len(values)] = value
        observations.append(Observation(values))
    reference = REFERENCE[service]
    expected = [prediction_dump(reference(algorithm, observation))
                for observation in observations]
    # Twice: the second pass reads tables (and shared node predictions)
    # the first one built.
    for _ in range(2):
        assert [prediction_dump(algorithm.predict(observation))
                for observation in observations] == expected
    # A plain list: its matrix is read off the observations.
    assert [prediction_dump(p) for p in
            algorithm.predict_many(observations)] == expected
    # An encoded batch: its own matrix; a fallback encodes its case alone.
    batch = space.encode_many(CaseBatch.of(cases))
    assert [prediction_dump(p) for p in
            algorithm.predict_many(batch)] == expected[:len(cases)]
    assert batch._observations is None


def _fixed_case(id_, g, t=None, x=None, hp=None):
    case = MappedCase()
    case.scalars.update(ID=id_, G=g, H="m", T=t, X=x, D=1.5, E=None)
    if hp is not None:
        case.qualifiers["H"] = {"PROBABILITY": hp}
    case.tables["B"] = [{"P": "tv"}]
    return case


@pytest.mark.parametrize("service", sorted(REFERENCE))
def test_a_mixed_batch_takes_the_array_path_and_every_fallback(service):
    """One batch holding whole cases, a missing split value, a category no
    child has, a code outside the fitted range, a known continuous input
    and a PROBABILITY-carrying case: which of them ``predict_many`` hands
    to ``predict`` is counted, and every entry equals per-case scoring."""
    space, algorithm, _ = train(service, [
        _fixed_case(i, *(("m", "yes", 1.5) if i % 2 else ("f", "no", 7.25)))
        for i in range(8)])
    g = space.by_name("G").index
    if service == "Repro_Decision_Trees":   # both trees split on G alone
        for target in ("T", "X"):
            root = algorithm.tree_for(target)
            assert root.split_attribute.index == g
            assert all(child.is_leaf for child in root.children)
    batch = list(space.encode_many(CaseBatch.of([
        _fixed_case(20, "m"), _fixed_case(21, "M"),      # one leaf
        _fixed_case(22, None),                            # G missing
        _fixed_case(23, "f", x=7.25),                     # X known
        _fixed_case(24, "m", hp=0.5)])))                  # PROBABILITY
    for code in (99, 2.5):                                # no such category
        values = list(batch[0].values)
        values[g] = code
        batch.append(Observation(values))
    expected = [prediction_dump(algorithm.predict(o)) for o in batch]

    per_case, predict = [], algorithm.predict
    algorithm.predict = lambda o: per_case.append(o) or predict(o)
    predictions = list(algorithm.predict_many(batch))
    del algorithm.predict
    assert [prediction_dump(p) for p in predictions] == expected
    fell_back = [row for row, o in enumerate(batch)
                 if any(o is seen for seen in per_case)]
    if service == "Repro_Decision_Trees":
        # Only the missing split value walks fractionally; the strays end
        # whole in the root.  Cases of one leaf share one prediction.
        assert fell_back == [2]
        assert predictions[0] is predictions[1] is predictions[4]
        assert predictions[5] is predictions[6]
        assert predictions[0] is not predictions[3]
    else:
        # A missing input only drops its term; the Gaussian term and the
        # unfitted codes are the per-case formula's.
        assert fell_back == [3, 5, 6]
        assert predictions[0] is not predictions[1]


# -- (iv) invalidation -----------------------------------------------------------------------

def _connection(service, inserts, score_between=False):
    """Create M, run ``inserts`` (statement lists; ``None`` is DELETE FROM)
    and return the connection; ``score_between`` predicts after every
    step, so each later step meets built tables."""
    scenario = SCENARIOS[service]
    conn = repro.connect()
    _load(conn)
    conn.execute(scenario["ddl"])
    for where in inserts:
        if where is None:
            conn.execute("DELETE FROM M")
        else:
            conn.execute(f"{scenario['train']} WHERE {where}")
        if score_between and conn.provider.model("M").is_trained:
            conn.execute(scenario["predict"])
    return conn


def _scores(conn, service, model="M"):
    statement = SCENARIOS[service]["predict"].replace(
        " M ", f" {model} ").replace("M.", f"{model}.")
    return _canonical(conn.execute(statement))


@pytest.mark.parametrize("service, first, second, absorbs", [
    # Halves with the same categories: naive Bayes absorbs the second ...
    ("Repro_Naive_Bayes", "Id <= 30", "Id > 30", True),
    # ... a category it never saw makes it refit, as a tree always does.
    ("Repro_Naive_Bayes", "H <> 'lo'", "H = 'lo'", False),
    ("Repro_Decision_Trees", "Id <= 30", "Id > 30", False)])
def test_tables_follow_the_trained_state(service, first, second, absorbs,
                                         tmp_path):
    used = _connection(service, [first], score_between=True)
    model = used.provider.model("M")
    assert model.algorithm._tables is not None
    space = model.space
    used.execute(f"{SCENARIOS[service]['train']} WHERE {second}")
    assert (model.space is space) == absorbs   # absorbed, or refitted
    fresh = _connection(service, [first, second])
    assert fresh.provider.model("M").algorithm._tables is None
    assert _scores(used, service) == _scores(fresh, service)

    # DELETE FROM + retrain on cases that score differently.
    skewed = "Buys = 'yes' OR Id > 50"
    used.execute("DELETE FROM M")
    used.execute(f"{SCENARIOS[service]['train']} WHERE {skewed}")
    retrained = _connection(service, [skewed])
    assert _scores(used, service) == _scores(retrained, service)
    assert _scores(used, service) != _scores(fresh, service)

    # PMML export -> import: the restored model scores like its source.
    path = tmp_path / "m.xml"
    used.execute(f"EXPORT MINING MODEL [M] TO '{path}'")
    used.execute(f"IMPORT MINING MODEL FROM '{path}' AS [M2]")
    assert _scores(used, service, "M2") == _scores(used, service)
    for conn in (used, fresh, retrained):
        conn.close()


@pytest.mark.parametrize("service", sorted(REFERENCE))
def test_state_load_drops_the_tables_of_a_used_algorithm(service):
    used = _connection(service, ["Id <= 30"], score_between=True)
    other = _connection(service, ["Id > 20"])
    algorithm = used.provider.model("M").algorithm
    donor = other.provider.model("M")
    assert algorithm._tables is not None
    algorithm.restore(donor.space, donor.algorithm.state())
    assert algorithm._tables is None
    observations = donor.space.encode_many(donor.training_cases)
    assert [prediction_dump(algorithm.predict(o)) for o in observations] \
        == [prediction_dump(donor.algorithm.predict(o))
            for o in observations]
    used.close()
    other.close()


# -- (v) pickling and the process pool -----------------------------------------------------------

@pytest.mark.parametrize("service", sorted(SCENARIOS))
def test_a_scored_model_pickles_without_its_tables(harnesses, service):
    model = harnesses[service].model
    cases = harnesses[service].batches["positional"]
    expected = [prediction_dump(p) for p in model.predict_cases(cases)]
    clone = pickle.loads(pickle.dumps(prediction_replica(model)))
    assert clone.algorithm._tables is None
    assert clone.space._slots is None
    assert [prediction_dump(p)
            for p in clone.predict_cases(cases)] == expected


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process pools require the fork start method")
@pytest.mark.parametrize("service", sorted(REFERENCE))
def test_process_mode_prediction_equals_serial_after_scoring(service):
    scenario = SCENARIOS[service]
    conn = repro.connect(max_workers=2, pool_mode="process", batch_size=7,
                         caseset_cache_capacity=0)
    try:
        _load(conn)
        conn.execute(scenario["ddl"])
        conn.execute(scenario["train"])
        # Serial first: the parent's model has its tables built when the
        # pool path pickles it.
        serial = _canonical(conn.execute(
            scenario["predict"] + " WITH MAXDOP 1"))
        assert conn.provider.model("M").algorithm._tables is not None
        parallel = _canonical(conn.execute(scenario["predict"]))
        metrics = dict(conn.execute(
            "SELECT METRIC, VALUE FROM $SYSTEM.DM_PROVIDER_METRICS").rows)
        assert metrics.get("pool.parallel_statements.predict") == 1.0
        assert metrics.get("pool.serial_fallbacks.pickle", 0.0) == 0.0
        assert parallel == serial
    finally:
        conn.close()


# -- (vi) naive Bayes builds what the statement reads ------------------------------------

def _nudged(score, ulps):
    """``score`` moved ``ulps`` representable floats (down when negative)."""
    for _ in range(abs(ulps)):
        score = math.nextafter(score, -math.inf if ulps < 0 else math.inf)
    return score


@st.composite
def log_score_rows(draw, width):
    """A case's log scores: around a peak, some tied exactly, some a few
    ulps off (equal once ``exp`` rounds them, or not), some so far below
    that their weight underflows to 0."""
    peak = draw(st.sampled_from([0.0, -1.5, -27.631021115928547, -700.0]))
    return [draw(st.one_of(
        st.just(peak),
        st.integers(-3, 3).map(lambda ulps: _nudged(peak, ulps)),
        st.sampled_from([peak - 1e-12, peak - 0.5, peak - 800.0,
                         peak - 1e5]))) for _ in range(width)]


@settings(deadline=None)
@given(data=st.data(), states=st.one_of(
    st.lists(st.sampled_from([0, 1, 2, 3, 10, 11, 20]), min_size=1,
             max_size=5, unique=True),
    st.lists(st.sampled_from([0.0, 1.0]), min_size=1, unique=True)),
    total=st.sampled_from([0.0, 5e-324, 1e-300, 1e-290, 1.0, 7.5, 2000.0]))
def test_a_predicted_value_is_its_posteriors_value(data, states, total):
    """``_values_of`` picks from each row of log scores the value
    ``_posterior``'s whole prediction carries — the heaviest positive
    ``exp(score - normaliser) * total``, ties to the smallest
    ``_tiebreak`` (``"10"`` before ``"2"``), None when every weight
    underflows — bit for bit: the arg-max state only where the margin
    makes it that, the posterior itself everywhere else."""
    from types import SimpleNamespace
    from repro.algorithms.attributes import Attribute
    from repro.algorithms.naive_bayes import NaiveBayesAlgorithm

    labels = {state: f"s{state!r}" for state in states}
    rows = data.draw(st.lists(log_score_rows(len(states)), min_size=1,
                              max_size=6))
    target = Attribute(0, "T", "categorical", False, True)
    model = SimpleNamespace(prior=SimpleNamespace(total=total))
    assert NaiveBayesAlgorithm._values_of(
        (target, model, states, labels), np.array(rows)) == [
        NaiveBayesAlgorithm._posterior(target, model, states, labels,
                                       row).value for row in rows]


LAZY_DDL = ("CREATE MINING MODEL nb (Id LONG KEY, T TEXT DISCRETE PREDICT, "
            "{inputs}) USING Repro_Naive_Bayes(SMOOTHING = 0)")
LAZY_INPUTS = 30

#: Reads of a prediction's value alone, and reads of the whole of it.
VALUE_READS = ["nb.T", "[nb].[T]", "Predict(T)", "Predict([nb].[T])"]
WHOLE_READS = ["PredictProbability(T)", "PredictSupport(T)",
               "PredictProbability(T, 'u')", "PredictHistogram(T)",
               "TopCount(PredictHistogram(T), [$PROBABILITY], 2)"]


@pytest.fixture(scope="module")
def lazy_conn():
    conn = repro.connect()
    load_ties(conn)
    yield conn
    conn.close()


def load_ties(conn):
    """Table ``S`` and a naive-Bayes model ``nb`` trained on it without
    smoothing: ``x`` and ``y`` cases differ in every input, so a case of
    one scores the other ~830 below (its weight underflows to 0); ``u``
    and ``v`` cases are alike, so a case of theirs ties them exactly."""
    names = [f"A{i}" for i in range(LAZY_INPUTS)]
    conn.execute("CREATE TABLE S (Id LONG, T TEXT, "
                 + ", ".join(f"{name} TEXT" for name in names) + ")")
    patterns = {"x": ["p"] * LAZY_INPUTS, "y": ["q"] * LAZY_INPUTS,
                "u": ["r", "s"] * (LAZY_INPUTS // 2),
                "v": ["r", "s"] * (LAZY_INPUTS // 2)}
    rows, ident = [], 0
    for target, copies in (("x", 3), ("y", 3), ("u", 2), ("v", 2)):
        for _ in range(copies):
            ident += 1
            rows.append(f"({ident}, '{target}', " + ", ".join(
                f"'{value}'" for value in patterns[target]) + ")")
    # Cases nobody trained on: mixed patterns and all-missing inputs.
    for pattern in (["p", "q"] * (LAZY_INPUTS // 2), ["s"] * LAZY_INPUTS):
        ident += 1
        rows.append(f"({ident}, NULL, " + ", ".join(
            f"'{value}'" for value in pattern) + ")")
    ident += 1
    rows.append(f"({ident}, NULL, " + ", ".join(["NULL"] * LAZY_INPUTS)
                + ")")
    conn.execute("INSERT INTO S VALUES " + ", ".join(rows))
    conn.execute(LAZY_DDL.format(inputs=", ".join(
        f"{name} TEXT DISCRETE" for name in names)))
    conn.execute("INSERT INTO nb SELECT * FROM S WHERE T IS NOT NULL")


@pytest.mark.parametrize("whole", WHOLE_READS)
@pytest.mark.parametrize("value", VALUE_READS)
def test_value_reads_equal_whole_reads(lazy_conn, value, whole):
    """A statement that reads only the predicted value asks the service
    for its value column (``predict_values``) and builds no prediction;
    beside a read of the whole prediction it gets the posteriors
    (``predict_many``, told the attributes it reads) and reads the value
    off them.  The values are bit-identical at the ``rowset_dump`` level,
    over exact ties and underflowed states."""
    from repro.server.protocol import rowset_dump
    from repro.sqlstore.rowset import Rowset

    algorithm = lazy_conn.provider.model("nb").algorithm
    seen = []
    predict_many, predict_values = \
        algorithm.predict_many, algorithm.predict_values
    algorithm.predict_many = lambda observations, reads=None: \
        seen.append(("predictions", reads)) or predict_many(observations,
                                                            reads)
    algorithm.predict_values = lambda observations, attributes: \
        seen.append(("values", [a.name for a in attributes])) or \
        predict_values(observations, attributes)
    source = "NATURAL PREDICTION JOIN (SELECT * FROM S) AS t ORDER BY t.Id"
    try:
        lazy = lazy_conn.execute(f"SELECT t.Id, {value} FROM nb {source}")
        eager = lazy_conn.execute(
            f"SELECT t.Id, {value}, {whole} FROM nb {source}")
    finally:
        del algorithm.predict_many, algorithm.predict_values
    target = lazy_conn.provider.model("nb").space.by_name("T").index
    assert seen == [("values", ["T"]), ("predictions", {target})]
    assert rowset_dump(lazy) == rowset_dump(Rowset(
        eager.columns[:2], [row[:2] for row in eager.rows]))
    assert {row[1] for row in lazy.rows} == {"x", "y", "u"}
