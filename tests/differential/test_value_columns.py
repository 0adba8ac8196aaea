"""Differential harness: value columns vs the per-case oracle.

A batch PREDICTION JOIN that reads predicted values asks the service for
them as columns (``MiningAlgorithm.predict_values``: the tabular services
answer from their log scores or their level-routed trees, every other
service through the default over ``predict_many``), and when every output
is a plain column builds its rows by zipping the columns.  Every statement
below must equal — ``rowset_dump`` for ``rowset_dump``, or the same error —
the statement run with its kernel replaced by the per-case interpreter
(``tests/reference/prediction_oracle.py``: a fresh context per case, the
case scored by ``predict`` on first use), over

* every registered service (the scenarios of
  ``test_parallel_vs_serial.py``), a tree with threshold splits, missing
  split values and unseen categories, naive Bayes with a Gaussian input,
  naive Bayes over exact ties and underflowed states
  (``test_scoring_tables.py`` (vi)), and a plug-in that implements
  ``predict`` alone;
* select lists of source columns only, model columns (inputs too, which
  read the marginals), ``Predict``, duplicates, ``t.*`` / ``M.*``, and
  values beside ``PredictProbability`` / ``PredictHistogram`` /
  ``PredictSupport``;
* source-only WHERE pushed below binding or not, a WHERE reading a
  prediction, TOP 0 / TOP n, DISTINCT, ORDER BY a predicted value,
  FLATTENED, and the singleton (FROM-less) form;
* batch sizes 1, 2, 7 (serial where a blocking clause keeps the pool
  out) and one batch, the caseset cache cold then warm, and a two-worker
  pool of threads and of processes.

Near-ties a whole statement cannot produce are held to the posterior
directly (``test_scoring_tables.py`` (vi)), and codes no category has —
which no statement encodes — by ``predict_values`` against per-case
``predict``.
"""

import multiprocessing
import re
from itertools import chain, islice
from operator import itemgetter

import pytest

import repro
from repro.algorithms.attributes import CaseMatrix, Observation
from repro.algorithms.base import (
    AttributePrediction,
    CasePrediction,
    MiningAlgorithm,
    PredictionBucket,
)
from repro.algorithms.registry import (
    algorithm_services,
    register_algorithm,
    unregister_algorithm,
)
from repro.core import prediction
from repro.core.prediction import compile_cases
from repro.core.content import NODE_MODEL, ContentNode
from repro.errors import Error
from repro.server.protocol import rowset_dump
from repro.shaping.shape import ShapedBatch

from tests.reference import prediction_oracle as oracle
from tests.differential.test_parallel_vs_serial import SCENARIOS, _load
from tests.differential.test_prediction_kernel import LATE_ROWS
from tests.differential.test_scoring_tables import load_ties


class EchoInput(MiningAlgorithm):
    """A plug-in that implements ``predict`` alone: each categorical
    output predicts the case's first known categorical input, decoded;
    other outputs it leaves out (the marginals stand in)."""

    SERVICE_NAME = "Test_Echo_Input"

    def _train(self, space, observations):
        pass

    def predict(self, observation):
        result = CasePrediction()
        inputs = [a for a in self.space.inputs() if a.is_categorical
                  and observation.values[a.index] is not None]
        for target in self.space.outputs():
            if target.is_categorical and inputs:
                value = inputs[0].decode(observation.values[inputs[0].index])
                result.set(AttributePrediction(
                    target, value, 1.0, 1.0, None,
                    [PredictionBucket(value, 1.0, 1.0)]))
        return result

    def content_nodes(self):
        return ContentNode("0", NODE_MODEL, self.space.definition.name,
                           support=self.space.total_weight, probability=1.0)


#: Rows added after training: those of the kernel differential (a missing
#: input, categories and items the model never saw) and unseen categories
#: beside known values, which a tree follows below its root.
LATE = LATE_ROWS + ["INSERT INTO C VALUES (64, 'm', 'never', 28.0, 90.0, "
                    "NULL), (65, 'f', 'gone', 44.0, 1.0, NULL), "
                    "(66, 'x', 'hi', 30.0, 95.0, NULL)"]


def _scenario(ddl, train, source, col, input_):
    return dict(ddl=ddl, train=train, load=_load, late=LATE, model="M",
                tail=f" FROM M NATURAL PREDICTION JOIN {source}",
                col=col, input=input_)


#: The value column and an input-only column each service's scenario
#: reads; a service not named here gets the source-only statements alone.
COLUMNS = {"Repro_Naive_Bayes": ("Buys", "G"),
           "Repro_Decision_Trees": ("Buys", "G"),
           "Repro_Clustering": ("Age", "G"),
           "Repro_KMeans": ("Age", "G"),
           "Repro_Linear_Regression": ("Spend", "G"),
           "Repro_Logistic_Regression": ("Buys", "G"),
           "Repro_Association_Rules": (None, None),
           "Repro_Sequence_Clustering": (None, None)}

CASES = {service: dict(
    ddl=scenario["ddl"], train=scenario["train"], load=_load,
    late=LATE, model="M",
    tail=scenario["predict"][scenario["predict"].index(" FROM M "):],
    col=COLUMNS.get(service, (None, None))[0],
    input=COLUMNS.get(service, (None, None))[1])
    for service, scenario in SCENARIOS.items()}
CASES.update({
    # Splits on the continuous Age and on H, which the source lacks.
    "tree thresholds": _scenario(
        "CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
        "H TEXT DISCRETE PREDICT, Age DOUBLE CONTINUOUS, "
        "Spend DOUBLE CONTINUOUS PREDICT, Buys TEXT DISCRETE PREDICT) "
        "USING Repro_Decision_Trees(MINIMUM_SUPPORT = 2)",
        "INSERT INTO M (Id, G, H, Age, Spend, Buys) "
        "SELECT Id, G, H, Age, Spend, Buys FROM C",
        "(SELECT Id, G, Age FROM C) AS t", "Spend", "G"),
    # A known Age is a Gaussian term: that case is scored by predict.
    "bayes gaussian": _scenario(
        "CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
        "Age DOUBLE CONTINUOUS, H TEXT DISCRETE PREDICT, "
        "Buys TEXT DISCRETE PREDICT) USING Repro_Naive_Bayes",
        "INSERT INTO M (Id, G, Age, H, Buys) "
        "SELECT Id, G, Age, H, Buys FROM C",
        "(SELECT Id, G, Age FROM C) AS t", "H", "G"),
    "bayes ties": dict(
        ddl=None, train=None, load=load_ties, late=[], model="nb",
        tail=" FROM nb NATURAL PREDICTION JOIN (SELECT * FROM S) AS t",
        col="T", input="A0"),
    EchoInput.SERVICE_NAME: _scenario(
        "CREATE MINING MODEL M (Id LONG KEY, G TEXT DISCRETE, "
        "H TEXT DISCRETE, Age DOUBLE CONTINUOUS PREDICT, "
        "Buys TEXT DISCRETE PREDICT) USING Test_Echo_Input",
        "INSERT INTO M (Id, G, H, Age, Buys) "
        "SELECT Id, G, H, Age, Buys FROM C",
        "(SELECT Id, G, H FROM C) AS t", "Buys", "G"),
})

#: Select lists; one naming {col} or {input} is left out of a scenario
#: without such a column.
SELECT_LISTS = [
    "t.Id",
    "t.*",
    "{m}.{col}",
    "t.Id, {m}.{col}, {m}.{input}",
    "Predict({col}), t.Id, {m}.{col}, t.Id",
    "{m}.*, t.Id",
    "t.Id, {m}.{col}, PredictProbability({col})",
    "t.Id, Predict({col}), PredictHistogram({col})",
    "t.Id, PredictSupport({col}), {m}.{col}",
]

#: ``(prefix, suffix)`` around a select list.
FORMS = [
    ("", ""),
    ("", " WHERE t.Id > 20"),                 # pushed below binding
    ("", " WHERE Id > 20 AND Id < 62"),       # not pushable: unqualified
    ("", " WHERE {m}.{col} IS NOT NULL AND t.Id <> 13"),
    ("TOP 0 ", ""),
    ("TOP 5 ", ""),
    ("DISTINCT ", ""),
    ("", " ORDER BY {m}.{col} DESC, t.Id"),
    ("FLATTENED ", ""),
]

#: Literals for the FROM-less form of a flat source, by column.
LITERALS = {"ID": "7", "G": "'m'", "H": "NULL", "AGE": "28.0"}


def statements(case):
    """The scenario's grid: every select list in the plain form first,
    then every other form over one of three select lists in turn, and the
    FROM-less form where the source is a flat SELECT over C."""
    names = dict(m=case["model"], col=case["col"], input=case["input"])

    def fill(text):
        if any(names[key] is None for key in re.findall(r"{(\w+)}", text)):
            return None
        return text.format(**names)
    chosen = [(select, "", "") for select in SELECT_LISTS] + [
        (SELECT_LISTS[(0, 3, 7)[position % 3]], prefix, suffix)
        for position, (prefix, suffix) in enumerate(FORMS[1:])]
    texts = []
    for select, prefix, suffix in chosen:
        select, suffix = fill(select), fill(suffix)
        if select is not None and suffix is not None:
            texts.append(f"SELECT {prefix}{select}{case['tail']}{suffix}")
    flat = re.search(r"\(SELECT ([\w, ]+) FROM C\) AS t", case["tail"])
    if flat is not None:
        constant = ", ".join(f"{LITERALS[name.strip().upper()]} AS {name}"
                             for name in flat.group(1).split(","))
        for select in SELECT_LISTS:
            select = fill(select)
            if select is not None:
                texts.append(f"SELECT {select}" + case["tail"].replace(
                    flat.group(0), f"(SELECT {constant}) AS t"))
    return texts


def _connect(case, **options):
    conn = repro.connect(**options)
    case["load"](conn)
    if case["ddl"] is not None:
        conn.execute(case["ddl"])
        conn.execute(case["train"])
    for statement in case["late"]:
        conn.execute(statement)
    return conn


def outcome(execute, text):
    try:
        return ("rows", rowset_dump(execute(text)))
    except Error as exc:
        return ("raised", type(exc).__name__, str(exc))


def _oracle_compile(model, context, where, exprs, keys=()):
    """``compile_cases`` with the per-case interpreter as its kernel (the
    real binding still raises the statement's bind errors and types an
    empty result's source columns).  The interpreter evaluates the hidden
    ORDER BY ``keys`` per case too; each case's entry is then the tuple of
    its key values, which ``kernel.keys`` read back."""
    plain = compile_cases(model, context, where, exprs, keys).plain

    def kernel(cases):
        rows = cases.source
        if isinstance(rows, ShapedBatch):
            rows = rows.rows()
        rows = oracle.evaluate_cases(model, context, where,
                                     list(exprs) + list(keys),
                                     zip(rows, cases))
        width = len(exprs)
        return [(row[:width], row[width:]) for row in rows] if keys \
            else rows
    kernel.plain = plain
    kernel.keys = [itemgetter(at) for at in range(len(keys))]
    return kernel


@pytest.fixture(scope="module", autouse=True)
def plug_in():
    register_algorithm(EchoInput)
    yield
    unregister_algorithm(EchoInput)


_EXPECTED = {}


def expected(name):
    """The oracle's outcome of every statement of scenario ``name``."""
    if name not in _EXPECTED:
        case = CASES[name]
        conn = _connect(case, batch_size=10 ** 9, caseset_cache_capacity=0)
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(prediction, "compile_cases", _oracle_compile)
                _EXPECTED[name] = {text: outcome(conn.execute, text)
                                   for text in statements(case)}
        finally:
            conn.close()
    return _EXPECTED[name]


#: Connection options, and whether the configuration runs the whole grid
#: or the select lists in the plain form alone.
CONFIGS = {
    "batch 1": (dict(batch_size=1, caseset_cache_capacity=0), False),
    "batch 2, cached": (dict(batch_size=2), True),
    "one batch": (dict(batch_size=10 ** 9, caseset_cache_capacity=0), False),
    "threads": (dict(max_workers=2, pool_mode="thread", batch_size=7,
                     caseset_cache_capacity=0), True),
    "processes": (dict(max_workers=2, pool_mode="process", batch_size=7,
                       caseset_cache_capacity=0), False),
}

#: The scenarios run in a process pool: the two services with their own
#: ``predict_values`` and the plug-in without (the pool's payload
#: carries each model to the workers).
PROCESS_CASES = {"Repro_Naive_Bayes", "Repro_Decision_Trees",
                 "tree thresholds", EchoInput.SERVICE_NAME}

GRID = [(name, config) for name in sorted(CASES) for config in CONFIGS
        if config != "processes" or name in PROCESS_CASES]


def test_every_registered_service_has_a_scenario():
    assert {cls.SERVICE_NAME for cls in algorithm_services()} <= set(CASES)
    assert EchoInput.predict_values is MiningAlgorithm.predict_values


@pytest.mark.parametrize("name, config", GRID,
                         ids=[f"{name}-{config}" for name, config in GRID])
def test_value_columns_equal_the_oracle(name, config):
    if config == "processes" and \
            "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("process pools require the fork start method")
    want = expected(name)
    options, whole_grid = CONFIGS[config]
    conn = _connect(CASES[name], **options)
    try:
        for text, outcome_ in list(want.items())[
                :None if whole_grid else len(SELECT_LISTS)]:
            assert outcome(conn.execute, text) == outcome_, text
            if config.endswith("cached"):   # the same statement, replayed
                assert outcome(conn.execute, text) == outcome_, text
    finally:
        conn.close()


def test_the_tree_scenario_splits_on_thresholds_and_absent_columns():
    conn = _connect(CASES["tree thresholds"])
    try:
        nodes = list(conn.provider.model("M").algorithm.trees.values())
        for node in nodes:
            nodes.extend(node.children)
        splits = {(node.split_attribute.name, node.threshold is None)
                  for node in nodes if node.children}
    finally:
        conn.close()
    assert ("Age", False) in splits and ("H", True) in splits


@pytest.mark.parametrize("name", ["tree thresholds", "Repro_Decision_Trees",
                                  "bayes gaussian", "Repro_Naive_Bayes"])
def test_codes_no_category_has_score_like_predict(name):
    """A statement encodes a category the model never saw as missing; a
    hand-made observation can carry a code no category has (99, 2.5, -1)
    — the router's "ends in its node" branch and the log scores' fallback.
    Over such observations too, ``predict_values`` of every attribute
    equals the values of per-case ``predict``, and the deep tree ends
    some of them in an interior node below its root."""
    conn = _connect(CASES[name])
    try:
        model = conn.provider.model("M")
        algorithm, space = model.algorithm, model.space
        observations = list(map(space.encode, islice(
            chain.from_iterable(model.training_cases), 20)))
        for position, observation in enumerate(list(observations)):
            for attribute in space.inputs():
                if attribute.is_categorical:
                    values = list(observation.values)
                    values[attribute.index] = (99, 2.5, -1)[position % 3]
                    observations.append(Observation(values))
        attributes = space.attributes
        assert algorithm.predict_values(observations, attributes) == \
            algorithm.value_columns(list(map(algorithm.predict,
                                             observations)), attributes)
        if name == "tree thresholds":
            values = CaseMatrix.of(observations, len(attributes)).values
            assert any(end > 0 and flat.split[end] >= 0
                       for _, _, flat in algorithm.prediction_tables()[0]
                       for end in flat.route(values).tolist())
    finally:
        conn.close()
