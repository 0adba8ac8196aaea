"""Logistic regression: calibration, separation, capability limits."""

import numpy as np
import pytest

from repro.errors import CapabilityError
from repro.lang.parser import parse_statement
from repro.core.bindings import CaseBatch, MappedCase
from repro.core.columns import compile_model_definition
from repro.algorithms.attributes import AttributeSpace
from repro.algorithms.logistic_regression import LogisticRegressionAlgorithm

DDL = """
CREATE MINING MODEL m (k LONG KEY, G TEXT DISCRETE,
    X DOUBLE CONTINUOUS, L TEXT DISCRETE PREDICT)
USING Repro_Logistic_Regression
"""


def case(**scalars):
    mapped = MappedCase()
    mapped.scalars.update({k.upper(): v for k, v in scalars.items()})
    return mapped


def separable_cases(n=200, seed=3):
    rng = np.random.RandomState(seed)
    cases = []
    for i in range(n):
        x = float(rng.normal(2.0 if i % 2 else -2.0, 0.8))
        label = "pos" if x > 0 else "neg"
        cases.append(case(k=i, G="a" if i % 3 else "b", X=x, L=label))
    return cases


def build(cases, params=None):
    definition = compile_model_definition(parse_statement(DDL))
    space = AttributeSpace(definition)
    space.fit(CaseBatch.of(cases))
    algorithm = LogisticRegressionAlgorithm(params)
    algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
    return space, algorithm


class TestSeparation:
    def test_learns_a_separable_boundary(self):
        space, algorithm = build(separable_cases())
        label = space.by_name("L")
        high = algorithm.predict(space.encode(case(X=3.0))).get(label)
        low = algorithm.predict(space.encode(case(X=-3.0))).get(label)
        assert high.value == "pos" and low.value == "neg"
        assert high.probability > 0.9 and low.probability > 0.9

    def test_probabilities_are_calibrated_near_boundary(self):
        space, algorithm = build(separable_cases())
        label = space.by_name("L")
        boundary = algorithm.predict(space.encode(case(X=0.0))).get(label)
        assert 0.2 < boundary.probability < 0.8

    def test_histogram_is_a_distribution(self):
        space, algorithm = build(separable_cases())
        label = space.by_name("L")
        prediction = algorithm.predict(space.encode(case(X=1.0))).get(label)
        assert sum(b.probability for b in prediction.histogram) == \
            pytest.approx(1.0)

    def test_missing_features_fall_back_to_means(self):
        space, algorithm = build(separable_cases())
        label = space.by_name("L")
        prediction = algorithm.predict(space.encode(case())).get(label)
        assert prediction.value in ("pos", "neg")

    def test_multiclass(self):
        cases = []
        for i in range(300):
            x = float(i % 3) * 10.0 + (i % 7) * 0.1
            cases.append(case(k=i, G="a", X=x, L=f"c{i % 3}"))
        space, algorithm = build(cases)
        label = space.by_name("L")
        for target_class, x in (("c0", 0.2), ("c1", 10.2), ("c2", 20.2)):
            prediction = algorithm.predict(
                space.encode(case(X=x))).get(label)
            assert prediction.value == target_class


class TestWeighting:
    def test_support_weights_shift_the_boundary(self):
        cases = [case(k=1, G="a", X=1.0, L="pos"),
                 case(k=2, G="a", X=1.0, L="neg")]
        cases[1].qualifiers["L"] = {"SUPPORT": 9.0}
        definition = compile_model_definition(parse_statement(DDL))
        space = AttributeSpace(definition)
        space.fit(CaseBatch.of(cases))
        algorithm = LogisticRegressionAlgorithm()
        algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
        label = space.by_name("L")
        prediction = algorithm.predict(
            space.encode(case(G="a", X=1.0))).get(label)
        assert prediction.value == "neg"


class TestCapabilities:
    def test_refuses_continuous_targets(self):
        ddl = ("CREATE MINING MODEL m (k LONG KEY, G TEXT DISCRETE, "
               "Y DOUBLE CONTINUOUS PREDICT) "
               "USING Repro_Logistic_Regression")
        definition = compile_model_definition(parse_statement(ddl))
        cases = [case(k=1, G="a", Y=1.0), case(k=2, G="b", Y=2.0)]
        space = AttributeSpace(definition)
        space.fit(CaseBatch.of(cases))
        with pytest.raises(CapabilityError):
            LogisticRegressionAlgorithm().train(
                space, space.encode_many(CaseBatch.of(cases)))

    def test_capability_flags(self):
        assert LogisticRegressionAlgorithm.PREDICTS_DISCRETE
        assert not LogisticRegressionAlgorithm.PREDICTS_CONTINUOUS


class TestContentAndPersistence:
    def test_content_lists_per_class_coefficients(self):
        space, algorithm = build(separable_cases())
        root = algorithm.content_nodes()
        rows = root.children[0].distribution
        labels = [row.attribute for row in rows]
        assert any("(intercept)" in label for label in labels)
        assert any("| X" in label for label in labels)

    def test_pmml_round_trip_preserves_predictions(self, conn):
        conn.execute("CREATE TABLE T (k LONG, G TEXT, X DOUBLE, L TEXT)")
        rows = ", ".join(
            f"({i}, 'a', {2.0 if i % 2 else -2.0}, "
            f"'{'pos' if i % 2 else 'neg'}')" for i in range(60))
        conn.execute(f"INSERT INTO T VALUES {rows}")
        conn.execute(DDL.replace("m (", "[LR] ("))
        conn.execute("INSERT INTO [LR] SELECT k, G, X, L FROM T")
        query = ("SELECT [LR].[L], PredictProbability([L]) FROM [LR] "
                 "NATURAL PREDICTION JOIN (SELECT 1.5 AS X) AS t")
        before = conn.execute(query).rows
        from repro.pmml import read_pmml, to_pmml
        restored = read_pmml(to_pmml(conn.model("LR")))
        conn.provider.models["LR"] = restored
        after = conn.execute(query).rows
        assert before[0][0] == after[0][0]
        assert before[0][1] == pytest.approx(after[0][1])
