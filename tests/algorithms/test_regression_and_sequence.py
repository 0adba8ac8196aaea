"""Linear regression and Markov sequence clustering."""

import numpy as np
import pytest

from repro.errors import CapabilityError, TrainError
from repro.lang.parser import parse_statement
from repro.core.bindings import CaseBatch, MappedCase
from repro.core.columns import compile_model_definition
from repro.algorithms.attributes import AttributeSpace
from repro.algorithms.linear_regression import LinearRegressionAlgorithm
from repro.algorithms.sequence import SequenceClusteringAlgorithm


def case(**scalars):
    mapped = MappedCase()
    mapped.scalars.update({k.upper(): v for k, v in scalars.items()})
    return mapped


REGRESSION_DDL = """
CREATE MINING MODEL m (k LONG KEY, Group_ TEXT DISCRETE,
    X DOUBLE CONTINUOUS, Y DOUBLE CONTINUOUS PREDICT)
USING Repro_Linear_Regression
"""


def linear_cases(n=100):
    rng = np.random.RandomState(1)
    cases = []
    for i in range(n):
        x = float(rng.uniform(0, 10))
        group = "a" if i % 2 else "b"
        bump = 5.0 if group == "a" else 0.0
        y = 3.0 * x + 7.0 + bump + float(rng.normal(0, 0.01))
        cases.append(case(k=i, Group_=group, X=x, Y=y))
    return cases


def build_regression(cases):
    definition = compile_model_definition(parse_statement(REGRESSION_DDL))
    space = AttributeSpace(definition)
    space.fit(CaseBatch.of(cases))
    algorithm = LinearRegressionAlgorithm()
    algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
    return space, algorithm


class TestLinearRegression:
    def test_recovers_coefficients(self):
        space, algorithm = build_regression(linear_cases())
        y = space.by_name("Y")
        at_zero_b = algorithm.predict(
            space.encode(case(Group_="b", X=0.0))).get(y)
        at_ten_a = algorithm.predict(
            space.encode(case(Group_="a", X=10.0))).get(y)
        assert at_zero_b.value == pytest.approx(7.0, abs=0.1)
        assert at_ten_a.value == pytest.approx(42.0, abs=0.1)

    def test_r_squared_near_one_on_linear_data(self):
        space, algorithm = build_regression(linear_cases())
        model = algorithm.models[space.by_name("Y").index]
        assert model.r_squared > 0.999

    def test_missing_feature_imputed_with_mean(self):
        space, algorithm = build_regression(linear_cases())
        y = space.by_name("Y")
        prediction = algorithm.predict(space.encode(case())).get(y)
        mean_y = space.marginals[y.index].mean
        assert prediction.value == pytest.approx(mean_y, abs=0.5)

    def test_refuses_discrete_targets(self):
        ddl = ("CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE "
               "PREDICT, x DOUBLE CONTINUOUS) "
               "USING Repro_Linear_Regression")
        definition = compile_model_definition(parse_statement(ddl))
        cases = [case(k=1, a="p", x=1.0), case(k=2, a="q", x=2.0)]
        space = AttributeSpace(definition)
        space.fit(CaseBatch.of(cases))
        with pytest.raises(CapabilityError):
            LinearRegressionAlgorithm().train(
                space, space.encode_many(CaseBatch.of(cases)))

    def test_content_lists_coefficients(self):
        space, algorithm = build_regression(linear_cases())
        root = algorithm.content_nodes()
        rows = root.children[0].distribution
        labels = [row.attribute for row in rows]
        assert "(intercept)" in labels
        assert "X" in labels


SEQUENCE_DDL = """
CREATE MINING MODEL m (
    [Id] LONG KEY,
    [Clicks] TABLE([Step] LONG KEY SEQUENCE_TIME,
                   [Page] TEXT DISCRETE)
) USING Repro_Sequence_Clustering(CLUSTER_COUNT = 2)
"""


def sequence_case(identifier, pages):
    mapped = MappedCase()
    mapped.scalars["ID"] = identifier
    mapped.tables["CLICKS"] = [
        {"STEP": step, "PAGE": page} for step, page in enumerate(pages)]
    return mapped


def sequence_cases():
    # Two behavioural groups: A->B->C loops vs X->Y->X loops.
    cases = []
    for i in range(30):
        cases.append(sequence_case(i, ["A", "B", "C", "A", "B", "C"]))
    for i in range(30, 60):
        cases.append(sequence_case(i, ["X", "Y", "X", "Y", "X"]))
    return cases


def build_sequence(cases):
    definition = compile_model_definition(parse_statement(SEQUENCE_DDL))
    space = AttributeSpace(definition)
    space.fit(CaseBatch.of(cases))
    algorithm = SequenceClusteringAlgorithm({"CLUSTER_COUNT": 2})
    algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
    return space, algorithm


class TestSequenceClustering:
    def test_sequence_extraction_ordered_by_time(self):
        definition = compile_model_definition(
            parse_statement(SEQUENCE_DDL))
        space = AttributeSpace(definition)
        mapped = sequence_case(1, ["A", "B", "C"])
        # shuffle row order; SEQUENCE_TIME must restore it
        mapped.tables["CLICKS"] = list(reversed(mapped.tables["CLICKS"]))
        space.fit(CaseBatch.of([mapped]))
        observation = space.encode(mapped)
        assert observation.sequences["CLICKS"] == ["A", "B", "C"]

    def test_groups_separate(self):
        space, algorithm = build_sequence(sequence_cases())
        abc = algorithm.predict(
            space.encode(sequence_case(99, ["A", "B", "C"])))
        xyx = algorithm.predict(
            space.encode(sequence_case(98, ["X", "Y", "X"])))
        assert abc.cluster_id != xyx.cluster_id

    def test_next_state_prediction(self):
        space, algorithm = build_sequence(sequence_cases())
        prediction = algorithm.predict(
            space.encode(sequence_case(99, ["A", "B"])))
        recommendations = prediction.recommendations["CLICKS"]
        assert recommendations[0].value == "C"
        assert recommendations[0].probability > 0.8

    def test_empty_sequence_uses_initial_distribution(self):
        space, algorithm = build_sequence(sequence_cases())
        prediction = algorithm.predict(space.encode(sequence_case(99, [])))
        values = [b.value for b in prediction.recommendations["CLICKS"]]
        assert set(values) == {"A", "B", "C", "X", "Y"}

    def test_transition_rows_are_distributions(self):
        _, algorithm = build_sequence(sequence_cases())
        sums = algorithm.transition.sum(axis=2)
        assert np.allclose(sums, 1.0)
        assert np.allclose(algorithm.initial.sum(axis=1), 1.0)

    def test_requires_sequence_time_table(self):
        ddl = ("CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE) "
               "USING Repro_Sequence_Clustering")
        definition = compile_model_definition(parse_statement(ddl))
        cases = [case(k=1, a="x")]
        space = AttributeSpace(definition)
        space.fit(CaseBatch.of(cases))
        with pytest.raises(TrainError):
            SequenceClusteringAlgorithm().train(
                space, space.encode_many(CaseBatch.of(cases)))

    def test_content_has_chains(self):
        _, algorithm = build_sequence(sequence_cases())
        root = algorithm.content_nodes()
        chains = root.children
        assert len(chains) == 2
        assert all(chain.children for chain in chains)  # per-state nodes
