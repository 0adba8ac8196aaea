"""The MiningAlgorithm base class and prediction result types."""

import pytest

from repro.errors import NotTrainedError, SchemaError
from repro.lang.parser import parse_statement
from repro.core.bindings import CaseBatch, MappedCase
from repro.core.columns import compile_model_definition
from repro.algorithms.attributes import Attribute, AttributeSpace
from repro.algorithms.base import (
    AttributePrediction,
    CasePrediction,
    PredictionBucket,
)
from repro.algorithms.naive_bayes import NaiveBayesAlgorithm
from repro.algorithms.statistics import CategoricalDistribution, GaussianStats


def fitted_space():
    definition = compile_model_definition(parse_statement(
        "CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE PREDICT, "
        "v DOUBLE CONTINUOUS) USING Repro_Naive_Bayes"))
    cases = []
    for i, (a, v) in enumerate([("x", 1.0), ("y", 3.0), ("x", 2.0)]):
        case = MappedCase()
        case.scalars.update({"K": i, "A": a, "V": v})
        cases.append(case)
    space = AttributeSpace(definition)
    space.fit(CaseBatch.of(cases))
    return space, cases


class TestLifecycleGuards:
    def test_require_trained(self):
        algorithm = NaiveBayesAlgorithm()
        with pytest.raises(NotTrainedError):
            algorithm.require_trained()

    def test_reset_clears_trained(self):
        space, cases = fitted_space()
        algorithm = NaiveBayesAlgorithm()
        algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
        assert algorithm.trained
        algorithm.reset()
        assert not algorithm.trained
        with pytest.raises(NotTrainedError):
            algorithm.predict(space.encode(cases[0]))

    def test_parameter_validation(self):
        with pytest.raises(SchemaError):
            NaiveBayesAlgorithm({"NOT_A_PARAM": 1})

    def test_describe_capabilities(self):
        description = NaiveBayesAlgorithm().describe()
        assert description["SERVICE_NAME"] == "Repro_Naive_Bayes"
        assert description["PREDICTS_CONTINUOUS"] is False
        assert description["SUPPORTS_INCREMENTAL"] is True


class TestMarginalPrediction:
    def test_categorical_marginal(self):
        space, cases = fitted_space()
        algorithm = NaiveBayesAlgorithm()
        algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
        a = space.by_name("a")
        prediction = algorithm.marginal_prediction(a)
        assert prediction.value == "x"
        assert prediction.probability == pytest.approx(2 / 3)

    def test_continuous_marginal(self):
        space, cases = fitted_space()
        algorithm = NaiveBayesAlgorithm()
        algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
        v = space.by_name("v")
        prediction = algorithm.marginal_prediction(v)
        assert prediction.value == pytest.approx(2.0)
        assert prediction.variance is not None


class TestResultTypes:
    def attribute(self):
        return Attribute(0, "a", "categorical", True, True,
                         categories=["x", "y"])

    def test_from_categorical_orders_histogram(self):
        distribution = CategoricalDistribution()
        distribution.add(0, 1.0)  # x
        distribution.add(1, 3.0)  # y
        prediction = AttributePrediction.from_categorical(
            self.attribute(), distribution)
        assert prediction.value == "y"
        assert [b.value for b in prediction.histogram] == ["y", "x"]
        assert prediction.support == 3.0

    def test_from_categorical_empty(self):
        prediction = AttributePrediction.from_categorical(
            self.attribute(), CategoricalDistribution())
        assert prediction.value is None
        assert prediction.histogram == []

    def test_from_gaussian(self):
        stats = GaussianStats()
        stats.add(2.0)
        stats.add(4.0)
        attribute = Attribute(0, "v", "continuous", True, True)
        prediction = AttributePrediction.from_gaussian(attribute, stats)
        assert prediction.value == 3.0
        assert prediction.variance == pytest.approx(1.0)
        assert len(prediction.histogram) == 1

    def test_case_prediction_get_set(self):
        attribute = self.attribute()
        case_prediction = CasePrediction()
        entry = AttributePrediction(attribute, "x", 1.0, 1.0, None,
                                    [PredictionBucket("x", 1.0, 1.0)])
        case_prediction.set(entry)
        assert case_prediction.get(attribute) is entry
        assert list(case_prediction) == [entry]
        other = Attribute(9, "z", "categorical", True, True)
        assert case_prediction.get(other) is None
