"""Naive Bayes: posteriors, smoothing, capability limits."""

import pytest

from repro.errors import CapabilityError
from repro.lang.parser import parse_statement
from repro.core.bindings import CaseBatch, MappedCase
from repro.core.columns import compile_model_definition
from repro.algorithms.attributes import AttributeSpace
from repro.algorithms.naive_bayes import NaiveBayesAlgorithm


def case(**scalars):
    mapped = MappedCase()
    mapped.scalars.update({k.upper(): v for k, v in scalars.items()})
    return mapped


DDL = """
CREATE MINING MODEL m (k LONG KEY, Weather TEXT DISCRETE,
    Temp DOUBLE CONTINUOUS, Play TEXT DISCRETE PREDICT)
USING Repro_Naive_Bayes
"""


def build(cases, params=None):
    definition = compile_model_definition(parse_statement(DDL))
    space = AttributeSpace(definition)
    space.fit(CaseBatch.of(cases))
    algorithm = NaiveBayesAlgorithm(params)
    algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
    return space, algorithm


def weather_cases():
    rows = [
        ("sunny", 30.0, "yes"), ("sunny", 31.0, "yes"),
        ("sunny", 29.0, "yes"), ("sunny", 32.0, "yes"),
        ("rainy", 15.0, "no"), ("rainy", 14.0, "no"),
        ("rainy", 16.0, "no"), ("rainy", 13.0, "no"),
        ("sunny", 16.0, "no"), ("rainy", 30.0, "yes"),
    ]
    return [case(k=i, Weather=w, Temp=t, Play=p)
            for i, (w, t, p) in enumerate(rows)]


class TestPosterior:
    def test_strong_evidence(self):
        space, algorithm = build(weather_cases())
        play = space.by_name("Play")
        prediction = algorithm.predict(
            space.encode(case(Weather="sunny", Temp=30.0))).get(play)
        assert prediction.value == "yes"
        assert prediction.probability > 0.8

    def test_opposite_evidence(self):
        space, algorithm = build(weather_cases())
        play = space.by_name("Play")
        prediction = algorithm.predict(
            space.encode(case(Weather="rainy", Temp=14.0))).get(play)
        assert prediction.value == "no"

    def test_no_evidence_returns_prior(self):
        space, algorithm = build(weather_cases())
        play = space.by_name("Play")
        prediction = algorithm.predict(space.encode(case())).get(play)
        # priors are 50/50 in the training data
        assert prediction.probability == pytest.approx(0.5, abs=0.01)

    def test_posterior_sums_to_one(self):
        space, algorithm = build(weather_cases())
        play = space.by_name("Play")
        prediction = algorithm.predict(
            space.encode(case(Weather="sunny"))).get(play)
        assert sum(b.probability for b in prediction.histogram) == \
            pytest.approx(1.0)

    def test_smoothing_avoids_zero_probability(self):
        space, algorithm = build(weather_cases(), {"SMOOTHING": 1.0})
        play = space.by_name("Play")
        # 'sunny'+'no' occurs once; even for contradictory combos no state
        # gets probability exactly 0.
        prediction = algorithm.predict(
            space.encode(case(Weather="sunny", Temp=14.0))).get(play)
        for bucket in prediction.histogram:
            assert bucket.probability > 0.0

    def test_continuous_input_uses_gaussian(self):
        space, algorithm = build(weather_cases())
        play = space.by_name("Play")
        hot = algorithm.predict(space.encode(case(Temp=31.0))).get(play)
        cold = algorithm.predict(space.encode(case(Temp=13.0))).get(play)
        assert hot.value == "yes" and cold.value == "no"


class TestCapability:
    def test_refuses_continuous_targets(self):
        ddl = ("CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE, "
               "y DOUBLE CONTINUOUS PREDICT) USING Repro_Naive_Bayes")
        definition = compile_model_definition(parse_statement(ddl))
        space = AttributeSpace(definition)
        cases = [case(k=1, a="x", y=1.0), case(k=2, a="z", y=2.0)]
        space.fit(CaseBatch.of(cases))
        algorithm = NaiveBayesAlgorithm()
        with pytest.raises(CapabilityError):
            algorithm.train(space, space.encode_many(CaseBatch.of(cases)))

    def test_capability_flags(self):
        assert NaiveBayesAlgorithm.PREDICTS_DISCRETE
        assert not NaiveBayesAlgorithm.PREDICTS_CONTINUOUS


class TestContent:
    def test_priors_and_conditionals_in_graph(self):
        space, algorithm = build(weather_cases())
        root = algorithm.content_nodes()
        target_node = root.children[0]
        assert target_node.caption == "Play"
        assert len(target_node.children) == 2  # yes / no
        assert target_node.distribution  # priors
        assert all(n.distribution for n in target_node.children)
