"""EM and k-means clustering: recovery, posteriors, prediction."""

import numpy as np
import pytest

from repro.lang.parser import parse_statement
from repro.core.bindings import MappedCase
from repro.core.columns import compile_model_definition
from repro.algorithms.attributes import AttributeSpace, CaseMatrix
from repro.algorithms.clustering_em import EMClusteringAlgorithm
from repro.algorithms.clustering_kmeans import KMeansAlgorithm


def case(**scalars):
    mapped = MappedCase()
    mapped.scalars.update({k.upper(): v for k, v in scalars.items()})
    return mapped


DDL = """
CREATE MINING MODEL m (k LONG KEY, Color TEXT DISCRETE,
    X DOUBLE CONTINUOUS, Y DOUBLE CONTINUOUS PREDICT)
USING Repro_Clustering
"""


def two_blob_cases(n=120):
    rng = np.random.RandomState(0)
    cases = []
    for i in range(n):
        if i % 2:
            x = float(rng.normal(0.0, 0.5))
            color, y = "red", 10.0
        else:
            x = float(rng.normal(20.0, 0.5))
            color, y = "blue", 50.0
        cases.append(case(k=i, Color=color, X=x, Y=y))
    return cases


def build(algorithm_cls, params):
    definition = compile_model_definition(parse_statement(DDL))
    cases = two_blob_cases()
    space = AttributeSpace(definition)
    space.fit(cases)
    algorithm = algorithm_cls(params)
    algorithm.train(space, space.encode_many(cases))
    return space, algorithm, cases


@pytest.fixture(params=[EMClusteringAlgorithm, KMeansAlgorithm],
                ids=["em", "kmeans"])
def clustering(request):
    return build(request.param, {"CLUSTER_COUNT": 2, "CLUSTER_SEED": 5})


class TestRecovery:
    def test_two_blobs_separate(self, clustering):
        space, algorithm, cases = clustering
        assignments = {0: set(), 1: set()}
        for i, c in enumerate(cases):
            prediction = algorithm.predict(space.encode(c))
            assignments[i % 2].add(prediction.cluster_id)
        # Each parity class lands in exactly one cluster, and they differ.
        assert len(assignments[0]) == 1 and len(assignments[1]) == 1
        assert assignments[0] != assignments[1]

    def test_cluster_support_accounts_for_all_cases(self, clustering):
        space, algorithm, cases = clustering
        assert float(np.sum(algorithm.cluster_support)) == \
            pytest.approx(len(cases), rel=0.01)

    def test_posterior_is_distribution(self, clustering):
        space, algorithm, cases = clustering
        prediction = algorithm.predict(space.encode(cases[0]))
        assert sum(prediction.cluster_probabilities) == pytest.approx(1.0)
        assert prediction.cluster_id == \
            int(np.argmax(prediction.cluster_probabilities)) + 1

    def test_deterministic_given_seed(self):
        _, a, cases = build(EMClusteringAlgorithm,
                            {"CLUSTER_COUNT": 2, "CLUSTER_SEED": 5})
        _, b, _ = build(EMClusteringAlgorithm,
                        {"CLUSTER_COUNT": 2, "CLUSTER_SEED": 5})
        assert np.allclose(a.weights, b.weights)
        assert np.allclose(a.means, b.means)


class TestAttributePrediction:
    def test_predicts_y_from_cluster(self, clustering):
        space, algorithm, cases = clustering
        y = space.by_name("Y")
        near_zero = algorithm.predict(
            space.encode(case(Color="red", X=0.5))).get(y)
        near_twenty = algorithm.predict(
            space.encode(case(Color="blue", X=19.5))).get(y)
        assert near_zero.value == pytest.approx(10.0, abs=2.0)
        assert near_twenty.value == pytest.approx(50.0, abs=2.0)

    def test_missing_everything_gives_global_mixture(self, clustering):
        space, algorithm, cases = clustering
        y = space.by_name("Y")
        prediction = algorithm.predict(space.encode(case())).get(y)
        assert 10.0 <= prediction.value <= 50.0


class TestEmSpecifics:
    def test_likelihood_is_nondecreasing(self):
        _, algorithm, _ = build(EMClusteringAlgorithm,
                                {"CLUSTER_COUNT": 2, "CLUSTER_SEED": 5})
        trace = algorithm.log_likelihood_trace
        assert len(trace) >= 2
        for previous, current in zip(trace, trace[1:]):
            assert current >= previous - 1e-6

    def test_cluster_count_capped_by_cases(self):
        definition = compile_model_definition(parse_statement(DDL))
        cases = two_blob_cases(4)
        space = AttributeSpace(definition)
        space.fit(cases)
        algorithm = EMClusteringAlgorithm({"CLUSTER_COUNT": 50})
        algorithm.train(space, space.encode_many(cases))
        assert algorithm.cluster_count == 4


class TestKMeansSpecifics:
    def test_distances_reported(self):
        space, algorithm, cases = build(
            KMeansAlgorithm, {"CLUSTER_COUNT": 2, "CLUSTER_SEED": 5})
        prediction = algorithm.predict(space.encode(cases[0]))
        assert len(prediction.cluster_distances) == 2
        own = prediction.cluster_distances[prediction.cluster_id - 1]
        assert own == min(prediction.cluster_distances)


class TestMatrices:
    """Both services select their columns from the shared case matrix: the
    numbers a loop over each observation's values fills in, row-major (a
    column-major array sums in another order and moves the trained state
    in its last bits)."""

    @staticmethod
    def values_of(space, cases):
        cases = cases[:6] + [case(k=900, X=1.5), case(k=901, Color="red")]
        observations = space.encode_many(cases)
        matrix = CaseMatrix.of(observations, len(space.attributes))
        return observations, matrix.values

    def test_em_columns(self):
        space, algorithm, cases = build(
            EMClusteringAlgorithm, {"CLUSTER_COUNT": 2, "CLUSTER_SEED": 5})
        observations, values = self.values_of(space, cases)
        x, codes = algorithm._matrices(values)
        assert x.flags["C_CONTIGUOUS"] and codes.flags["C_CONTIGUOUS"]
        for row, observation in enumerate(observations):
            for position, attribute in enumerate(algorithm._continuous):
                value = observation.values[attribute.index]
                assert (np.isnan(x[row, position]) if value is None
                        else x[row, position] == value)
            for position, attribute in enumerate(algorithm._categorical):
                value = observation.values[attribute.index]
                assert codes[row, position] == (-1 if value is None
                                                else int(value))

    def test_kmeans_embedding(self):
        space, algorithm, cases = build(
            KMeansAlgorithm, {"CLUSTER_COUNT": 2, "CLUSTER_SEED": 5})
        _, values = self.values_of(space, cases)
        values[0, space.by_name("Color").index] = 99.0   # a code not fitted
        embedded = algorithm._embed(values)
        assert embedded.flags["C_CONTIGUOUS"]
        for row in range(len(values)):
            expected = []
            for attribute in space.attributes:
                value = values[row, attribute.index]
                if not attribute.is_categorical:
                    expected.append(value)
                    continue
                width = max(attribute.cardinality, 1)
                if 0 <= value < width:
                    expected.extend(float(code == value)
                                    for code in range(width))
                else:
                    expected.extend([np.nan] * width)
            np.testing.assert_array_equal(embedded[row], expected)


class TestContent:
    def test_cluster_nodes(self, clustering):
        space, algorithm, _ = clustering
        root = algorithm.content_nodes()
        clusters = [n for n in root.children]
        assert len(clusters) == 2
        assert all(n.node_type_name == "Cluster" for n in clusters)
        assert all(n.distribution for n in clusters)
        total_probability = sum(n.probability for n in clusters)
        assert total_probability == pytest.approx(1.0)
