"""Weighted distribution statistics."""

import math
import random

import numpy as np
import pytest

from repro.algorithms.statistics import (
    CategoricalDistribution,
    GaussianStats,
    entropy,
    log_sum_exp,
)


class TestCategoricalDistribution:
    def test_probability_and_mode(self):
        distribution = CategoricalDistribution()
        for value, weight in (("a", 3.0), ("b", 1.0)):
            distribution.add(value, weight)
        assert distribution.probability("a") == 0.75
        assert distribution.most_likely() == ("a", 0.75)
        assert distribution.support("b") == 1.0

    def test_zero_and_negative_weights_ignored(self):
        distribution = CategoricalDistribution()
        distribution.add("a", 0.0)
        distribution.add("a", -1.0)
        assert distribution.total == 0.0
        assert distribution.most_likely() == (None, 0.0)

    def test_laplace_smoothing(self):
        distribution = CategoricalDistribution()
        distribution.add("a", 4.0)
        assert distribution.probability("b", smoothing=1.0,
                                        cardinality=2) == \
            pytest.approx(1.0 / 6.0)

    def test_entropy_bounds(self):
        distribution = CategoricalDistribution()
        distribution.add("a", 1.0)
        assert distribution.entropy() == 0.0
        distribution.add("b", 1.0)
        assert distribution.entropy() == pytest.approx(1.0)

    def test_gini(self):
        distribution = CategoricalDistribution()
        distribution.add("a", 1.0)
        distribution.add("b", 1.0)
        assert distribution.gini() == pytest.approx(0.5)

    def test_sorted_items_deterministic_ties(self):
        distribution = CategoricalDistribution()
        distribution.add("b", 1.0)
        distribution.add("a", 1.0)
        assert [v for v, _ in distribution.sorted_items()] == ["a", "b"]

    def test_counts_keep_first_encounter_order(self):
        """Dict order drives content-rowset order, so counting keeps it."""
        distribution = CategoricalDistribution()
        for value in ("b", "a", "c", "a", "d", "b"):
            distribution.add(value)
        assert list(distribution.counts) == ["b", "a", "c", "d"]

    def test_add_codes_equals_adding_one_by_one(self):
        rng = random.Random(11)
        states = ["w", "x", "y", "z"]
        codes = [rng.randrange(len(states)) for _ in range(200)]
        one_by_one = CategoricalDistribution()
        for code in codes:
            one_by_one.add(states[code])
        batched = CategoricalDistribution()
        batched.add_codes(np.array(codes, dtype=np.intp),
                          np.ones(len(codes)), states.__getitem__)
        # Unit weights are exact float sums: equality, not approx.
        assert batched.counts == one_by_one.counts
        assert list(batched.counts) == list(one_by_one.counts)
        assert batched.total == one_by_one.total


class TestGaussianStats:
    def test_mean_and_variance(self):
        stats = GaussianStats()
        for value in (2.0, 4.0, 6.0):
            stats.add(value)
        assert stats.mean == pytest.approx(4.0)
        assert stats.variance == pytest.approx(8.0 / 3.0)
        assert stats.minimum == 2.0 and stats.maximum == 6.0

    def test_weighted_equals_replicated(self):
        weighted = GaussianStats()
        weighted.add(1.0, 3.0)
        weighted.add(5.0, 1.0)
        replicated = GaussianStats()
        for value in (1.0, 1.0, 1.0, 5.0):
            replicated.add(value)
        assert weighted.mean == pytest.approx(replicated.mean)
        assert weighted.variance == pytest.approx(replicated.variance)

    def test_pdf_peaks_at_mean(self):
        stats = GaussianStats()
        for value in (0.0, 2.0, 4.0):
            stats.add(value)
        assert stats.pdf(2.0) > stats.pdf(5.0)

    def test_pdf_with_degenerate_variance(self):
        stats = GaussianStats()
        stats.add(1.0)
        stats.add(1.0)
        assert math.isfinite(stats.pdf(1.0))

    def test_empty_variance_is_zero(self):
        assert GaussianStats().variance == 0.0

    def test_running_moments_match_two_pass(self):
        rng = random.Random(5)
        values = [rng.gauss(10.0, 3.0) for _ in range(500)]
        stats = GaussianStats()
        for value in values:
            stats.add(value)
        mean = math.fsum(values) / len(values)
        variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
        assert stats.sum_weight == len(values)
        assert stats.mean == pytest.approx(mean, rel=1e-12)
        assert stats.variance == pytest.approx(variance, rel=1e-9)
        assert (stats.minimum, stats.maximum) == (min(values), max(values))

    def test_add_many_equals_adding_one_by_one(self):
        rng = random.Random(7)
        values = [rng.uniform(-5.0, 5.0) for _ in range(100)]
        weights = [rng.choice((0.0, 0.5, 1.0, 2.0)) for _ in values]
        one_by_one = GaussianStats()
        for value, weight in zip(values, weights):
            one_by_one.add(value, weight)
        batched = GaussianStats()
        batched.add_many(values, weights)
        assert (batched.sum_weight, batched.mean, batched.variance,
                batched.minimum, batched.maximum) == \
            (one_by_one.sum_weight, one_by_one.mean, one_by_one.variance,
             one_by_one.minimum, one_by_one.maximum)


class TestHelpers:
    def test_entropy_ignores_zero(self):
        assert entropy([0.5, 0.5, 0.0]) == pytest.approx(1.0)

    def test_log_sum_exp_stability(self):
        assert log_sum_exp([-1000.0, -1000.0]) == \
            pytest.approx(-1000.0 + math.log(2))
        assert log_sum_exp([]) == float("-inf")
