"""Aggregates, directly (COUNT/SUM/AVG/MIN/MAX/STDEV/VAR): each is one
call over a bucket's column of argument values."""

import math

import pytest

from repro.errors import BindError
from repro.sqlstore.functions import make_aggregate


class TestCount:
    def test_count_values_skips_nulls(self):
        assert make_aggregate("COUNT")([1, None, 2, None]) == 2

    def test_count_star_counts_everything(self):
        assert make_aggregate("COUNT", count_rows=True)([1, None, 2]) == 3

    def test_count_distinct(self):
        count = make_aggregate("COUNT", distinct=True)
        assert count(["a", "b", "a", None, "b"]) == 2


class TestNumericAggregates:
    def test_sum_empty_is_null(self):
        assert make_aggregate("SUM")([]) is None

    def test_sum_all_nulls_is_null(self):
        assert make_aggregate("SUM")([None]) is None

    def test_sum_adds_left_to_right(self):
        total = make_aggregate("SUM")([1e16, 1.0, -1e16, None, 1])
        assert total == ((1e16 + 1.0) - 1e16) + 1
        assert type(make_aggregate("SUM")([1, 2])) is int

    def test_avg(self):
        assert make_aggregate("AVG")([1.0, None, 3.0]) == 2.0

    def test_avg_empty_is_null(self):
        assert make_aggregate("AVG")([]) is None

    def test_min_max(self):
        values = [3, None, 1, 2]
        assert make_aggregate("MIN")(values) == 1
        assert make_aggregate("MAX")(values) == 3

    def test_min_max_on_strings(self):
        assert make_aggregate("MIN")(["pear", "apple", "mango"]) == "apple"

    def test_var_matches_sample_formula(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        mean = sum(values) / len(values)
        expected = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert make_aggregate("VAR")(values) == pytest.approx(expected)

    def test_stdev_is_sqrt_of_var(self):
        values = [1.0, 5.0, 9.0]
        assert make_aggregate("STDEV")(values) == \
            pytest.approx(math.sqrt(make_aggregate("VAR")(values)))

    def test_var_needs_two_values(self):
        assert make_aggregate("VAR")([1.0]) is None


class TestFactory:
    def test_factory_names(self):
        for name in ("COUNT", "SUM", "AVG", "MIN", "MAX", "STDEV", "VAR"):
            assert make_aggregate(name) is not None

    def test_factory_case_insensitive(self):
        assert make_aggregate("avg") is make_aggregate("AVG")

    def test_unknown_aggregate(self):
        with pytest.raises(BindError):
            make_aggregate("MEDIAN")
