"""SQL value semantics: three-valued logic, comparison, sort/group keys."""

import datetime

from repro.sqlstore.values import (
    group_key,
    is_null,
    sort_key,
    sql_compare,
    sql_equal,
)

from tests.reference.reference_evaluator import (
    truth_and,
    truth_not,
    truth_or,
)


class TestEquality:
    def test_equal_numbers_across_types(self):
        assert sql_equal(1, 1.0) is True

    def test_unequal(self):
        assert sql_equal("a", "b") is False

    def test_null_propagates(self):
        assert sql_equal(None, 1) is None
        assert sql_equal(1, None) is None
        assert sql_equal(None, None) is None

    def test_strings_case_sensitive(self):
        assert sql_equal("Male", "male") is False


class TestComparison:
    def test_orderings(self):
        assert sql_compare(1, 2) == -1
        assert sql_compare(2, 1) == 1
        assert sql_compare(2, 2) == 0

    def test_null(self):
        assert sql_compare(None, 1) is None

    def test_mixed_numeric(self):
        assert sql_compare(1, 1.5) == -1

    def test_dates(self):
        assert sql_compare(datetime.date(2001, 1, 1),
                           datetime.date(2001, 6, 1)) == -1

    def test_mixed_types_compare_as_strings(self):
        assert sql_compare("10", 9) in (-1, 1)  # deterministic, not a crash


class TestTruthTables:
    def test_and(self):
        assert truth_and(True, True) is True
        assert truth_and(True, False) is False
        assert truth_and(False, None) is False
        assert truth_and(True, None) is None
        assert truth_and(None, None) is None

    def test_or(self):
        assert truth_or(False, False) is False
        assert truth_or(False, True) is True
        assert truth_or(True, None) is True
        assert truth_or(False, None) is None

    def test_not(self):
        assert truth_not(True) is False
        assert truth_not(False) is True
        assert truth_not(None) is None


class TestKeys:
    def test_nulls_sort_first(self):
        values = [3, None, 1]
        assert sorted(values, key=sort_key) == [None, 1, 3]

    def test_heterogeneous_sort_is_total(self):
        values = ["b", 2, None, "a", 1]
        ordered = sorted(values, key=sort_key)
        assert ordered[0] is None
        assert ordered[1:3] == [1, 2]

    def test_group_key_merges_int_float(self):
        assert group_key(1) == group_key(1.0)

    def test_group_key_separates_bool_from_int(self):
        assert group_key(True) != group_key(1)

    def test_group_key_null(self):
        assert group_key(None) == group_key(None)

    def test_is_null(self):
        assert is_null(None)
        assert not is_null(0)
