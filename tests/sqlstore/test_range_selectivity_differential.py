"""Differential harness: ``ColumnStats.range_selectivity`` bisecting the
histogram against the walk over every bucket.

Where the bucket bounds order natively (``values.orders_natively``) and
the bound compares with them as ``sql_compare`` does, the selectivity
bisects the bounds and interpolates only the buckets the bound falls
inside; every other column — and a NaN bound, or one of another class —
walks all buckets with two ``sql_compare`` calls each
(``stats._walked_selectivity``).  The claim: the two give the *same
float*, bit for bit, for every op.  Histograms are drawn as int, float
(with and without NaN), string, date and mixed int/string columns; the
bounds from the column's own class and from the others.  The hypothesis
budget comes from the profile (25 in tier-1, 2,000 under
``--hypothesis-profile=deep``).
"""

import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlstore import stats
from repro.sqlstore.schema import ColumnSchema, TableSchema
from repro.sqlstore.stats import TableStatistics
from repro.sqlstore.types import TEXT

nan, inf = float("nan"), float("inf")
DAY = datetime.date(2024, 2, 29)


def _column(values):
    """The statistics of a one-column table holding ``values``."""
    table = TableStatistics(TableSchema("T", [ColumnSchema("c", TEXT)]))
    table.rebuild([(value,) for value in values])
    return table.columns[0]

KINDS = {
    "int": st.integers(-60, 60),
    "big_int": st.sampled_from([2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 60]),
    "float": st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                       st.sampled_from([-0.0, 0.0, inf, -inf])),
    "float_nan": st.one_of(st.floats(-10, 10, allow_nan=False),
                           st.just(nan)),
    "bool": st.booleans(),
    "str": st.text(alphabet="abAB01", max_size=3),
    "date": st.dates(DAY - datetime.timedelta(90),
                     DAY + datetime.timedelta(90)),
    "mixed": st.one_of(st.integers(-20, 20),
                       st.text(alphabet="ab12", max_size=2)),
}
#: Kinds whose histograms bisect when the bound is of their class.
NATIVE = {"int", "float", "bool", "str", "date"}
OPS = ["<", "<=", ">", ">="]


def walked(column, op, bound, rows):
    return stats._walked_selectivity(column.histogram, op, bound, rows)


@st.composite
def columns(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    values = draw(st.lists(st.one_of(st.none(), KINDS[kind]), min_size=1,
                           max_size=150))
    bounds = draw(st.lists(st.one_of(KINDS[kind], KINDS[kind],
                                     *KINDS.values()),
                           min_size=1, max_size=6))
    return kind, values, bounds


@settings(deadline=None)
@given(columns())
def test_bisected_selectivity_is_the_walks_bit_for_bit(column_draw):
    _, values, bounds = column_draw
    column = _column(values)
    for bound in bounds:
        for op in OPS:
            bisected = column.range_selectivity(op, bound, len(values))
            expected = (walked(column, op, bound, len(values))
                        if column.counter else 0.0)
            assert bisected.hex() == expected.hex(), (op, bound)


@pytest.mark.parametrize("kind, values, bound, bisects", [
    ("int", list(range(100)), 41, True),
    ("int", list(range(100)), 41.5, True),          # numbers meet natively
    ("int", list(range(100)), True, True),
    ("float", [i / 4 for i in range(200)], 7, True),
    ("str", [f"k{i:03}" for i in range(90)], "k050", True),
    ("date", [DAY + datetime.timedelta(i) for i in range(60)],
     DAY + datetime.timedelta(20), True),
    ("float_nan", [i / 4 for i in range(80)] + [nan], 3.0, False),
    ("float", [i / 4 for i in range(80)], nan, False),
    ("big_int", [2 ** 53 + i for i in range(40)], 2 ** 53 + 5, False),
    ("mixed", list(range(40)) + ["a", "b"], 5, False),
    ("str", [f"k{i:03}" for i in range(90)], 5, False),
    ("date", [DAY + datetime.timedelta(i) for i in range(60)],
     datetime.datetime(2024, 3, 5, 12), False),
])
def test_which_columns_bisect(monkeypatch, kind, values, bound, bisects):
    walks = []
    real = stats._walked_selectivity
    monkeypatch.setattr(stats, "_walked_selectivity",
                        lambda *args: walks.append(1) or real(*args))
    column = _column(values)
    assert len(column.histogram) > 8
    for op in OPS:
        bisected = column.range_selectivity(op, bound, len(values))
        assert bisected.hex() == real(column.histogram, op, bound,
                                      len(values)).hex()
    assert (not walks) == bisects
