"""Binding source rowsets to model columns: positional, by-name, pairs."""

import pytest

from repro.errors import BindError, SchemaError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_statement
from repro.core.bindings import map_rowset, pair_binder
from repro.core.columns import compile_model_definition
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import DOUBLE, LONG, TEXT


@pytest.fixture
def definition():
    return compile_model_definition(parse_statement("""
        CREATE MINING MODEL m (
            [Customer ID] LONG KEY,
            [Gender] TEXT DISCRETE,
            [Age] DOUBLE CONTINUOUS PREDICT,
            [Age Prob] DOUBLE PROBABILITY OF [Age],
            [Purchases] TABLE([Product] TEXT KEY,
                              [Quantity] DOUBLE CONTINUOUS)
        ) USING Repro_Decision_Trees
    """))


def nested(rows):
    return Rowset([RowsetColumn("CustID", LONG),
                   RowsetColumn("Product", TEXT),
                   RowsetColumn("Quantity", DOUBLE)], rows)


def map_rowset_with_pairs(definition, rowset, pairs, source_alias):
    return list(pair_binder(definition, rowset, pairs,
                            source_alias)(rowset.rows))


def source_rowset():
    columns = [
        RowsetColumn("Customer ID", LONG),
        RowsetColumn("Gender", TEXT),
        RowsetColumn("Age", DOUBLE),
        RowsetColumn("Age Prob", DOUBLE),
        RowsetColumn("Purchases", nested_columns=[
            RowsetColumn("CustID", LONG), RowsetColumn("Product", TEXT),
            RowsetColumn("Quantity", DOUBLE)]),
    ]
    rows = [
        (1, "Male", 35.0, 0.9, nested([(1, "TV", 1.0), (1, "Beer", 6.0)])),
        (2, "Female", None, None, nested([])),
    ]
    return Rowset(columns, rows)


class TestByNameBinding:
    def test_maps_scalars_tables_and_qualifiers(self, definition):
        cases = map_rowset(definition, source_rowset())
        assert len(cases) == 2
        first = cases[0]
        assert first.scalars["CUSTOMER ID"] == 1
        assert first.scalars["AGE"] == 35.0
        assert first.qualifiers["AGE"]["PROBABILITY"] == 0.9
        assert [r["PRODUCT"] for r in first.tables["PURCHASES"]] == \
            ["TV", "Beer"]

    def test_extra_source_columns_ignored(self, definition):
        rowset = Rowset([RowsetColumn("Gender", TEXT),
                         RowsetColumn("Shoe Size", DOUBLE)],
                        [("Male", 44.0)])
        cases = map_rowset(definition, rowset)
        assert "SHOE SIZE" not in cases[0].scalars

    def test_missing_model_columns_are_absent(self, definition):
        rowset = Rowset([RowsetColumn("Gender", TEXT)], [("Male",)])
        case = map_rowset(definition, rowset)[0]
        assert "AGE" not in case.scalars

    def test_coercion_applies_model_types(self, definition):
        rowset = Rowset([RowsetColumn("Age", TEXT)], [("35",)])
        case = map_rowset(definition, rowset)[0]
        assert case.scalars["AGE"] == 35.0


class TestPositionalBinding:
    def binding(self):
        return [
            ast.BindingColumn("Customer ID"),
            ast.BindingColumn("Gender"),
            ast.BindingColumn("Age"),
            ast.BindingSkip(),
            ast.BindingTable("Purchases", [
                ast.BindingColumn("Product"),
                ast.BindingColumn("Quantity")]),
        ]

    def test_positional_with_skip(self, definition):
        cases = map_rowset(definition, source_rowset(), self.binding())
        first = cases[0]
        assert first.scalars["GENDER"] == "Male"
        assert "AGE PROB" not in first.qualifiers.get("AGE", {})
        assert len(first.tables["PURCHASES"]) == 2

    def test_unknown_binding_name(self, definition):
        bindings = [ast.BindingColumn("Ghost")]
        with pytest.raises(BindError):
            map_rowset(definition, source_rowset(), bindings)

    def test_table_bound_as_scalar_rejected(self, definition):
        bindings = [ast.BindingColumn("Purchases")]
        with pytest.raises(SchemaError):
            map_rowset(definition, source_rowset(), bindings)

    def test_scalar_bound_as_table_rejected(self, definition):
        bindings = [ast.BindingTable("Gender", [ast.BindingColumn("x")])]
        with pytest.raises(BindError):
            map_rowset(definition, source_rowset(), bindings)

    def test_too_many_bindings(self, definition):
        bindings = [ast.BindingColumn("Gender")] * 9
        with pytest.raises(SchemaError):
            map_rowset(definition, source_rowset(), bindings)

    def test_nested_binding_skips_relate_column(self, definition):
        # The SHAPE child keeps CustID; bindings name only Product/Quantity.
        cases = map_rowset(definition, source_rowset(), self.binding())
        row = cases[0].tables["PURCHASES"][0]
        assert row["PRODUCT"] == "TV"
        assert row["QUANTITY"] == 1.0
        assert "CUSTID" not in row

    def test_weight_defaults_to_one(self, definition):
        cases = map_rowset(definition, source_rowset(), self.binding())
        assert cases[0].weight() == 1.0


class TestSupportQualifier:
    def test_support_becomes_case_weight(self):
        definition = compile_model_definition(parse_statement(
            "CREATE MINING MODEL m (k LONG KEY, g TEXT DISCRETE, "
            "w DOUBLE SUPPORT OF g) USING Repro_Decision_Trees"))
        rowset = Rowset([RowsetColumn("k", LONG), RowsetColumn("g", TEXT),
                         RowsetColumn("w", DOUBLE)],
                        [(1, "a", 3.0), (2, "b", None)])
        cases = map_rowset(definition, rowset)
        assert cases[0].weight() == 3.0
        assert cases[1].weight() == 1.0


class TestPairBinding:
    def test_on_clause_paths(self, definition):
        pairs = [
            (("Gender",), ("t", "Gender")),
            (("Purchases", "Product"), ("Purchases", "Product")),
            (("Purchases", "Quantity"), ("Purchases", "Quantity")),
        ]
        cases = map_rowset_with_pairs(definition, source_rowset(), pairs,
                                      source_alias="t")
        first = cases[0]
        assert first.scalars["GENDER"] == "Male"
        assert len(first.tables["PURCHASES"]) == 2
        assert "AGE" not in first.scalars  # not mapped by the ON clause

    def test_unknown_model_column(self, definition):
        with pytest.raises(BindError):
            map_rowset_with_pairs(definition, source_rowset(),
                                  [(("Ghost",), ("Gender",))], None)

    def test_unknown_source_column(self, definition):
        with pytest.raises(BindError):
            map_rowset_with_pairs(definition, source_rowset(),
                                  [(("Gender",), ("Ghost",))], None)

    def test_nested_model_path_needs_nested_source(self, definition):
        with pytest.raises(BindError):
            map_rowset_with_pairs(
                definition, source_rowset(),
                [(("Purchases", "Product"), ("Gender",))], None)
