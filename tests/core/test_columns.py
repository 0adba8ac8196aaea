"""Model-definition compilation and validation (paper section 3.2)."""

import pytest

from repro.errors import SchemaError
from repro.lang.parser import parse_statement
from repro.core.columns import (
    AttributeType,
    ContentRole,
    compile_model_definition,
)


def compile_ddl(text):
    return compile_model_definition(parse_statement(text))


def test_paper_model_compiles():
    definition = compile_ddl("""
        CREATE MINING MODEL [Age Prediction] (
            [Customer ID] LONG KEY,
            [Gender] TEXT DISCRETE,
            [Age] DOUBLE DISCRETIZED PREDICT,
            [Product Purchases] TABLE(
                [Product Name] TEXT KEY,
                [Quantity] DOUBLE NORMAL CONTINUOUS,
                [Product Type] TEXT DISCRETE RELATED TO [Product Name]
            )) USING [Decision_Trees_101]
    """)
    assert definition.case_key().name == "Customer ID"
    assert definition.find("Gender").role is ContentRole.ATTRIBUTE
    assert definition.find("Age").attribute_type is \
        AttributeType.DISCRETIZED
    assert definition.output_columns() == [definition.find("Age")]
    table = definition.find("Product Purchases")
    assert table.is_table
    assert table.key_column().name == "Product Name"
    assert table.find_nested("Product Type").role is ContentRole.RELATION


def test_roles_and_flags():
    definition = compile_ddl(
        "CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE, "
        "b DOUBLE CONTINUOUS PREDICT_ONLY, "
        "p DOUBLE PROBABILITY OF a) USING z")
    a, b, p = (definition.find(n) for n in "abp")
    assert a.is_input and not a.is_output
    assert b.is_output and not b.is_input  # PREDICT_ONLY
    assert p.role is ContentRole.QUALIFIER


def test_default_attribute_type_is_discrete():
    definition = compile_ddl(
        "CREATE MINING MODEL m (k LONG KEY, g TEXT) USING z")
    assert definition.find("g").attribute_type is AttributeType.DISCRETE


def test_parameters_are_upper_cased():
    definition = compile_ddl(
        "CREATE MINING MODEL m (k LONG KEY, g TEXT DISCRETE) "
        "USING z(minimum_support = 3)")
    assert definition.parameters == {"MINIMUM_SUPPORT": 3}


class TestValidation:
    def test_duplicate_column(self):
        with pytest.raises(SchemaError):
            compile_ddl("CREATE MINING MODEL m (k LONG KEY, a TEXT, "
                        "A TEXT) USING z")

    def test_two_keys_per_level(self):
        with pytest.raises(SchemaError):
            compile_ddl("CREATE MINING MODEL m (k LONG KEY, "
                        "j LONG KEY) USING z")

    def test_nested_table_requires_key(self):
        with pytest.raises(SchemaError):
            compile_ddl("CREATE MINING MODEL m (k LONG KEY, "
                        "n TABLE(x TEXT DISCRETE)) USING z")

    def test_related_to_must_resolve(self):
        with pytest.raises(SchemaError):
            compile_ddl("CREATE MINING MODEL m (k LONG KEY, "
                        "a TEXT RELATED TO ghost) USING z")

    def test_qualifier_target_must_resolve(self):
        with pytest.raises(SchemaError):
            compile_ddl("CREATE MINING MODEL m (k LONG KEY, "
                        "p DOUBLE PROBABILITY OF ghost) USING z")

    def test_qualifier_cannot_modify_key(self):
        with pytest.raises(SchemaError):
            compile_ddl("CREATE MINING MODEL m (k LONG KEY, "
                        "p DOUBLE PROBABILITY OF k) USING z")

    def test_key_cannot_be_predict(self):
        with pytest.raises(SchemaError):
            compile_ddl("CREATE MINING MODEL m (k LONG KEY PREDICT, "
                        "a TEXT) USING z")

    def test_relation_cannot_be_predict(self):
        with pytest.raises(SchemaError):
            compile_ddl("CREATE MINING MODEL m (k LONG KEY, a TEXT, "
                        "b TEXT RELATED TO a PREDICT) USING z")

    def test_continuous_requires_numeric_type(self):
        with pytest.raises(SchemaError):
            compile_ddl("CREATE MINING MODEL m (k LONG KEY, "
                        "a TEXT CONTINUOUS) USING z")

    def test_discretized_requires_numeric_type(self):
        with pytest.raises(SchemaError):
            compile_ddl("CREATE MINING MODEL m (k LONG KEY, "
                        "a TEXT DISCRETIZED) USING z")

    def test_double_nesting_rejected(self):
        with pytest.raises(SchemaError):
            compile_ddl("CREATE MINING MODEL m (k LONG KEY, "
                        "n TABLE(nk TEXT KEY, "
                        "inner_t TABLE(ik TEXT KEY))) USING z")
