"""Compiled mining-model column structure (paper section 3.2).

``compile_model_definition`` validates a parsed CREATE MINING MODEL statement
and produces a :class:`ModelDefinition`: a tree of :class:`ModelColumn`
objects carrying the content roles (KEY / ATTRIBUTE / RELATION / QUALIFIER /
TABLE), attribute types (DISCRETE / CONTINUOUS / DISCRETIZED / ORDERED /
CYCLICAL / SEQUENCE_TIME), distribution hints, and prediction flags of
sections 3.2.1-3.2.4.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.errors import SchemaError
from repro.lang import ast_nodes as ast
from repro.sqlstore.types import SqlType, type_from_name


class ContentRole(enum.Enum):
    """Section 3.2.1: what a column *is* within a case."""
    KEY = "KEY"
    ATTRIBUTE = "ATTRIBUTE"
    RELATION = "RELATION"      # RELATED TO <key or attribute>
    QUALIFIER = "QUALIFIER"    # PROBABILITY/SUPPORT/... OF <attribute>
    TABLE = "TABLE"            # nested table


class AttributeType(enum.Enum):
    """Section 3.2.2: how an attribute's values behave."""
    DISCRETE = "DISCRETE"
    CONTINUOUS = "CONTINUOUS"
    DISCRETIZED = "DISCRETIZED"
    ORDERED = "ORDERED"
    CYCLICAL = "CYCLICAL"
    SEQUENCE_TIME = "SEQUENCE_TIME"


QUALIFIER_KINDS = ("PROBABILITY", "VARIANCE", "SUPPORT",
                   "PROBABILITY_VARIANCE", "STDEV", "ORDER")

# Attribute types that behave categorically once training data is bound.
CATEGORICAL_TYPES = (AttributeType.DISCRETE, AttributeType.ORDERED,
                     AttributeType.CYCLICAL, AttributeType.DISCRETIZED)


class ModelColumn:
    """One compiled column of a mining model (scalar or nested table)."""

    def __init__(self, name: str, role: ContentRole,
                 data_type: Optional[SqlType] = None,
                 attribute_type: Optional[AttributeType] = None,
                 predict: bool = False, predict_only: bool = False,
                 related_to: Optional[str] = None,
                 qualifier: Optional[str] = None,
                 qualifier_of: Optional[str] = None,
                 distribution: Optional[str] = None,
                 model_existence_only: bool = False,
                 not_null: bool = False,
                 discretization_method: Optional[str] = None,
                 discretization_buckets: Optional[int] = None,
                 sequence_time: bool = False,
                 nested_columns: Optional[List["ModelColumn"]] = None):
        self.name = name
        self.role = role
        self.data_type = data_type
        self.attribute_type = attribute_type
        self.predict = predict
        self.predict_only = predict_only
        self.related_to = related_to
        self.qualifier = qualifier
        self.qualifier_of = qualifier_of
        self.distribution = distribution
        self.model_existence_only = model_existence_only
        self.not_null = not_null
        self.discretization_method = discretization_method
        self.discretization_buckets = discretization_buckets
        self.sequence_time = sequence_time
        self.nested_columns = nested_columns

    @property
    def is_table(self) -> bool:
        return self.role is ContentRole.TABLE

    @property
    def is_input(self) -> bool:
        """Usable as a source column for prediction (section 3.2.4)."""
        if self.role not in (ContentRole.ATTRIBUTE, ContentRole.TABLE,
                             ContentRole.RELATION):
            return False
        return not self.predict_only

    @property
    def is_output(self) -> bool:
        return self.predict and self.role in (ContentRole.ATTRIBUTE,
                                              ContentRole.TABLE)

    @property
    def is_categorical(self) -> bool:
        return self.attribute_type in CATEGORICAL_TYPES

    def find_nested(self, name: str) -> Optional["ModelColumn"]:
        for column in self.nested_columns or []:
            if column.name.upper() == name.upper():
                return column
        return None

    def key_column(self) -> Optional["ModelColumn"]:
        """The KEY column of a nested TABLE column."""
        for column in self.nested_columns or []:
            if column.role is ContentRole.KEY:
                return column
        return None

    def __repr__(self) -> str:
        return (f"ModelColumn({self.name!r}, {self.role.value}"
                f"{', PREDICT' if self.predict else ''})")


class ModelDefinition:
    """The full compiled schema of one mining model."""

    def __init__(self, name: str, columns: List[ModelColumn],
                 algorithm: str, parameters: Dict[str, object]):
        self.name = name
        self.columns = columns
        self.algorithm = algorithm
        self.parameters = parameters

    def find(self, name: str) -> Optional[ModelColumn]:
        for column in self.columns:
            if column.name.upper() == name.upper():
                return column
        return None

    def case_key(self) -> Optional[ModelColumn]:
        for column in self.columns:
            if column.role is ContentRole.KEY:
                return column
        return None

    def scalar_attributes(self) -> List[ModelColumn]:
        return [c for c in self.columns
                if c.role in (ContentRole.ATTRIBUTE, ContentRole.RELATION)]

    def nested_tables(self) -> List[ModelColumn]:
        return [c for c in self.columns if c.is_table]

    def output_columns(self) -> List[ModelColumn]:
        return [c for c in self.columns if c.is_output]

    def __repr__(self) -> str:
        return (f"ModelDefinition({self.name!r}, {len(self.columns)} columns, "
                f"USING {self.algorithm})")


def compile_model_definition(
        statement: ast.CreateMiningModelStatement) -> ModelDefinition:
    """Validate a parsed CREATE MINING MODEL and compile its column tree."""
    columns = _compile_level(statement.columns, level_name=statement.name,
                             top_level=True)
    return ModelDefinition(
        name=statement.name,
        columns=columns,
        algorithm=statement.algorithm,
        parameters={name.upper(): value
                    for name, value in statement.parameters})


def _compile_level(defs: List[ast.ModelColumnDef], level_name: str,
                   top_level: bool) -> List[ModelColumn]:
    columns: List[ModelColumn] = []
    seen: Dict[str, ast.ModelColumnDef] = {}
    for definition in defs:
        key = definition.name.upper()
        if key in seen:
            raise SchemaError(
                f"duplicate column {definition.name!r} in {level_name!r}")
        seen[key] = definition
        columns.append(_compile_column(definition, level_name, top_level))

    keys = [c for c in columns if c.role is ContentRole.KEY]
    if len(keys) > 1:
        raise SchemaError(
            f"{level_name!r} declares {len(keys)} KEY columns; at most one "
            f"is allowed per level")
    if not top_level and not keys:
        raise SchemaError(
            f"nested table {level_name!r} requires a KEY column "
            f"(paper section 3.1: the key identifies a row of the nested "
            f"table)")

    names = {c.name.upper() for c in columns}
    for column in columns:
        if column.related_to and column.related_to.upper() not in names:
            raise SchemaError(
                f"column {column.name!r}: RELATED TO target "
                f"{column.related_to!r} not found in {level_name!r}")
        if column.qualifier_of:
            target_name = column.qualifier_of.upper()
            if target_name not in names:
                raise SchemaError(
                    f"column {column.name!r}: qualifier target "
                    f"{column.qualifier_of!r} not found in {level_name!r}")
            target = next(c for c in columns
                          if c.name.upper() == target_name)
            if target.role not in (ContentRole.ATTRIBUTE,
                                   ContentRole.RELATION):
                raise SchemaError(
                    f"column {column.name!r}: qualifiers may only modify "
                    f"attribute columns, not {target.role.value}")
    return columns


def _compile_column(definition: ast.ModelColumnDef, level_name: str,
                    top_level: bool) -> ModelColumn:
    if definition.is_table:
        if not top_level:
            raise SchemaError(
                f"nested table {definition.name!r} inside nested table "
                f"{level_name!r}: only one level of nesting is supported")
        nested = _compile_level(definition.nested_columns,
                                level_name=definition.name, top_level=False)
        return ModelColumn(
            name=definition.name, role=ContentRole.TABLE,
            predict=definition.predict, predict_only=definition.predict_only,
            nested_columns=nested)

    data_type = type_from_name(definition.data_type)
    content = (definition.content_type or "").upper()

    if definition.qualifier:
        if definition.predict:
            raise SchemaError(
                f"qualifier column {definition.name!r} cannot be PREDICT")
        return ModelColumn(
            name=definition.name, role=ContentRole.QUALIFIER,
            data_type=data_type, qualifier=definition.qualifier,
            qualifier_of=definition.qualifier_of,
            not_null=definition.not_null)

    if content == "KEY":
        if definition.predict:
            raise SchemaError(
                f"KEY column {definition.name!r} cannot be PREDICT")
        return ModelColumn(name=definition.name, role=ContentRole.KEY,
                           data_type=data_type,
                           sequence_time=definition.sequence_time)

    attribute_type = AttributeType(content) if content else \
        AttributeType.DISCRETE
    if attribute_type in (AttributeType.CONTINUOUS,
                          AttributeType.DISCRETIZED) and \
            data_type.name not in ("LONG", "DOUBLE", "DATE"):
        raise SchemaError(
            f"column {definition.name!r}: {attribute_type.value} requires a "
            f"numeric data type, got {data_type.name}")

    role = ContentRole.RELATION if definition.related_to else \
        ContentRole.ATTRIBUTE
    if role is ContentRole.RELATION and definition.predict:
        raise SchemaError(
            f"RELATION column {definition.name!r} cannot be PREDICT "
            f"(it classifies {definition.related_to!r}, it is not an "
            f"attribute of the case)")

    return ModelColumn(
        name=definition.name, role=role, data_type=data_type,
        attribute_type=attribute_type, predict=definition.predict,
        predict_only=definition.predict_only,
        related_to=definition.related_to,
        distribution=definition.distribution,
        model_existence_only=definition.model_existence_only,
        not_null=definition.not_null,
        discretization_method=definition.discretization_method,
        discretization_buckets=definition.discretization_buckets,
        sequence_time=(definition.sequence_time or
                       definition.content_type == "SEQUENCE_TIME"))
