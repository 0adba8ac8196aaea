"""Render trained models as PMML-inspired XML documents."""

from __future__ import annotations

import json
from typing import List
from xml.sax.saxutils import escape as _escape


def escape(text: str) -> str:
    """XML-escape including double quotes (attribute-safe)."""
    return _escape(text, {'"': "&quot;"})

from repro.core.columns import (
    ContentRole,
    ModelColumn,
    ModelDefinition,
)
from repro.lang import ast_nodes as ast
from repro.lang.formatter import format_statement
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import TEXT

PMML_VERSION = "1.0-repro"


def definition_to_ddl(definition: ModelDefinition) -> str:
    """Reconstruct the CREATE MINING MODEL statement for a definition."""
    statement = ast.CreateMiningModelStatement(
        name=definition.name,
        columns=[_column_to_ast(c) for c in definition.columns],
        algorithm=definition.algorithm,
        parameters=list(definition.parameters.items()))
    return format_statement(statement)


def _column_to_ast(column: ModelColumn) -> ast.ModelColumnDef:
    if column.is_table:
        return ast.ModelColumnDef(
            name=column.name, predict=column.predict,
            predict_only=column.predict_only,
            nested_columns=[_column_to_ast(c)
                            for c in column.nested_columns])
    if column.role is ContentRole.KEY:
        return ast.ModelColumnDef(name=column.name,
                                  data_type=column.data_type.name,
                                  content_type="KEY",
                                  sequence_time=column.sequence_time)
    if column.role is ContentRole.QUALIFIER:
        return ast.ModelColumnDef(name=column.name,
                                  data_type=column.data_type.name,
                                  qualifier=column.qualifier,
                                  qualifier_of=column.qualifier_of,
                                  not_null=column.not_null)
    return ast.ModelColumnDef(
        name=column.name, data_type=column.data_type.name,
        content_type=(column.attribute_type.value
                      if column.attribute_type else None),
        predict=column.predict, predict_only=column.predict_only,
        related_to=column.related_to, distribution=column.distribution,
        model_existence_only=column.model_existence_only,
        not_null=column.not_null,
        discretization_method=column.discretization_method,
        discretization_buckets=column.discretization_buckets,
        sequence_time=column.sequence_time)


def _data_dictionary(definition: ModelDefinition) -> List[str]:
    lines = ["  <DataDictionary>"]
    for column in definition.columns:
        lines.extend(_data_field(column, indent="    "))
    lines.append("  </DataDictionary>")
    return lines


def _data_field(column: ModelColumn, indent: str) -> List[str]:
    if column.is_table:
        lines = [f'{indent}<TableField name="{escape(column.name)}">']
        for nested in column.nested_columns:
            lines.extend(_data_field(nested, indent + "  "))
        lines.append(f"{indent}</TableField>")
        return lines
    optype = "continuous" if column.attribute_type and \
        column.attribute_type.value == "CONTINUOUS" else "categorical"
    data_type = column.data_type.name.lower() if column.data_type else ""
    return [f'{indent}<DataField name="{escape(column.name)}" '
            f'optype="{optype}" dataType="{data_type}" '
            f'role="{column.role.value.lower()}"/>']


def _mining_schema(definition: ModelDefinition) -> List[str]:
    lines = ["  <MiningSchema>"]
    for column in definition.columns:
        usage = "predicted" if column.is_output else (
            "active" if column.is_input else "supplementary")
        lines.append(f'    <MiningField name="{escape(column.name)}" '
                     f'usageType="{usage}"/>')
    lines.append("  </MiningSchema>")
    return lines


def to_pmml(model) -> str:
    """Serialize a trained model to a PMML-inspired XML string."""
    model.require_trained()
    content = model.content_root()
    state = {
        "ddl": definition_to_ddl(model.definition),
        "space": model.space.to_json(),
        "algorithm": {"service": model.algorithm.SERVICE_NAME,
                      **model.algorithm.state()},
        "insert_count": model.insert_count,
        "case_count": model.case_count,
    }
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<PMML version="{PMML_VERSION}">',
        f'  <Header description="OLE DB DM reproduction model" '
        f'modelName="{escape(model.name)}" '
        f'algorithm="{escape(model.algorithm.SERVICE_NAME)}"/>',
    ]
    lines.extend(_data_dictionary(model.definition))
    lines.extend(_mining_schema(model.definition))
    lines.append(f'  <ModelContent nodes="{sum(1 for _ in content.walk())}">')
    for node in content.walk():
        for line in node.to_xml().splitlines():
            lines.append("    " + line)
    lines.append("  </ModelContent>")
    lines.append('  <Extension name="repro-state">')
    lines.append("    " + escape(json.dumps(state)))
    lines.append("  </Extension>")
    lines.append("</PMML>")
    return "\n".join(lines)


def write_pmml_file(model, path: str) -> None:
    """EXPORT MODEL: atomic replace, so a crash mid-export never leaves a
    truncated document over a previously good one."""
    from repro.store.atomic import atomic_write_text
    atomic_write_text(path, to_pmml(model), fault_prefix="export")


def pmml_rowset(model) -> Rowset:
    """``SELECT * FROM <model>.PMML``: one row with the document."""
    columns = [RowsetColumn("MODEL_NAME", TEXT),
               RowsetColumn("PMML", TEXT)]
    return Rowset(columns, [(model.name, to_pmml(model))])
