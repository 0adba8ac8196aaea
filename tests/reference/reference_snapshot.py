"""The tree-building snapshot encoder ``core.persistence.dump_provider`` was
until it became an assembler of cached fragments: build the whole document
as nested lists and dicts, one ``encode_scalar`` per cell, one ``json.dumps``
over all of it.  Kept verbatim as the oracle of
``tests/differential/test_snapshot_fragments.py`` — the assembler's output
must be string-equal to this on every provider state.
"""

import json
from typing import Any, Dict, List

from repro.core.persistence import FORMAT_VERSION
from repro.lang.formatter import format_statement
from repro.pmml.writer import definition_to_ddl, to_pmml
from repro.sqlstore.pages import encode_scalar


def _encode_case(case) -> Dict[str, Any]:
    return {
        "scalars": {name: encode_scalar(value)
                    for name, value in case.scalars.items()},
        "tables": {name: [{key: encode_scalar(v) for key, v in row.items()}
                          for row in rows]
                   for name, rows in case.tables.items()},
        "qualifiers": {name: dict(kinds)
                       for name, kinds in case.qualifiers.items()},
    }


def reference_dump_provider(provider, last_seq: int = 0) -> str:
    tables: List[dict] = []
    for key in sorted(provider.database.tables):
        table = provider.database.tables[key]
        tables.append({
            "name": table.schema.name,
            "columns": [
                {"name": column.name, "type": column.type.name,
                 "nullable": column.nullable,
                 "primary_key": column.primary_key}
                for column in table.schema.columns],
            "rows": [[encode_scalar(v) for v in row]
                     for row in table.rows],
        })
        if table.indexes:
            tables[-1]["indexes"] = [
                {"name": index.name, "column": index.column_name}
                for index in table.indexes.values()]
        if table.stats is not None:
            tables[-1]["statistics"] = True
    views = {key: format_statement(select)
             for key, select in sorted(provider.database.views.items())}
    models = []
    for model in provider.list_models():
        if model.is_trained:
            models.append({
                "trained": True,
                "pmml": to_pmml(model),
                "insert_count": model.insert_count,
                "cases": [_encode_case(case)
                          for case in model.training_cases],
            })
        else:
            models.append({"trained": False,
                           "ddl": definition_to_ddl(model.definition)})
    return json.dumps({
        "format": FORMAT_VERSION,
        "kind": "repro-provider-snapshot",
        "last_seq": last_seq,
        "data_version": provider.database.data_version,
        "tables": tables,
        "views": views,
        "models": models,
    })
