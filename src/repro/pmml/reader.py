"""Reconstruct working models from PMML documents written by the writer."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET

from repro.errors import Error
from repro.lang.parser import parse_statement
from repro.lang import ast_nodes as ast
from repro.core.columns import compile_model_definition
from repro.core.model import MiningModel
from repro.algorithms.attributes import AttributeSpace


def read_pmml(text: str) -> MiningModel:
    """Parse a PMML document and return a trained :class:`MiningModel`.

    The model predicts and browses exactly as the exported one did.  Its
    accumulated caseset is *not* part of the document (PMML persists the
    abstraction, not the data — paper footnote 2), so a subsequent INSERT
    INTO starts a fresh accumulation.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise Error(f"invalid PMML document: {exc}") from exc
    if root.tag != "PMML":
        raise Error(f"expected a <PMML> document, got <{root.tag}>")
    extension = None
    for element in root.iter("Extension"):
        if element.get("name") == "repro-state":
            extension = element
            break
    if extension is None or not (extension.text or "").strip():
        raise Error(
            "this PMML document has no repro-state extension; only "
            "documents written by this provider can be imported")
    state = json.loads(extension.text.strip())

    statement = parse_statement(state["ddl"])
    if not isinstance(statement, ast.CreateMiningModelStatement):
        raise Error("embedded DDL is not a CREATE MINING MODEL statement")
    definition = compile_model_definition(statement)
    model = MiningModel(definition)
    space = AttributeSpace.from_json(definition, state["space"])
    model.algorithm.restore(space, {
        key: value for key, value in state["algorithm"].items()
        if key != "service"})
    model.space = space
    model.insert_count = state.get("insert_count", 0)
    return model


def read_pmml_file(path: str) -> MiningModel:
    with open(path, encoding="utf-8") as handle:
        return read_pmml(handle.read())
