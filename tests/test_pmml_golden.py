"""Byte goldens of the PMML writer and of a provider snapshot holding a model.

``golden/pmml/<service>.xml`` pins ``to_pmml`` of one trained model per
built-in service (the scenarios of ``tests/test_pmml.py``), and
``golden/pmml/snapshot.json`` pins ``dump_provider`` of a provider holding
one trained naive Bayes model.  The embedded state blob is the import and
recovery contract: moving a service's serialisation code must leave these
files byte-identical.  Regenerate (only when the format is *meant* to
change) with ``PYTHONPATH=src:. python tests/test_pmml_golden.py``.
"""

import os

import pytest

from repro.core.persistence import dump_provider
from repro.pmml import to_pmml

from tests.test_pmml import MODEL_DDLS, trained_connection

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "pmml")
SNAPSHOT_SERVICE = "Repro_Naive_Bayes"


def _path(name):
    return os.path.join(GOLDEN_DIR, name)


def _documents():
    documents = {f"{service}.xml": to_pmml(trained_connection(service)
                                           .model("M"))
                 for service in sorted(MODEL_DDLS)}
    documents["snapshot.json"] = dump_provider(
        trained_connection(SNAPSHOT_SERVICE).provider)
    return documents


@pytest.mark.parametrize("service", sorted(MODEL_DDLS))
def test_pmml_document_pinned(service):
    with open(_path(f"{service}.xml"), encoding="utf-8") as handle:
        golden = handle.read()
    assert to_pmml(trained_connection(service).model("M")) == golden


def test_snapshot_with_model_pinned():
    with open(_path("snapshot.json"), encoding="utf-8") as handle:
        golden = handle.read()
    assert dump_provider(trained_connection(SNAPSHOT_SERVICE).provider) \
        == golden


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, text in _documents().items():
        with open(_path(name), "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        print(f"wrote {_path(name)} ({len(text)} bytes)")
