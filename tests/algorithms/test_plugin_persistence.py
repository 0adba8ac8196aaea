"""A plugged-in mining service persists like a built-in.

A service persists by implementing ``state()`` / ``load_state()``; a
subclass of a built-in inherits the pair.  Both kinds go through an
explicit checkpoint, more statements, an abandoned process (no close),
recovery from snapshot plus journal replay, and EXPORT / IMPORT, with
predictions and the provider snapshot equal at every step.  A service
without the pair still trains and predicts, but a durable provider refuses
to create a model with it, and EXPORT or ``save_provider`` of one is a
``CapabilityError``.
"""

import pytest

import repro
from repro.algorithms.registry import register_algorithm, unregister_algorithm
from repro.algorithms.base import (
    AttributePrediction,
    CasePrediction,
    MiningAlgorithm,
)
from repro.algorithms.naive_bayes import NaiveBayesAlgorithm
from repro.algorithms.statistics import CategoricalDistribution
from repro.core.content import NODE_MODEL, ContentNode
from repro.core.persistence import dump_provider, save_provider
from repro.errors import CapabilityError, SchemaError


class SubclassedBayes(NaiveBayesAlgorithm):
    """A built-in under another name: it inherits state / load_state."""

    SERVICE_NAME = "ThirdParty_NB"
    ALIASES = ()


class Forgetful(MiningAlgorithm):
    """Written from scratch: predicts each output's training distribution,
    but implements no persistence."""

    SERVICE_NAME = "ThirdParty_Forgetful"
    PREDICTS_CONTINUOUS = False

    def _train(self, space, observations):
        self.votes = {}
        for target in space.outputs():
            votes = self.votes[target.index] = CategoricalDistribution()
            for observation in observations:
                value = observation.values[target.index]
                if value is not None:
                    votes.add(value, observation.weight)

    def predict(self, observation):
        result = CasePrediction()
        for index, votes in self.votes.items():
            result.set(AttributePrediction.from_categorical(
                self.space.attributes[index], votes))
        return result

    def content_nodes(self):
        return ContentNode("0", NODE_MODEL, self.space.definition.name,
                           support=self.space.total_weight, probability=1.0)


class MajorityVote(Forgetful):
    """The same service, persisting its distributions itself."""

    SERVICE_NAME = "ThirdParty_Majority"

    def state(self):
        return {"votes": [[self.space.attributes[index].name, votes.to_json()]
                          for index, votes in sorted(self.votes.items())]}

    def load_state(self, space, state):
        self.votes = {space.by_name(name).index:
                      CategoricalDistribution.from_json(votes)
                      for name, votes in state["votes"]}


class FailingState(MajorityVote):
    """Persists in principle, but its state cannot be taken."""

    SERVICE_NAME = "ThirdParty_Failing"

    def state(self):
        raise RuntimeError("state is unavailable")


PLUGINS = (SubclassedBayes, MajorityVote, Forgetful, FailingState)

SETUP = [
    "CREATE TABLE C (Id LONG, G TEXT, Age DOUBLE, Buys TEXT)",
    "INSERT INTO C VALUES " + ", ".join(
        f"({i}, '{'m' if i % 2 else 'f'}', {20.0 + (i % 4) * 10}, "
        f"'{'yes' if i % 3 else 'no'}')" for i in range(1, 41)),
]

DDL = ("CREATE MINING MODEL [{name}] (Id LONG KEY, G TEXT DISCRETE, "
       "Age DOUBLE DISCRETIZED(EQUAL_COUNT, 3), Buys TEXT DISCRETE PREDICT) "
       "USING [{service}]")

TRAIN = "INSERT INTO [{name}] SELECT Id, G, Age, Buys FROM C{where}"

PREDICT = ("SELECT t.Id, Predict(Buys), PredictProbability(Buys) "
           "FROM [{name}] NATURAL PREDICTION JOIN "
           "(SELECT Id, G, Age FROM C) AS t")


@pytest.fixture(autouse=True)
def plugins():
    for cls in PLUGINS:
        register_algorithm(cls)
    yield
    for cls in PLUGINS:
        unregister_algorithm(cls)


def _predictions(conn, *names):
    return [conn.execute(PREDICT.format(name=name)).rows for name in names]


@pytest.mark.parametrize("service", [SubclassedBayes, MajorityVote],
                         ids=lambda cls: cls.SERVICE_NAME)
def test_checkpoint_recovery_export_import(tmp_path, service):
    store = str(tmp_path / "store")
    conn = repro.connect(durable_path=store, durable_checkpoint_interval=0)
    for statement in SETUP:
        conn.execute(statement)
    name = service.SERVICE_NAME
    conn.execute(DDL.format(name="M", service=name))
    conn.execute(TRAIN.format(name="M", where=" WHERE Id <= 30"))
    before = _predictions(conn, "M")
    snapshot = dump_provider(conn.provider)
    conn.provider.checkpoint()
    assert dump_provider(conn.provider) == snapshot

    # Past the checkpoint: a refresh of M and a second model, in the
    # journal only.
    conn.execute("DELETE FROM [M]")
    conn.execute(TRAIN.format(name="M", where=""))
    conn.execute(DDL.format(name="M2", service=name))
    conn.execute(TRAIN.format(name="M2", where=" WHERE Id > 10"))
    live = _predictions(conn, "M", "M2")
    assert live[0] != before[0]
    snapshot = dump_provider(conn.provider)
    del conn  # abandoned: no close, no final checkpoint

    recovered = repro.connect(durable_path=store)
    assert recovered.provider.recovery_info["snapshot_seq"] == 4
    assert recovered.provider.recovery_info["replayed"] == 4
    assert _predictions(recovered, "M", "M2") == live
    assert dump_provider(recovered.provider) == snapshot

    document = tmp_path / "m.xml"
    recovered.execute(f"EXPORT MINING MODEL [M] TO '{document}'")
    recovered.execute(f"IMPORT MINING MODEL FROM '{document}' AS [M3]")
    assert _predictions(recovered, "M3") == live[:1]
    imported = recovered.model("M3").algorithm
    assert type(imported) is service
    assert imported.state() == recovered.model("M").algorithm.state()
    recovered.close()


def test_durable_create_refuses_a_service_that_does_not_persist(tmp_path):
    conn = repro.connect(durable_path=str(tmp_path / "store"))
    for statement in SETUP:
        conn.execute(statement)
    with pytest.raises(CapabilityError, match="ThirdParty_Forgetful"):
        conn.execute(DDL.format(name="M", service="ThirdParty_Forgetful"))
    assert not conn.provider.has_model("M")
    assert conn.provider.metrics.value("store.journal_appends") == \
        len(SETUP)
    conn.close()


def test_without_durability_it_trains_but_cannot_be_saved(tmp_path):
    conn = repro.connect()
    for statement in SETUP:
        conn.execute(statement)
    conn.execute(DDL.format(name="M", service="ThirdParty_Forgetful"))
    conn.execute(TRAIN.format(name="M", where=""))
    assert len(_predictions(conn, "M")[0]) == 40
    with pytest.raises(CapabilityError, match="ThirdParty_Forgetful"):
        conn.execute(f"EXPORT MINING MODEL [M] TO '{tmp_path / 'm.xml'}'")
    with pytest.raises(CapabilityError, match="ThirdParty_Forgetful"):
        save_provider(conn.provider, str(tmp_path / "snapshot.json"))
    assert not (tmp_path / "m.xml").exists()
    assert not (tmp_path / "snapshot.json").exists()


def test_failed_auto_checkpoint_is_counted(tmp_path):
    """A checkpoint that fails before writing anything is counted, does
    not fail the statement that triggered it, and leaves the store
    writable."""
    store = str(tmp_path / "store")
    conn = repro.connect(durable_path=store, durable_checkpoint_interval=4)
    for statement in SETUP:
        conn.execute(statement)
    conn.execute(DDL.format(name="M", service="ThirdParty_Failing"))
    assert conn.execute(TRAIN.format(name="M", where="")) == 40
    metrics = conn.provider.metrics
    assert metrics.value("store.checkpoint_failures") == 1
    assert metrics.value("store.checkpoints") == 0
    conn.execute("INSERT INTO C VALUES (41, 'm', 30.0, 'yes')")
    assert conn.execute("SELECT COUNT(*) FROM C").single_value() == 41
    conn.close()

    recovered = repro.connect(durable_path=store)
    assert recovered.provider.recovery_info["replayed"] == 5
    assert recovered.execute("SELECT COUNT(*) FROM C").single_value() == 41
    recovered.close()


def test_half_a_persistence_pair_is_refused():
    class OnlySaves(Forgetful):
        SERVICE_NAME = "ThirdParty_OnlySaves"
        state = MajorityVote.state

    class OnlyLoads(Forgetful):
        SERVICE_NAME = "ThirdParty_OnlyLoads"
        load_state = MajorityVote.load_state

    for cls in (OnlySaves, OnlyLoads):
        with pytest.raises(SchemaError, match="state"):
            register_algorithm(cls)
