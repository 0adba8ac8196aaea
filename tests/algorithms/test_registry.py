"""The mining-service registry and the plug-in API."""

import pytest

from repro.errors import BindError, SchemaError
from repro.algorithms.base import CasePrediction, MiningAlgorithm
from repro.algorithms.registry import (
    algorithm_services,
    create_algorithm,
    register_algorithm,
    resolve_algorithm,
    unregister_algorithm,
)
from repro.core.content import NODE_MODEL, ContentNode


class TestResolution:
    def test_canonical_names(self):
        assert resolve_algorithm("Repro_Decision_Trees").SERVICE_NAME == \
            "Repro_Decision_Trees"

    def test_aliases_resolve(self):
        for alias in ("Microsoft_Decision_Trees", "Decision_Trees_101",
                      "decision_trees"):
            assert resolve_algorithm(alias).SERVICE_NAME == \
                "Repro_Decision_Trees"

    def test_unknown_name_lists_services(self):
        with pytest.raises(BindError, match="Repro_Decision_Trees"):
            resolve_algorithm("Quantum_Mining_3000")

    def test_create_with_parameters(self):
        algorithm = create_algorithm("Repro_Decision_Trees",
                                     {"MINIMUM_SUPPORT": 3})
        assert algorithm.param("MINIMUM_SUPPORT") == 3
        # unspecified parameters keep defaults
        assert algorithm.param("MAXIMUM_DEPTH") == 16

    def test_unknown_parameter_rejected(self):
        with pytest.raises(SchemaError, match="BOGUS"):
            create_algorithm("Repro_Decision_Trees", {"BOGUS": 1})

    def test_shared_parameters_accepted_everywhere(self):
        algorithm = create_algorithm("Repro_Naive_Bayes",
                                     {"MAXIMUM_STATES": 10})
        assert algorithm is not None

    def test_eight_services_registered(self):
        assert len(algorithm_services()) == 8


class FakeAlgorithm(MiningAlgorithm):
    """A minimal third-party service for the plug-in test."""

    SERVICE_NAME = "Vendor_Constant_Predictor"
    ALIASES = ("Constant",)
    SUPPORTED_PARAMETERS = {"VALUE": "always"}

    def _train(self, space, observations):
        pass

    def predict(self, observation):
        return CasePrediction()

    def content_nodes(self):
        return ContentNode("0", NODE_MODEL, "constant")


class TestPluginApi:
    def test_register_and_use_via_dmx(self, conn):
        register_algorithm(FakeAlgorithm)
        try:
            conn.execute("CREATE TABLE T (Id LONG, A TEXT)")
            conn.execute("INSERT INTO T VALUES (1, 'x')")
            conn.execute("CREATE MINING MODEL M (Id LONG KEY, A TEXT "
                         "DISCRETE) USING Constant(VALUE = 'forty-two')")
            conn.execute("INSERT INTO M SELECT Id, A FROM T")
            assert conn.model("M").is_trained
            services = dict(conn.execute(
                "SELECT SERVICE_NAME, SUPPORTS_PARALLEL_TRAINING FROM "
                "$SYSTEM.MINING_SERVICES").rows)
            # A plug-in, like every built-in, trains in one pass.
            assert services["Vendor_Constant_Predictor"] is False
        finally:
            unregister_algorithm(FakeAlgorithm)

    def test_name_collisions_rejected(self):
        class Colliding(MiningAlgorithm):
            SERVICE_NAME = "Repro_Decision_Trees"

            def _train(self, space, observations):
                pass

            def predict(self, observation):
                return CasePrediction()

            def content_nodes(self):
                return ContentNode("0", NODE_MODEL, "x")

        with pytest.raises(SchemaError):
            register_algorithm(Colliding)

    def test_service_name_required(self):
        class Nameless(FakeAlgorithm):
            SERVICE_NAME = ""

        with pytest.raises(SchemaError):
            register_algorithm(Nameless)

    def test_unregister_is_clean(self):
        register_algorithm(FakeAlgorithm)
        unregister_algorithm(FakeAlgorithm)
        with pytest.raises(BindError):
            resolve_algorithm("Constant")
