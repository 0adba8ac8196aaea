"""Decision trees: splits, regression, missing values, content."""

import pytest

from repro.lang.parser import parse_statement
from repro.core.bindings import CaseBatch, MappedCase
from repro.core.columns import compile_model_definition
from repro.core.content import NODE_MODEL, NODE_TREE
from repro.algorithms.attributes import AttributeSpace
from repro.algorithms.decision_tree import DecisionTreeAlgorithm
from repro.core.model import MiningModel
from repro.pmml.writer import to_pmml

from tests.reference.reference_trainers import reference_model_train


def build(ddl, cases, params=None):
    definition = compile_model_definition(parse_statement(ddl))
    space = AttributeSpace(definition)
    space.fit(CaseBatch.of(cases))
    algorithm = DecisionTreeAlgorithm(params or {"MINIMUM_SUPPORT": 2.0})
    algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
    return space, algorithm


def case(**scalars):
    mapped = MappedCase()
    mapped.scalars.update({k.upper(): v for k, v in scalars.items()})
    return mapped


CLASS_DDL = """
CREATE MINING MODEL m (k LONG KEY, Color TEXT DISCRETE,
    Size DOUBLE CONTINUOUS, Label TEXT DISCRETE PREDICT)
USING Repro_Decision_Trees
"""


def classification_cases(n=60):
    cases = []
    for i in range(n):
        color = "red" if i % 2 else "blue"
        size = float(i % 10)
        label = "hot" if color == "red" else "cold"
        cases.append(case(k=i, Color=color, Size=size, Label=label))
    return cases


class TestClassification:
    def test_perfect_split_found(self):
        space, algorithm = build(CLASS_DDL, classification_cases())
        tree = algorithm.tree_for("Label")
        assert tree.split_attribute.name == "Color"
        for child in tree.children:
            value, probability = child.distribution.most_likely()
            assert probability == 1.0

    def test_prediction_follows_evidence(self):
        space, algorithm = build(CLASS_DDL, classification_cases())
        label = space.by_name("Label")
        red = space.encode(case(Color="red", Size=3.0))
        prediction = algorithm.predict(red).get(label)
        assert prediction.value == "hot"
        assert prediction.probability == pytest.approx(1.0)

    def test_missing_split_value_mixes_children(self):
        space, algorithm = build(CLASS_DDL, classification_cases())
        label = space.by_name("Label")
        unknown = space.encode(case(Size=3.0))  # no Color
        prediction = algorithm.predict(unknown).get(label)
        # Balanced classes: the mixture should be ~50/50.
        assert prediction.probability == pytest.approx(0.5, abs=0.05)

    def test_histogram_sums_to_one(self):
        space, algorithm = build(CLASS_DDL, classification_cases())
        label = space.by_name("Label")
        prediction = algorithm.predict(
            space.encode(case(Color="red"))).get(label)
        assert sum(b.probability for b in prediction.histogram) == \
            pytest.approx(1.0)

    def test_minimum_support_blocks_tiny_splits(self):
        space, algorithm = build(CLASS_DDL, classification_cases(8),
                                 params={"MINIMUM_SUPPORT": 100.0})
        assert algorithm.tree_for("Label").is_leaf

    def test_maximum_depth(self):
        space, algorithm = build(
            CLASS_DDL, classification_cases(),
            params={"MINIMUM_SUPPORT": 1.0, "MAXIMUM_DEPTH": 0})
        assert algorithm.tree_for("Label").is_leaf

    def test_gini_also_splits(self):
        space, algorithm = build(
            CLASS_DDL, classification_cases(),
            params={"MINIMUM_SUPPORT": 2.0, "SCORE_METHOD": "GINI"})
        assert algorithm.tree_for("Label").split_attribute.name == "Color"

    def test_unseen_category_falls_back_to_node_distribution(self):
        space, algorithm = build(CLASS_DDL, classification_cases())
        label = space.by_name("Label")
        color = space.by_name("Color")
        observation = space.encode(case(Color="red"))
        observation.values[color.index] = 99.0  # impossible code
        prediction = algorithm.predict(observation).get(label)
        assert prediction.value in ("hot", "cold")

    def test_no_observations_grow_an_empty_root(self):
        space, algorithm = build(CLASS_DDL, classification_cases())
        algorithm.train(space, [])
        tree = algorithm.tree_for("Label")
        assert tree.is_leaf and tree.support == 0.0
        assert len(tree.distribution) == 0

    def test_a_root_of_zero_weight_has_a_float_support(self):
        """The only case with a known target has SUPPORT 0: the root's
        support is the float 0.0 (a ``bincount`` over an empty array gives
        int64 zeros), in ``state()`` and in the PMML, as the per-case
        trainer's is."""
        definition = compile_model_definition(parse_statement(
            "CREATE MINING MODEL m (Id LONG KEY, G TEXT DISCRETE, "
            "W DOUBLE SUPPORT OF G, T TEXT DISCRETE PREDICT) "
            "USING Repro_Decision_Trees(MAXIMUM_DEPTH = 0)"))
        cases = [case(Id=1, G="m", T="yes"), case(Id=2), case(Id=3)]
        cases[0].qualifiers["G"] = {"SUPPORT": 0.0}
        model, reference = MiningModel(definition), MiningModel(definition)
        model.train([CaseBatch.of(cases)])
        reference_model_train(reference, [CaseBatch.of(cases)])
        support = model.algorithm.state()["trees"][0][1]["support"]
        assert type(support) is float and support == 0.0
        assert to_pmml(model) == to_pmml(reference)


REGRESSION_DDL = """
CREATE MINING MODEL m (k LONG KEY, Group_ TEXT DISCRETE,
    X DOUBLE CONTINUOUS, Y DOUBLE CONTINUOUS PREDICT)
USING Repro_Decision_Trees
"""


class TestRegression:
    def make_cases(self):
        cases = []
        for i in range(80):
            x = float(i)
            y = 10.0 if x < 40 else 50.0
            cases.append(case(k=i, Group_="g", X=x, Y=y))
        return cases

    def test_threshold_split_on_continuous(self):
        space, algorithm = build(REGRESSION_DDL, self.make_cases())
        tree = algorithm.tree_for("Y")
        assert tree.split_attribute.name == "X"
        assert 30.0 <= tree.threshold <= 45.0

    def test_leaf_means(self):
        space, algorithm = build(REGRESSION_DDL, self.make_cases())
        y = space.by_name("Y")
        low = algorithm.predict(space.encode(case(X=5.0))).get(y)
        high = algorithm.predict(space.encode(case(X=70.0))).get(y)
        assert low.value == pytest.approx(10.0, abs=1.0)
        assert high.value == pytest.approx(50.0, abs=1.0)
        assert low.variance == pytest.approx(0.0, abs=1e-6)

    def test_missing_input_gives_weighted_mean(self):
        space, algorithm = build(REGRESSION_DDL, self.make_cases())
        y = space.by_name("Y")
        prediction = algorithm.predict(space.encode(case())).get(y)
        assert prediction.value == pytest.approx(30.0, abs=2.0)
        assert prediction.variance > 100.0  # mixture variance is wide


class TestWeights:
    def test_support_weight_shifts_majority(self):
        cases = [case(k=1, Color="red", Size=1.0, Label="hot"),
                 case(k=2, Color="red", Size=1.0, Label="cold")]
        cases[1].qualifiers["LABEL"] = {"SUPPORT": 9.0}
        definition = compile_model_definition(parse_statement(CLASS_DDL))
        space = AttributeSpace(definition)
        space.fit(CaseBatch.of(cases))
        algorithm = DecisionTreeAlgorithm({"MINIMUM_SUPPORT": 100.0})
        algorithm.train(space, space.encode_many(CaseBatch.of(cases)))
        label = space.by_name("Label")
        prediction = algorithm.predict(
            space.encode(case(Color="red"))).get(label)
        assert prediction.value == "cold"
        assert prediction.probability == pytest.approx(0.9)


class TestContent:
    def test_graph_shape(self):
        space, algorithm = build(CLASS_DDL, classification_cases())
        root = algorithm.content_nodes()
        assert root.node_type == NODE_MODEL
        assert root.children[0].node_type == NODE_TREE
        captions = [n.caption for n in root.walk()]
        assert any("Color" in c for c in captions)

    def test_distribution_rows_on_leaves(self):
        space, algorithm = build(CLASS_DDL, classification_cases())
        leaves = [n for n in algorithm.content_nodes().walk()
                  if not n.children]
        assert all(n.distribution for n in leaves)

    def test_node_ids_unique(self):
        space, algorithm = build(CLASS_DDL, classification_cases())
        ids = [n.node_id for n in algorithm.content_nodes().walk()]
        assert len(ids) == len(set(ids))
