"""The attribute space: compilation, fitting, encoding."""

import pytest

from repro.errors import TrainError
from repro.lang.parser import parse_statement
from repro.core.bindings import CaseBatch, MappedCase
from repro.core.columns import compile_model_definition
from repro.algorithms.attributes import AttributeSpace


def definition(ddl):
    return compile_model_definition(parse_statement(ddl))


def make_case(scalars=None, tables=None, qualifiers=None):
    case = MappedCase()
    case.scalars.update({k.upper(): v for k, v in (scalars or {}).items()})
    for name, rows in (tables or {}).items():
        case.tables[name.upper()] = [
            {k.upper(): v for k, v in row.items()} for row in rows]
    for attr, kinds in (qualifiers or {}).items():
        case.qualifiers[attr.upper()] = kinds
    return case


BASKET_DDL = """
CREATE MINING MODEL m (
    [Id] LONG KEY,
    [Gender] TEXT DISCRETE,
    [Age] DOUBLE CONTINUOUS PREDICT,
    [Purchases] TABLE([Product] TEXT KEY,
                      [Quantity] DOUBLE CONTINUOUS,
                      [Type] TEXT DISCRETE RELATED TO [Product])
) USING Repro_Decision_Trees
"""


@pytest.fixture
def basket_space():
    space = AttributeSpace(definition(BASKET_DDL))
    cases = [
        make_case({"Id": 1, "Gender": "Male", "Age": 30.0},
                  {"Purchases": [{"Product": "TV", "Quantity": 1.0,
                                  "Type": "Electronic"},
                                 {"Product": "Beer", "Quantity": 6.0,
                                  "Type": "Beverage"}]}),
        make_case({"Id": 2, "Gender": "Female", "Age": 50.0},
                  {"Purchases": [{"Product": "TV", "Quantity": 2.0,
                                  "Type": "Electronic"}]}),
        make_case({"Id": 3, "Gender": "Male", "Age": None},
                  {"Purchases": []}),
    ]
    space.fit(CaseBatch.of(cases))
    return space, cases


class TestFitting:
    def test_attribute_inventory(self, basket_space):
        space, _ = basket_space
        names = [a.name for a in space.attributes]
        assert "Gender" in names
        assert "Age" in names
        assert "Purchases(TV)" in names
        assert "Purchases(TV).Quantity" in names
        assert "Purchases(Beer)" in names
        # KEY columns never become attributes
        assert "Id" not in names

    def test_fitting_twice_starts_over(self, basket_space):
        space, cases = basket_space
        once = ([a.name for a in space.attributes], space.total_weight,
                space.case_count, dict(space.relations),
                [vars(m) for m in space.marginals])
        space.encode(cases[0])          # builds the slot plan
        space.fit(CaseBatch.of(cases))
        assert ([a.name for a in space.attributes], space.total_weight,
                space.case_count, dict(space.relations),
                [vars(m) for m in space.marginals]) == once
        assert space.total_weight == 3.0
        assert [a.index for a in space.attributes] == \
            list(range(len(space.attributes)))
        # and another caseset replaces it
        space.fit_schema(CaseBatch.of(cases[:2]))
        assert space.total_weight == 2.0 and space.case_count == 2

    def test_flags(self, basket_space):
        space, _ = basket_space
        age = space.by_name("Age")
        assert age.is_output and age.is_input
        tv = space.by_name("Purchases(TV)")
        assert tv.is_existence and tv.is_input and not tv.is_output

    def test_categories_ordered_by_frequency(self, basket_space):
        space, _ = basket_space
        gender = space.by_name("Gender")
        assert gender.categories == ["Male", "Female"]

    def test_relation_map_collected(self, basket_space):
        space, _ = basket_space
        mapping = space.relations[("PURCHASES", "TYPE")]
        assert mapping[("TV").upper()] == "Electronic"

    def test_marginals(self, basket_space):
        space, _ = basket_space
        age_marginal = space.marginals[space.by_name("Age").index]
        assert age_marginal.sum_weight == 2.0
        assert age_marginal.mean == pytest.approx(40.0)

    def test_empty_caseset_raises(self):
        with pytest.raises(TrainError):
            AttributeSpace(definition(BASKET_DDL)).fit([])

    def test_case_count_and_weight(self, basket_space):
        space, _ = basket_space
        assert space.case_count == 3
        assert space.total_weight == 3.0


class TestEncoding:
    def test_scalar_encoding(self, basket_space):
        space, cases = basket_space
        observation = space.encode(cases[0])
        gender = space.by_name("Gender")
        assert observation.values[gender.index] == 0  # "Male" is category 0
        assert gender.decode(0) == "Male"
        age = space.by_name("Age")
        assert observation.values[age.index] == 30.0

    def test_missing_encodes_to_none(self, basket_space):
        space, cases = basket_space
        observation = space.encode(cases[2])
        assert observation.values[space.by_name("Age").index] is None

    def test_existence_encoding(self, basket_space):
        space, cases = basket_space
        observation = space.encode(cases[1])
        assert observation.values[space.by_name("Purchases(TV)").index] \
            == 1.0
        assert observation.values[space.by_name("Purchases(Beer)").index] \
            == 0.0

    def test_per_item_value_attribute(self, basket_space):
        space, cases = basket_space
        observation = space.encode(cases[0])
        quantity = space.by_name("Purchases(Beer).Quantity")
        assert observation.values[quantity.index] == 6.0
        observation2 = space.encode(cases[1])
        assert observation2.values[quantity.index] is None  # item absent

    def test_case_key_captured(self, basket_space):
        space, cases = basket_space
        assert space.encode(cases[0]).case_key == 1

    def test_unseen_category_is_missing(self, basket_space):
        space, _ = basket_space
        case = make_case({"Gender": "Other"})
        observation = space.encode(case)
        assert observation.values[space.by_name("Gender").index] is None

    def test_category_matching_case_insensitive(self, basket_space):
        space, _ = basket_space
        case = make_case({"Gender": "MALE"})
        observation = space.encode(case)
        assert observation.values[space.by_name("Gender").index] == 0


class TestQualifiers:
    def test_probability_becomes_confidence(self):
        ddl = ("CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE, "
               "p DOUBLE PROBABILITY OF a) USING Repro_Decision_Trees")
        space = AttributeSpace(definition(ddl))
        cases = [make_case({"a": "x"}, qualifiers={"a": {"PROBABILITY": 0.5}}),
                 make_case({"a": "y"})]
        space.fit(CaseBatch.of(cases))
        observation = space.encode(cases[0])
        a = space.by_name("a")
        assert observation.confidence(a.index) == 0.5
        assert observation.effective_weight(a.index) == 0.5
        # marginals use the dampened weight
        assert space.marginals[a.index].support(a.encode("x")) == 0.5

    def test_support_scales_case_weight(self):
        ddl = ("CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE, "
               "w DOUBLE SUPPORT OF a) USING Repro_Decision_Trees")
        space = AttributeSpace(definition(ddl))
        cases = [make_case({"a": "x"}, qualifiers={"a": {"SUPPORT": 4.0}}),
                 make_case({"a": "y"})]
        space.fit(CaseBatch.of(cases))
        assert space.total_weight == 5.0

    def test_nested_probability_confidence(self):
        space = AttributeSpace(definition(BASKET_DDL))
        row = {"PRODUCT": "Van", "QUANTITY": 1.0,
               "__QUALIFIERS__": {"PRODUCT": {"PROBABILITY": 0.5}}}
        case = make_case({"Id": 1, "Gender": "Male", "Age": 30.0})
        case.tables["PURCHASES"] = [row]
        space.fit(CaseBatch.of([case]))
        observation = space.encode(case)
        van = space.by_name("Purchases(Van)")
        assert observation.values[van.index] == 1.0
        assert observation.confidence(van.index) == 0.5


class TestMaximumStates:
    def test_caps_categorical_states(self):
        ddl = ("CREATE MINING MODEL m (k LONG KEY, a TEXT DISCRETE) "
               "USING Repro_Decision_Trees(MAXIMUM_STATES = 3)")
        space = AttributeSpace(definition(ddl))
        cases = [make_case({"a": f"v{i % 10}"}) for i in range(100)]
        space.fit(CaseBatch.of(cases))
        assert space.by_name("a").cardinality == 3

    def test_model_existence_only(self):
        ddl = ("CREATE MINING MODEL m (k LONG KEY, "
               "a DOUBLE CONTINUOUS MODEL_EXISTENCE_ONLY) "
               "USING Repro_Decision_Trees")
        space = AttributeSpace(definition(ddl))
        cases = [make_case({"a": 1.0}), make_case({"a": None})]
        space.fit(CaseBatch.of(cases))
        a = space.by_name("a")
        assert a.is_categorical
        assert space.encode(cases[0]).values[a.index] == \
            a.encode(True)
        assert space.encode(cases[1]).values[a.index] == \
            a.encode(False)
