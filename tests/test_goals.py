from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeloop.errors import ConfigError
from homeloop.goals import (
    AllOn,
    And,
    EntityView,
    Holding,
    Not,
    On,
    Or,
    PlacementView,
    SameReceptacle,
    Selector,
    goal_satisfied,
    goal_to_json,
    parse_goal,
)
from homeloop.perception import Belief, BeliefObject
from homeloop.verification import belief_goal_satisfied, first_unsatisfied_atom
from homeloop.world import ActionRequest

from conftest import MINI_SCENE, make_world


def _gather_world(cup_parents):
    doc = copy.deepcopy(MINI_SCENE)
    doc["objects"] = [
        {"id": f"cup_{i}", "category": "cup", "on": parent, "offset": [0.1 * i - 0.2, 0.0]}
        for i, parent in enumerate(cup_parents)
    ]
    return make_world(doc)


def test_same_receptacle_true_when_gathered():
    world = _gather_world(["table_1", "table_1", "table_1"])
    assert goal_satisfied(world, SameReceptacle("cup"))


def test_same_receptacle_false_when_split():
    world = _gather_world(["table_0", "table_1", "table_1"])
    assert not goal_satisfied(world, SameReceptacle("cup"))


def test_all_on_false_when_one_elsewhere(mini_world):
    goal = AllOn("toy", Selector(id="sofa_0"))
    assert not goal_satisfied(mini_world, goal)  # toy_0 is on table_0


def test_on_with_attribute_selector(mini_world):
    world = mini_world
    assert goal_satisfied(world, On(Selector(id="toy_0"), Selector(id="table_0")))
    assert not goal_satisfied(world, On(Selector(id="toy_0"), Selector(category="bed")))


def test_holding(mini_world):
    world = mini_world
    assert not goal_satisfied(world, Holding(Selector(category="toy")))
    world.apply_action(ActionRequest(verb="navigate", target="table_0"))
    world.apply_action(ActionRequest(verb="grasp", target="toy_0"))
    assert goal_satisfied(world, Holding(Selector(category="toy")))


def test_compound_goal_on_scripted_end_state(zero_options):
    # full zero-noise run of the sequential cup+toy task; the end state must
    # satisfy the compound goal it planned against
    from homeloop.config import load_builtin_suite
    from homeloop.harness import run_trial
    from homeloop.planning import ScriptedPlanner

    suite = load_builtin_suite("acceptance")
    task = next(t for t in suite.tasks if t.id == "A3")
    report = run_trial(task, ScriptedPlanner(), seed=0, options=zero_options)
    assert report.outcome == "success"
    assert report.goal_satisfied


def test_goal_purity(mini_world):
    goal = And((On(Selector(id="toy_0"), Selector(id="table_0")), SameReceptacle("cup")))
    assert goal_satisfied(mini_world, goal) == goal_satisfied(mini_world, goal)


def test_parse_round_trip():
    doc = {
        "and": [
            {"on": {"object": {"category": "cup", "attributes": ["blue"]}, "receptacle": {"id": "plate_0"}}},
            {"not": {"holding": {"object": {"category": "cup"}}}},
            {"or": [
                {"same_receptacle": {"category": "cup"}},
                {"all_on": {"category": "toy", "receptacle": {"category": "sofa"}}},
            ]},
        ]
    }
    goal = parse_goal(doc)
    assert goal_to_json(goal) == doc


SELECTORS = st.builds(
    Selector,
    id=st.none() | st.sampled_from(["cup_0", "table_1", ""]),
    category=st.none() | st.sampled_from(["cup", "toy", "table"]),
    attributes=st.frozensets(st.sampled_from(["blue", "empty", "used"])),
)
GOALS = st.recursive(
    st.builds(On, SELECTORS, SELECTORS)
    | st.builds(AllOn, st.sampled_from(["cup", "toy"]), SELECTORS)
    | st.builds(SameReceptacle, st.sampled_from(["cup", "toy"]))
    | st.builds(Holding, SELECTORS),
    lambda inner: (
        st.lists(inner, min_size=1, max_size=3).map(lambda cs: And(tuple(cs)))
        | st.lists(inner, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs)))
        | inner.map(Not)
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(GOALS)
def test_a_goal_parses_back_from_its_json(goal):
    assert parse_goal(goal_to_json(goal)) == goal


# Views over the selectors' ids: each entity rests on another, on nothing or
# an unknown id, and any of them (or none) is held.
VIEW_IDS = ["cup_0", "toy_0", "table_1", ""]
ENTITIES = st.builds(
    EntityView,
    st.sampled_from(VIEW_IDS),
    st.sampled_from(["cup", "toy", "table"]),
    st.frozensets(st.sampled_from(["blue", "empty", "used"])),
    st.none() | st.sampled_from(VIEW_IDS + ["bed_0"]),
    st.booleans(),
)


@st.composite
def views(draw) -> PlacementView:
    """In half the views, one entity is held while it still names another
    entity of the view as its parent, as after a flag-flipped place."""
    entities = {e.id: e for e in draw(st.lists(ENTITIES, max_size=5))}
    if not draw(st.booleans()):
        return PlacementView(entities, draw(st.none() | st.sampled_from(VIEW_IDS)))
    held, parent = draw(st.permutations(VIEW_IDS))[:2]
    entities[parent] = entities.get(parent) or draw(ENTITIES)._replace(id=parent)
    entities[held] = (entities.get(held) or draw(ENTITIES))._replace(id=held, parent_id=parent)
    return PlacementView(entities, held)


VIEWS = views()


def _reference_satisfied(goal, view):
    """Junctions evaluated by all / any / not over their children."""
    if isinstance(goal, And):
        return all(_reference_satisfied(c, view) for c in goal.children)
    if isinstance(goal, Or):
        return any(_reference_satisfied(c, view) for c in goal.children)
    if isinstance(goal, Not):
        return not _reference_satisfied(goal.child, view)
    return goal.satisfied(view)


def _reference_first_unsat(goal, view):
    """The first unsatisfied atom: an And's first child's, an unsatisfied
    Or's first child's, and a Not itself when its child holds."""
    if isinstance(goal, And):
        for c in goal.children:
            found = _reference_first_unsat(c, view)
            if found is not None:
                return found
        return None
    if isinstance(goal, Or):
        return None if _reference_satisfied(goal, view) else _reference_first_unsat(goal.children[0], view)
    if isinstance(goal, Not):
        return goal if _reference_satisfied(goal.child, view) else None
    return None if _reference_satisfied(goal, view) else goal


def _held_on_nothing(view):
    """The view with its held entity resting on nothing."""
    held = view.entities.get(view.holding)
    if held is None:
        return view
    return view._replace(entities={**view.entities, held.id: held._replace(parent_id=None)})


@settings(max_examples=300, deadline=None)
@given(GOALS, VIEWS)
def test_goal_evaluation_matches_the_reference(goal, view):
    # VIEWS draws held entities that still name a parent: the held entity
    # rests on nothing, whatever it was last seen on
    reference = _held_on_nothing(view)
    assert goal.satisfied(view) == _reference_satisfied(goal, reference)
    assert goal.first_unsat(view) == _reference_first_unsat(goal, reference)


def test_the_held_object_is_not_on_its_last_seen_parent():
    # a flag-flipped place leaves the belief holding toy_0 while its believed
    # parent still names the table it was placed on
    belief = Belief(objects={
        "table_0": BeliefObject("table_0", "table", frozenset(), (1.0, 1.0), None, True),
        "toy_0": BeliefObject("toy_0", "toy", frozenset(), (1.0, 1.0), "table_0", False),
    }, holding="toy_0")
    atom = On(Selector(id="toy_0"), Selector(id="table_0"))
    assert not belief_goal_satisfied(atom, belief)
    assert first_unsatisfied_atom(atom, belief) is atom


KNOWN_SELECTOR = "unknown field; known: id, category, attributes"

# Every ConfigError of the goal parser: a document, then the path and text of
# the first problem found in it. The group "the first of several problems"
# holds documents with more than one problem, and pins which of them is found
# first.
GOAL_ERRORS = [
    # a node
    (5, "goal", "goal node must be a single-key object"),
    ({}, "goal", "goal node must be a single-key object"),
    ({"on": {}, "not": {}}, "goal", "goal node must be a single-key object"),
    ({"near": {}}, "goal", "unknown goal operator 'near'"),
    ({"not": []}, "goal.not", "goal node must be a single-key object"),
    ({"and": [{"on": {}}, 3]}, "goal.and[1]", "goal node must be a single-key object"),
    # a junction's or an atom's body
    ({"and": {"on": {}}}, "goal.and", "expected a JSON array, got {'on': {}}"),
    ({"or": "x"}, "goal.or", "expected a JSON array, got 'x'"),
    ({"on": []}, "goal.on", "expected a JSON object, got []"),
    ({"holding": "cup"}, "goal.holding", "expected a JSON object, got 'cup'"),
    # an atom's keys
    ({"on": {"object": {}, "target": {}}}, "goal.on.target", "unknown field; known: object, receptacle"),
    ({"all_on": {"category": "toy", "object": {}}}, "goal.all_on.object",
     "unknown field; known: category, receptacle"),
    ({"same_receptacle": {"category": "cup", "receptacle": {}}}, "goal.same_receptacle.receptacle",
     "unknown field; known: category"),
    ({"holding": {"receptacle": {}}}, "goal.holding.receptacle", "unknown field; known: object"),
    ({"all_on": {"receptacle": {}}}, "goal.all_on", "missing category"),
    ({"same_receptacle": {}}, "goal.same_receptacle", "missing category"),
    ({"all_on": {"category": 3}}, "goal.all_on.category", "expected a JSON string, got 3"),
    ({"same_receptacle": {"category": None}}, "goal.same_receptacle.category", "expected a JSON string, got None"),
    # a selector
    ({"holding": {"object": "cup"}}, "goal.holding.object", "selector must be an object"),
    ({"on": {"receptacle": []}}, "goal.on.receptacle", "selector must be an object"),
    ({"all_on": {"category": "toy", "receptacle": None}}, "goal.all_on.receptacle", "selector must be an object"),
    ({"on": {"object": {"colour": "red"}}}, "goal.on.object.colour", KNOWN_SELECTOR),
    ({"on": {"object": {"id": None}}}, "goal.on.object.id", "expected a JSON string, got None"),
    ({"on": {"object": {"id": 7}}}, "goal.on.object.id", "expected a JSON string, got 7"),
    ({"on": {"receptacle": {"category": None}}}, "goal.on.receptacle.category", "expected a JSON string, got None"),
    ({"all_on": {"category": "toy", "receptacle": {"category": 4}}}, "goal.all_on.receptacle.category",
     "expected a JSON string, got 4"),
    ({"on": {"receptacle": {"attributes": "blue"}}}, "goal.on.receptacle.attributes",
     "expected a JSON array, got 'blue'"),
    ({"holding": {"object": {"attributes": ["blue", 7]}}}, "goal.holding.object.attributes[1]",
     "expected a JSON string, got 7"),
    # the first of several problems
    ({"on": {"receptacle": 5, "object": 5}}, "goal.on.object", "selector must be an object"),
    ({"on": {"target": 1, "object": 5}}, "goal.on.target", "unknown field; known: object, receptacle"),
    ({"all_on": {"receptacle": 5}}, "goal.all_on", "missing category"),
    ({"all_on": {"receptacle": 5, "category": 1}}, "goal.all_on.category", "expected a JSON string, got 1"),
    ({"on": {"object": {"attributes": 1, "category": 2, "id": 3}}}, "goal.on.object.id",
     "expected a JSON string, got 3"),
    ({"on": {"object": {"attributes": 1, "category": 2}}}, "goal.on.object.category",
     "expected a JSON string, got 2"),
    ({"on": {"object": {"id": 1, "shape": "round"}}}, "goal.on.object.shape", KNOWN_SELECTOR),
    ({"and": [{"on": {"object": 1}}, {"near": {}}]}, "goal.and[0].on.object", "selector must be an object"),
    ({"not": {"or": [{"holding": {"object": {"id": 1}}}]}}, "goal.not.or[0].holding.object.id",
     "expected a JSON string, got 1"),
    # a junction with no child, which no goal tree may hold
    ({"or": []}, "goal.or", "or needs at least one child"),
    ({"and": []}, "goal.and", "and needs at least one child"),
]


@pytest.mark.parametrize("doc, field_path, message", GOAL_ERRORS)
def test_every_goal_error_keeps_its_path_and_text(doc, field_path, message):
    with pytest.raises(ConfigError) as exc:
        parse_goal(doc)
    assert (exc.value.field_path, exc.value.message) == (field_path, message)


def test_parse_rejects_unknown_operator():
    with pytest.raises(ConfigError) as exc:
        parse_goal({"near": {}})
    assert "unknown goal operator" in str(exc.value)


@pytest.mark.parametrize("key", ["id", "category"])
def test_parse_rejects_a_null_selector_field(key):
    # a null would leave the field unset, and the selector would match every object
    with pytest.raises(ConfigError) as exc:
        parse_goal({"on": {"object": {key: None}, "receptacle": {"id": "bed_0"}}})
    assert exc.value.field_path == f"goal.on.object.{key}"


def test_selector_matching():
    sel = Selector(category="cup", attributes=frozenset({"empty"}))
    assert sel.matches("cup_2", "cup", {"empty", "white"})
    assert not sel.matches("cup_2", "cup", {"used"})
    assert not sel.matches("cup_2", "toy", {"empty"})
