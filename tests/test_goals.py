from __future__ import annotations

import copy

import pytest

from homeloop.errors import ConfigError
from homeloop.goals import (
    AllOn,
    And,
    Holding,
    On,
    SameReceptacle,
    Selector,
    goal_satisfied,
    goal_to_json,
    parse_goal,
)
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
