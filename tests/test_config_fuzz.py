"""Scene, suite and goal documents come from outside the program, so a
malformed one must end in a ``ConfigError`` naming the field, never in
another exception. Each example takes a bundled document and swaps one of its
fields (or the whole document) for an arbitrary JSON value. A document that
parses must hold text wherever a trial reads text, or it validates and then
crashes the trial.

A scene that parses has passed validation, and must then build a World for
every trial seed and run in it: numeric mutations (sign flips, zero, tiny,
huge and neighbouring values) of its sizes, positions and radii look for a
scene that validates and then fails."""

from __future__ import annotations

import copy
import json
import math
from importlib import resources
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from homeloop.config import load_builtin_suite, parse_config, parse_suite, vary_config
from homeloop.errors import ConfigError
from homeloop.goals import Goal, Selector, parse_goal
from homeloop.perception import Belief, capture, explore_global
from homeloop.world import World

from perfbench.workloads import WORKLOADS


def bundled(kind: str, name: str) -> dict:
    return json.loads(resources.files("homeloop").joinpath(f"data/{kind}/{name}.json").read_text("utf-8"))


# The bundled scenes, and a test scene that sets every optional field: an
# object on the floor, a grasp_difficulty, a wall and both view radii.
SCENES = [bundled("scenes", p.stem) for p in resources.files("homeloop").joinpath("data/scenes").iterdir()]
SCENES.append(json.loads(Path(__file__).with_name("every_field_scene.json").read_text("utf-8")))
SUITES = [bundled("suites", "acceptance"), bundled("suites", "benchmark")]
GOALS = [task["goal"] for suite in SUITES for task in suite["tasks"]]

# Strings the parsers treat specially: numbers that float() and int() read,
# and scene references.
SPECIAL_TEXT = st.sampled_from(["1.5", "-2", "nan", "inf", "1e400", "builtin:nope", "builtin:move_toy", "nope.json"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8) | SPECIAL_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)


def field_paths(doc, prefix=()) -> list[tuple]:
    """The path of the document itself and of every field nested in it."""
    paths = [prefix]
    if isinstance(doc, dict):
        for key, value in doc.items():
            paths += field_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            paths += field_paths(value, prefix + (index,))
    return paths


@st.composite
def mutated(draw, docs: list) -> object:
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    path = draw(st.sampled_from(field_paths(doc)))
    value = draw(JSON_VALUES)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def numeric_paths(doc) -> list[tuple]:
    """The paths of the document's number fields (booleans are no numbers)."""
    def leaf(path):
        value = doc
        for key in path:
            value = value[key]
        return value

    return [p for p in field_paths(doc) if type(leaf(p)) in (int, float)]


def new_number(x: float) -> st.SearchStrategy:
    """A sign flip, zero, a tiny or huge value, a neighbouring float, or any modest one."""
    near = [-x, 0.0, 1e-9, 1e9, 1e300, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)]
    return st.one_of(st.sampled_from(near), st.sampled_from(near), st.floats(-20.0, 20.0))


# The scenes with every radius spelled out and a ball on the floor.
BALL = {"id": "ball_0", "category": "ball", "floor": [1.0, 1.0]}
NUMERIC_SCENES = [dict(doc, view_radius=1.5, closeup_radius=0.3, objects=[BALL, *doc["objects"]]) for doc in SCENES]


@st.composite
def numerically_mutated(draw, docs: list) -> dict:
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    by_field: dict = {}  # a field such as objects.offset, then one of its numbers
    for path in numeric_paths(doc):
        if path[0] not in ("noise", "variation"):
            by_field.setdefault(tuple(k for k in path if isinstance(k, str)), []).append(path)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(by_field[draw(st.sampled_from(sorted(by_field)))]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(new_number(parent[path[-1]]))
    return doc


def only_config_errors(parse, doc):
    """What ``parse`` returns, or None when it raises ``ConfigError``."""
    try:
        return parse(doc)
    except ConfigError:
        return None


def is_text(value) -> bool:
    return value is None or isinstance(value, str)


def assert_goal_text(goal: Goal) -> None:
    """Every selector's id and category and every atom's category."""
    for atom in goal.atoms():
        selectors = [v for v in vars(atom).values() if isinstance(v, Selector)]
        texts = [getattr(atom, "category", None)] + [t for s in selectors for t in (s.id, s.category)]
        assert all(map(is_text, texts)), atom


@settings(max_examples=300, deadline=None)
@given(mutated(SCENES))
def test_a_malformed_scene_raises_only_config_error(doc):
    only_config_errors(parse_config, doc)


@settings(max_examples=150, deadline=None)
@given(mutated(SUITES))
def test_a_malformed_suite_raises_only_config_error(doc):
    suite = only_config_errors(parse_suite, doc)
    for task in suite.tasks if suite else ():
        assert is_text(task.placement_style), task.placement_style
        assert_goal_text(task.goal)


@settings(max_examples=200, deadline=None)
@given(mutated(GOALS))
def test_a_malformed_goal_raises_only_config_error(doc):
    goal = only_config_errors(parse_goal, doc)
    if goal is not None:
        assert_goal_text(goal)


def scene_with(name: str, **fields) -> dict:
    return dict(copy.deepcopy(next(doc for doc in SCENES if doc["name"] == name)), **fields)


def boxes_on_each_other() -> dict:
    doc = scene_with("tidy_table")
    for box, under in (("box_0", "box_1"), ("box_1", "box_0")):
        next(o for o in doc["objects"] if o["id"] == box).update(on=under, offset=[0.0, 0.0])
    return doc


@settings(max_examples=300, deadline=None)
@example(boxes_on_each_other())  # a capture walks the placement chain for ever
@example(scene_with("bedroom", sensing_radius=0.05))  # the sense disk is the robot's own cell
@given(numerically_mutated(NUMERIC_SCENES))
def test_a_scene_that_validates_builds_and_runs_every_trial(doc):
    config = only_config_errors(parse_config, doc)
    if config is None:
        return
    for seed in range(20):
        world = World(vary_config(config, seed))
        if seed == 0:
            belief = Belief()
            explore_global(world, belief)
            capture(world, "stay")
            capture(world, "rest")


def test_every_workload_scene_validates():
    # a generated scene that validation rejects would fail the benchmark's load
    for name in ("acceptance", "benchmark"):
        load_builtin_suite(name)
    for doc in SCENES:
        parse_config(doc)
    for workload in ("apartments", "long_horizon"):
        for seed in range(10):
            for unit in range(3):
                for doc in WORKLOADS[workload].docs(seed, unit):
                    parse_config(doc["scene"])
