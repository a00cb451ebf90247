"""Scene, suite and goal documents come from outside the program, so a
malformed one must end in a ``ConfigError`` naming the field, never in
another exception. Each example takes a bundled document and swaps one of its
fields (or the whole document) for an arbitrary JSON value."""

from __future__ import annotations

import copy
import json
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from homeloop.errors import ConfigError
from homeloop.goals import parse_goal
from homeloop.harness import parse_suite
from homeloop.world import parse_config, validate_config


def bundled(kind: str, name: str) -> dict:
    return json.loads(resources.files("homeloop").joinpath(f"data/{kind}/{name}.json").read_text("utf-8"))


SCENES = [bundled("scenes", p.stem) for p in resources.files("homeloop").joinpath("data/scenes").iterdir()]
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


def only_config_errors(parse, doc) -> None:
    try:
        parse(doc)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(mutated(SCENES))
def test_a_malformed_scene_raises_only_config_error(doc):
    only_config_errors(lambda d: validate_config(parse_config(d)), doc)


@settings(max_examples=150, deadline=None)
@given(mutated(SUITES))
def test_a_malformed_suite_raises_only_config_error(doc):
    only_config_errors(parse_suite, doc)


@settings(max_examples=200, deadline=None)
@given(mutated(GOALS))
def test_a_malformed_goal_raises_only_config_error(doc):
    only_config_errors(parse_goal, doc)
