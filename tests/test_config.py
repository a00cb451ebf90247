"""The keys each document accepts and the scene settings it may leave out.

Each document's keys are its dataclass's fields, in declaration order; the
refusal texts below pin that order, so a reordered or renamed field shows.
"""

from __future__ import annotations

import copy
from dataclasses import fields

import pytest

from homeloop.config import RADII, WorldConfig, parse_config, parse_suite, resolve_noise_profile
from homeloop.errors import ConfigError
from homeloop.goals import parse_goal

from conftest import MINI_SCENE

NOISE_KNOWN = ("p_grasp_fail, p_place_fail, p_nav_fail, p_false_positive, p_missed_detection, "
               "p_object_shift_on_fail, p_flag_error, p_closeup_error")


def with_colour(*path) -> dict:
    """MINI_SCENE, given an empty variation block, with an unknown key
    ``colour`` in the block at ``path``."""
    doc = dict(copy.deepcopy(MINI_SCENE), variation={})
    block = doc
    for key in path:
        block = block[key]
    block["colour"] = "red"
    return doc


@pytest.mark.parametrize("path, text", [
    ((), "colour: unknown field; known: name, room, furniture, objects, robot_start, noise, "
         "grid_resolution, arm_reach, sensing_radius, view_radius, closeup_radius, variation"),
    (("furniture", 1),
     "furniture[1].colour: unknown field; known: id, category, footprint, surface_height, grasp_difficulty"),
    (("objects", 1),
     "objects[1].colour: unknown field; known: id, category, attributes, on, offset, floor, receptacle, extent"),
    (("robot_start",), "robot_start.colour: unknown field; known: x, y, heading"),
    (("variation",), "variation.colour: unknown field; known: shuffle_offsets, receptacle_pool, extra_count_range"),
    (("noise",), f"noise.colour: unknown field; known: {NOISE_KNOWN}, rng_seed"),
], ids=["scene", "furniture", "object", "robot_start", "variation", "noise"])
def test_an_unknown_scene_key_names_the_known_ones_in_field_order(path, text):
    with pytest.raises(ConfigError) as err:
        parse_config(with_colour(*path))
    assert str(err.value) == text


def test_an_unknown_suite_key_names_the_known_ones_in_field_order():
    with pytest.raises(ConfigError) as err:
        parse_suite({"name": "s", "colour": "red"})
    assert str(err.value) == "colour: unknown field; known: name, tasks, noise_profile, planner"


def test_an_unknown_selector_key_names_the_known_ones_in_field_order():
    with pytest.raises(ConfigError) as err:
        parse_goal({"on": {"object": {"colour": "red"}, "receptacle": {"id": "bed_0"}}})
    assert str(err.value) == "goal.on.object.colour: unknown field; known: id, category, attributes"


def test_a_noise_profile_takes_the_probabilities_but_not_the_seed():
    with pytest.raises(ConfigError) as err:
        resolve_noise_profile({"rng_seed": 1})
    assert str(err.value) == f"noise_profile.rng_seed: unknown field; known: {NOISE_KNOWN}"


def test_a_scene_without_the_numeric_settings_takes_the_field_defaults():
    settings = ("grid_resolution", *RADII)
    doc = {key: value for key, value in copy.deepcopy(MINI_SCENE).items() if key not in settings}
    config = parse_config(doc)
    defaults = {f.name: f.default for f in fields(WorldConfig)}
    assert [getattr(config, key) for key in settings] == [defaults[key] for key in settings]
    assert [getattr(config, key) for key in settings] == [0.1, 1.0, 3.0, 1.5, 0.3]
    given = parse_config(dict(doc, grid_resolution=0.05, view_radius=2))
    assert (given.grid_resolution, given.view_radius, given.arm_reach) == (0.05, 2.0, 1.0)
