"""The keys each document accepts and the scene settings it may leave out.

Each document's keys are its dataclass's fields, in declaration order; the
refusal texts below pin that order, so a reordered or renamed field shows.
The outcome of every single-field edit of some scenes is pinned too.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import fields

import pytest

from homeloop.config import RADII, WorldConfig, parse_config, parse_suite, resolve_noise_profile
from homeloop.errors import ConfigError
from homeloop.goals import parse_goal

from conftest import MINI_SCENE
from test_config_fuzz import field_paths, scene_with

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


# Each field and each whole sub-document of a scene, the scene itself too, is
# replaced by each of these values or, below the scene, deleted.
EDIT_VALUES = (None, True, False, 0, -1, 1.5, "x", "1.5", [], [1.5, 2.0], {}, {"x": 1}, math.nan)
DELETED = object()


def single_edits(doc: dict) -> list:
    """Every single-field edit of ``doc``, each a new document."""
    edits = []
    for path in field_paths(doc):
        for value in EDIT_VALUES + ((DELETED,) if path else ()):
            if not path:
                edits.append(value)
                continue
            edit = json.loads(json.dumps(doc))
            parent = edit
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETED:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            edits.append(edit)
    return edits


def outcome(doc) -> str:
    """The repr of the WorldConfig ``doc`` parses to, or its ConfigError's text."""
    try:
        return repr(parse_config(doc))
    except ConfigError as exc:
        return str(exc)


# A SHA-256 of the outcomes of all single-field edits of each scene, one per
# line. Four of the nine bundled scenes keep the test near a second; their
# variation blocks hold a receptacle_pool and an extra_count_range. The test
# scene every_field sets every optional field that no bundled scene does.
EDIT_OUTCOMES_SHA256 = {
    "every_field": "220842f9083f88ec4e2a0ec232a0aa5a7ab3e887c59151cb0f675896aa23578d",
    "fruit_among_cups": "27557fad3b91aace4b14ebc9a4af3d41efd856c07aac584f148c8eca1cca6dfb",
    "gather_cups": "2a188cb743eebaa9d71224082df4fc0379d8b6269963b0e221f4931fa75143b4",
    "place_fruit": "6a0f10aa607a24e6e4d7b94654bd2ad5bd8e2d01de15b45ac7bdd92acd7e6bf3",
    "prepare_cup": "f7b410feb1af78d2c2be8c309c148b8d86b444cded72b279db32a2f557264166",
}


@pytest.mark.parametrize("name", sorted(EDIT_OUTCOMES_SHA256))
def test_every_single_field_edit_of_a_bundled_scene_parses_as_pinned(name):
    outcomes = "\n".join(outcome(doc) for doc in single_edits(scene_with(name)))
    assert hashlib.sha256(outcomes.encode()).hexdigest() == EDIT_OUTCOMES_SHA256[name]



# Two problems in one document, and the one named first: the scene reads room
# first, a furniture piece its footprint, and each mapping is read whole, where
# its values are read.
@pytest.mark.parametrize("doc, text", [
    ({"name": 5}, "config.room: missing required field"),
    (dict(MINI_SCENE, furniture=[{"id": 5, "footprint": []}]), "furniture[0].footprint: needs at least 3 vertices"),
    (dict(MINI_SCENE, furniture=[{"id": 5, "grasp_difficulty": "x"}]),
     "furniture[0].footprint: missing required field"),
    (dict(MINI_SCENE, furniture=[{"footprint": [[0, 0], [1, 0], [1, 1]], "id": 5, "grasp_difficulty": "x"}]),
     "furniture[0].id: expected a JSON string, got 5"),
    (dict(MINI_SCENE, variation={"receptacle_pool": "x", "shuffle_offsets": 1}),
     "variation.receptacle_pool: expected a JSON object, got 'x'"),
    (dict(MINI_SCENE, variation={"extra_count_range": "x", "shuffle_offsets": 1}),
     "variation.shuffle_offsets: expected a JSON boolean, got 1"),
], ids=["room-before-name", "footprint-before-id", "footprint-missing", "id-before-grasp-difficulty",
        "pool-before-shuffle", "shuffle-before-extra-count-range"])
def test_the_first_of_two_scene_problems_is_named(doc, text):
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == text


@pytest.mark.parametrize("edit, text", [
    (lambda doc: doc["objects"][0].update(offset=["0.1", "-0.0"]),
     "objects[0].offset[0]: expected a finite number, got '0.1'"),
    (lambda doc: doc["objects"][0].update(offset=[False, False]),
     "objects[0].offset[0]: expected a finite number, got False"),
    (lambda doc: doc["room"].update(width="4"), "room.width: expected a finite number, got '4'"),
    (lambda doc: doc.update(arm_reach=True), "arm_reach: expected a finite number, got True"),
], ids=["offset-strings", "offset-booleans", "room-width-string", "arm-reach-boolean"])
def test_a_scene_number_is_a_json_number_never_a_string_or_a_boolean(edit, text):
    doc = copy.deepcopy(MINI_SCENE)
    edit(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == text


# validate_config's checks that no bundled or generated scene fires.
@pytest.mark.parametrize("edit, text", [
    (lambda doc: doc["furniture"][1].update(id="table_0"), "furniture[1].id: duplicate furniture id 'table_0'"),
    (lambda doc: doc["objects"][1].update(id="toy_0"), "objects[1].id: duplicate object id 'toy_0'"),
    (lambda doc: doc["objects"][0].update(id="bed_0"), "objects[0].id: duplicate object id 'bed_0'"),
    (lambda doc: doc["furniture"][0].update(grasp_difficulty={"north": 1.0, "up": 2.0}),
     "furniture[0].grasp_difficulty: unknown side 'up'"),
    (lambda doc: doc["furniture"][0].update(grasp_difficulty={"north": -0.5}),
     "furniture[0].grasp_difficulty.north: multiplier must be >= 0"),
], ids=["furniture-id-repeats", "object-id-repeats", "object-id-names-furniture", "grasp-side-unknown",
        "grasp-multiplier-negative"])
def test_a_repeated_id_or_a_bad_grasp_difficulty_is_refused(edit, text):
    doc = copy.deepcopy(MINI_SCENE)
    edit(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value) == text
