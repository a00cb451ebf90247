from __future__ import annotations

import copy

import pytest

from homeloop.goals import parse_goal
from homeloop.harness import TaskSpec, TrialOptions, resolve_noise_profile
from homeloop.world import World, parse_config

# A small two-table room used where the full bedroom would be overkill.
MINI_SCENE = {
    "name": "mini",
    "room": {"width": 4.0, "height": 3.0},
    "robot_start": {"x": 2.0, "y": 1.5},
    "furniture": [
        {
            "id": "table_0",
            "category": "table",
            "footprint": [[0.5, 2.0], [1.7, 2.0], [1.7, 2.7], [0.5, 2.7]],
            "surface_height": "mid",
        },
        {
            "id": "table_1",
            "category": "table",
            "footprint": [[2.4, 2.0], [3.6, 2.0], [3.6, 2.7], [2.4, 2.7]],
            "surface_height": "mid",
        },
        {
            "id": "bed_0",
            "category": "bed",
            "footprint": [[2.4, 0.3], [3.6, 0.3], [3.6, 1.3], [2.4, 1.3]],
            "surface_height": "low",
        },
    ],
    "objects": [
        {"id": "toy_0", "category": "toy", "on": "table_0", "offset": [0.3, -0.1]},
        {"id": "cup_0", "category": "cup", "on": "table_1", "offset": [-0.2, 0.1]},
    ],
    "noise": {"rng_seed": 0},
}

# Two cups and a doll on one table: the false-positive unmasking scenario.
DOLL_SCENE = {
    "name": "doll",
    "room": {"width": 3.0, "height": 3.0},
    "robot_start": {"x": 1.5, "y": 0.6},
    "furniture": [
        {
            "id": "table_0",
            "category": "table",
            "footprint": [[0.9, 1.2], [2.1, 1.2], [2.1, 2.0], [0.9, 2.0]],
            "surface_height": "mid",
        },
    ],
    "objects": [
        {"id": "cup_1", "category": "cup", "attributes": ["used"], "on": "table_0", "offset": [-0.3, 0.0]},
        {"id": "cup_2", "category": "cup", "attributes": ["empty"], "on": "table_0", "offset": [0.0, -0.2]},
        {"id": "doll_0", "category": "doll", "attributes": ["plush"], "on": "table_0", "offset": [0.3, 0.1]},
    ],
    "noise": {"rng_seed": 0},
}


def scene(doc: dict, **noise) -> dict:
    out = copy.deepcopy(doc)
    out["noise"] = {**out.get("noise", {}), **noise}
    return out


def make_world(doc: dict, **noise) -> World:
    return World(parse_config(scene(doc, **noise)))


def mini_task(goal=None, **task_kw) -> TaskSpec:
    return TaskSpec(
        id=task_kw.pop("id", "mini"),
        name="mini_move",
        instruction="Move the toy to the bed.",
        scene=parse_config(MINI_SCENE),
        goal=goal or parse_goal({"on": {"object": {"id": "toy_0"}, "receptacle": {"id": "bed_0"}}}),
        trial_count=1,
        **task_kw,
    )


@pytest.fixture
def mini_world() -> World:
    return make_world(MINI_SCENE)


@pytest.fixture
def zero_options() -> TrialOptions:
    return TrialOptions(noise=resolve_noise_profile("zero"))


def zero_noise(**overrides) -> dict:
    return dict(resolve_noise_profile("zero"), **overrides)
