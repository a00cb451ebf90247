"""The per-layout SceneGeometry cache and the memoised first sweep.

Every World of one layout shares one read-only geometry, and a trial's
first ``explore_global`` is served from the geometry's memo after the first
trial. Neither may change a single trace byte.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeloop import perception
from homeloop.config import load_builtin_suite, parse_config, vary_config
from homeloop.errors import ConfigError
from homeloop.geometry import Pose
from homeloop.harness import make_planner_factory, run_suite
from homeloop.perception import Belief, explore_global
from homeloop.world import SceneGeometry, World, geometry_cache

from conftest import MINI_SCENE

BUNDLED_SCENES = ("bedroom", "fruit_among_cups", "gather_cups", "move_cup_and_toy", "move_toy",
                  "place_fruit", "prepare_cup", "tidy_table", "transfer_all_toys")

# One table in a 1.2 m room: the first sense sees every reachable cell, so
# no frontier is left and the robot never moves. The sensing radius is at
# most the room's diagonal, as validation requires.
TINY_SCENE = {
    "name": "tiny",
    "room": {"width": 1.2, "height": 1.2},
    "sensing_radius": 1.5,
    "robot_start": {"x": 0.8, "y": 0.8},
    "furniture": [
        {"id": "table_0", "category": "table", "footprint": [[0.0, 0.0], [0.4, 0.0], [0.4, 0.4], [0.0, 0.4]],
         "surface_height": "mid"},
    ],
    "objects": [],
}


def builtin_doc(name: str) -> dict:
    return json.loads(resources.files("homeloop").joinpath(f"data/scenes/{name}.json").read_text("utf-8"))


def builtin_config(name: str):
    return parse_config(builtin_doc(name))


def two_room(seed: int) -> dict:
    """A seeded two-room layout: an interior wall with one doorway, a table
    against the south and north walls of each room, the robot in the west
    room."""
    rng = random.Random(f"two_room:{seed}")
    w, h = round(rng.uniform(7.0, 9.0), 1), round(rng.uniform(5.0, 6.0), 1)
    wall = round(w / 2, 1)
    door = round(rng.uniform(1.5, h - 2.5), 1)

    def rect(fid, category, x0, y0, x1, y1, surface="mid"):
        return {"id": fid, "category": category, "footprint": [[x0, y0], [x1, y0], [x1, y1], [x0, y1]],
                "surface_height": surface}

    furniture = [
        rect("wall_0", "wall", wall, 0.0, wall + 0.2, door, None),
        rect("wall_1", "wall", wall, door + 1.0, wall + 0.2, h, None),
    ]
    for i, x0 in enumerate((round(rng.uniform(0.3, wall - 1.9), 1), round(rng.uniform(wall + 0.8, w - 1.5), 1))):
        furniture.append(rect(f"table_{2 * i}", "table", x0, 0.0, x0 + 1.2, 0.7))
        furniture.append(rect(f"table_{2 * i + 1}", "table", x0, h - 0.7, x0 + 1.2, h))
    return {
        "name": f"two_room_{seed}",
        "room": {"width": w, "height": h},
        "robot_start": {"x": round(wall / 2, 1), "y": round(h / 2, 1)},
        "furniture": furniture,
        "objects": [{"id": "toy_0", "category": "toy", "on": "table_0", "offset": [0.0, 0.0]}],
    }


# Scenes whose first sense, from the start, leaves no frontier: the 3 m
# bundled rooms lie within the 3 m sensing radius.
STAYS_PUT = {"tiny", "fruit_among_cups", "place_fruit", "prepare_cup", "tidy_table"}

SWEEP_CASES = {name: builtin_doc(name) for name in BUNDLED_SCENES}
SWEEP_CASES.update({"two_room_1": two_room(1), "two_room_2": two_room(2), "tiny": TINY_SCENE})


def trace_bytes(out) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "run_meta.json"}


# --- read-only shared state ---------------------------------------------------------


def test_shared_geometry_cannot_be_written():
    """The shared masks are ints, so a trial can only rebind its own names:
    after a trial that sweeps twice (the second from global-level recovery),
    the geometry's free cells, reachable cells and memo are what they were."""
    geometry_cache.cache_clear()
    world, belief = World(builtin_config("bedroom")), Belief()
    geometry = world.geometry
    free, reachable = geometry.grid.free, geometry.reachable
    assert isinstance(free, int) and isinstance(reachable, int)
    explore_global(world, belief)  # a miss: fills the memo
    memo = dict(geometry.first_sweeps)
    explore_global(world, belief)  # extends the trial's own map
    assert (geometry.grid.free, geometry.reachable, geometry.first_sweeps) == (free, reachable, memo)
    assert all(isinstance(cells, frozenset) for cells in world.footprint_cells.values())


def test_trial_explored_mask_is_a_copy_of_the_memo():
    """A trial that extends its explored mask leaves the memo's mask as it
    was, and a later memo hit gets a mask equal to the memo's."""
    geometry_cache.cache_clear()
    config = builtin_config("bedroom")
    world, belief = World(config), Belief()
    explore_global(world, belief)  # a miss: fills the memo
    memo = dict(world.geometry.first_sweeps)
    (first, _), = memo.values()
    assert isinstance(first, int) and first
    explore_global(world, belief)  # extends the trial's own map
    assert belief.global_map.explored_mask & first == first
    assert world.geometry.first_sweeps == memo
    hit = Belief()
    explore_global(World(config), hit)
    assert hit.global_map.explored_mask == first


def test_parallel_suite_writes_the_same_bytes_as_serial(tmp_path):
    """Worker threads share a cold cache; a short switch interval makes them
    race on building geometries, approach tables and first sweeps."""
    suite = load_builtin_suite("acceptance")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (2, 4):
            geometry_cache.cache_clear()
            run_suite(suite, make_planner_factory("scripted"), out_dir=str(tmp_path / f"threads{workers}"),
                      base_seed=4, parallel=workers)
    finally:
        sys.setswitchinterval(interval)
    run_suite(suite, make_planner_factory("scripted"), out_dir=str(tmp_path / "serial"), base_seed=4)
    serial = trace_bytes(tmp_path / "serial")
    assert trace_bytes(tmp_path / "threads2") == serial
    assert trace_bytes(tmp_path / "threads4") == serial


# --- cold and warm give the same trial ----------------------------------------------


def test_cold_and_warm_cache_write_identical_traces(tmp_path):
    suite = load_builtin_suite("benchmark")
    geometry_cache.cache_clear()
    run_suite(suite, make_planner_factory("scripted"), out_dir=str(tmp_path / "cold"), base_seed=9)
    misses = geometry_cache.cache_info().misses
    run_suite(suite, make_planner_factory("scripted"), out_dir=str(tmp_path / "warm"), base_seed=9)
    assert geometry_cache.cache_info().misses == misses  # the warm run built nothing
    cold, warm = trace_bytes(tmp_path / "cold"), trace_bytes(tmp_path / "warm")
    assert len(cold) == 62  # 60 traces and the two reports
    assert cold == warm


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_memoised_first_sweep_matches_a_fresh_one(case, monkeypatch):
    config = parse_config(copy.deepcopy(SWEEP_CASES[case]))
    geometry_cache.cache_clear()
    fresh_world, fresh = World(config), Belief()
    explore_global(fresh_world, fresh)  # a miss: runs the frontier loop
    (_, end), = fresh_world.geometry.first_sweeps.values()
    moved = fresh_world.robot != config.robot_start
    assert (end is not None) == moved
    assert moved == (case not in STAYS_PUT)

    # the heading is not part of the memo: a hit keeps the robot's own
    hit_config = replace(config, robot_start=replace(config.robot_start, heading=1.25))
    hit_world, hit = World(hit_config), Belief()
    assert hit_world.geometry is fresh_world.geometry
    monkeypatch.setattr(perception, "_sweep", lambda *a: pytest.fail("a memo hit ran the frontier loop"))
    explore_global(hit_world, hit)

    assert hit.global_map.explored_mask == fresh.global_map.explored_mask
    assert hit.global_map.furniture == fresh.global_map.furniture
    assert hit_world.robot == Pose(fresh_world.robot.x, fresh_world.robot.y, 1.25)


def test_sensing_radius_keys_its_own_first_sweep():
    geometry_cache.cache_clear()
    config = builtin_config("bedroom")
    for radius in (3.0, 1.5):
        explore_global(World(replace(config, sensing_radius=radius)), Belief())
    world = World(config)
    assert sorted(radius for _, radius in world.geometry.first_sweeps) == [1.5, 3.0]
    short, full = (world.geometry.first_sweeps[(world.robot_cell(), r)] for r in (1.5, 3.0))
    assert short[1] != full[1]  # a shorter radius ends the sweep elsewhere


def test_later_sweeps_are_not_memoised():
    geometry_cache.cache_clear()
    world, belief = World(builtin_config("bedroom")), Belief()
    explore_global(world, belief)
    explore_global(world, belief)  # global-level recovery: extends the map it has
    assert len(world.geometry.first_sweeps) == 1


# --- the cache key ----------------------------------------------------------------------


def test_vary_config_draws_share_one_geometry():
    config = builtin_config("move_toy")
    a, b = vary_config(config, 1), vary_config(config, 2)
    assert [o.offset for o in a.objects] != [o.offset for o in b.objects]
    assert World(a).geometry is World(b).geometry


def test_bundled_scenes_with_one_layout_share_one_geometry():
    assert World(builtin_config("bedroom")).geometry is World(builtin_config("move_toy")).geometry
    assert World(builtin_config("tidy_table")).geometry is World(builtin_config("place_fruit")).geometry
    assert World(builtin_config("bedroom")).geometry is not World(builtin_config("tidy_table")).geometry


def test_moved_start_or_footprint_gets_its_own_geometry():
    base = World(parse_config(MINI_SCENE))
    moved_start = copy.deepcopy(MINI_SCENE)
    moved_start["robot_start"]["x"] += 0.5
    moved_table = copy.deepcopy(MINI_SCENE)
    moved_table["furniture"][0]["footprint"] = [[x - 0.1, y] for x, y in MINI_SCENE["furniture"][0]["footprint"]]
    for doc in (moved_start, moved_table):
        world = World(parse_config(doc))
        assert world.geometry is not base.geometry
    assert World(parse_config(moved_start)).robot_cell() != base.robot_cell()
    assert World(parse_config(moved_table)).footprint_cells["table_0"] != base.footprint_cells["table_0"]


def test_bad_robot_start_is_never_cached():
    # validation rejects the scene, so no geometry of it is ever built
    geometry_cache.cache_clear()
    doc = copy.deepcopy(MINI_SCENE)
    doc["robot_start"] = {"x": 1.0, "y": 2.3}  # on table_0
    with pytest.raises(ConfigError, match="robot_start"):
        parse_config(doc)
    assert geometry_cache.cache_info().currsize == 0


def start_points(doc: dict) -> st.SearchStrategy:
    """Points of the room, often on a cell edge or centre or on a footprint's edge."""
    w, h, res = doc["room"]["width"], doc["room"]["height"], doc["grid_resolution"]
    xs = {x for f in doc["furniture"] for x, _ in f["footprint"]}
    ys = {y for f in doc["furniture"] for _, y in f["footprint"]}

    def axis(size, edges):
        grid = st.integers(0, int(2 * size / res)).map(lambda k: min(size, k * res / 2))
        return st.floats(0.0, size) | grid | st.sampled_from(sorted(edges))

    return st.tuples(axis(w, xs), axis(h, ys))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BUNDLED_SCENES).flatmap(lambda name: st.tuples(st.just(name), start_points(builtin_doc(name)))))
def test_validation_rejects_exactly_the_starts_the_grid_marks_occupied(case):
    name, (x, y) = case
    doc = dict(builtin_doc(name), robot_start={"x": x, "y": y})
    try:
        parse_config(doc)
        accepted = True
    except ConfigError as exc:
        assert exc.field_path == "robot_start", exc
        accepted = False
    geometry = SceneGeometry(
        (doc["room"]["width"], doc["room"]["height"]), doc["grid_resolution"],
        tuple((f["id"], tuple(map(tuple, f["footprint"]))) for f in doc["furniture"]), (x, y),
    )
    assert accepted == geometry.grid.is_free(geometry.grid.cell_of(x, y)), (name, x, y)


def test_cache_keeps_at_most_sixteen_layouts():
    geometry_cache.cache_clear()
    for i in range(17):
        doc = copy.deepcopy(TINY_SCENE)
        doc["room"]["width"] = 1.2 + 0.1 * i
        World(parse_config(doc))
    info = geometry_cache.cache_info()
    assert info.misses == 17
    assert info.currsize <= 16
