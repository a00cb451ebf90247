from __future__ import annotations

import contextlib
import copy
import json
import math
import random
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeloop.errors import ConfigError, PreconditionFault, Refused
from homeloop.geometry import Pose, bresenham, point_in_polygon, polygon_bbox, polygon_centroid, side_of
from homeloop.config import ObjectSpec, parse_config, validate_config, vary_config
from homeloop.world import ActionRequest, GroundObject, Placement, World

from conftest import MINI_SCENE, make_world, scene, zero_noise


def load_builtin_scene(name: str) -> dict:
    payload = resources.files("homeloop").joinpath(f"data/scenes/{name}.json").read_text("utf-8")
    return json.loads(payload)


def test_bedroom_scene_counts():
    world = make_world(load_builtin_scene("bedroom"))
    assert len(world.furniture) == 4
    assert len(world.objects) == 3
    assert {f.category for f in world.furniture.values()} == {"table", "bed", "sofa"}


def test_overlapping_furniture_rejected():
    doc = copy.deepcopy(MINI_SCENE)
    doc["furniture"][1]["footprint"] = [[1.0, 2.0], [2.2, 2.0], [2.2, 2.7], [1.0, 2.7]]
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "furniture overlap" in str(exc.value)


def test_missing_receptacle_rejected():
    doc = copy.deepcopy(MINI_SCENE)
    doc["objects"][0]["on"] = "table_9"
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "table_9" in str(exc.value)
    assert exc.value.field_path.startswith("objects[0]")


def test_footprint_outside_room_rejected():
    doc = copy.deepcopy(MINI_SCENE)
    doc["furniture"][0]["footprint"] = [[-0.5, 2.0], [1.7, 2.0], [1.7, 2.7], [-0.5, 2.7]]
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "outside room bounds" in str(exc.value)
    assert exc.value.field_path == "furniture[0].footprint[0]"


def test_bad_probability_rejected():
    doc = scene(MINI_SCENE, p_grasp_fail=1.5)
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "p_grasp_fail" in exc.value.field_path


def _count_rect_cells(rect_min, rect_max, res=0.1, width=7.0, height=5.0) -> int:
    # independent center-in-rectangle count, no shared geometry code
    count = 0
    nx, ny = int(round(width / res)), int(round(height / res))
    for cy in range(ny):
        for cx in range(nx):
            x, y = (cx + 0.5) * res, (cy + 0.5) * res
            if rect_min[0] <= x <= rect_max[0] and rect_min[1] <= y <= rect_max[1]:
                count += 1
    return count


def test_bedroom_reachable_free_cells_flood_fill_oracle():
    doc = load_builtin_scene("bedroom")
    world = make_world(doc)
    occupied = 0
    for f in doc["furniture"]:
        xs = [p[0] for p in f["footprint"]]
        ys = [p[1] for p in f["footprint"]]
        occupied += _count_rect_cells((min(xs), min(ys)), (max(xs), max(ys)))
    total = world.grid.width * world.grid.height
    # the bedroom has no enclosed pockets: every free cell is reachable
    assert world.reachable.bit_count() == total - occupied


def nav(target, side=None):
    return ActionRequest(verb="navigate", target=target, side=side)


def test_zero_noise_grasp_and_place(mini_world):
    world = mini_world
    assert world.apply_action(nav("table_0")).success
    out = world.apply_action(ActionRequest(verb="grasp", target="toy_0"))
    assert out.success
    assert world.objects["toy_0"].placement.kind == "gripper"
    assert world.gripper == "toy_0"
    assert world.apply_action(nav("bed_0")).success
    out = world.apply_action(ActionRequest(verb="place", target="bed_0"))
    assert out.success
    assert world.objects["toy_0"].placement.receptacle == "bed_0"
    assert world.gripper is None


def test_place_without_grasp_is_typed_fault(mini_world):
    with pytest.raises(Refused) as refusal:
        mini_world.apply_action(ActionRequest(verb="place", target="table_0"))
    assert isinstance(refusal.value.fault, PreconditionFault)
    assert "place without prior grasping" in refusal.value.fault.message


def test_grasp_while_full_is_typed_fault(mini_world):
    world = mini_world
    world.apply_action(nav("table_0"))
    assert world.apply_action(ActionRequest(verb="grasp", target="toy_0")).success
    with pytest.raises(Refused) as refusal:
        world.apply_action(ActionRequest(verb="grasp", target="toy_0"))
    assert isinstance(refusal.value.fault, PreconditionFault)
    assert refusal.value.fault.code == "gripper_full"


def test_navigate_unknown_id_is_typed_fault(mini_world):
    with pytest.raises(Refused) as refusal:
        mini_world.apply_action(nav("wardrobe_7"))
    assert refusal.value.fault.code == "unknown_reference"


def test_grasp_failure_rate_monte_carlo():
    world = make_world(MINI_SCENE, **zero_noise(p_grasp_fail=0.5, p_object_shift_on_fail=0.0), rng_seed=7)
    assert world.apply_action(nav("table_0")).success
    failures = 0
    reps = 1000
    for _ in range(reps):
        out = world.apply_action(ActionRequest(verb="grasp", target="toy_0"))
        if out.success:
            # reset for the next repetition without consuming RNG draws
            world.objects["toy_0"].placement.kind = "on"
            world.objects["toy_0"].placement.receptacle = "table_0"
            world.objects["toy_0"].placement.offset = (0.3, -0.1)
            world.gripper = None
        else:
            failures += 1
    assert abs(failures / reps - 0.5) <= 0.05


def test_determinism_identical_outcome_sequences():
    requests = [
        nav("table_0"),
        ActionRequest(verb="grasp", target="toy_0"),
        nav("bed_0"),
        ActionRequest(verb="place", target="bed_0"),
        nav("table_1"),
        ActionRequest(verb="grasp", target="cup_0"),
    ]
    def run():
        world = make_world(MINI_SCENE, p_grasp_fail=0.4, p_nav_fail=0.1, rng_seed=11)
        digests = [world.state_digest()]
        outs = []
        for r in requests:
            o = world.apply_action(copy.deepcopy(r))
            outs.append((o.success, o.message))
            digests.append(world.state_digest())
        return outs, digests

    first = run()
    assert first == run()
    assert len(set(first[1])) > 1  # the actions moved the state the digests cover


def test_zero_noise_totality(mini_world):
    # every precondition-satisfying action succeeds when all probabilities are 0
    world = mini_world
    for target in ("table_0", "table_1", "bed_0"):
        assert world.apply_action(nav(target)).success
    world.apply_action(nav("table_1"))
    assert world.apply_action(ActionRequest(verb="grasp", target="cup_0")).success
    assert world.apply_action(ActionRequest(verb="place", target="table_1")).success


VERBS = st.sampled_from(
    [
        ("navigate", "table_0"), ("navigate", "table_1"), ("navigate", "bed_0"),
        ("grasp", "toy_0"), ("grasp", "cup_0"),
        ("place", "table_0"), ("place", "table_1"), ("place", "bed_0"),
    ]
)


@settings(max_examples=40, deadline=None)
@given(st.lists(VERBS, max_size=25), st.integers(min_value=0, max_value=2**31))
def test_placement_exclusivity_and_conservation(actions, seed):
    world = make_world(MINI_SCENE, p_grasp_fail=0.3, p_place_fail=0.2, p_nav_fail=0.1, rng_seed=seed)
    ids = set(world.objects)
    for verb, target in actions:
        with contextlib.suppress(Refused):  # a refusal, like a failed outcome, keeps the invariants
            world.apply_action(ActionRequest(verb=verb, target=target))
        assert set(world.objects) == ids  # conservation
        in_gripper = [oid for oid, o in world.objects.items() if o.placement.kind == "gripper"]
        assert len(in_gripper) <= 1
        if world.gripper is None:
            assert in_gripper == []
        else:
            assert in_gripper == [world.gripper]


def test_side_multiplier_drives_grasp_failure():
    doc = copy.deepcopy(MINI_SCENE)
    doc["furniture"][0]["grasp_difficulty"] = {"south": 1000.0}
    world = make_world(doc, **zero_noise(p_grasp_fail=0.01, p_object_shift_on_fail=0.0))
    # the default approach from the room center comes in from the south
    assert world.apply_action(nav("table_0", side="south")).success
    assert world.robot_side_of("table_0") == "south"
    out = world.apply_action(ActionRequest(verb="grasp", target="toy_0"))
    assert not out.success  # sampled failure, p capped at 1.0
    assert world.apply_action(nav("table_0", side="north")).success
    # from the north side the multiplier does not apply; p = 0.01 over the
    # remaining stream: draw a success quickly
    out = world.apply_action(ActionRequest(verb="grasp", target="toy_0"))
    assert out.success


def test_out_of_reach_fault():
    doc = copy.deepcopy(MINI_SCENE)
    doc["room"] = {"width": 8.0, "height": 4.0}
    doc["furniture"] = [
        {
            "id": "table_0",
            "category": "table",
            "footprint": [[2.0, 1.6], [5.6, 1.6], [5.6, 2.4], [2.0, 2.4]],
            "surface_height": "mid",
        }
    ]
    doc["objects"] = [{"id": "cup_0", "category": "cup", "on": "table_0", "offset": [1.6, 0.0]}]
    doc["robot_start"] = {"x": 1.0, "y": 2.0}
    world = make_world(doc)
    # approach from the west short side: the cup at the east end is too far
    assert world.apply_action(nav("table_0", side="west")).success
    with pytest.raises(Refused) as refusal:
        world.apply_action(ActionRequest(verb="grasp", target="cup_0"))
    assert refusal.value.fault.code == "out_of_reach"
    assert "target out of reach" in refusal.value.message


def test_vary_config_deterministic_and_bounded():
    doc = copy.deepcopy(MINI_SCENE)
    doc["variation"] = {
        "shuffle_offsets": True,
        "extra_count_range": {"toy": [1, 2]},
        "receptacle_pool": {"cup": ["table_0", "table_1"]},
    }
    base = parse_config(doc)
    a = vary_config(base, trial_seed=5)
    b = vary_config(base, trial_seed=5)
    c = vary_config(base, trial_seed=6)
    assert [(o.id, o.on, o.offset) for o in a.objects] == [(o.id, o.on, o.offset) for o in b.objects]
    assert [(o.id, o.on, o.offset) for o in a.objects] != [(o.id, o.on, o.offset) for o in c.objects]
    extra = [o for o in a.objects if o.id.startswith("toy_v")]
    assert 1 <= len(extra) <= 2
    for o in a.objects:
        if o.category == "cup":
            assert o.on in ("table_0", "table_1")
    validate_config(a)  # varied scenes still satisfy every config invariant


def test_place_onto_dropped_receptacle_is_typed_fault():
    world = make_world(load_builtin_scene("tidy_table"), **zero_noise())
    assert world.apply_action(nav("table_0")).success
    assert world.apply_action(ActionRequest(verb="grasp", target="box_0")).success
    world.config.noise.p_place_fail = 1.0
    out = world.apply_action(ActionRequest(verb="place", target="table_0"))
    assert not out.success and out.details == {"dropped": "box_0"}
    assert world.objects["box_0"].placement.kind == "floor"
    world.config.noise.p_place_fail = 0.0
    assert world.apply_action(ActionRequest(verb="grasp", target="toy_0")).success
    with pytest.raises(Refused) as refusal:
        world.apply_action(ActionRequest(verb="place", target="box_0"))
    assert isinstance(refusal.value.fault, PreconditionFault)
    assert refusal.value.fault.code == "bad_argument"
    assert refusal.value.fault.message == "box_0 is not resting on a surface"
    assert world.gripper == "toy_0"


def test_a_chain_that_ends_on_the_floor_has_no_root_furniture():
    doc = copy.deepcopy(MINI_SCENE)
    doc["objects"] += [
        {"id": "plate_0", "category": "plate", "floor": [1.0, 1.0], "receptacle": True, "extent": [0.3, 0.3]},
        {"id": "cup_1", "category": "cup", "on": "plate_0", "offset": [0.0, 0.0]},
    ]
    world = make_world(doc)
    assert world.root_furniture_of("plate_0") is None
    assert world.root_furniture_of("cup_1") is None
    assert world.root_furniture_of("toy_0") == "table_0"
    rooted = {fid: world.objects_rooted_at(fid) for fid in world.furniture}
    assert rooted == {"table_0": ["toy_0"], "table_1": ["cup_0"], "bed_0": []}


def bundled_scene_docs():
    scenes = resources.files("homeloop").joinpath("data/scenes")
    return [json.loads(p.read_text("utf-8")) for p in sorted(scenes.iterdir(), key=lambda p: p.name)]


def apartment_docs():
    """Three generated ``apartments`` layouts, each with furniture against the
    west and the east wall: in column 0 and in the last column, where a 3x3
    dilation of a cell spills into the guard bits of the packed layout."""
    from perfbench.generators import apartment

    return [apartment(0, 0, index)[0] for index in (3, 4, 5)]


def footprint_cells_by_point(world):
    """Each furniture's cells: those whose centre ``point_in_polygon`` puts
    inside its footprint."""
    centres = {(cx, cy): world.grid.center_of((cx, cy)) for cx in range(world.grid.width)
               for cy in range(world.grid.height)}
    footprints = {}
    for fid, f in world.furniture.items():
        minx, miny, maxx, maxy = polygon_bbox(f.footprint)
        footprints[fid] = {c for c, (x, y) in centres.items()
                           if minx <= x <= maxx and miny <= y <= maxy and point_in_polygon(x, y, f.footprint)}
    return footprints


def test_robot_adjacent_to_matches_an_eight_neighbour_reference():
    adjacent = at_edge = 0
    for doc in bundled_scene_docs() + apartment_docs():
        world = make_world(doc)
        footprints = footprint_cells_by_point(world)
        for cx, cy in world.grid.packed.iter_cells(world.grid.free):
            world.robot = Pose(*world.grid.center_of((cx, cy)), 0.0)
            neighbours = {(cx + dx, cy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy}
            for fid, cells in footprints.items():
                expected = not neighbours.isdisjoint(cells)
                assert world.robot_adjacent_to(fid) == expected, (doc["name"], (cx, cy), fid)
                adjacent += expected
                at_edge += expected and cx in (0, world.grid.width - 1)
    assert adjacent > 0 and at_edge > 0


# --- approach table vs the per-call computation it replaced ------------------------

# table_1 sits in the room's north-east corner behind an L-shaped wall, so
# every free cell around it is unreachable from the start.
WALLED_SCENE = {
    "name": "walled",
    "room": {"width": 4.0, "height": 3.0},
    "robot_start": {"x": 1.5, "y": 1.0},
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
            "footprint": [[3.4, 2.5], [3.8, 2.5], [3.8, 2.8], [3.4, 2.8]],
            "surface_height": "mid",
        },
        {
            "id": "wall_0",
            "category": "wall",
            "footprint": [[3.0, 3.0], [3.0, 2.0], [4.0, 2.0], [4.0, 2.2], [3.2, 2.2], [3.2, 3.0]],
        },
    ],
    "objects": [{"id": "cup_0", "category": "cup", "on": "table_0", "offset": [0.1, 0.0]}],
    "noise": {"rng_seed": 0},
}


def free_cells_around(world, footprints, fid):
    """The free cells 8-adjacent to a footprint's cells: on the grid and in
    no footprint of ``footprints`` (``footprint_cells_by_point``)."""
    occupied = set().union(*footprints.values())
    return {n for cx, cy in footprints[fid] for n in ((cx + dx, cy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
            if 0 <= n[0] < world.grid.width and 0 <= n[1] < world.grid.height and n not in occupied}


def reference_approach_cells(world, around, fid, side):
    """``around``: the free cells 8-adjacent to the furniture's footprint."""
    cells = {c for c in around if world.reachable & world.grid.packed.bit(c)}
    if side is not None:
        centroid = polygon_centroid(world.furniture[fid].footprint)
        cells = {c for c in cells if side_of(centroid, world.grid.center_of(c)) == side}
    return sorted(cells)


def reference_select_approach(world, around, fid, side, focus):
    candidates = set(reference_approach_cells(world, around, fid, side))
    if not candidates:
        return None
    if focus is None:
        centroid_cell = world.grid.cell_of(*polygon_centroid(world.furniture[fid].footprint))
        for cell in bresenham(world.robot_cell(), centroid_cell):
            if cell in candidates:
                return cell
    px, py = focus if focus is not None else (world.robot.x, world.robot.y)

    def key(cell):
        x, y = world.grid.center_of(cell)
        return ((x - px) ** 2 + (y - py) ** 2, cell[0], cell[1])

    return min(candidates, key=key)


def approach_worlds():
    for doc in bundled_scene_docs() + [WALLED_SCENE] + apartment_docs():
        for seed in (0, 5, 23):
            yield doc["name"], seed, World(vary_config(parse_config(doc), seed))


def test_approach_table_matches_per_call_reference():
    rng = random.Random(41)
    unreachable_cells = 0
    for name, seed, world in approach_worlds():
        free = sorted(world.grid.packed.iter_cells(world.grid.free), key=lambda c: (c[1], c[0]))  # row-major
        width, height = world.config.room
        footprints = footprint_cells_by_point(world)
        for fid in sorted(world.furniture):
            around = free_cells_around(world, footprints, fid)
            unreachable_cells += sum(not world.reachable & world.grid.packed.bit(c) for c in around)
            for side in (None, "north", "east", "south", "west"):
                where = (name, seed, fid, side)
                expected = reference_approach_cells(world, around, fid, side)
                assert list(world.approach_cells(fid, side)) == expected, where
                for _ in range(4):
                    cx, cy = free[rng.randrange(len(free))]
                    x, y = world.grid.center_of((cx, cy))
                    world.robot = Pose(x, y, 0.0)
                    focus = rng.choice([None, (rng.uniform(0, width), rng.uniform(0, height))])
                    got = world.select_approach(fid, side, focus)
                    expected = reference_select_approach(world, around, fid, side, focus)
                    assert got == expected, where + ((cx, cy), focus)
    assert unreachable_cells > 0  # the reachable filter is exercised


def reference_free_offset_on(world, rid):
    """``World.free_offset_on`` as it was when it probed every grid offset."""
    half_w, half_h = world.half_extents[rid]
    margin = 0.05
    anchor = world.anchor_of(rid)
    occupied = [world.position_of(o) for o in world.objects_directly_on(rid)]

    def usable(off):
        if abs(off[0]) > half_w - margin or abs(off[1]) > half_h - margin:
            return False
        pos = (anchor[0] + off[0], anchor[1] + off[1])
        if not world.within_reach(pos):
            return False
        return all((pos[0] - ox) ** 2 + (pos[1] - oy) ** 2 >= 0.1**2 for ox, oy in occupied)

    pitch = 0.05
    ny = max(1, int((2 * (half_h - margin)) / pitch))
    nx = max(1, int((2 * (half_w - margin)) / pitch))
    for iy in range(ny + 1):
        for ix in range(nx + 1):
            off = (-half_w + margin + ix * pitch, -half_h + margin + iy * pitch)
            if usable(off):
                return off
    return None


def grid_point(half, index):
    """The scan's offset at (column, row) ``index``, wrapped onto the grid."""
    out = []
    for h, i in zip(half, index):
        n = max(1, int((2 * (h - 0.05)) / 0.05))
        out.append(-h + 0.05 + (i % (n + 1)) * 0.05)
    return out


HALF = st.sampled_from([0.0, 0.03, 0.05, 0.0500001, 0.07, 0.1, 0.125]) | st.floats(0.0, 0.6)
INDEX = st.tuples(st.integers(0, 30), st.integers(0, 30))
ANGLE = st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2]) | st.floats(0.0, 2 * math.pi)
# from a grid point: on or near the 0.1 m clearance circle, or anywhere
# within 0.25 m
RADIUS = st.sampled_from([0.0, 0.05, 0.095, 0.0999999, 0.1, 0.1000001]) | st.floats(0.0, 0.15)
NEAR = st.builds(lambda r, a: (r * math.cos(a), r * math.sin(a)), RADIUS, ANGLE) | st.tuples(
    st.floats(-0.25, 0.25), st.floats(-0.25, 0.25)
)


PLATE_SCENE = parse_config(
    dict(MINI_SCENE, objects=[{"id": "plate_0", "category": "plate", "floor": [1.0, 1.0], "receptacle": True,
                               "extent": [0.2, 0.2]}])
)


@settings(max_examples=400, deadline=None)
@given(
    half=st.tuples(HALF, HALF),
    anchor=st.tuples(st.floats(0.3, 3.7), st.floats(0.3, 2.7)),
    reach=st.sampled_from([0.0, 0.1, 1.0]) | st.floats(0.0, 1.5),
    robot=st.tuples(INDEX, ANGLE, st.sampled_from([-1e-9, 0.0, 1e-9]) | st.floats(-0.3, 0.3)),
    occupied=st.lists(st.tuples(INDEX, NEAR), max_size=8),
)
def test_free_offset_on_matches_the_probing_reference(half, anchor, reach, robot, occupied):
    """The same first offset, as the same floats, or None, for surfaces
    narrower than, as wide as and wider than the margin, a robot on either
    side of the reach boundary from some grid point, and objects on or near
    the 0.1 m clearance circle of some grid point."""
    world = World(replace(PLATE_SCENE, arm_reach=reach))
    world.objects["plate_0"].placement = Placement.on_floor(anchor)
    world.half_extents["plate_0"] = half
    index, angle, slack = robot
    gx, gy = grid_point(half, index)
    r = reach + slack
    world.robot = Pose(anchor[0] + gx + r * math.cos(angle), anchor[1] + gy + r * math.sin(angle), 0.0)
    for k, (index, (dx, dy)) in enumerate(occupied):
        gx, gy = grid_point(half, index)
        spec = ObjectSpec(id=f"cup_{k + 10}", category="cup", on="plate_0", offset=(gx + dx, gy + dy))
        world.objects[spec.id] = GroundObject(spec, Placement.on("plate_0", spec.offset))
    expected = reference_free_offset_on(world, "plate_0")
    got = world.free_offset_on("plate_0")
    assert got == expected
    if got is not None:  # the same floats, bit for bit
        assert tuple(map(float.hex, got)) == tuple(map(float.hex, expected))


def test_a_phantom_id_skips_furniture_ids():
    doc = copy.deepcopy(MINI_SCENE)
    doc["furniture"][2]["id"] = "cup_0"  # the bed
    doc["objects"] = [o for o in doc["objects"] if o["id"] != "cup_0"]
    world = make_world(doc)
    assert "cup_0" in world.furniture
    assert world.mint_phantom_id("cup") == "cup_1"
