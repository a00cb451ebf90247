from __future__ import annotations

import copy
import json
from importlib import resources

import pytest

import numpy as np

from homeloop.errors import NotAtReceptacle, Refused, TargetNotVisible
from homeloop.perception import (
    Belief,
    BeliefObject,
    GlobalMap,
    SceneObject,
    capture,
    explore_global,
    explore_local,
    refresh_local,
    report_observation,
)
from homeloop.planning.scripted import _root_of
from homeloop.world import ActionRequest

from conftest import DOLL_SCENE, MINI_SCENE, make_world, zero_noise


def load_builtin_scene(name: str) -> dict:
    payload = resources.files("homeloop").joinpath(f"data/scenes/{name}.json").read_text("utf-8")
    return json.loads(payload)


def explored_world(doc, **noise):
    world = make_world(doc, **noise)
    belief = Belief()
    explore_global(world, belief)
    return world, belief


def goto(world, belief, rid):
    out = world.apply_action(ActionRequest(verb="navigate", target=rid))
    assert out.success
    belief.at_receptacle = rid
    return out


# --- global exploration -------------------------------------------------------


def test_bedroom_global_map_zero_noise():
    world, belief = explored_world(load_builtin_scene("bedroom"))
    assert {f.id for f in belief.global_map.furniture} == {"table_0", "table_1", "bed_0", "sofa_0"}


def test_exploration_covers_reachable_free_space():
    for name in ("bedroom", "move_toy", "place_fruit"):
        world, belief = explored_world(load_builtin_scene(name))
        free_reachable = world.reachable
        explored_free = belief.global_map.explored_mask & (world.grid.occ == 0)
        covered = (explored_free & free_reachable).sum()
        assert covered >= 0.99 * free_reachable.sum()


def test_walled_alcove_furniture_stays_unknown():
    doc = copy.deepcopy(MINI_SCENE)
    doc["room"] = {"width": 6.0, "height": 3.0}
    # a sealed alcove in the east end, wall thickness 0.2
    doc["furniture"] = [
        {
            "id": "table_0",
            "category": "table",
            "footprint": [[0.5, 2.0], [1.7, 2.0], [1.7, 2.7], [0.5, 2.7]],
            "surface_height": "mid",
        },
        {
            "id": "wall_0",
            "category": "wall",
            "footprint": [[4.6, 0.0], [4.8, 0.0], [4.8, 3.0], [4.6, 3.0]],
            "surface_height": None,
        },
        {
            "id": "table_hidden",
            "category": "table",
            "footprint": [[5.2, 1.0], [5.8, 1.0], [5.8, 2.0], [5.2, 2.0]],
            "surface_height": "mid",
        },
    ]
    doc["objects"] = []
    world, belief = explored_world(doc)
    ids = {f.id for f in belief.global_map.furniture}
    assert "table_hidden" not in ids
    assert "table_0" in ids and "wall_0" in ids


def test_monotone_coverage():
    world = make_world(load_builtin_scene("bedroom"))
    belief = Belief()
    explore_global(world, belief)
    first = belief.global_map.explored_mask.copy()
    explore_global(world, belief)
    second = belief.global_map.explored_mask
    assert (second & first).sum() == first.sum()  # never shrinks


def test_frontier_termination_leaves_no_reachable_frontier():
    world, belief = explored_world(load_builtin_scene("bedroom"))
    explored_free = belief.global_map.explored_mask & (world.grid.occ == 0)
    assert (explored_free & world.reachable).sum() == world.reachable.sum()


# --- local scans ----------------------------------------------------------------


def test_explore_local_zero_noise_matches_ground():
    world, belief = explored_world(DOLL_SCENE)
    goto(world, belief, "table_0")
    lmap = explore_local(world, belief, "table_0")
    assert {o.id for o in lmap.items} == {"cup_1", "cup_2", "doll_0"}
    for item in lmap.items:
        assert item.category == world.objects[item.id].spec.category
        assert item.parent_id == "table_0"


def test_explore_local_requires_adjacency():
    world, belief = explored_world(DOLL_SCENE)
    with pytest.raises(Refused) as exc:
        explore_local(world, belief, "table_0")
    assert "table_0" in str(exc.value)
    assert isinstance(exc.value.fault, NotAtReceptacle)


def test_missed_detection_one_means_empty_map():
    world, belief = explored_world(DOLL_SCENE, **zero_noise(p_missed_detection=1.0))
    goto(world, belief, "table_0")
    lmap = explore_local(world, belief, "table_0")
    assert [o for o in lmap.items if o.id in world.objects] == []


def test_phantom_inserted_and_unmasked_by_closeup():
    world, belief = explored_world(DOLL_SCENE, **zero_noise(p_false_positive=1.0))
    goto(world, belief, "table_0")
    lmap = explore_local(world, belief, "table_0")
    phantoms = [o for o in lmap.items if o.id in world.phantoms]
    assert len(phantoms) == 1
    phantom = phantoms[0]
    record = world.phantoms[phantom.id]
    assert phantom.category != record.reveal_category
    # the close-up reveals what actually occupies the spot
    obs = report_observation(world, belief, phantom)
    revealed = obs.find(phantom.id)
    assert revealed is not None
    assert revealed.category == record.reveal_category
    assert belief.objects[phantom.id].ruled_out


def test_closeup_reports_ground_truth_attributes():
    world, belief = explored_world(DOLL_SCENE)
    goto(world, belief, "table_0")
    lmap = explore_local(world, belief, "table_0")
    obs = report_observation(world, belief, lmap.find("cup_2"))
    snap = obs.find("cup_2")
    assert snap.attributes == frozenset({"empty"})
    assert belief.objects["cup_2"].inspected


def test_closeup_neighbors_within_radius():
    world, belief = explored_world(DOLL_SCENE)
    goto(world, belief, "table_0")
    lmap = explore_local(world, belief, "table_0")
    obs = report_observation(world, belief, lmap.find("cup_1"))
    for snap in obs.visible:
        pos = world.position_of(snap.id)
        target = world.position_of("cup_1")
        assert (pos[0] - target[0]) ** 2 + (pos[1] - target[1]) ** 2 <= world.config.closeup_radius**2


def test_closeup_vanished_target_raises():
    world, belief = explored_world(DOLL_SCENE)
    goto(world, belief, "table_0")
    lmap = explore_local(world, belief, "table_0")
    snap = lmap.find("cup_1")
    world.apply_action(ActionRequest(verb="grasp", target="cup_1"))  # now in gripper
    with pytest.raises(Refused) as exc:
        report_observation(world, belief, snap)
    assert isinstance(exc.value.fault, TargetNotVisible)


def test_stay_mode_empty_when_alone():
    doc = copy.deepcopy(MINI_SCENE)
    doc["objects"] = []
    world = make_world(doc)
    belief = Belief()
    obs = report_observation(world, belief, "stay")
    assert obs.kind == "stay" and obs.visible == ()


def test_refresh_preserves_ids_after_shift():
    world, belief = explored_world(DOLL_SCENE, **zero_noise(p_grasp_fail=1.0, p_object_shift_on_fail=1.0))
    goto(world, belief, "table_0")
    lmap = explore_local(world, belief, "table_0")
    before_pos = lmap.find("cup_1").location
    world.apply_action(ActionRequest(verb="grasp", target="cup_1"))  # fails, shifts cup_1
    lmap.stale = True
    fresh = refresh_local(world, belief, lmap)
    moved = fresh.find("cup_1")
    assert moved is not None  # same id survives the shift
    assert moved.location != before_pos


def test_refresh_drops_removed_object():
    world, belief = explored_world(DOLL_SCENE)
    goto(world, belief, "table_0")
    lmap = explore_local(world, belief, "table_0")
    world.apply_action(ActionRequest(verb="grasp", target="cup_2"))
    lmap.stale = True
    fresh = refresh_local(world, belief, lmap)
    assert fresh.find("cup_2") is None


def test_refresh_identity_when_not_stale():
    world, belief = explored_world(DOLL_SCENE)
    goto(world, belief, "table_0")
    lmap = explore_local(world, belief, "table_0")
    assert refresh_local(world, belief, lmap) is lmap


def test_id_persistence_across_many_refreshes():
    world, belief = explored_world(DOLL_SCENE)
    goto(world, belief, "table_0")
    lmap = explore_local(world, belief, "table_0")
    for _ in range(5):
        lmap.stale = True
        lmap = refresh_local(world, belief, lmap)
        assert {o.id for o in lmap.items} == {"cup_1", "cup_2", "doll_0"}


def test_zero_noise_equivalence_on_bundled_scenes():
    for name in ("bedroom", "move_cup_and_toy", "tidy_table"):
        world, belief = explored_world(load_builtin_scene(name))
        for fid, f in world.furniture.items():
            if not f.is_receptacle:
                continue
            goto(world, belief, fid)
            lmap = explore_local(world, belief, fid)
            expected = set(world.objects_rooted_at(fid))
            assert {o.id for o in lmap.items} == expected
            for item in lmap.items:
                assert item.category == world.objects[item.id].spec.category
                assert item.parent_id == (world.objects[item.id].placement.receptacle)


def test_capture_excludes_gripper_contents(mini_world):
    world = mini_world
    world.apply_action(ActionRequest(verb="navigate", target="table_0"))
    world.apply_action(ActionRequest(verb="grasp", target="toy_0"))
    obs = capture(world, "stay")
    assert obs.find("toy_0") is None


# --- the believed parent chain -------------------------------------------------------


def _believed(oid, parent=None, receptacle=False):
    return BeliefObject(oid, "thing", frozenset(), (1.0, 1.0), parent, receptacle)


def test_root_of_walks_the_believed_parent_chain():
    belief = Belief()
    belief.global_map = GlobalMap(
        [SceneObject("table_0", "table", frozenset(), (1.0, 1.0), "global", is_receptacle=True)],
        np.zeros((2, 2), dtype=bool),
    )
    for b in (
        _believed("table_0", receptacle=True),
        _believed("plate_0", "table_0", receptacle=True),
        _believed("cup_0", "plate_0"),
        _believed("toy_0"),  # dropped on the floor: no believed parent
        _believed("a", "b"),
        _believed("b", "a"),
    ):
        belief.objects[b.id] = b
    assert belief.root_of("cup_0") == "table_0"
    assert _root_of(belief, "cup_0") == "table_0"
    assert belief.root_of("toy_0") == "toy_0"
    assert _root_of(belief, "toy_0") is None
    assert belief.root_of("table_0") == "table_0"
    assert _root_of(belief, "table_0") == "table_0"
    assert belief.root_of("ghost_9") == "ghost_9"
    assert belief.root_of("a") in ("a", "b")
    assert _root_of(belief, "a") is None
