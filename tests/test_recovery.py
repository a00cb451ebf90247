from __future__ import annotations

import copy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeloop.geometry import SIDES
from homeloop.goals import On, Selector
from homeloop.perception import Belief, capture, explore_global, explore_local
from homeloop.recovery import (
    BUDGETS,
    DIRECTIVES,
    LADDER,
    EpisodeRunner,
    RecoveryEpisode,
    select_recovery,
)
from homeloop.skills import ActionRequest, SkillContext, dispatch
from homeloop.verification import FailureRecord, classify_failure

from conftest import DOLL_SCENE, MINI_SCENE, make_world, zero_noise


GRASP_TOY = ActionRequest(verb="grasp", target="toy_0")


def fresh_record(level="object", cause="grasp_failed") -> FailureRecord:
    return FailureRecord(cause, 1, level)


def fresh_episode(level="object", cause="grasp_failed", strict=False) -> RecoveryEpisode:
    return RecoveryEpisode(
        failure=fresh_record(level, cause),
        request=GRASP_TOY,
        object_id="toy_0",
        strict_escalation=strict,
    )


# --- state machine ---------------------------------------------------------------


def test_first_directive_is_object_retry():
    episode = fresh_episode()
    level = select_recovery(episode)
    assert DIRECTIVES[level] == "retry" and level == "object"


def test_budget_exhaustion_escalates():
    episode = fresh_episode()
    kinds = [DIRECTIVES[select_recovery(episode)] for _ in range(3)]
    assert kinds == ["retry", "retry", "retry"]
    assert DIRECTIVES[select_recovery(episode)] == "remap"  # object budget spent
    assert DIRECTIVES[select_recovery(episode)] == "remap"
    assert DIRECTIVES[select_recovery(episode)] == "renavigate"
    assert DIRECTIVES[select_recovery(episode)] == "renavigate"
    assert DIRECTIVES[select_recovery(episode)] == "exhausted"
    assert episode.status == "exhausted"


def test_shift_evidence_skips_to_local():
    episode = fresh_episode()
    assert select_recovery(episode) == "object"
    episode.shifted = True
    assert select_recovery(episode) == "local"


def test_out_of_reach_evidence_skips_to_global():
    episode = fresh_episode()
    episode.out_of_reach = True
    assert select_recovery(episode) == "global"


def test_target_lost_evidence_forces_global():
    episode = fresh_episode(level="local", cause="false_positive")
    assert select_recovery(episode) == "local"
    episode.target_lost = True
    assert select_recovery(episode) == "global"


def test_strict_escalation_ignores_evidence_skips():
    episode = fresh_episode(strict=True)
    episode.out_of_reach = True
    assert select_recovery(episode) == "object"


def test_levels_ratchet_never_decrease():
    episode = fresh_episode()
    episode.shifted = True
    assert select_recovery(episode) == "local"
    episode.shifted = False  # evidence retraction must not demote
    assert select_recovery(episode) == "local"


EVIDENCE_EVENTS = st.lists(
    st.sampled_from(["none", "shift", "lost", "reach"]), min_size=0, max_size=12
)


@settings(max_examples=200, deadline=None)
@given(EVIDENCE_EVENTS, st.sampled_from(["object", "local", "global"]))
def test_escalation_property_under_adversarial_schedules(events, start_level):
    # every episode terminates within the budget sum; levels never decrease;
    # shift forces >= local and out-of-reach forces global
    episode = fresh_episode(level=start_level)
    levels: list[str] = []
    for step in range(sum(BUDGETS.values()) + 1):
        level = select_recovery(episode)
        if DIRECTIVES[level] == "exhausted":
            break
        levels.append(level)
        if episode.shifted:
            assert LADDER.index(level) >= LADDER.index("local")
        if episode.out_of_reach or episode.target_lost:
            assert level == "global"
        event = events[step % len(events)] if events else "none"
        if event == "shift":
            episode.shifted = True
        elif event == "lost":
            episode.target_lost = True
        elif event == "reach":
            episode.out_of_reach = True
    else:
        raise AssertionError("episode did not terminate within budget")
    assert levels == sorted(levels, key=LADDER.index)
    for level, budget in BUDGETS.items():
        assert episode.levels.count(level) <= budget


# --- live episodes against the world ------------------------------------------------


def booted_ctx(doc, **noise) -> SkillContext:
    ctx = SkillContext(world=make_world(doc, **noise), belief=Belief())
    dispatch(ctx, ActionRequest(verb="explore_global"))
    dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
    dispatch(ctx, ActionRequest(verb="explore_local", target="table_0"))
    return ctx


GOAL = On(Selector(id="toy_0"), Selector(id="bed_0"))


def trigger_grasp_failure(ctx) -> RecoveryEpisode:
    before = capture(ctx.world, "stay")
    ctx.world.config.noise.p_grasp_fail = 1.0
    fb = dispatch(ctx, ActionRequest(verb="grasp", target="toy_0"))
    assert not fb.success
    record = classify_failure(None, fb)
    return RecoveryEpisode(failure=record, request=GRASP_TOY, object_id="toy_0", last_before=before)


def test_retry_success_terminates_episode():
    ctx = booted_ctx(MINI_SCENE, **zero_noise())
    episode = trigger_grasp_failure(ctx)
    ctx.world.config.noise.p_grasp_fail = 0.0
    EpisodeRunner(ctx, GOAL).run(episode)
    assert episode.status == "recovered"
    assert episode.levels == ["object"]
    assert episode.failure.replanned and episode.failure.recovered


def test_object_level_recovery_rate_matches_bernoulli_oracle():
    p = 0.4
    ctx = booted_ctx(MINI_SCENE, **zero_noise())
    goal = GOAL
    recovered_at_object = 0
    reps = 1500
    for _ in range(reps):
        episode = trigger_grasp_failure(ctx)
        ctx.world.config.noise.p_grasp_fail = p
        runner = EpisodeRunner(ctx, goal)
        runner.run(episode)
        if episode.status == "recovered" and all(level == "object" for level in episode.levels):
            recovered_at_object += 1
        # reset the plant for the next episode
        world = ctx.world
        if world.gripper is not None:
            world.objects[world.gripper].on, world.objects[world.gripper].at = "table_0", (0.3, -0.1)
            world.gripper = None
        world.config.noise.p_grasp_fail = 0.0
        dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
        dispatch(ctx, ActionRequest(verb="explore_local", target="table_0"))
    analytic = 1 - p**3
    assert abs(recovered_at_object / reps - analytic) <= 0.03


def test_three_failed_retries_escalate_to_remap():
    ctx = booted_ctx(MINI_SCENE, **zero_noise(p_grasp_fail=1.0, p_object_shift_on_fail=0.0))
    episode = trigger_grasp_failure(ctx)  # keeps p at 1.0
    EpisodeRunner(ctx, GOAL).run(episode)
    levels = episode.levels
    assert levels[:3] == ["object", "object", "object"]
    assert "local" in levels and levels[-1] == "global"
    assert episode.status == "exhausted"


def test_shifted_target_escalates_and_remap_relocates():
    # grasp failure shifts the cup; the next level must be >= local,
    # and the remap re-resolves the same id at its new position
    ctx = booted_ctx(MINI_SCENE, **zero_noise())
    ctx.world.config.noise.p_object_shift_on_fail = 1.0
    episode = trigger_grasp_failure(ctx)
    assert episode.failure.recovery_level == "local"  # shift was already evident
    ctx.world.config.noise.p_grasp_fail = 0.0
    EpisodeRunner(ctx, GOAL).run(episode)
    assert episode.status == "recovered"
    assert all(LADDER.index(level) >= LADDER.index("local") for level in episode.levels)


def test_out_of_reach_recovers_by_renavigating_to_reachable_side():
    doc = copy.deepcopy(MINI_SCENE)
    doc["room"] = {"width": 8.0, "height": 4.0}
    doc["furniture"] = [
        {"id": "table_0", "category": "table",
         "footprint": [[2.0, 1.6], [5.6, 1.6], [5.6, 2.4], [2.0, 2.4]], "surface_height": "mid"},
        {"id": "bed_0", "category": "bed",
         "footprint": [[6.4, 0.4], [7.6, 0.4], [7.6, 1.2], [6.4, 1.2]], "surface_height": "low"},
    ]
    doc["objects"] = [{"id": "toy_0", "category": "toy", "on": "table_0", "offset": [1.5, 0.0]}]
    doc["robot_start"] = {"x": 1.0, "y": 2.0}
    ctx = SkillContext(world=make_world(doc, **zero_noise()), belief=Belief())
    dispatch(ctx, ActionRequest(verb="explore_global"))
    dispatch(ctx, ActionRequest(verb="navigate", target="table_0", side="west"))
    dispatch(ctx, ActionRequest(verb="explore_local", target="table_0"))
    fb = dispatch(ctx, ActionRequest(verb="grasp", target="toy_0"))
    assert fb.fault is not None and fb.fault.code == "out_of_reach"
    record = classify_failure(None, fb)
    assert record.recovery_level == "global"
    episode = RecoveryEpisode(failure=record, request=GRASP_TOY, object_id="toy_0")
    episode.out_of_reach = True
    EpisodeRunner(ctx, GOAL).run(episode)
    assert episode.status == "recovered"
    assert ctx.world.gripper == "toy_0"
    # reachability oracle: recompute per-side minimum distances to the toy's
    # original position and confirm the chosen side could actually reach it
    toy_pos = (3.8 + 1.5, 2.0)
    chosen = ctx.world.robot_side_of("table_0")
    cells = ctx.world.approach_cells("table_0", chosen)
    best = min(
        ((ctx.world.grid.center_of(c)[0] - toy_pos[0]) ** 2
         + (ctx.world.grid.center_of(c)[1] - toy_pos[1]) ** 2) ** 0.5
        for c in cells
    )
    assert best <= ctx.world.config.arm_reach
    # and the original west side could not
    west_best = min(
        ((ctx.world.grid.center_of(c)[0] - toy_pos[0]) ** 2
         + (ctx.world.grid.center_of(c)[1] - toy_pos[1]) ** 2) ** 0.5
        for c in ctx.world.approach_cells("table_0", "west")
    )
    assert west_best > ctx.world.config.arm_reach


def test_phantom_vanishes_on_remap_then_escalates():
    doc = copy.deepcopy(MINI_SCENE)
    doc["objects"] = []  # empty table: the phantom is unanchored
    ctx = SkillContext(
        world=make_world(doc, **zero_noise(p_false_positive=1.0)), belief=Belief()
    )
    dispatch(ctx, ActionRequest(verb="explore_global"))
    dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
    dispatch(ctx, ActionRequest(verb="explore_local", target="table_0"))
    phantom_id = next(o.id for m in ctx.belief.local_maps.values() for o in m.items)
    ctx.world.config.noise.p_false_positive = 0.0  # the re-scan comes up clean
    fb = dispatch(ctx, ActionRequest(verb="grasp", target=phantom_id))
    record = classify_failure(None, fb)
    assert record.cause == "false_positive"
    episode = RecoveryEpisode(failure=record, request=ActionRequest(verb="grasp", target=phantom_id),
                              object_id=phantom_id)
    goal = On(Selector(category="cup"), Selector(id="table_1"))
    EpisodeRunner(ctx, goal).run(episode)
    assert episode.target_lost
    assert all(m.find(phantom_id) is None for m in ctx.belief.local_maps.values())


def test_place_failure_regrasps_from_floor_and_replaces():
    """In the reference form and the location form alike, the re-issued place
    is the failed request: its request event differs only in index and
    source."""
    for form in ({"target": "bed_0"}, {"location": ("bed_0", (0.0, 0.0))}):
        ctx = booted_ctx(MINI_SCENE, **zero_noise())
        dispatch(ctx, ActionRequest(verb="grasp", target="toy_0"))
        dispatch(ctx, ActionRequest(verb="navigate", target="bed_0"))
        before = capture(ctx.world, "stay")
        ctx.world.config.noise.p_place_fail = 1.0
        failed = ActionRequest(verb="place", **form)
        fb = dispatch(ctx, failed)
        assert not fb.success and fb.details.get("dropped") == "toy_0"
        assert ctx.world.objects["toy_0"].on is None and ctx.world.gripper is None
        ctx.world.config.noise.p_place_fail = 0.0
        record = classify_failure(None, fb)
        episode = RecoveryEpisode(failure=record, request=failed, object_id="toy_0", last_before=before)
        EpisodeRunner(ctx, GOAL).run(episode)
        assert episode.status == "recovered"
        assert ctx.world.objects["toy_0"].on == "bed_0"
        first, reissue = [e for e in ctx.events if e["event"] == "request" and e["verb"] == "place"]
        assert reissue == {**first, "index": reissue["index"], "source": "object"}
        assert reissue["index"] > first["index"] and first["source"] == "planner"


def test_termination_bound_on_total_reissues():
    # adversarial: everything fails forever; the episode must stop within the
    # budget sum worth of levels
    ctx = booted_ctx(MINI_SCENE, **zero_noise(p_grasp_fail=1.0, p_object_shift_on_fail=0.0))
    episode = trigger_grasp_failure(ctx)
    EpisodeRunner(ctx, GOAL).run(episode)
    assert episode.status == "exhausted"
    assert len(episode.levels) <= sum(BUDGETS.values())
    assert len(episode.levels) <= sum(BUDGETS.values())


def phantom_grasp_with_every_side_tried(rng_seed: int) -> tuple[SkillContext, RecoveryEpisode]:
    """A phantom on an otherwise empty table_0 fails its grasp; with every
    approach side of table_0 tried, the global level can only fall back to the
    feasibility rollback, table_1, where the only real cup stands."""
    doc = copy.deepcopy(MINI_SCENE)
    doc["objects"] = [o for o in doc["objects"] if o["id"] != "toy_0"]
    doc["noise"]["rng_seed"] = rng_seed
    ctx = booted_ctx(doc, **zero_noise(p_false_positive=1.0))
    phantom_id = next(o.id for o in ctx.belief.local_maps["table_0"].items)
    ctx.world.config.noise.p_false_positive = 0.0
    fb = dispatch(ctx, ActionRequest(verb="grasp", target=phantom_id))
    episode = RecoveryEpisode(
        failure=classify_failure(None, fb), request=ActionRequest(verb="grasp", target=phantom_id),
        object_id=phantom_id,
    )
    episode.tried_sides = set(SIDES)
    return ctx, episode


def test_global_fallback_scans_the_rollback_receptacle_and_retargets():
    ctx, episode = phantom_grasp_with_every_side_tried(rng_seed=4)
    phantom_id = episode.object_id
    assert ctx.world.phantoms[phantom_id].believed_category == "cup"
    EpisodeRunner(ctx, On(Selector(category="cup"), Selector(id="bed_0"))).run(episode)
    assert episode.status == "recovered"
    assert episode.levels == ["local", "global"]
    assert ctx.world.gripper == "cup_0"
    assert {"event": "recovery_retarget", "from": phantom_id, "to": "cup_0"} in ctx.events
    scans = [e for e in ctx.events if e["event"] == "request" and e["verb"] == "explore_local"]
    assert [(e["target"], e["source"]) for e in scans[-2:]] == [("table_0", "planner"), ("table_1", "global")]
    assert episode.failure.replanned and episode.failure.recovered


def test_global_fallback_loses_a_target_of_another_category():
    ctx, episode = phantom_grasp_with_every_side_tried(rng_seed=0)
    assert ctx.world.phantoms[episode.object_id].believed_category != "cup"
    EpisodeRunner(ctx, On(Selector(category="cup"), Selector(id="bed_0"))).run(episode)
    assert episode.status == "exhausted"
    assert episode.target_lost
    assert ctx.world.gripper is None
    assert "table_1" in ctx.belief.local_maps
    assert episode.failure.direct_failure


def test_strict_escalation_selects_every_budgeted_level_then_none():
    # every re-issue fails: each selection records a level below its budget,
    # so the eighth selection is "none" and ends the episode
    ctx = booted_ctx(MINI_SCENE, **zero_noise(p_grasp_fail=1.0, p_object_shift_on_fail=0.0))
    episode = trigger_grasp_failure(ctx)
    episode.strict_escalation = True
    EpisodeRunner(ctx, GOAL).run(episode)
    assert episode.levels == ["object"] * 3 + ["local"] * 2 + ["global"] * 2
    selected = [e["level"] for e in ctx.events if e["event"] == "recovery" and e["directive"] != "end"]
    assert selected == episode.levels + ["none"]
    assert episode.status == "exhausted"


CUP_ON_BED = On(Selector(category="cup"), Selector(id="bed_0"))


def test_a_failed_navigate_to_the_rollback_receptacle_fails_the_global_level():
    ctx, episode = phantom_grasp_with_every_side_tried(rng_seed=4)
    ctx.world.config.noise.p_nav_fail = 1.0
    EpisodeRunner(ctx, CUP_ON_BED).run(episode)
    assert episode.levels == ["local", "global", "global"]
    assert episode.status == "exhausted"
    actions = [(e["verb"], e["target"], e["success"]) for e in ctx.events if e["event"] == "recovery_action"]
    assert actions == [("navigate", "table_1", False)] * 2
    assert [(r.cause, r.replanned, r.direct_failure) for r in ctx.records[-2:]] == [
        ("navigation_failed", True, False), ("navigation_failed", False, True)]


def test_a_refused_scan_of_the_rollback_receptacle_loses_the_target(monkeypatch):
    # no input makes a scan fail right after a successful navigate; the world
    # is told to refuse it, and the level issues nothing more
    ctx, episode = phantom_grasp_with_every_side_tried(rng_seed=4)
    adjacent = ctx.world.robot_adjacent_to
    monkeypatch.setattr(ctx.world, "robot_adjacent_to", lambda fid: fid != "table_1" and adjacent(fid))
    EpisodeRunner(ctx, CUP_ON_BED).run(episode)
    assert episode.target_lost and episode.status == "exhausted"
    assert "table_1" not in ctx.belief.local_maps
    actions = [(e["verb"], e["target"], e["success"]) for e in ctx.events if e["event"] == "recovery_action"]
    assert actions == [("navigate", "table_1", True)] * 2
    assert ctx.world.gripper is None


def test_the_global_level_picks_no_side_of_a_root_that_is_not_furniture():
    ctx = booted_ctx(MINI_SCENE, **zero_noise())
    ctx.belief.at_receptacle = "toy_0"
    episode = fresh_episode(level="global")
    made = ctx.requests_made
    # no side, and the toy is still a candidate, so no rollback either
    assert EpisodeRunner(ctx, GOAL).global_level_renavigate(episode) is None
    assert ctx.requests_made == made


def test_out_of_reach_with_no_side_in_reach_issues_nothing():
    doc = copy.deepcopy(MINI_SCENE)
    doc["room"] = {"width": 8.0, "height": 8.0}
    doc["furniture"] = [
        {"id": "table_0", "category": "table",
         "footprint": [[2.0, 2.0], [6.0, 2.0], [6.0, 6.0], [2.0, 6.0]], "surface_height": "mid"},
        {"id": "bed_0", "category": "bed",
         "footprint": [[6.6, 0.4], [7.6, 0.4], [7.6, 1.2], [6.6, 1.2]], "surface_height": "low"},
    ]
    doc["objects"] = [{"id": "toy_0", "category": "toy", "on": "table_0", "offset": [0.0, 0.0]}]
    doc["robot_start"] = {"x": 1.0, "y": 1.0}
    ctx = booted_ctx(doc, **zero_noise())
    fb = dispatch(ctx, ActionRequest(verb="grasp", target="toy_0"))
    assert fb.fault is not None and fb.fault.code == "out_of_reach"
    episode = RecoveryEpisode(failure=classify_failure(None, fb), request=GRASP_TOY, object_id="toy_0")
    episode.out_of_reach = True
    made = ctx.requests_made
    EpisodeRunner(ctx, GOAL).run(episode)
    assert (episode.levels, episode.status) == (["global", "global"], "exhausted")
    assert ctx.requests_made == made  # the table's middle is beyond reach from every side


@pytest.mark.parametrize("object_id", [None, "toy_0"], ids=["no-object", "target-still-in-view"])
def test_a_second_look_that_shows_no_grasp_is_followed_by_a_real_retry(object_id):
    ctx = booted_ctx(MINI_SCENE, **zero_noise())
    episode = RecoveryEpisode(failure=fresh_record(cause="visual_feedback_error"), request=GRASP_TOY,
                              object_id=object_id)
    assert EpisodeRunner(ctx, GOAL).object_level_retry(episode)
    actions = [(e["verb"], e["target"], e["success"]) for e in ctx.events if e["event"] == "recovery_action"]
    assert actions == [("grasp", "toy_0", True)]


@pytest.mark.parametrize("ruled_out, found", [(False, "cup_1"), (True, None)], ids=["kept", "ruled-out"])
def test_a_retarget_skips_a_ruled_out_item(ruled_out, found):
    ctx = booted_ctx(DOLL_SCENE, **zero_noise())
    ctx.belief.objects["cup_1"].ruled_out = ruled_out
    lmap = ctx.belief.local_maps["table_0"]
    without_cup_2 = replace(lmap, items=[o for o in lmap.items if o.id != "cup_2"])
    episode = RecoveryEpisode(failure=fresh_record(), request=ActionRequest(verb="grasp", target="cup_2"),
                              object_id="cup_2")
    assert EpisodeRunner(ctx, GOAL)._resolve_object(episode, without_cup_2) == found
    assert episode.object_id == (found or "cup_2")
