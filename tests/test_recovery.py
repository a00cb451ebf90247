from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from homeloop.goals import On, Selector
from homeloop.perception import Belief, capture, explore_global, explore_local
from homeloop.recovery import (
    BUDGETS,
    LEVEL_ORDER,
    EpisodeRunner,
    RecoveryEpisode,
    select_recovery,
)
from homeloop.skills import ActionRequest, SkillContext, dispatch
from homeloop.verification import FailureRecord, RetryState, classify_failure

from conftest import MINI_SCENE, make_world, zero_noise


def fresh_record(level="object", cause="grasp_failed") -> FailureRecord:
    return FailureRecord(cause, 1, level)


def fresh_episode(level="object", cause="grasp_failed", strict=False) -> RecoveryEpisode:
    return RecoveryEpisode(
        failure=fresh_record(level, cause),
        verb="grasp",
        object_id="toy_0",
        target="toy_0",
        strict_escalation=strict,
    )


# --- state machine ---------------------------------------------------------------


def test_first_directive_is_object_retry():
    episode = fresh_episode()
    directive = select_recovery(episode)
    assert directive.kind == "retry" and directive.level == "object"


def test_budget_exhaustion_escalates():
    episode = fresh_episode()
    kinds = [select_recovery(episode).kind for _ in range(3)]
    assert kinds == ["retry", "retry", "retry"]
    assert select_recovery(episode).kind == "remap"  # object budget spent
    assert select_recovery(episode).kind == "remap"
    assert select_recovery(episode).kind == "renavigate"
    assert select_recovery(episode).kind == "renavigate"
    assert select_recovery(episode).kind == "exhausted"
    assert episode.status == "exhausted"


def test_shift_evidence_skips_to_local():
    episode = fresh_episode()
    assert select_recovery(episode).level == "object"
    episode.evidence.shifted = True
    assert select_recovery(episode).level == "local"


def test_out_of_reach_evidence_skips_to_global():
    episode = fresh_episode()
    episode.evidence.out_of_reach = True
    assert select_recovery(episode).level == "global"


def test_target_lost_evidence_forces_global():
    episode = fresh_episode(level="local", cause="false_positive")
    assert select_recovery(episode).level == "local"
    episode.evidence.target_lost = True
    assert select_recovery(episode).level == "global"


def test_strict_escalation_ignores_evidence_skips():
    episode = fresh_episode(strict=True)
    episode.evidence.out_of_reach = True
    assert select_recovery(episode).level == "object"


def test_levels_ratchet_never_decrease():
    episode = fresh_episode()
    episode.evidence.shifted = True
    assert select_recovery(episode).level == "local"
    episode.evidence.shifted = False  # evidence retraction must not demote
    assert select_recovery(episode).level == "local"


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
        directive = select_recovery(episode)
        if directive.kind == "exhausted":
            break
        levels.append(directive.level)
        if episode.evidence.shifted:
            assert LEVEL_ORDER[directive.level] >= LEVEL_ORDER["local"]
        if episode.evidence.out_of_reach or episode.evidence.target_lost:
            assert directive.level == "global"
        event = events[step % len(events)] if events else "none"
        if event == "shift":
            episode.evidence.shifted = True
        elif event == "lost":
            episode.evidence.target_lost = True
        elif event == "reach":
            episode.evidence.out_of_reach = True
    else:
        raise AssertionError("episode did not terminate within budget")
    assert levels == sorted(levels, key=lambda lv: LEVEL_ORDER[lv])
    for level, budget in BUDGETS.items():
        assert episode.attempts[level] <= budget


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
    record = classify_failure(None, fb, RetryState())
    return RecoveryEpisode(
        failure=record, verb="grasp", object_id="toy_0", target="toy_0", last_before=before
    )


def test_retry_success_terminates_episode():
    ctx = booted_ctx(MINI_SCENE, **zero_noise())
    episode = trigger_grasp_failure(ctx)
    ctx.world.config.noise.p_grasp_fail = 0.0
    EpisodeRunner(ctx, GOAL).run(episode)
    assert episode.status == "recovered"
    assert [d.level for d in episode.directives] == ["object"]
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
        if episode.status == "recovered" and all(d.level == "object" for d in episode.directives):
            recovered_at_object += 1
        # reset the plant for the next episode
        world = ctx.world
        if world.gripper is not None:
            world.objects[world.gripper].placement.kind = "on"
            world.objects[world.gripper].placement.receptacle = "table_0"
            world.objects[world.gripper].placement.offset = (0.3, -0.1)
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
    levels = [d.level for d in episode.directives]
    assert levels[:3] == ["object", "object", "object"]
    assert "local" in levels and levels[-1] == "global"
    assert episode.status == "exhausted"


def test_shifted_target_escalates_and_remap_relocates():
    # grasp failure shifts the cup; the next directive must be >= local,
    # and the remap re-resolves the same id at its new position
    ctx = booted_ctx(MINI_SCENE, **zero_noise())
    ctx.world.config.noise.p_object_shift_on_fail = 1.0
    episode = trigger_grasp_failure(ctx)
    assert episode.failure.recovery_level == "local"  # shift was already evident
    ctx.world.config.noise.p_grasp_fail = 0.0
    EpisodeRunner(ctx, GOAL).run(episode)
    assert episode.status == "recovered"
    assert all(LEVEL_ORDER[d.level] >= LEVEL_ORDER["local"] for d in episode.directives)


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
    record = classify_failure(None, fb, RetryState())
    assert record.recovery_level == "global"
    episode = RecoveryEpisode(failure=record, verb="grasp", object_id="toy_0", target="toy_0")
    episode.evidence.out_of_reach = True
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
    record = classify_failure(None, fb, RetryState())
    assert record.cause == "false_positive"
    episode = RecoveryEpisode(failure=record, verb="grasp", object_id=phantom_id, target=phantom_id)
    goal = On(Selector(category="cup"), Selector(id="table_1"))
    EpisodeRunner(ctx, goal).run(episode)
    assert episode.evidence.target_lost
    assert all(m.find(phantom_id) is None for m in ctx.belief.local_maps.values())


def test_place_failure_regrasps_from_floor_and_replaces():
    ctx = booted_ctx(MINI_SCENE, **zero_noise())
    dispatch(ctx, ActionRequest(verb="grasp", target="toy_0"))
    dispatch(ctx, ActionRequest(verb="navigate", target="bed_0"))
    before = capture(ctx.world, "stay")
    ctx.world.config.noise.p_place_fail = 1.0
    fb = dispatch(ctx, ActionRequest(verb="place", target="bed_0"))
    assert not fb.success and fb.details.get("dropped") == "toy_0"
    assert ctx.world.objects["toy_0"].placement.kind == "floor"
    ctx.world.config.noise.p_place_fail = 0.0
    record = classify_failure(None, fb, RetryState())
    episode = RecoveryEpisode(
        failure=record, verb="place", object_id="toy_0", target="bed_0", last_before=before
    )
    EpisodeRunner(ctx, GOAL).run(episode)
    assert episode.status == "recovered"
    assert ctx.world.objects["toy_0"].placement.receptacle == "bed_0"


def test_termination_bound_on_total_reissues():
    # adversarial: everything fails forever; the episode must stop within the
    # budget sum worth of directives
    ctx = booted_ctx(MINI_SCENE, **zero_noise(p_grasp_fail=1.0, p_object_shift_on_fail=0.0))
    episode = trigger_grasp_failure(ctx)
    EpisodeRunner(ctx, GOAL).run(episode)
    assert episode.status == "exhausted"
    assert len(episode.directives) <= sum(BUDGETS.values())
    assert episode.spent() <= sum(BUDGETS.values())
