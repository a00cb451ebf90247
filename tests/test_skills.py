from __future__ import annotations

import copy
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeloop.config import TaskSpec, load_builtin_suite, parse_config
from homeloop.errors import ApiCallError, NotAtReceptacle, PreconditionFault, Refused, TargetNotVisible
from homeloop.geometry import SIDES
from homeloop.goals import PlacementView, parse_goal
from homeloop.harness import TrialOptions, run_trial
from homeloop.perception import Belief, Observation, capture
from homeloop.planning import ChatModelPlanner
from homeloop.recovery import EpisodeRunner
from homeloop.skills import ActionRequest, SkillContext, dispatch
from homeloop.verification import belief_goal_satisfied, first_unsatisfied_atom
from homeloop.world import ALL_VERBS, PERCEPTION_VERBS

from conftest import DOLL_SCENE, MINI_SCENE, make_world, scene, zero_noise
from mock_llm import TranscriptBackend


def fresh_ctx(doc=MINI_SCENE, **noise):
    world = make_world(doc, **noise)
    return SkillContext(world=world, belief=Belief())


def boot(ctx):
    dispatch(ctx, ActionRequest(verb="explore_global"))


def test_navigate_success_updates_belief():
    ctx = fresh_ctx()
    boot(ctx)
    fb = dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
    assert fb.success
    assert ctx.belief.at_receptacle == "table_0"
    assert ctx.world.robot_adjacent_to("table_0")
    assert fb.details["approach_side"] in ("north", "east", "south", "west")


def test_navigate_with_string_literal_is_api_error():
    ctx = fresh_ctx()
    boot(ctx)
    fb = dispatch(ctx, ActionRequest(verb="navigate", target="table", string_literal=True))
    assert not fb.success
    assert isinstance(fb.fault, ApiCallError)
    assert "object reference" in fb.fault.message


def test_navigate_before_global_map_is_api_error():
    ctx = fresh_ctx()
    fb = dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
    assert isinstance(fb.fault, ApiCallError)
    assert "explore_global" in fb.fault.message


def test_every_furniture_reachable_in_bundled_scene():
    # flood-fill oracle: from the start pose an approach cell exists for all
    ctx = fresh_ctx()
    boot(ctx)
    for fid in ("table_0", "table_1", "bed_0"):
        fb = dispatch(ctx, ActionRequest(verb="navigate", target=fid))
        assert fb.success, fid
        assert ctx.world.select_approach(fid) is not None


def test_grasp_happy_path_and_belief_sync():
    ctx = fresh_ctx()
    boot(ctx)
    dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
    dispatch(ctx, ActionRequest(verb="explore_local", target="table_0"))
    fb = dispatch(ctx, ActionRequest(verb="grasp", target="toy_0"))
    assert fb.success
    assert ctx.belief.holding == "toy_0"
    assert all(m.find("toy_0") is None for m in ctx.belief.local_maps.values())


def test_grasp_not_in_local_map_is_api_error():
    ctx = fresh_ctx()
    boot(ctx)
    dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
    fb = dispatch(ctx, ActionRequest(verb="grasp", target="toy_0"))  # never scanned
    assert isinstance(fb.fault, ApiCallError)
    assert fb.fault.code == "target_not_in_local_map"


def test_grasp_phantom_reports_target_not_visible():
    ctx = fresh_ctx(DOLL_SCENE, **zero_noise(p_false_positive=1.0))
    boot(ctx)
    dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
    dispatch(ctx, ActionRequest(verb="explore_local", target="table_0"))
    phantom_id = next(o.id for m in ctx.belief.local_maps.values() for o in m.items
                      if o.id in ctx.world.phantoms)
    fb = dispatch(ctx, ActionRequest(verb="grasp", target=phantom_id))
    assert not fb.success
    assert isinstance(fb.fault, TargetNotVisible)


def test_place_receptacle_and_location_forms():
    doc = copy.deepcopy(DOLL_SCENE)
    doc["objects"].append(
        {"id": "plate_0", "category": "plate", "on": "table_0", "offset": [0.35, 0.25],
         "receptacle": True, "extent": [0.3, 0.3]}
    )
    ctx = fresh_ctx(doc)
    boot(ctx)
    dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
    dispatch(ctx, ActionRequest(verb="explore_local", target="table_0"))
    dispatch(ctx, ActionRequest(verb="grasp", target="cup_2"))
    fb = dispatch(ctx, ActionRequest(verb="place", target="plate_0"))
    assert fb.success
    assert ctx.world.objects["cup_2"].on == "plate_0"
    # location form: put the doll at an explicit offset on the table
    dispatch(ctx, ActionRequest(verb="grasp", target="doll_0"))
    fb = dispatch(ctx, ActionRequest(verb="place", location=("table_0", (-0.4, -0.2))))
    assert fb.success
    assert ctx.world.objects["doll_0"].at == (-0.4, -0.2)


def test_place_centroid_location_matches_mean():
    # centroid-arithmetic oracle for "place it in the middle of the cups"
    ctx = fresh_ctx(DOLL_SCENE)
    boot(ctx)
    dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
    dispatch(ctx, ActionRequest(verb="explore_local", target="table_0"))
    cups = [o for m in ctx.belief.local_maps.values() for o in m.items if o.category == "cup"]
    cx = sum(o.location[0] for o in cups) / len(cups)
    cy = sum(o.location[1] for o in cups) / len(cups)
    ax, ay = ctx.world.anchor_of("table_0")
    dispatch(ctx, ActionRequest(verb="grasp", target="doll_0"))
    fb = dispatch(ctx, ActionRequest(verb="place", location=("table_0", (cx - ax, cy - ay))))
    assert fb.success
    placed = ctx.world.position_of("doll_0")
    assert abs(placed[0] - cx) < 1e-9 and abs(placed[1] - cy) < 1e-9


def test_dispatch_unknown_verb():
    ctx = fresh_ctx()
    fb = dispatch(ctx, ActionRequest(verb="fly", target="moon"))
    assert isinstance(fb.fault, ApiCallError)
    assert fb.fault.code == "unknown_verb"


def test_a_request_dispatched_twice_is_numbered_twice():
    """Every dispatch numbers its request, so the request cap, which counts
    ``requests_made``, counts each call of a reused request."""
    ctx = fresh_ctx()
    request = ActionRequest(verb="explore_global")
    dispatch(ctx, request)
    dispatch(ctx, request)
    assert [e["index"] for e in ctx.events if e["event"] == "request"] == [0, 1]
    assert ctx.requests_made == 2


def test_ssr_partition_execution_vs_perception():
    ctx = fresh_ctx()
    seq = [
        ActionRequest(verb="explore_global"),
        ActionRequest(verb="navigate", target="table_0"),
        ActionRequest(verb="explore_local", target="table_0"),
        ActionRequest(verb="grasp", target="toy_0"),
        ActionRequest(verb="report_observation", target="stay"),
        ActionRequest(verb="navigate", target="bed_0"),
        ActionRequest(verb="place", target="bed_0"),
    ]
    feedbacks = [dispatch(ctx, r) for r in seq]
    counted = [fb.verb for fb in feedbacks if fb.counted]
    uncounted = [fb.verb for fb in feedbacks if not fb.counted]
    assert counted == ["navigate", "grasp", "navigate", "place"]
    assert set(uncounted) <= set(PERCEPTION_VERBS)
    assert ctx.execution_steps == 4
    assert ctx.successful_steps == 4


def test_fault_flag_coherence():
    ctx = fresh_ctx(MINI_SCENE, p_grasp_fail=1.0)
    boot(ctx)
    dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
    dispatch(ctx, ActionRequest(verb="explore_local", target="table_0"))
    fb = dispatch(ctx, ActionRequest(verb="grasp", target="toy_0"))
    assert not fb.success
    assert fb.fault is not None or fb.message  # never both absent


def test_feedback_render_contains_fault_string():
    ctx = fresh_ctx()
    boot(ctx)
    dispatch(ctx, ActionRequest(verb="navigate", target="table_0"))
    fb = dispatch(ctx, ActionRequest(verb="place", target="table_0"))
    assert "place without prior grasping" in fb.render()


# --- every refusal, pinned byte for byte ----------------------------------------

# A 5 m bench whose far end is beyond arm reach from the approach cell, a
# plate with no free spot left, a loaded box, a bed to be away from, and a
# crate on the floor with a pen on it.
REFUSAL_SCENE = {
    "name": "refusals",
    "room": {"width": 6.0, "height": 4.0},
    "robot_start": {"x": 3.0, "y": 1.2},
    "furniture": [
        {
            "id": "bench_0",
            "category": "table",
            "footprint": [[0.5, 2.6], [5.5, 2.6], [5.5, 3.3], [0.5, 3.3]],
            "surface_height": "mid",
        },
        {
            "id": "bed_0",
            "category": "bed",
            "footprint": [[0.4, 0.3], [1.6, 0.3], [1.6, 1.3], [0.4, 1.3]],
            "surface_height": "low",
        },
    ],
    "objects": [
        {"id": "toy_0", "category": "toy", "on": "bench_0", "offset": [-2.2, 0.0]},
        {"id": "cup_0", "category": "cup", "on": "bench_0", "offset": [0.0, 0.0]},
        {"id": "plate_0", "category": "plate", "on": "bench_0", "offset": [0.5, 0.0],
         "receptacle": True, "extent": [0.12, 0.12]},
        {"id": "cup_1", "category": "cup", "on": "plate_0", "offset": [0.0, 0.0]},
        {"id": "box_0", "category": "box", "on": "bench_0", "offset": [-0.5, 0.0],
         "receptacle": True, "extent": [0.3, 0.3]},
        {"id": "ball_0", "category": "ball", "on": "box_0", "offset": [0.0, 0.0]},
        {"id": "fruit_0", "category": "fruit", "on": "bed_0", "offset": [0.0, 0.0]},
        {"id": "crate_0", "category": "box", "floor": [5.0, 1.0], "receptacle": True, "extent": [0.3, 0.3]},
        {"id": "pen_0", "category": "pen", "on": "crate_0", "offset": [0.0, 0.0]},
    ],
    "noise": {"rng_seed": 0},
}

BUNDLED_SCENES = {
    name: json.loads(resources.files("homeloop").joinpath(f"data/scenes/{name}.json").read_text("utf-8"))
    for name in ("bedroom", "fruit_among_cups", "gather_cups", "move_cup_and_toy", "move_toy",
                 "place_fruit", "prepare_cup", "tidy_table", "transfer_all_toys")
}


def _req(verb, target=None, literal=False, **kw):
    return ActionRequest(verb=verb, target=target, string_literal=literal, **kw)


_BOOT = [_req("explore_global")]
# the approach cell nearest the bench's middle: cup_0 within reach, toy_0 not
_TO_BENCH = ActionRequest(verb="navigate", target="bench_0", focus=(3.0, 2.95))
_AT_BENCH = _BOOT + [_TO_BENCH, _req("explore_local", "bench_0")]
_HOLDING = _AT_BENCH + [_req("grasp", "cup_0")]
_UNKNOWN_VERB = (
    "unknown verb 'fly'; available: explore_global, explore_local, grasp, navigate, place, report_observation"
)

# (scene, steps, fault class, code, fault message, feedback message). The last
# step is the refused request; a dict step sets noise fields. A "world-" case
# sends its refused request to World.apply_action, past the skills layer's
# checks, and expects it raised as Refused; no verb sequence reaches those
# refusals through dispatch.
REFUSALS = {
    "navigate-literal": (REFUSAL_SCENE, _BOOT + [_req("navigate", "bench", literal=True)], ApiCallError,
                         "bad_argument", "navigate expects an object reference from the global map, "
                         "got a string literal 'bench'", None),
    "navigate-unmapped": (REFUSAL_SCENE, [_req("navigate", "bench_0")], ApiCallError, "unknown_reference",
                          "navigate target 'bench_0' is not in the global object map; run explore_global first",
                          None),
    "world-navigate-not-furniture": (REFUSAL_SCENE, [_req("navigate", "cup_0")], PreconditionFault,
                                     "unknown_reference", "navigate target 'cup_0' is not furniture",
                                     "navigate(cup_0) -> unknown furniture"),
    "grasp-none": (REFUSAL_SCENE, _AT_BENCH + [_req("grasp")], ApiCallError, "bad_argument",
                   "grasp expects an object reference from a local map, got a string literal None", None),
    "grasp-furniture": (REFUSAL_SCENE, _AT_BENCH + [_req("grasp", "bench_0")], ApiCallError, "bad_argument",
                        "'bench_0' is furniture and cannot be grasped", None),
    "grasp-unscanned": (REFUSAL_SCENE, _BOOT + [_req("navigate", "bench_0"), _req("grasp", "cup_0")],
                        ApiCallError, "target_not_in_local_map", "'cup_0' is not in any current local map",
                        "grasp failed: cup_0 not in local map"),
    "grasp-gripper-full": (REFUSAL_SCENE, _HOLDING + [_req("grasp", "toy_0")], PreconditionFault,
                           "gripper_full", "grasp while gripper holds cup_0", "grasp failed: gripper full"),
    "world-grasp-held-object": (REFUSAL_SCENE, _HOLDING + [_req("grasp", "cup_0")], PreconditionFault,
                                "gripper_full", "grasp while gripper holds cup_0", "grasp failed: gripper full"),
    "grasp-phantom": (DOLL_SCENE, [{"p_false_positive": 1.0}, _req("explore_global"), _req("navigate", "table_0"),
                                   _req("explore_local", "table_0"), _req("grasp", "bottle_0")],
                      TargetNotVisible, "target_not_visible", "bottle_0 not found at its believed location",
                      "grasp(bottle_0) -> target not visible"),
    "world-grasp-floor-receptacle": (REFUSAL_SCENE, [_req("grasp", "pen_0")], PreconditionFault,
                                     "bad_argument", "crate_0 is not resting on a surface",
                                     "grasp failed: receptacle not on a surface"),
    "grasp-not-adjacent": (REFUSAL_SCENE, _BOOT + [_req("navigate", "bed_0"), _req("explore_local", "bed_0"),
                                                   _TO_BENCH, _req("grasp", "fruit_0")],
                           PreconditionFault, "out_of_reach", "not adjacent to bed_0",
                           "grasp failed: target out of reach"),
    "grasp-beyond-reach": (REFUSAL_SCENE, _AT_BENCH + [_req("grasp", "toy_0")], PreconditionFault,
                           "out_of_reach", "toy_0 beyond arm reach", "grasp failed: target out of reach"),
    "grasp-loaded": (REFUSAL_SCENE, _AT_BENCH + [_req("grasp", "box_0")], PreconditionFault, "bad_argument",
                     "box_0 is loaded; unload it first", "grasp failed: receptacle not empty"),
    "place-literal": (REFUSAL_SCENE, _HOLDING + [_req("place", "bench", literal=True)], ApiCallError,
                      "bad_argument", "place expects a receptacle reference or a location, "
                      "got a string literal 'bench'", None),
    "place-unmapped": (REFUSAL_SCENE, _HOLDING + [_req("place", "moon")], ApiCallError, "unknown_reference",
                       "place target 'moon' is not in any map", None),
    "place-empty-gripper": (REFUSAL_SCENE, _AT_BENCH + [_req("place", "bench_0")], PreconditionFault,
                            "place_without_grasp", "place without prior grasping",
                            "place failed: place without prior grasping"),
    "place-not-receptacle": (REFUSAL_SCENE, _HOLDING + [_req("place", "toy_0")], PreconditionFault,
                             "unknown_reference", "place target 'toy_0' is not a receptacle",
                             "place failed: unknown receptacle"),
    "place-floor-receptacle": (
        BUNDLED_SCENES["tidy_table"],
        _BOOT + [_req("navigate", "table_0"), _req("explore_local", "table_0"), _req("grasp", "box_0"),
                 {"p_place_fail": 1.0}, _req("place", "table_0"), {"p_place_fail": 0.0},  # box_0 falls
                 _req("grasp", "toy_0"), _req("place", "box_0")],
        PreconditionFault, "bad_argument", "box_0 is not resting on a surface",
        "place failed: receptacle not on a surface",
    ),
    "place-not-adjacent": (REFUSAL_SCENE, _HOLDING + [_req("place", "bed_0")], PreconditionFault, "out_of_reach",
                           "not adjacent to bed_0", "place failed: target out of reach"),
    "place-offset-outside": (REFUSAL_SCENE, _HOLDING + [_req("place", location=("bench_0", (2.6, 0.0)))],
                             PreconditionFault, "bad_argument", "offset (2.6, 0.0) outside bench_0 surface",
                             "place failed: offset outside surface"),
    "place-beyond-reach": (REFUSAL_SCENE, _HOLDING + [_req("place", location=("bench_0", (2.0, 0.0)))],
                           PreconditionFault, "out_of_reach", "location on bench_0 beyond arm reach",
                           "place failed: target out of reach"),
    "place-no-free-space": (REFUSAL_SCENE, _HOLDING + [_req("place", "plate_0")], PreconditionFault,
                            "no_free_space", "no reachable free spot on plate_0",
                            "place failed: no free space on target"),
    "explore-local-literal": (REFUSAL_SCENE, _BOOT + [_req("explore_local", "bench", literal=True)], ApiCallError,
                              "bad_argument", "explore_local expects a furniture reference, "
                              "got a string literal 'bench'", None),
    "explore-local-unmapped": (REFUSAL_SCENE, _BOOT + [_req("explore_local", "moon")], ApiCallError,
                               "unknown_reference", "explore_local target 'moon' is not in the global object map",
                               None),
    "explore-local-away": (REFUSAL_SCENE, _BOOT + [_req("explore_local", "bed_0")], NotAtReceptacle,
                           "not_at_receptacle", "robot is not at bed_0; navigate there first",
                           "robot is not at bed_0"),
    "report-none": (REFUSAL_SCENE, [_req("report_observation")], ApiCallError, "bad_argument",
                    "report_observation needs a target or a mode", None),
    "report-unmapped": (REFUSAL_SCENE, _BOOT + [_req("report_observation", "moon")], ApiCallError,
                        "unknown_reference", "report_observation target 'moon' is not in any current map", None),
    "report-furniture": (REFUSAL_SCENE, _BOOT + [_req("report_observation", "bench_0")], TargetNotVisible,
                         "target_not_visible", "bench_0 no longer exists at its believed location", None),
    "unknown-verb": (REFUSAL_SCENE, [_req("fly", "moon")], ApiCallError, "unknown_verb", _UNKNOWN_VERB,
                     "unknown verb 'fly'"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_every_refusal_keeps_its_fault_and_message(case):
    """Each refusal site's fault class, code, fault message and feedback line.
    A feedback message of None means it repeats the fault message. Grasping
    the held object itself is refused as "gripper full": an object in the
    gripper always sets ``World.gripper``."""
    doc, steps, kind, code, fault_message, message = REFUSALS[case]
    ctx = fresh_ctx(doc, **zero_noise())
    *setup, refused = copy.deepcopy(steps)
    for step in setup:
        if isinstance(step, dict):
            for name, value in step.items():
                setattr(ctx.world.config.noise, name, value)
        else:
            dispatch(ctx, step)
    if case.startswith("world-"):
        with pytest.raises(Refused) as refusal:
            ctx.world.apply_action(refused)
        out = refusal.value
    else:
        out = dispatch(ctx, refused)
        assert not out.success
        assert out.details == {}
    assert type(out.fault) is kind
    assert (out.fault.code, out.fault.message) == (code, fault_message)
    assert out.message == (fault_message if message is None else message)


def test_a_place_refused_before_it_moved_anything_recovers_the_held_object(monkeypatch):
    """The "place-beyond-reach" refusal, planned in a trial: nothing was set
    down or dropped, so the recovery episode is about the object the gripper
    still holds."""
    episodes = []
    run = EpisodeRunner.run

    def recording(self, episode):
        episodes.append((episode.request.verb, episode.object_id))
        return run(self, episode)

    monkeypatch.setattr(EpisodeRunner, "run", recording)
    lines = ["explore_global()", "navigate(bench_0)", "explore_local(bench_0)", "grasp(cup_0)",
             "place(bench_0:2.0,0.0)"]
    task = TaskSpec(
        id="refused-place", name="refused_place", instruction="Put the cup on the bed.",
        scene=parse_config(scene(REFUSAL_SCENE)),
        goal=parse_goal({"on": {"object": {"id": "cup_0"}, "receptacle": {"id": "bed_0"}}}), trial_count=1,
    )
    planner = ChatModelPlanner(TranscriptBackend(replies=[f"```\n{line}\n```" for line in lines]))
    report = run_trial(task, planner, seed=0, options=TrialOptions(noise=zero_noise()))
    place = next(e for e in report.events if e["event"] == "feedback" and e["verb"] == "place")
    assert place["fault"]["message"] == "location on bench_0 beyond arm reach"
    # the first grasp is refused out of reach too, and recovery walks round the bench
    assert episodes == [("grasp", "cup_0"), ("place", "cup_0")]


# --- dispatch under random requests -----------------------------------------------

_FUZZ_NOISE = dict(p_grasp_fail=0.3, p_place_fail=0.3, p_nav_fail=0.1, p_false_positive=0.3,
                   p_missed_detection=0.2, p_object_shift_on_fail=0.5, p_flag_error=0.1, p_closeup_error=0.1)
_OFFSET = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _next_verb(belief):
    """The verb a fetch-and-place planner would call next."""
    if belief.global_map is None:
        return "explore_global"
    if belief.holding is not None:
        return "place" if belief.at_receptacle else "navigate"
    if belief.at_receptacle is None:
        return "navigate"
    lmap = belief.local_maps.get(belief.at_receptacle)
    return "grasp" if lmap is not None and lmap.items and not lmap.stale else "explore_local"


def _draw_request(data, ctx) -> ActionRequest:
    """Any verb (and one unknown), any target (furniture, object, phantom, a
    bogus id, a mode or none), either literal flag, any place location and
    any side. Half the requests are the step a planner would take next, so
    that held, dropped and shifted objects occur."""
    belief = ctx.belief
    furniture = st.sampled_from(sorted(ctx.world.furniture))
    small = st.sampled_from(sorted(ctx.world.objects) + sorted(ctx.world.phantoms))
    targets = furniture | small | st.sampled_from(["moon", "stay", "rest", None])
    if data.draw(st.booleans()):
        verb = _next_verb(belief)
        lmap = belief.local_maps.get(belief.at_receptacle or "")
        if verb == "navigate":
            targets = furniture
        elif verb == "grasp":
            targets = st.sampled_from([o.id for o in lmap.items])
        elif verb != "explore_global":
            targets = st.just(belief.at_receptacle)
    else:
        verb = data.draw(st.sampled_from(ALL_VERBS + ("fly",)))
    location = None
    if verb == "place":
        spot = st.tuples(furniture | small | st.just("moon"), st.tuples(_OFFSET, _OFFSET))
        location = data.draw(st.none() | spot)
    return ActionRequest(
        verb=verb,
        target=data.draw(targets),
        location=location,
        side=data.draw(st.sampled_from((None,) + SIDES)),
        # one request in eight comes as a string literal
        string_literal=data.draw(st.integers(0, 7)) == 0,
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_dispatch_survives_random_requests_and_keeps_its_books(data):
    """Random requests (``_draw_request``) on a bundled scene with noise on:
    nothing escapes dispatch, indices count up from 0, a fault always means
    failure, each call logs one request and one feedback event (and an
    observation event exactly when it observed), and the step counters match
    the logged feedback."""
    scene_name = data.draw(st.sampled_from(sorted(BUNDLED_SCENES)))
    ctx = fresh_ctx(BUNDLED_SCENES[scene_name], rng_seed=data.draw(st.integers(0, 2**16)), **_FUZZ_NOISE)
    for i in range(data.draw(st.integers(1, 30))):
        logged = len(ctx.events)
        fb = dispatch(ctx, _draw_request(data, ctx))
        assert fb.request_index == i
        assert fb.fault is None or not fb.success
        expected = ["request", "feedback"] + (["observation"] if fb.observation is not None else [])
        assert [(e["event"], e["index"]) for e in ctx.events[logged:]] == [(kind, i) for kind in expected]
    counted = [e for e in ctx.events if e["event"] == "feedback" and e["counted"]]
    assert ctx.execution_steps == len(counted)
    assert ctx.successful_steps == sum(e["success"] for e in counted)


# --- derived values never go stale ----------------------------------------------------

# Goals of every node type over categories that occur in the bundled scenes;
# each scene's suite goals are checked as well.
_PROBE_GOALS = [parse_goal(g) for g in (
    {"holding": {"object": {"category": "cup"}}},
    {"not": {"on": {"object": {"category": "toy"}, "receptacle": {"category": "table"}}}},
    {"or": [{"all_on": {"category": "cup", "receptacle": {"category": "table"}}},
            {"same_receptacle": {"category": "toy"}}]},
    {"and": [{"all_on": {"category": "fruit", "receptacle": {"category": "table"}}},
             {"not": {"holding": {"object": {}}}}]},
)]
_SUITE_GOALS: dict[str, list] = {}
for _suite in ("acceptance", "benchmark"):
    for _task in load_builtin_suite(_suite).tasks:
        _SUITE_GOALS.setdefault(_task.name, []).append(_task.goal)


def _assert_derived_values_fresh(ctx, goals) -> None:
    """Every memoised read equals a recomputation from scratch."""
    assert ctx.belief.sorted_objects() == tuple(sorted(ctx.belief.objects.values(), key=lambda o: o.id))
    fresh = PlacementView(dict(ctx.belief.objects), ctx.belief.holding)
    for goal in goals:
        assert belief_goal_satisfied(goal, ctx.belief) == goal.satisfied(fresh)
        assert first_unsatisfied_atom(goal, ctx.belief) == goal.first_unsat(fresh)


def _assert_evidence_lookup_is_the_filtered_view(data, ctx) -> None:
    """A capture of some ids is the full capture with every other object
    left out. The ids mix ground objects, phantoms, furniture, an unknown
    name and the held object, which must stay out of view."""
    world = ctx.world
    pool = sorted(world.objects) + sorted(world.phantoms) + sorted(world.furniture) + ["moon"]
    ids = set(data.draw(st.lists(st.sampled_from(pool), max_size=6)))
    ids |= set(sorted(world.phantoms)[:1]) | ({world.gripper} if world.gripper else set())
    for kind in ("stay", "rest"):
        full = capture(world, kind)
        expected = Observation(kind, None, tuple(o for o in full.visible if o.id in ids), full.captured_at_step)
        assert capture(world, kind, ids) == expected
    assert world.gripper is None or full.find(world.gripper) is None


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_memoised_views_goal_results_and_captures_never_go_stale(data):
    """Before the first request and after every one, the belief's cached
    placement view, sorted objects and both goal results equal fresh
    computations, and a capture of some ids equals the full capture
    filtered to them. A writer of ``Belief.objects`` or ``holding`` that
    skips ``touch()`` fails this.

    Recovery's shift check reads one object where it read a full view. That
    is exact because no request but a grasp moves an object other than the
    held one, which is out of view. The believed held object is the
    gripper's or none until a flag error: a successful place reported as
    failed leaves the belief holding an object the gripper let go."""
    scene_name = data.draw(st.sampled_from(sorted(BUNDLED_SCENES)))
    ctx = fresh_ctx(BUNDLED_SCENES[scene_name], rng_seed=data.draw(st.integers(0, 2**16)), **_FUZZ_NOISE)
    world = ctx.world
    goals = _PROBE_GOALS + _SUITE_GOALS.get(scene_name, [])
    _assert_derived_values_fresh(ctx, goals)
    flag_flipped = False
    for _ in range(data.draw(st.integers(30, 80))):
        request = _draw_request(data, ctx)
        unheld = {oid: world.position_of(oid) for oid in world.objects if oid != world.gripper}
        fb = dispatch(ctx, request)
        if request.verb != "grasp":
            assert {oid: world.position_of(oid) for oid in unheld} == unheld
        _assert_derived_values_fresh(ctx, goals)
        _assert_evidence_lookup_is_the_filtered_view(data, ctx)
        flag_flipped = flag_flipped or bool(fb.details.get("flag_flipped"))
        if not flag_flipped:
            assert ctx.belief.holding in (None, world.gripper)
