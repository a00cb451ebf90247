from __future__ import annotations

import os
import subprocess
import sys

import pytest

from homeloop.errors import ApiCallError, PreconditionFault, TargetNotVisible
from homeloop.perception import Belief, Observation, SceneObject
from homeloop.skills import ActionRequest, Feedback, SkillContext, dispatch
from homeloop.verification import (
    RetryState,
    classify_failure,
    verify_feasibility,
    verify_success,
)
from homeloop.goals import On, Selector

from conftest import DOLL_SCENE, make_world


def snap(oid: str, category: str, parent: str | None = None, pos=(1.0, 1.0), attrs=()) -> SceneObject:
    return SceneObject(
        id=oid,
        category=category,
        attributes=frozenset(attrs),
        location=pos,
        provenance="object",
        parent_id=parent,
    )


def obs(*objects: SceneObject) -> Observation:
    return Observation(kind="stay", target=None, visible=tuple(objects), captured_at_step=0)


def grasp_fb(success: bool, fault=None, details=None) -> Feedback:
    return Feedback(request_index=3, verb="grasp", success=success, fault=fault,
                    message="", details=details or {})


GRASP = ActionRequest(verb="grasp", target="cup_1", request_index=3)


def test_grasp_success_confirmed_by_absence():
    before = obs(snap("cup_1", "cup", "table_0"))
    after = obs()
    verdict = verify_success(before, after, grasp_fb(True), GRASP)
    assert verdict.success
    assert verdict.delta_consistent


def test_flag_success_but_still_visible_is_visual_feedback_error():
    before = obs(snap("cup_1", "cup", "table_0"))
    after = obs(snap("cup_1", "cup", "table_0"))
    verdict = verify_success(before, after, grasp_fb(True), GRASP)
    assert not verdict.success
    assert verdict.suspected_cause == "visual_feedback_error"


def test_flag_failure_but_vanished_is_visual_feedback_error():
    before = obs(snap("cup_1", "cup", "table_0"))
    after = obs()
    verdict = verify_success(before, after, grasp_fb(False), GRASP)
    assert not verdict.success
    assert verdict.suspected_cause == "visual_feedback_error"


def test_consistent_grasp_failure():
    before = obs(snap("cup_1", "cup", "table_0"))
    after = obs(snap("cup_1", "cup", "table_0"))
    verdict = verify_success(before, after, grasp_fb(False), GRASP)
    assert not verdict.success
    assert verdict.delta_consistent
    assert verdict.suspected_cause is None


def test_place_success_requires_object_on_target():
    request = ActionRequest(verb="place", target="plate_0", request_index=4)
    fb = Feedback(request_index=4, verb="place", success=True, details={"placed": "cup_1"})
    ok = verify_success(obs(), obs(snap("cup_1", "cup", "plate_0")), fb, request)
    assert ok.success
    wrong = verify_success(obs(), obs(snap("cup_1", "cup", "table_0")), fb, request)
    assert not wrong.success and wrong.suspected_cause == "visual_feedback_error"


def test_noop_perception_verdict_vacuously_true():
    request = ActionRequest(verb="report_observation", target="stay", request_index=5)
    fb = Feedback(request_index=5, verb="report_observation", success=True)
    same = obs(snap("cup_1", "cup", "table_0"))
    verdict = verify_success(same, same, fb, request)
    assert verdict.success


def test_verdict_purity():
    before = obs(snap("cup_1", "cup", "table_0"))
    after = obs()
    a = verify_success(before, after, grasp_fb(True), GRASP)
    b = verify_success(before, after, grasp_fb(True), GRASP)
    assert a == b


# --- feasibility ------------------------------------------------------------------


def scanned_belief(world, receptacles):
    from homeloop.perception import explore_global, explore_local

    belief = Belief()
    explore_global(world, belief)
    for rid in receptacles:
        assert world.apply_action(ActionRequest(verb="navigate", target=rid)).success
        belief.at_receptacle = rid
        explore_local(world, belief, rid)
    return belief


def test_feasibility_rollback_to_unvisited_table():
    # needed: an empty cup; the cups here are known used; another table exists
    import copy
    from conftest import MINI_SCENE

    doc = copy.deepcopy(MINI_SCENE)
    doc["objects"] = [
        {"id": "cup_1", "category": "cup", "attributes": ["used"], "on": "table_0", "offset": [0.2, 0.0]},
        {"id": "cup_2", "category": "cup", "attributes": ["empty"], "on": "table_1", "offset": [-0.2, 0.0]},
    ]
    world = make_world(doc)
    belief = scanned_belief(world, ["table_0"])
    from homeloop.perception import report_observation

    report_observation(world, belief, belief.local_maps["table_0"].find("cup_1"))  # tags it used
    goal = On(Selector(category="cup", attributes=frozenset({"empty"})), Selector(id="table_0"))
    verdict = verify_feasibility(goal, belief)
    assert not verdict.feasible
    assert verdict.rollback is not None
    assert verdict.rollback.level == "global"
    assert verdict.rollback.receptacle == "table_1"


def test_feasibility_local_rescan_when_kind_never_seen():
    world = make_world(DOLL_SCENE, p_missed_detection=1.0)
    belief = scanned_belief(world, ["table_0"])
    goal = On(Selector(category="cup"), Selector(id="table_0"))
    verdict = verify_feasibility(goal, belief)
    assert not verdict.feasible
    assert verdict.rollback.level == "local"
    assert verdict.rollback.receptacle == "table_0"


def test_feasible_when_candidate_present():
    world = make_world(DOLL_SCENE)
    belief = scanned_belief(world, ["table_0"])
    goal = On(Selector(category="cup"), Selector(id="table_0"))
    assert verify_feasibility(goal, belief).feasible


def test_feasibility_exhausted_means_direct_failure():
    world = make_world(DOLL_SCENE)
    belief = scanned_belief(world, ["table_0"])
    belief.local_maps["table_0"].scan_count = 2  # the one re-scan already spent
    goal = On(Selector(category="bottle"), Selector(id="table_0"))
    verdict = verify_feasibility(goal, belief)
    assert not verdict.feasible
    assert verdict.rollback is None


def test_rollback_suggestions_point_at_unscanned_global_map_entries():
    world = make_world(DOLL_SCENE)
    belief = scanned_belief(world, ["table_0"])
    belief.local_maps["table_0"].scan_count = 2
    goal = On(Selector(category="bottle"), Selector(id="table_0"))
    verdict = verify_feasibility(goal, belief)
    if verdict.rollback is not None:
        assert verdict.rollback.receptacle not in belief.local_maps
        assert belief.global_map.find(verdict.rollback.receptacle) is not None


# --- classification ------------------------------------------------------------------


def test_classify_sampled_grasp_failure_object_level():
    record = classify_failure(None, grasp_fb(False), RetryState())
    assert record.cause == "grasp_failed"
    assert record.recovery_level == "object"


def test_classify_shifted_grasp_failure_local_level():
    record = classify_failure(None, grasp_fb(False, details={"shifted": True}), RetryState())
    assert record.recovery_level == "local"
    record2 = classify_failure(None, grasp_fb(False), RetryState(shifted=True))
    assert record2.recovery_level == "local"


def test_classify_out_of_reach_global_level():
    fault = PreconditionFault("out_of_reach", "not adjacent to table_0")
    record = classify_failure(None, grasp_fb(False, fault=fault), RetryState())
    assert record.cause == "grasp_failed"
    assert record.recovery_level == "global"


def test_classify_phantom_target_false_positive():
    fault = TargetNotVisible("target_not_visible", "cup_0 no longer exists")
    record = classify_failure(None, grasp_fb(False, fault=fault), RetryState())
    assert record.cause == "false_positive"
    assert record.recovery_level == "local"


def test_classify_api_errors_plan_level():
    fault = ApiCallError("bad_argument", "expected object reference")
    record = classify_failure(None, grasp_fb(False, fault=fault), RetryState())
    assert record.cause == "api_call_error"
    assert record.recovery_level == "none"
    pre = PreconditionFault("place_without_grasp", "place without prior grasping")
    fb = Feedback(request_index=1, verb="place", success=False, fault=pre)
    record2 = classify_failure(None, fb, RetryState())
    assert record2.cause == "api_call_error"


def test_classify_navigation_failure_global():
    fb = Feedback(request_index=2, verb="navigate", success=False, message="navigation failed")
    record = classify_failure(None, fb, RetryState())
    assert record.cause == "navigation_failed"
    assert record.recovery_level == "global"


def test_cause_totality_every_failed_feedback_classifies():
    samples = [
        Feedback(request_index=0, verb="grasp", success=False),
        Feedback(request_index=1, verb="place", success=False),
        Feedback(request_index=2, verb="navigate", success=False),
        Feedback(request_index=3, verb="grasp", success=False,
                 fault=TargetNotVisible("target_not_visible", "x")),
        Feedback(request_index=4, verb="place", success=False,
                 fault=PreconditionFault("out_of_reach", "x")),
        Feedback(request_index=5, verb="fly", success=False,
                 fault=ApiCallError("unknown_verb", "x")),
    ]
    for fb in samples:
        record = classify_failure(None, fb, RetryState())
        assert record.cause in {
            "false_positive", "missed_detection", "visual_feedback_error",
            "api_call_error", "grasp_failed", "place_failed", "navigation_failed",
        }


def test_zero_noise_verdicts_match_ground_outcomes(mini_world):
    # soundness anchor: with truthful flags and no noise, every verdict equals
    # the ground outcome
    ctx = SkillContext(world=mini_world, belief=Belief())
    from homeloop.perception import capture

    seq = [
        ActionRequest(verb="explore_global"),
        ActionRequest(verb="navigate", target="table_0"),
        ActionRequest(verb="explore_local", target="table_0"),
        ActionRequest(verb="grasp", target="toy_0"),
        ActionRequest(verb="navigate", target="bed_0"),
        ActionRequest(verb="place", target="bed_0"),
    ]
    for request in seq:
        before = capture(ctx.world, "stay")
        fb = dispatch(ctx, request)
        after = capture(ctx.world, "stay")
        verdict = verify_success(before, after, fb, request)
        assert verdict.success == fb.success == True  # noqa: E712


_OPTIMIZED_CHECKS = {
    "unknown failure cause": "FailureRecord('bogus_cause', 0, 'nowhere')",
    "unknown recovery level": "FailureRecord('grasp_failed', 0, 'nowhere')",
    "1 failures != 0 replanned + 0 direct": (
        "TrialReport('t', 0, 0, 'failure', '', False, 1, 0,"
        " failure_records=[FailureRecord('grasp_failed', 0, 'object')]).check_identities()"
    ),
}


@pytest.mark.parametrize("message", sorted(_OPTIMIZED_CHECKS))
def test_invariants_survive_python_dash_o(message):
    code = (
        "from homeloop.verification import FailureRecord\n"
        "from homeloop.trace import TrialReport\n"
        "assert False, 'asserts must be stripped under -O'\n"
        + _OPTIMIZED_CHECKS[message]
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode != 0
    assert f"ValueError: {message}" in proc.stderr, proc.stderr
