from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

from homeloop.config import load_builtin_suite
from homeloop.errors import ApiCallError, PreconditionFault, TargetNotVisible, TraceFormatError, field_names
from homeloop.harness import make_planner_factory, run_suite
from homeloop.perception import Belief, Observation, SceneObject
from homeloop.skills import ActionRequest, Feedback, SkillContext, dispatch
from homeloop.trace import TrialReport, load_trace, write_trace
from homeloop.verification import (
    FailureRecord,
    FeasibilityVerdict,
    RollbackSuggestion,
    SuccessVerdict,
    atom_object_selector,
    classify_failure,
    scannable_receptacles,
    verify_feasibility,
    verify_success,
)
from homeloop.goals import Not, On, Selector

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


# The verdict table. Each row is one request, its feedback flag and details,
# and a before/after pair whose after image confirms a claimed success,
# contradicts a claimed failure, both or neither; then all five verdict fields.
CUP = snap("cup_1", "cup", "table_0")
VFE = "visual_feedback_error"
PLACE_AT = ActionRequest(verb="place", location=("plate_0", (0.1, 0.0)), request_index=3)
PLACE_ON = ActionRequest(verb="place", target="plate_0", request_index=3)
NAVIGATE = ActionRequest(verb="navigate", target="table_0", request_index=3)
SCAN = ActionRequest(verb="explore_local", target="table_0", request_index=3)
ON_PLATE = obs(snap("cup_1", "cup", "plate_0"))
ON_TABLE = obs(CUP)
ON_FLOOR = obs(snap("cup_1", "cup", None))
PLACED = {"placed": "cup_1"}

VERDICT_TABLE = [
    # grasp: gone confirms a success; gone after being seen contradicts a failure
    ("grasp-ok-gone", GRASP, True, {}, obs(CUP), obs(),
     (True, True, True, "cup_1 no longer on the surface; grasp confirmed", None)),
    ("grasp-ok-gone-unseen", GRASP, True, {}, obs(), obs(),
     (True, True, True, "cup_1 no longer on the surface; grasp confirmed", None)),
    ("grasp-ok-still", GRASP, True, {}, obs(CUP), obs(CUP),
     (False, True, False, "feedback claims success but cup_1 is still visible", VFE)),
    ("grasp-fail-gone", GRASP, False, {}, obs(CUP), obs(),
     (False, False, False, "feedback claims failure but cup_1 vanished from view", VFE)),
    ("grasp-fail-gone-unseen", GRASP, False, {}, obs(), obs(),
     (False, False, True, "grasp of cup_1 failed; target still in place", None)),
    ("grasp-fail-still", GRASP, False, {"shifted": True}, obs(CUP), obs(CUP),
     (False, False, True, "grasp of cup_1 failed; target still in place", None)),
]
for form, place in (("at", PLACE_AT), ("on", PLACE_ON)):
    VERDICT_TABLE += [
        # place: the moved object seen on the receptacle confirms and contradicts
        (f"place-{form}-ok-on", place, True, PLACED, obs(), ON_PLATE,
         (True, True, True, "cup_1 observed on plate_0; place confirmed", None)),
        (f"place-{form}-ok-elsewhere", place, True, PLACED, obs(), ON_TABLE,
         (False, True, False, "feedback claims success but cup_1 is not on plate_0", VFE)),
        (f"place-{form}-ok-unseen", place, True, PLACED, obs(), obs(),
         (False, True, False, "feedback claims success but cup_1 is not visible on the target", VFE)),
        (f"place-{form}-ok-nothing-moved", place, True, {}, obs(), ON_PLATE,
         (False, True, False, "feedback claims success but  is not visible on the target", VFE)),
        (f"place-{form}-fail-on", place, False, PLACED, obs(), ON_PLATE,
         (False, False, False, "feedback claims failure but cup_1 is on plate_0", VFE)),
        (f"place-{form}-fail-dropped", place, False, {"dropped": "cup_1"}, obs(), ON_FLOOR,
         (False, False, True, "place onto plate_0 failed", None)),
        (f"place-{form}-fail-elsewhere", place, False, PLACED, obs(), ON_TABLE,
         (False, False, True, "place onto plate_0 failed", None)),
        (f"place-{form}-fail-nothing-moved", place, False, {}, obs(), ON_PLATE,
         (False, False, True, "place onto plate_0 failed", None)),
    ]
VERDICT_TABLE += [
    # every other verb trusts the flag, whatever the images show
    ("navigate-ok", NAVIGATE, True, {}, obs(CUP), obs(),
     (True, True, True, "navigate reported success", None)),
    ("navigate-fail", NAVIGATE, False, {}, obs(CUP), obs(),
     (False, False, True, "navigate reported failure: no luck", None)),
    ("explore_local-ok", SCAN, True, {}, obs(), obs(CUP),
     (True, True, True, "explore_local reported success", None)),
    ("explore_local-fail", SCAN, False, {}, obs(CUP), obs(CUP),
     (False, False, True, "explore_local reported failure: no luck", None)),
]


def verdict_fields(verdict):
    return (verdict.success, verdict.feedback_flag, verdict.delta_consistent, verdict.explanation,
            verdict.suspected_cause)


@pytest.mark.parametrize("case", VERDICT_TABLE, ids=[row[0] for row in VERDICT_TABLE])
def test_verdict_table(case):
    _, request, flag, details, before, after, expected = case
    fb = Feedback(request_index=3, verb=request.verb, success=flag, message="no luck", details=dict(details))
    assert verdict_fields(verify_success(before, after, fb, request)) == expected


@pytest.mark.parametrize("case", VERDICT_TABLE, ids=[row[0] for row in VERDICT_TABLE])
def test_verdict_table_with_a_fault(case):
    """A typed fault fails the step whatever the flag and the images say."""
    _, request, flag, details, before, after, _ = case
    fault = PreconditionFault("out_of_reach", "not adjacent to table_0")
    fb = Feedback(request_index=3, verb=request.verb, success=flag, fault=fault, message="no luck",
                  details=dict(details))
    expected = (False, flag, True, "typed fault: not adjacent to table_0", None)
    assert verdict_fields(verify_success(before, after, fb, request)) == expected


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
    record = classify_failure(None, grasp_fb(False))
    assert record.cause == "grasp_failed"
    assert record.recovery_level == "object"


def test_classify_shifted_grasp_failure_local_level():
    record = classify_failure(None, grasp_fb(False, details={"shifted": True}))
    assert record.recovery_level == "local"
    record2 = classify_failure(None, grasp_fb(False), shifted=True)
    assert record2.recovery_level == "local"


def test_classify_out_of_reach_global_level():
    fault = PreconditionFault("out_of_reach", "not adjacent to table_0")
    record = classify_failure(None, grasp_fb(False, fault=fault))
    assert record.cause == "grasp_failed"
    assert record.recovery_level == "global"


def test_classify_phantom_target_false_positive():
    fault = TargetNotVisible("target_not_visible", "cup_0 no longer exists")
    record = classify_failure(None, grasp_fb(False, fault=fault))
    assert record.cause == "false_positive"
    assert record.recovery_level == "local"


def test_classify_api_errors_plan_level():
    fault = ApiCallError("bad_argument", "expected object reference")
    record = classify_failure(None, grasp_fb(False, fault=fault))
    assert record.cause == "api_call_error"
    assert record.recovery_level == "none"
    pre = PreconditionFault("place_without_grasp", "place without prior grasping")
    fb = Feedback(request_index=1, verb="place", success=False, fault=pre)
    record2 = classify_failure(None, fb)
    assert record2.cause == "api_call_error"


def test_classify_navigation_failure_global():
    fb = Feedback(request_index=2, verb="navigate", success=False, message="navigation failed")
    record = classify_failure(None, fb)
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
        record = classify_failure(None, fb)
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


@pytest.mark.parametrize("record", [
    SuccessVerdict(False, True, False, "feedback claims success", "visual_feedback_error"),
    FeasibilityVerdict(True, None, "goal believed satisfied"),
    FeasibilityVerdict(False, RollbackSuggestion("global", "table_1", "search table_1"), "no candidate"),
    FailureRecord("grasp_failed", 4, "object", replanned=True, detail="slipped"),
], ids=["success", "feasibility", "feasibility-rollback", "failure"])
def test_a_record_writes_its_fields(record):
    doc = record.to_json()
    assert tuple(doc) == field_names(type(record))
    if isinstance(record, FeasibilityVerdict) and record.rollback is not None:
        assert doc["rollback"] == {name: getattr(record.rollback, name) for name in field_names(RollbackSuggestion)}


def test_every_bundled_failure_record_reads_back_from_its_json():
    records = [
        r for name in ("acceptance", "benchmark")
        for report in run_suite(load_builtin_suite(name), make_planner_factory("scripted"), base_seed=3)[1]
        for r in report.failure_records
    ]
    assert records  # the bundled suites fail and recover at this seed
    assert [FailureRecord.from_json(r.to_json()) for r in records] == records


def _trace_with_record(edit) -> str:
    """A one-record trace whose footer record ``edit`` changed."""
    report = TrialReport("t", 0, 0, "failure", "", False, 1, 0,
                         failure_records=[FailureRecord("grasp_failed", 0, "object", replanned=True)])
    buf = io.StringIO()
    write_trace(report, buf)
    lines = buf.getvalue().splitlines()
    footer = json.loads(lines[-1])
    edit(footer["failure_records"][0])
    return "\n".join(lines[:-1] + [json.dumps(footer)])


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(replanned="no"),
    lambda doc: doc.update(attempts=2),
    lambda doc: doc.pop("cause"),
    lambda doc: doc.pop("recovered"),
    lambda doc: doc.update(request_index="zero", detail=5),
    lambda doc: doc.update(request_index=True),
    lambda doc: doc.update(request_index=0.5),
    lambda doc: doc.update(detail=5),
], ids=["string-flag", "unknown-key", "no-cause", "no-flag", "string-index-number-detail", "boolean-index",
        "fractional-index", "number-detail"])
def test_a_mistyped_failure_record_does_not_load(edit):
    assert load_trace(io.StringIO(_trace_with_record(lambda doc: None))).failure_records[0].replanned
    with pytest.raises(TraceFormatError):
        load_trace(io.StringIO(_trace_with_record(edit)))


def test_a_failure_record_without_detail_loads():
    report = load_trace(io.StringIO(_trace_with_record(lambda doc: doc.pop("detail"))))
    assert report.failure_records == [FailureRecord("grasp_failed", 0, "object", replanned=True)]


# --- paths no bundled trial reaches ----------------------------------------------------


def test_an_unknown_recovery_level_is_refused():
    with pytest.raises(ValueError) as exc:
        FailureRecord("grasp_failed", 0, "nowhere")
    assert str(exc.value) == "unknown recovery level 'nowhere'"


def test_before_the_global_map_every_plan_is_feasible_and_nothing_is_scannable():
    belief = Belief()
    assert verify_feasibility(On(Selector(id="toy_0"), Selector(id="bed_0")), belief) == FeasibilityVerdict(
        True, None, "no global map yet; exploration pending")
    assert scannable_receptacles(belief) == []


def test_a_negated_sub_goal_names_no_object_to_find():
    from conftest import MINI_SCENE

    belief = scanned_belief(make_world(MINI_SCENE), ["table_0"])
    goal = Not(On(Selector(id="toy_0"), Selector(id="table_0")))
    assert atom_object_selector(goal) is None
    assert verify_feasibility(goal, belief) == FeasibilityVerdict(
        True, None, "no object requirement in the current sub-goal")


def test_a_scan_that_listed_the_wanted_id_is_not_repeated():
    # the toy was seen here and ruled out: a re-scan would not help, so the
    # rollback goes to the first unscanned table
    from conftest import MINI_SCENE

    belief = scanned_belief(make_world(MINI_SCENE), ["table_0"])
    belief.objects["toy_0"].ruled_out = True
    verdict = verify_feasibility(On(Selector(id="toy_0"), Selector(id="bed_0")), belief)
    assert not verdict.feasible
    assert (verdict.rollback.level, verdict.rollback.receptacle) == ("global", "table_1")


def test_a_failed_perception_call_without_a_fault_is_an_api_call_error():
    fb = Feedback(3, "explore_global", False, message="nothing swept")
    assert classify_failure(None, fb) == FailureRecord("api_call_error", 3, "none", detail="nothing swept")
