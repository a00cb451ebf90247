"""Primitive-action APIs.

The six verbs — navigate, grasp, place, explore_global, explore_local,
report_observation — are the only way a plan can touch the world.

Verb names, argument arities and fault strings are frozen: they appear
verbatim in the system prompt and in the plan DSL grammar.

Execution verbs (navigate/grasp/place) count toward step-wise accounting;
perception verbs never do.

Each verb returns its Feedback (an execution verb the one
``World.apply_action`` built) and logs nothing. Any layer refuses a request
by raising ``Refused``. ``dispatch`` alone turns a refusal into a failed
Feedback, counts the steps and appends the request, the feedback and any
observation to the trial's event log on the ``SkillContext``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from . import perception
from .errors import ApiCallError, Fault, Refused
from .perception import Belief, Observation, explore_global, explore_local, report_observation
from .world import ActionRequest, Feedback, World

if TYPE_CHECKING:
    from .verification import FailureRecord, SuccessVerdict

__all__ = ["ActionRequest", "Feedback", "SkillContext", "dispatch", "evidence_ids", "verdict_event"]


@dataclass
class SkillContext:
    """Per-trial execution context: the world, the belief, the trial's event
    log and failure records, and the step accounting."""

    world: World
    belief: Belief
    events: list[dict[str, Any]] = field(default_factory=list)
    records: list[FailureRecord] = field(default_factory=list)
    requests_made: int = 0
    execution_steps: int = 0
    successful_steps: int = 0

    def take_index(self) -> int:
        idx = self.requests_made
        self.requests_made += 1
        return idx


def _log(ctx: SkillContext, request: ActionRequest, fb: Feedback) -> None:
    """Count the answered request's step and append its request, feedback and
    observation events."""
    if fb.counted:
        ctx.execution_steps += 1
        if fb.success:
            ctx.successful_steps += 1
    ctx.events.append(
        {
            "event": "request",
            "index": request.request_index,
            "verb": request.verb,
            "target": request.target,
            "location": _location_json(request),
            "side": request.side,
            "source": request.params.get("recovery_level", "planner"),
        }
    )
    ctx.events.append(
        {
            "event": "feedback",
            "index": fb.request_index,
            "verb": fb.verb,
            "success": fb.success,
            "counted": fb.counted,
            "fault": _fault_json(fb.fault),
            "message": fb.message,
            "details": dict(fb.details),
        }
    )
    if fb.observation is not None:
        ctx.events.append(
            {"event": "observation", "index": fb.request_index, "phase": "result",
             "observation": fb.observation.to_json()}
        )


def evidence_ids(request: ActionRequest, fb: Optional[Feedback] = None) -> tuple[str, ...]:
    """The objects ``verify_success`` reads from the before image (no
    ``fb``) or the after image of ``request``: a grasp's target before and
    after, a place's moved object after, nothing otherwise."""
    if request.verb == "grasp":
        oid = request.target
    elif request.verb == "place" and fb is not None:
        oid = fb.moved
    else:
        oid = None
    return (oid,) if oid else ()


def verdict_event(
    request: ActionRequest, fb: Feedback, verdict: SuccessVerdict, before: Observation, after: Observation
) -> dict[str, Any]:
    """The trace event of one verified execution. ``before`` and ``after``
    hold the evidence the verdict read (``evidence_ids``)."""
    return {
        "event": "verdict",
        "index": fb.request_index,
        "verb": request.verb,
        "target": request.target,
        "location": _location_json(request),
        "placed": fb.details.get("placed"),
        "dropped": fb.details.get("dropped"),
        **verdict.to_json(),
        "feedback_success": fb.success,
        "fault": _fault_json(fb.fault),
        "before": before.to_json(),
        "after": after.to_json(),
    }


def _location_json(request: ActionRequest) -> Optional[list]:
    return [request.location[0], list(request.location[1])] if request.location else None


def _fault_json(fault: Optional[Fault]) -> Optional[dict[str, str]]:
    return {"kind": fault.kind, "code": fault.code, "message": fault.message} if fault else None


# --- the six verbs --------------------------------------------------------------


def _reference(request: ActionRequest, what: str) -> str:
    """The request's target; refuses a string literal or a missing target."""
    ref = request.target
    if ref is None or request.params.get("string_literal"):
        raise Refused(ApiCallError("bad_argument", f"{request.verb} expects {what}, got a string literal {ref!r}"))
    return ref


def _ok(request: ActionRequest, message: str, **kw: Any) -> Feedback:
    return Feedback(request.request_index, request.verb, True, message=message, **kw)


def navigate(ctx: SkillContext, request: ActionRequest) -> Feedback:
    ref = _reference(request, "an object reference from the global map")
    if ctx.belief.furniture(ref) is None:
        raise Refused(ApiCallError(
            "unknown_reference", f"navigate target {ref!r} is not in the global object map; run explore_global first"
        ))
    fb = ctx.world.apply_action(request)
    if fb.success:
        ctx.belief.at_receptacle = ref
        ctx.belief.approach_side = fb.details.get("approach_side")
    return fb


def grasp(ctx: SkillContext, request: ActionRequest) -> Feedback:
    ref = _reference(request, "an object reference from a local map")
    if ctx.belief.furniture(ref) is not None:
        raise Refused(ApiCallError("bad_argument", f"{ref!r} is furniture and cannot be grasped"))
    # normal flow: the target entered the belief through a local scan; a
    # dropped object noted on the floor stays referencable for re-grasping
    if ref not in ctx.belief.objects and ctx.belief.local_item(ref) is None:
        fault = ApiCallError("target_not_in_local_map", f"{ref!r} is not in any current local map")
        raise Refused(fault, f"grasp failed: {ref} not in local map")
    fb = ctx.world.apply_action(request)
    if fb.success:
        ctx.belief.note_grasped(ref)
    elif fb.details.get("shifted"):
        b = ctx.belief.objects.get(ref)
        if b is not None and b.parent_id:
            ctx.belief.mark_stale(b.parent_id)
    return fb


def place(ctx: SkillContext, request: ActionRequest) -> Feedback:
    if request.location is None:
        ref = _reference(request, "a receptacle reference or a location")
        if ctx.belief.furniture(ref) is None and ref not in ctx.belief.objects:
            raise Refused(ApiCallError("unknown_reference", f"place target {ref!r} is not in any map"))
    held = ctx.world.gripper
    fb = ctx.world.apply_action(request)
    if fb.success and held is not None:
        ctx.belief.note_released(held, ctx.world.position_of(held), request.receptacle)
    elif fb.details.get("dropped"):
        # failed place drops the held object on the floor near the robot
        dropped = fb.details["dropped"]
        ctx.belief.note_released(dropped, ctx.world.position_of(dropped), None)
    return fb


def do_explore_global(ctx: SkillContext, request: ActionRequest) -> Feedback:
    gmap = explore_global(ctx.world, ctx.belief)
    names = ", ".join(f.id for f in gmap.furniture) or "nothing"
    coverage = gmap.explored_mask.bit_count()
    return _ok(
        request,
        f"global map built: {names} ({coverage} cells explored)",
        details={"furniture": [f.to_json() for f in gmap.furniture]},
    )


def do_explore_local(ctx: SkillContext, request: ActionRequest) -> Feedback:
    ref = _reference(request, "a furniture reference")
    if ctx.belief.furniture(ref) is None:
        raise Refused(ApiCallError(
            "unknown_reference", f"explore_local target {ref!r} is not in the global object map"
        ))
    lmap = explore_local(ctx.world, ctx.belief, ref)
    listing = ", ".join(f"{o.id} ({o.category})" for o in lmap.items) or "no objects"
    obs = Observation(
        kind="stay", target=ref, visible=tuple(lmap.items), captured_at_step=ctx.world.step_counter
    )
    return _ok(
        request,
        f"local map of {ref}: {listing}",
        observation=obs,
        details={"receptacle_version": lmap.built_version, "scan_count": lmap.scan_count},
    )


def do_report_observation(ctx: SkillContext, request: ActionRequest) -> Feedback:
    ref = request.target
    if ref in ("stay", "rest"):
        # looked up through the module, where perfbench/tracing.SPANS counts it
        obs = perception.capture(ctx.world, ref)
        listing = ", ".join(o.id for o in obs.visible) or "nothing in view"
        return _ok(request, f"{ref} view: {listing}", observation=obs)
    if ref is None:
        raise Refused(ApiCallError("bad_argument", "report_observation needs a target or a mode"))
    target_obj = ctx.belief.local_item(ref) or ctx.belief.furniture(ref)
    if target_obj is None:
        raise Refused(ApiCallError(
            "unknown_reference", f"report_observation target {ref!r} is not in any current map"
        ))
    obs = report_observation(ctx.world, ctx.belief, target_obj)
    seen = obs.find(ref)
    desc = f"{seen.category} with attributes {sorted(seen.attributes)}" if seen else "nothing"
    return _ok(request, f"close-up of {ref}: {desc}", observation=obs)


def _unknown_verb(ctx: SkillContext, request: ActionRequest) -> Feedback:
    fault = ApiCallError("unknown_verb", f"unknown verb {request.verb!r}; available: {', '.join(sorted(_HANDLERS))}")
    raise Refused(fault, f"unknown verb {request.verb!r}")


_HANDLERS = {
    "navigate": navigate,
    "grasp": grasp,
    "place": place,
    "explore_global": do_explore_global,
    "explore_local": do_explore_local,
    "report_observation": do_report_observation,
}


def dispatch(ctx: SkillContext, request: ActionRequest) -> Feedback:
    """Single entry point for every plan step. Assigns the request index,
    routes to the verb handler, turns a refusal into a failed Feedback, and
    counts and logs the answer on the context."""
    if request.request_index < 0:
        request.request_index = ctx.take_index()
    try:
        fb = _HANDLERS.get(request.verb, _unknown_verb)(ctx, request)
    except Refused as refusal:
        fb = Feedback(request.request_index, request.verb, False, fault=refusal.fault, message=refusal.message)
    _log(ctx, request, fb)
    return fb
