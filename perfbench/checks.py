"""Output checks, run after the timed region.

Every check compares a trace against something computed apart from the
program, or against a property the method must have; none compares against a
stored copy of earlier output. Each function returns a list of problems, empty
when the trace passes.
"""

from __future__ import annotations

import io
from collections import Counter
from typing import Any, Optional

from homeloop.harness import replay_matches
from homeloop.trace import OUTCOME_SUCCESS, TrialReport, load_trace, write_trace

EXECUTION_VERBS = ("navigate", "grasp", "place")  # spelled out here so the recount does not use homeloop's own list


def serialize(report: TrialReport) -> str:
    sink = io.StringIO()
    write_trace(report, sink)
    return sink.getvalue()


def check_trace(text: str) -> tuple[Optional[TrialReport], list[str]]:
    """Load a written trace and check what every trace must satisfy:

    - it loads, and re-writes to the same bytes;
    - every recorded verdict replays to the same verdict;
    - the footer's step counters equal a recount of the execution feedback
      events, and its failure counters equal a recount of its records;
    - every failed verdict has a failure record at the same request index;
    - failures = replanned + direct, recovered <= replanned, and the outcome
      is a success exactly when the goal is satisfied.
    """
    try:
        report = load_trace(io.StringIO(text))
    except Exception as exc:  # any load error is a finding about this trace
        return None, [f"trace does not load: {type(exc).__name__}: {exc}"]
    problems = []
    if serialize(report) != text:
        problems.append("trace does not re-write to the same bytes")
    if not replay_matches(report):
        problems.append("a recorded verdict does not replay")

    feedback = [e for e in report.events if e.get("event") == "feedback" and e["verb"] in EXECUTION_VERBS]
    steps = len(feedback)
    ok_steps = sum(1 for e in feedback if e["success"])
    if (steps, ok_steps) != (report.execution_steps, report.successful_steps):
        problems.append(
            f"footer counts {report.execution_steps}/{report.successful_steps} steps, "
            f"events show {steps}/{ok_steps}"
        )

    records = report.failure_records
    replanned = sum(1 for r in records if r.replanned)
    recovered = sum(1 for r in records if r.recovered)
    direct = sum(1 for r in records if r.direct_failure)
    if len(records) != replanned + direct:
        problems.append(f"{len(records)} failures != {replanned} replanned + {direct} direct")
    if any(r.replanned == r.direct_failure or (r.recovered and not r.replanned) for r in records):
        problems.append("a failure record is not exactly one of replanned or direct")
    if recovered > replanned:
        problems.append(f"recovered {recovered} > replanned {replanned}")

    failed = Counter(e["index"] for e in report.events if e.get("event") == "verdict" and not e["success"])
    recorded = Counter(r.request_index for r in records if r.request_index in failed)
    if failed != recorded:
        problems.append(f"failed verdicts at {sorted(failed.elements())}, records at {sorted(recorded.elements())}")
    for event in report.events:
        if event.get("event") == "failure" and not any(
            r.request_index == event["request_index"] and r.cause == event["cause"] for r in records
        ):
            problems.append(f"failure event at request {event['request_index']} has no record")

    if (report.outcome == OUTCOME_SUCCESS) != report.goal_satisfied:
        problems.append(f"outcome {report.outcome} but goal_satisfied={report.goal_satisfied}")
    return report, problems


def final_parents(scene: dict[str, Any], events: list[dict[str, Any]]) -> dict[str, Optional[str]]:
    """Where each object ends up, from the scene's initial placements and the
    grasp, place and drop feedback in the trace. ``None`` means the floor or
    the gripper."""
    parent: dict[str, Optional[str]] = {o["id"]: o.get("on") for o in scene["objects"]}
    for e in events:
        if e.get("event") != "feedback":
            continue
        details = e["details"]
        if e["verb"] == "grasp" and "holding" in details:
            parent[details["holding"]] = None
        elif e["verb"] == "place" and "placed" in details:
            parent[details["placed"]] = details["on"]
        elif e["verb"] == "place" and "dropped" in details:
            parent[details["dropped"]] = None
    return parent


def goal_holds(scene: dict[str, Any], goal: dict[str, Any], parent: dict[str, Optional[str]]) -> bool:
    """Evaluate the goal forms the generators write (``and``, ``all_on`` by
    category, ``on`` by id or by category and attributes, each onto a
    receptacle id), without homeloop."""
    if "and" in goal:
        return all(goal_holds(scene, g, parent) for g in goal["and"])
    if "all_on" in goal:
        category = goal["all_on"]["category"]
        dest = goal["all_on"]["receptacle"]["id"]
        return all(parent[o["id"]] == dest for o in scene["objects"] if o["category"] == category)
    if "on" in goal:
        sel = goal["on"]["object"]
        dest = goal["on"]["receptacle"]["id"]
        return any(
            parent[o["id"]] == dest
            for o in scene["objects"]
            if o["id"] == sel.get("id", o["id"])
            and o["category"] == sel.get("category", o["category"])
            and set(sel.get("attributes", [])) <= set(o.get("attributes", []))
        )
    raise ValueError(f"no independent evaluator for goal {sorted(goal)}")


def check_generated_outcome(doc: dict[str, Any], report: TrialReport) -> list[str]:
    """The trial's outcome must agree with an independent evaluation of its
    goal on the placements the trace implies."""
    expected = goal_holds(doc["scene"], doc["goal"], final_parents(doc["scene"], report.events))
    if expected != report.goal_satisfied or expected != (report.outcome == OUTCOME_SUCCESS):
        return [f"goal evaluates to {expected} from the trace, trial says {report.outcome}"]
    return []
