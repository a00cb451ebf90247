"""Status verification: success checking, feasibility checking, and failure
classification.

Success verification is rule-based over structured before/after observations
plus the action's feedback flag; per-verb delta rules are documented on
``verify_success``. A mismatch between the flag and the observed delta is a
visual-feedback error. Feasibility verification asks whether the current plan
can still proceed against the belief, and suggests where to roll back when it
cannot. Classification maps each piece of failure evidence onto exactly one
cause from the closed vocabulary and picks the initial recovery level.

Everything here is pure: verdicts are reproducible from their evidence alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .goals import EntityView, Goal, PlacementView, Selector, On, AllOn, SameReceptacle, Holding, And, Or, Not
from .perception import Belief, BeliefObject, Observation
from .skills import Feedback
from .world import ActionRequest

# The closed failure-cause vocabulary, each cause with the module group the
# failure table reports it under, in table order.
CAUSE_GROUP = {
    "false_positive": "perception",
    "missed_detection": "perception",
    "visual_feedback_error": "perception",
    "api_call_error": "execution",
    "grasp_failed": "execution",
    "place_failed": "execution",
    "navigation_failed": "execution",
}
CAUSES = tuple(CAUSE_GROUP)

LEVELS = ("object", "local", "global", "none")

# The only fault codes that report a physical failure; every other fault is a
# planner mistake (wrong or missing call), an api_call_error.
PHYSICAL_FAULT_CODES = frozenset({"target_not_visible", "out_of_reach"})


@dataclass(frozen=True)
class SuccessVerdict:
    success: bool
    feedback_flag: bool
    delta_consistent: bool
    explanation: str
    suspected_cause: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "success": self.success,
            "feedback_flag": self.feedback_flag,
            "delta_consistent": self.delta_consistent,
            "explanation": self.explanation,
            "suspected_cause": self.suspected_cause,
        }


@dataclass(frozen=True)
class RollbackSuggestion:
    level: str  # "local" | "global"
    receptacle: str
    reason: str


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    rollback: Optional[RollbackSuggestion]
    explanation: str

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "rollback": (
                {"level": self.rollback.level, "receptacle": self.rollback.receptacle, "reason": self.rollback.reason}
                if self.rollback
                else None
            ),
            "explanation": self.explanation,
        }


@dataclass
class FailureRecord:
    """One failure event and what became of it. Every failed execution is
    either re-issued by recovery (replanned) or ends the task (direct)."""

    cause: str
    request_index: int
    recovery_level: str
    direct_failure: bool = False
    replanned: bool = False
    recovered: bool = False
    detail: str = ""

    def __post_init__(self) -> None:
        if self.cause not in CAUSES:
            raise ValueError(f"unknown failure cause {self.cause!r}")
        if self.recovery_level not in LEVELS:
            raise ValueError(f"unknown recovery level {self.recovery_level!r}")

    def mark_direct(self) -> None:
        self.direct_failure = True
        self.recovery_level = "none"
        self.replanned = False
        self.recovered = False

    def mark_replanned(self, recovered: bool) -> None:
        self.replanned = True
        self.recovered = recovered

    def to_json(self) -> dict:
        return {
            "cause": self.cause,
            "request_index": self.request_index,
            "recovery_level": self.recovery_level,
            "direct_failure": self.direct_failure,
            "replanned": self.replanned,
            "recovered": self.recovered,
            "detail": self.detail,
        }

    @staticmethod
    def from_json(doc: dict) -> "FailureRecord":
        return FailureRecord(
            cause=doc["cause"],
            request_index=doc["request_index"],
            recovery_level=doc["recovery_level"],
            direct_failure=doc["direct_failure"],
            replanned=doc["replanned"],
            recovered=doc["recovered"],
            detail=doc.get("detail", ""),
        )


@dataclass
class RetryState:
    """Evidence accumulated across recovery attempts for one episode."""

    shifted: bool = False
    target_lost: bool = False
    out_of_reach: bool = False


# --- success verification ----------------------------------------------------------


def verify_success(
    before: Observation, after: Observation, fb: Feedback, intent: ActionRequest
) -> SuccessVerdict:
    """Per-verb delta rules:

    grasp(t):  the delta confirms success when t has vanished from the after
               view (it is in the gripper, which the camera cannot see).
    place(t):  the delta confirms success when the placed object appears in
               the after view resting on the intended receptacle.
    other:     no object-delta rule; the feedback flag is trusted.

    A flag/delta mismatch yields success=False with a visual_feedback_error
    suspicion; a typed fault always means failure.
    """
    if fb.fault is not None:
        return SuccessVerdict(
            success=False,
            feedback_flag=fb.success,
            delta_consistent=True,
            explanation=f"typed fault: {fb.fault.message}",
        )

    verb = intent.verb
    if verb == "grasp":
        target = intent.target or ""
        gone_after = after.find(target) is None
        seen_before = before.find(target) is not None
        delta_says_success = gone_after and seen_before
        if fb.success and gone_after:
            return SuccessVerdict(True, True, True, f"{target} no longer on the surface; grasp confirmed")
        if fb.success and not gone_after:
            return SuccessVerdict(
                False, True, False,
                f"feedback claims success but {target} is still visible",
                suspected_cause="visual_feedback_error",
            )
        if not fb.success and delta_says_success:
            return SuccessVerdict(
                False, False, False,
                f"feedback claims failure but {target} vanished from view",
                suspected_cause="visual_feedback_error",
            )
        return SuccessVerdict(False, False, True, f"grasp of {target} failed; target still in place")

    if verb == "place":
        placed = fb.details.get("placed") or fb.details.get("dropped") or ""
        rid = intent.location[0] if intent.location is not None else intent.target
        snap = after.find(placed) if placed else None
        on_target = snap is not None and snap.parent_id == rid
        if fb.success and on_target:
            return SuccessVerdict(True, True, True, f"{placed} observed on {rid}; place confirmed")
        if fb.success and not on_target:
            visible = snap is not None
            return SuccessVerdict(
                False, True, False,
                f"feedback claims success but {placed} is "
                + (f"not on {rid}" if visible else "not visible on the target"),
                suspected_cause="visual_feedback_error",
            )
        if not fb.success and on_target:
            return SuccessVerdict(
                False, False, False,
                f"feedback claims failure but {placed} is on {rid}",
                suspected_cause="visual_feedback_error",
            )
        return SuccessVerdict(False, False, True, f"place onto {rid} failed")

    # navigation and perception verbs: trust the flag
    if fb.success:
        return SuccessVerdict(True, True, True, f"{verb} reported success")
    return SuccessVerdict(False, False, True, f"{verb} reported failure: {fb.message}")


# --- feasibility verification -----------------------------------------------------


# The view and the goal results below are read several times per step (the
# harness's feasibility check, then the planner) but change only when the
# belief's objects or holding do: each is computed once per belief version.


def _build_belief_view(belief: Belief) -> PlacementView:
    holding = belief.holding
    entities = {
        b.id: EntityView(b.id, b.category, b.attributes, b.parent_id if b.id != holding else None, b.is_receptacle)
        for b in belief.objects.values()
    }
    return PlacementView(entities, holding)


def _belief_view(belief: Belief) -> PlacementView:
    memo = belief.derived()
    view = memo.get("view")
    if view is None:
        view = memo["view"] = _build_belief_view(belief)
    return view


def _goal_status(goal: Goal, belief: Belief) -> tuple[bool, Optional[Goal]]:
    """(satisfied, first unsatisfied atom) against the belief. ``_first_unsat``
    returns a node only from an unsatisfied subtree, so a found atom already
    answers "not satisfied" and the full evaluation runs only when none is.
    The memo is keyed on the goal's identity, cheap where a goal tree's hash
    is not; the entry keeps the goal alive, so its id cannot be reused."""
    memo = belief.derived()
    entry = memo.get(id(goal))
    if entry is None:
        view = _belief_view(belief)
        atom = _first_unsat(goal, view)
        entry = memo[id(goal)] = (goal, atom is None and goal.satisfied(view), atom)
    return entry[1], entry[2]


def belief_goal_satisfied(goal: Goal, belief: Belief) -> bool:
    return _goal_status(goal, belief)[0]


def first_unsatisfied_atom(goal: Goal, belief: Belief) -> Optional[Goal]:
    """Deterministic left-to-right search through the predicate tree."""
    return _goal_status(goal, belief)[1]


def _first_unsat(goal: Goal, view: PlacementView) -> Optional[Goal]:
    if isinstance(goal, And):
        for c in goal.children:
            found = _first_unsat(c, view)
            if found is not None:
                return found
        return None
    if isinstance(goal, Or):
        if goal.satisfied(view):
            return None
        return _first_unsat(goal.children[0], view) if goal.children else None
    if isinstance(goal, Not):
        return goal if goal.satisfied(view) is False else None
    return None if goal.satisfied(view) else goal


def atom_object_selector(atom: Goal) -> Optional[Selector]:
    if isinstance(atom, On):
        return atom.obj
    if isinstance(atom, Holding):
        return atom.obj
    if isinstance(atom, (AllOn, SameReceptacle)):
        return Selector(category=atom.category)
    return None


def selector_admits(sel: Selector, b: BeliefObject) -> bool:
    """The believed object could be the selected one: id and category match,
    and its attributes are either verified or still unknown (uninspected)."""
    return (
        (sel.id is None or sel.id == b.id)
        and (sel.category is None or sel.category == b.category)
        and not (sel.attributes and b.inspected and not sel.attributes <= set(b.attributes))
    )


def candidate_objects(belief: Belief, sel: Selector) -> list[str]:
    """Believed objects that could satisfy the selector and that no close-up
    ruled out."""
    return [
        b.id for b in belief.sorted_objects() if not (b.is_receptacle or b.ruled_out) and selector_admits(sel, b)
    ]


def scannable_receptacles(belief: Belief) -> list[str]:
    """Furniture with a surface, in deterministic search-priority order:
    tables first, then everything else, each group by id."""
    gmap = belief.global_map
    if gmap is None:
        return []
    recs = [f for f in gmap.furniture if f.is_receptacle]
    return [f.id for f in sorted(recs, key=lambda f: (0 if f.category == "table" else 1, f.id))]


def unscanned_receptacles(belief: Belief) -> list[str]:
    """``scannable_receptacles`` that no local map covers yet."""
    return [r for r in scannable_receptacles(belief) if r not in belief.local_maps]


def _scan_saw_kind(lmap, sel: Selector) -> bool:
    """Did the scan list anything of the needed kind (even if later ruled
    out)? If so the detector worked here and a re-scan is unlikely to help."""
    for item in lmap.items:
        if sel.id is not None and item.id == sel.id:
            return True
        if sel.category is not None and item.category == sel.category:
            return True
    return False


def verify_feasibility(goal: Goal, belief: Belief) -> FeasibilityVerdict:
    """Can the plan still proceed?

    Feasible while a candidate for the first unsatisfied atom exists anywhere
    in the belief. With no candidate, suggest a local re-scan of the current
    receptacle (once — a missed detection may be hiding there), then a global
    rollback to the first unscanned receptacle; with nothing left to try the
    task has failed outright.
    """
    if belief.global_map is None:
        return FeasibilityVerdict(True, None, "no global map yet; exploration pending")
    atom = first_unsatisfied_atom(goal, belief)
    if atom is None:
        return FeasibilityVerdict(True, None, "goal believed satisfied")
    sel = atom_object_selector(atom)
    if sel is None:
        return FeasibilityVerdict(True, None, "no object requirement in the current sub-goal")
    candidates = candidate_objects(belief, sel)
    if candidates:
        return FeasibilityVerdict(
            True, None, f"candidate(s) {', '.join(candidates[:4])} for {sel.describe()}"
        )
    current = belief.at_receptacle
    if current is not None:
        lmap = belief.local_maps.get(current)
        if lmap is not None and lmap.scan_count == 1 and not _scan_saw_kind(lmap, sel):
            # the needed kind never showed up here at all: one local re-scan is
            # cheaper than leaving, in case the first scan missed it outright
            return FeasibilityVerdict(
                False,
                RollbackSuggestion("local", current, f"re-scan {current}: {sel.describe()} may have been missed"),
                f"no candidate for {sel.describe()} at {current}; one re-scan pending",
            )
    unscanned = unscanned_receptacles(belief)
    if unscanned:
        return FeasibilityVerdict(
            False,
            RollbackSuggestion("global", unscanned[0], f"search {unscanned[0]} for {sel.describe()}"),
            f"no candidate for {sel.describe()} here; {len(unscanned)} receptacle(s) unsearched",
        )
    return FeasibilityVerdict(
        False, None, f"no candidate for {sel.describe()} anywhere and nothing left to search"
    )


# --- failure classification -----------------------------------------------------------


def classify_failure(
    verdict: Optional[SuccessVerdict], fb: Feedback, retry_state: Optional[RetryState] = None
) -> FailureRecord:
    """Map evidence onto exactly one cause and an initial recovery level.

    A fault is classified by its code alone: a target no longer where it was
    believed is a false positive (local level), a target out of reach a
    manipulation failure (global level), and every other fault a plan-level
    mistake handed back to the planner (level none). Without a fault,
    manipulation failures start at object level and navigation failures at
    global level.
    """
    rs = retry_state or RetryState()
    fault = fb.fault
    if fault is not None:
        if fault.code not in PHYSICAL_FAULT_CODES:
            return FailureRecord("api_call_error", fb.request_index, "none", detail=fault.message)
        if fault.code == "target_not_visible":
            return FailureRecord("false_positive", fb.request_index, "local", detail=fault.message)
        cause = "place_failed" if fb.verb == "place" else "grasp_failed"
        return FailureRecord(cause, fb.request_index, "global", detail=fault.message)

    if verdict is not None and verdict.suspected_cause == "visual_feedback_error":
        return FailureRecord("visual_feedback_error", fb.request_index, "object", detail=verdict.explanation)

    if fb.verb == "navigate":
        return FailureRecord("navigation_failed", fb.request_index, "global", detail=fb.message)
    if fb.verb == "grasp":
        level = "local" if (rs.shifted or fb.details.get("shifted")) else "object"
        return FailureRecord("grasp_failed", fb.request_index, level, detail=fb.message)
    if fb.verb == "place":
        return FailureRecord("place_failed", fb.request_index, "object", detail=fb.message)
    return FailureRecord("api_call_error", fb.request_index, "none", detail=fb.message)
