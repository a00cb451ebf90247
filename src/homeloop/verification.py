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

from .errors import as_json, field_names, fields_json, only_keys, require
from .goals import EntityView, Goal, PlacementView, Selector, On, AllOn, SameReceptacle, Holding, And, Or, Not
from .perception import Belief, BeliefObject, Observation
from .world import ActionRequest, Feedback

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

    to_json = fields_json


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
        doc = fields_json(self)
        if self.rollback:
            doc["rollback"] = fields_json(self.rollback)
        return doc


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

    to_json = fields_json

    @classmethod
    def from_json(cls, doc: dict) -> FailureRecord:
        """Inverse of ``to_json``: exactly the record's fields, ``detail``
        optional and each flag a JSON boolean, else a ConfigError."""
        only_keys(as_json(doc, dict, "failure_record"), field_names(cls), "failure_record")
        for name in field_names(cls):
            if name != "detail":
                require(doc, name, "failure_record")
        for flag in ("direct_failure", "replanned", "recovered"):
            as_json(doc[flag], bool, f"failure_record.{flag}")
        return cls(**doc)


# --- success verification ----------------------------------------------------------


def verify_success(
    before: Observation, after: Observation, fb: Feedback, intent: ActionRequest
) -> SuccessVerdict:
    """Per-verb delta rules: whether the after view confirms a claimed
    success, and whether it contradicts a claimed failure.

    grasp(t):  t has vanished from the after view (it is in the gripper,
               which the camera cannot see) confirms; vanished after being
               seen in the before view contradicts.
    place(t):  the moved object seen on the intended receptacle in the after
               view confirms and contradicts.
    other:     no object-delta rule; the feedback flag is trusted.

    A flag/delta mismatch yields success=False with a visual_feedback_error
    suspicion; a typed fault always means failure.
    """
    if fb.fault is not None:
        return SuccessVerdict(False, fb.success, True, f"typed fault: {fb.fault.message}")

    verb = intent.verb
    if verb == "grasp":
        target = intent.target or ""
        confirmed = after.find(target) is None
        contradicted = confirmed and before.find(target) is not None
        # (feedback flag, delta consistent) -> explanation
        texts = {
            (True, True): f"{target} no longer on the surface; grasp confirmed",
            (True, False): f"feedback claims success but {target} is still visible",
            (False, False): f"feedback claims failure but {target} vanished from view",
            (False, True): f"grasp of {target} failed; target still in place",
        }
    elif verb == "place":
        placed, rid = fb.moved or "", intent.receptacle
        snap = after.find(placed) if placed else None
        confirmed = contradicted = snap is not None and snap.parent_id == rid
        missing = f"not on {rid}" if snap is not None else "not visible on the target"
        texts = {
            (True, True): f"{placed} observed on {rid}; place confirmed",
            (True, False): f"feedback claims success but {placed} is {missing}",
            (False, False): f"feedback claims failure but {placed} is on {rid}",
            (False, True): f"place onto {rid} failed",
        }
    else:
        # navigation and perception verbs: trust the flag
        confirmed, contradicted = True, False
        texts = {(True, True): f"{verb} reported success", (False, True): f"{verb} reported failure: {fb.message}"}
    consistent = confirmed if fb.success else not contradicted
    return SuccessVerdict(
        fb.success and consistent, fb.success, consistent, texts[fb.success, consistent],
        None if consistent else "visual_feedback_error",
    )


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


def classify_failure(verdict: Optional[SuccessVerdict], fb: Feedback, shifted: bool = False) -> FailureRecord:
    """Map evidence onto exactly one cause and an initial recovery level.

    A fault is classified by its code alone: a target no longer where it was
    believed is a false positive (local level), a target out of reach a
    manipulation failure (global level), and every other fault a plan-level
    mistake handed back to the planner (level none). Without a fault,
    manipulation failures start at object level and navigation failures at
    global level; a grasp whose target shifted, in this attempt or an
    earlier one of the episode (``shifted``), starts at local level.
    """
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
        level = "local" if (shifted or fb.details.get("shifted")) else "object"
        return FailureRecord("grasp_failed", fb.request_index, level, detail=fb.message)
    if fb.verb == "place":
        return FailureRecord("place_failed", fb.request_index, "object", detail=fb.message)
    return FailureRecord("api_call_error", fb.request_index, "none", detail=fb.message)
