"""Deterministic scripted policy.

A greedy, belief-driven reference planner used for offline tests and as the
recovery-capable baseline: explore globally, search receptacles in a fixed
priority order (tables first, then everything else by id), verify candidate
attributes with close-ups, then move objects one at a time. It is a pure
function of (task, history, view): no internal state, all choices sorted.

Goals whose atoms quantify over a whole category (AllOn, SameReceptacle) are
only declared done after every known receptacle has been scanned, so the
policy cannot claim success while a member may be hiding on an unvisited
surface.
"""

from __future__ import annotations

from typing import Optional

from ..errors import PolicyStuck
from ..goals import AllOn, Goal, Holding, Not, On, Or, SameReceptacle, Selector
from ..perception import Belief, BeliefObject
from ..verification import (
    atom_object_selector,
    belief_goal_satisfied,
    candidate_objects,
    first_unsatisfied_atom,
    scannable_receptacles,
    selector_admits,
    unscanned_receptacles,
    verify_feasibility,
)
from .base import PlannerView
from .dsl import Call, Done, Loc, PlanStep, Ref


class ScriptedPlanner:
    """Stateless Planner implementation around scripted_next_step."""

    def next_step(self, task, history, view: PlannerView) -> PlanStep:
        return scripted_next_step(task, history, view)


def scripted_next_step(task, history, view: PlannerView) -> PlanStep:
    belief = view.belief
    if belief.global_map is None:
        return Call("explore_global", None)

    goal: Goal = task.goal
    if belief_goal_satisfied(goal, belief):
        pending = _needs_full_scan(goal) and unscanned_receptacles(belief)
        if pending:
            return _scan_step(belief, pending[0])
        return Done("goal satisfied")

    atom = first_unsatisfied_atom(goal, belief)
    if atom is None:
        return Done("goal satisfied")
    return _pursue(atom, task, view)


# --- helpers -----------------------------------------------------------------


def _needs_full_scan(goal: Goal) -> bool:
    return any(isinstance(a, (AllOn, SameReceptacle)) for a in goal.atoms())


def _root_of(belief: Belief, oid: str) -> Optional[str]:
    """The furniture ``oid`` rests on (or ``oid`` itself if it is furniture);
    None when its believed chain ends off the global map, e.g. on the floor."""
    root = belief.root_of(oid)
    return root if belief.furniture(root) is not None else None


def _scan_step(belief: Belief, rid: str) -> PlanStep:
    if belief.at_receptacle != rid:
        return Call("navigate", Ref(rid))
    return Call("explore_local", Ref(rid))


def _pursue(atom: Goal, task, view: PlannerView) -> PlanStep:
    belief = view.belief

    if isinstance(atom, (Not, Or)):
        raise PolicyStuck(f"scripted policy cannot pursue {type(atom).__name__} goals")
    if not isinstance(atom, (On, AllOn, SameReceptacle, Holding)):
        raise PolicyStuck(f"unknown goal atom {type(atom).__name__}")

    held = belief.holding
    if held is not None:
        return _deliver_or_unload(atom, task, view, held)

    # category-quantified atoms need complete knowledge before moving anything
    if isinstance(atom, (AllOn, SameReceptacle)):
        dest = None if unscanned_receptacles(belief) else _resolve_destination(atom, belief)
        if dest is None:
            return _dest_search(belief)
        mover = _next_mover(atom, belief, dest)
        if mover is None:
            # nothing left to move but the atom is unsatisfied: a member is
            # unaccounted for; fall back to the feasibility-driven search
            return _object_search(atom, task, view)
        return _grasp_path(belief, mover)

    sel = atom.obj if isinstance(atom, (On, Holding)) else None
    assert sel is not None
    candidates = candidate_objects(belief, sel)
    verified = [c for c in candidates if _attrs_verified(belief.objects[c], sel)]
    if verified:
        if isinstance(atom, On):
            dest = _resolve_destination(atom, belief)
            if dest is None:
                return _dest_search(belief)
        return _grasp_path(belief, verified[0])
    uninspected = [c for c in candidates if not belief.objects[c].inspected]
    if uninspected:
        return _inspect_path(belief, uninspected[0])
    return _object_search(atom, task, view)


def _attrs_verified(b: BeliefObject, sel: Selector) -> bool:
    if not sel.attributes:
        return True
    return b.inspected and sel.attributes <= set(b.attributes)


def _deliver_or_unload(atom: Goal, task, view: PlannerView, held: str) -> PlanStep:
    belief = view.belief
    held_obj = belief.objects.get(held)
    sel = atom_object_selector(atom)
    if held_obj is None or sel is None or not selector_admits(sel, held_obj):
        # holding something irrelevant: set it down where we stand
        if belief.at_receptacle is not None:
            return Call("place", Ref(belief.at_receptacle))
        recs = scannable_receptacles(belief)
        if not recs:
            raise PolicyStuck("holding an object with no receptacle in the global map")
        return Call("navigate", Ref(recs[0]))

    if isinstance(atom, Holding):
        return Done("holding the requested object")

    dest = _resolve_destination(atom, belief)
    if dest is None:
        return _dest_search(belief)
    droot = _root_of(belief, dest) or dest
    if belief.at_receptacle != droot:
        return Call("navigate", Ref(droot))
    loc = _styled_location(task, belief, dest)
    if loc is not None:
        return Call("place", loc)
    return Call("place", Ref(dest))


def _resolve_destination(atom: Goal, belief: Belief) -> Optional[str]:
    if isinstance(atom, SameReceptacle):
        members = [
            b
            for b in belief.sorted_objects()
            if b.category == atom.category and not b.is_receptacle
        ]
        counts: dict[str, int] = {}
        for m in members:
            if m.parent_id is not None:
                counts[m.parent_id] = counts.get(m.parent_id, 0) + 1
        if counts:
            return max(sorted(counts), key=lambda rid: counts[rid])
        recs = scannable_receptacles(belief)
        return recs[0] if recs else None

    sel = atom.receptacle if isinstance(atom, (On, AllOn)) else None
    if sel is None:
        return None
    # every receptacle on the global map is also a belief entity, in id order
    return next((b.id for b in belief.receptacle_entities() if sel.matches(b.id, b.category, b.attributes)), None)


def _next_mover(atom: Goal, belief: Belief, dest: str) -> Optional[str]:
    category = atom.category  # type: ignore[union-attr]
    for b in belief.sorted_objects():
        if b.is_receptacle or b.ruled_out or b.category != category:
            continue
        if b.parent_id != dest:
            return b.id
    return None


def _grasp_path(belief: Belief, oid: str) -> PlanStep:
    root = _root_of(belief, oid)
    if root is None:
        # dropped on the floor near the robot: grasp directly
        return Call("grasp", Ref(oid))
    if belief.at_receptacle != root:
        return Call("navigate", Ref(root))
    lmap = belief.local_maps.get(root)
    if lmap is not None and lmap.stale:
        return Call("explore_local", Ref(root))
    return Call("grasp", Ref(oid))


def _inspect_path(belief: Belief, oid: str) -> PlanStep:
    root = _root_of(belief, oid)
    if root is not None and belief.at_receptacle != root:
        return Call("navigate", Ref(root))
    return Call("report_observation", Ref(oid))


def _object_search(atom: Goal, task, view: PlannerView) -> PlanStep:
    belief = view.belief
    verdict = view.feasibility
    if verdict is None:
        verdict = verify_feasibility(task.goal, belief)
    if verdict.feasible:
        # feasible yet nothing actionable: knowledge must be stale; rescan here
        if belief.at_receptacle is not None and belief.at_receptacle in belief.local_maps:
            return Call("explore_local", Ref(belief.at_receptacle))
        raise PolicyStuck("feasible verdict but no actionable candidate")
    if verdict.rollback is None:
        return Done(f"infeasible: {verdict.explanation}")
    return _scan_step(belief, verdict.rollback.receptacle)


def _dest_search(belief: Belief) -> PlanStep:
    pending = unscanned_receptacles(belief)
    if pending:
        return _scan_step(belief, pending[0])
    return Done("infeasible: destination receptacle not found")


def _styled_location(task, belief: Belief, dest: str) -> Optional[Loc]:
    """Location-form placement for styles like "centroid_of:cup": the offset
    is the centroid of the believed positions of that category, relative to
    the destination surface anchor."""
    style = getattr(task, "placement_style", None)
    if not style or not style.startswith("centroid_of:"):
        return None
    category = style.split(":", 1)[1]
    dest_obj = belief.furniture(dest)
    if dest_obj is None:
        return None  # style applies to furniture surfaces only
    points = [
        b.location
        for b in belief.sorted_objects()
        if b.category == category and not b.ruled_out and not b.is_receptacle
    ]
    if not points:
        return None
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    ax, ay = dest_obj.location
    return Loc(dest, (round(cx - ax, 3), round(cy - ay, 3)))
