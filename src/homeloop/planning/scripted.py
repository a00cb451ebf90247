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
from ..goals import AllOn, Goal, Holding, Not, On, SameReceptacle, Selector
from ..perception import Belief, BeliefObject
from ..verification import (
    atom_object_selector,
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
    atom = first_unsatisfied_atom(goal, belief)
    if atom is None:
        pending = _needs_full_scan(goal) and unscanned_receptacles(belief)
        if pending:
            return _scan_step(belief, pending[0])
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


def _go_to(belief: Belief, root: Optional[str]) -> Optional[PlanStep]:
    """A navigate to ``root`` until the robot stands there, then None: every
    step at a receptacle is ``_go_to(belief, root) or step``, which builds
    ``step`` only once it is the answer. A None ``root`` (an object on the
    floor) needs no navigate."""
    if root is not None and belief.at_receptacle != root:
        return Call("navigate", Ref(root))
    return None


def _scan_step(belief: Belief, rid: str) -> PlanStep:
    return _go_to(belief, rid) or Call("explore_local", Ref(rid))


def _pursue(atom: Goal, task, view: PlannerView) -> PlanStep:
    belief = view.belief

    # first_unsatisfied_atom descends into every Or: a Not or an atom is left
    if isinstance(atom, Not):
        raise PolicyStuck("scripted policy cannot pursue Not goals")

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

    sel = atom.obj  # type: ignore[attr-defined]  # an On or a Holding
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
        oid = uninspected[0]
        return _go_to(belief, _root_of(belief, oid)) or Call("report_observation", Ref(oid))
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
    return _go_to(belief, droot) or Call("place", _styled_location(task, belief, dest) or Ref(dest))


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

    sel = atom.receptacle  # type: ignore[attr-defined]  # an On or an AllOn
    # every receptacle on the global map is also a belief entity, in id order
    receptacles = (b for b in belief.sorted_objects() if b.is_receptacle)
    return next((b.id for b in receptacles if sel.matches(b.id, b.category, b.attributes)), None)


def _next_mover(atom: Goal, belief: Belief, dest: str) -> Optional[str]:
    movers = candidate_objects(belief, Selector(category=atom.category))  # type: ignore[attr-defined]
    return next((oid for oid in movers if belief.objects[oid].parent_id != dest), None)


def _grasp_path(belief: Belief, oid: str) -> PlanStep:
    """Grasp ``oid``, rescanning a stale map of its receptacle first."""
    root = _root_of(belief, oid)
    lmap = belief.local_maps.get(root)  # type: ignore[arg-type]
    if lmap is not None and lmap.stale:
        return _scan_step(belief, root)  # type: ignore[arg-type]
    return _go_to(belief, root) or Call("grasp", Ref(oid))


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
    points = [belief.objects[oid].location for oid in candidate_objects(belief, Selector(category=category))]
    if not points:
        return None
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    ax, ay = dest_obj.location
    return Loc(dest, (round(cx - ax, 3), round(cy - ay, 3)))
