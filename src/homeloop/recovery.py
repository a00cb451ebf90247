"""Hierarchical failure recovery.

One episode tracks one failure from detection to resolution. It walks up a
three-level ladder (``LADDER``) that mirrors the perception hierarchy:

    object level  — re-issue the same request, a fresh draw of its outcome
    local level   — rebuild the local map, re-resolve the target, act again
    global level  — approach from a better side or fall back to another
                    receptacle, then rebuild and act again

Levels never decrease within an episode. Escalation happens when a level's
retry budget is spent or when evidence says the level cannot help: a target
that shifted needs at least a re-map, an out-of-reach or lost target needs a
new vantage point. Budgets bound every episode to a handful of re-issues.

Each re-issued execution is verified like a first-class step; a failed
re-issue is itself a new failure event for the accounting. A level reports
what became of the episode: nothing issued (None), recovered or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from . import perception
from .geometry import SIDES
from .goals import Goal
from .perception import Observation, capture
from .skills import SkillContext, dispatch, evidence_ids, verdict_event
from .verification import (
    LADDER,
    FailureRecord,
    SuccessVerdict,
    belief_goal_satisfied,
    classify_failure,
    verify_feasibility,
    verify_success,
)
from .world import ActionRequest, Feedback

# The re-issues each level of ``LADDER`` allows, and the directive each level
# (and "none", an exhausted episode) is traced as.
BUDGETS = {"object": 3, "local": 2, "global": 2}
DIRECTIVES = {"object": "retry", "local": "remap", "global": "renavigate", "none": "exhausted"}

SHIFT_EPSILON = 0.02  # meters of believed movement that counts as "shifted"


@dataclass
class RecoveryEpisode:
    failure: FailureRecord
    # the failed request: a re-issue is a copy of it, and a grasp retarget
    # aims it at the new object
    request: ActionRequest
    object_id: Optional[str]
    status: str = "active"  # active | recovered | exhausted
    # evidence from failed re-issues: the target moved, could not be found
    # again, or was out of reach
    shifted: bool = False
    target_lost: bool = False
    out_of_reach: bool = False
    # every level selected, in order: the last is the floor, and a level's
    # count is its attempts
    levels: list[str] = field(default_factory=list)
    tried_sides: set[str] = field(default_factory=set)
    last_before: Optional[Observation] = None
    strict_escalation: bool = False
    # the failure the next re-issue answers: ``failure``, then each failed re-issue
    latest: FailureRecord = field(init=False)

    def __post_init__(self) -> None:
        self.latest = self.failure


def select_recovery(episode: RecoveryEpisode) -> str:
    """Pick the next level, escalating on spent budgets and on evidence, or
    "none" once the episode is exhausted.

    The returned level is recorded as the episode's new floor, so selected
    levels form a non-decreasing sequence.
    """
    floors = episode.levels[-1:]
    if not episode.strict_escalation:
        floors.append(episode.failure.recovery_level)  # "none" sets no floor
        if episode.shifted:
            floors.append("local")
        if episode.out_of_reach or episode.target_lost:
            floors.append("global")
    rank = max((LADDER.index(f) for f in floors if f in LADDER), default=0)
    level = next((lv for lv in LADDER[rank:] if episode.levels.count(lv) < BUDGETS[lv]), None)
    if level is None:
        episode.status = "exhausted"
        return "none"
    episode.levels.append(level)
    return level


# --- execution ---------------------------------------------------------------------


def execute(ctx: SkillContext, request: ActionRequest) -> tuple[Feedback, SuccessVerdict, Observation]:
    """One verified execution, for the trial loop and recovery alike: capture
    the verdict's evidence, dispatch, capture again, verify, log the verdict
    event. Returns the feedback, the verdict and the before image."""
    before = capture(ctx.world, "stay", evidence_ids(request))
    fb = dispatch(ctx, request)
    after = capture(ctx.world, "stay", evidence_ids(request, fb))
    verdict = verify_success(before, after, fb, request)
    ctx.events.append(verdict_event(request, fb, verdict, before, after))
    return fb, verdict, before


def recover(ctx: SkillContext, goal: Goal, failure: FailureRecord, request: ActionRequest, fb: Feedback,
            before: Observation, strict_escalation: bool) -> RecoveryEpisode:
    """Run one episode for a failed call: ``failure`` classifies it and
    ``before`` is its before image; a failed place's object is the one it
    moved, else the one the belief still holds. Returns the ended episode."""
    object_id = None
    if request.verb == "grasp":
        object_id = request.target
    elif request.verb == "place":
        object_id = fb.moved or ctx.belief.holding
    episode = RecoveryEpisode(
        failure=failure,
        request=request,
        object_id=object_id,
        # the first shift check reads this as it read the full view: a
        # grasp's target is in its evidence, and a place moves no object in view
        last_before=before,
        strict_escalation=strict_escalation,
    )
    return EpisodeRunner(ctx, goal).run(episode)


@dataclass
class EpisodeRunner:
    """Drives one episode to recovered/exhausted against a live context,
    logging events and new failure records on the context."""

    ctx: SkillContext
    goal: Goal

    def run(self, episode: RecoveryEpisode) -> RecoveryEpisode:
        act_at = {"object": self.object_level_retry, "local": self.local_level_remap,
                  "global": self.global_level_renavigate}
        # each selection records a level below its budget, so the selection
        # after the last budgeted level returns "none" and ends the loop
        while True:
            if belief_goal_satisfied(self.goal, self.ctx.belief):
                # the situation resolved itself (e.g. a phantom target cleared
                # on re-map and the goal is already met): the map-level fix
                # counts as the recovery
                return self._end(episode, "recovered")
            level = select_recovery(episode)
            self.ctx.events.append(
                {
                    "event": "recovery",
                    "directive": DIRECTIVES[level],
                    "level": level,
                    "attempt": episode.levels.count(level),
                    "evidence": {
                        "shifted": episode.shifted,
                        "target_lost": episode.target_lost,
                        "out_of_reach": episode.out_of_reach,
                    },
                }
            )
            if level == "none":
                # the last failure event got no re-issue: it ends the task
                return self._end(episode, "exhausted")
            # a level that issued nothing (lost target, no alternative)
            # returns None: its evidence is updated, keep escalating
            if act_at[level](episode):
                return self._end(episode, "recovered")

    def _end(self, episode: RecoveryEpisode, status: str) -> RecoveryEpisode:
        """Close the episode: the last failure record is recovered by the
        episode or, when it ends exhausted, a direct failure."""
        if status == "recovered":
            episode.latest.mark_replanned(True)
        else:
            episode.latest.mark_direct()
        episode.status = status
        self.ctx.events.append({"event": "recovery", "directive": "end", "status": status})
        attempts = {lv: episode.levels.count(lv) for lv in LADDER}
        self.ctx.events.append(
            {"event": "episode_end", "status": status, "attempts": attempts, "levels": episode.levels}
        )
        return episode

    # -- one verified execution ------------------------------------------------------

    def _execute(self, episode: RecoveryEpisode, request: ActionRequest) -> bool:
        """Re-issue one verified request; a failure answers the episode's
        latest failure, becomes the new latest and adds its evidence to the
        episode. Returns the success."""
        # the shift check reads only the episode object and is not traced; a
        # retargeted object has not moved since, unless it rode on the old one
        seen = capture(self.ctx.world, "stay", () if episode.object_id is None else (episode.object_id,))
        self._check_shift(episode, seen)
        episode.last_before = seen
        fb, verdict, _ = execute(self.ctx, request)
        self.ctx.events.append(
            {
                "event": "recovery_action",
                "verb": request.verb,
                "target": request.target,
                "index": fb.request_index,
                "success": verdict.success,
            }
        )
        if not verdict.success:
            episode.latest.mark_replanned(False)
            episode.latest = classify_failure(verdict, fb, episode.shifted)
            self.ctx.records.append(episode.latest)
            code = fb.fault.code if fb.fault is not None else None
            episode.shifted |= bool(fb.details.get("shifted"))
            episode.target_lost |= code == "target_not_visible"
            episode.out_of_reach |= code == "out_of_reach"
        return verdict.success

    def _check_shift(self, episode: RecoveryEpisode, fresh: Observation) -> None:
        """Compare before-images across attempts: a moved target is evidence
        the object shifted during failed attempts."""
        if episode.last_before is None or episode.object_id is None:
            return
        old = episode.last_before.find(episode.object_id)
        new = fresh.find(episode.object_id)
        if old is not None and new is not None:
            dx = old.location[0] - new.location[0]
            dy = old.location[1] - new.location[1]
            if dx * dx + dy * dy > SHIFT_EPSILON**2:
                episode.shifted = True

    def _reissue(self, episode: RecoveryEpisode, level: str) -> bool:
        """Re-issue the failed request at ``level``; a place whose object fell
        to the floor is re-grasped first."""
        if episode.request.verb == "place" and self.ctx.belief.holding is None and episode.object_id is not None:
            g = ActionRequest(verb="grasp", target=episode.object_id, source=level)
            if not self._execute(episode, g):
                return False
        return self._execute(episode, replace(episode.request, source=level))

    def _reissue_after_scan(self, episode: RecoveryEpisode, lmap, level: str) -> Optional[bool]:
        """Re-issue at ``level`` after a fresh scan. A grasp, or a place whose
        object fell, first re-resolves its object in the new map; when none
        matches, the target is lost and nothing is issued."""
        verb = episode.request.verb
        if verb == "grasp" or (verb == "place" and self.ctx.belief.holding is None):
            if self._resolve_object(episode, lmap) is None:
                episode.target_lost = True
                return None
        return self._reissue(episode, level)

    # -- the three levels ----------------------------------------------------------------

    def object_level_retry(self, episode: RecoveryEpisode) -> bool:
        """Re-issue the failed request unchanged: the world draws its outcome
        afresh, so a sampled failure can succeed on the next attempt."""
        if episode.failure.cause == "visual_feedback_error" and self._reobserve(episode):
            return True
        return self._reissue(episode, "object")

    def _reobserve(self, episode: RecoveryEpisode) -> bool:
        """Second look for flag/delta mismatches: trust the fresh delta. True
        when it shows the intent was achieved, and the episode resolves
        without another execution; otherwise a real retry follows."""
        oid = episode.object_id
        if oid is None:
            return False
        fresh = capture(self.ctx.world, "stay", (oid,))
        if episode.request.verb == "grasp" and fresh.find(oid) is None and self.ctx.world.gripper == oid:
            self.ctx.belief.note_grasped(oid)
            return True
        if episode.request.verb == "place":
            snap = fresh.find(oid)
            rid = episode.request.receptacle
            if snap is not None and snap.parent_id == rid:
                self.ctx.belief.note_released(oid, snap.location, rid)
                return True
        return False

    def local_level_remap(self, episode: RecoveryEpisode) -> Optional[bool]:
        """Rebuild the local map, re-resolve the target, act again. The failed
        interaction is itself evidence the map is wrong, so the scan runs even
        when no ground change marked the map stale."""
        belief = self.ctx.belief
        root = belief.at_receptacle
        # a flipped success flag can leave the belief at a receptacle the
        # robot is not next to, where a scan would be refused
        if root is None or root not in belief.local_maps or not self.ctx.world.robot_adjacent_to(root):
            episode.target_lost = True
            return None
        # looked up through the module, where perfbench/tracing.SPANS counts it
        lmap = perception.explore_local(self.ctx.world, belief, root)
        self.ctx.events.append({"event": "recovery_remap", "receptacle": root, "items": [o.id for o in lmap.items]})
        return self._reissue_after_scan(episode, lmap, "local")

    def _resolve_object(self, episode: RecoveryEpisode, lmap) -> Optional[str]:
        """Same id if still present, else category+attribute match."""
        oid = episode.object_id
        if oid is not None and lmap.find(oid) is not None and oid not in self.ctx.world.phantoms:
            return oid
        want_category = None
        belief_obj = self.ctx.belief.objects.get(oid or "")
        if belief_obj is not None:
            want_category = belief_obj.category
        elif oid is not None and oid in self.ctx.world.phantoms:
            want_category = self.ctx.world.phantoms[oid].believed_category
        if want_category is None:
            return None
        for item in sorted(lmap.items, key=lambda o: o.id):
            b = self.ctx.belief.objects.get(item.id)
            if b is not None and b.ruled_out:
                continue
            if item.category == want_category and item.id != oid:
                episode.object_id = item.id
                if episode.request.verb == "grasp":
                    episode.request = replace(episode.request, target=item.id)
                self.ctx.events.append({"event": "recovery_retarget", "from": oid, "to": item.id})
                return item.id
        return None

    def global_level_renavigate(self, episode: RecoveryEpisode) -> Optional[bool]:
        """New vantage point: an untried side with the target in reach, or an
        alternative receptacle suggested by the feasibility check."""
        belief = self.ctx.belief
        if episode.request.verb == "navigate":
            return self._reissue(episode, "global")

        root = belief.at_receptacle
        if root is not None and belief.approach_side:
            episode.tried_sides.add(belief.approach_side)

        b = belief.objects.get(episode.object_id or "")
        target_pos = b.location if b is not None else None
        side = self._pick_side(episode, root, target_pos) if root is not None else None
        if side is not None:
            nav = ActionRequest(verb="navigate", target=root, side=side, source="global", focus=target_pos)
            if not self._execute(episode, nav):
                return False
            episode.tried_sides.add(side)
            return self._reissue(episode, "global")

        suggestion = verify_feasibility(self.goal, belief).rollback
        if suggestion is None or suggestion.level != "global":
            return None
        nav = ActionRequest(verb="navigate", target=suggestion.receptacle, source="global")
        if not self._execute(episode, nav):
            return False
        scan = ActionRequest(verb="explore_local", target=suggestion.receptacle, source="global")
        dispatch(self.ctx, scan)  # perception, not counted
        lmap = belief.local_maps.get(suggestion.receptacle)
        if lmap is None:
            episode.target_lost = True
            return None
        return self._reissue_after_scan(episode, lmap, "global")

    def _pick_side(
        self, episode: RecoveryEpisode, root: str, target_pos: Optional[tuple[float, float]]
    ) -> Optional[str]:
        """Untried sides with a usable approach, preferring those that bring
        ``target_pos``, the believed target position (None: unknown), within
        arm reach, then shorter distances."""
        world = self.ctx.world
        if root not in world.furniture:
            return None
        ranked = []
        for side in SIDES:
            if side in episode.tried_sides:
                continue
            cells = world.approach_cells(root, side)
            if not cells:
                continue
            if target_pos is None:
                ranked.append((1, 0.0, side))
                continue
            best = min(
                (world.grid.center_of(c) for c in cells),
                key=lambda p: (p[0] - target_pos[0]) ** 2 + (p[1] - target_pos[1]) ** 2,
            )
            dist = ((best[0] - target_pos[0]) ** 2 + (best[1] - target_pos[1]) ** 2) ** 0.5
            ranked.append((0 if dist <= world.config.arm_reach else 1, dist, side))
        if not ranked:
            return None
        ranked.sort()
        reachable_exists = any(r[0] == 0 for r in ranked)
        if episode.out_of_reach and not reachable_exists and target_pos is not None:
            return None
        return ranked[0][2]
