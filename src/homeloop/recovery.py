"""Hierarchical failure recovery.

One episode tracks one failure from detection to resolution. Directives walk
up a three-level ladder that mirrors the perception hierarchy:

    object level  — re-issue the same request, a fresh draw of its outcome
    local level   — rebuild the local map, re-resolve the target, act again
    global level  — approach from a better side or fall back to another
                    receptacle, then rebuild and act again

Levels never decrease within an episode. Escalation happens when a level's
retry budget is spent or when evidence says the level cannot help: a target
that shifted needs at least a re-map, an out-of-reach or lost target needs a
new vantage point. Budgets bound every episode to a handful of re-issues.

Each re-issued execution is verified like a first-class step; a failed
re-issue is itself a new failure event for the accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .goals import Goal
from .perception import Observation, capture, refresh_local
from .skills import Feedback, SkillContext, dispatch, evidence_ids, verdict_event
from .verification import (
    FailureRecord,
    RetryState,
    SuccessVerdict,
    belief_goal_satisfied,
    classify_failure,
    verify_feasibility,
    verify_success,
)
from .world import ActionRequest

LEVEL_ORDER = {"object": 0, "local": 1, "global": 2}
BUDGETS = {"object": 3, "local": 2, "global": 2}  # re-issues allowed per level

SHIFT_EPSILON = 0.02  # meters of believed movement that counts as "shifted"


@dataclass(frozen=True)
class RecoveryDirective:
    kind: str  # "retry" | "remap" | "renavigate" | "exhausted"
    level: str  # "object" | "local" | "global" | "none"

    @staticmethod
    def exhausted() -> "RecoveryDirective":
        return RecoveryDirective("exhausted", "none")


@dataclass
class RecoveryEpisode:
    failure: FailureRecord
    verb: str
    object_id: Optional[str]
    target: Optional[str]
    location: Optional[tuple[str, tuple[float, float]]] = None
    attempts: dict[str, int] = field(default_factory=lambda: {"object": 0, "local": 0, "global": 0})
    status: str = "active"  # active | recovered | exhausted
    evidence: RetryState = field(default_factory=RetryState)
    current_level: str = "object"
    directives: list[RecoveryDirective] = field(default_factory=list)
    tried_sides: set[str] = field(default_factory=set)
    last_before: Optional[Observation] = None
    strict_escalation: bool = False

    def spent(self) -> int:
        return sum(self.attempts.values())


def _bump_level(level: str, floor: str) -> str:
    return level if LEVEL_ORDER[level] >= LEVEL_ORDER[floor] else floor


def select_recovery(episode: RecoveryEpisode) -> RecoveryDirective:
    """Pick the next directive, escalating on spent budgets and on evidence.

    The returned directive's level is recorded as the episode's new floor, so
    emitted levels form a non-decreasing sequence.
    """
    if episode.status != "active":
        return RecoveryDirective.exhausted()
    ev = episode.evidence
    if episode.strict_escalation:
        level = episode.current_level
    else:
        level = episode.failure.recovery_level
        if level == "none":
            level = "object"
        if ev.shifted:
            level = _bump_level(level, "local")
        if ev.out_of_reach or ev.target_lost:
            level = _bump_level(level, "global")
        level = _bump_level(level, episode.current_level)
    while episode.attempts[level] >= BUDGETS[level]:
        idx = LEVEL_ORDER[level] + 1
        if idx > 2:
            episode.status = "exhausted"
            return RecoveryDirective.exhausted()
        level = ("object", "local", "global")[idx]
    episode.current_level = level
    episode.attempts[level] += 1
    directive = RecoveryDirective({"object": "retry", "local": "remap", "global": "renavigate"}[level], level)
    episode.directives.append(directive)
    return directive


# --- directive execution ----------------------------------------------------------


@dataclass
class EpisodeRunner:
    """Drives one episode to recovered/exhausted against a live context,
    logging events and new failure records on the context."""

    ctx: SkillContext
    goal: Goal

    def run(self, episode: RecoveryEpisode) -> RecoveryEpisode:
        prev_record = episode.failure
        guard = sum(BUDGETS.values()) + 2
        for _ in range(guard):
            if belief_goal_satisfied(self.goal, self.ctx.belief):
                # the situation resolved itself (e.g. a phantom target cleared
                # on re-map and the goal is already met): the map-level fix
                # counts as the recovery
                prev_record.replanned = True
                prev_record.recovered = True
                episode.status = "recovered"
                self.ctx.events.append({"event": "recovery", "directive": "end", "status": "recovered"})
                return episode
            directive = select_recovery(episode)
            self.ctx.events.append(
                {
                    "event": "recovery",
                    "directive": directive.kind,
                    "level": directive.level,
                    "attempt": episode.attempts.get(directive.level, 0),
                    "evidence": {
                        "shifted": episode.evidence.shifted,
                        "target_lost": episode.evidence.target_lost,
                        "out_of_reach": episode.evidence.out_of_reach,
                    },
                }
            )
            if directive.kind == "exhausted":
                # the last failure event got no re-issue: it ends the task
                prev_record.mark_direct()
                episode.status = "exhausted"
                self.ctx.events.append({"event": "recovery", "directive": "end", "status": "exhausted"})
                return episode

            if directive.kind == "retry":
                result = self.object_level_retry(episode)
            elif directive.kind == "remap":
                result = self.local_level_remap(episode)
            else:
                result = self.global_level_renavigate(episode)

            if result is None:
                # no action could be issued at this level (lost target, no
                # alternative); evidence was updated, keep escalating
                continue

            fb, verdict = result
            prev_record.replanned = True
            if fb.success and verdict.success:
                prev_record.recovered = True
                episode.status = "recovered"
                self.ctx.events.append({"event": "recovery", "directive": "end", "status": "recovered"})
                return episode
            prev_record.recovered = False
            new_record = classify_failure(verdict, fb, episode.evidence)
            self._update_evidence(episode, fb)
            self.ctx.records.append(new_record)
            prev_record = new_record
        episode.status = "exhausted"
        prev_record.mark_direct()
        self.ctx.events.append({"event": "recovery", "directive": "end", "status": "exhausted"})
        return episode

    def _update_evidence(self, episode: RecoveryEpisode, fb: Feedback) -> None:
        if fb.details.get("shifted"):
            episode.evidence.shifted = True
        fault = fb.fault
        if fault is not None:
            if fault.code == "out_of_reach":
                episode.evidence.out_of_reach = True
            if fault.code == "target_not_visible":
                episode.evidence.target_lost = True

    # -- one verified execution ------------------------------------------------------

    def _execute(self, episode: RecoveryEpisode, request: ActionRequest) -> tuple[Feedback, SuccessVerdict]:
        world = self.ctx.world
        before = capture(world, "stay", evidence_ids(request))
        # the shift check reads only the episode object and is not traced; a
        # retargeted object has not moved since, unless it rode on the old one
        seen = capture(world, "stay", () if episode.object_id is None else (episode.object_id,))
        self._check_shift(episode, seen)
        episode.last_before = seen
        fb = dispatch(self.ctx, request)
        after = capture(world, "stay", evidence_ids(request, fb))
        verdict = verify_success(before, after, fb, request)
        self.ctx.events.append(verdict_event(request, fb, verdict, before, after))
        self.ctx.events.append(
            {
                "event": "recovery_action",
                "verb": request.verb,
                "target": request.target,
                "index": fb.request_index,
                "success": fb.success and verdict.success,
            }
        )
        return fb, verdict

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
                episode.evidence.shifted = True

    def _reissue_request(self, episode: RecoveryEpisode, level: str) -> ActionRequest:
        return ActionRequest(
            verb=episode.verb,
            target=episode.target,
            location=episode.location,
            params={"recovery_level": level},
        )

    def _reissue(self, episode: RecoveryEpisode, level: str) -> Optional[tuple[Feedback, SuccessVerdict]]:
        """Re-run the failed verb; a place whose object fell to the floor is
        re-grasped first."""
        if episode.verb == "place" and self.ctx.belief.holding is None and episode.object_id is not None:
            g = ActionRequest(verb="grasp", target=episode.object_id, params={"recovery_level": level})
            fb, verdict = self._execute(episode, g)
            if not (fb.success and verdict.success):
                return fb, verdict
        return self._execute(episode, self._reissue_request(episode, level))

    # -- the three levels ----------------------------------------------------------------

    def object_level_retry(self, episode: RecoveryEpisode) -> Optional[tuple[Feedback, SuccessVerdict]]:
        """Re-issue the failed request unchanged: the world draws its outcome
        afresh, so a sampled failure can succeed on the next attempt."""
        if episode.failure.cause == "visual_feedback_error":
            resolved = self._reobserve(episode)
            if resolved is not None:
                return resolved
        return self._reissue(episode, "object")

    def _reobserve(self, episode: RecoveryEpisode) -> Optional[tuple[Feedback, SuccessVerdict]]:
        """Second look for flag/delta mismatches: trust the fresh delta. When
        it shows the intent was achieved the episode resolves without another
        execution; otherwise fall through to a real retry."""
        oid = episode.object_id
        if oid is None:
            return None
        fresh = capture(self.ctx.world, "stay", (oid,))
        if episode.verb == "grasp":
            achieved = fresh.find(oid) is None and self.ctx.world.gripper == oid
            if achieved:
                self.ctx.belief.note_grasped(oid)
                fb = Feedback(request_index=-1, verb="grasp", success=True, message="re-observation: already holding")
                return fb, SuccessVerdict(True, True, True, "re-observation confirms the grasp succeeded")
        if episode.verb == "place":
            snap = fresh.find(oid)
            rid = episode.location[0] if episode.location else episode.target
            if snap is not None and snap.parent_id == rid:
                self.ctx.belief.note_placed(oid, rid, snap.location)
                fb = Feedback(request_index=-1, verb="place", success=True, message="re-observation: already placed")
                return fb, SuccessVerdict(True, True, True, "re-observation confirms the place succeeded")
        return None

    def local_level_remap(self, episode: RecoveryEpisode) -> Optional[tuple[Feedback, SuccessVerdict]]:
        """Rebuild the local map, re-resolve the target, act again."""
        belief = self.ctx.belief
        root = belief.at_receptacle
        if root is None or root not in belief.local_maps:
            episode.evidence.target_lost = True
            return None
        # the failed interaction is itself evidence the map is wrong: force a
        # fresh scan even when no ground change marked it stale
        belief.local_maps[root].stale = True
        lmap = refresh_local(self.ctx.world, belief, belief.local_maps[root])
        self.ctx.events.append({"event": "recovery_remap", "receptacle": root, "items": [o.id for o in lmap.items]})
        if episode.verb in ("grasp",) or (episode.verb == "place" and belief.holding is None):
            resolved = self._resolve_object(episode, lmap)
            if resolved is None:
                episode.evidence.target_lost = True
                return None
        return self._reissue(episode, "local")

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
                if episode.verb == "grasp":
                    episode.target = item.id
                self.ctx.events.append({"event": "recovery_retarget", "from": oid, "to": item.id})
                return item.id
        return None

    def global_level_renavigate(self, episode: RecoveryEpisode) -> Optional[tuple[Feedback, SuccessVerdict]]:
        """New vantage point: an untried side with the target in reach, or an
        alternative receptacle suggested by the feasibility check."""
        belief = self.ctx.belief
        if episode.verb == "navigate":
            return self._reissue(episode, "global")

        root = belief.at_receptacle
        if root is not None and belief.approach_side:
            episode.tried_sides.add(belief.approach_side)

        focus = None
        if episode.object_id is not None:
            b = belief.objects.get(episode.object_id)
            if b is not None:
                focus = list(b.location)
        side = self._pick_side(episode, root) if root is not None else None
        if side is not None:
            nav = ActionRequest(
                verb="navigate", target=root, side=side,
                params={"recovery_level": "global", "focus": focus},
            )
            fb, verdict = self._execute(episode, nav)
            if not (fb.success and verdict.success):
                return fb, verdict
            episode.tried_sides.add(side)
            return self._reissue(episode, "global")

        suggestion = verify_feasibility(self.goal, belief).rollback
        if suggestion is None or suggestion.level != "global":
            return None
        nav = ActionRequest(
            verb="navigate", target=suggestion.receptacle, params={"recovery_level": "global"}
        )
        fb, verdict = self._execute(episode, nav)
        if not (fb.success and verdict.success):
            return fb, verdict
        scan = ActionRequest(verb="explore_local", target=suggestion.receptacle)
        dispatch(self.ctx, scan)  # perception, not counted
        lmap = belief.local_maps.get(suggestion.receptacle)
        if lmap is None:
            episode.evidence.target_lost = True
            return None
        if episode.verb in ("grasp",) or (episode.verb == "place" and belief.holding is None):
            if self._resolve_object(episode, lmap) is None:
                episode.evidence.target_lost = True
                return None
        return self._reissue(episode, "global")

    def _pick_side(self, episode: RecoveryEpisode, root: str) -> Optional[str]:
        """Untried sides with a usable approach, preferring those that bring
        the believed target within arm reach, then shorter distances."""
        world = self.ctx.world
        if root not in world.furniture:
            return None
        target_pos = None
        if episode.object_id is not None:
            b = self.ctx.belief.objects.get(episode.object_id)
            if b is not None:
                target_pos = b.location
        ranked = []
        for side in ("north", "east", "south", "west"):
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
        if episode.evidence.out_of_reach and not reachable_exists and target_pos is not None:
            return None
        return ranked[0][2]
