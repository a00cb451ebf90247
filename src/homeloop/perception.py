"""The robot's belief layer.

Three perception granularities mirror how the robot plans: a furniture-level
global map built by frontier exploration, per-receptacle local maps of small
objects, and noise-free close-up inspection of single objects. Detection noise
(missed detections, false positives) applies to local scans; close-ups always
report ground truth, which is what makes object-level verification sound —
a hallucinated detection is unmasked the moment the robot looks closely.

Object identity is tracked by reusing ground ids for re-detected objects, a
stand-in for a visual tracker: an undisturbed object keeps its id across any
number of rescans.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

from .errors import ApiCallError, ExplorationStalled, Fault, NotAtReceptacle, TargetNotVisible
from .geometry import Cell, dilate8, wavefront
from .world import PhantomRecord, World

PHANTOM_CATEGORY_POOL = ("cup", "toy", "fruit", "book", "bottle")


@dataclass(frozen=True)
class SceneObject:
    """A perceived object instance; the unit shared by maps, skills and plans."""

    id: str
    category: str
    attributes: frozenset[str]
    location: tuple[float, float]
    footprint: tuple[tuple[float, float], ...]
    description: str
    provenance: str  # "global" | "local" | "object"
    last_seen_step: int
    parent_id: Optional[str] = None
    is_receptacle: bool = False

    def to_json(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "category": self.category,
            "attributes": sorted(self.attributes),
            "pose": [round(self.location[0], 4), round(self.location[1], 4)],
            "provenance": self.provenance,
            "parent": self.parent_id,
            "receptacle": self.is_receptacle,
        }


@dataclass
class GlobalMap:
    furniture: list[SceneObject]
    explored_mask: np.ndarray

    def find(self, ref: str) -> Optional[SceneObject]:
        for f in self.furniture:
            if f.id == ref:
                return f
        return None


@dataclass
class LocalMap:
    receptacle_id: str
    items: list[SceneObject]
    built_at_step: int
    built_version: int
    stale: bool = False
    scan_count: int = 1

    def find(self, ref: str) -> Optional[SceneObject]:
        for o in self.items:
            if o.id == ref:
                return o
        return None


@dataclass(frozen=True)
class Observation:
    kind: str  # "close_up" | "stay" | "rest"
    target: Optional[str]
    visible: tuple[SceneObject, ...]
    captured_at_step: int

    def find(self, ref: str) -> Optional[SceneObject]:
        for o in self.visible:
            if o.id == ref:
                return o
        return None

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "target": self.target,
            "visible": [o.to_json() for o in self.visible],
            "step": self.captured_at_step,
        }


@dataclass
class BeliefObject:
    """Merged knowledge about one id across scans and close-ups."""

    id: str
    category: str
    attributes: frozenset[str]
    location: tuple[float, float]
    parent_id: Optional[str]
    is_receptacle: bool
    inspected: bool = False
    ruled_out: bool = False  # close-up contradicted the believed category
    last_seen_step: int = 0


@dataclass
class Belief:
    """All maps and merged object knowledge owned by one trial."""

    global_map: Optional[GlobalMap] = None
    local_maps: dict[str, LocalMap] = field(default_factory=dict)
    objects: dict[str, BeliefObject] = field(default_factory=dict)
    holding: Optional[str] = None
    at_receptacle: Optional[str] = None
    approach_side: Optional[str] = None

    def receptacle_entities(self) -> list[BeliefObject]:
        return sorted(
            (o for o in self.objects.values() if o.is_receptacle),
            key=lambda o: o.id,
        )

    def mark_stale(self, furniture_id: str) -> None:
        m = self.local_maps.get(furniture_id)
        if m is not None:
            m.stale = True

    def note_grasped(self, oid: str) -> None:
        self.holding = oid
        b = self.objects.get(oid)
        if b is not None:
            b.parent_id = None
        for m in self.local_maps.values():
            m.items = [o for o in m.items if o.id != oid]

    def note_placed(self, oid: str, rid: str, pos: tuple[float, float]) -> None:
        self.holding = None
        b = self.objects.get(oid)
        if b is not None:
            b.parent_id = rid
            b.location = pos
        root = rid
        seen = set()
        while root in self.objects and self.objects[root].parent_id and root not in seen:
            seen.add(root)
            root = self.objects[root].parent_id  # type: ignore[assignment]
        self.mark_stale(root)


# --- snapshot helpers -----------------------------------------------------------


def _snapshot(
    world: World,
    oid: str,
    provenance: str,
    parent_override: Optional[str] = None,
    with_attributes: bool = True,
) -> SceneObject:
    """Snapshot one ground object. Local-level detections deliberately omit
    attribute tags: fine-grained attributes are an object-level (close-up)
    product, which is what makes the close-up step informative."""
    obj = world.objects[oid]
    pos = world.position_of(oid)
    parent = parent_override
    if parent is None and obj.placement.kind == "on":
        parent = obj.placement.receptacle
    return SceneObject(
        id=oid,
        category=obj.spec.category,
        attributes=frozenset(obj.spec.attributes) if with_attributes else frozenset(),
        location=pos,
        footprint=((pos[0] - 0.03, pos[1] - 0.03), (pos[0] + 0.03, pos[1] + 0.03)),
        description=f"{obj.spec.category} at ({pos[0]:.2f}, {pos[1]:.2f})",
        provenance=provenance,
        last_seen_step=world.step_counter,
        parent_id=parent,
        is_receptacle=obj.spec.receptacle,
    )


def capture(world: World, kind: str = "stay") -> Observation:
    """Truthful snapshot of non-held objects within view radius of the robot
    (or of the rest pose for kind="rest"). Used for before/after evidence and
    for the stay/rest observation modes."""
    if kind == "rest":
        origin = (world.config.robot_start.x, world.config.robot_start.y)
    else:
        origin = (world.robot.x, world.robot.y)
    visible = []
    for oid in sorted(world.objects):
        if world.objects[oid].placement.kind == "gripper":
            continue
        pos = world.position_of(oid)
        if (pos[0] - origin[0]) ** 2 + (pos[1] - origin[1]) ** 2 <= world.config.view_radius**2:
            visible.append(_snapshot(world, oid, "object"))
    return Observation(kind=kind, target=None, visible=tuple(visible), captured_at_step=world.step_counter)


# --- global exploration -----------------------------------------------------------


def _sense(world: World, explored: np.ndarray, origin_cell: Cell) -> None:
    """Mark cells visible from the origin: free cells connected to it within
    the sensing radius, plus the occupied surfaces bordering them. Occlusion
    falls out of connectivity — the scan cannot pass through furniture, so a
    walled-off region stays unexplored."""
    if not world.grid.is_free(origin_cell):
        return
    radius = int(world.config.sensing_radius / world.config.grid_resolution)
    cx0, cy0 = origin_cell
    x0, y0 = max(0, cx0 - radius), max(0, cy0 - radius)
    x1, y1 = min(world.grid.width, cx0 + radius + 1), min(world.grid.height, cy0 + radius + 1)
    ys, xs = np.ogrid[y0:y1, x0:x1]
    disk = (xs - cx0) ** 2 + (ys - cy0) ** 2 <= radius**2
    free = world.grid.occ[y0:y1, x0:x1] == 0
    seen = wavefront(free & disk, (cx0 - x0, cy0 - y0)) >= 0
    explored[y0:y1, x0:x1] |= seen | (dilate8(seen) & disk)


def _frontiers(world: World, explored: np.ndarray) -> np.ndarray:
    """Mask of explored free cells bordering at least one unexplored cell."""
    unexplored = ~explored
    border = np.zeros_like(explored)
    border[:-1, :] |= unexplored[1:, :]
    border[1:, :] |= unexplored[:-1, :]
    border[:, :-1] |= unexplored[:, 1:]
    border[:, 1:] |= unexplored[:, :-1]
    return explored & (world.grid.occ == 0) & border


def explore_global(world: World, belief: Belief) -> GlobalMap:
    """Frontier-based sweep: repeatedly drive to the nearest frontier cell and
    sense, until no frontier remains among reachable cells. The robot ends at
    its last frontier; adjacency to any receptacle is lost."""
    explored = (
        belief.global_map.explored_mask.copy()
        if belief.global_map is not None
        else np.zeros_like(world.grid.occ, dtype=bool)
    )
    _sense(world, explored, world.robot_cell())

    free = world.grid.occ == 0
    guard = world.grid.width * world.grid.height + 8
    for _ in range(guard):
        frontiers = _frontiers(world, explored)
        if not frontiers.any():
            break
        dist = world.grid.bfs_distances(world.robot_cell(), free & explored, frontiers)
        ys, xs = np.nonzero(frontiers & (dist >= 0))
        if len(xs) == 0:
            remaining = free & world.reachable & ~explored
            if remaining.any():
                raise ExplorationStalled(
                    f"{int(remaining.sum())} reachable cells unexplored but no frontier reachable"
                )
            break
        # nearest first, then lowest (cx, cy)
        i = np.lexsort((ys, xs, dist[ys, xs]))[0]
        target = (int(xs[i]), int(ys[i]))
        x, y = world.grid.center_of(target)
        world.robot = type(world.robot)(x, y, world.robot.heading)
        _sense(world, explored, target)
    else:
        raise ExplorationStalled("frontier loop exceeded the cell-count bound")

    furniture_objs = []
    for fid in sorted(world.furniture):
        cells = world.footprint_cells[fid]
        if not any(explored[cy, cx] for cx, cy in cells):
            continue
        f = world.furniture[fid]
        furniture_objs.append(
            SceneObject(
                id=fid,
                category=f.category,
                attributes=frozenset(),
                location=world.centroids[fid],
                footprint=tuple(f.footprint),
                description=f"{f.category} ({f.surface_height or 'no'} surface)",
                provenance="global",
                last_seen_step=world.step_counter,
                is_receptacle=f.is_receptacle,
            )
        )

    gmap = GlobalMap(furniture=furniture_objs, explored_mask=explored)
    belief.global_map = gmap
    belief.at_receptacle = None
    belief.approach_side = None
    for f in furniture_objs:
        belief.objects[f.id] = BeliefObject(
            id=f.id,
            category=f.category,
            attributes=f.attributes,
            location=f.location,
            parent_id=None,
            is_receptacle=f.is_receptacle,
            last_seen_step=world.step_counter,
        )
    return gmap


# --- local scanning -----------------------------------------------------------------


def explore_local(
    world: World,
    belief: Belief,
    receptacle_id: str,
    preserve: Optional[LocalMap] = None,
) -> LocalMap:
    """Scan the small objects rooted at one furniture piece.

    Each true object is omitted with p_missed_detection; with p_false_positive
    one phantom detection (belief-only, no ground placement) is inserted and
    registered with ground truth so a later close-up can unmask it.
    """
    if receptacle_id not in world.furniture:
        raise KeyError(f"explore_local target {receptacle_id!r} is not furniture")
    if not world.robot_adjacent_to(receptacle_id):
        raise _not_at(receptacle_id)

    noise = world.config.noise
    items: list[SceneObject] = []
    detected_ids: set[str] = set()
    ground_ids = world.objects_rooted_at(receptacle_id)
    for oid in ground_ids:
        missed = world.rng.random() < noise.p_missed_detection
        if missed:
            continue
        items.append(_snapshot(world, oid, "local", with_attributes=False))
        detected_ids.add(oid)

    if world.rng.random() < noise.p_false_positive:
        items.append(_insert_phantom(world, receptacle_id, detected_ids))

    version = world.receptacle_versions.get(receptacle_id, 0)
    prior = preserve if preserve is not None else belief.local_maps.get(receptacle_id)
    lmap = LocalMap(
        receptacle_id=receptacle_id,
        items=sorted(items, key=lambda o: o.id),
        built_at_step=world.step_counter,
        built_version=version,
        stale=False,
        scan_count=(prior.scan_count + 1) if prior is not None else 1,
    )
    belief.local_maps[receptacle_id] = lmap
    _merge_into_belief(belief, lmap, world.step_counter)
    return lmap


def _not_at(receptacle_id: str) -> "NotAtReceptacleError":
    return NotAtReceptacleError(receptacle_id)


class NotAtReceptacleError(Exception):
    """Internal signal; the skills layer converts it into a typed fault."""

    def __init__(self, receptacle_id: str) -> None:
        self.receptacle_id = receptacle_id
        super().__init__(f"robot is not at {receptacle_id}")

    def fault(self) -> Fault:
        return NotAtReceptacle("not_at_receptacle", f"robot is not at {self.receptacle_id}; navigate there first")


def _insert_phantom(world: World, receptacle_id: str, detected: set[str]) -> SceneObject:
    """Hallucinate one detection. When real objects sit on the receptacle the
    phantom anchors to the nearest one (a misread: its close-up reveals the
    anchor's true category); an empty surface yields an unanchored phantom
    whose close-up reveals bare surface."""
    ground_ids = world.objects_rooted_at(receptacle_id)
    anchor_id = ground_ids[world.rng.randrange(len(ground_ids))] if ground_ids else None
    if anchor_id is not None:
        ax, ay = world.position_of(anchor_id)
        pos = (ax + (world.rng.random() - 0.5) * 0.06, ay + (world.rng.random() - 0.5) * 0.06)
        reveal_cat = world.objects[anchor_id].spec.category
        reveal_attrs = tuple(sorted(world.objects[anchor_id].spec.attributes))
    else:
        cx, cy = world.anchor_of(receptacle_id)
        pos = (cx + (world.rng.random() - 0.5) * 0.2, cy + (world.rng.random() - 0.5) * 0.2)
        reveal_cat = "bare_surface"
        reveal_attrs = ()
    pool = [c for c in PHANTOM_CATEGORY_POOL if c != reveal_cat]
    believed = pool[world.rng.randrange(len(pool))]
    pid = world.mint_phantom_id(believed, set(world.phantoms))
    world.register_phantom(
        PhantomRecord(
            phantom_id=pid,
            believed_category=believed,
            reveal_category=reveal_cat,
            reveal_attributes=reveal_attrs,
            position=pos,
            root_furniture=receptacle_id,
            created_step=world.step_counter,
        )
    )
    return SceneObject(
        id=pid,
        category=believed,
        attributes=frozenset(),
        location=pos,
        footprint=((pos[0] - 0.03, pos[1] - 0.03), (pos[0] + 0.03, pos[1] + 0.03)),
        description=f"{believed} at ({pos[0]:.2f}, {pos[1]:.2f})",
        provenance="local",
        last_seen_step=world.step_counter,
        parent_id=receptacle_id,
        is_receptacle=False,
    )


def _merge_into_belief(belief: Belief, lmap: LocalMap, step: int) -> None:
    current_ids = {o.id for o in lmap.items}
    for o in lmap.items:
        prior = belief.objects.get(o.id)
        belief.objects[o.id] = BeliefObject(
            id=o.id,
            category=prior.category if (prior and prior.inspected) else o.category,
            attributes=prior.attributes if prior else o.attributes,
            location=o.location,
            parent_id=o.parent_id,
            is_receptacle=o.is_receptacle,
            inspected=prior.inspected if prior else False,
            ruled_out=prior.ruled_out if prior else False,
            last_seen_step=step,
        )
    # objects previously believed rooted here but gone from the fresh scan
    for oid, b in list(belief.objects.items()):
        if oid in current_ids or b.is_receptacle or oid == belief.holding:
            continue
        root = _belief_root(belief, b)
        if root == lmap.receptacle_id:
            del belief.objects[oid]


def _belief_root(belief: Belief, b: BeliefObject) -> Optional[str]:
    current = b.parent_id
    seen = set()
    while current is not None and current in belief.objects and current not in seen:
        seen.add(current)
        nxt = belief.objects[current].parent_id
        if nxt is None:
            return current
        current = nxt
    return current


def refresh_local(world: World, belief: Belief, lmap: LocalMap) -> LocalMap:
    """Re-scan a stale local map, preserving ids of undisturbed objects.
    A non-stale map is returned unchanged."""
    if not lmap.stale:
        return lmap
    return explore_local(world, belief, lmap.receptacle_id, preserve=lmap)


# --- object-level inspection ------------------------------------------------------------


def report_observation(world: World, belief: Belief, target: "SceneObject | str") -> Observation:
    """Close-up of one object, or a wide capture for the "stay"/"rest" modes.

    Close-ups are truthful: real objects report their ground attributes, and
    phantoms are revealed as whatever actually occupies their believed spot
    (unless p_closeup_error fires, preserving the wrong belief).
    """
    if isinstance(target, str):
        if target in ("stay", "rest"):
            return capture(world, target)
        raise ApiCallErrorSignal(f"report_observation mode must be \"stay\" or \"rest\", got {target!r}")

    oid = target.id
    if oid in world.phantoms:
        record = world.phantoms[oid]
        if world.config.noise.p_closeup_error > 0 and world.rng.random() < world.config.noise.p_closeup_error:
            revealed = replace(target, provenance="object", last_seen_step=world.step_counter)
        else:
            revealed = SceneObject(
                id=oid,
                category=record.reveal_category,
                attributes=frozenset(record.reveal_attributes),
                location=record.position,
                footprint=target.footprint,
                description=f"close-up shows {record.reveal_category}",
                provenance="object",
                last_seen_step=world.step_counter,
                parent_id=target.parent_id,
                is_receptacle=False,
            )
        obs = Observation(
            kind="close_up", target=oid, visible=(revealed,), captured_at_step=world.step_counter
        )
        _merge_closeup(belief, obs)
        return obs

    if oid not in world.objects:
        raise TargetNotVisibleSignal(oid)
    pos = world.position_of(oid)
    believed = target.location
    if (pos[0] - believed[0]) ** 2 + (pos[1] - believed[1]) ** 2 > world.config.closeup_radius**2:
        raise TargetNotVisibleSignal(oid)

    visible = [_snapshot(world, oid, "object")]
    for other in sorted(world.objects):
        if other == oid or world.objects[other].placement.kind == "gripper":
            continue
        opos = world.position_of(other)
        if (opos[0] - pos[0]) ** 2 + (opos[1] - pos[1]) ** 2 <= world.config.closeup_radius**2:
            visible.append(_snapshot(world, other, "object"))
    obs = Observation(
        kind="close_up", target=oid, visible=tuple(visible), captured_at_step=world.step_counter
    )
    _merge_closeup(belief, obs)
    return obs


def _merge_closeup(belief: Belief, obs: Observation) -> None:
    for o in obs.visible:
        prior = belief.objects.get(o.id)
        if prior is None:
            continue
        ruled_out = prior.ruled_out or (o.category != prior.category)
        belief.objects[o.id] = BeliefObject(
            id=o.id,
            category=o.category,
            attributes=o.attributes,
            location=prior.location,
            parent_id=prior.parent_id,
            is_receptacle=prior.is_receptacle,
            inspected=True,
            ruled_out=ruled_out,
            last_seen_step=obs.captured_at_step,
        )
        for m in belief.local_maps.values():
            m.items = [
                replace(i, category=o.category, attributes=o.attributes) if i.id == o.id else i
                for i in m.items
            ]


class ApiCallErrorSignal(Exception):
    def __init__(self, message: str) -> None:
        self.message = message
        super().__init__(message)

    def fault(self) -> Fault:
        return ApiCallError("bad_argument", self.message)


class TargetNotVisibleSignal(Exception):
    def __init__(self, oid: str) -> None:
        self.oid = oid
        super().__init__(f"{oid} no longer exists at its believed location")

    def fault(self) -> Fault:
        return TargetNotVisible("target_not_visible", f"{self.oid} no longer exists at its believed location")
