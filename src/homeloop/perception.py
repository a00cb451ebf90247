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

import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from .errors import ExplorationStalled, NotAtReceptacle, Refused, TargetNotVisible
from .errors import as_json, as_number, as_pair, as_strings, only_keys, require
from .geometry import Cell, PackedGrid
from .world import PhantomRecord, World

PHANTOM_CATEGORY_POOL = ("cup", "toy", "fruit", "book", "bottle")


@dataclass(frozen=True)
class SceneObject:
    """A perceived object instance; the unit shared by maps, skills and plans."""

    id: str
    category: str
    attributes: frozenset[str]
    location: tuple[float, float]
    provenance: str  # "global" | "local" | "object"
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

    @classmethod
    def from_json(cls, doc: Any, path: str = "object") -> SceneObject:
        """Inverse of ``to_json``: exactly the keys it writes, each of the
        type it writes, else a ConfigError."""
        keys = ("id", "category", "attributes", "pose", "provenance", "parent", "receptacle")
        only_keys(as_json(doc, dict, path), keys, path)
        id_, category, attributes, pose, provenance, parent, receptacle = (require(doc, k, path) for k in keys)
        return cls(
            id=as_json(id_, str, f"{path}.id"),
            category=as_json(category, str, f"{path}.category"),
            attributes=frozenset(as_strings(attributes, f"{path}.attributes")),
            location=as_pair(pose, f"{path}.pose"),
            provenance=as_json(provenance, str, f"{path}.provenance"),
            parent_id=None if parent is None else as_json(parent, str, f"{path}.parent"),
            is_receptacle=as_json(receptacle, bool, f"{path}.receptacle"),
        )


def find_by_id(items: Iterable[SceneObject], ref: str) -> Optional[SceneObject]:
    """The first of ``items`` with id ``ref``, or None."""
    for o in items:
        if o.id == ref:
            return o
    return None


@dataclass
class GlobalMap:
    furniture: list[SceneObject]
    explored_mask: int  # packed on the world grid's layout

    def find(self, ref: str) -> Optional[SceneObject]:
        return find_by_id(self.furniture, ref)


@dataclass
class LocalMap:
    receptacle_id: str
    items: list[SceneObject]
    built_version: int
    stale: bool = False
    scan_count: int = 1

    def find(self, ref: str) -> Optional[SceneObject]:
        return find_by_id(self.items, ref)


@dataclass(frozen=True)
class Observation:
    kind: str  # "close_up" | "stay" | "rest"
    target: Optional[str]
    visible: tuple[SceneObject, ...]
    captured_at_step: int

    def find(self, ref: str) -> Optional[SceneObject]:
        return find_by_id(self.visible, ref)

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "target": self.target,
            "visible": [o.to_json() for o in self.visible],
            "step": self.captured_at_step,
        }

    @classmethod
    def from_json(cls, doc: Any, path: str = "observation") -> Observation:
        """Inverse of ``to_json``: exactly the keys it writes, each of the
        type it writes, else a ConfigError."""
        keys = ("kind", "target", "visible", "step")
        only_keys(as_json(doc, dict, path), keys, path)
        kind, target, visible, step = (require(doc, k, path) for k in keys)
        return cls(
            kind=as_json(kind, str, f"{path}.kind"),
            target=None if target is None else as_json(target, str, f"{path}.target"),
            visible=tuple(
                SceneObject.from_json(o, f"{path}.visible[{i}]")
                for i, o in enumerate(as_json(visible, list, f"{path}.visible"))
            ),
            captured_at_step=as_number(step, f"{path}.step", int),
        )


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


@dataclass
class Belief:
    """All maps and merged object knowledge owned by one trial.

    ``version`` counts the writes to ``objects`` and ``holding``: every
    writer is a method here or a perception merge, and each ends with
    ``touch()``. Values derived from those two fields (the objects in id
    order, goal results) are kept in ``derived()`` and
    live as long as the version they were computed at."""

    global_map: Optional[GlobalMap] = None
    local_maps: dict[str, LocalMap] = field(default_factory=dict)
    objects: dict[str, BeliefObject] = field(default_factory=dict)
    holding: Optional[str] = None
    at_receptacle: Optional[str] = None
    approach_side: Optional[str] = None
    version: int = field(default=0, init=False, compare=False)
    _memo: dict[Any, Any] = field(default_factory=dict, init=False, repr=False, compare=False)
    _memo_version: int = field(default=0, init=False, repr=False, compare=False)

    def touch(self) -> None:
        """Record a write to ``objects`` or ``holding``."""
        self.version += 1

    def derived(self) -> dict[Any, Any]:
        """Memo of values computed from ``objects`` and ``holding`` at the
        current version; emptied by the first read after a write."""
        if self._memo_version != self.version:
            self._memo.clear()
            self._memo_version = self.version
        return self._memo

    def sorted_objects(self) -> tuple[BeliefObject, ...]:
        """``objects`` in id order, sorted once per version."""
        memo = self.derived()
        ordered = memo.get("sorted")
        if ordered is None:
            ordered = memo["sorted"] = tuple(sorted(self.objects.values(), key=lambda o: o.id))
        return ordered

    def furniture(self, ref: str) -> Optional[SceneObject]:
        """The global map's entry for ``ref``, or None (also before any sweep)."""
        return self.global_map.find(ref) if self.global_map is not None else None

    def local_item(self, ref: str) -> Optional[SceneObject]:
        """The item ``ref`` of the first local map that holds it, or None."""
        for m in self.local_maps.values():
            item = m.find(ref)
            if item is not None:
                return item
        return None

    def mark_stale(self, ref: str) -> None:
        """Mark stale the local map of the furniture at the root of ``ref``."""
        m = self.local_maps.get(self.root_of(ref))
        if m is not None:
            m.stale = True

    def note_grasped(self, oid: str) -> None:
        self.holding = oid
        b = self.objects.get(oid)
        if b is not None:
            b.parent_id = None
        for m in self.local_maps.values():
            m.items = [o for o in m.items if o.id != oid]
        self.touch()

    def note_released(self, oid: str, pos: tuple[float, float], rid: Optional[str]) -> None:
        """The held object now rests at ``pos`` on ``rid``, or on the floor
        when ``rid`` is None (a failed place dropped it)."""
        self.holding = None
        b = self.objects.get(oid)
        if b is not None:
            b.parent_id = rid
            b.location = pos
        if rid is not None:
            self.mark_stale(rid)
        self.touch()

    def root_of(self, ref: str) -> str:
        """Top of the believed parent chain, starting at ``ref`` itself: the
        furniture an object rests on, or the object itself when it has no
        believed parent (furniture, a dropped object, an unknown id)."""
        root = ref
        seen = set()
        while root in self.objects and self.objects[root].parent_id and root not in seen:
            seen.add(root)
            root = self.objects[root].parent_id  # type: ignore[assignment]
        return root


# --- snapshot helpers -----------------------------------------------------------


def _snapshot(world: World, oid: str, provenance: str) -> SceneObject:
    """Snapshot one ground object. Local-level detections deliberately omit
    attribute tags: fine-grained attributes are an object-level (close-up)
    product, which is what makes the close-up step informative."""
    obj = world.objects[oid]
    return SceneObject(
        id=oid,
        category=obj.spec.category,
        attributes=frozenset() if provenance == "local" else frozenset(obj.spec.attributes),
        location=world.position_of(oid),
        provenance=provenance,
        parent_id=obj.on,
        is_receptacle=obj.spec.receptacle,
    )


def _in_view(world: World, ids: Iterable[str], origin: tuple[float, float], radius: float) -> list[SceneObject]:
    """Snapshots of the non-held ground objects of ``ids`` within ``radius``
    of ``origin``, in id order."""
    visible = []
    for oid in sorted(ids):
        if oid == world.gripper:
            continue
        pos = world.position_of(oid)
        if (pos[0] - origin[0]) ** 2 + (pos[1] - origin[1]) ** 2 <= radius**2:
            visible.append(_snapshot(world, oid, "object"))
    return visible


def capture(world: World, kind: str = "stay", ids: Optional[Iterable[str]] = None) -> Observation:
    """Truthful snapshot of non-held objects within view radius of the robot
    (or of the rest pose for kind="rest"), in id order.

    ``ids`` restricts the snapshot to those objects; ids of no ground object
    (phantoms, furniture, unknown names) are skipped. Before/after evidence
    looks up only what a verdict reads (``skills.evidence_ids``); the
    stay/rest observation modes pass no ids and see every object."""
    if kind == "rest":
        origin = (world.config.robot_start.x, world.config.robot_start.y)
    else:
        origin = (world.robot.x, world.robot.y)
    candidates = world.objects if ids is None else world.objects.keys() & ids
    visible = _in_view(world, candidates, origin, world.config.view_radius)
    return Observation(kind=kind, target=None, visible=tuple(visible), captured_at_step=world.step_counter)


# --- global exploration -----------------------------------------------------------


def _sense(packed: PackedGrid, free: int, explored: int, origin: Cell, radius: int) -> tuple[int, int]:
    """``explored`` plus the cells visible from the origin: free cells
    connected to it within the sensing radius, plus the occupied surfaces
    bordering them. Occlusion falls out of connectivity — the scan cannot
    pass through furniture, so a walled-off region stays unexplored. All
    masks are packed on ``packed``'s layout. An occupied origin sees
    nothing; validation keeps the robot's cells free. Also returns the
    scan's BFS layer at depth ``d = isqrt(radius**2 // 2)`` (0 when the scan
    stops sooner), where ``_sweep`` resumes its frontier search.

    The scan runs on the disk's rows alone: each mask is shifted down by the
    ``lo`` bits of the rows before the disk's first, so every big-int
    operation is as wide as the disk rather than the grid, and the seen
    cells and the layer are shifted back up."""
    lo = max(0, origin[1] - radius) * packed.row
    band = packed.disk(origin, radius) >> lo
    depth = math.isqrt(radius * radius // 2)
    seen, rim = packed.reach(free >> lo & band, packed.bit(origin) >> lo, depth)
    return explored | (packed.dilate8(seen) & band) << lo, rim << lo


def _sweep(world: World, known: int) -> tuple[int, Optional[tuple[float, float]]]:
    """Frontier loop: sense, then repeatedly drive to the nearest frontier
    cell and sense, until no frontier remains among reachable cells. A
    frontier is an explored free cell with an unexplored 4-neighbour.
    Returns ``known`` grown by what was sensed, and where the robot ended, or
    None when it never moved. Every cell within ``d`` steps of the robot's
    cell is in the disk it just sensed, so a frontier search from there grows
    the scan's layers up to depth ``d``, and none but layer ``d`` meets a
    frontier. The search resumes from that layer: a frontier ``k`` steps
    from the robot is then ``k - d`` steps away, and no nearer."""
    grid = world.grid
    packed, free = grid.packed, grid.free
    row = packed.row
    radius = int(world.config.sensing_radius / world.config.grid_resolution)
    known, rim = _sense(packed, free, known, world.robot_cell(), radius)
    end = None
    for _ in range(grid.width * grid.height + 8):
        unexplored = packed.cells ^ known
        frontiers = known & free & (unexplored << 1 | unexplored >> 1 | unexplored << row | unexplored >> row)
        if not frontiers:
            return known, end
        nearest = packed.nearest(free & known, rim, frontiers)
        if not nearest:
            remaining = (free & world.reachable & ~known).bit_count()
            if remaining:
                raise ExplorationStalled(f"{remaining} reachable cells unexplored but no frontier reachable")
            return known, end
        target = packed.first_cell(nearest)  # nearest first, then lowest (cx, cy)
        end = grid.center_of(target)
        world.robot = type(world.robot)(end[0], end[1], world.robot.heading)
        known, rim = _sense(packed, free, known, target, radius)
    raise ExplorationStalled("frontier loop exceeded the cell-count bound")


def explore_global(world: World, belief: Belief) -> GlobalMap:
    """Frontier-based sweep (``_sweep``) that extends the explored map. The
    robot ends at its last frontier; adjacency to any receptacle is lost.

    A trial's first sweep draws no random numbers and depends only on the
    layout, the start cell and the sensing radius, so it is memoised in the
    scene geometry's ``first_sweeps``: a hit takes the explored mask and
    moves the robot to the recorded end, keeping its heading. A stalled
    sweep is never memoised; later sweeps always run."""
    if belief.global_map is not None:
        explored, _ = _sweep(world, belief.global_map.explored_mask)
    else:
        key = (world.robot_cell(), world.config.sensing_radius)
        memo = world.geometry.first_sweeps.get(key)
        if memo is None:
            explored, _ = world.geometry.first_sweeps[key] = _sweep(world, 0)
        else:
            explored, end = memo
            if end is not None:
                world.robot = type(world.robot)(end[0], end[1], world.robot.heading)

    furniture_objs = []
    for fid in sorted(world.furniture):
        if not explored & world.footprint_cells[fid]:
            continue
        f, location = world.furniture[fid], world.centroids[fid]
        furniture_objs.append(SceneObject(id=fid, category=f.category, attributes=frozenset(), location=location,
                                          provenance="global", is_receptacle=f.is_receptacle))
        belief.objects[fid] = BeliefObject(id=fid, category=f.category, attributes=frozenset(), location=location,
                                           parent_id=None, is_receptacle=f.is_receptacle)

    gmap = GlobalMap(furniture=furniture_objs, explored_mask=explored)
    belief.global_map = gmap
    belief.at_receptacle = None
    belief.approach_side = None
    belief.touch()
    return gmap


# --- local scanning -----------------------------------------------------------------


def explore_local(world: World, belief: Belief, receptacle_id: str) -> LocalMap:
    """Scan the small objects rooted at one furniture piece.

    Each true object is omitted with p_missed_detection; with p_false_positive
    one phantom detection (belief-only, no ground placement) is inserted and
    registered with ground truth so a later close-up can unmask it. Refuses
    when the robot is not next to the receptacle.
    """
    if receptacle_id not in world.furniture:
        raise KeyError(f"explore_local target {receptacle_id!r} is not furniture")
    if not world.robot_adjacent_to(receptacle_id):
        fault = NotAtReceptacle("not_at_receptacle", f"robot is not at {receptacle_id}; navigate there first")
        raise Refused(fault, f"robot is not at {receptacle_id}")

    noise = world.config.noise
    items: list[SceneObject] = []
    ground_ids = world.objects_rooted_at(receptacle_id)
    for oid in ground_ids:
        missed = world.rng.random() < noise.p_missed_detection
        if missed:
            continue
        items.append(_snapshot(world, oid, "local"))

    if world.rng.random() < noise.p_false_positive:
        items.append(_insert_phantom(world, receptacle_id, ground_ids))

    version = world.receptacle_versions.get(receptacle_id, 0)
    prior = belief.local_maps.get(receptacle_id)
    lmap = LocalMap(
        receptacle_id=receptacle_id,
        items=sorted(items, key=lambda o: o.id),
        built_version=version,
        stale=False,
        scan_count=(prior.scan_count + 1) if prior is not None else 1,
    )
    belief.local_maps[receptacle_id] = lmap
    _merge_into_belief(belief, lmap)
    return lmap


def _insert_phantom(world: World, receptacle_id: str, ground_ids: list[str]) -> SceneObject:
    """Hallucinate one detection. When real objects (``ground_ids``, those
    rooted at the receptacle) sit on it, the phantom anchors to one of them
    (a misread: its close-up reveals the anchor's true category); an empty
    surface yields an unanchored phantom whose close-up reveals bare
    surface. That close-up's object is built here, once, as the record's
    ``revealed``."""
    anchor_id = ground_ids[world.rng.randrange(len(ground_ids))] if ground_ids else None
    if anchor_id is not None:
        ax, ay = world.position_of(anchor_id)
        pos = (ax + (world.rng.random() - 0.5) * 0.06, ay + (world.rng.random() - 0.5) * 0.06)
        spec = world.objects[anchor_id].spec
        reveal_cat = spec.category
        reveal_attrs = frozenset(spec.attributes)
    else:
        cx, cy = world.anchor_of(receptacle_id)
        pos = (cx + (world.rng.random() - 0.5) * 0.2, cy + (world.rng.random() - 0.5) * 0.2)
        reveal_cat = "bare_surface"
        reveal_attrs = frozenset()
    pool = [c for c in PHANTOM_CATEGORY_POOL if c != reveal_cat]
    believed = pool[world.rng.randrange(len(pool))]
    pid = world.mint_phantom_id(believed)
    revealed = SceneObject(id=pid, category=reveal_cat, attributes=reveal_attrs, location=pos, provenance="object",
                           parent_id=receptacle_id)
    world.phantoms[pid] = PhantomRecord(believed, revealed)
    return replace(revealed, category=believed, attributes=frozenset(), provenance="local")


def _merge_into_belief(belief: Belief, lmap: LocalMap) -> None:
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
        )
    # objects previously believed rooted here but gone from the fresh scan
    for oid, b in list(belief.objects.items()):
        if oid in current_ids or b.is_receptacle or oid == belief.holding:
            continue
        if b.parent_id and belief.root_of(b.parent_id) == lmap.receptacle_id:
            del belief.objects[oid]
    belief.touch()


# --- object-level inspection ------------------------------------------------------------


def report_observation(world: World, belief: Belief, target: SceneObject) -> Observation:
    """Close-up of one object and its non-held neighbours within the
    close-up radius.

    Close-ups are truthful: real objects report their ground attributes, and
    phantoms are revealed as whatever actually occupies their believed spot
    (unless p_closeup_error fires, preserving the wrong belief). Refuses a
    target that is no ground object or no longer sits at its believed
    location.
    """
    oid = target.id
    if oid in world.phantoms:
        p_error = world.config.noise.p_closeup_error
        if p_error > 0 and world.rng.random() < p_error:
            visible = [replace(target, provenance="object")]
        else:
            visible = [world.phantoms[oid].revealed]
    else:
        pos = world.position_of(oid) if oid in world.objects else None
        believed = target.location
        if pos is None or (pos[0] - believed[0]) ** 2 + (pos[1] - believed[1]) ** 2 > world.config.closeup_radius**2:
            raise Refused(TargetNotVisible("target_not_visible", f"{oid} no longer exists at its believed location"))
        visible = [_snapshot(world, oid, "object")]
        visible += _in_view(world, world.objects.keys() - {oid}, pos, world.config.closeup_radius)
    obs = Observation(kind="close_up", target=oid, visible=tuple(visible), captured_at_step=world.step_counter)
    _merge_closeup(belief, obs)
    return obs


def _merge_closeup(belief: Belief, obs: Observation) -> None:
    for o in obs.visible:
        prior = belief.objects.get(o.id)
        if prior is None:
            continue
        ruled_out = prior.ruled_out or (o.category != prior.category)
        belief.objects[o.id] = replace(
            prior, category=o.category, attributes=o.attributes, inspected=True, ruled_out=ruled_out
        )
        for m in belief.local_maps.values():
            m.items = [
                replace(i, category=o.category, attributes=o.attributes) if i.id == o.id else i
                for i in m.items
            ]
    belief.touch()
