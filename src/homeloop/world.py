"""Ground-truth household world.

Holds the authoritative scene state: furniture with rasterized footprints,
small objects with nested placements (an object can sit on furniture or on a
small receptacle such as a plate, which itself sits on furniture), the robot
pose, and a single seeded RNG stream that drives every stochastic outcome.

State transitions are physics-free: primitive actions succeed or fail by
Bernoulli draws from the noise model, and successful actions rewrite
placements directly. Identical config (including the seed) plus an identical
request sequence reproduces a bit-identical outcome sequence.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from .config import FurnitureSpec, ObjectSpec, WorldConfig, off_surface, surface_half_extents
from .config import parse_config, validate_config  # noqa: F401  (perfbench reads them here)
from .errors import Fault, PreconditionFault, Refused, TargetNotVisible
from .geometry import SIDES, Cell, OccupancyGrid, Pose, bresenham, polygon_centroid, side_of

if TYPE_CHECKING:
    from .perception import Observation, SceneObject

# Execution verbs mutate ground state and count toward step-wise accounting;
# perception verbs are handled by the perception layer and are never counted.
EXECUTION_VERBS = ("navigate", "grasp", "place")
PERCEPTION_VERBS = ("explore_global", "explore_local", "report_observation")
ALL_VERBS = EXECUTION_VERBS + PERCEPTION_VERBS


# --- Runtime state -------------------------------------------------------------


@dataclass
class GroundObject:
    """An object and where it rests. The held object is ``World.gripper``
    and rests on nothing."""

    spec: ObjectSpec
    on: Optional[str]  # the receptacle it rests on; None off a surface
    at: tuple[float, float]  # offset from that receptacle's anchor, or the floor position


@dataclass
class PhantomRecord:
    """Book-keeping for a hallucinated detection, keyed by its belief id in
    ``World.phantoms``: the category it was detected as, and what a close-up
    actually finds at its spot."""

    believed_category: str
    revealed: SceneObject


@dataclass
class ActionRequest:
    """One primitive API invocation, as routed by the skills layer."""

    verb: str
    target: Optional[str] = None  # belief reference (object/receptacle id) or mode
    location: Optional[tuple[str, tuple[float, float]]] = None  # place location form
    side: Optional[str] = None  # preferred approach side for navigate
    source: str = "planner"  # who issued it: the planner or a recovery level
    focus: Optional[tuple[float, float]] = None  # a point for navigate's approach cell to be nearest
    string_literal: bool = False  # the target came as a quoted string
    request_index: int = -1  # set by ``skills.dispatch``

    @property
    def receptacle(self) -> Optional[str]:
        """A place's receptacle: its location's, or else its target."""
        return self.location[0] if self.location is not None else self.target


@dataclass
class Feedback:
    """The answer to one request: a success flag, an optional typed fault, an
    optional observation, a one-line message for the planner dialogue and the
    details the trace and the verifier read."""

    request_index: int
    verb: str
    success: bool
    fault: Optional[Fault] = None
    observation: Optional[Observation] = None
    message: str = ""
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def counted(self) -> bool:
        return self.verb in EXECUTION_VERBS

    @property
    def moved(self) -> Optional[str]:
        """The object a place set down or dropped."""
        return self.details.get("placed") or self.details.get("dropped")

    def render(self) -> str:
        """One line for the planner dialogue."""
        status = "ok" if self.success else "FAILED"
        line = f"[{self.request_index}] {self.verb} -> {status}: {self.message}"
        if self.fault is not None:
            line += f" ({self.fault.kind})"
        return line


# --- Static scene geometry -------------------------------------------------------


class SceneGeometry:
    """What no trial changes about a scene: the rasterised grid, footprint
    masks on its layout, centroids, the cells reachable from the robot start,
    the approach tables (built on first use) and the first global sweep from
    each start cell (filled by ``perception.explore_global``).

    Every World of the same layout shares one, across threads too: the
    masks are immutable ints, and the lazily filled tables are pure
    functions of the layout, so a race at worst computes an entry twice."""

    def __init__(
        self,
        room: tuple[float, float],
        resolution: float,
        furniture: tuple[tuple[str, tuple[tuple[float, float], ...]], ...],
        start: tuple[float, float],
    ) -> None:
        self.grid = OccupancyGrid(room[0], room[1], resolution)
        self.footprint_cells: dict[str, int] = {}
        self.centroids: dict[str, tuple[float, float]] = {}
        for fid, footprint in furniture:
            self.footprint_cells[fid] = self.grid.rasterize_polygon(footprint)
            self.centroids[fid] = polygon_centroid(footprint)
        self.reachable = self.grid.flood_fill(self.grid.cell_of(*start))
        self._approach: dict[str, dict[Optional[str], tuple[Cell, ...]]] = {}
        # (start cell, sensing radius) -> (explored mask, end position), the
        # end position None when the robot never moved
        self.first_sweeps: dict[tuple[Cell, float], tuple[int, Optional[tuple[float, float]]]] = {}

    def approach_cells(self, furniture_id: str, side: Optional[str] = None) -> tuple[Cell, ...]:
        """The furniture's approach cells, all of them or those on one side."""
        table = self._approach.get(furniture_id)
        if table is None:
            table = self._approach[furniture_id] = self._approach_table(furniture_id)
        return table[side]

    def _approach_table(self, furniture_id: str) -> dict[Optional[str], tuple[Cell, ...]]:
        """Reachable free cells adjacent to the footprint, sorted by (cx, cy),
        keyed by None (all of them) and by the side of the footprint's
        centroid each cell's center lies on."""
        near = self.grid.adjacent_free_cells(self.footprint_cells[furniture_id]) & self.reachable
        cells = tuple(self.grid.packed.iter_cells(near))
        centroid = self.centroids[furniture_id]
        sides = [side_of(centroid, self.grid.center_of(cell)) for cell in cells]
        table: dict[Optional[str], tuple[Cell, ...]] = {
            side: tuple(cell for cell, s in zip(cells, sides) if s == side) for side in SIDES
        }
        table[None] = cells
        return table


# Layouts kept; a stream of never-repeating scenes (generated layouts) then
# costs at most this many geometries.
geometry_cache = functools.lru_cache(maxsize=16)(SceneGeometry)


def scene_geometry(config: WorldConfig) -> SceneGeometry:
    """The shared geometry of the config's layout, keyed on content: room,
    resolution, each furniture's id and footprint, and the robot start. Every
    ``vary_config`` draw of a scene, and every scene with the same layout,
    gets the same instance."""
    return geometry_cache(
        tuple(config.room),
        config.grid_resolution,
        tuple((f.id, tuple(map(tuple, f.footprint))) for f in config.furniture),
        (config.robot_start.x, config.robot_start.y),
    )


class World:
    """One trial's ground truth. Single-writer: a trial owns its World.

    Furniture never moves, so everything static about the scene (grid,
    footprint masks, centroids, reachability, approach cells and the first
    sweep) lives on a ``SceneGeometry`` that every trial of the same layout
    shares; the World holds the state a trial mutates and the receptacles'
    half extents (``surface_half_extents``), which depend on the objects.
    ``config`` is one that ``validate_config`` passed, or a ``vary_config``
    draw of one: the World checks nothing again."""

    def __init__(self, config: WorldConfig) -> None:
        self.config = config
        self.rng = random.Random(config.noise.rng_seed)
        self.geometry = scene_geometry(config)
        self.grid = self.geometry.grid
        self.furniture: dict[str, FurnitureSpec] = {f.id: f for f in config.furniture}
        self.footprint_cells = self.geometry.footprint_cells
        self.centroids = self.geometry.centroids
        self.half_extents = surface_half_extents(config)  # of the receptacles, by id
        self.reachable = self.geometry.reachable

        self.objects: dict[str, GroundObject] = {
            s.id: GroundObject(s, s.on, s.offset if s.on is not None else s.floor)  # type: ignore[arg-type]
            for s in config.objects
        }

        self.robot = Pose(config.robot_start.x, config.robot_start.y, config.robot_start.heading)
        self.gripper: Optional[str] = None
        self.step_counter = 0
        self.receptacle_versions = dict.fromkeys(self.half_extents, 0)
        self.phantoms: dict[str, PhantomRecord] = {}

    # -- geometry ----------------------------------------------------------------

    def root_furniture_of(self, rid: str) -> Optional[str]:
        """Furniture id at the bottom of the (possibly nested) chain of "on"
        placements from ``rid``, or None when the chain ends off furniture (on
        the floor or in the gripper). No object id names furniture.
        Validation admits no cycle, and no action can close one: a loaded
        receptacle cannot be grasped."""
        current: Optional[str] = rid
        while current not in self.furniture:
            current = self.objects[current].on  # type: ignore[index]
            if current is None:
                return None
        return current

    def _surface_root(self, rid: str, verb: str) -> str:
        """``root_furniture_of(rid)``, the furniture a hand must reach to
        ``verb`` on ``rid``; refuses when the chain ends off furniture (a
        small receptacle on the floor) or the robot is not next to it."""
        root = self.root_furniture_of(rid)
        if root is None:
            fault = PreconditionFault("bad_argument", f"{rid} is not resting on a surface")
            raise Refused(fault, f"{verb} failed: receptacle not on a surface")
        if not self.robot_adjacent_to(root):
            raise Refused(
                PreconditionFault("out_of_reach", f"not adjacent to {root}"), f"{verb} failed: target out of reach"
            )
        return root

    def anchor_of(self, rid: str) -> tuple[float, float]:
        """Surface anchor: furniture footprint centroid, or the small
        receptacle's own position."""
        if rid in self.furniture:
            return self.centroids[rid]
        return self.position_of(rid)

    def position_of(self, oid: str) -> tuple[float, float]:
        obj = self.objects[oid]
        if obj.on is not None:
            ax, ay = self.anchor_of(obj.on)
            return (ax + obj.at[0], ay + obj.at[1])
        if oid == self.gripper:
            return (self.robot.x, self.robot.y)
        return obj.at

    def objects_rooted_at(self, furniture_id: str) -> list[str]:
        """Object ids whose placement chain bottoms out at the furniture."""
        return sorted(oid for oid in self.objects if self.root_furniture_of(oid) == furniture_id)

    def objects_directly_on(self, rid: str) -> list[str]:
        return sorted(oid for oid, obj in self.objects.items() if obj.on == rid)

    def robot_cell(self) -> Cell:
        return self.grid.cell_of(self.robot.x, self.robot.y)

    def robot_adjacent_to(self, furniture_id: str) -> bool:
        """Whether the furniture's footprint meets the robot's 3x3 block of
        cells, whose guard bits no footprint holds (its own cell is free)."""
        packed = self.grid.packed
        return bool(self.footprint_cells.get(furniture_id, 0) & packed.dilate8(packed.bit(self.robot_cell())))

    def robot_side_of(self, furniture_id: str) -> str:
        return side_of(self.centroids[furniture_id], (self.robot.x, self.robot.y))

    def within_reach(self, pos: tuple[float, float]) -> bool:
        return self.robot.distance_to(pos) <= self.config.arm_reach

    # -- approach selection --------------------------------------------------------

    def approach_cells(self, furniture_id: str, side: Optional[str] = None) -> tuple[Cell, ...]:
        """The furniture's approach cells, all of them or those on one side."""
        return self.geometry.approach_cells(furniture_id, side)

    def select_approach(
        self,
        furniture_id: str,
        side: Optional[str] = None,
        focus: Optional[tuple[float, float]] = None,
    ) -> Optional[Cell]:
        """Nearest free adjacent cell along the robot-to-centroid line; first
        line hit wins, otherwise nearest by Euclidean distance with (cx, cy)
        lexicographic tie-breaking. A ``focus`` point (e.g. the object the
        robot wants to reach) overrides the line rule and picks the candidate
        closest to that point instead."""
        candidates = self.approach_cells(furniture_id, side)
        if not candidates:
            return None
        if focus is None:
            members = set(candidates)
            centroid_cell = self.grid.cell_of(*self.centroids[furniture_id])
            for cell in bresenham(self.robot_cell(), centroid_cell):
                if cell in members:
                    return cell
        px, py = focus if focus is not None else (self.robot.x, self.robot.y)

        def key(cell: Cell) -> tuple[float, int, int]:
            x, y = self.grid.center_of(cell)
            return ((x - px) ** 2 + (y - py) ** 2, cell[0], cell[1])

        return min(candidates, key=key)

    # -- hashing / determinism -------------------------------------------------------

    def state_digest(self) -> str:
        import hashlib  # loads OpenSSL's libcrypto, which no trial needs

        doc: dict[str, Any] = {
            "robot": [repr(self.robot.x), repr(self.robot.y), repr(self.robot.heading)],
            "gripper": self.gripper,
            "step": self.step_counter,
            "placements": {},
        }
        for oid in sorted(self.objects):
            obj = self.objects[oid]
            kind = "on" if obj.on is not None else "gripper" if oid == self.gripper else "floor"
            offset = obj.at if kind == "on" else (0.0, 0.0)
            floor_pos = obj.at if kind == "floor" else (0.0, 0.0)
            doc["placements"][oid] = [
                kind,
                obj.on,
                [repr(offset[0]), repr(offset[1])],
                [repr(floor_pos[0]), repr(floor_pos[1])],
            ]
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def _bump(self, rid: Optional[str]) -> None:
        if rid is not None and rid in self.receptacle_versions:
            self.receptacle_versions[rid] += 1
            # moving the contents of a nested receptacle also disturbs the root
            root = self.root_furniture_of(rid)
            if root is not None and root != rid:
                self.receptacle_versions[root] += 1

    # -- phantom registry --------------------------------------------------------------

    def mint_phantom_id(self, category: str) -> str:
        """The first ``<category>_<n>`` that names no furniture, object or phantom."""
        taken = (self.furniture, self.objects, self.phantoms)
        n = 0
        while any(f"{category}_{n}" in ids for ids in taken):
            n += 1
        return f"{category}_{n}"

    # -- action dynamics ----------------------------------------------------------------

    def apply_action(self, request: ActionRequest) -> Feedback:
        """Execute one execution-verb request against ground truth and answer
        with the request's Feedback.

        A violated precondition raises ``Refused`` with its typed fault
        (never sampled) to the caller. Everything else draws success from the
        noise model.
        """
        self.step_counter += 1
        handler = {
            "navigate": self._do_navigate,
            "grasp": self._do_grasp,
            "place": self._do_place,
        }.get(request.verb)
        if handler is None:
            raise ValueError(f"apply_action only handles execution verbs, got {request.verb!r}")
        success, message, details = handler(request)
        if success and self.config.noise.p_flag_error > 0:
            if self.rng.random() < self.config.noise.p_flag_error:
                success, message = False, message + " (reported)"
                details["flag_flipped"] = True
        return Feedback(request.request_index, request.verb, success, message=message, details=details)

    def _do_navigate(self, request: ActionRequest):
        target = request.target
        if target not in self.furniture:
            fault = PreconditionFault("unknown_reference", f"navigate target {target!r} is not furniture")
            raise Refused(fault, f"navigate({target}) -> unknown furniture")
        approach = self.select_approach(target, request.side, request.focus)
        if approach is None:
            return False, "navigation failed (no reachable approach)", {"unreachable": True}
        if self.rng.random() < self.config.noise.p_nav_fail:
            return False, "navigation failed", {}
        x, y = self.grid.center_of(approach)
        cx, cy = self.centroids[target]
        self.robot = Pose(x, y, math.atan2(cy - y, cx - x))
        side = self.robot_side_of(target)
        return True, f"arrived at {target} ({side} side)", {"approach_side": side}

    def _grasp_fail_probability(self, root: Optional[str]) -> float:
        """The grasp failure chance of an object resting on furniture ``root``
        (None: off furniture), scaled by the side the robot stands on."""
        p = self.config.noise.p_grasp_fail
        if root is None:
            return p
        mult = self.furniture[root].grasp_difficulty.get(self.robot_side_of(root), 1.0)
        return min(1.0, p * mult)

    def _do_grasp(self, request: ActionRequest):
        target = request.target
        if self.gripper is not None:
            raise Refused(
                PreconditionFault("gripper_full", f"grasp while gripper holds {self.gripper}"),
                "grasp failed: gripper full",
            )
        if target not in self.objects:
            raise Refused(
                TargetNotVisible("target_not_visible", f"{target} not found at its believed location"),
                f"grasp({target}) -> target not visible",
            )
        obj = self.objects[target]
        parent = obj.on
        root = self._surface_root(parent, "grasp") if parent is not None else None
        if not self.within_reach(self.position_of(target)):
            raise Refused(
                PreconditionFault("out_of_reach", f"{target} beyond arm reach"), "grasp failed: target out of reach"
            )
        if self.rng.random() < self._grasp_fail_probability(root):
            shifted = False
            if parent is not None and self.rng.random() < self.config.noise.p_object_shift_on_fail:
                dx = (self.rng.random() - 0.5) * 0.1
                dy = (self.rng.random() - 0.5) * 0.1
                ox, oy = obj.at
                half_w, half_h = self.half_extents[parent]
                obj.at = (
                    max(-half_w, min(half_w, ox + dx)),
                    max(-half_h, min(half_h, oy + dy)),
                )
                shifted = True
                self._bump(parent)
            return False, "grasp failed", {"shifted": shifted}
        if obj.spec.receptacle and self.objects_directly_on(target):
            raise Refused(
                PreconditionFault("bad_argument", f"{target} is loaded; unload it first"),
                "grasp failed: receptacle not empty",
            )
        obj.on = None
        self.gripper = target
        self._bump(parent)
        return True, f"grasped {target}", {"holding": target}

    def free_offset_on(self, rid: str) -> Optional[tuple[float, float]]:
        """First free, reachable surface offset scanning row-major at 5 cm
        pitch (low y, then low x, first): at least ``margin`` inside the
        surface, within arm reach and at least 0.1 m from every object
        directly on ``rid``.

        A row is skipped whole when it is off the surface or farther from the
        robot in y than the reach, since ``hypot(dx, dy) >= |dy|``. A row
        tests only the objects less than 0.1 m from it in y: a squared
        distance with one term ``>= 0.1**2`` is never below it."""
        half_w, half_h = self.half_extents[rid]
        margin = pitch = 0.05
        ax, ay = self.anchor_of(rid)
        rx, ry = self.robot.x, self.robot.y
        reach = self.config.arm_reach
        occupied = [self.position_of(o) for o in self.objects_directly_on(rid)]
        ny = max(1, int((2 * (half_h - margin)) / pitch))
        nx = max(1, int((2 * (half_w - margin)) / pitch))
        # (offset x, position x) of each column that lies on the surface
        columns = [
            (ox, ax + ox)
            for ox in (-half_w + margin + ix * pitch for ix in range(nx + 1))
            if abs(ox) <= half_w - margin
        ]
        for iy in range(ny + 1):
            oy = -half_h + margin + iy * pitch
            py = ay + oy
            if abs(oy) > half_h - margin or abs(ry - py) > reach:
                continue
            near = [(qx, (py - qy) ** 2) for qx, qy in occupied if (py - qy) ** 2 < 0.1**2]
            for ox, px in columns:
                if math.hypot(rx - px, ry - py) > reach:
                    continue
                for qx, dy2 in near:
                    if (px - qx) ** 2 + dy2 < 0.1**2:
                        break
                else:
                    return (ox, oy)
        return None

    def _do_place(self, request: ActionRequest):
        held = self.gripper
        if held is None:
            raise Refused(
                PreconditionFault("place_without_grasp", "place without prior grasping"),
                "place failed: place without prior grasping",
            )
        rid = request.receptacle
        offset = request.location[1] if request.location is not None else None
        if rid not in self.half_extents:
            raise Refused(
                PreconditionFault("unknown_reference", f"place target {rid!r} is not a receptacle"),
                "place failed: unknown receptacle",
            )
        root = self._surface_root(rid, "place")
        if offset is not None:
            anchor = self.anchor_of(rid)
            pos = (anchor[0] + offset[0], anchor[1] + offset[1])
            if off_surface(offset, self.half_extents[rid]):
                raise Refused(
                    PreconditionFault("bad_argument", f"offset {offset} outside {rid} surface"),
                    "place failed: offset outside surface",
                )
            if not self.within_reach(pos):
                raise Refused(
                    PreconditionFault("out_of_reach", f"location on {rid} beyond arm reach"),
                    "place failed: target out of reach",
                )
            chosen = offset
        else:
            chosen = self.free_offset_on(rid)
            if chosen is None:
                raise Refused(
                    PreconditionFault("no_free_space", f"no reachable free spot on {rid}"),
                    "place failed: no free space on target",
                )
        if self.rng.random() < self.config.noise.p_place_fail:
            drop = (self.robot.x + 0.2, self.robot.y)
            self.objects[held].on, self.objects[held].at = None, drop
            self.gripper = None
            self._bump(root)
            return False, "place failed", {"dropped": held}
        self.objects[held].on, self.objects[held].at = rid, chosen
        self.gripper = None
        self._bump(rid)
        return True, f"placed {held} on {rid}", {"placed": held, "on": rid, "offset": list(chosen)}

