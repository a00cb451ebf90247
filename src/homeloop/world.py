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

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .errors import ConfigError, Fault, PreconditionFault, TargetNotVisible
from .geometry import (
    Cell,
    OccupancyGrid,
    Pose,
    bresenham,
    polygon_centroid,
    polygon_half_extent,
    polygons_overlap,
    side_of,
)

SIDES = ("north", "east", "south", "west")

# Execution verbs mutate ground state and count toward step-wise accounting;
# perception verbs are handled by the perception layer and are never counted.
EXECUTION_VERBS = ("navigate", "grasp", "place")
PERCEPTION_VERBS = ("explore_global", "explore_local", "report_observation")
ALL_VERBS = EXECUTION_VERBS + PERCEPTION_VERBS


# --- Config types ------------------------------------------------------------


@dataclass
class FurnitureSpec:
    id: str
    category: str
    footprint: list[tuple[float, float]]
    surface_height: Optional[str] = None  # None: not a receptacle (e.g. wall)
    grasp_difficulty: dict[str, float] = field(default_factory=dict)  # per side

    @property
    def is_receptacle(self) -> bool:
        return self.surface_height is not None


@dataclass
class ObjectSpec:
    id: str
    category: str
    attributes: list[str] = field(default_factory=list)
    on: Optional[str] = None  # receptacle id
    offset: tuple[float, float] = (0.0, 0.0)  # relative to receptacle anchor
    floor: Optional[tuple[float, float]] = None  # alternative to `on`
    receptacle: bool = False  # small receptacle (plate, box)
    extent: tuple[float, float] = (0.0, 0.0)  # placement surface if receptacle


@dataclass
class NoiseModel:
    """Outcome-level failure injection. All fields are probabilities except
    the seed. ``p_flag_error`` flips the reported success flag of an execution
    action without touching ground truth (source of visual-feedback errors);
    ``p_closeup_error`` lets a close-up fail to unmask a false positive."""

    p_grasp_fail: float = 0.15
    p_place_fail: float = 0.05
    p_nav_fail: float = 0.02
    p_false_positive: float = 0.05
    p_missed_detection: float = 0.03
    p_object_shift_on_fail: float = 0.5
    p_flag_error: float = 0.0
    p_closeup_error: float = 0.0
    rng_seed: int = 0

    PROB_FIELDS = (
        "p_grasp_fail",
        "p_place_fail",
        "p_nav_fail",
        "p_false_positive",
        "p_missed_detection",
        "p_object_shift_on_fail",
        "p_flag_error",
        "p_closeup_error",
    )

    def validate(self, path: str = "noise") -> None:
        for name in self.PROB_FIELDS:
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigError(f"{path}.{name}", f"probability {value} outside [0, 1]")


@dataclass
class VariationSpec:
    """Per-trial scene variation, driven by the trial seed.

    shuffle_offsets: re-draw each object's surface offset.
    receptacle_pool: categories whose members may be re-dealt across the
        listed receptacles.
    extra_count_range: extra clones of the first object of a category,
        inclusive range; clones get ids ``<category>_vN``.
    """

    shuffle_offsets: bool = False
    receptacle_pool: dict[str, list[str]] = field(default_factory=dict)
    extra_count_range: dict[str, tuple[int, int]] = field(default_factory=dict)


@dataclass
class WorldConfig:
    name: str
    room: tuple[float, float]  # width, height in meters
    furniture: list[FurnitureSpec]
    objects: list[ObjectSpec]
    robot_start: Pose
    noise: NoiseModel = field(default_factory=NoiseModel)
    grid_resolution: float = 0.1
    arm_reach: float = 1.0
    sensing_radius: float = 3.0
    view_radius: float = 1.5
    closeup_radius: float = 0.3
    variation: Optional[VariationSpec] = None


# --- Config parsing -----------------------------------------------------------


def _req(raw: dict, key: str, path: str) -> Any:
    if key not in raw:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return raw[key]


def parse_config(raw: dict) -> WorldConfig:
    """Build a WorldConfig from a plain JSON document, reporting the field
    path of the first violation."""
    room_raw = _req(raw, "room", "config")
    room = (float(_req(room_raw, "width", "room")), float(_req(room_raw, "height", "room")))

    furniture = []
    for i, f in enumerate(raw.get("furniture", [])):
        path = f"furniture[{i}]"
        footprint = [(float(p[0]), float(p[1])) for p in _req(f, "footprint", path)]
        if len(footprint) < 3:
            raise ConfigError(f"{path}.footprint", "needs at least 3 vertices")
        furniture.append(
            FurnitureSpec(
                id=str(_req(f, "id", path)),
                category=str(_req(f, "category", path)),
                footprint=footprint,
                surface_height=f.get("surface_height"),
                grasp_difficulty={str(k): float(v) for k, v in f.get("grasp_difficulty", {}).items()},
            )
        )

    objects = []
    for i, o in enumerate(raw.get("objects", [])):
        path = f"objects[{i}]"
        floor = o.get("floor")
        objects.append(
            ObjectSpec(
                id=str(_req(o, "id", path)),
                category=str(_req(o, "category", path)),
                attributes=[str(a) for a in o.get("attributes", [])],
                on=o.get("on"),
                offset=tuple(float(v) for v in o.get("offset", (0.0, 0.0))),
                floor=tuple(float(v) for v in floor) if floor is not None else None,
                receptacle=bool(o.get("receptacle", False)),
                extent=tuple(float(v) for v in o.get("extent", (0.0, 0.0))),
            )
        )

    start_raw = _req(raw, "robot_start", "config")
    robot_start = Pose(
        float(_req(start_raw, "x", "robot_start")),
        float(_req(start_raw, "y", "robot_start")),
        float(start_raw.get("heading", 0.0)),
    )

    noise = NoiseModel(**raw.get("noise", {}))

    variation = None
    if "variation" in raw:
        v = raw["variation"]
        variation = VariationSpec(
            shuffle_offsets=bool(v.get("shuffle_offsets", False)),
            receptacle_pool={k: list(map(str, vs)) for k, vs in v.get("receptacle_pool", {}).items()},
            extra_count_range={
                k: (int(r[0]), int(r[1])) for k, r in v.get("extra_count_range", {}).items()
            },
        )

    return WorldConfig(
        name=str(raw.get("name", "scene")),
        room=room,
        furniture=furniture,
        objects=objects,
        robot_start=robot_start,
        noise=noise,
        grid_resolution=float(raw.get("grid_resolution", 0.1)),
        arm_reach=float(raw.get("arm_reach", 1.0)),
        sensing_radius=float(raw.get("sensing_radius", 3.0)),
        view_radius=float(raw.get("view_radius", 1.5)),
        closeup_radius=float(raw.get("closeup_radius", 0.3)),
        variation=variation,
    )


def validate_config(config: WorldConfig) -> None:
    if config.grid_resolution <= 0:
        raise ConfigError("grid_resolution", "must be > 0")
    w, h = config.room
    if w <= 0 or h <= 0:
        raise ConfigError("room", "width and height must be > 0")
    config.noise.validate()

    seen_f: set[str] = set()
    for i, f in enumerate(config.furniture):
        path = f"furniture[{i}]"
        if f.id in seen_f:
            raise ConfigError(f"{path}.id", f"duplicate furniture id {f.id!r}")
        seen_f.add(f.id)
        for j, (x, y) in enumerate(f.footprint):
            if not (0.0 <= x <= w and 0.0 <= y <= h):
                raise ConfigError(f"{path}.footprint[{j}]", "vertex outside room bounds")
        for side, mult in f.grasp_difficulty.items():
            if side not in SIDES:
                raise ConfigError(f"{path}.grasp_difficulty", f"unknown side {side!r}")
            if mult < 0:
                raise ConfigError(f"{path}.grasp_difficulty.{side}", "multiplier must be >= 0")
    for i in range(len(config.furniture)):
        for j in range(i + 1, len(config.furniture)):
            if polygons_overlap(config.furniture[i].footprint, config.furniture[j].footprint):
                raise ConfigError(
                    f"furniture[{j}].footprint",
                    f"furniture overlap with {config.furniture[i].id!r}",
                )

    receptacle_ids = {f.id for f in config.furniture if f.is_receptacle}
    receptacle_ids |= {o.id for o in config.objects if o.receptacle}
    seen_o: set[str] = set()
    for i, o in enumerate(config.objects):
        path = f"objects[{i}]"
        if o.id in seen_o or o.id in seen_f:
            raise ConfigError(f"{path}.id", f"duplicate object id {o.id!r}")
        seen_o.add(o.id)
        if (o.on is None) == (o.floor is None):
            raise ConfigError(path, "exactly one of 'on' or 'floor' is required")
        if o.on is not None and o.on not in receptacle_ids:
            raise ConfigError(f"{path}.on", f"unknown receptacle id {o.on!r}")
        if o.receptacle and (o.extent[0] <= 0 or o.extent[1] <= 0):
            raise ConfigError(f"{path}.extent", "receptacle objects need a positive extent")


def load_config_file(path: str) -> WorldConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    config = parse_config(raw)
    validate_config(config)
    return config


# --- Runtime state -------------------------------------------------------------


@dataclass
class Placement:
    """Where an object currently is. Exactly one of the three forms."""

    kind: str  # "on" | "gripper" | "floor"
    receptacle: Optional[str] = None
    offset: tuple[float, float] = (0.0, 0.0)
    floor_pos: tuple[float, float] = (0.0, 0.0)

    @staticmethod
    def on(receptacle: str, offset: tuple[float, float]) -> "Placement":
        return Placement(kind="on", receptacle=receptacle, offset=offset)

    @staticmethod
    def gripper() -> "Placement":
        return Placement(kind="gripper")

    @staticmethod
    def on_floor(pos: tuple[float, float]) -> "Placement":
        return Placement(kind="floor", floor_pos=pos)


@dataclass
class GroundObject:
    spec: ObjectSpec
    placement: Placement


@dataclass
class PhantomRecord:
    """Book-keeping for a hallucinated detection: the belief id, where it was
    believed to be, and what a close-up actually finds there."""

    phantom_id: str
    believed_category: str
    reveal_category: str
    reveal_attributes: tuple[str, ...]
    position: tuple[float, float]
    root_furniture: str
    created_step: int


@dataclass
class ActionRequest:
    """One primitive API invocation, as routed by the skills layer."""

    verb: str
    target: Optional[str] = None  # belief reference (object/receptacle id) or mode
    location: Optional[tuple[str, tuple[float, float]]] = None  # place location form
    side: Optional[str] = None  # preferred approach side for navigate
    params: dict[str, Any] = field(default_factory=dict)
    request_index: int = -1


@dataclass
class GroundOutcome:
    success: bool
    fault: Optional[Fault]
    message: str
    details: dict[str, Any] = field(default_factory=dict)


class World:
    """One trial's ground truth. Single-writer: a trial owns its World.

    Furniture never moves, so its geometry is built once here: footprint
    cells, centroids, half extents and the approach table."""

    def __init__(self, config: WorldConfig) -> None:
        validate_config(config)
        self.config = config
        self.rng = random.Random(config.noise.rng_seed)
        self.grid = OccupancyGrid(config.room[0], config.room[1], config.grid_resolution)

        self.furniture: dict[str, FurnitureSpec] = {}
        self.footprint_cells: dict[str, set[Cell]] = {}
        self.centroids: dict[str, tuple[float, float]] = {}
        self.half_extents: dict[str, tuple[float, float]] = {}
        for f in config.furniture:
            self.furniture[f.id] = f
            self.footprint_cells[f.id] = self.grid.rasterize_polygon(f.footprint)
            self.centroids[f.id] = polygon_centroid(f.footprint)
            self.half_extents[f.id] = polygon_half_extent(f.footprint)

        start_cell = self.grid.cell_of(config.robot_start.x, config.robot_start.y)
        if not self.grid.is_free(start_cell):
            raise ConfigError("robot_start", "inside a furniture footprint")

        self.objects: dict[str, GroundObject] = {}
        for spec in config.objects:
            if spec.on is not None:
                placement = Placement.on(spec.on, spec.offset)
            else:
                placement = Placement.on_floor(spec.floor)  # type: ignore[arg-type]
            self.objects[spec.id] = GroundObject(spec=spec, placement=placement)
        self._check_offsets_fit()

        self.robot = Pose(config.robot_start.x, config.robot_start.y, config.robot_start.heading)
        self.gripper: Optional[str] = None
        self.step_counter = 0
        self.receptacle_versions: dict[str, int] = {f.id: 0 for f in config.furniture}
        for spec in config.objects:
            if spec.receptacle:
                self.receptacle_versions[spec.id] = 0
        self.phantoms: dict[str, PhantomRecord] = {}
        self._minted_ids: set[str] = set()

        self.reachable = self.grid.flood_fill(start_cell)
        self._approach = {fid: self._approach_table(fid) for fid in self.furniture}

    # -- invariant helper -------------------------------------------------------

    def _check_offsets_fit(self) -> None:
        for oid, obj in self.objects.items():
            if obj.placement.kind != "on":
                continue
            rid = obj.placement.receptacle
            half_w, half_h = self._surface_half_extent(rid)
            ox, oy = obj.placement.offset
            if abs(ox) > half_w or abs(oy) > half_h:
                raise ConfigError(f"objects.{oid}.offset", f"outside surface of {rid!r}")

    # -- geometry ----------------------------------------------------------------

    def is_receptacle(self, rid: str) -> bool:
        if rid in self.furniture:
            return self.furniture[rid].is_receptacle
        obj = self.objects.get(rid)
        return obj is not None and obj.spec.receptacle

    def root_furniture_of(self, rid: str) -> str:
        """Furniture id at the bottom of a (possibly nested) receptacle chain."""
        seen = set()
        current = rid
        while current not in self.furniture:
            if current in seen or current not in self.objects:
                raise KeyError(f"unresolvable receptacle chain at {rid!r}")
            seen.add(current)
            placement = self.objects[current].placement
            if placement.kind == "on":
                current = placement.receptacle  # type: ignore[assignment]
            else:
                raise KeyError(f"receptacle {current!r} is not resting on anything")
        return current

    def _resting_root(self, rid: str, verb: str):
        """``(root_furniture_of(rid), None)``, or ``(None, fault result)`` when
        the chain ends off furniture (a small receptacle on the floor)."""
        try:
            return self.root_furniture_of(rid), None
        except KeyError:
            fault = PreconditionFault("bad_argument", f"{rid} is not resting on a surface")
            return None, (False, fault, f"{verb} failed: receptacle not on a surface", {})

    def anchor_of(self, rid: str) -> tuple[float, float]:
        """Surface anchor: furniture footprint centroid, or the small
        receptacle's own position."""
        if rid in self.furniture:
            return self.centroids[rid]
        return self.position_of(rid)

    def _surface_half_extent(self, rid: str) -> tuple[float, float]:
        if rid in self.furniture:
            return self.half_extents[rid]
        extent = self.objects[rid].spec.extent
        return extent[0] / 2.0, extent[1] / 2.0

    def position_of(self, oid: str) -> tuple[float, float]:
        obj = self.objects[oid]
        p = obj.placement
        if p.kind == "floor":
            return p.floor_pos
        if p.kind == "gripper":
            return (self.robot.x, self.robot.y)
        ax, ay = self.anchor_of(p.receptacle)  # type: ignore[arg-type]
        return (ax + p.offset[0], ay + p.offset[1])

    def objects_rooted_at(self, furniture_id: str) -> list[str]:
        """Object ids whose placement chain bottoms out at the furniture."""
        out = []
        for oid, obj in self.objects.items():
            if obj.placement.kind != "on":
                continue
            try:
                if self.root_furniture_of(obj.placement.receptacle) == furniture_id:  # type: ignore[arg-type]
                    out.append(oid)
            except KeyError:
                continue
        return sorted(out)

    def objects_directly_on(self, rid: str) -> list[str]:
        return sorted(
            oid
            for oid, obj in self.objects.items()
            if obj.placement.kind == "on" and obj.placement.receptacle == rid
        )

    def robot_cell(self) -> Cell:
        return self.grid.cell_of(self.robot.x, self.robot.y)

    def robot_adjacent_to(self, furniture_id: str) -> bool:
        cells = self.footprint_cells.get(furniture_id)
        if not cells:
            return False
        rc = self.robot_cell()
        for n in self.grid.neighbors8(rc):
            if n in cells:
                return True
        return rc in cells  # degenerate, should not happen

    def robot_side_of(self, furniture_id: str) -> str:
        return side_of(self.centroids[furniture_id], (self.robot.x, self.robot.y))

    def within_reach(self, pos: tuple[float, float]) -> bool:
        return self.robot.distance_to(pos) <= self.config.arm_reach

    # -- approach selection --------------------------------------------------------

    def _approach_table(self, furniture_id: str) -> dict[Optional[str], tuple[Cell, ...]]:
        """Reachable free cells adjacent to the footprint, sorted by (cx, cy),
        keyed by None (all of them) and by the side of the footprint's
        centroid each cell's center lies on."""
        near = self.grid.adjacent_free_cells(self.footprint_cells[furniture_id]) & self.reachable
        # transposed, nonzero yields cells in (cx, cy) order
        cells = tuple((int(cx), int(cy)) for cx, cy in zip(*np.nonzero(near.T)))
        centroid = self.centroids[furniture_id]
        sides = [side_of(centroid, self.grid.center_of(cell)) for cell in cells]
        table: dict[Optional[str], tuple[Cell, ...]] = {
            side: tuple(cell for cell, s in zip(cells, sides) if s == side) for side in SIDES
        }
        table[None] = cells
        return table

    def approach_cells(self, furniture_id: str, side: Optional[str] = None) -> tuple[Cell, ...]:
        """The furniture's approach cells, all of them or those on one side."""
        return self._approach[furniture_id][side]

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
        doc: dict[str, Any] = {
            "robot": [repr(self.robot.x), repr(self.robot.y), repr(self.robot.heading)],
            "gripper": self.gripper,
            "step": self.step_counter,
            "placements": {},
        }
        for oid in sorted(self.objects):
            p = self.objects[oid].placement
            doc["placements"][oid] = [
                p.kind,
                p.receptacle,
                [repr(p.offset[0]), repr(p.offset[1])],
                [repr(p.floor_pos[0]), repr(p.floor_pos[1])],
            ]
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

    def _bump(self, rid: Optional[str]) -> None:
        if rid is not None and rid in self.receptacle_versions:
            self.receptacle_versions[rid] += 1
            # moving the contents of a nested receptacle also disturbs the root
            try:
                root = self.root_furniture_of(rid)
            except KeyError:
                return
            if root != rid:
                self.receptacle_versions[root] += 1

    # -- phantom registry --------------------------------------------------------------

    def mint_phantom_id(self, category: str, taken: set[str]) -> str:
        n = 0
        while True:
            candidate = f"{category}_{n}"
            if candidate not in self.objects and candidate not in taken and candidate not in self._minted_ids:
                self._minted_ids.add(candidate)
                return candidate
            n += 1

    def register_phantom(self, record: PhantomRecord) -> None:
        self.phantoms[record.phantom_id] = record

    # -- action dynamics ----------------------------------------------------------------

    def apply_action(self, request: ActionRequest) -> GroundOutcome:
        """Execute one execution-verb request against ground truth.

        Precondition violations come back as typed faults (never sampled);
        everything else draws success from the noise model.
        """
        self.step_counter += 1
        handler = {
            "navigate": self._do_navigate,
            "grasp": self._do_grasp,
            "place": self._do_place,
        }.get(request.verb)
        if handler is None:
            raise ValueError(f"apply_action only handles execution verbs, got {request.verb!r}")
        success, fault, message, details = handler(request)
        if success and self.config.noise.p_flag_error > 0:
            if self.rng.random() < self.config.noise.p_flag_error:
                success, message = False, message + " (reported)"
                details["flag_flipped"] = True
        return GroundOutcome(success=success, fault=fault, message=message, details=details)

    def _do_navigate(self, request: ActionRequest):
        target = request.target
        if target not in self.furniture:
            return (
                False,
                PreconditionFault("unknown_reference", f"navigate target {target!r} is not furniture"),
                f"navigate({target}) -> unknown furniture",
                {},
            )
        focus = request.params.get("focus")
        approach = self.select_approach(target, request.side, tuple(focus) if focus else None)
        if approach is None:
            return False, None, "navigation failed (no reachable approach)", {"unreachable": True}
        if self.rng.random() < self.config.noise.p_nav_fail:
            return False, None, "navigation failed", {}
        x, y = self.grid.center_of(approach)
        cx, cy = self.centroids[target]
        self.robot = Pose(x, y, math.atan2(cy - y, cx - x))
        side = self.robot_side_of(target)
        return True, None, f"arrived at {target} ({side} side)", {"approach_side": side}

    def _grasp_fail_probability(self, oid: str) -> float:
        p = self.config.noise.p_grasp_fail
        obj = self.objects[oid]
        if obj.placement.kind == "on":
            try:
                root = self.root_furniture_of(obj.placement.receptacle)  # type: ignore[arg-type]
            except KeyError:
                return p
            side = self.robot_side_of(root)
            mult = self.furniture[root].grasp_difficulty.get(side, 1.0)
            p = min(1.0, p * mult)
        return p

    def _do_grasp(self, request: ActionRequest):
        target = request.target
        if self.gripper is not None:
            return (
                False,
                PreconditionFault("gripper_full", f"grasp while gripper holds {self.gripper}"),
                "grasp failed: gripper full",
                {},
            )
        if target not in self.objects:
            return (
                False,
                TargetNotVisible("target_not_visible", f"{target} not found at its believed location"),
                f"grasp({target}) -> target not visible",
                {},
            )
        obj = self.objects[target]
        if obj.placement.kind == "gripper":
            return (
                False,
                PreconditionFault("gripper_full", f"{target} already in gripper"),
                "grasp failed: already holding it",
                {},
            )
        pos = self.position_of(target)
        if obj.placement.kind == "on":
            root, unresolved = self._resting_root(obj.placement.receptacle, "grasp")  # type: ignore[arg-type]
            if unresolved is not None:
                return unresolved
            if not self.robot_adjacent_to(root):
                return (
                    False,
                    PreconditionFault("out_of_reach", f"not adjacent to {root}"),
                    "grasp failed: target out of reach",
                    {},
                )
        if not self.within_reach(pos):
            return (
                False,
                PreconditionFault("out_of_reach", f"{target} beyond arm reach"),
                "grasp failed: target out of reach",
                {},
            )
        parent = obj.placement.receptacle if obj.placement.kind == "on" else None
        if self.rng.random() < self._grasp_fail_probability(target):
            shifted = False
            if obj.placement.kind == "on" and self.rng.random() < self.config.noise.p_object_shift_on_fail:
                dx = (self.rng.random() - 0.5) * 0.1
                dy = (self.rng.random() - 0.5) * 0.1
                ox, oy = obj.placement.offset
                half_w, half_h = self._surface_half_extent(parent)  # type: ignore[arg-type]
                obj.placement.offset = (
                    max(-half_w, min(half_w, ox + dx)),
                    max(-half_h, min(half_h, oy + dy)),
                )
                shifted = True
                self._bump(parent)
            return False, None, "grasp failed", {"shifted": shifted}
        if obj.spec.receptacle and self.objects_directly_on(target):
            return (
                False,
                PreconditionFault("bad_argument", f"{target} is loaded; unload it first"),
                "grasp failed: receptacle not empty",
                {},
            )
        obj.placement = Placement.gripper()
        self.gripper = target
        self._bump(parent)
        return True, None, f"grasped {target}", {"holding": target}

    def free_offset_on(self, rid: str, prefer: Optional[tuple[float, float]] = None) -> Optional[tuple[float, float]]:
        """First free, reachable surface offset scanning row-major at 5 cm
        pitch (low y, then low x, first). ``prefer`` short-circuits the scan
        when the given offset is itself free and reachable."""
        half_w, half_h = self._surface_half_extent(rid)
        margin = 0.05
        anchor = self.anchor_of(rid)
        occupied = [
            self.position_of(o)
            for o in self.objects_directly_on(rid)
        ]

        def usable(off: tuple[float, float]) -> bool:
            if abs(off[0]) > half_w - margin or abs(off[1]) > half_h - margin:
                return False
            pos = (anchor[0] + off[0], anchor[1] + off[1])
            if not self.within_reach(pos):
                return False
            return all((pos[0] - ox) ** 2 + (pos[1] - oy) ** 2 >= 0.1**2 for ox, oy in occupied)

        if prefer is not None and usable(prefer):
            return prefer
        pitch = 0.05
        ny = max(1, int((2 * (half_h - margin)) / pitch))
        nx = max(1, int((2 * (half_w - margin)) / pitch))
        for iy in range(ny + 1):
            for ix in range(nx + 1):
                off = (-half_w + margin + ix * pitch, -half_h + margin + iy * pitch)
                if usable(off):
                    return off
        return None

    def _do_place(self, request: ActionRequest):
        held = self.gripper
        if held is None:
            return (
                False,
                PreconditionFault("place_without_grasp", "place without prior grasping"),
                "place failed: place without prior grasping",
                {},
            )
        if request.location is not None:
            rid, offset = request.location
        else:
            rid, offset = request.target, None  # type: ignore[assignment]
        if rid is None or not self.is_receptacle(rid):
            return (
                False,
                PreconditionFault("unknown_reference", f"place target {rid!r} is not a receptacle"),
                "place failed: unknown receptacle",
                {},
            )
        root, unresolved = self._resting_root(rid, "place")
        if unresolved is not None:
            return unresolved
        if not self.robot_adjacent_to(root):
            return (
                False,
                PreconditionFault("out_of_reach", f"not adjacent to {root}"),
                "place failed: target out of reach",
                {},
            )
        if offset is not None:
            anchor = self.anchor_of(rid)
            pos = (anchor[0] + offset[0], anchor[1] + offset[1])
            half_w, half_h = self._surface_half_extent(rid)
            if abs(offset[0]) > half_w or abs(offset[1]) > half_h:
                return (
                    False,
                    PreconditionFault("bad_argument", f"offset {offset} outside {rid} surface"),
                    "place failed: offset outside surface",
                    {},
                )
            if not self.within_reach(pos):
                return (
                    False,
                    PreconditionFault("out_of_reach", f"location on {rid} beyond arm reach"),
                    "place failed: target out of reach",
                    {},
                )
            chosen = offset
        else:
            chosen = self.free_offset_on(rid)
            if chosen is None:
                return (
                    False,
                    PreconditionFault("no_free_space", f"no reachable free spot on {rid}"),
                    "place failed: no free space on target",
                    {},
                )
        if self.rng.random() < self.config.noise.p_place_fail:
            drop = (self.robot.x + 0.2, self.robot.y)
            self.objects[held].placement = Placement.on_floor(drop)
            self.gripper = None
            self._bump(root)
            return False, None, "place failed", {"dropped": held}
        self.objects[held].placement = Placement.on(rid, chosen)
        self.gripper = None
        self._bump(rid)
        return True, None, f"placed {held} on {rid}", {"placed": held, "on": rid, "offset": list(chosen)}


def load_scene(config: WorldConfig) -> World:
    """Construct a World; raises ConfigError with a field path on violations."""
    return World(config)


# --- Scene variation -------------------------------------------------------------


def vary_config(config: WorldConfig, trial_seed: int) -> WorldConfig:
    """Derive a per-trial scene from the base config and the trial seed.

    Only the declared variation axes change; without a variation block the
    scene is returned untouched (the seed still drives the noise stream).
    """
    spec = config.variation
    if spec is None:
        return config
    rng = random.Random((trial_seed * 2654435761) % 2**32 ^ 0x5EED)
    objects = [
        ObjectSpec(
            id=o.id,
            category=o.category,
            attributes=list(o.attributes),
            on=o.on,
            offset=o.offset,
            floor=o.floor,
            receptacle=o.receptacle,
            extent=o.extent,
        )
        for o in config.objects
    ]

    for category, (lo, hi) in sorted(spec.extra_count_range.items()):
        template = next((o for o in objects if o.category == category and not o.receptacle), None)
        if template is None:
            continue
        for k in range(rng.randint(lo, hi)):
            objects.append(
                ObjectSpec(
                    id=f"{category}_v{k}",
                    category=category,
                    attributes=list(template.attributes),
                    on=template.on,
                    offset=template.offset,
                    floor=template.floor,
                )
            )

    for category, pool in sorted(spec.receptacle_pool.items()):
        for o in objects:
            if o.category == category and not o.receptacle and o.on is not None:
                o.on = pool[rng.randrange(len(pool))]

    if spec.shuffle_offsets:
        by_parent: dict[str, list[ObjectSpec]] = {}
        for o in objects:
            if o.on is not None:
                by_parent.setdefault(o.on, []).append(o)
        for parent_id in sorted(by_parent):
            half_w, half_h = _half_extent_for(config, parent_id)
            taken: list[tuple[float, float]] = []
            for o in by_parent[parent_id]:
                if o.receptacle:
                    taken.append(o.offset)
                    continue
                for _ in range(40):
                    off = (
                        rng.uniform(-half_w + 0.08, half_w - 0.08),
                        rng.uniform(-half_h + 0.08, half_h - 0.08),
                    )
                    if all((off[0] - t[0]) ** 2 + (off[1] - t[1]) ** 2 >= 0.12**2 for t in taken):
                        o.offset = (round(off[0], 3), round(off[1], 3))
                        taken.append(o.offset)
                        break
                else:
                    taken.append(o.offset)

    return WorldConfig(
        name=config.name,
        room=config.room,
        furniture=config.furniture,
        objects=objects,
        robot_start=config.robot_start,
        noise=config.noise,
        grid_resolution=config.grid_resolution,
        arm_reach=config.arm_reach,
        sensing_radius=config.sensing_radius,
        view_radius=config.view_radius,
        closeup_radius=config.closeup_radius,
        variation=None,
    )


def _half_extent_for(config: WorldConfig, rid: str) -> tuple[float, float]:
    for f in config.furniture:
        if f.id == rid:
            return polygon_half_extent(f.footprint)
    for o in config.objects:
        if o.id == rid:
            return o.extent[0] / 2.0, o.extent[1] / 2.0
    return 0.2, 0.2
