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
from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

from .errors import ConfigError, PreconditionFault, Refused, TargetNotVisible
from .geometry import (
    Cell,
    OccupancyGrid,
    Pose,
    bresenham,
    polygon_centroid,
    point_in_polygon,
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


def check_noise_fields(raw: Any, path: str, with_seed: bool) -> dict[str, Any]:
    """Check a block of ``NoiseModel`` fields read from outside the program:
    every key a field, every probability a number in [0, 1], and, where
    ``with_seed`` allows it, ``rng_seed`` an integer. Returns a copy."""
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected a JSON object, got {raw!r}")
    known = NoiseModel.PROB_FIELDS + (("rng_seed",) if with_seed else ())
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"{path}.{key}", f"unknown field; known: {', '.join(known)}")
        if key == "rng_seed":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{path}.{key}", f"expected an integer, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            raise ConfigError(f"{path}.{key}", f"expected a probability in [0, 1], got {value!r}")
    return dict(raw)


MAX_EXTRA_COUNT = 100  # the most clones a variation may add per category
MAX_GRID_SIDE = 1000  # the most occupancy-grid cells along a side of the room
SHUFFLE_MARGIN = 0.08  # meters between a shuffled offset and its surface's edge


@dataclass
class VariationSpec:
    """Per-trial scene variation, driven by the trial seed.

    shuffle_offsets: re-draw each object's surface offset.
    receptacle_pool: categories whose members may be re-dealt across the
        listed receptacles, keeping their offsets when no shuffled one fits.
    extra_count_range: extra clones of the first object of a category,
        inclusive range of at most ``MAX_EXTRA_COUNT``; clones get ids
        ``<category>_vN`` and the first object's offset.
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


# Checked accessors for documents read from outside the program: each returns
# the value in the shape the parser needs or raises ConfigError at ``path``.


def as_json(value: Any, kind: type, path: str) -> Any:
    """``value`` if it is a JSON object, array or string (``kind`` dict, list, str)."""
    if not isinstance(value, kind):
        name = {dict: "object", list: "array", str: "string"}[kind]
        raise ConfigError(path, f"expected a JSON {name}, got {value!r}")
    return value


def as_number(value: Any, path: str, kind: type = float) -> Any:
    """``value`` as a finite ``kind``: as a float, whatever ``float()``
    takes; as an int, a JSON number with no fraction, never a bool or a
    string, so that nothing is truncated."""
    if kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError(path, f"expected an integer, got {value!r}")
    try:
        number = float(value)
        if math.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(path, f"expected a finite number, got {value!r}")


def as_pair(value: Any, path: str, kind: type = float) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(path, f"expected [a, b], got {value!r}")
    return as_number(value[0], f"{path}[0]", kind), as_number(value[1], f"{path}[1]", kind)


def parse_config(raw: dict) -> WorldConfig:
    """Build a WorldConfig from a plain JSON document, reporting the field
    path of the first violation."""
    as_json(raw, dict, "config")
    room_raw = as_json(_req(raw, "room", "config"), dict, "room")
    room = tuple(as_number(_req(room_raw, key, "room"), f"room.{key}") for key in ("width", "height"))

    furniture = []
    for i, f in enumerate(as_json(raw.get("furniture", []), list, "furniture")):
        path = f"furniture[{i}]"
        as_json(f, dict, path)
        vertices = as_json(_req(f, "footprint", path), list, f"{path}.footprint")
        footprint = [as_pair(p, f"{path}.footprint[{j}]") for j, p in enumerate(vertices)]
        if len(footprint) < 3:
            raise ConfigError(f"{path}.footprint", "needs at least 3 vertices")
        difficulty = as_json(f.get("grasp_difficulty", {}), dict, f"{path}.grasp_difficulty")
        furniture.append(
            FurnitureSpec(
                id=str(_req(f, "id", path)),
                category=str(_req(f, "category", path)),
                footprint=footprint,
                surface_height=f.get("surface_height"),
                grasp_difficulty={str(k): as_number(v, f"{path}.grasp_difficulty.{k}") for k, v in difficulty.items()},
            )
        )

    objects = []
    for i, o in enumerate(as_json(raw.get("objects", []), list, "objects")):
        path = f"objects[{i}]"
        as_json(o, dict, path)
        floor = o.get("floor")
        objects.append(
            ObjectSpec(
                id=str(_req(o, "id", path)),
                category=str(_req(o, "category", path)),
                attributes=[str(a) for a in as_json(o.get("attributes", []), list, f"{path}.attributes")],
                on=o.get("on"),
                offset=as_pair(o.get("offset", [0.0, 0.0]), f"{path}.offset"),
                floor=as_pair(floor, f"{path}.floor") if floor is not None else None,
                receptacle=bool(o.get("receptacle", False)),
                extent=as_pair(o.get("extent", [0.0, 0.0]), f"{path}.extent"),
            )
        )

    start_raw = as_json(_req(raw, "robot_start", "config"), dict, "robot_start")
    robot_start = Pose(
        as_number(_req(start_raw, "x", "robot_start"), "robot_start.x"),
        as_number(_req(start_raw, "y", "robot_start"), "robot_start.y"),
        as_number(start_raw.get("heading", 0.0), "robot_start.heading"),
    )

    noise = NoiseModel(**check_noise_fields(raw.get("noise", {}), "noise", with_seed=True))

    variation = None
    if "variation" in raw:
        v = as_json(raw["variation"], dict, "variation")
        pool = as_json(v.get("receptacle_pool", {}), dict, "variation.receptacle_pool")
        counts = as_json(v.get("extra_count_range", {}), dict, "variation.extra_count_range")
        variation = VariationSpec(
            shuffle_offsets=bool(v.get("shuffle_offsets", False)),
            receptacle_pool={
                k: list(map(str, as_json(vs, list, f"variation.receptacle_pool.{k}"))) for k, vs in pool.items()
            },
            extra_count_range={
                k: as_pair(r, f"variation.extra_count_range.{k}", int) for k, r in counts.items()
            },
        )

    config = WorldConfig(
        name=str(raw.get("name", "scene")),
        room=room,
        furniture=furniture,
        objects=objects,
        robot_start=robot_start,
        noise=noise,
        grid_resolution=as_number(raw.get("grid_resolution", 0.1), "grid_resolution"),
        arm_reach=as_number(raw.get("arm_reach", 1.0), "arm_reach"),
        sensing_radius=as_number(raw.get("sensing_radius", 3.0), "sensing_radius"),
        view_radius=as_number(raw.get("view_radius", 1.5), "view_radius"),
        closeup_radius=as_number(raw.get("closeup_radius", 0.3), "closeup_radius"),
        variation=variation,
    )
    validate_config(config)
    return config


def surface_half_extents(config: WorldConfig) -> dict[str, tuple[float, float]]:
    """Half width and half height of each receptacle's surface, by id: the
    footprint's bounding box for furniture, the extent for a small receptacle."""
    half = {f.id: polygon_half_extent(f.footprint) for f in config.furniture if f.is_receptacle}
    half.update((o.id, (o.extent[0] / 2.0, o.extent[1] / 2.0)) for o in config.objects if o.receptacle)
    return half


def validate_config(config: WorldConfig) -> None:
    """Raise ConfigError at the first field of a scene that some trial could
    not build or run. A config that passes builds ``World(vary_config(config,
    seed))`` for every seed; ``World`` checks nothing again."""
    res = config.grid_resolution
    if res <= 0:
        raise ConfigError("grid_resolution", "must be > 0")
    w, h = config.room
    if w <= 0 or h <= 0:
        raise ConfigError("room", "width and height must be > 0")
    for key, side in (("width", w), ("height", h)):
        if side / res > MAX_GRID_SIDE:
            raise ConfigError(f"room.{key}", f"more than {MAX_GRID_SIDE} grid cells of {res} m")
    diagonal = math.hypot(w, h)
    for name in ("arm_reach", "sensing_radius", "view_radius", "closeup_radius"):
        if not 0.0 <= getattr(config, name) <= diagonal:
            raise ConfigError(name, f"must lie in [0, {diagonal:g}], the room's diagonal")
    if int(config.sensing_radius / res) < 1:  # the sense disk's radius in cells
        raise ConfigError("sensing_radius", f"shorter than one grid cell of {res} m")
    check_noise_fields(vars(config.noise), "noise", with_seed=True)

    def in_room(x: float, y: float) -> bool:
        return 0.0 <= x <= w and 0.0 <= y <= h

    start = config.robot_start
    if not in_room(start.x, start.y):
        raise ConfigError("robot_start", "outside room bounds")
    grid = OccupancyGrid(w, h, res)
    start_center = grid.center_of(grid.cell_of(start.x, start.y))
    seen_f: set[str] = set()
    for i, f in enumerate(config.furniture):
        path = f"furniture[{i}]"
        if f.id in seen_f:
            raise ConfigError(f"{path}.id", f"duplicate furniture id {f.id!r}")
        seen_f.add(f.id)
        for j, (x, y) in enumerate(f.footprint):
            if not in_room(x, y):
                raise ConfigError(f"{path}.footprint[{j}]", "vertex outside room bounds")
        # the exact test rasterize_polygon applies to every cell centre
        if point_in_polygon(*start_center, f.footprint):
            raise ConfigError("robot_start", f"its cell is inside the footprint of {f.id!r}")
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

    half_extents = surface_half_extents(config)
    seen_o: set[str] = set()
    for i, o in enumerate(config.objects):
        path = f"objects[{i}]"
        if o.id in seen_o or o.id in seen_f:
            raise ConfigError(f"{path}.id", f"duplicate object id {o.id!r}")
        seen_o.add(o.id)
        if (o.on is None) == (o.floor is None):
            raise ConfigError(path, "exactly one of 'on' or 'floor' is required")
        if o.on is not None:
            if not isinstance(o.on, str) or o.on not in half_extents:
                raise ConfigError(f"{path}.on", f"unknown receptacle id {o.on!r}")
            half_w, half_h = half_extents[o.on]
            if abs(o.offset[0]) > half_w or abs(o.offset[1]) > half_h:
                raise ConfigError(f"{path}.offset", f"outside surface of {o.on!r}")
        elif not in_room(*o.floor):
            raise ConfigError(f"{path}.floor", "outside room bounds")
        if o.receptacle and not (0.0 < o.extent[0] <= w and 0.0 < o.extent[1] <= h):
            raise ConfigError(f"{path}.extent", "a receptacle object's extent must be positive and fit the room")
    resting_on = {o.id: o.on for o in config.objects}
    for i, o in enumerate(config.objects):
        chain = [o.id]
        while chain[-1] in resting_on:  # ends at furniture or on the floor (None)
            chain.append(resting_on[chain[-1]])
            if chain[-1] in chain[:-1]:
                raise ConfigError(f"objects[{i}].on", f"receptacle chain {' -> '.join(chain)} is a cycle")
    if config.variation is not None:
        for category, pool in config.variation.receptacle_pool.items():
            path = f"variation.receptacle_pool.{category}"
            if not pool:
                raise ConfigError(path, "needs at least one receptacle id")
            for rid in pool:
                if rid not in half_extents:
                    raise ConfigError(path, f"unknown receptacle id {rid!r}")
                half_w, half_h = half_extents[rid]
                for o in config.objects:
                    if o.category == category and not o.receptacle and o.on is not None:
                        if abs(o.offset[0]) > half_w or abs(o.offset[1]) > half_h:
                            raise ConfigError(path, f"offset of {o.id!r} outside surface of {rid!r}")
        if config.variation.shuffle_offsets:
            # a shuffled offset is drawn at least SHUFFLE_MARGIN inside each edge
            for o in config.objects:
                if o.receptacle or o.on is None:
                    continue
                for rid in [o.on, *config.variation.receptacle_pool.get(o.category, [])]:
                    if min(half_extents[rid]) < SHUFFLE_MARGIN:
                        raise ConfigError(
                            "variation.shuffle_offsets",
                            f"surface {rid!r} of {o.id!r} has a half extent below {SHUFFLE_MARGIN} m",
                        )
        for category, (low, high) in config.variation.extra_count_range.items():
            path = f"variation.extra_count_range.{category}"
            if not 0 <= low <= high <= MAX_EXTRA_COUNT:
                raise ConfigError(path, f"needs 0 <= low <= high <= {MAX_EXTRA_COUNT}, got [{low}, {high}]")
            for clone in (f"{category}_v{k}" for k in range(high)):
                if clone in seen_o or clone in seen_f:
                    raise ConfigError(path, f"clone id {clone!r} names an object or furniture")


def read_json(path: str, field: str) -> Any:
    """The JSON document in the file at ``path``, or a ConfigError at ``field``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(field, f"cannot read {path!r}: {exc}") from None


def load_config_file(path: str, field: str = "scene") -> WorldConfig:
    return parse_config(read_json(path, field))


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
    """Book-keeping for a hallucinated detection, keyed by its belief id in
    ``World.phantoms``: where it was believed to be, and what a close-up
    actually finds there."""

    believed_category: str
    reveal_category: str
    reveal_attributes: tuple[str, ...]
    position: tuple[float, float]


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
    message: str
    details: dict[str, Any] = field(default_factory=dict)


# --- Static scene geometry -------------------------------------------------------


class SceneGeometry:
    """What no trial changes about a scene: the rasterised grid, footprint
    cells, centroids, the cells reachable from the robot start, the approach
    tables (built on first use) and the first global sweep from each start
    cell (filled by ``perception.explore_global``).

    Every World of the same layout shares one, across threads too: the
    arrays are read-only, and the lazily filled tables are pure functions of
    the layout, so a race at worst computes an entry twice."""

    def __init__(
        self,
        room: tuple[float, float],
        resolution: float,
        furniture: tuple[tuple[str, tuple[tuple[float, float], ...]], ...],
        start: tuple[float, float],
    ) -> None:
        self.grid = OccupancyGrid(room[0], room[1], resolution)
        self.footprint_cells: dict[str, frozenset[Cell]] = {}
        self.centroids: dict[str, tuple[float, float]] = {}
        for fid, footprint in furniture:
            self.footprint_cells[fid] = frozenset(self.grid.rasterize_polygon(footprint))
            self.centroids[fid] = polygon_centroid(footprint)
        self.grid.occ.flags.writeable = False

        self.reachable = self.grid.flood_fill(self.grid.cell_of(*start))
        self.reachable.flags.writeable = False
        self._approach: dict[str, dict[Optional[str], tuple[Cell, ...]]] = {}
        # (start cell, sensing radius) -> (explored mask, end position), the
        # end position None when the robot never moved
        self.first_sweeps: dict[tuple[Cell, float], tuple[np.ndarray, Optional[tuple[float, float]]]] = {}

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
        # transposed, nonzero yields cells in (cx, cy) order
        cells = tuple((int(cx), int(cy)) for cx, cy in zip(*np.nonzero(near.T)))
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
    footprint cells, centroids, reachability, approach cells and the first
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

        self.objects: dict[str, GroundObject] = {}
        for spec in config.objects:
            if spec.on is not None:
                placement = Placement.on(spec.on, spec.offset)
            else:
                placement = Placement.on_floor(spec.floor)  # type: ignore[arg-type]
            self.objects[spec.id] = GroundObject(spec=spec, placement=placement)

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
        current = rid
        while current not in self.furniture:
            placement = self.objects[current].placement
            if placement.kind != "on":
                return None
            current = placement.receptacle  # type: ignore[assignment]
        return current

    def _resting_root(self, rid: str, verb: str) -> str:
        """``root_furniture_of(rid)``; refuses ``verb`` when the chain ends off
        furniture (a small receptacle on the floor)."""
        root = self.root_furniture_of(rid)
        if root is None:
            fault = PreconditionFault("bad_argument", f"{rid} is not resting on a surface")
            raise Refused(fault, f"{verb} failed: receptacle not on a surface")
        return root

    def anchor_of(self, rid: str) -> tuple[float, float]:
        """Surface anchor: furniture footprint centroid, or the small
        receptacle's own position."""
        if rid in self.furniture:
            return self.centroids[rid]
        return self.position_of(rid)

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
        return sorted(oid for oid in self.objects if self.root_furniture_of(oid) == furniture_id)

    def objects_directly_on(self, rid: str) -> list[str]:
        return sorted(
            oid
            for oid, obj in self.objects.items()
            if obj.placement.kind == "on" and obj.placement.receptacle == rid
        )

    def robot_cell(self) -> Cell:
        return self.grid.cell_of(self.robot.x, self.robot.y)

    def robot_adjacent_to(self, furniture_id: str) -> bool:
        """Whether a footprint cell of the furniture lies in the robot's 3x3
        block of cells (its own cell is always free)."""
        cells = self.footprint_cells.get(furniture_id, ())
        cx, cy = self.robot_cell()
        return any((x, y) in cells for x in (cx - 1, cx, cx + 1) for y in (cy - 1, cy, cy + 1))

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
            root = self.root_furniture_of(rid)
            if root is not None and root != rid:
                self.receptacle_versions[root] += 1

    # -- phantom registry --------------------------------------------------------------

    def mint_phantom_id(self, category: str) -> str:
        """The first ``<category>_<n>`` that names neither an object nor a phantom."""
        n = 0
        while f"{category}_{n}" in self.objects or f"{category}_{n}" in self.phantoms:
            n += 1
        return f"{category}_{n}"

    # -- action dynamics ----------------------------------------------------------------

    def apply_action(self, request: ActionRequest) -> GroundOutcome:
        """Execute one execution-verb request against ground truth.

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
        return GroundOutcome(success=success, message=message, details=details)

    def _do_navigate(self, request: ActionRequest):
        target = request.target
        if target not in self.furniture:
            fault = PreconditionFault("unknown_reference", f"navigate target {target!r} is not furniture")
            raise Refused(fault, f"navigate({target}) -> unknown furniture")
        focus = request.params.get("focus")
        approach = self.select_approach(target, request.side, tuple(focus) if focus else None)
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
        pos = self.position_of(target)
        root = None
        if obj.placement.kind == "on":
            root = self._resting_root(obj.placement.receptacle, "grasp")  # type: ignore[arg-type]
            if not self.robot_adjacent_to(root):
                raise Refused(
                    PreconditionFault("out_of_reach", f"not adjacent to {root}"), "grasp failed: target out of reach"
                )
        if not self.within_reach(pos):
            raise Refused(
                PreconditionFault("out_of_reach", f"{target} beyond arm reach"), "grasp failed: target out of reach"
            )
        parent = obj.placement.receptacle if obj.placement.kind == "on" else None
        if self.rng.random() < self._grasp_fail_probability(root):
            shifted = False
            if obj.placement.kind == "on" and self.rng.random() < self.config.noise.p_object_shift_on_fail:
                dx = (self.rng.random() - 0.5) * 0.1
                dy = (self.rng.random() - 0.5) * 0.1
                ox, oy = obj.placement.offset
                half_w, half_h = self.half_extents[parent]  # type: ignore[arg-type]
                obj.placement.offset = (
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
        obj.placement = Placement.gripper()
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
        if request.location is not None:
            rid, offset = request.location
        else:
            rid, offset = request.target, None  # type: ignore[assignment]
        if rid not in self.half_extents:
            raise Refused(
                PreconditionFault("unknown_reference", f"place target {rid!r} is not a receptacle"),
                "place failed: unknown receptacle",
            )
        root = self._resting_root(rid, "place")
        if not self.robot_adjacent_to(root):
            raise Refused(
                PreconditionFault("out_of_reach", f"not adjacent to {root}"), "place failed: target out of reach"
            )
        if offset is not None:
            anchor = self.anchor_of(rid)
            pos = (anchor[0] + offset[0], anchor[1] + offset[1])
            half_w, half_h = self.half_extents[rid]
            if abs(offset[0]) > half_w or abs(offset[1]) > half_h:
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
            self.objects[held].placement = Placement.on_floor(drop)
            self.gripper = None
            self._bump(root)
            return False, "place failed", {"dropped": held}
        self.objects[held].placement = Placement.on(rid, chosen)
        self.gripper = None
        self._bump(rid)
        return True, f"placed {held} on {rid}", {"placed": held, "on": rid, "offset": list(chosen)}


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
    objects = [replace(o, attributes=list(o.attributes)) for o in config.objects]

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
        half_extents = surface_half_extents(config)
        for parent_id in sorted(by_parent):
            half_w, half_h = half_extents[parent_id]
            taken: list[tuple[float, float]] = []
            for o in by_parent[parent_id]:
                if o.receptacle:
                    taken.append(o.offset)
                    continue
                for _ in range(40):
                    off = (
                        rng.uniform(-half_w + SHUFFLE_MARGIN, half_w - SHUFFLE_MARGIN),
                        rng.uniform(-half_h + SHUFFLE_MARGIN, half_h - SHUFFLE_MARGIN),
                    )
                    if all((off[0] - t[0]) ** 2 + (off[1] - t[1]) ** 2 >= 0.12**2 for t in taken):
                        o.offset = (round(off[0], 3), round(off[1], 3))
                        taken.append(o.offset)
                        break
                else:
                    taken.append(o.offset)

    return replace(config, objects=objects, variation=None)
