"""Every document homeloop reads: scenes with their noise and variation
blocks, noise profiles, and suites of tasks. This module only parses,
validates and varies them; ``load_document`` is the one reader of a
``builtin:<name>`` reference or a file path, for scenes and suites alike.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources
from typing import Any, Callable, Optional

from .errors import ConfigError, as_json, as_number, as_pair, as_strings, field_names, only_keys, require
from .geometry import SIDES, OccupancyGrid, Pose, point_in_polygon, polygon_half_extent, polygons_overlap
from .goals import Goal, parse_goal

# --- Scene documents ------------------------------------------------------------


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


NOISE_PROBABILITIES = tuple(name for name in field_names(NoiseModel) if name != "rng_seed")


def check_noise_fields(raw: Any, path: str, with_seed: bool) -> dict[str, Any]:
    """Check a block of ``NoiseModel`` fields read from outside the program:
    every key a field, every probability a number in [0, 1], and, where
    ``with_seed`` allows it, ``rng_seed`` an integer. Returns a copy."""
    known = NOISE_PROBABILITIES + (("rng_seed",) if with_seed else ())
    for key, value in only_keys(as_json(raw, dict, path), known, path).items():
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
    name: str = field(default="scene", kw_only=True)
    room: tuple[float, float]  # width, height in meters
    furniture: list[FurnitureSpec] = field(default_factory=list, kw_only=True)
    objects: list[ObjectSpec] = field(default_factory=list, kw_only=True)
    robot_start: Pose
    noise: NoiseModel = field(default_factory=NoiseModel)
    grid_resolution: float = 0.1
    arm_reach: float = 1.0
    sensing_radius: float = 3.0
    view_radius: float = 1.5
    closeup_radius: float = 0.3
    variation: Optional[VariationSpec] = None


RADII = ("arm_reach", "sensing_radius", "view_radius", "closeup_radius")  # each within the room's diagonal

Reader = Callable[[Any, str], Any]  # reads a JSON value found at a path


def read_fields(cls: type, raw: Any, path: str, readers: dict[str, Reader]) -> Any:
    """The dataclass ``cls`` read from ``raw``, a JSON object of its fields.
    Each key of ``readers`` is read in the table's order when present; an
    absent key is left to its field's default, or missing when it has none.
    Problems are named at ``path.key``, but the scene (``path`` "") names its
    own keys bare, and its type and missing keys at ``config``."""
    only_keys(as_json(raw, dict, path or "config"), field_names(cls), path)
    required = {f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING}
    return cls(**{
        key: read(require(raw, key, path or "config"), f"{path}.{key}" if path else key)
        for key, read in readers.items() if key in raw or key in required
    })


def _json(kind: type) -> Reader:
    return lambda value, path: as_json(value, kind, path)


def _optional(read: Reader) -> Reader:
    return lambda value, path: None if value is None else read(value, path)


def _mapping(read: Reader) -> Reader:
    return lambda value, path: {k: read(v, f"{path}.{k}") for k, v in as_json(value, dict, path).items()}


def _array(read: Reader) -> Reader:
    return lambda value, path: [read(item, f"{path}[{i}]") for i, item in enumerate(as_json(value, list, path))]


def _footprint(value: Any, path: str) -> list[tuple[float, float]]:
    footprint = _array(as_pair)(value, path)
    if len(footprint) < 3:
        raise ConfigError(path, "needs at least 3 vertices")
    return footprint


def _room(value: Any, path: str) -> tuple[float, float]:
    only_keys(as_json(value, dict, path), ("width", "height"), path)
    return tuple(as_number(require(value, key, path), f"{path}.{key}") for key in ("width", "height"))


# Each document's readers, in the order its problems are found.
FURNITURE_READERS = {
    "footprint": _footprint,
    "id": _json(str),
    "category": _json(str),
    "surface_height": _optional(_json(str)),
    "grasp_difficulty": _mapping(as_number),
}
OBJECT_READERS = {
    "id": _json(str),
    "category": _json(str),
    "attributes": as_strings,
    "on": lambda value, path: value,  # validate_config checks the receptacle id
    "offset": as_pair,
    "floor": _optional(as_pair),
    "receptacle": _json(bool),
    "extent": as_pair,
}
POSE_READERS = dict.fromkeys(field_names(Pose), as_number)
VARIATION_READERS = {
    "receptacle_pool": _mapping(lambda value, path: [as_json(rid, str, path) for rid in as_json(value, list, path)]),
    "shuffle_offsets": _json(bool),
    "extra_count_range": _mapping(lambda value, path: as_pair(value, path, int)),
}
SCENE_READERS = {
    "room": _room,
    "furniture": _array(lambda value, path: read_fields(FurnitureSpec, value, path, FURNITURE_READERS)),
    "objects": _array(lambda value, path: read_fields(ObjectSpec, value, path, OBJECT_READERS)),
    "robot_start": lambda value, path: read_fields(Pose, value, path, POSE_READERS),
    "noise": lambda value, path: NoiseModel(**check_noise_fields(value, path, with_seed=True)),
    "variation": lambda value, path: read_fields(VariationSpec, value, path, VARIATION_READERS),
    "name": _json(str),
    **dict.fromkeys(("grid_resolution", *RADII), as_number),
}


def parse_config(raw: dict) -> WorldConfig:
    """Build a WorldConfig from a plain JSON document, reporting the field
    path of the first violation."""
    config = read_fields(WorldConfig, raw, "", SCENE_READERS)
    validate_config(config)
    return config


def surface_half_extents(config: WorldConfig) -> dict[str, tuple[float, float]]:
    """Half width and half height of each receptacle's surface, by id: the
    footprint's bounding box for furniture, the extent for a small receptacle."""
    half = {f.id: polygon_half_extent(f.footprint) for f in config.furniture if f.is_receptacle}
    half.update((o.id, (o.extent[0] / 2.0, o.extent[1] / 2.0)) for o in config.objects if o.receptacle)
    return half


def off_surface(offset: tuple[float, float], half_extent: tuple[float, float]) -> bool:
    """Whether ``offset`` lies beyond a surface's half extents (a NaN one does not)."""
    return abs(offset[0]) > half_extent[0] or abs(offset[1]) > half_extent[1]


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
    for name in RADII:
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
            if off_surface(o.offset, half_extents[o.on]):
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
                for o in config.objects:
                    if o.category == category and not o.receptacle and o.on is not None:
                        if off_surface(o.offset, half_extents[rid]):
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
            objects.append(replace(template, id=f"{category}_v{k}", attributes=list(template.attributes)))

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


# --- Noise profiles, tasks and suites ----------------------------------------------

DEFAULT_STEP_CAP = 100

NOISE_PROFILES: dict[str, dict[str, float]] = {
    "zero": {name: 0.0 for name in NOISE_PROBABILITIES},
    "default": {},  # NoiseModel defaults
    "realistic": {},  # alias for the defaults
}


def resolve_noise_profile(profile: "str | dict[str, float] | None") -> dict[str, float]:
    if profile is None:
        return {}
    if isinstance(profile, str):
        if profile not in NOISE_PROFILES:
            raise ConfigError("noise_profile", f"unknown profile {profile!r}; known: {sorted(NOISE_PROFILES)}")
        return dict(NOISE_PROFILES[profile])
    return check_noise_fields(profile, "noise_profile", with_seed=False)


@dataclass
class TaskSpec:
    id: str
    name: str
    instruction: str
    scene: WorldConfig
    goal: Goal
    trial_count: int
    seeds: list[int] = field(default_factory=list)
    placement_style: Optional[str] = None
    step_cap: int = DEFAULT_STEP_CAP

    def seed_for(self, trial_index: int, base: int = 0) -> int:
        """Seed ``i`` of the cycled seed list, or ``i`` mod the trial count without one."""
        seed = self.seeds[trial_index % len(self.seeds)] if self.seeds else trial_index % self.trial_count
        return seed + base * 100003


@dataclass
class SuiteConfig:
    name: str
    tasks: list[TaskSpec]
    noise_profile: "str | dict[str, float]" = "default"
    planner: str = "scripted"


def _count(value: Any, path: str) -> int:
    """``value`` as an int of at least 1."""
    number = as_number(value, path, int)
    if number < 1:
        raise ConfigError(path, f"expected an integer >= 1, got {value!r}")
    return number


SUITE_KEYS = field_names(SuiteConfig)
TASK_KEYS = ("id", "name", "instruction", "scene", "goal", "trials", "seeds", "placement_style", "step_cap")


def parse_suite(raw: dict, base_dir: Optional[str] = None) -> SuiteConfig:
    """Build a SuiteConfig, loading each task's scene; a relative scene path
    resolves against ``base_dir``."""
    only_keys(as_json(raw, dict, "suite"), SUITE_KEYS)
    if raw.get("planner", "scripted") != "scripted":
        raise ConfigError("planner", f"expected \"scripted\" (--planner chooses the planner), got {raw['planner']!r}")
    raw_tasks = as_json(raw.get("tasks", []), list, "tasks")
    if not raw_tasks:
        raise ConfigError("tasks", "no tasks")
    tasks = []
    for i, t in enumerate(raw_tasks):
        path = f"tasks[{i}]"
        only_keys(as_json(t, dict, path), TASK_KEYS, path)
        task_id = as_json(require(t, "id", path), str, f"{path}.id")
        if task_id in ("", ".", "..") or "/" in task_id or "\\" in task_id:
            raise ConfigError(f"{path}.id", f"{task_id!r} is not one directory name")
        if any(task.id == task_id for task in tasks):
            raise ConfigError(f"{path}.id", f"duplicate task id {task_id!r}")
        scene = as_json(require(t, "scene", path), str, f"{path}.scene")
        style = t.get("placement_style")
        seeds = as_json(t.get("seeds", []), list, f"{path}.seeds")
        tasks.append(
            TaskSpec(
                id=task_id,
                name=as_json(t.get("name", task_id), str, f"{path}.name"),
                instruction=as_json(require(t, "instruction", path), str, f"{path}.instruction"),
                scene=load_document(scene, "scene", f"{path}.scene", base_dir),
                goal=parse_goal(require(t, "goal", path), f"{path}.goal"),
                trial_count=_count(t.get("trials", 5), f"{path}.trials"),
                seeds=[as_number(s, f"{path}.seeds[{k}]", int) for k, s in enumerate(seeds)],
                placement_style=None if style is None else as_json(style, str, f"{path}.placement_style"),
                step_cap=_count(t.get("step_cap", DEFAULT_STEP_CAP), f"{path}.step_cap"),
            )
        )
    noise_profile = raw.get("noise_profile", "default")
    resolve_noise_profile(noise_profile)  # checked here; the suite keeps it as written
    return SuiteConfig(
        name=as_json(raw.get("name", "suite"), str, "name"),
        tasks=tasks,
        noise_profile=noise_profile,
    )


# --- Reading documents ----------------------------------------------------------------


def read_json(path: str, field: str) -> Any:
    """The JSON document in the file at ``path``, or a ConfigError at ``field``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(field, f"cannot read {path!r}: {exc}") from None


def load_document(
    ref: str, kind: str, field: Optional[str] = None, base_dir: Optional[str] = None
) -> "WorldConfig | SuiteConfig":
    """The parsed ``kind`` ("scene" or "suite") document that ``ref`` names:
    ``builtin:<name>`` is the bundled ``data/<kind>s/<name>.json``, anything
    else a file path, relative to ``base_dir`` when given. A suite's relative
    scene paths resolve against the suite file's directory. Errors name
    ``field``, by default ``kind``."""
    field = field or kind
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        bundled = resources.files("homeloop").joinpath(f"data/{kind}s/{name}.json")
        if not bundled.is_file():
            raise ConfigError(field, f"no builtin {kind} {name!r}")
        raw, own_dir = json.loads(bundled.read_text("utf-8")), None
    else:
        path = os.path.join(base_dir or "", ref)
        raw, own_dir = read_json(path, field), os.path.dirname(os.path.abspath(path))
    return parse_config(raw) if kind == "scene" else parse_suite(raw, own_dir)


def load_builtin_suite(name: str) -> SuiteConfig:
    return load_document(f"builtin:{name}", "suite")  # type: ignore[return-value]
