"""Seeded input generators for the ``apartments`` and ``long_horizon`` workloads.

Each generator returns plain JSON documents: a scene document in the format
``homeloop.world.parse_config`` reads, plus a task document (instruction,
goal, step cap). The program under test only ever sees these documents; the
generators never import ``homeloop``. The same ``(workload seed, unit,
index)`` always gives the same documents, on any machine and Python version,
because every draw comes from ``random.Random`` seeded with a string.

No scene has a ``variation`` block, so the initial placement of every object
is exactly what the document says. The output checks rely on that.
"""

from __future__ import annotations

import random
from typing import Any

GOAL_CATEGORIES = ("toy", "cup", "book", "fruit", "bottle")
RECEPTACLE_CATEGORIES = ("table", "shelf", "counter", "desk", "sofa", "bed")

# Room and furniture sizes, in metres.
APARTMENT_WIDTH = (9.0, 11.0)
APARTMENT_HEIGHT = (7.0, 8.0)
WALL_THICKNESS = 0.2
DOOR_WIDTH = (1.0, 1.3)
FURNITURE_COUNT = (4, 6)
CLEARANCE = 0.6  # free gap kept between two pieces, and from the interior wall
SPACING = 0.15  # between objects on one surface


def _rng(*key: Any) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _r1(value: float) -> float:
    return round(value, 1)


def _rect(x0: float, y0: float, x1: float, y1: float) -> list[list[float]]:
    return [[_r1(x0), _r1(y0)], [_r1(x1), _r1(y0)], [_r1(x1), _r1(y1)], [_r1(x0), _r1(y1)]]


def _bbox(poly: list[list[float]]) -> tuple[float, float, float, float]:
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return min(xs), min(ys), max(xs), max(ys)


def _apart(a: list[list[float]], b: list[list[float]], gap: float) -> bool:
    ax0, ay0, ax1, ay1 = _bbox(a)
    bx0, by0, bx1, by1 = _bbox(b)
    return ax1 + gap <= bx0 or bx1 + gap <= ax0 or ay1 + gap <= by0 or by1 + gap <= ay0


def _furniture(fid: str, category: str, poly: list[list[float]]) -> dict[str, Any]:
    return {"id": fid, "category": category, "footprint": poly, "surface_height": "mid"}


def _place_against_edges(
    rng: random.Random,
    room: tuple[float, float, float, float],
    edges: tuple[str, ...],
    taken: list[list[list[float]]],
) -> list[list[float]] | None:
    """One footprint touching an edge of the room rectangle ``room``
    (x0, y0, x1, y1), kept ``CLEARANCE`` away from everything in ``taken``."""
    rx0, ry0, rx1, ry1 = room
    for _ in range(60):
        length = rng.uniform(1.0, 1.8)
        depth = rng.uniform(0.6, 0.9)
        edge = rng.choice(edges)
        if edge in ("south", "north"):
            if rx1 - rx0 < length + 2 * CLEARANCE:
                continue
            x = rng.uniform(rx0 + 0.3, rx1 - length - 0.3)
            y = ry0 if edge == "south" else ry1 - depth
            poly = _rect(x, y, x + length, y + depth)
        else:
            if ry1 - ry0 < length + 2 * CLEARANCE:
                continue
            y = rng.uniform(ry0 + 0.3, ry1 - length - 0.3)
            x = rx0 if edge == "west" else rx1 - depth
            poly = _rect(x, y, x + depth, y + length)
        if all(_apart(poly, other, CLEARANCE) for other in taken):
            return poly
    return None


def _layout(
    rng: random.Random, slots: list[tuple[tuple[float, float, float, float], tuple[str, ...]]]
) -> list[list[list[float]]]:
    """One footprint per (room rectangle, edges) slot, every two of them
    ``CLEARANCE`` apart. A slot that does not fit restarts the whole layout;
    all draws come from ``rng``, so the result is still a function of the key."""
    for _ in range(100):
        taken: list[list[list[float]]] = []
        for bounds, edges in slots:
            poly = _place_against_edges(rng, bounds, edges, taken)
            if poly is None:
                break
            taken.append(poly)
        else:
            return taken
    raise ValueError(f"no layout of {len(slots)} pieces found")


def _offsets(rng: random.Random, poly: list[list[float]], limit: float) -> list[list[float]]:
    """Every point of a 0.15 m grid on the footprint's surface that lies no
    further than ``limit`` from its centre on either axis, in random order.
    Objects placed on distinct points are 0.15 m apart or more."""
    x0, y0, x1, y1 = _bbox(poly)
    nx = int(min(limit, (x1 - x0) / 2 - 0.1) / SPACING)
    ny = int(min(limit, (y1 - y0) / 2 - 0.1) / SPACING)
    points = [[round(i * SPACING, 2), round(j * SPACING, 2)] for i in range(-nx, nx + 1) for j in range(-ny, ny + 1)]
    rng.shuffle(points)
    return points


def apartment(seed: int, unit: int, index: int) -> tuple[dict[str, Any], dict[str, Any]]:
    """A two-room layout with one object to carry through the doorway.

    The interior wall runs north-south with one doorway. Each room holds at
    least two receptacles against its outer walls. The object to move starts
    on a receptacle in one room; its destination is a receptacle in the
    other room. A few distractor objects sit on the remaining receptacles.
    """
    rng = _rng("apartments", seed, unit, index)
    width = _r1(rng.uniform(*APARTMENT_WIDTH))
    height = _r1(rng.uniform(*APARTMENT_HEIGHT))
    wall_x = _r1(width * rng.uniform(0.42, 0.58))
    door = rng.uniform(*DOOR_WIDTH)
    door_y = _r1(rng.uniform(1.5, height - 1.5 - door))
    walls = [
        {"id": "wall_0", "category": "wall", "footprint": _rect(wall_x, 0.0, wall_x + WALL_THICKNESS, door_y),
         "surface_height": None},
        {"id": "wall_1", "category": "wall",
         "footprint": _rect(wall_x, door_y + door, wall_x + WALL_THICKNESS, height), "surface_height": None},
    ]
    rooms = [
        ((0.0, 0.0, wall_x - CLEARANCE, height), ("south", "north", "west")),
        ((wall_x + WALL_THICKNESS + CLEARANCE, 0.0, width, height), ("south", "north", "east")),
    ]
    count = rng.randint(*FURNITURE_COUNT)
    per_room = [count // 2, count - count // 2]
    if rng.random() < 0.5:
        per_room.reverse()
    owners = [r for r in (0, 1) for _ in range(per_room[r])]
    room_pieces: list[list[str]] = [[], []]
    furniture = []
    for r, poly in zip(owners, _layout(rng, [rooms[r] for r in owners])):
        fid = f"{rng.choice(RECEPTACLE_CATEGORIES)}_{len(furniture)}"
        furniture.append(_furniture(fid, fid.rsplit("_", 1)[0], poly))
        room_pieces[r].append(fid)

    by_id = {f["id"]: f for f in furniture}
    src_room = rng.randrange(2)
    source = rng.choice(room_pieces[src_room])
    dest = rng.choice(room_pieces[1 - src_room])
    category = rng.choice(GOAL_CATEGORIES)
    free = {fid: _offsets(rng, f["footprint"], 0.3) for fid, f in by_id.items()}
    target_id = f"{category}_0"
    objects = [{"id": target_id, "category": category, "on": source, "offset": free[source].pop()}]
    others = [fid for fid in by_id if fid not in (source, dest)]
    for k in range(rng.randint(2, 4)):
        host = rng.choice(others)
        other_cat = rng.choice([c for c in GOAL_CATEGORIES if c != category])
        objects.append({"id": f"{other_cat}_{k + 1}", "category": other_cat, "on": host, "offset": free[host].pop()})

    start_room = rooms[rng.randrange(2)][0]
    scene = {
        "name": f"apartment_{seed}_{unit}_{index}",
        "room": {"width": width, "height": height},
        "grid_resolution": 0.1,
        "robot_start": {"x": _r1((start_room[0] + start_room[2]) / 2), "y": _r1(height / 2), "heading": 0.0},
        "furniture": walls + furniture,
        "objects": objects,
    }
    task = {
        "instruction": f"Move the {category} from the {source} to the {dest}.",
        "goal": {"on": {"object": {"id": target_id}, "receptacle": {"id": dest}}},
        "step_cap": 100,
    }
    return scene, task


TABLETOP_WIDTH = (4.4, 5.0)
TABLETOP_HEIGHT = (3.6, 4.2)
TABLETOP_SENSING = 4.0  # one sweep from the start sees most of the room
LONG_OBJECTS = (10, 12)
LONG_STEP_CAP = 200


def tabletop(seed: int, unit: int, index: int) -> tuple[dict[str, Any], dict[str, Any]]:
    """A one-room scene whose goal moves ten or more objects of one category
    onto a single destination receptacle (an ``all_on`` goal), and then the
    red one of two look-alike decoys (an ``on`` goal whose attribute only a
    close-up reveals).

    All objects start spread over one or two source tables.
    """
    rng = _rng("long_horizon", seed, unit, index)
    width = _r1(rng.uniform(*TABLETOP_WIDTH))
    height = _r1(rng.uniform(*TABLETOP_HEIGHT))
    n_sources = rng.randint(1, 2)
    slots = [((0.0, 0.0, width, height), ("south", "north", "west", "east"))] * (n_sources + 1)
    furniture = []
    for k, poly in enumerate(_layout(rng, slots)):
        category = "table" if k < n_sources else rng.choice(("counter", "shelf", "sofa"))
        furniture.append(_furniture(f"{category}_{k}", category, poly))
    sources, dest = furniture[:-1], furniture[-1]

    category, decoy = rng.sample(GOAL_CATEGORIES, 2)
    n_goal = rng.randint(*LONG_OBJECTS)
    colours = rng.sample(["red", "blue"], 2)
    specs = [{"id": f"{category}_{i}", "category": category} for i in range(n_goal)]
    specs += [{"id": f"{decoy}_{n_goal + k}", "category": decoy, "attributes": [c]} for k, c in enumerate(colours)]
    objects = []
    for s, source in enumerate(sources):
        mine = specs[s :: len(sources)]
        points = _offsets(rng, source["footprint"], 0.7)
        if len(points) < len(mine):
            raise ValueError(f"tabletop {seed}/{unit}/{index}: {len(mine)} objects do not fit on {source['id']}")
        for spec, off in zip(mine, points):
            objects.append({**spec, "on": source["id"], "offset": off})
    objects.sort(key=lambda o: o["id"])

    start = (_r1(width / 2), _r1(height / 2))
    scene = {
        "name": f"tabletop_{seed}_{unit}_{index}",
        "room": {"width": width, "height": height},
        "grid_resolution": 0.1,
        "sensing_radius": TABLETOP_SENSING,
        "robot_start": {"x": start[0], "y": start[1], "heading": 0.0},
        "furniture": furniture,
        "objects": objects,
    }
    task = {
        "instruction": f"Put every {category} and the red {decoy} on the {dest['id']}.",
        "goal": {
            "and": [
                {"all_on": {"category": category, "receptacle": {"id": dest["id"]}}},
                {"on": {"object": {"category": decoy, "attributes": ["red"]}, "receptacle": {"id": dest["id"]}}},
            ]
        },
        "step_cap": LONG_STEP_CAP,
    }
    return scene, task
