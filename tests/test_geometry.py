from __future__ import annotations

import json
import math
from collections import deque
from functools import reduce
from importlib import resources
from itertools import islice
from operator import or_
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from homeloop.config import parse_config
from homeloop.errors import ExplorationStalled
from homeloop.geometry import (
    OccupancyGrid,
    SIDES,
    PackedGrid,
    Pose,
    _probe_points,
    bresenham,
    point_in_polygon,
    polygon_bbox,
    polygon_centroid,
    polygons_overlap,
    side_of,
)
from homeloop.perception import _sense, _sweep
from homeloop.world import SceneGeometry, scene_geometry

SQUARE = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]


def test_centroid_and_bbox_of_square():
    assert polygon_centroid(SQUARE) == (1.0, 1.0)
    assert polygon_bbox(SQUARE) == (0.0, 0.0, 2.0, 2.0)
    # a polygon with no area: the mean of its vertices
    assert polygon_centroid([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]) == (1.0, 1.0)


def test_point_in_polygon():
    assert point_in_polygon(1.0, 1.0, SQUARE)
    assert not point_in_polygon(2.5, 1.0, SQUARE)
    assert not point_in_polygon(-0.1, -0.1, SQUARE)


def test_polygons_overlap_and_disjoint():
    shifted = [(3.0, 0.0), (5.0, 0.0), (5.0, 2.0), (3.0, 2.0)]
    touching = [(1.5, 1.5), (3.5, 1.5), (3.5, 3.5), (1.5, 3.5)]
    assert not polygons_overlap(SQUARE, shifted)
    assert polygons_overlap(SQUARE, touching)
    # the speck lies between the square's probe points, which are 2/101 m apart
    speck = [(0.992, 0.992), (0.998, 0.992), (0.998, 0.998), (0.992, 0.998)]
    assert not any(point_in_polygon(x, y, speck) for x, y in _probe_points(SQUARE))
    assert polygons_overlap(SQUARE, speck)


def test_rasterize_counts_cells_inside():
    grid = OccupancyGrid(4.0, 3.0, 0.1)
    mask = grid.rasterize_polygon([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)])
    # cell centers at 1.05 .. 1.95 on both axes: 10 x 10
    assert mask.bit_count() == 100 and mask & ~grid.packed.cells == 0
    assert grid.free.bit_count() == 40 * 30 - 100


def test_flood_fill_respects_walls():
    grid = OccupancyGrid(3.0, 1.0, 0.1)
    # a full-height wall at x ~ 1.5 splits the corridor
    grid.rasterize_polygon([(1.4, 0.0), (1.6, 0.0), (1.6, 1.0), (1.4, 1.0)])
    mask = grid.flood_fill(grid.cell_of(0.5, 0.5))
    assert mask & grid.packed.bit(grid.cell_of(0.5, 0.5))
    assert not mask & grid.packed.bit(grid.cell_of(2.5, 0.5))
    assert grid.flood_fill((-1, 0)) == 0  # a start off the grid reaches nothing


def test_bresenham_endpoints_and_monotonicity():
    line = list(bresenham((0, 0), (5, 3)))
    assert line[0] == (0, 0) and line[-1] == (5, 3)
    assert all(abs(a[0] - b[0]) <= 1 and abs(a[1] - b[1]) <= 1 for a, b in zip(line, line[1:]))


def test_side_of_quadrants():
    c = (1.0, 1.0)
    assert side_of(c, (1.0, 2.0)) == "north"
    assert side_of(c, (1.0, 0.0)) == "south"
    assert side_of(c, (2.5, 1.2)) == "east"
    assert side_of(c, (-0.5, 0.8)) == "west"


def test_pose_distance():
    assert math.isclose(Pose(0, 0).distance_to(Pose(3, 4)), 5.0)
    assert math.isclose(Pose(1, 1).distance_to((1.0, 2.0)), 1.0)


# --- numpy oracles: the (H, W) boolean layout the packed grid replaced ---------------


def pack(packed, mask):
    """The (H, W) boolean ``mask`` as an int on ``packed``'s layout."""
    padded = np.zeros((packed.height, packed.row), dtype=bool)
    padded[:, : packed.width] = mask
    return int.from_bytes(np.packbits(padded, bitorder="little").tobytes(), "little")


def unpack(packed, bits):
    """The (H, W) boolean mask of the int ``bits``."""
    size = packed.height * packed.row
    raw = np.frombuffer(bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    rows = np.unpackbits(raw, count=size, bitorder="little").reshape(packed.height, packed.row)
    return rows[:, : packed.width].astype(bool)


def dilate8(mask):
    """3x3 box dilation of a boolean mask; nothing wraps around the border."""
    rows = mask.copy()
    rows[1:, :] |= mask[:-1, :]
    rows[:-1, :] |= mask[1:, :]
    out = rows.copy()
    out[:, 1:] |= rows[:, :-1]
    out[:, :-1] |= rows[:, 1:]
    return out


# --- flood fill, BFS distances and sensing against a reference queue BFS --------------

_STEPS8 = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dx, dy) != (0, 0)]


def _neighbors(cell, shape):
    cx, cy = cell
    for dx, dy in _STEPS8:
        nx, ny = cx + dx, cy + dy
        if 0 <= nx < shape[1] and 0 <= ny < shape[0]:
            yield nx, ny


def reference_bfs(passable, start):
    """Cell-by-cell 8-connected BFS: {cell: steps from start}."""
    if not passable[start[1], start[0]]:
        return {}
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        for n in _neighbors(cell, passable.shape):
            if passable[n[1], n[0]] and n not in dist:
                dist[n] = dist[cell] + 1
                queue.append(n)
    return dist


def reference_sense(occ, origin, radius):
    """The sensing scan as a queue: expand free cells inside the disk and
    mark every in-disk neighbour they see."""
    marked = np.zeros(occ.shape, dtype=bool)
    cx0, cy0 = origin
    if occ[cy0, cx0]:
        return marked
    seen = {origin}
    queue = deque([origin])
    marked[cy0, cx0] = True
    while queue:
        for n in _neighbors(queue.popleft(), occ.shape):
            if (n[0] - cx0) ** 2 + (n[1] - cy0) ** 2 > radius**2 or n in seen:
                continue
            seen.add(n)
            marked[n[1], n[0]] = True
            if occ[n[1], n[0]] == 0:
                queue.append(n)
    return marked


@st.composite
def grids(draw, side=14):
    """A random occupancy grid of at most ``side`` cells a side, maybe split
    by a wall with or without a gap, and a start cell that is more often
    than not on an edge or a corner."""
    h = draw(st.integers(1, side))
    w = draw(st.integers(1, side))
    density = draw(st.sampled_from([0.0, 0.2, 0.4, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    occ = (rng.random((h, w)) < density).astype(np.uint8)
    wall = draw(st.sampled_from(["none", "row", "col"]))
    gap = draw(st.booleans())
    if wall == "row" and h > 2:
        y = draw(st.integers(1, h - 2))
        occ[y, :] = 1
        if gap:
            occ[y, draw(st.integers(0, w - 1))] = 0
    elif wall == "col" and w > 2:
        x = draw(st.integers(1, w - 2))
        occ[:, x] = 1
        if gap:
            occ[draw(st.integers(0, h - 1)), x] = 0
    place = draw(st.sampled_from(["corner", "edge", "any"]))
    if place == "corner":
        start = (draw(st.sampled_from([0, w - 1])), draw(st.sampled_from([0, h - 1])))
    elif place == "edge":
        start = (draw(st.integers(0, w - 1)), draw(st.sampled_from([0, h - 1])))
        if draw(st.booleans()):
            start = (draw(st.sampled_from([0, w - 1])), draw(st.integers(0, h - 1)))
    else:
        start = (draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)))
    if draw(st.booleans()):
        occ[start[1], start[0]] = 0
    return occ, start, rng


def _grid_of(occ):
    grid = OccupancyGrid(occ.shape[1], occ.shape[0], 1.0)
    grid.free = pack(grid.packed, occ == 0)
    return grid


def numpy_flood_fill(occ, start):
    """Boolean mask of the free cells 8-connected to ``start``."""
    mask = np.zeros(occ.shape, dtype=bool)
    for cx, cy in reference_bfs(occ == 0, start):
        mask[cy, cx] = True
    return mask


@settings(max_examples=300, deadline=None)
@given(grids())
def test_flood_fill_matches_reference_bfs(case):
    occ, start, _ = case
    grid = _grid_of(occ)
    assert np.array_equal(unpack(grid.packed, grid.flood_fill(start)), numpy_flood_fill(occ, start))


@settings(max_examples=300, deadline=None)
@given(grids(), st.sampled_from([0.0, 0.02, 0.1, 0.5]))
def test_bfs_distances_stop_at_first_target_layer(case, target_density):
    occ, start, rng = case
    passable = (occ == 0) & (rng.random(occ.shape) < 0.9)
    targets = rng.random(occ.shape) < target_density
    reference = reference_bfs(passable, start)
    hits = [d for (cx, cy), d in reference.items() if targets[cy, cx]]
    last = min(hits) if hits else math.inf
    expected = np.full(occ.shape, -1)
    for (cx, cy), d in reference.items():
        if d <= last:
            expected[cy, cx] = d
    assert np.array_equal(layer_distances(passable, start, targets), expected)


@settings(max_examples=200, deadline=None)
@given(grids(), st.integers(0, 9))
def test_sense_marks_what_the_queue_scan_marked(case, radius):
    occ, origin, _ = case
    packed = PackedGrid(*occ.shape)
    known, _ = _sense(packed, pack(packed, occ == 0), 0, origin, radius)
    explored = unpack(packed, known)
    assert np.array_equal(explored, reference_sense(occ, origin, radius))


@st.composite
def searches(draw):
    """A random passable mask, start bits (one cell, often on the first or
    the last row, or a scattered few, some of them blocked) and a sparse
    goal mask."""
    occ, start, rng = draw(grids(side=20))
    h, w = occ.shape
    packed = PackedGrid(h, w)
    passable = pack(packed, occ == 0)
    kind = draw(st.sampled_from(["first row", "last row", "scattered", "drawn"]))
    if kind == "scattered":
        bits = pack(packed, rng.random((h, w)) < 0.05)
    else:
        if kind != "drawn":
            start = (start[0], 0 if kind == "first row" else h - 1)
        bits = packed.bit(start)
    goal = pack(packed, rng.random((h, w)) < draw(st.sampled_from([0.0, 0.02, 0.2])))
    return packed, passable, bits, goal, draw(st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(searches())
def test_reach_and_nearest_match_the_layers_generator(case):
    packed, passable, start, goal, drawn = case
    layers = list(packed.layers(passable, start))
    for keep in {0, 1, drawn, len(layers) - 1, len(layers), len(layers) + 3} - {-1}:
        # a keep at or past len(layers) is a depth the search ends before
        assert packed.reach(passable, start, keep) == (
            reduce(or_, layers, 0), layers[keep] if keep < len(layers) else 0
        ), keep
    to_goal = list(packed.layers(passable, start, goal))
    assert packed.nearest(passable, start, goal) == (to_goal[-1] & goal if to_goal else 0)


def unbanded_sense(packed, free, explored, origin, radius):
    """``_sense`` on the whole grid, over the layers generator."""
    disk = packed.disk(origin, radius)
    depth = math.isqrt(radius * radius // 2)
    seen = rim = 0
    for d, layer in enumerate(packed.layers(free & disk, packed.bit(origin))):
        if d == depth:
            rim = layer
        seen |= layer
    return explored | seen | (packed.dilate8(seen) & disk), rim


@settings(max_examples=300, deadline=None)
@given(grids(side=32), st.integers(0, 2), st.sampled_from(SIDES), st.integers(0, 40), st.data())
def test_the_banded_sense_matches_the_unbanded_scan_near_every_grid_edge(case, inset, edge, radius, data):
    # an origin ``inset`` cells in from one edge, so the disk is clipped there
    occ, _, rng = case
    h, w = occ.shape
    x, y = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1))
    origin = {
        "south": (x, min(inset, h - 1)),
        "north": (x, max(h - 1 - inset, 0)),
        "west": (min(inset, w - 1), y),
        "east": (max(w - 1 - inset, 0), y),
    }[edge]
    packed = PackedGrid(h, w)
    free, explored = pack(packed, occ == 0), pack(packed, rng.random((h, w)) < 0.2)
    assert _sense(packed, free, explored, origin, radius) == unbanded_sense(packed, free, explored, origin, radius)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 45), st.data())
def test_packed_disk_is_the_disk_clipped_to_the_grid(h, w, radius, data):
    # radii past the grid's width are where a row of the disk could wrap
    center = (data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1)))
    packed = PackedGrid(h, w)
    ys, xs = np.ogrid[0:h, 0:w]
    disk = packed.disk(center, radius)
    assert disk & ~packed.cells == 0
    assert np.array_equal(unpack(packed, disk), (xs - center[0]) ** 2 + (ys - center[1]) ** 2 <= radius**2)


# --- the packed frontier sweep against the numpy sweep it replaced --------------------
# numpy_sense, numpy_frontiers and numpy_sweep are perception's _sense, _frontiers
# and _sweep as they were on numpy masks, with int32 BFS distances and a lexsort;
# both read the queue BFS.


def numpy_sense(world, explored, origin_cell):
    """Mark cells visible from the origin: free cells connected to it within
    the sensing radius, plus the occupied surfaces bordering them. Occlusion
    falls out of connectivity — the scan cannot pass through furniture, so a
    walled-off region stays unexplored."""
    if not world.grid.free & world.grid.packed.bit(origin_cell):
        return
    radius = int(world.config.sensing_radius / world.config.grid_resolution)
    cx0, cy0 = origin_cell
    x0, y0 = max(0, cx0 - radius), max(0, cy0 - radius)
    x1, y1 = min(world.grid.width, cx0 + radius + 1), min(world.grid.height, cy0 + radius + 1)
    ys, xs = np.ogrid[y0:y1, x0:x1]
    disk = (xs - cx0) ** 2 + (ys - cy0) ** 2 <= radius**2
    free = world.occ[y0:y1, x0:x1] == 0
    seen = np.zeros(free.shape, dtype=bool)
    for cx, cy in reference_bfs(free & disk, (cx0 - x0, cy0 - y0)):
        seen[cy, cx] = True
    explored[y0:y1, x0:x1] |= seen | (dilate8(seen) & disk)


def numpy_frontiers(world, explored):
    """Mask of explored free cells bordering at least one unexplored cell."""
    unexplored = ~explored
    border = np.zeros_like(explored)
    border[:-1, :] |= unexplored[1:, :]
    border[1:, :] |= unexplored[:-1, :]
    border[:, :-1] |= unexplored[:, 1:]
    border[:, 1:] |= unexplored[:, :-1]
    return explored & (world.occ == 0) & border


def numpy_sweep(world, explored):
    """Frontier loop: sense, then repeatedly drive to the nearest frontier
    cell and sense, until no frontier remains among reachable cells. Grows
    ``explored`` in place and returns where the robot ended, or None when it
    never moved."""
    numpy_sense(world, explored, world.robot_cell())
    end = None
    free = world.occ == 0
    guard = world.grid.width * world.grid.height + 8
    for _ in range(guard):
        frontiers = numpy_frontiers(world, explored)
        if not frontiers.any():
            return end
        dist = reference_distances(free & explored, world.robot_cell(), frontiers)
        ys, xs = np.nonzero(frontiers & (dist >= 0))
        if len(xs) == 0:
            remaining = free & unpack(world.grid.packed, world.reachable) & ~explored
            if remaining.any():
                raise ExplorationStalled(
                    f"{int(remaining.sum())} reachable cells unexplored but no frontier reachable"
                )
            return end
        # nearest first, then lowest (cx, cy)
        i = np.lexsort((ys, xs, dist[ys, xs]))[0]
        target = (int(xs[i]), int(ys[i]))
        end = world.grid.center_of(target)
        world.robot = type(world.robot)(end[0], end[1], world.robot.heading)
        numpy_sense(world, explored, target)
    raise ExplorationStalled("frontier loop exceeded the cell-count bound")


class SweepWorld:
    """What a sweep reads of a World, with every robot pose it is given
    recorded as a hop."""

    def __init__(self, occ, start, radius):
        self.occ = occ
        self.grid = _grid_of(occ)
        self.config = SimpleNamespace(sensing_radius=radius, grid_resolution=1.0)
        self.reachable = self.grid.flood_fill(start)
        self.hops = []
        self._robot = Pose(*self.grid.center_of(start), 0.25)

    @property
    def robot(self):
        return self._robot

    @robot.setter
    def robot(self, pose):
        self.hops.append((pose.x, pose.y, pose.heading))
        self._robot = pose

    def robot_cell(self):
        return self.grid.cell_of(self._robot.x, self._robot.y)


def packed_sweep(world, explored):
    """``_sweep`` on a numpy mask, grown in place."""
    known, end = _sweep(world, pack(world.grid.packed, explored))
    explored[...] = unpack(world.grid.packed, known)
    return end


def run_sweep(sweep, occ, start, radius, explored):
    """The sweep's end, its explored mask (None after a stall: a stalled
    sweep's map is dropped) and its hops."""
    world = SweepWorld(occ, start, radius)
    explored = explored.copy()
    try:
        outcome = sweep(world, explored)
    except ExplorationStalled as e:
        outcome, explored = ("stalled", str(e)), None
    return outcome, explored, world.hops


@settings(max_examples=200, deadline=None)
@given(grids(), st.integers(0, 9), st.sampled_from([0.0, 0.1, 0.5]))
def test_packed_sweep_matches_the_numpy_sweep(case, radius, explored_density):
    occ, start, rng = case
    explored = rng.random(occ.shape) < explored_density
    packed = run_sweep(packed_sweep, occ, start, radius, explored)
    reference = run_sweep(numpy_sweep, occ, start, radius, explored)
    assert packed[0] == reference[0]  # end position, or the same stall
    if packed[1] is not None:
        assert np.array_equal(packed[1], reference[1])  # explored mask
    assert packed[2] == reference[2]  # hop targets, in order


def test_a_sweep_with_frontiers_but_none_reachable_stalls_as_the_numpy_sweep_does():
    # (0, 1) is explored beforehand and borders an unexplored cell, but the
    # robot at (2, 0) reaches it only through the unexplored (1, 1)
    occ = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.uint8)
    explored = np.array([[0, 1, 0], [1, 0, 0]], dtype=bool)
    packed = run_sweep(packed_sweep, occ, (2, 0), 1, explored)
    assert packed == (("stalled", "2 reachable cells unexplored but no frontier reachable"), None, [])
    assert run_sweep(numpy_sweep, occ, (2, 0), 1, explored) == packed


# --- the frontier search resumes from the sensing scan's layer d ---------------------


@settings(max_examples=200, deadline=None)
@given(grids(side=32), st.integers(0, 20), st.sampled_from([0.0, 0.1, 0.5]))
def test_the_frontier_search_grows_the_scans_first_layers_and_meets_no_frontier_before_d(case, radius, density):
    # every cell within d = isqrt(r*r // 2) steps of the origin is in the disk
    occ, origin, rng = case
    packed = PackedGrid(*occ.shape)
    free, start = pack(packed, occ == 0), packed.bit(origin)
    depth = math.isqrt(radius * radius // 2)
    known, rim = _sense(packed, free, pack(packed, rng.random(occ.shape) < density), origin, radius)
    scan = list(islice(packed.layers(free & packed.disk(origin, radius), start), depth + 1))
    assert list(islice(packed.layers(free & known, start), depth + 1)) == scan
    frontiers = pack(packed, numpy_frontiers(SimpleNamespace(occ=occ), unpack(packed, known)))
    assert not frontiers & reduce(or_, scan[:depth], 0)
    if len(scan) > depth:
        assert rim == scan[depth]
    else:  # the scan stopped short of depth d: the origin's component has no frontier
        assert rim == 0 and not frontiers & reduce(or_, scan, 0)


def two_search_sweep(world, known):
    """``_sweep`` as it was before its frontier search resumed from the
    scan: each hop searches again from the robot's cell over every explored
    free cell."""
    grid = world.grid
    packed, free = grid.packed, grid.free
    row = packed.row
    radius = int(world.config.sensing_radius / world.config.grid_resolution)
    known = _sense(packed, free, known, world.robot_cell(), radius)[0]
    end = None
    for _ in range(grid.width * grid.height + 8):
        unexplored = packed.cells ^ known
        frontiers = known & free & (unexplored << 1 | unexplored >> 1 | unexplored << row | unexplored >> row)
        if not frontiers:
            return known, end
        nearest = packed.nearest(free & known, packed.bit(world.robot_cell()), frontiers)
        if not nearest:
            remaining = (free & world.reachable & ~known).bit_count()
            if remaining:
                raise ExplorationStalled(f"{remaining} reachable cells unexplored but no frontier reachable")
            return known, end
        target = packed.first_cell(nearest)  # nearest first, then lowest (cx, cy)
        end = grid.center_of(target)
        world.robot = type(world.robot)(end[0], end[1], world.robot.heading)
        known = _sense(packed, free, known, target, radius)[0]
    raise ExplorationStalled("frontier loop exceeded the cell-count bound")


class LayoutSweepWorld(SweepWorld):
    """A ``SweepWorld`` on a scene's rasterised layout, at the robot start."""

    def __init__(self, config, sensing_radius):
        geometry = scene_geometry(config)
        self.grid = geometry.grid
        self.config = SimpleNamespace(sensing_radius=sensing_radius, grid_resolution=config.grid_resolution)
        self.reachable = geometry.reachable
        self.hops = []
        self._robot = Pose(config.robot_start.x, config.robot_start.y, 0.25)


def test_the_resumed_sweep_matches_the_two_search_sweep_on_generated_layouts():
    from perfbench.workloads import WORKLOADS

    hops = 0
    for workload in ("apartments", "long_horizon"):
        for seed in range(3):
            for doc in WORKLOADS[workload].docs(seed, 0):
                config = parse_config(doc["scene"])
                packed = scene_geometry(config).grid.packed
                rng = np.random.default_rng(doc["seed"])
                partial = pack(packed, rng.random((packed.height, packed.width)) < 0.3)
                for radius in (config.sensing_radius, 1.5):
                    for explored in (0, partial):
                        runs = []
                        for sweep in (_sweep, two_search_sweep):
                            world = LayoutSweepWorld(config, radius)
                            try:
                                outcome = sweep(world, explored)
                            except ExplorationStalled as e:
                                outcome = ("stalled", str(e))
                            runs.append((outcome, world.hops))  # explored mask and end, or the stall; hops
                        assert runs[0] == runs[1], (doc["name"], radius, bool(explored))
                        hops += len(runs[0][1])
    assert hops > 1000


# --- BFS layers: packed row widths, strips, apartment-sized and long searches --------


def reference_distances(passable, start, targets=None):
    """BFS distances from the queue BFS: -1 where unreached or beyond the
    first layer that holds a target, or everywhere from an off-grid start."""
    h, w = passable.shape
    expected = np.full((h, w), -1, dtype=np.int32)
    if not (0 <= start[0] < w and 0 <= start[1] < h):
        return expected
    reference = reference_bfs(passable, start)
    hits = [d for (cx, cy), d in reference.items() if targets is not None and targets[cy, cx]]
    last = min(hits) if hits else math.inf
    for (cx, cy), d in reference.items():
        if d <= last:
            expected[cy, cx] = d
    return expected


def layer_distances(passable, start, targets=None):
    """``PackedGrid.layers`` from ``start`` as distances: d on the cells of
    layer d, -1 elsewhere. An off-grid start has no bit and reaches nothing."""
    h, w = passable.shape
    packed = PackedGrid(h, w)
    dist = np.full((h, w), -1, dtype=np.int32)
    start_bit = packed.bit(start) if 0 <= start[0] < w and 0 <= start[1] < h else 0
    goal = 0 if targets is None else pack(packed, targets)
    for d, layer in enumerate(packed.layers(pack(packed, passable), start_bit, goal)):
        dist[unpack(packed, layer)] = d
    return dist


def assert_bfs_distances_match(passable, start, targets=None):
    dist = layer_distances(passable, start, targets)
    assert np.array_equal(dist, reference_distances(passable, start, targets))
    return dist


@st.composite
def packed_cases(draw):
    """A mask whose row width puts the guard bit on a byte or 64-bit word
    boundary (W + 1 = 8, 16, 64) or next to one, a 1xN or Nx1 strip, a start
    anywhere within two cells of the grid, and maybe a sparse target mask."""
    h, w = draw(st.sampled_from([(1, 1), (1, 63), (1, 64), (63, 1), (64, 1), (5, 7), (9, 15),
                                 (3, 63), (2, 64), (7, 8), (16, 16)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    passable = rng.random((h, w)) >= draw(st.sampled_from([0.0, 0.15, 0.3]))
    start = (draw(st.integers(-2, w + 1)), draw(st.integers(-2, h + 1)))
    targets = rng.random((h, w)) < 0.02 if draw(st.booleans()) else None
    return passable, start, targets


@settings(max_examples=150, deadline=None)
@given(packed_cases())
def test_bfs_distances_match_reference_across_packed_row_widths(case):
    assert_bfs_distances_match(*case)


def walled_apartment(seed, h=80, w=100):
    """An apartment-sized mask: outer walls, an interior wall with one
    doorway, and scattered blocked cells."""
    rng = np.random.default_rng(seed)
    passable = rng.random((h, w)) >= 0.1
    passable[[0, -1], :] = passable[:, [0, -1]] = False
    wall = int(rng.integers(w // 3, 2 * w // 3))
    passable[:, wall] = False
    door = int(rng.integers(2, h - 12))
    passable[door : door + 10, wall] = True
    return passable


def test_bfs_distances_match_reference_on_apartment_sized_grids():
    for seed in range(3):
        passable = walled_apartment(seed)
        free = np.argwhere(passable)
        cy, cx = free[len(free) // 5]
        dist = assert_bfs_distances_match(passable, (int(cx), int(cy)))
        assert dist.max() > 60
        far = dist == dist.max()
        assert_bfs_distances_match(passable, (int(cx), int(cy)), far)


def test_bfs_distances_count_past_255_along_a_serpentine():
    # walls on every other row, each open at alternating ends: one corridor
    # folded 30 times, so distances pass 511
    h, w = 61, 40
    passable = np.ones((h, w), dtype=bool)
    for i, y in enumerate(range(1, h, 2)):
        passable[y, :] = False
        passable[y, w - 1 if i % 2 == 0 else 0] = True
    dist = assert_bfs_distances_match(passable, (0, 0))
    assert dist.max() > 511
    targets = np.zeros_like(passable)
    targets[h - 1, 5] = True
    assert assert_bfs_distances_match(passable, (0, 0), targets).max() > 255


def test_bfs_distances_from_an_off_grid_or_blocked_start_reach_nothing():
    passable = np.ones((9, 15), dtype=bool)
    passable[:, 7] = False
    passable[4, 7] = True
    for start in [(-1, 4), (15, 4), (4, -1), (4, 9), (-1, -1), (15, 9), (7, 0), (7, 8)]:
        dist = assert_bfs_distances_match(passable, start)
        assert (dist == -1).all()
    # a start bit on a row's guard or past the last row meets no passable cell
    packed = PackedGrid(9, 15)
    for start in [(15, 0), (15, 4), (15, 8), (0, 9), (14, 9)]:
        assert list(packed.layers(pack(packed, passable), packed.bit(start))) == []
    # OccupancyGrid.bfs_distances is the same layers, and none off the grid
    grid = _grid_of((~passable).astype(np.uint8))
    assert grid.bfs_distances((3, 3), grid.free, 0) == list(grid.packed.layers(grid.free, grid.packed.bit((3, 3))))
    assert grid.bfs_distances((-1, 4), grid.free, 0) == grid.bfs_distances((15, 4), grid.free, 0) == []


# --- polygon rasterisation against the per-cell crossing test ------------------------


def rasterize_by_point(grid, poly):
    """``rasterize_polygon`` as a per-cell loop over ``point_in_polygon``."""
    minx, miny, maxx, maxy = polygon_bbox(poly)
    c0x, c0y = grid.cell_of(minx, miny)
    c1x, c1y = grid.cell_of(maxx, maxy)
    cells = set()
    for cy in range(c0y, c1y + 1):
        for cx in range(c0x, c1x + 1):
            if point_in_polygon(*grid.center_of((cx, cy)), poly):
                grid.free &= ~grid.packed.bit((cx, cy))
                cells.add((cx, cy))
    return cells


@st.composite
def polygons(draw):
    """A room, a resolution, and either an axis-aligned box whose edges lie on
    multiples of 0.05 m (so cell centres fall on its edges) or a star-shaped
    ring that may reach past the room, with vertices maybe snapped to 0.05 m."""
    res = draw(st.sampled_from([0.05, 0.1, 0.25]))
    room = (draw(st.integers(5, 60)) * 0.1, draw(st.integers(5, 60)) * 0.1)
    if draw(st.booleans()):
        xs = sorted(draw(st.integers(-5, int(room[0] / 0.05) + 5)) * 0.05 for _ in range(2))
        ys = sorted(draw(st.integers(-5, int(room[1] / 0.05) + 5)) * 0.05 for _ in range(2))
        return room, res, [(xs[0], ys[0]), (xs[1], ys[0]), (xs[1], ys[1]), (xs[0], ys[1])]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(3, 8))
    angles = np.sort(rng.uniform(0.0, 2 * math.pi, k))
    radii = rng.uniform(0.1, 2.0, k)
    cx, cy = rng.uniform(0.0, room[0]), rng.uniform(0.0, room[1])
    poly = [(float(cx + r * math.cos(a)), float(cy + r * math.sin(a))) for a, r in zip(angles, radii)]
    if draw(st.booleans()):
        poly = [(round(x / 0.05) * 0.05, round(y / 0.05) * 0.05) for x, y in poly]
    return room, res, poly


@settings(max_examples=200, deadline=None)
@given(polygons())
def test_rasterize_polygon_marks_what_point_in_polygon_marks(case):
    room, res, poly = case
    grid, reference = OccupancyGrid(*room, res), OccupancyGrid(*room, res)
    mask = grid.rasterize_polygon(poly)
    expected = rasterize_by_point(reference, poly)
    assert set(grid.packed.iter_cells(mask)) == expected and mask & ~grid.packed.cells == 0
    assert grid.free == reference.free


def numpy_rasterize(grid, poly):
    """``rasterize_polygon`` as it was on a numpy grid: the crossing test over
    every cell center of the bounding box at once. Returns the cells and the
    (H, W) occupancy."""
    occ = np.zeros((grid.height, grid.width), dtype=np.uint8)
    minx, miny, maxx, maxy = polygon_bbox(poly)
    c0x, c0y = grid.cell_of(minx, miny)
    c1x, c1y = grid.cell_of(maxx, maxy)
    x = (np.arange(c0x, c1x + 1) + 0.5) * grid.resolution
    y = ((np.arange(c0y, c1y + 1) + 0.5) * grid.resolution)[:, None]
    odd = np.zeros((y.size, x.size), dtype=bool)
    on_edge = np.zeros_like(odd)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        if y0 == y1:
            continue  # no center row crosses a horizontal edge
        crosses = (y0 > y) != (y1 > y)
        # t on the rows the edge crosses, where it lies in [0, 1]; 0 on the
        # others, whose t can overflow on a near-horizontal edge
        t = np.divide(y - y0, y1 - y0, out=np.zeros_like(y), where=crosses)
        xi = x0 + t * (x1 - x0)
        left = x < xi
        odd ^= crosses & left
        on_edge |= crosses & ~left & (np.abs(x - xi) < 1e-12)
    inside = odd | on_edge
    occ[c0y : c1y + 1, c0x : c1x + 1][inside] = 1
    rows, cols = np.nonzero(inside)
    return {(c0x + cx, c0y + cy) for cy, cx in zip(rows.tolist(), cols.tolist())}, occ


@st.composite
def lattice_polygons(draw):
    """A resolution in 0.05-0.25 m, a room of 4-30 cells a side, and a ring
    of 3-7 vertices (or an axis-aligned box) that may reach past the room.
    Each coordinate lies on a cell centre, on a cell edge, or anywhere; the
    lattice values repeat, so rings get horizontal and vertical edges."""
    res = draw(st.sampled_from([0.05, 0.07, 0.1, 0.125, 0.15, 0.2, 0.25]))
    w, h = draw(st.integers(4, 30)), draw(st.integers(4, 30))

    def coord(cells):
        k = draw(st.integers(-2, cells + 1))
        kind = draw(st.sampled_from(["centre", "edge", "any"]))
        if kind == "centre":
            return (k + 0.5) * res
        if kind == "edge":
            return k * res
        return draw(st.floats(-2 * res, (cells + 2) * res))

    if draw(st.booleans()):
        (x0, x1), (y0, y1) = sorted((coord(w), coord(w))), sorted((coord(h), coord(h)))
        ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    else:
        ring = [(coord(w), coord(h)) for _ in range(draw(st.integers(3, 7)))]
    return (w * res, h * res), res, ring


@settings(max_examples=200, deadline=None)
@given(lattice_polygons())
def test_scanline_rasteriser_matches_the_numpy_one(case):
    room, res, poly = case
    grid = OccupancyGrid(*room, res)
    mask = grid.rasterize_polygon(poly)
    expected, occ = numpy_rasterize(OccupancyGrid(*room, res), poly)
    assert set(grid.packed.iter_cells(mask)) == expected and mask & ~grid.packed.cells == 0
    assert grid.free == pack(grid.packed, occ == 0)


def approach_layouts():
    """The bundled scenes and one unit of generated ``apartments`` scenes."""
    from perfbench.workloads import WORKLOADS

    scenes = resources.files("homeloop").joinpath("data/scenes")
    docs = [json.loads(p.read_text("utf-8")) for p in sorted(scenes.iterdir(), key=lambda p: p.name)]
    return docs + [doc["scene"] for doc in WORKLOADS["apartments"].docs(0, 0)]


def test_approach_cells_are_the_same_whichever_side_is_asked_for_first():
    sides = (None, *SIDES)
    split = 0
    for doc in approach_layouts():
        config = parse_config(doc)
        args = (tuple(config.room), config.grid_resolution,
                tuple((f.id, tuple(map(tuple, f.footprint))) for f in config.furniture),
                (config.robot_start.x, config.robot_start.y))
        for f in config.furniture:
            answers = []
            for first in sides:
                geometry = SceneGeometry(*args)  # a fresh one, so ``first`` is its first request
                answers.append({side: geometry.approach_cells(f.id, side) for side in (first, *sides)})
            assert all(answer == answers[0] for answer in answers), (doc["name"], f.id)
            cells = answers[0][None]
            assert sorted(c for side in SIDES for c in answers[0][side]) == list(cells)
            split += len(cells) > 0
    assert split > 20


def workload_scene_docs():
    """Every bundled scene, and the generated scenes of the benchmark's
    ``apartments`` and ``long_horizon`` workloads at seeds 0-9, units 0-2."""
    from perfbench.workloads import WORKLOADS

    scenes = resources.files("homeloop").joinpath("data/scenes")
    docs = [json.loads(p.read_text("utf-8")) for p in sorted(scenes.iterdir(), key=lambda p: p.name)]
    for workload in ("apartments", "long_horizon"):
        for seed in range(10):
            for unit in range(3):
                docs += [doc["scene"] for doc in WORKLOADS[workload].docs(seed, unit)]
    return docs


def test_footprint_masks_are_the_point_in_polygon_cells_on_the_grid_and_disjoint():
    at_edges = [0, 0]  # masks with a cell in column 0, and in the last column
    for doc in workload_scene_docs():
        config = parse_config(doc)
        geometry = scene_geometry(config)
        packed = geometry.grid.packed
        masks = []
        for f in config.furniture:
            mask = geometry.footprint_cells[f.id]
            expected = rasterize_by_point(OccupancyGrid(*config.room, config.grid_resolution), f.footprint)
            assert set(packed.iter_cells(mask)) == expected, (doc["name"], f.id)
            assert mask & ~packed.cells == 0, (doc["name"], f.id)  # no guard bit, no cell off the grid
            assert all(mask & other == 0 for other in masks), (doc["name"], f.id)
            masks.append(mask)
            at_edges[0] += bool(mask & packed.column0)
            at_edges[1] += bool(mask & packed.column0 << (packed.width - 1))
    assert min(at_edges) > 0
