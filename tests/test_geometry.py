from __future__ import annotations

import math
from collections import deque
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from homeloop.geometry import (
    OccupancyGrid,
    Pose,
    bresenham,
    point_in_polygon,
    polygon_bbox,
    polygon_centroid,
    polygons_overlap,
    side_of,
)
from homeloop.perception import _sense

SQUARE = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]


def test_centroid_and_bbox_of_square():
    assert polygon_centroid(SQUARE) == (1.0, 1.0)
    assert polygon_bbox(SQUARE) == (0.0, 0.0, 2.0, 2.0)


def test_point_in_polygon():
    assert point_in_polygon(1.0, 1.0, SQUARE)
    assert not point_in_polygon(2.5, 1.0, SQUARE)
    assert not point_in_polygon(-0.1, -0.1, SQUARE)


def test_polygons_overlap_and_disjoint():
    shifted = [(3.0, 0.0), (5.0, 0.0), (5.0, 2.0), (3.0, 2.0)]
    touching = [(1.5, 1.5), (3.5, 1.5), (3.5, 3.5), (1.5, 3.5)]
    assert not polygons_overlap(SQUARE, shifted)
    assert polygons_overlap(SQUARE, touching)


def test_rasterize_counts_cells_inside():
    grid = OccupancyGrid(4.0, 3.0, 0.1)
    cells = grid.rasterize_polygon([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)])
    # cell centers at 1.05 .. 1.95 on both axes: 10 x 10
    assert len(cells) == 100
    assert grid.occ.sum() == 100


def test_flood_fill_respects_walls():
    grid = OccupancyGrid(3.0, 1.0, 0.1)
    # a full-height wall at x ~ 1.5 splits the corridor
    grid.rasterize_polygon([(1.4, 0.0), (1.6, 0.0), (1.6, 1.0), (1.4, 1.0)])
    mask = grid.flood_fill(grid.cell_of(0.5, 0.5))
    assert mask[grid.cell_of(0.5, 0.5)[1], grid.cell_of(0.5, 0.5)[0]]
    right = grid.cell_of(2.5, 0.5)
    assert not mask[right[1], right[0]]


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


# --- the numpy wavefront against a reference queue BFS -------------------------------

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
def grids(draw):
    """A random occupancy grid, maybe split by a wall with or without a gap,
    and a start cell that is more often than not on an edge or a corner."""
    h = draw(st.integers(1, 14))
    w = draw(st.integers(1, 14))
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
    grid.occ = occ
    return grid


@settings(max_examples=300, deadline=None)
@given(grids())
def test_flood_fill_matches_reference_bfs(case):
    occ, start, _ = case
    expected = np.zeros(occ.shape, dtype=bool)
    for cx, cy in reference_bfs(occ == 0, start):
        expected[cy, cx] = True
    assert np.array_equal(_grid_of(occ).flood_fill(start), expected)


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
    dist = _grid_of(occ).bfs_distances(start, passable, targets)
    assert dist.dtype == np.int32
    assert np.array_equal(dist, expected)


@settings(max_examples=200, deadline=None)
@given(grids(), st.integers(0, 9))
def test_sense_marks_what_the_queue_scan_marked(case, radius):
    occ, origin, _ = case
    world = SimpleNamespace(grid=_grid_of(occ), config=SimpleNamespace(sensing_radius=radius, grid_resolution=1.0))
    explored = np.zeros(occ.shape, dtype=bool)
    _sense(world, explored, origin)
    assert np.array_equal(explored, reference_sense(occ, origin, radius))
