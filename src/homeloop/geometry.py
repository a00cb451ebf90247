"""2D geometry and occupancy-grid primitives.

The world is top-down: poses are (x, y, heading) in meters/radians, footprints
are simple polygons, and the room is rasterized onto a uint8 occupancy grid
(0 = free, 1 = occupied). Grid search is a numpy wavefront: an 8-connected BFS
grown one layer per 3x3 dilation, so a cell's distance is the index of the
layer that first reaches it (int32, -1 = unreached). All grid work is
deterministic; ties in cell selection always break by lowest (col, row)
lexicographic order on cell coordinates expressed as (cx, cy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

Cell = tuple[int, int]  # (cx, cy) column/row indices


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    heading: float = 0.0

    def distance_to(self, other: "Pose" | tuple[float, float]) -> float:
        ox, oy = (other.x, other.y) if isinstance(other, Pose) else other
        return math.hypot(self.x - ox, self.y - oy)


def polygon_bbox(poly: Sequence[tuple[float, float]]) -> tuple[float, float, float, float]:
    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]
    return min(xs), min(ys), max(xs), max(ys)


def polygon_half_extent(poly: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Half the width and half the height of the polygon's bounding box."""
    minx, miny, maxx, maxy = polygon_bbox(poly)
    return (maxx - minx) / 2.0, (maxy - miny) / 2.0


def polygon_centroid(poly: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Area-weighted centroid; falls back to vertex mean for degenerate rings."""
    area = 0.0
    cx = 0.0
    cy = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        cross = x0 * y1 - x1 * y0
        area += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    if abs(area) < 1e-12:
        return (sum(p[0] for p in poly) / n, sum(p[1] for p in poly) / n)
    area *= 0.5
    return cx / (6.0 * area), cy / (6.0 * area)


def point_in_polygon(x: float, y: float, poly: Sequence[tuple[float, float]]) -> bool:
    """Ray-casting test; points on the boundary count as inside."""
    inside = False
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        if (y0 > y) != (y1 > y):
            t = (y - y0) / (y1 - y0)
            xi = x0 + t * (x1 - x0)
            if x < xi:
                inside = not inside
            elif abs(x - xi) < 1e-12:
                return True
    return inside


def polygons_overlap(
    a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]], probe: float = 0.02
) -> bool:
    """Approximate polygon intersection test: bounding-box rejection, then
    mutual dense probing. Good enough for axis-aligned-ish furniture."""
    a0x, a0y, a1x, a1y = polygon_bbox(a)
    b0x, b0y, b1x, b1y = polygon_bbox(b)
    if a1x < b0x or b1x < a0x or a1y < b0y or b1y < a0y:
        return False
    for x, y in _probe_points(a, probe):
        if point_in_polygon(x, y, b):
            return True
    for x, y in _probe_points(b, probe):
        if point_in_polygon(x, y, a):
            return True
    return False


def _probe_points(poly: Sequence[tuple[float, float]], step: float) -> Iterator[tuple[float, float]]:
    minx, miny, maxx, maxy = polygon_bbox(poly)
    nx = max(2, int((maxx - minx) / step) + 1)
    ny = max(2, int((maxy - miny) / step) + 1)
    for i in range(nx + 1):
        for j in range(ny + 1):
            x = minx + (maxx - minx) * i / nx
            y = miny + (maxy - miny) * j / ny
            if point_in_polygon(x, y, poly):
                yield x, y


_NEIGHBORS8 = ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1))


def dilate8(mask: np.ndarray) -> np.ndarray:
    """3x3 box dilation of a boolean mask; nothing wraps around the border."""
    rows = mask.copy()
    rows[1:, :] |= mask[:-1, :]
    rows[:-1, :] |= mask[1:, :]
    out = rows.copy()
    out[:, 1:] |= rows[:, :-1]
    out[:, :-1] |= rows[:, 1:]
    return out


def wavefront(passable: np.ndarray, start: Cell, targets: Optional[np.ndarray] = None) -> np.ndarray:
    """8-connected BFS from ``start`` over ``passable`` cells, one layer per
    dilation. Returns int32 step distances, -1 where unreached. With
    ``targets``, growth stops after the first layer that contains a target."""
    dist = np.full(passable.shape, -1, dtype=np.int32)
    cx, cy = start
    if not (0 <= cy < passable.shape[0] and 0 <= cx < passable.shape[1] and passable[cy, cx]):
        return dist
    layer = np.zeros(passable.shape, dtype=bool)
    layer[cy, cx] = True
    unreached = passable.copy()
    d = 0
    while layer.any():
        dist[layer] = d
        if targets is not None and (layer & targets).any():
            break
        unreached &= ~layer
        layer = dilate8(layer) & unreached
        d += 1
    return dist


class OccupancyGrid:
    """Rasterized room: ``occ[cy, cx]`` is 1 where furniture stands."""

    def __init__(self, width_m: float, height_m: float, resolution: float) -> None:
        self.resolution = resolution
        self.width = max(1, int(round(width_m / resolution)))
        self.height = max(1, int(round(height_m / resolution)))
        self.occ = np.zeros((self.height, self.width), dtype=np.uint8)

    # -- coordinate transforms ------------------------------------------------

    def cell_of(self, x: float, y: float) -> Cell:
        cx = min(self.width - 1, max(0, int(x / self.resolution)))
        cy = min(self.height - 1, max(0, int(y / self.resolution)))
        return cx, cy

    def center_of(self, cell: Cell) -> tuple[float, float]:
        cx, cy = cell
        return (cx + 0.5) * self.resolution, (cy + 0.5) * self.resolution

    def in_bounds(self, cell: Cell) -> bool:
        cx, cy = cell
        return 0 <= cx < self.width and 0 <= cy < self.height

    def is_free(self, cell: Cell) -> bool:
        cx, cy = cell
        return self.in_bounds(cell) and self.occ[cy, cx] == 0

    # -- rasterization ---------------------------------------------------------

    def rasterize_polygon(self, poly: Sequence[tuple[float, float]]) -> set[Cell]:
        """Mark all cells whose center lies inside the polygon; returns them."""
        minx, miny, maxx, maxy = polygon_bbox(poly)
        c0x, c0y = self.cell_of(minx, miny)
        c1x, c1y = self.cell_of(maxx, maxy)
        cells: set[Cell] = set()
        for cy in range(c0y, c1y + 1):
            for cx in range(c0x, c1x + 1):
                x, y = self.center_of((cx, cy))
                if point_in_polygon(x, y, poly):
                    self.occ[cy, cx] = 1
                    cells.add((cx, cy))
        return cells

    # -- traversal --------------------------------------------------------------

    def neighbors8(self, cell: Cell) -> Iterator[Cell]:
        cx, cy = cell
        for dx, dy in _NEIGHBORS8:
            n = (cx + dx, cy + dy)
            if self.in_bounds(n):
                yield n

    def flood_fill(self, start: Cell) -> np.ndarray:
        """Boolean mask of free cells 8-connected to ``start``."""
        return wavefront(self.occ == 0, start) >= 0

    def bfs_distances(self, start: Cell, passable: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """8-connected step distances over ``passable`` cells, grown only up to
        the first layer that contains a ``targets`` cell (-1 = unreached)."""
        return wavefront(passable, start, targets)

    def adjacent_free_cells(self, cells: Iterable[Cell]) -> np.ndarray:
        """Mask of the free cells 8-adjacent to a footprint: the 3x3 dilation
        of the footprint's mask, minus the footprint, where the grid is free."""
        mask = np.zeros(self.occ.shape, dtype=bool)
        for cx, cy in cells:
            mask[cy, cx] = True
        return dilate8(mask) & ~mask & (self.occ == 0)


def bresenham(a: Cell, b: Cell) -> Iterator[Cell]:
    """Integer line from a to b, inclusive."""
    x0, y0 = a
    x1, y1 = b
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        yield x0, y0
        if (x0, y0) == (x1, y1):
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def side_of(centroid: tuple[float, float], point: tuple[float, float]) -> str:
    """Which compass side of a footprint a point lies on."""
    dx = point[0] - centroid[0]
    dy = point[1] - centroid[1]
    if abs(dy) >= abs(dx):
        return "north" if dy > 0 else "south"
    return "east" if dx > 0 else "west"
