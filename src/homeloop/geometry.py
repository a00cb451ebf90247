"""2D geometry and occupancy-grid primitives.

The world is top-down: poses are (x, y, heading) in meters/radians, footprints
are simple polygons, and the room is rasterized onto one grid of bit-packed
Python ints (``PackedGrid``): a (H, W) mask becomes one int, row-major with
W + 1 bits per row, where the extra bit is a guard that no mask ever sets, so
a one-bit shift out of the first or last column cannot wrap into the next
row. ``OccupancyGrid.free`` is the mask of cells no furniture stands on, and
every mask built from it (reachability, approach cells, the explored map) is
an int on the same layout. Grid search is an 8-connected BFS: a layer grows
with two shifts by one bit and two by a row, masked by the cells not yet
reached. ``PackedGrid.reach`` keeps only the reached cells and, given a goal
mask, the first layer's goal cells: all that flood fill, sensing and
frontier search read. All grid work is deterministic; ties in cell selection
always break by lowest (col, row) lexicographic order on cell coordinates
expressed as (cx, cy).
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


OVERLAP_PROBE = 0.02  # meters between the probe points of polygons_overlap


def polygons_overlap(a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]) -> bool:
    """Approximate polygon intersection test: bounding-box rejection, then
    mutual dense probing. Good enough for axis-aligned-ish furniture."""
    a0x, a0y, a1x, a1y = polygon_bbox(a)
    b0x, b0y, b1x, b1y = polygon_bbox(b)
    if a1x < b0x or b1x < a0x or a1y < b0y or b1y < a0y:
        return False
    for x, y in _probe_points(a):
        if point_in_polygon(x, y, b):
            return True
    for x, y in _probe_points(b):
        if point_in_polygon(x, y, a):
            return True
    return False


def _probe_points(poly: Sequence[tuple[float, float]]) -> Iterator[tuple[float, float]]:
    minx, miny, maxx, maxy = polygon_bbox(poly)
    nx = max(2, int((maxx - minx) / OVERLAP_PROBE) + 1)
    ny = max(2, int((maxy - miny) / OVERLAP_PROBE) + 1)
    for i in range(nx + 1):
        for j in range(ny + 1):
            x = minx + (maxx - minx) * i / nx
            y = miny + (maxy - miny) * j / ny
            if point_in_polygon(x, y, poly):
                yield x, y


class PackedGrid:
    """The packed layout of a (height, width) grid: a mask is one int whose
    bit ``y * row + x`` is cell (x, y), with ``row = width + 1``. Bit
    ``width`` of every row is a guard that no mask holds, so a one-bit shift
    out of column 0 or ``width - 1`` lands on a guard and is masked away."""

    __slots__ = ("height", "width", "row", "column0", "cells")

    def __init__(self, height: int, width: int) -> None:
        self.height = height
        self.width = width
        self.row = width + 1
        self.column0 = ((1 << (height * self.row)) - 1) // ((1 << self.row) - 1)  # bit 0 of every row
        self.cells = ((1 << width) - 1) * self.column0  # every cell set, every guard clear

    def bit(self, cell: Cell) -> int:
        cx, cy = cell
        return 1 << (cy * self.row + cx)

    def iter_cells(self, packed: int) -> Iterator[Cell]:
        """The set cells of ``packed``, sorted by x, then y."""
        fold, span = packed, 1
        while span < self.height:  # OR every row into row 0
            fold |= fold >> (span * self.row)
            span *= 2
        columns = fold & ((1 << self.width) - 1)
        while columns:
            cx = (columns & -columns).bit_length() - 1
            columns &= columns - 1
            column = packed >> cx & self.column0
            while column:
                yield cx, ((column & -column).bit_length() - 1) // self.row
                column &= column - 1

    def first_cell(self, packed: int) -> Cell:
        """The set cell with the lowest x, then the lowest y (``packed`` != 0)."""
        return next(self.iter_cells(packed))

    def dilate8(self, packed: int) -> int:
        """3x3 box dilation; guard bits may be set in the result."""
        g = packed | packed << 1 | packed >> 1
        return g | g << self.row | g >> self.row

    def disk(self, center: Cell, radius: int) -> int:
        """The cells within Euclidean distance ``radius`` of ``center``.

        Two precomputed half disks are shifted into place: the west half
        (each row from its west end to the centre column) and the east half
        (from the centre column to its east end). A row that runs past a grid
        edge wraps into the neighbouring row, but only on the far side of the
        centre column, because no half row is longer than the grid is wide;
        so the west half is kept at columns <= cx and the east half at
        columns >= cx."""
        west, east, reach, c = _half_disks(self.row, radius)
        cx, cy = center
        base = (cy - reach) * self.row + cx
        west_cols = ((1 << (cx + 1)) - 1) * self.column0
        east_cols = self.cells ^ (west_cols >> 1 & self.cells)
        return _shift(west, base - c) & west_cols | _shift(east, base) & east_cols

    def layers(self, passable: int, start: int, goal: int = 0) -> Iterator[int]:
        """The 8-connected BFS layers over ``passable`` from the ``start``
        bits, nearest first; stops after the first layer that meets ``goal``."""
        layer = start & passable
        unreached = passable ^ layer
        row = self.row
        while layer:
            yield layer
            if layer & goal:
                return
            g = layer | layer << 1 | layer >> 1
            layer = (g | g << row | g >> row) & unreached
            unreached ^= layer

    def reach(self, passable: int, start: int, goal: int = 0) -> tuple[int, int]:
        """The cells of ``passable`` connected to ``start`` (up to the first
        layer that meets ``goal``), and that layer's cells in ``goal``."""
        reached = layer = 0
        for layer in self.layers(passable, start, goal):
            reached |= layer
        return reached, layer & goal


def _shift(packed: int, by: int) -> int:
    return packed << by if by >= 0 else packed >> -by


@functools.lru_cache(maxsize=32)
def _half_disks(row: int, radius: int) -> tuple[int, int, int, int]:
    """``PackedGrid.disk``'s templates on ``row``-bit rows: (west, east,
    reach, c). Packed row ``i`` of each half is disk row ``i - reach``; the
    west half's centre column is ``c`` and the east half's is 0. Each half
    row is capped at ``row - 1`` cells past the centre, which no grid of
    that row length needs more of."""
    r2 = radius * radius
    reach = math.isqrt(r2)
    c = min(reach, row - 1)
    west = east = 0
    for dy in range(reach, -reach - 1, -1):
        half = min(math.isqrt(r2 - dy * dy), row - 1)
        run = (1 << (half + 1)) - 1
        west = west << row | run << (c - half)
        east = east << row | run
    return west, east, reach, c


class OccupancyGrid:
    """Rasterized room on the layout ``packed``: ``free`` is the mask of the
    cells no furniture stands on."""

    def __init__(self, width_m: float, height_m: float, resolution: float) -> None:
        self.resolution = resolution
        self.width = max(1, int(round(width_m / resolution)))
        self.height = max(1, int(round(height_m / resolution)))
        self.packed = PackedGrid(self.height, self.width)
        self.free = self.packed.cells

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
        return self.in_bounds(cell) and bool(self.free & self.packed.bit(cell))

    # -- rasterization ---------------------------------------------------------

    def rasterize_polygon(self, poly: Sequence[tuple[float, float]]) -> set[Cell]:
        """Mark all cells whose center lies inside the polygon; returns them.
        This is ``point_in_polygon`` over every cell center of the bounding
        box, one row at a time, with the same float expressions in the same
        order: each crossing toggles the parity of the centers left of it
        (their count found by bisection), and a center on an edge is inside."""
        minx, miny, maxx, maxy = polygon_bbox(poly)
        c0x, c0y = self.cell_of(minx, miny)
        c1x, c1y = self.cell_of(maxx, maxy)
        xs = [(cx + 0.5) * self.resolution for cx in range(c0x, c1x + 1)]
        n = len(poly)
        # no center row crosses a horizontal edge
        edges = [(poly[i], poly[(i + 1) % n]) for i in range(n) if poly[i][1] != poly[(i + 1) % n][1]]
        cells: set[Cell] = set()
        marked = 0
        for cy in range(c0y, c1y + 1):
            y = (cy + 0.5) * self.resolution
            odd = on_edge = 0
            for (x0, y0), (x1, y1) in edges:
                if (y0 > y) != (y1 > y):
                    xi = x0 + (y - y0) / (y1 - y0) * (x1 - x0)
                    left = bisect_left(xs, xi)  # the centers with x < xi
                    odd ^= (1 << left) - 1
                    if left < len(xs) and abs(xs[left] - xi) < 1e-12:
                        on_edge |= 1 << left
            inside = odd | on_edge
            marked |= inside << (cy * self.packed.row + c0x)
            while inside:
                cells.add((c0x + (inside & -inside).bit_length() - 1, cy))
                inside &= inside - 1
        self.free &= ~marked
        return cells

    # -- traversal --------------------------------------------------------------

    def flood_fill(self, start: Cell) -> int:
        """The free cells 8-connected to ``start``."""
        if not self.in_bounds(start):
            return 0
        return self.packed.reach(self.free, self.packed.bit(start))[0]

    def bfs_distances(self, start: Cell, passable: int, targets: int) -> list[int]:
        """The 8-connected BFS layers over ``passable`` from ``start`` (layer d
        holds the cells d steps away), up to the first that meets ``targets``.
        Nothing in homeloop calls it: it stays only while the benchmark's span
        table binds the name (ROADMAP item 8)."""
        if not self.in_bounds(start):
            return []
        return list(self.packed.layers(passable, self.packed.bit(start), targets))

    def adjacent_free_cells(self, cells: Iterable[Cell]) -> int:
        """The free cells 8-adjacent to a footprint: the 3x3 dilation of the
        footprint's mask, minus the footprint, where the grid is free."""
        mask = 0
        for cell in cells:
            mask |= self.packed.bit(cell)
        return self.packed.dilate8(mask) & ~mask & self.free


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


SIDES = ("north", "east", "south", "west")  # what side_of returns


def side_of(centroid: tuple[float, float], point: tuple[float, float]) -> str:
    """Which compass side of a footprint a point lies on."""
    dx = point[0] - centroid[0]
    dy = point[1] - centroid[1]
    if abs(dy) >= abs(dx):
        return "north" if dy > 0 else "south"
    return "east" if dx > 0 else "west"
