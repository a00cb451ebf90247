"""2D geometry and occupancy-grid primitives.

The world is top-down: poses are (x, y, heading) in meters/radians, footprints
are simple polygons, and the room is rasterized onto a uint8 occupancy grid
(0 = free, 1 = occupied). Grid search is an 8-connected BFS on bit-packed
Python ints: a (H, W) mask becomes one int, row-major with W + 1 bits per
row, where the extra bit is a guard that no mask ever sets, so a one-bit
shift out of the first or last column cannot wrap into the next row. A layer
grows with two shifts by one bit and two by a row, masked by the cells not yet
reached. A cell's distance + 1 is spread over bit-planes, one int per bit,
and unpacked once at the end into int32 distances (-1 = unreached). All grid
work is deterministic; ties in cell selection always break by lowest (col,
row) lexicographic order on cell coordinates expressed as (cx, cy).
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


def _pack(mask: np.ndarray) -> int:
    """A (H, W) boolean mask as one int: bit ``y * (W + 1) + x`` is cell
    (x, y), and bit W of every row is a guard that is always clear."""
    h, w = mask.shape
    padded = np.zeros((h, w + 1), dtype=bool)
    padded[:, :w] = mask
    return int.from_bytes(np.packbits(padded, bitorder="little").tobytes(), "little")


def wavefront(passable: np.ndarray, start: Cell, targets: Optional[np.ndarray] = None) -> np.ndarray:
    """8-connected BFS from ``start`` over ``passable`` cells, one layer per
    step on packed ints (see ``_pack``). Returns int32 step distances, -1
    where unreached. With ``targets``, growth stops after the first layer that
    contains a target."""
    h, w = passable.shape
    cx, cy = start
    if not (0 <= cy < h and 0 <= cx < w and passable[cy, cx]):
        return np.full((h, w), -1, dtype=np.int32)
    row = w + 1
    goal = _pack(targets) if targets is not None else 0
    layer = 1 << (cy * row + cx)
    unreached = _pack(passable) ^ layer
    # a shift out of column 0 or W-1 lands on a guard bit, which no mask holds
    label = 1  # the layer's distance + 1, so unreached cells read 0
    planes = [layer]  # planes[b]: the cells whose label has bit b set
    while not layer & goal:
        g = layer | layer << 1 | layer >> 1
        layer = (g | g << row | g >> row) & unreached
        if not layer:
            break
        unreached ^= layer
        label += 1
        if label >> len(planes):
            planes.append(0)
        for b in range(len(planes)):
            if label >> b & 1:
                planes[b] |= layer
    size = h * row
    nbytes = (size + 7) // 8
    raw = np.frombuffer(b"".join(p.to_bytes(nbytes, "little") for p in planes), dtype=np.uint8)
    bits = np.unpackbits(raw.reshape(len(planes), nbytes), axis=1, count=size, bitorder="little")
    dtype = np.min_scalar_type((1 << len(planes)) - 1)
    weights = 1 << np.arange(len(planes), dtype=dtype)
    labels = np.bitwise_or.reduce(bits.astype(dtype, copy=False) * weights[:, None], axis=0)
    return labels.reshape(h, row)[:, :w].astype(np.int32) - 1


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
        """Mark all cells whose center lies inside the polygon; returns them.
        This is ``point_in_polygon`` over every cell center of the bounding
        box at once, with the same float expressions in the same order: a
        center on an edge is inside, a crossing right of it toggles parity."""
        minx, miny, maxx, maxy = polygon_bbox(poly)
        c0x, c0y = self.cell_of(minx, miny)
        c1x, c1y = self.cell_of(maxx, maxy)
        x = (np.arange(c0x, c1x + 1) + 0.5) * self.resolution
        y = ((np.arange(c0y, c1y + 1) + 0.5) * self.resolution)[:, None]
        odd = np.zeros((y.size, x.size), dtype=bool)
        on_edge = np.zeros_like(odd)
        n = len(poly)
        for i in range(n):
            x0, y0 = poly[i]
            x1, y1 = poly[(i + 1) % n]
            if y0 == y1:
                continue  # no center row crosses a horizontal edge
            crosses = (y0 > y) != (y1 > y)
            t = (y - y0) / (y1 - y0)
            xi = x0 + t * (x1 - x0)
            left = x < xi
            odd ^= crosses & left
            on_edge |= crosses & ~left & (np.abs(x - xi) < 1e-12)
        inside = odd | on_edge
        self.occ[c0y : c1y + 1, c0x : c1x + 1][inside] = 1
        rows, cols = np.nonzero(inside)
        return {(c0x + cx, c0y + cy) for cy, cx in zip(rows.tolist(), cols.tolist())}

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
