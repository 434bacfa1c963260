"""Voronoi tessellation over active towers and the serving-tower map.

Towers with no traffic are dropped before tessellating, which is
geometrically equivalent to merging their former regions into the
neighboring active cells: every point ends up owned by its nearest
active tower either way. ``serving_towers`` sends each silent tower to
that nearest active tower.

Coordinates are projected onto a local planar frame (km) with an
equirectangular projection about the centroid of the active towers; at
venue scale (a few km) the distance distortion is far below 0.1%.

Cells are clipped out of the bounding box by perpendicular bisectors,
with numpy alone (Aurenhammer 1991, "Voronoi diagrams - a survey of a
fundamental geometric data structure").
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, radians, sqrt
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .ingest import TowerSite

EARTH_RADIUS_KM = 6371.0
MAX_RANGE_KM = 60.0     # supported distance from the projection origin
DEFAULT_PAD_KM = 2.0    # bounding-box padding beyond the tower extent


@dataclass(frozen=True)
class VoronoiCell:
    """One tower's region clipped to the venue bounding box."""

    tower_id: int
    polygon: np.ndarray     # (k, 2) vertices, counterclockwise, km
    area: float             # km^2


def project_local(
    lat: float, lon: float, origin_lat: float, origin_lon: float
) -> tuple[float, float]:
    """Equirectangular projection about an origin, in km.

    Raises ValueError for points outside the supported ~60 km range,
    where the flat approximation starts to degrade.
    """
    x = radians(lon - origin_lon) * EARTH_RADIUS_KM * cos(radians(origin_lat))
    y = radians(lat - origin_lat) * EARTH_RADIUS_KM
    if sqrt(x * x + y * y) > MAX_RANGE_KM:
        raise ValueError(
            f"point ({lat}, {lon}) outside supported range of "
            f"({origin_lat}, {origin_lon})"
        )
    return x, y


def project_tower(
    tower: TowerSite, origin: tuple[float, float]
) -> tuple[float, float]:
    """``project_local`` of a tower; out of range is a ConfigurationError."""
    try:
        return project_local(tower.latitude, tower.longitude, *origin)
    except ValueError as exc:
        raise ConfigurationError(f"tower {tower.tower_id}: {exc}") from None


def tower_origin(towers: Sequence[TowerSite]) -> tuple[float, float]:
    """Projection origin: centroid of the active tower coordinates."""
    active = [t for t in towers if t.active]
    if not active:
        raise ConfigurationError("no active towers")
    return (
        sum(t.latitude for t in active) / len(active),
        sum(t.longitude for t in active) / len(active),
    )


def _active_points(
    towers: Sequence[TowerSite], origin: tuple[float, float] | None
) -> tuple[list[TowerSite], np.ndarray, tuple[float, float]]:
    active = sorted((t for t in towers if t.active), key=lambda t: t.tower_id)
    if not active:
        raise ConfigurationError("no active towers")
    if origin is None:
        origin = tower_origin(towers)
    pts = np.array([project_tower(t, origin) for t in active])
    return active, pts, origin


def serving_towers(towers: Sequence[TowerSite]) -> dict[int, int]:
    """tower_id -> the active tower serving it: itself, or the nearest one
    when the tower is silent.

    Each tower is projected once. A silent tower goes to the active tower
    at the least squared distance, ties to the smallest id.
    """
    active, pts, origin = _active_points(towers, None)
    mapping = {t.tower_id: t.tower_id for t in active}
    for t in towers:
        if not t.active:
            d2 = ((pts - project_tower(t, origin)) ** 2).sum(axis=1)
            mapping[t.tower_id] = active[int(d2.argmin())].tower_id
    return mapping


def build_tessellation(
    towers: Sequence[TowerSite],
    *,
    pad_km: float = DEFAULT_PAD_KM,
    bbox: tuple[float, float, float, float] | None = None,
    origin: tuple[float, float] | None = None,
) -> list[VoronoiCell]:
    """Voronoi cells of the active towers, clipped to the bounding box.

    The bounding box defaults to the active-tower extent padded by 2 km.
    Each cell is the box clipped by its bisector with each other tower,
    nearest first, until the next tower lies beyond twice the cell's
    farthest vertex (the security radius), so the areas sum to the box's.
    """
    active, pts, origin = _active_points(towers, origin)
    rounded = {(round(p[0], 9), round(p[1], 9)) for p in pts}
    if len(rounded) != len(pts):
        raise ConfigurationError("active towers with duplicate coordinates")

    if bbox is None:
        xmin, ymin = pts.min(axis=0) - pad_km
        xmax, ymax = pts.max(axis=0) + pad_km
    else:
        xmin, ymin, xmax, ymax = bbox
    if not (xmin < xmax and ymin < ymax):
        raise ConfigurationError(f"degenerate bounding box {bbox}")
    poly, count = _clip_cells(pts, (xmin, ymin, xmax, ymax))

    # Finish every cell at once. Cocircular towers leave vertices that
    # coincide up to rounding with their predecessor: those are dropped,
    # and the rest sorted by angle about the tower (the cells are convex),
    # dropped and unused slots last.
    slots = np.arange(poly.shape[1])

    def previous(count):   # each slot's predecessor in its cell's ring
        return (slots - 1) % np.maximum(count, 1)[:, None]

    gap = np.abs(poly - np.take_along_axis(poly, previous(count)[..., None], 1))
    keep = (slots < count[:, None]) & (gap.max(axis=2) > 1e-9)
    rel = poly - pts[:, None]
    angles = np.where(keep, np.arctan2(rel[..., 1], rel[..., 0]), np.inf)
    order = np.argsort(angles, axis=1, kind="stable")
    poly = np.take_along_axis(poly, order[..., None], axis=1)
    count = keep.sum(axis=1)
    x, y = poly[..., 0], poly[..., 1]
    x_prev = np.take_along_axis(x, previous(count), axis=1)
    y_prev = np.take_along_axis(y, previous(count), axis=1)
    cells = []
    for i, tower in enumerate(active):
        k = count[i]
        # Shoelace area with one np.dot per term and cell: a row sum over
        # the padded arrays would round some areas differently.
        area = 0.5 * abs(np.dot(x[i, :k], y_prev[i, :k])
                         - np.dot(y[i, :k], x_prev[i, :k]))
        if area <= 0:
            raise ConfigurationError(f"empty cell for tower {tower.tower_id}")
        cells.append(VoronoiCell(tower.tower_id, poly[i, :k], float(area)))
    return cells


def _clip_cells(
    pts: np.ndarray, bbox: tuple[float, float, float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Each tower's cell as (cells, M, 2) padded vertices and their counts.

    Every cell starts as the box and is clipped by its bisector with each
    other tower, nearest first, in one array-wide Sutherland-Hodgman pass
    per step; a cell closes once its next tower is beyond twice its
    farthest vertex. Vertices are in clipping order, and cocircular
    towers can leave some of them doubled up to rounding.
    """
    xmin, ymin, xmax, ymax = bbox
    n = len(pts)
    box = [[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]]
    poly = np.tile(np.array(box, dtype=float), (n, 1, 1))   # count[i] rows used
    count = np.full(n, 4)
    d2 = ((pts[:, None] - pts[None]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")   # column 0 is the tower
    live = np.arange(n)
    for k in range(1, n):   # one Sutherland-Hodgman pass over the live cells
        slots = np.arange(poly.shape[1])
        valid = slots < count[live, None]
        reach2 = np.where(valid, ((poly[live] - pts[live, None]) ** 2).sum(axis=2), 0)
        near = d2[live, order[live, k]] <= 4 * reach2.max(axis=1)
        live, valid = live[near], valid[near]
        if not live.size:
            break
        cell, own, other = poly[live], pts[live], pts[order[live, k]]
        side = ((cell - (own + other)[:, None] / 2) * (other - own)[:, None]).sum(2)
        succ = (slots + 1) % count[live, None]
        side_next = np.take_along_axis(side, succ, axis=1)
        inside, crossing = valid & (side <= 0), valid & (side * side_next < 0)
        emitted = inside + crossing.astype(int)
        slot = np.cumsum(emitted, axis=1) - emitted
        count[live] = emitted.sum(axis=1)
        if count.max() > poly.shape[1]:
            poly = np.pad(poly, ((0, 0), (0, count.max() - poly.shape[1]), (0, 0)))
        r, c = np.nonzero(inside)
        poly[live[r], slot[r, c]] = cell[r, c]
        r, c = np.nonzero(crossing)
        t = (side[r, c] / (side[r, c] - side_next[r, c]))[:, None]
        a, b = cell[r, c], cell[r, succ[r, c]]
        poly[live[r], slot[r, c] + inside[r, c]] = a + t * (b - a)
    return poly, count


def polygon_wkt(polygon: np.ndarray) -> str:
    """WKT-style text for a cell polygon (closed ring)."""
    ring = list(polygon) + [polygon[0]]
    inner = ", ".join(f"{x:.6f} {y:.6f}" for x, y in ring)
    return f"POLYGON(({inner}))"


def cells_table(cells: Sequence[VoronoiCell]) -> list[tuple[int, float, str]]:
    """Rows (tower_id, area_km2, polygon) for the plot-data emission."""
    return [(c.tower_id, c.area, polygon_wkt(c.polygon)) for c in cells]
