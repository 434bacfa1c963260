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
fundamental geometric data structure"), nearest tower first, until the
next one is beyond the security radius (twice the cell's farthest
vertex). Most bisectors miss the cell by then; each array-wide pass
tests a window of every cell's next towers at once and applies only the
first that cuts, so the passes follow the cuts a cell takes (at most 8
on the desk grid), not the towers it reads (up to 50 there). A cell's
towers come from a uniform grid of buckets sized from
the tower density (Bentley, Weide & Yao 1980), not from a towers x
towers matrix. A query searches rings of buckets about its tower until
the distance it must cover, its k-th least squared distance or a given
radius, is less than the distance to the searched rings' edge; it then
returns every tower up to that distance, ties included, in (squared
distance, index) order with the matrix's float for each distance. That
is the order of a stable argsort of the matrix row, so every clip is
the same as the matrix's. A cell that has used its list while its
security radius still reaches past what the list covers asks for every
tower within that radius; no tower left out can then be nearer than the
stop, so the stop is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, radians, sqrt
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .ingest import EARTH_RADIUS_KM, TowerSite

MAX_RANGE_KM = 60.0     # supported distance from the projection origin
DEFAULT_PAD_KM = 2.0    # bounding-box padding beyond the tower extent


@dataclass(frozen=True)
class VoronoiCell:
    """One tower's region clipped to the venue bounding box."""

    tower_id: int
    polygon: np.ndarray     # (k, 2) vertices, counterclockwise, km
    area: float             # km^2
    clips: int              # bisectors it was clipped by, nearest first


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


@dataclass(frozen=True)
class ActiveTowers:
    """The active towers, by id, and their points in the local frame."""

    towers: list[TowerSite]
    pts: np.ndarray             # (len(towers), 2), km
    origin: tuple[float, float]


def project_active(
    towers: Sequence[TowerSite], origin: tuple[float, float] | None = None
) -> ActiveTowers:
    """The active towers projected about ``origin``, by default their
    centroid: once per run, for ``serving_towers`` and
    ``build_tessellation`` both."""
    active = sorted((t for t in towers if t.active), key=lambda t: t.tower_id)
    if not active:
        raise ConfigurationError("no active towers")
    if origin is None:
        origin = tower_origin(towers)
    pts = np.array([project_tower(t, origin) for t in active])
    return ActiveTowers(active, pts, origin)


def serving_towers(
    towers: Sequence[TowerSite], active: ActiveTowers
) -> dict[int, int]:
    """tower_id -> the active tower serving it: itself, or the nearest one
    when the tower is silent.

    ``active`` is ``project_active(towers)``; only the silent towers are
    projected here. A silent tower goes to the active tower at the least
    squared distance, ties to the smallest id, found by one bucket-grid
    query for all silent towers.
    """
    mapping = {t.tower_id: t.tower_id for t in active.towers}
    silent = [t for t in towers if not t.active]
    if silent:
        where = np.array([project_tower(t, active.origin) for t in silent])
        nearest, _, start, _ = _Buckets(active.pts).nearest(where, 1)
        for t, i in zip(silent, nearest[start].tolist()):
            mapping[t.tower_id] = active.towers[i].tower_id
    return mapping


def build_tessellation(
    active: ActiveTowers,
    *,
    pad_km: float = DEFAULT_PAD_KM,
    bbox: tuple[float, float, float, float] | None = None,
) -> list[VoronoiCell]:
    """Voronoi cells of the active towers, clipped to the bounding box.

    The bounding box defaults to the active-tower extent padded by 2 km.
    Each cell is the box clipped by its bisector with each other tower,
    nearest first, until the next tower lies beyond twice the cell's
    farthest vertex (the security radius), so the areas sum to the box's.
    """
    pts = active.pts
    rounded = {tuple(p) for p in np.round(pts, 9).tolist()}
    if len(rounded) != len(pts):
        raise ConfigurationError("active towers with duplicate coordinates")

    if bbox is None:
        xmin, ymin = pts.min(axis=0) - pad_km
        xmax, ymax = pts.max(axis=0) + pad_km
    else:
        xmin, ymin, xmax, ymax = bbox
    if not (xmin < xmax and ymin < ymax):
        raise ConfigurationError(f"degenerate bounding box {bbox}")
    poly, count, clips = _clip_cells(pts, (xmin, ymin, xmax, ymax))

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
    for i, tower in enumerate(active.towers):
        k = count[i]
        # Shoelace area with one np.dot per term and cell: a row sum over
        # the padded arrays would round some areas differently.
        area = 0.5 * abs(np.dot(x[i, :k], y_prev[i, :k])
                         - np.dot(y[i, :k], x_prev[i, :k]))
        if area <= 0:
            raise ConfigurationError(f"empty cell for tower {tower.tower_id}")
        cells.append(VoronoiCell(tower.tower_id, poly[i, :k], float(area),
                                 int(clips[i])))
    return cells


#: Towers first listed per cell, itself included. A cell closes at its
#: first tower beyond the security radius: on a square lattice an inner
#: cell reads 9, and of 4,000 uniform random towers nine cells in ten
#: close within 24. The rest, mostly edge cells whose security radius
#: reaches into the padding, ask once more for every tower within it.
FIRST_CANDIDATES = 24
#: Most towers a clipping pass tests per cell, and most (tower, vertex,
#: cell) triples it tests at once, so the window's arrays stay bounded.
#: The k-th pass tests up to k towers a cell: at first most cells are cut
#: by their next tower, and later passes mostly skip towers that do not
#: cut on the way to the stop.
_CLIP_WINDOW = 32
_CLIP_WINDOW_TESTS = 1 << 16


def _clip_cells(
    pts: np.ndarray, bbox: tuple[float, float, float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each tower's cell as (cells, M, 2) padded vertices, their counts
    and the number of bisectors that clipped it.

    Every cell starts as the box and is clipped by its bisector with each
    other tower, nearest first (Sutherland & Hodgman 1974); a cell closes
    once its next tower is beyond twice its farthest vertex. A bisector
    with no vertex on its far side clips the cell to itself, so only the
    bisectors that cut need a pass: each array-wide pass tests a window of
    every live cell's next towers against its polygon at once, counts
    those before the first that cuts or stops as clips and skips them, and
    applies that one cut. The cut's sides come from the same elementwise
    operations as a pass per tower would use, so every vertex is the same
    float. Vertices are in clipping order, and cocircular towers can leave
    some of them doubled up to rounding.

    Each cell's towers, nearest first, come from a bucket-grid query: all
    towers at or below its k-th least squared distance, in (squared
    distance, index) order. That is the order of a stable argsort of the
    full distance row, with the same float for each distance, so every
    clip is the same. A cell that has clipped by all of them while its
    security radius still reaches past what the list covers asks for
    every tower within that radius, so the stop stays exact: every tower
    not listed is farther than the list covers.
    """
    xmin, ymin, xmax, ymax = bbox
    n = len(pts)
    # poly[:, j, i] is (x, y) of cell i's vertex j, count[i] of them used:
    # cells run along the last axis, so every numpy loop runs over cells.
    poly = np.empty((2, 4, n))
    poly[0], poly[1] = [[xmin], [xmax], [xmax], [xmin]], [[ymin], [ymin], [ymax], [ymax]]
    count = np.full(n, 4)
    clips = np.zeros(n, np.int64)
    xy = pts.T
    buckets = _Buckets(pts)
    # Cell i's candidates are cand[start[i]:start[i] + size[i]], their
    # squared distances in cand_d2: every tower up to covered[i]. A cell
    # that asks again gets a new run at the end.
    cand, cand_d2, start, size = buckets.nearest(pts, min(FIRST_CANDIDATES, n))
    covered = cand_d2[start + size - 1]
    pos = np.ones(n, np.int64)      # each cell's next candidate in its list
    live = np.arange(n)
    reach2 = _reach2(poly, count, xy, live)   # to each cell's farthest vertex
    k = 0
    while live.size:   # one pass per cut: each live cell's next cut or stop
        k += 1
        slots = np.arange(poly.shape[1])[:, None]
        # A cell that has used its list asks for every tower within its
        # security radius, unless its list already covers that: every
        # tower not listed is farther.
        more = live[pos[live] == size[live]]
        bound = 4 * reach2[more]
        ask = bound > covered[more]
        more = more[ask]
        covered[more] = bound[ask]
        if more.size:
            got, got_d2, got_start, size[more] = buckets.nearest(
                pts[more], 1, covered[more])
            start[more] = got_start + cand.size
            cand, cand_d2 = np.concatenate([cand, got]), np.concatenate([cand_d2, got_d2])
        # Up to the first of its next ``width`` towers that stops or cuts,
        # each clips a cell to itself: its reach2 holds.
        width = min(k, _CLIP_WINDOW, max(1, _CLIP_WINDOW_TESTS // (live.size * slots.size)))
        ahead = pos[live] + np.arange(width)[:, None]
        listed = ahead < size[live]
        at = start[live] + np.minimum(ahead, size[live] - 1)
        cell, valid = poly[:, :, live], slots < count[live]
        # (tower, vertex, cell): positive where a vertex is on the tower's
        # side of the bisector.
        own, other = xy[:, None, None, live], xy[:, cand[at]][:, :, None]
        mid, normal = (own + other) / 2, other - own
        side = cell[0] - mid[0]
        side *= normal[0]
        side += (cell[1] - mid[1]) * normal[1]
        stops = cand_d2[at] > 4 * reach2[live]
        event = listed & (stops | ((side > 0) & valid).any(axis=1))
        first = np.where(event.any(axis=0), event.argmax(axis=0), listed.sum(axis=0))
        clips[live] += first
        pos[live] += first
        last, column = np.minimum(first, width - 1), np.arange(live.size)
        hit = event[last, column]
        ended = (hit & stops[last, column]) | ~listed[0]
        cuts = hit & ~ended
        live, cutting = live[~ended], live[cuts]
        if not cutting.size:
            continue
        clips[cutting] += 1
        pos[cutting] += 1
        cell, valid = cell[:, :, cuts], valid[:, cuts]
        side = side[first[cuts], :, cuts].T
        succ = (slots + 1) % count[cutting]
        side_next = np.take_along_axis(side, succ, axis=0)
        inside, crossing = valid & (side <= 0), valid & (side * side_next < 0)
        emitted = inside + crossing.astype(int)
        slot = np.cumsum(emitted, axis=0) - emitted
        count[cutting] = emitted.sum(axis=0)
        if count.max() > poly.shape[1]:
            poly = np.pad(poly, ((0, 0), (0, count.max() - poly.shape[1]), (0, 0)))
        j, i = np.nonzero(inside)
        poly[:, slot[j, i], cutting[i]] = cell[:, j, i]
        j, i = np.nonzero(crossing)
        t = side[j, i] / (side[j, i] - side_next[j, i])
        a, b = cell[:, j, i], cell[:, succ[j, i], i]
        poly[:, slot[j, i] + inside[j, i], cutting[i]] = a + t * (b - a)
        reach2[cutting] = _reach2(poly, count, xy, cutting)
    return poly.transpose(2, 1, 0), count, clips


def _reach2(poly: np.ndarray, count: np.ndarray, xy: np.ndarray,
            cells: np.ndarray) -> np.ndarray:
    """The squared distance from each of ``cells``' towers to its cell's
    farthest vertex."""
    d = poly[:, :, cells] - xy[:, None, cells]
    valid = np.arange(poly.shape[1])[:, None] < count[cells]
    return np.where(valid, d[0] ** 2 + d[1] ** 2, 0).max(axis=0)


#: Slack, in km, taken off the distance a bucket block is known to cover:
#: far above the rounding of km coordinates within the 60 km range, far
#: below any tower spacing.
_COVER_SLACK_KM = 1e-9
#: Most candidate points a search gathers at a time (unless one query's
#: block holds more), so its memory does not grow with the queries.
SEARCH_BLOCK = 1 << 16


class _Buckets:
    """Points in a uniform grid of square buckets, about one point a
    bucket (Bentley, Weide & Yao 1980, "Optimal expected-time algorithms
    for closest point problems", ACM TOMS 6(4)).

    The points are sorted by bucket, row by row, so the buckets that one
    row of a block of buckets spans hold one contiguous run of them.
    """

    def __init__(self, pts: np.ndarray):
        self.pts = pts
        self.low = pts.min(axis=0)
        extent = pts.max(axis=0) - self.low
        # Side from the density over the extent's area; points on a line
        # (no area) get about one a bucket along it.
        side = max(sqrt(extent[0] * extent[1] / len(pts)), extent.max() / len(pts))
        self.side = side if side > 0 else 1.0
        self.shape = np.floor(extent / self.side).astype(np.int64) + 1
        x, y = self._bucket(pts).T
        key = y * self.shape[0] + x
        self.order = np.argsort(key, kind="stable")
        self.first = np.searchsorted(key[self.order], np.arange(self.shape.prod() + 1))
        # Points in the buckets below each (row, column): a block's count
        # is four lookups.
        per_bucket = np.diff(self.first).reshape(self.shape[1], self.shape[0])
        self.below = np.zeros((self.shape[1] + 1, self.shape[0] + 1), np.int64)
        self.below[1:, 1:] = per_bucket.cumsum(axis=0).cumsum(axis=1)

    def _bucket(self, xy: np.ndarray) -> np.ndarray:
        b = np.floor((xy - self.low) / self.side).astype(np.int64)
        return np.clip(b, 0, self.shape - 1)

    def nearest(self, where: np.ndarray, want, radius2=0.0) -> tuple[np.ndarray, ...]:
        """For each query point, every point at or below the larger of its
        ``want``-th least squared distance and its ``radius2``, in (squared
        distance, index) order.

        Returns the points' indices and squared distances, flat, and each
        query's start and size in them. A query first searches the square
        block of buckets whose inscribed disc holds ``want`` points at the
        mean density, or reaches ``radius2``, then larger ones until that
        distance is less than the one to the block's nearest side with
        points beyond it: no point outside the block can then be as near.
        """
        n = len(self.pts)
        want = np.broadcast_to(np.asarray(want, np.int64), (len(where),))
        radius2 = np.broadcast_to(np.asarray(radius2, float), (len(where),))
        rings = np.maximum(np.ceil(np.sqrt(want * self.shape.prod() / (np.pi * n))),
                           np.floor(np.sqrt(radius2) / self.side) + 1).astype(np.int64)
        cell = self._bucket(where)
        start = np.zeros(len(where), np.int64)
        size = np.zeros(len(where), np.int64)
        parts_i, parts_d2, done = [], [], 0
        todo = np.arange(len(where))
        while todo.size:
            r = rings[todo]
            lo = np.maximum(cell[todo] - r[:, None], 0)
            hi = np.minimum(cell[todo] + r[:, None], self.shape - 1)
            x0, y0, x1, y1 = lo[:, 0], lo[:, 1], hi[:, 0] + 1, hi[:, 1] + 1
            held = np.cumsum(self.below[y1, x1] - self.below[y0, x1]
                             - self.below[y1, x0] + self.below[y0, x0])
            take = max(1, int(np.searchsorted(held, SEARCH_BLOCK, "right")))
            block, todo = todo[:take], todo[take:]
            lo, hi, r = lo[:take], hi[:take], r[:take]
            q, k = where[block], want[block]
            query, point = self._gather(lo, hi)
            # (query, point) order first, then a stable sort of the
            # (query, d2) pairs as complex numbers, which sort by real part
            # then imaginary part: (query, d2, point) order.
            order = np.argsort(query * n + point)
            query, point = query[order], point[order]
            # By coordinate, as the row sum of squares rounds: one loop per
            # coordinate is several times faster than a loop per pair.
            d2 = q[query, 0] - self.pts[point, 0]
            d2 *= d2
            dy = q[query, 1] - self.pts[point, 1]
            dy *= dy
            d2 += dy
            order = np.argsort(query + 1j * d2, kind="stable")
            query, point, d2 = query[order], point[order], d2[order]
            found = np.bincount(query, minlength=block.size)
            enough = found >= k
            kth = np.zeros(block.size)
            kth[enough] = d2[(np.cumsum(found) - found + k - 1)[enough]]
            bound = np.maximum(kth, radius2[block])
            low_gap = np.where(lo > 0, q - (self.low + lo * self.side), np.inf)
            high_gap = np.where(hi < self.shape - 1,
                                self.low + (hi + 1) * self.side - q, np.inf)
            cover = np.minimum(low_gap.min(axis=1), high_gap.min(axis=1))
            cover = np.maximum(cover - _COVER_SLACK_KM, 0)
            ok = enough & (bound < cover * cover)
            keep = ok[query] & (d2 <= bound[query])
            kept = np.bincount(query[keep], minlength=block.size)[ok]
            size[block[ok]] = kept
            start[block[ok]] = done + np.cumsum(kept) - kept
            done += int(kept.sum())
            parts_i.append(point[keep])
            parts_d2.append(d2[keep])
            # A block with enough points grows to cover their distance; one
            # with too few doubles.
            reach = np.floor(np.sqrt(bound) / self.side).astype(np.int64) + 1
            rings[block] = np.maximum(r + 1, np.where(enough, reach, 2 * r + 1))
            todo = np.concatenate([todo, block[~ok]])
        return np.concatenate(parts_i), np.concatenate(parts_d2), start, size

    def _gather(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(query, point) for every point in each query's block of buckets
        lo..hi (inclusive, (x, y) each), one contiguous run per bucket row."""
        nx = self.shape[0]
        rows = hi[:, 1] - lo[:, 1] + 1
        query = np.repeat(np.arange(len(lo)), rows)
        y = lo[query, 1] + np.arange(query.size) - np.repeat(np.cumsum(rows) - rows, rows)
        begin = self.first[y * nx + lo[query, 0]]
        length = self.first[y * nx + hi[query, 0] + 1] - begin
        pos = (np.arange(length.sum()) + np.repeat(begin - (np.cumsum(length) - length),
                                                    length))
        return np.repeat(query, length), self.order[pos]


def polygon_wkt(polygon: np.ndarray) -> str:
    """WKT-style text for a cell polygon (closed ring)."""
    ring = polygon.tolist()
    ring.append(ring[0])
    inner = ", ".join(f"{x:.6f} {y:.6f}" for x, y in ring)
    return f"POLYGON(({inner}))"


def cells_table(cells: Sequence[VoronoiCell]) -> list[tuple[int, float, str]]:
    """Rows (tower_id, area_km2, polygon) for the plot-data emission."""
    return [(c.tower_id, c.area, polygon_wkt(c.polygon)) for c in cells]
