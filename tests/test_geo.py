"""Local projection and clipped Voronoi tessellation of the tower grid."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdcdr import geo, synth
from crowdcdr.errors import ConfigurationError
from crowdcdr.geo import project_local, tower_origin
from crowdcdr.ingest import TowerSite
from helpers import (clip_cells_matrix, finish_cells_loop, haversine_km,
                     mirrored_voronoi_cells, nearest_active_tower,
                     serving_towers, serving_towers_loop, tessellate)

ORIGIN = (25.45, 81.85)
DESK_GRID = synth.tower_grid(synth.named_scenario("desk-small"))[0]


def tower(tid, dlat, dlon, active=True):
    """Tower offset from the reference origin by degrees."""
    return TowerSite(tid, ORIGIN[0] + dlat, ORIGIN[1] + dlon, active)


def contains(polygon: np.ndarray, point, slack=1e-9) -> bool:
    """Point-in-convex-polygon via cross products (vertices are CCW)."""
    x, y = point
    n = len(polygon)
    for i in range(n):
        ax, ay = polygon[i]
        bx, by = polygon[(i + 1) % n]
        if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < -slack:
            return False
    return True


def lattice_towers(offsets):
    """Towers at integer offsets in thousandths of a degree from ORIGIN."""
    return [tower(i, dlat / 1000, dlon / 1000)
            for i, (dlat, dlon) in enumerate(offsets, start=1)]


def grid_subset(seed, share):
    """The desk-small tower grid with a random share of it active.

    The first tower stays active, so the active set is never empty.
    """
    rng = random.Random(seed)
    return [TowerSite(t.tower_id, t.latitude, t.longitude,
                      i == 0 or rng.random() < share)
            for i, t in enumerate(DESK_GRID)]


# Every layout sits on a lattice of towers at least ~100 m apart, so the
# Voronoi vertices are well conditioned and both constructions agree to
# rounding; the lattice also makes many of them cocircular.
RANDOM_LAYOUTS = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    min_size=1, max_size=40, unique=True,
).map(lattice_towers)
COLLINEAR_LAYOUTS = st.builds(
    lambda n, step, direction: lattice_towers(
        [(i * step * direction[0], i * step * direction[1]) for i in range(n)]),
    st.integers(2, 12), st.integers(1, 8),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]),
)
GRID_LAYOUTS = st.builds(
    lambda rows, cols, step: lattice_towers(
        [(r * step, c * step) for r in range(rows) for c in range(cols)]),
    st.integers(1, 8), st.integers(1, 8), st.integers(1, 10),
)
TOWER_GRID_SUBSETS = st.builds(grid_subset, st.integers(0, 2 ** 32),
                               st.floats(0.02, 1.0))


def scattered_towers(seed, n):
    """n towers at uniform random offsets of up to 0.05 degrees."""
    offsets = np.random.default_rng(seed).uniform(-0.05, 0.05, size=(n, 2))
    return [tower(i, dlat, dlon)
            for i, (dlat, dlon) in enumerate(offsets.tolist(), start=1)]


SCATTERED_LAYOUTS = st.builds(scattered_towers, st.integers(0, 2 ** 32),
                              st.integers(1, 80))


def dropped_as_the_loop_drops(towers) -> int:
    """Assert the cells are the per-cell loop's, bit for bit; count drops."""
    pts = geo.project_active(towers).pts
    pad = geo.DEFAULT_PAD_KM
    poly, count, _ = geo._clip_cells(
        pts, (*(pts.min(axis=0) - pad), *(pts.max(axis=0) + pad)))
    want = finish_cells_loop(poly, count, pts)
    cells = tessellate(towers)
    assert len(cells) == len(want)
    for cell, (verts, area) in zip(cells, want):
        assert np.array_equal(cell.polygon, verts)
        assert cell.area == area
    return int(count.sum()) - sum(len(c.polygon) for c in cells)


def clustered_towers(seed, clusters, size):
    """``clusters`` tight groups of ``size`` towers, up to 0.1 degrees apart."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-0.1, 0.1, size=(clusters, 2))
    offsets = centres.repeat(size, axis=0) + rng.normal(0, 0.002, (clusters * size, 2))
    return [tower(i, dlat, dlon)
            for i, (dlat, dlon) in enumerate(offsets.tolist(), start=1)]


#: Lattice offsets at squared distance 25, 100 or 169 from the centre:
#: the Pythagorean triples (3, 4, 5), (6, 8, 10) and (5, 12, 13).
RINGS = [(a * sa, b * sb) for a, b in [(0, 5), (3, 4), (0, 10), (6, 8),
                                       (0, 13), (5, 12)]
         for sa in (1, -1) for sb in (1, -1)]
RINGS = sorted({p for a, b in RINGS for p in ((a, b), (b, a))})

CLUSTERED_LAYOUTS = st.builds(clustered_towers, st.integers(0, 2 ** 32),
                              st.integers(1, 4), st.integers(1, 30))
COCIRCULAR_LAYOUTS = st.lists(st.sampled_from(RINGS), unique=True).map(
    lambda ring: lattice_towers([(0, 0), *ring]))
FEW_TOWERS = st.builds(scattered_towers, st.integers(0, 2 ** 32),
                       st.integers(1, 3))


def lattice_points(cells, step):
    """Points on a lattice with an exact binary step, in km: exact ties."""
    return np.array(cells, dtype=float).reshape(-1, 2) * step


# Points in km, for the clipping itself: exact lattices and rings tie
# distances exactly, which projected towers seldom do.
POINT_LAYOUTS = st.one_of(
    st.builds(lambda seed, n: np.random.default_rng(seed).uniform(-5, 5, (n, 2)),
              st.integers(0, 2 ** 32), st.integers(1, 150)),
    st.builds(lattice_points,
              st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
                       min_size=1, max_size=150, unique=True),
              st.sampled_from([0.25, 0.5, 1.0])),
    st.builds(lattice_points,
              st.lists(st.sampled_from(RINGS), unique=True).map(
                  lambda ring: [(0, 0), *ring]),
              st.sampled_from([0.125, 0.25])),
    st.builds(lambda seed, k, m: np.random.default_rng(seed).uniform(-20, 20, (k, 2))
              .repeat(m, axis=0)
              + np.random.default_rng(seed + 1).normal(0, 0.05, (k * m, 2)),
              st.integers(0, 2 ** 30), st.integers(1, 4), st.integers(1, 40)),
    st.builds(lambda n, step, d: np.outer(np.arange(n) * step, d),
              st.integers(1, 60), st.sampled_from([0.25, 0.3, 1.0]),
              st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, -1.0)])),
)


def assert_clips_equal_the_matrix_oracle(pts, bbox):
    """``geo._clip_cells`` against the towers x towers oracle, bit for bit."""
    poly, count, clips = geo._clip_cells(pts, bbox)
    want_poly, want_count, want_clips = clip_cells_matrix(pts, bbox)
    assert np.array_equal(count, want_count)
    assert np.array_equal(clips, want_clips)
    for i, k in enumerate(count):
        assert np.array_equal(poly[i, :k], want_poly[i, :k])
    return clips


def tessellation_with(clip, towers, **kwargs):
    """``build_tessellation`` with ``clip`` in place of ``geo._clip_cells``:
    its cells, or the error it raised."""
    saved = geo._clip_cells
    geo._clip_cells = clip
    try:
        return tessellate(towers, **kwargs)
    except ConfigurationError as exc:
        return exc
    finally:
        geo._clip_cells = saved


class TestProjection:
    def test_origin_maps_to_zero(self):
        assert project_local(*ORIGIN, *ORIGIN) == (0.0, 0.0)

    def test_hundredth_degree_north_is_about_1112_meters(self):
        x, y = project_local(ORIGIN[0] + 0.01, ORIGIN[1], *ORIGIN)
        assert x == 0.0
        assert y == pytest.approx(1.112, abs=0.001)

    def test_agrees_with_great_circle_within_a_tenth_percent(self):
        rng = random.Random(7)
        for _ in range(200):
            lat1 = ORIGIN[0] + rng.uniform(-0.05, 0.05)
            lon1 = ORIGIN[1] + rng.uniform(-0.05, 0.05)
            lat2 = ORIGIN[0] + rng.uniform(-0.05, 0.05)
            lon2 = ORIGIN[1] + rng.uniform(-0.05, 0.05)
            x1, y1 = project_local(lat1, lon1, *ORIGIN)
            x2, y2 = project_local(lat2, lon2, *ORIGIN)
            planar = math.hypot(x2 - x1, y2 - y1)
            arc = haversine_km(lat1, lon1, lat2, lon2)
            if arc > 0.1:
                assert abs(planar - arc) / arc < 1e-3

    def test_far_point_rejected(self):
        with pytest.raises(ValueError, match="outside supported range"):
            project_local(ORIGIN[0] + 1.0, ORIGIN[1], *ORIGIN)

    def test_origin_is_active_tower_centroid(self):
        towers = [
            tower(1, 0.00, 0.00),
            tower(2, 0.02, 0.04),
            tower(3, 0.50, 0.50, active=False),
        ]
        lat, lon = tower_origin(towers)
        assert lat == pytest.approx(ORIGIN[0] + 0.01)
        assert lon == pytest.approx(ORIGIN[1] + 0.02)

    def test_origin_requires_an_active_tower(self):
        with pytest.raises(ConfigurationError, match="no active towers"):
            tower_origin([tower(1, 0, 0, active=False)])


class TestTessellation:
    def test_single_tower_owns_whole_box(self):
        cells = tessellate([tower(1, 0, 0)], pad_km=2.0)
        assert len(cells) == 1
        assert cells[0].area == pytest.approx(16.0, rel=1e-9)

    def test_two_towers_split_along_perpendicular_bisector(self):
        towers = [tower(1, 0, 0), tower(2, 0.02, 0)]
        midline = project_local(ORIGIN[0] + 0.01, ORIGIN[1], *ORIGIN)[1]
        bbox = (-3.0, midline - 3.0, 3.0, midline + 3.0)
        cells = tessellate(towers, bbox=bbox, origin=ORIGIN)
        areas = {c.tower_id: c.area for c in cells}
        assert areas[1] == pytest.approx(18.0, rel=1e-9)
        assert areas[2] == pytest.approx(18.0, rel=1e-9)
        # The shared boundary is the horizontal midline between the towers.
        verts = [
            {(round(x, 9), round(y, 9)) for x, y in c.polygon} for c in cells
        ]
        shared = verts[0] & verts[1]
        assert len(shared) == 2
        assert all(y == pytest.approx(midline, abs=1e-9) for _, y in shared)
        assert sorted(x for x, _ in shared) == [-3.0, 3.0]

    def test_areas_sum_to_bounding_box(self):
        rng = random.Random(1)
        towers = [
            tower(i, rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
            for i in range(1, 41)
        ]
        bbox = (-8.0, -8.0, 8.0, 8.0)
        cells = tessellate(towers, bbox=bbox)
        total = sum(c.area for c in cells)
        assert total == pytest.approx(256.0, rel=1e-6)

    def test_cells_agree_with_nearest_tower_scan(self):
        rng = random.Random(2)
        towers = [
            tower(i, rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04))
            for i in range(1, 31)
        ]
        bbox = (-6.0, -6.0, 6.0, 6.0)
        origin = ORIGIN
        cells = tessellate(towers, bbox=bbox, origin=origin)
        polys = {c.tower_id: c.polygon for c in cells}
        for _ in range(10_000):
            p = (rng.uniform(-6, 6), rng.uniform(-6, 6))
            owner = nearest_active_tower(p, towers, origin=origin)
            assert contains(polys[owner], p)

    def test_deactivating_a_tower_reassigns_only_its_points(self):
        rng = random.Random(5)
        towers = [
            tower(i, rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04))
            for i in range(1, 21)
        ]
        origin = ORIGIN
        grid = [
            (x / 2.0, y / 2.0) for x in range(-10, 11) for y in range(-10, 11)
        ]
        before = {p: nearest_active_tower(p, towers, origin=origin) for p in grid}
        victim = before[grid[0]]
        reduced = [
            TowerSite(t.tower_id, t.latitude, t.longitude, t.tower_id != victim)
            for t in towers
        ]
        after = {p: nearest_active_tower(p, reduced, origin=origin) for p in grid}
        for p in grid:
            if before[p] != victim:
                assert after[p] == before[p]
            else:
                assert after[p] != victim

    def test_equidistant_point_goes_to_smaller_tower_id(self):
        towers = [tower(7, 0.02, 0), tower(4, -0.02, 0)]
        assert nearest_active_tower((0.0, 0.0), towers, origin=ORIGIN) == 4

    def test_rejects_duplicate_tower_coordinates(self):
        towers = [tower(1, 0, 0), tower(2, 0, 0)]
        with pytest.raises(ConfigurationError, match="duplicate"):
            tessellate(towers)

    def test_rejects_empty_active_set(self):
        with pytest.raises(ConfigurationError, match="no active towers"):
            tessellate([tower(1, 0, 0, active=False)])

    def test_rejects_degenerate_bounding_box(self):
        with pytest.raises(ConfigurationError, match="degenerate"):
            tessellate([tower(1, 0, 0)], bbox=(0, 0, 0, 5))

    def test_inactive_towers_get_no_cell(self):
        towers = [tower(1, 0, 0), tower(2, 0.02, 0, active=False)]
        cells = tessellate(towers, pad_km=1.0)
        assert [c.tower_id for c in cells] == [1]

    def test_large_layouts_equal_the_matrix_oracle(self):
        # Many cells each skip many bisectors that do not cut: 1,500
        # uniform towers (an 18 MB matrix), and a lattice whose ties put
        # several towers at each distance.
        pts = np.random.default_rng(1500).uniform(0, 20, (1500, 2))
        clips = assert_clips_equal_the_matrix_oracle(pts, (-2.0, -2.0, 22.0, 22.0))
        assert clips.max() > 2 * geo._CLIP_WINDOW
        lattice = lattice_points([(i, j) for i in range(20) for j in range(21)], 1.0)
        assert_clips_equal_the_matrix_oracle(lattice, (-2.0, -2.0, 21.0, 22.0))

    @given(st.one_of(RANDOM_LAYOUTS, COLLINEAR_LAYOUTS, GRID_LAYOUTS,
                     TOWER_GRID_SUBSETS))
    @settings(max_examples=60, deadline=None)
    def test_cells_equal_the_mirrored_voronoi_oracle(self, towers):
        want = mirrored_voronoi_cells(towers)
        cells = tessellate(towers)
        assert [c.tower_id for c in cells] == sorted(want)
        for cell in cells:
            verts, area = want[cell.tower_id]
            gap = np.abs(cell.polygon[:, None] - verts[None]).max(axis=2)
            assert gap.min(axis=1).max() <= 1e-9     # ours among scipy's
            assert gap.min(axis=0).max() <= 1e-9     # scipy's among ours
            own = np.abs(cell.polygon[:, None] - cell.polygon[None]).max(axis=2)
            assert (own + np.eye(len(own)) > 1e-9).all()    # no duplicates
            assert cell.area == pytest.approx(area, rel=1e-9)
        origin = tower_origin(towers)
        pts = np.array([geo.project_tower(t, origin) for t in towers if t.active])
        width, height = pts.max(axis=0) - pts.min(axis=0) + 2 * geo.DEFAULT_PAD_KM
        total = sum(c.area for c in cells)
        assert total == pytest.approx(width * height, rel=1e-9)

    @given(st.one_of(SCATTERED_LAYOUTS, GRID_LAYOUTS, TOWER_GRID_SUBSETS))
    @settings(max_examples=80, deadline=None)
    def test_finishing_equals_the_per_cell_loop(self, towers):
        dropped_as_the_loop_drops(towers)

    def test_cocircular_grid_vertices_are_dropped_as_the_loop_drops(self):
        assert dropped_as_the_loop_drops(DESK_GRID) > 0

    @given(POINT_LAYOUTS, st.sampled_from([0.5, 2.0, 6.0]))
    @settings(max_examples=120, deadline=None)
    def test_clipping_equals_the_distance_matrix_oracle(self, pts, pad):
        pts = np.unique(pts, axis=0)
        bbox = (*(pts.min(axis=0) - pad), *(pts.max(axis=0) + pad))
        assert_clips_equal_the_matrix_oracle(pts, bbox)

    def test_cells_past_the_first_candidates_ask_again(self):
        # The desk grid's corner cells read 50 towers and its edge cells 29
        # to 31, more than their first list; with a 6 km pad, more still.
        for pad in (2.0, 6.0):
            pts = geo.project_active(DESK_GRID).pts
            bbox = (*(pts.min(axis=0) - pad), *(pts.max(axis=0) + pad))
            clips = assert_clips_equal_the_matrix_oracle(pts, bbox)
            assert clips.max() + 1 > geo.FIRST_CANDIDATES
        lattice = lattice_points([(i, j) for i in range(30) for j in range(30)], 0.25)
        clips = assert_clips_equal_the_matrix_oracle(
            lattice, (-6.0, -6.0, 13.25, 13.25))
        assert clips.max() + 1 > 4 * geo.FIRST_CANDIDATES

    @given(st.one_of(RANDOM_LAYOUTS, COLLINEAR_LAYOUTS, GRID_LAYOUTS,
                     TOWER_GRID_SUBSETS, CLUSTERED_LAYOUTS, COCIRCULAR_LAYOUTS,
                     FEW_TOWERS),
           st.one_of(st.none(), st.tuples(st.floats(-9, -0.5), st.floats(-9, -0.5),
                                          st.floats(0.5, 9), st.floats(0.5, 9))),
           st.sampled_from([None, ORIGIN, (ORIGIN[0] + 0.01, ORIGIN[1] - 0.02)]))
    @settings(max_examples=80, deadline=None)
    def test_tessellation_equals_the_matrix_oracle(self, towers, bbox, origin):
        got = tessellation_with(geo._clip_cells, towers, bbox=bbox, origin=origin)
        want = tessellation_with(clip_cells_matrix, towers, bbox=bbox, origin=origin)
        if isinstance(want, ConfigurationError):
            assert type(got) is type(want) and str(got) == str(want)
            return
        assert [c.tower_id for c in got] == [c.tower_id for c in want]
        pts = geo.project_active(towers, origin).pts
        if bbox is None:
            bbox = (*(pts.min(axis=0) - geo.DEFAULT_PAD_KM),
                    *(pts.max(axis=0) + geo.DEFAULT_PAD_KM))
        poly, count, clips = clip_cells_matrix(pts, bbox)
        looped = finish_cells_loop(poly, count, pts)
        for cell, other, (verts, area), n_clips in zip(got, want, looped, clips):
            assert np.array_equal(cell.polygon, other.polygon)
            assert np.array_equal(cell.polygon, verts)
            assert cell.area == other.area == area
            assert cell.clips == other.clips == n_clips

    def test_polygon_rows_for_export(self):
        cells = tessellate([tower(1, 0, 0)], pad_km=2.0)
        rows = geo.cells_table(cells)
        assert len(rows) == 1
        tid, area, wkt = rows[0]
        assert tid == 1
        assert area == pytest.approx(16.0, rel=1e-9)
        assert wkt.startswith("POLYGON((") and wkt.endswith("))")
        first = wkt[len("POLYGON((") : -2].split(", ")[0]
        last = wkt[len("POLYGON((") : -2].split(", ")[-1]
        assert first == last


class TestServingTowers:
    @given(st.one_of(RANDOM_LAYOUTS, GRID_LAYOUTS, CLUSTERED_LAYOUTS,
                     COCIRCULAR_LAYOUTS),
           st.integers(0, 2 ** 32), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_loop_oracle(self, towers, seed, share):
        rng = random.Random(seed)
        towers = [TowerSite(t.tower_id, t.latitude, t.longitude,
                            i == 0 or rng.random() < share)
                  for i, t in enumerate(towers)]
        # Silent towers far outside the active extent too.
        towers.append(tower(len(towers) + 1, 0.3, -0.3, active=False))
        assert serving_towers(towers) == serving_towers_loop(towers)

    @given(st.permutations([3, 5, 8, 13]))
    def test_equidistant_silent_tower_goes_to_the_smallest_id(self, ids):
        # Latitudes 25.25 to 25.75 are exact in binary, and so is their
        # centroid: the silent tower at it is exactly as far from the
        # north and south towers, and from the east and west ones.
        lat, lon = 25.5, 81.75
        towers = [TowerSite(ids[0], lat + 0.25, lon, True),
                  TowerSite(ids[1], lat - 0.25, lon, True),
                  TowerSite(ids[2], lat, lon + 0.25, True),
                  TowerSite(ids[3], lat, lon - 0.25, True),
                  TowerSite(99, lat, lon, False)]
        got = serving_towers(towers)
        assert got == serving_towers_loop(towers)
        assert got[99] == min(ids[2:])    # east-west is the nearer pair

    def test_silent_towers_of_the_desk_grid(self):
        towers = grid_subset(11, 0.3)
        assert serving_towers(towers) == serving_towers_loop(towers)


class TestBucketQuery:
    @given(POINT_LAYOUTS, st.integers(0, 2 ** 32), st.integers(1, 200),
           st.sampled_from([0.0, 0.3, 4.0, 30.0]))
    @settings(max_examples=80, deadline=None)
    def test_equals_the_stable_argsort_prefix(self, pts, seed, want, radius2):
        pts = np.unique(pts, axis=0)
        want = min(want, len(pts))
        rng = np.random.default_rng(seed)
        low, high = pts.min(axis=0) - 3, pts.max(axis=0) + 3
        where = np.vstack([pts, rng.uniform(low, high, (20, 2)),
                           rng.uniform(low - 50, high + 50, (5, 2))])
        got, got_d2, start, size = geo._Buckets(pts).nearest(where, want, radius2)
        for q, s, k in zip(where, start, size):
            d2 = ((q - pts) ** 2).sum(axis=1)
            order = np.argsort(d2, kind="stable")
            expect = order[d2[order] <= max(d2[order[want - 1]], radius2)]
            assert np.array_equal(got[s:s + k], expect)
            assert np.array_equal(got_d2[s:s + k], d2[expect])
