"""Tests for point-visibility queries."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import HsrConfig
from repro.geometry.primitives import Point2, Point3
from repro.hsr.queries import (
    _POINT_BLOCK,
    VisibilityOracle,
    _PointLanes,
    point_visible,
    visible_many,
)
from repro.service import EnvelopeCache, ViewshedSession
from repro.terrain.generators import (
    fractal_terrain,
    grid_terrain_from_heights,
    valley_terrain,
)
from repro.terrain.model import Terrain
from repro.terrain.triangulate import bowyer_watson


@pytest.fixture(scope="module")
def ramp():
    """Plane rising toward the viewer (crest occludes the far side)."""
    rows = cols = 8
    h = np.arange(rows, dtype=float)[:, None] * np.ones((1, cols))
    return grid_terrain_from_heights(h, jitter_seed=1)


class TestPointVisible:
    def test_above_everything(self, ramp):
        assert point_visible(ramp, Point3(0.0, 3.0, 100.0))

    def test_in_front_of_everything(self, ramp):
        assert point_visible(ramp, Point3(50.0, 3.0, 0.5))

    def test_behind_crest_low(self, ramp):
        # Far side of the ramp, below the crest height: occluded.
        assert not point_visible(ramp, Point3(0.0, 3.0, 1.0))

    def test_behind_crest_above(self, ramp):
        # Far side but above the crest: visible.
        assert point_visible(ramp, Point3(0.0, 3.0, 10.0))

    def test_outside_y_range(self, ramp):
        # No edge covers this y: nothing can occlude.
        assert point_visible(ramp, Point3(0.0, 1e6, -100.0))

    def test_point_on_surface_visible_when_front(self, ramp):
        # A point on the crest surface itself.
        v = ramp.vertices[ramp.n_vertices - 1]
        assert point_visible(ramp, v)


class TestOracle:
    def test_matches_reference_random(self):
        t = fractal_terrain(size=9, seed=23)
        oracle = VisibilityOracle(t)
        rng = random.Random(5)
        x0, y0, x1, y1 = t.xy_bounds()
        z0, z1 = t.height_range()
        pts = [
            Point3(
                rng.uniform(x0 - 2, x1 + 2),
                rng.uniform(y0, y1),
                rng.uniform(z0 - 2, z1 + 4),
            )
            for _ in range(120)
        ]
        got = oracle.visible_many(pts)
        want = [point_visible(t, p) for p in pts]
        assert got == want

    def test_matches_reference_on_surface_points(self):
        t = fractal_terrain(size=9, seed=24)
        oracle = VisibilityOracle(t)
        for v in t.vertices[:: max(1, t.n_vertices // 40)]:
            assert oracle.visible(v) == point_visible(t, v)

    def test_checkpoint_count(self):
        t = fractal_terrain(size=9, seed=25)
        oracle = VisibilityOracle(t, checkpoints=5)
        assert 2 <= oracle.n_checkpoints <= 8

    def test_single_checkpoint_degenerate(self):
        t = fractal_terrain(size=5, seed=26)
        oracle = VisibilityOracle(t, checkpoints=1)
        rng = random.Random(2)
        x0, y0, x1, y1 = t.xy_bounds()
        for _ in range(30):
            p = Point3(
                rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(0, 8)
            )
            assert oracle.visible(p) == point_visible(t, p)

    def test_visible_points_match_visible_edges(self):
        """Midpoints of visible edge portions must be visible points;
        midpoints of fully hidden edges must not."""
        from repro.hsr.sequential import SequentialHSR

        t = fractal_terrain(size=9, seed=27)
        res = SequentialHSR().run(t)
        visible_edges = res.visibility_map.visible_edges()
        oracle = VisibilityOracle(t)
        checked_vis = checked_hid = 0
        for e in range(t.n_edges):
            a, b = t.edge_endpoints(e)
            mid = Point3(
                (a.x + b.x) / 2, (a.y + b.y) / 2, (a.z + b.z) / 2
            )
            if e in visible_edges:
                ivals = res.visibility_map.edge_intervals(e)
                total = sum(y2 - y1 for y1, y2 in ivals)
                seg = t.image_segment(e)
                if (
                    not seg.is_vertical
                    and total >= (seg.y2 - seg.y1) - 1e-9
                ):
                    # Fully visible edge: its midpoint must be visible.
                    assert oracle.visible(mid), f"edge {e} midpoint"
                    checked_vis += 1
            else:
                assert not oracle.visible(mid) or _near_silhouette(
                    t, mid
                ), f"hidden edge {e} midpoint visible"
                checked_hid += 1
        assert checked_vis > 5 and checked_hid > 5


def _near_silhouette(t, p, eps=1e-6) -> bool:
    """Borderline case: the midpoint sits within eps of the occluding
    profile (grazing contact) — either verdict is acceptable."""
    from repro.geometry.primitives import NEG_INF

    best = NEG_INF
    for e in range(t.n_edges):
        m = t.map_segment(e)
        if m.y1 <= p.y <= m.y2 and m.x_at(p.y) > p.x + 1e-12:
            z = t.image_segment(e).z_at(p.y)
            best = max(best, z)
    return best != NEG_INF and abs(best - p.z) < 1e-6


# ---------------------------------------------------------------------------
# The windowed point scan (visible_many, numpy engine) against the reference


def _long_edge_tin() -> Terrain:
    """A Delaunay TIN whose two far hull sites pull edges across the
    whole y-range: the window's worst case, every edge in every window."""
    rng = random.Random(8)
    xy = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(60)]
    xy += [(10.0, -200.0), (10.5, 220.0), (-40.0, 9.0)]
    faces = bowyer_watson([Point2(x, y) for x, y in xy])
    verts = [Point3(x, y, rng.uniform(0.0, 6.0)) for x, y in xy]
    return Terrain(verts, faces)


def _lattice() -> Terrain:
    """Unrotated exact grid: horizontal map edges, vertical image edges
    and many edges sharing each ordinate."""
    h = np.random.default_rng(4).uniform(0.0, 5.0, (7, 8))
    return grid_terrain_from_heights(h, jitter_seed=None)


_SCAN_TERRAINS = {
    "fractal": lambda: fractal_terrain(size=9, seed=31),
    "fractal-rotated": lambda: fractal_terrain(size=9, seed=32).rotated(23.0),
    "valley": lambda: valley_terrain(rows=9, cols=9, seed=2),
    "tin-long-edges": _long_edge_tin,
    "lattice": _lattice,
    # Coordinates near 1e7: the window bound's rounding is ~1e-9 here.
    "fractal-far": lambda: fractal_terrain(size=9, seed=33).translated(
        3.0e7, -1.0e7, 0.0
    ),
}


@pytest.fixture(scope="module", params=sorted(_SCAN_TERRAINS))
def scan_terrain(request):
    return _SCAN_TERRAINS[request.param]()


def _observers(terrain: Terrain, seed: int) -> list[tuple]:
    """Random observers plus the boundary cases of the window and the
    eps test: vertex ordinates, on-surface points and their eps
    neighbours, and ordinates outside the terrain's y-range."""
    rng = random.Random(seed)
    x0, y0, x1, y1 = terrain.xy_bounds()
    z0, z1 = terrain.height_range()
    eps = HsrConfig().eps
    out = [
        (rng.uniform(x0 - 2, x1 + 2), rng.uniform(y0, y1), rng.uniform(z0 - 1, z1 + 2))
        for _ in range(120)
    ]
    for v in rng.sample(terrain.vertices, min(40, terrain.n_vertices)):
        out.append((v.x, v.y, v.z))
        out.append((v.x, v.y, v.z - eps))
        out.append((v.x, v.y, math.nextafter(v.z - eps, -math.inf)))
        out.append((rng.uniform(x0, x1), v.y, rng.uniform(z0, z1)))
    for e in rng.sample(range(terrain.n_edges), min(30, terrain.n_edges)):
        a, b = terrain.edge_endpoints(e)
        out.append(((a.x + b.x) / 2, (a.y + b.y) / 2, (a.z + b.z) / 2))
    for y in (y0 - 1.0, y1 + 1.0, math.nextafter(y0, -math.inf), math.nextafter(y1, math.inf)):
        out.append(((x0 + x1) / 2, y, z0 - 5.0))
    return out


_NON_FINITE = [
    (math.nan, 1.0, 1.0),
    (1.0, math.nan, 1.0),
    (1.0, 1.0, math.nan),
    (math.inf, 1.0, 0.0),
    (-math.inf, 1.0, 0.0),
    (1.0, math.inf, 0.0),
    (1.0, -math.inf, 0.0),
    (1.0, 1.0, math.inf),
    (1.0, 1.0, -math.inf),
]


def _assert_scan_matches_reference(terrain: Terrain, pts) -> None:
    want = [point_visible(terrain, p) for p in pts]
    assert visible_many(terrain, pts) == want
    assert visible_many(terrain, pts, config=HsrConfig(engine="python")) == want
    session = ViewshedSession(terrain, cache=EnvelopeCache())
    assert session.points_visible(pts) == want


class TestWindowedScan:
    def test_matches_reference(self, scan_terrain):
        pts = _observers(scan_terrain, seed=scan_terrain.n_edges)
        assert len(pts) > _POINT_BLOCK  # two blocks
        _assert_scan_matches_reference(scan_terrain, pts)

    def test_non_finite_observers(self, scan_terrain):
        x0, y0, x1, y1 = scan_terrain.xy_bounds()
        mid = ((x0 + x1) / 2, (y0 + y1) / 2, 0.0)
        # Mixed into a block of finite observers, whose windows are wide.
        pts = _NON_FINITE + [mid] + _observers(scan_terrain, seed=1)[:20]
        _assert_scan_matches_reference(scan_terrain, pts)

    @pytest.mark.parametrize("count", [0, 1, _POINT_BLOCK + 1])
    def test_batch_sizes(self, count):
        terrain = _SCAN_TERRAINS["fractal-rotated"]()
        pts = (_observers(terrain, seed=5) * 2)[:count]
        assert len(pts) == count
        _assert_scan_matches_reference(terrain, pts)

    def test_windows_hold_every_covering_edge(self, scan_terrain):
        lanes = _PointLanes(scan_terrain)
        ys = sorted({v.y for v in scan_terrain.vertices})
        rng = random.Random(3)
        probe = ys + [rng.uniform(ys[0], ys[-1]) for _ in range(50)]
        lo, hi = lanes.windows(np.array(probe))
        y1, y2 = lanes.lanes[1], lanes.lanes[3]
        for py, a, b in zip(probe, lo, hi):
            covering = np.flatnonzero((y1 <= py) & (py <= y2))
            assert covering.size == 0 or (a <= covering.min() and covering.max() < b)

    def test_long_edges_widen_the_windows(self):
        # The far hull sites' edges span ~200 of the ~420 y-units, so a
        # window reaches back across nearly the whole dense cluster.
        terrain = _long_edge_tin()
        lanes = _PointLanes(terrain)
        assert lanes.span > 200.0
        lo, hi = lanes.windows(np.array([v.y for v in terrain.vertices]))
        assert (hi - lo).max() >= 0.9 * terrain.n_edges

    def test_lanes_gather_the_segment_fields(self, scan_terrain):
        lanes = _PointLanes(scan_terrain)
        got = sorted(map(tuple, lanes.lanes.T.tolist()))
        want = []
        for e in range(scan_terrain.n_edges):
            m = scan_terrain.map_segment(e)
            s = scan_terrain.image_segment(e)
            want.append((m.x1, m.y1, m.x2, m.y2, s.y1, s.z1, s.y2, s.z2))
        assert got == sorted(want)
        assert list(lanes.lanes[1]) == sorted(lanes.lanes[1])


_FUZZ_TERRAINS = {name: make() for name, make in _SCAN_TERRAINS.items()}


@st.composite
def _fuzz_case(draw):
    name = draw(st.sampled_from(sorted(_FUZZ_TERRAINS)))
    terrain = _FUZZ_TERRAINS[name]
    x0, y0, x1, y1 = terrain.xy_bounds()
    z0, z1 = terrain.height_range()
    vy = [v.y for v in terrain.vertices]
    vz = [v.z for v in terrain.vertices]
    coord = st.floats(allow_nan=False, allow_infinity=False)
    ys = st.one_of(
        st.sampled_from(vy), st.floats(y0 - 1, y1 + 1), coord
    )
    zs = st.one_of(st.sampled_from(vz), st.floats(z0 - 1, z1 + 1), coord)
    xs = st.one_of(st.floats(x0 - 1, x1 + 1), coord)
    pts = draw(st.lists(st.tuples(xs, ys, zs), max_size=12))
    return terrain, pts


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_fuzz_case())
def test_windowed_scan_fuzz(case):
    terrain, pts = case
    _assert_scan_matches_reference(terrain, pts)
