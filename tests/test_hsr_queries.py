"""Tests for point-visibility queries."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import HsrConfig
from repro.envelope import _ccore
from repro.geometry.primitives import Point2, Point3
from repro.hsr import queries
from repro.hsr.queries import (
    VisibilityOracle,
    _PointLanes,
    _scan_reference,
    as_observer,
    point_visible,
    visible_many,
)
from repro.reliability import faultinject as fi
from repro.reliability import guard
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


CORE = HsrConfig(engine="numpy", use_compiled_insert=True)
NO_CORE = HsrConfig(engine="numpy", use_compiled_insert=False)
PYTHON = HsrConfig(engine="python")
EPS = HsrConfig().eps


def _compiled_scan(terrain: Terrain, pts) -> list[bool]:
    """The C entry on the terrain's point lanes, called directly."""
    lanes = _PointLanes(terrain, "numpy")
    xyz = np.array([as_observer(p) for p in pts], np.float64).reshape(-1, 3)
    px, py, pz = xyz.T.copy()
    return _ccore.points_visible(lanes.block, lanes.span, px, py, pz, EPS).tolist()


def _assert_scan_matches_reference(terrain: Terrain, pts) -> None:
    """Every path of the observer scan answers :func:`point_visible`'s
    flags: the C entry (when built), the windowed reference over both
    lane builds, and the public batch forms on each engine and core
    setting."""
    want = [point_visible(terrain, p) for p in pts]
    if _ccore.HAVE_CCORE:
        assert _compiled_scan(terrain, pts) == want
    points = [as_observer(p) for p in pts]
    for engine in ("numpy", "python"):
        assert _scan_reference(_PointLanes(terrain, engine), points, EPS) == want
    for config in (None, CORE, NO_CORE, PYTHON):
        assert visible_many(terrain, pts, config=config) == want
    session = ViewshedSession(terrain, cache=EnvelopeCache())
    assert session.points_visible(pts) == want


class TestWindowedScan:
    def test_matches_reference(self, scan_terrain):
        pts = _observers(scan_terrain, seed=scan_terrain.n_edges)
        _assert_scan_matches_reference(scan_terrain, pts)

    def test_non_finite_observers(self, scan_terrain):
        x0, y0, x1, y1 = scan_terrain.xy_bounds()
        mid = ((x0 + x1) / 2, (y0 + y1) / 2, 0.0)
        # Mixed into a batch of finite observers, whose windows are wide.
        pts = _NON_FINITE + [mid] + _observers(scan_terrain, seed=1)[:20]
        _assert_scan_matches_reference(scan_terrain, pts)

    @pytest.mark.parametrize("count", [0, 1, 257])
    def test_batch_sizes(self, count):
        terrain = _SCAN_TERRAINS["fractal-rotated"]()
        pts = (_observers(terrain, seed=5) * 2)[:count]
        assert len(pts) == count
        _assert_scan_matches_reference(terrain, pts)

    def test_non_finite_ordinates_scan_every_edge(self):
        # An edge with an infinite ordinate makes the span infinite:
        # every window is all the edges, and an observer at that
        # ordinate is covered by it.
        base = fractal_terrain(size=5, seed=34)
        verts = list(base.vertices)
        v = verts[0]
        verts[0] = Point3(v.x, math.inf, v.z)
        terrain = Terrain(verts, base.faces)
        for engine in ("numpy", "python"):
            assert not math.isfinite(_PointLanes(terrain, engine).span)
        pts = _NON_FINITE + [(v.x - 1.0, math.inf, v.z - 1.0), (0.0, 2.0, 0.5)]
        _assert_scan_matches_reference(terrain, pts)

    def test_empty_terrain_sees_everything(self):
        terrain = Terrain([Point3(0.0, 0.0, 0.0)], [])
        pts = [(1.0, 0.0, -5.0), (math.nan, math.nan, math.nan)]
        assert [point_visible(terrain, p) for p in pts] == [True, True]
        _assert_scan_matches_reference(terrain, pts)

    @pytest.mark.parametrize("engine", ["numpy", "python"])
    def test_windows_hold_every_covering_edge(self, scan_terrain, engine):
        lanes = _PointLanes(scan_terrain, engine)
        rows = lanes.rows
        ys = sorted({v.y for v in scan_terrain.vertices})
        rng = random.Random(3)
        for py in ys + [rng.uniform(ys[0], ys[-1]) for _ in range(50)]:
            lo, hi = lanes.window(py)
            covering = [i for i, r in enumerate(rows) if r[1] <= py <= r[3]]
            assert not covering or (lo <= covering[0] and covering[-1] < hi)

    def test_long_edges_widen_the_windows(self):
        # The far hull sites' edges span ~200 of the ~420 y-units, so a
        # window reaches back across nearly the whole dense cluster.
        terrain = _long_edge_tin()
        lanes = _PointLanes(terrain, "numpy")
        assert lanes.span > 200.0
        widths = [hi - lo for lo, hi in map(lanes.window, (v.y for v in terrain.vertices))]
        assert max(widths) >= 0.9 * terrain.n_edges

    def test_lanes_gather_the_segment_fields(self, scan_terrain):
        lanes = _PointLanes(scan_terrain, "numpy")
        block = lanes.block
        assert block.dtype == np.float64 and block.flags.c_contiguous
        assert block.shape == (8, scan_terrain.n_edges)
        want = []
        for e in range(scan_terrain.n_edges):
            m = scan_terrain.map_segment(e)
            s = scan_terrain.image_segment(e)
            want.append((m.x1, m.y1, m.x2, m.y2, s.y1, s.z1, s.y2, s.z2))
        assert sorted(map(tuple, block.T.tolist())) == sorted(want)
        assert list(block[1]) == sorted(block[1])
        # The segment-built lanes of the python engine: the same
        # columns in the same (stable) order, bit for bit.
        built = _PointLanes(scan_terrain, "python")
        assert built.block is None
        assert np.array(built.rows).tobytes() == block.T.tobytes()
        assert np.array(lanes.rows).tobytes() == block.T.tobytes()
        assert built.span == lanes.span


@pytest.mark.skipif(not _ccore.HAVE_CCORE, reason="compiled core not built")
class TestPointScanDispatch:
    """Which path answers a batch, and how the ``point_scan`` guard site
    degrades it."""

    @pytest.fixture(autouse=True)
    def _clean_state(self):
        fi.clear()
        guard.reset_ambient()
        yield
        fi.clear()
        guard.reset_ambient()

    @pytest.fixture
    def case(self, monkeypatch):
        terrain = _SCAN_TERRAINS["fractal-rotated"]()
        pts = _observers(terrain, seed=9)
        calls = []
        real_core = _ccore.points_visible
        monkeypatch.setattr(
            _ccore, "points_visible", lambda *a: calls.append("core") or real_core(*a)
        )
        real_ref = queries._scan_reference
        monkeypatch.setattr(
            queries,
            "_scan_reference",
            lambda *a: calls.append("reference") or real_ref(*a),
        )
        want = [point_visible(terrain, p) for p in pts]
        return terrain, pts, want, calls

    def test_one_core_call_per_batch(self, case):
        terrain, pts, want, calls = case
        session = ViewshedSession(terrain, config=CORE, cache=EnvelopeCache())
        assert session.points_visible(pts) == want
        assert session.points_visible(pts[:3]) == want[:3]
        assert calls == ["core", "core"]

    @pytest.mark.parametrize("config", [NO_CORE, PYTHON], ids=["no-core", "python"])
    def test_reference_answers_without_the_core(self, case, config):
        terrain, pts, want, calls = case
        assert visible_many(terrain, pts, config=config) == want
        assert calls == ["reference"]

    def test_raise_plan_answers_on_the_reference(self, case):
        terrain, pts, want, calls = case
        session = ViewshedSession(terrain, config=CORE, cache=EnvelopeCache())
        with guard.reliability_run() as report:
            with fi.inject("point_scan", "raise") as plan:
                got = session.points_visible(pts)
        assert got == want
        assert plan.fired == 1
        assert calls == ["reference"]  # tripped before the C call
        rec = report.sites["point_scan"]
        assert rec.count == 1 and not rec.quarantined

    def test_repeat_plan_quarantines_and_stays_exact(self, case):
        terrain, pts, want, calls = case
        session = ViewshedSession(terrain, config=CORE, cache=EnvelopeCache())
        batches = guard.FAULT_THRESHOLD + 2
        with guard.reliability_run() as report:
            with fi.inject("point_scan", "raise", repeat=True) as plan:
                answers = [session.points_visible(pts) for _ in range(batches)]
        assert all(got == want for got in answers)
        assert plan.fired == guard.FAULT_THRESHOLD
        assert calls == ["reference"] * batches
        assert report.sites["point_scan"].quarantined


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
