"""Tests for front-to-back ordering and the separator tree, including
the compiled ordering's parity with the Python sweep."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HsrConfig
from repro.envelope import _ccore
from repro.errors import OrderingError
from repro.geometry.primitives import Point2, Point3
from repro.geometry.segments import MapSegment
from repro.hsr.parallel import ParallelHSR
from repro.hsr.sequential import SequentialHSR
from repro.ordering.separator import SeparatorTree
from repro.ordering.sweep import (
    front_to_back_order,
    in_front_comparison,
    map_lanes,
    order_constraints,
)
from repro.terrain.generators import (
    fractal_terrain,
    random_terrain,
    valley_terrain,
)
from repro.terrain.model import Terrain

needs_ccore = pytest.mark.skipif(
    not _ccore.HAVE_CCORE,
    reason="optional compiled core not built in this environment",
)

#: Three mutually-overlapping crossing segments (invalid as terrain
#: projections); the sweep still orders them.
CROSSING_SEGMENTS = [
    MapSegment(0.0, 0.0, 10.0, 10.0, 0),
    MapSegment(10.0, 0.0, 0.0, 10.0, 1),
    MapSegment(5.0, -1.0, 5.5, 11.0, 2),
]

#: Crossing segments whose sources are a permutation of their indices:
#: the recorded constraints form a cycle.
CYCLE_SEGMENTS = [
    MapSegment(4.0, 0.0, 1.0, 4.0, 2),
    MapSegment(3.0, 0.0, 3.0, 2.0, 1),
    MapSegment(3.0, 0.0, 2.0, 4.0, 0),
]

#: Three pairwise-crossing segments whose in-front pairs, taken as one
#: face, form the cycle 1 → 0 → 2 → 1 (sources equal their indices).
FACE_CYCLE_SEGMENTS = [
    MapSegment(0.0, 0.0, 0.0, 10.0, 0),
    MapSegment(1.0, 0.0, 1.0, 4.0, 1),
    MapSegment(2.0, 2.0, -4.0, 10.0, 2),
]

#: ``front_to_back_order(fractal_terrain(size=5, seed=2))``, pinned so
#: every path (compiled, Python sweep, no-compiler install) is checked
#: against the same answer.
PINNED_FRACTAL5_ORDER = [
    52, 42, 39, 40, 27, 28, 43, 53, 44, 54, 55, 49, 48, 45, 46, 41, 32,
    29, 30, 26, 16, 13, 14, 1, 2, 0, 4, 17, 18, 15, 20, 33, 34, 31, 36,
    50, 47, 51, 38, 37, 35, 23, 22, 19, 7, 6, 3, 8, 5, 10, 24, 21, 11,
    9, 12, 25,
]

#: A terrain with no vertices in use: ``segments=`` supplies the input.
_BARE = Terrain([Point3(0, 0, 0)], [], validate=False)


class TestInFrontComparison:
    def test_clear_order(self):
        a = MapSegment(10.0, 0.0, 10.0, 5.0, 0)  # vertical at x=10
        b = MapSegment(1.0, 0.0, 1.0, 5.0, 1)
        assert in_front_comparison(a, b) == 1
        assert in_front_comparison(b, a) == -1

    def test_no_overlap(self):
        a = MapSegment(0.0, 0.0, 1.0, 1.0, 0)
        b = MapSegment(5.0, 2.0, 6.0, 3.0, 1)
        assert in_front_comparison(a, b) == 0

    def test_touching_endpoints_no_constraint(self):
        a = MapSegment(0.0, 0.0, 1.0, 1.0, 0)
        b = MapSegment(9.0, 1.0, 9.0, 2.0, 1)
        assert in_front_comparison(a, b) == 0

    def test_shared_vertex_divergent(self):
        # Both start at the same map point, diverge in x.
        a = MapSegment(0.0, 0.0, 5.0, 10.0, 0)
        b = MapSegment(0.0, 0.0, -5.0, 10.0, 1)
        assert in_front_comparison(a, b) == 1


class TestOrderCorrectness:
    def _assert_valid_order(self, terrain: Terrain, order: list[int]):
        """Every in-front pair must appear in front-to-back order."""
        pos = {e: i for i, e in enumerate(order)}
        segs = terrain.map_segments()
        n = len(segs)
        for a in range(n):
            for b in range(a + 1, n):
                c = in_front_comparison(segs[a], segs[b])
                if c == 1:
                    assert pos[a] < pos[b], (
                        f"edge {a} is in front of {b} but ordered later"
                    )
                elif c == -1:
                    assert pos[b] < pos[a], (
                        f"edge {b} is in front of {a} but ordered later"
                    )

    def test_permutation(self):
        t = fractal_terrain(size=9, seed=1)
        order = front_to_back_order(t)
        assert sorted(order) == list(range(t.n_edges))

    def test_valid_on_fractal(self):
        t = fractal_terrain(size=5, seed=2)
        self._assert_valid_order(t, front_to_back_order(t))

    def test_valid_on_valley(self):
        t = valley_terrain(rows=6, cols=6, seed=3)
        self._assert_valid_order(t, front_to_back_order(t))

    def test_valid_on_random_delaunay(self):
        t = random_terrain(n_points=40, seed=4)
        self._assert_valid_order(t, front_to_back_order(t))

    def test_deterministic(self):
        t = fractal_terrain(size=9, seed=5)
        assert front_to_back_order(t) == front_to_back_order(t)

    def test_handles_horizontal_map_edges(self):
        # Exact lattice (no jitter): many edges with constant sweep y.
        import numpy as np

        from repro.terrain.generators import grid_terrain_from_heights

        t = grid_terrain_from_heights(
            np.arange(16, dtype=float).reshape(4, 4), jitter_seed=None
        )
        order = front_to_back_order(t)
        assert sorted(order) == list(range(t.n_edges))

    def test_constraint_count_linear(self):
        t = fractal_terrain(size=17, seed=6)
        cons = order_constraints(t.map_segments())
        assert len(cons) <= 3 * t.n_edges

    def test_cycle_detection(self):
        # These cross, so the sweep's status order is inconsistent —
        # either an OrderingError is raised or the output is still a
        # permutation (crossings break the in-front premise, both
        # behaviours are acceptable; what must never happen is a hang
        # or a wrong-length result silently).
        try:
            order = front_to_back_order(_BARE, segments=CROSSING_SEGMENTS)
            assert sorted(order) == [0, 1, 2]
        except OrderingError:
            pass

    def test_constraint_cycle_raises(self):
        with pytest.raises(OrderingError, match="cycle"):
            front_to_back_order(_BARE, segments=CYCLE_SEGMENTS)

    @pytest.mark.parametrize("engine", ["python", "numpy"])
    def test_pinned_order(self, engine):
        t = fractal_terrain(size=5, seed=2)
        assert front_to_back_order(t, engine=engine) == PINNED_FRACTAL5_ORDER


def _parity_terrain(case: str) -> Terrain:
    """The compiled-vs-Python ordering matrix: rotated fractal frames,
    valley, random Delaunay, the exact lattice (horizontal map edges),
    the packaged DEM tile and flyover frames."""
    if case.startswith("fractal"):
        size, az = (int(v) for v in case[len("fractal"):].split("@"))
        return fractal_terrain(size=size, seed=3).rotated(az)
    if case == "valley":
        return valley_terrain(rows=9, cols=9, seed=3)
    if case == "delaunay":
        return random_terrain(n_points=60, seed=4)
    if case == "lattice":
        import numpy as np

        from repro.terrain.generators import grid_terrain_from_heights

        return grid_terrain_from_heights(
            np.arange(36, dtype=float).reshape(6, 6), jitter_seed=None
        )
    from repro.scenarios.instances import dem_terrain_for, flyover_terrains

    if case == "dem":
        return dem_terrain_for(
            {"path": "data/dem_tile.asc", "format": "esri-ascii"}
        )
    frame = int(case[len("flyover"):])
    return flyover_terrains(
        {"family": "fractal", "size": 17, "seed": 7, "frames": 4}
    )[frame]


PARITY_CASES = [
    f"fractal{size}@{az}" for size in (9, 17, 33) for az in (0, 30, 90, 135)
] + ["valley", "delaunay", "lattice", "dem"] + [
    f"flyover{i}" for i in range(4)
]


def _lane_bytes(lanes) -> list:
    """Each lane's element kind (float or integer), width and raw bytes,
    for numpy arrays and ``array`` buffers alike: equal exactly when the
    lanes hold the same values bit for bit (``-0.0`` and NaN payloads
    included)."""
    views = [memoryview(lane) for lane in lanes]
    return [(v.format in "fd", v.itemsize, v.tobytes()) for v in views]


def _outcome(fn):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return ("ok", fn())
    except Exception as exc:
        return (type(exc), str(exc))


def _assert_compiled_parity(terrain: Terrain, segments=None):
    lanes = map_lanes(terrain, segments)
    segs = list(segments) if segments is not None else terrain.map_segments()
    assert _ccore.order_constraints(*lanes) == order_constraints(segs)
    for tie_break, sign in (("min", 1), ("max", -1)):
        ref = front_to_back_order(
            terrain, segments=segments, tie_break=tie_break, engine="python"
        )
        assert _ccore.front_to_back(*lanes, sign) == ref
        if segments is None:
            assert _ccore.front_to_back(*lanes, sign, *terrain.face_edges()) == ref
        assert (
            front_to_back_order(
                terrain, segments=segments, tie_break=tie_break, engine="numpy"
            )
            == ref
        )


class TestCompiledOrdering:
    """The C ordering is a literal transcription of the sweep: identical
    constraint lists and identical orders for both ``tie_break``s."""

    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_lanes_match_map_segments(self, case):
        t = _parity_terrain(case)
        assert _lane_bytes(map_lanes(t)) == _lane_bytes(
            map_lanes(t, t.map_segments())
        )

    @needs_ccore
    @pytest.mark.parametrize("case", PARITY_CASES)
    def test_matrix_parity(self, case):
        _assert_compiled_parity(_parity_terrain(case))

    @needs_ccore
    def test_parity_from_segment_list(self):
        t = fractal_terrain(size=9, seed=3).rotated(45)
        _assert_compiled_parity(t, segments=t.map_segments())

    @needs_ccore
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        azimuth=st.floats(0.0, 360.0, allow_nan=False),
    )
    def test_fuzz_random_terrain(self, seed, azimuth):
        # Also the face pass, which answers unless an edge is horizontal.
        t = random_terrain(n_points=30, seed=seed).rotated(azimuth)
        _assert_compiled_parity(t)
        _x1, y1, _x2, y2, _src = map_lanes(t)
        assert _face_path(t, 1)[1] == ("horizontal" if (y1 == y2).any() else "faces")

    @needs_ccore
    def test_crossing_segments_same_by_either_path(self):
        _assert_compiled_parity(_BARE, segments=CROSSING_SEGMENTS)

    @needs_ccore
    def test_cycle_declines_to_the_same_error(self):
        # A cycle needs sources that differ from the lane indices
        # (test_identity_sources_never_cycle), which the C call
        # declines before it sweeps; the Python sweep then finds the
        # cycle under either engine.
        lanes = map_lanes(_BARE, CYCLE_SEGMENTS)
        assert _ccore.front_to_back(*lanes, 1) is None
        outcomes = {
            engine: _outcome(
                lambda e=engine: front_to_back_order(
                    _BARE, segments=CYCLE_SEGMENTS, engine=e
                )
            )
            for engine in ("python", "numpy")
        }
        assert outcomes["numpy"] == outcomes["python"]
        assert outcomes["python"][0] is OrderingError

    @needs_ccore
    def test_identity_sources_never_cycle(self):
        # CYCLE_SEGMENTS relabelled with sources equal to their
        # indices: every recorded (front, back) then has front after
        # back in the order the status list ever held its entries, so
        # the graph is acyclic and the C sweep orders every edge.
        segs = [s._replace(source=i) for i, s in enumerate(CYCLE_SEGMENTS)]
        lanes = map_lanes(_BARE, segs)
        for tie_break, sign in (("min", 1), ("max", -1)):
            order = _ccore.front_to_back(*lanes, sign)
            assert sorted(order) == [0, 1, 2]
            assert order == front_to_back_order(
                _BARE, segments=segs, tie_break=tie_break, engine="python"
            )

    @needs_ccore
    @pytest.mark.parametrize("bad_source", [-1, 2, 99])
    def test_out_of_range_source_declines(self, bad_source):
        segs = [
            MapSegment(0.0, 0.0, 1.0, 1.0, 0),
            MapSegment(3.0, 0.0, 3.0, 1.0, bad_source),
        ]
        assert _ccore.front_to_back(*map_lanes(_BARE, segs), 1) is None
        assert _ccore.order_constraints(*map_lanes(_BARE, segs)) is None
        assert _outcome(
            lambda: front_to_back_order(_BARE, segments=segs, engine="numpy")
        ) == _outcome(
            lambda: front_to_back_order(_BARE, segments=segs, engine="python")
        )

    @needs_ccore
    def test_nan_sweep_y_declines(self):
        segs = [
            MapSegment(0.0, 0.0, 1.0, 1.0, 0),
            MapSegment(3.0, math.nan, 3.0, 1.0, 1),
        ]
        assert _ccore.front_to_back(*map_lanes(_BARE, segs), 1) is None
        assert _outcome(
            lambda: front_to_back_order(_BARE, segments=segs, engine="numpy")
        ) == _outcome(
            lambda: front_to_back_order(_BARE, segments=segs, engine="python")
        )

    @needs_ccore
    def test_empty_input(self):
        assert front_to_back_order(_BARE, segments=[], engine="numpy") == []

    @needs_ccore
    def test_events_at_equal_y(self):
        # Removals, horizontals and insertions sharing sweep ys, with
        # idx order differing from x order: the radix-sorted events
        # must replay the (y, kind, idx) tuple order.
        segs = [
            MapSegment(5.0, 0.0, 5.0, 2.0, 0),
            MapSegment(1.0, 2.0, 1.0, 4.0, 1),
            MapSegment(3.0, 0.0, 4.0, 2.0, 2),
            MapSegment(0.0, 2.0, 6.0, 2.0, 3),  # horizontal at y = 2
            MapSegment(2.0, 2.0, 2.5, 2.0, 4),  # horizontal at y = 2
            MapSegment(4.0, 2.0, 3.0, 4.0, 5),
            MapSegment(7.0, 0.0, 7.0, 4.0, 6),
            MapSegment(6.0, 4.0, 6.5, 4.0, 7),  # horizontal at y = 4
            MapSegment(0.5, 0.0, 0.5, 2.0, 8),
        ]
        _assert_compiled_parity(_BARE, segments=segs)

    @needs_ccore
    def test_signed_zero_and_infinite_y(self):
        # -0.0 and 0.0 are one sweep y; infinite ys sort at the ends.
        segs = [
            MapSegment(1.0, -0.0, 1.0, 1.0, 0),
            MapSegment(2.0, 0.0, 2.0, 1.0, 1),
            MapSegment(0.0, -1.0, 0.0, -0.0, 2),
            MapSegment(3.0, -1.0, 3.0, 0.0, 3),
            MapSegment(4.0, -0.0, 5.0, -0.0, 4),
            MapSegment(9.0, -math.inf, 9.0, math.inf, 5),
        ]
        _assert_compiled_parity(_BARE, segments=segs)

    @needs_ccore
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(*[st.integers(-3, 3)] * 4), min_size=1, max_size=12
        ),
        zero=st.sampled_from([0.0, -0.0]),
    )
    def test_fuzz_integer_grid_segments(self, rows, zero):
        # Small integer coordinates make equal ys, horizontals and
        # shared endpoints the common case.
        segs = [
            MapSegment.make(
                Point2(float(x1), y1 + zero), Point2(float(x2), y2 + zero), i
            )
            for i, (x1, y1, x2, y2) in enumerate(rows)
        ]
        lanes = map_lanes(_BARE, segs)
        assert _ccore.order_constraints(*lanes) == order_constraints(segs)
        for tie_break, sign in (("min", 1), ("max", -1)):
            # Crossing segments too: with sources equal to their
            # indices no cycle is recorded, so both paths order all.
            ref = front_to_back_order(
                _BARE, segments=segs, tie_break=tie_break, engine="python"
            )
            assert _ccore.front_to_back(*lanes, sign) == ref

    @needs_ccore
    def test_permuted_sources_decline(self):
        # Only a terrain's lanes (source == lane index) reach the C
        # sweep; a permuted segment list is answered by the Python
        # sweep, identically under both engines.
        t = fractal_terrain(size=5, seed=2)
        segs = t.map_segments()[::-1]
        assert _ccore.front_to_back(*map_lanes(t, segs), 1) is None
        assert _ccore.order_constraints(*map_lanes(t, segs)) is None
        for tie_break in ("min", "max"):
            assert _outcome(
                lambda tb=tie_break: front_to_back_order(
                    t, segments=segs, tie_break=tb, engine="numpy"
                )
            ) == _outcome(
                lambda tb=tie_break: front_to_back_order(
                    t, segments=segs, tie_break=tb, engine="python"
                )
            )


def _family_terrain(case: str) -> Terrain:
    """``family@azimuth`` of the face-pass matrix: the ``terrain_for``
    families, random Delaunay and the packaged DEM tile."""
    from repro.scenarios.instances import dem_terrain_for, terrain_for

    family, az = case.split("@")
    if family == "delaunay":
        t = random_terrain(n_points=80, seed=5)
    elif family == "dem":
        t = dem_terrain_for({"path": "data/dem_tile.asc", "format": "esri-ascii"})
    else:
        size = 9 if family == "fractal" else 8
        return terrain_for({"family": family, "size": size, "seed": 2, "observer": az})
    return t.rotated(float(az)) if float(az) else t


FAMILY_CASES = [
    f"{family}@{az}"
    for family in (
        "fractal", "valley", "ridge", "plateau", "shielded_basin",
        "constant_plateau", "lattice_plateau", "delaunay", "dem",
    )
    for az in (0, 30, 90, 135, 250)
]


def _face_path(terrain: Terrain, sign: int):
    """``(order, path)`` of the compiled call on ``terrain``'s lanes and
    face table."""
    return _ccore.ordering_path(*map_lanes(terrain), sign, *terrain.face_edges())


@needs_ccore
class TestFacePass:
    """The face pass — each face's in-front pairs plus a sweep over the
    boundary edges alone — gives the full sweep's order, byte for byte,
    and declines to that sweep inside the same call."""

    @pytest.mark.parametrize("case", FAMILY_CASES)
    def test_family_azimuth_matrix(self, case):
        t = _family_terrain(case)
        for tie_break, sign in (("min", 1), ("max", -1)):
            ref = front_to_back_order(t, tie_break=tie_break, engine="python")
            order, path = _face_path(t, sign)
            assert order == ref
            assert front_to_back_order(t, tie_break=tie_break) == ref
            if case in ("lattice_plateau@0", "lattice_plateau@90"):
                assert path == "horizontal"
            elif not case.startswith("lattice_plateau"):
                assert path == "faces"  # every jittered frame

    def _assert_declines(self, terrain, segments, faces, reason):
        lanes = map_lanes(terrain, segments)
        for tie_break, sign in (("min", 1), ("max", -1)):
            order, path = _ccore.ordering_path(*lanes, sign, *faces)
            assert path == reason
            assert order == _ccore.front_to_back(*lanes, sign)
            assert order == front_to_back_order(
                terrain, segments=segments, tie_break=tie_break, engine="python"
            )

    def test_cycle_declines_to_the_sweep(self):
        # A face table that is not the segments' own: its three pairs
        # are true in-front pairs of crossing segments and form a
        # cycle, so Kahn orders no edge and the full sweep answers.
        import numpy as np

        faces = (np.array([[0, 1, 2]]), np.array([0, 1, 2]))
        self._assert_declines(_BARE, FACE_CYCLE_SEGMENTS, faces, "cycle")

    def test_tie_declines_to_the_sweep(self):
        import numpy as np

        faces = (np.array([[0, 1, 2]]), np.array([0, 1, 2]))
        self._assert_declines(_BARE, CROSSING_SEGMENTS, faces, "tie")

    def test_edge_in_three_faces_declines(self):
        import numpy as np

        t = fractal_terrain(size=5, seed=2)
        table, boundary = t.face_edges()
        twice = (np.concatenate((table, table)), boundary)
        self._assert_declines(t, None, twice, "non-manifold")
        outside = table.copy()
        outside[0, 0] = t.n_edges
        self._assert_declines(t, None, (outside, boundary), "non-manifold")

    def test_nan_declines_to_the_sweep(self):
        t = fractal_terrain(size=5, seed=2)
        segs = t.map_segments()
        segs[7] = segs[7]._replace(x2=math.nan)
        self._assert_declines(t, segs, t.face_edges(), "nan")

    def test_nan_sweep_y_declines_to_python(self):
        t = fractal_terrain(size=5, seed=2)
        segs = t.map_segments()
        segs[7] = segs[7]._replace(y2=math.nan)
        lanes = map_lanes(t, segs)
        assert _ccore.ordering_path(*lanes, 1, *t.face_edges()) == (None, "nan")

    def test_no_face_table_is_the_sweep(self):
        t = fractal_terrain(size=5, seed=2)
        assert _ccore.ordering_path(*map_lanes(t), 1) == (
            PINNED_FRACTAL5_ORDER,
            "sweep",
        )
        assert _face_path(t, 1) == (PINNED_FRACTAL5_ORDER, "faces")


class TestOrderingDispatch:
    """Which path answers: ``engine="python"`` and a config with the
    core off never reach the C entry; the numpy engine calls it once
    per run."""

    def _spy(self, monkeypatch, answer):
        calls = []

        def spy(*args):
            calls.append(args)
            return answer(*args)

        monkeypatch.setattr(_ccore, "COMPILED_DEFAULT", True)
        monkeypatch.setattr(_ccore, "order_array", spy)
        return calls

    def test_python_engine_never_reaches_c(self, monkeypatch):
        calls = self._spy(monkeypatch, lambda *a: None)
        t = fractal_terrain(size=9, seed=1)
        SequentialHSR(engine="python").run(t)
        SequentialHSR(engine="python").final_profile(t)
        front_to_back_order(t, engine="python")
        assert calls == []

    @needs_ccore
    def test_numpy_engine_calls_c_once_per_run(self, monkeypatch):
        calls = self._spy(monkeypatch, _ccore.order_array)
        t = fractal_terrain(size=9, seed=1)
        res = SequentialHSR(engine="numpy").run(t)
        assert len(calls) == 1
        assert res.order == front_to_back_order(t, engine="python")

    @pytest.mark.parametrize("algorithm", [SequentialHSR, ParallelHSR])
    def test_config_with_the_core_off_keeps_the_python_sweep(
        self, monkeypatch, algorithm
    ):
        calls = self._spy(monkeypatch, lambda *a: None)
        t = fractal_terrain(size=9, seed=1)
        off = HsrConfig(engine="numpy", use_compiled_insert=False)
        res = algorithm(config=off).run(t)
        assert calls == []
        assert front_to_back_order(t, config=off) == res.order
        assert calls == []
        assert res.order == front_to_back_order(t, engine="python")
        on = HsrConfig(engine="numpy", use_compiled_insert=True)
        algorithm(config=on).run(t)
        assert len(calls) == 1

    @needs_ccore
    def test_only_the_terrain_path_passes_the_face_table(self, monkeypatch):
        calls = self._spy(monkeypatch, _ccore.order_array)
        t = fractal_terrain(size=9, seed=1)
        front_to_back_order(t)
        front_to_back_order(t, segments=t.map_segments())
        table, boundary = t.face_edges()
        assert calls[0][6] is table and calls[0][7] is boundary
        assert calls[1][6:] == (None, None)

    def test_decline_falls_back_to_python_sweep(self, monkeypatch):
        calls = self._spy(monkeypatch, lambda *a: None)
        t = fractal_terrain(size=5, seed=2)
        assert front_to_back_order(t, engine="numpy") == PINNED_FRACTAL5_ORDER
        assert len(calls) == 1


class TestSeparatorTree:
    def test_structure(self):
        tree = SeparatorTree(list(range(10)))
        assert tree.n_leaves == 10
        assert tree.root.span == 10
        assert len(tree.leaves()) == 10
        assert tree.height == math.ceil(math.log2(10)) + 1

    def test_leaf_order(self):
        order = [4, 2, 7, 1]
        tree = SeparatorTree(order)
        leaves = sorted(tree.leaves(), key=lambda n: n.lo)
        assert [tree.leaf_edge(n) for n in leaves] == order

    def test_levels_partition(self):
        tree = SeparatorTree(list(range(13)))
        seen = set()
        for level in tree.levels():
            for node in level:
                assert node.index not in seen
                seen.add(node.index)
        assert len(seen) == tree.node_count()

    def test_children_partition_parent(self):
        tree = SeparatorTree(list(range(23)))
        for node in tree.nodes():
            if not node.is_leaf:
                assert node.left.lo == node.lo
                assert node.left.hi == node.right.lo
                assert node.right.hi == node.hi
                assert node.left.parent is node

    def test_bottom_up_is_reverse(self):
        tree = SeparatorTree(list(range(8)))
        down = [lvl[0].depth for lvl in tree.levels()]
        up = [lvl[0].depth for lvl in tree.levels_bottom_up()]
        assert up == down[::-1]

    def test_leaf_edge_on_internal_raises(self):
        tree = SeparatorTree(list(range(4)))
        with pytest.raises(OrderingError):
            tree.leaf_edge(tree.root)

    def test_empty_rejected(self):
        with pytest.raises(OrderingError):
            SeparatorTree([])

    def test_height_logarithmic(self):
        for n in (2, 17, 100, 1000):
            tree = SeparatorTree(list(range(n)))
            assert tree.height <= math.ceil(math.log2(n)) + 1
