"""The pure-python engine fallback: the library must work end to end
without NumPy (the CI matrix runs a no-numpy leg over this suite).

These tests run under both matrix legs — they use only the
numpy-optional surface, hand-built terrains, and ``engine="python"``
— and additionally assert the degraded import behaviour when NumPy is
genuinely absent.
"""

from __future__ import annotations

import pytest

from repro.envelope.engine import (
    DEFAULT_ENGINE,
    HAVE_NUMPY,
    resolve_engine,
)
from repro.errors import EnvelopeError
from repro.geometry.primitives import Point3
from repro.terrain.model import Terrain


def hand_terrain() -> Terrain:
    """A small hand-built TIN (no generators needed)."""
    verts = [
        Point3(0, 0, 1),
        Point3(1, 0, 2),
        Point3(0, 1, 3),
        Point3(1, 1, 4),
        Point3(2, 0, 1),
        Point3(2, 1, 2),
    ]
    faces = [(0, 1, 2), (1, 3, 2), (1, 4, 3), (4, 5, 3)]
    return Terrain(verts, faces)


class TestEngineFallback:
    def test_default_engine_consistent(self):
        assert DEFAULT_ENGINE == ("numpy" if HAVE_NUMPY else "python")
        assert resolve_engine(None) == DEFAULT_ENGINE
        assert resolve_engine("python") == "python"

    @pytest.mark.skipif(HAVE_NUMPY, reason="numpy installed")
    def test_numpy_engine_rejected_without_numpy(self):
        with pytest.raises(EnvelopeError, match="numpy"):
            resolve_engine("numpy")


class TestPurePythonPipeline:
    def test_sequential_hsr(self):
        from repro.hsr import SequentialHSR

        result = SequentialHSR(engine="python").run(hand_terrain())
        assert result.stats.n_edges == hand_terrain().n_edges
        assert result.k > 0
        assert result.visibility_map.visible_edges()

    def test_sequential_final_profile_shared_loop(self):
        from repro.hsr import SequentialHSR

        hsr = SequentialHSR(engine="python")
        horizon = hsr.final_profile(hand_terrain())
        horizon.validate()
        assert horizon.size > 0

    def test_splice_merge_pure_python(self):
        from repro.envelope import splice_merge
        from repro.envelope.build import build_envelope
        from repro.envelope.chain import Envelope
        from repro.geometry.segments import ImageSegment

        a = build_envelope(
            [
                ImageSegment(0.0, 1.0, 4.0, 2.0, 0),
                ImageSegment(6.0, 1.0, 9.0, 0.5, 1),
            ],
            engine="python",
        ).envelope
        b = build_envelope(
            [ImageSegment(3.0, 3.0, 7.0, 0.0, 2)], engine="python"
        ).envelope
        res = splice_merge(a, b)
        res.envelope.validate()
        assert res.ops > 0
        assert res.materialised == res.envelope.size
        assert splice_merge(a, Envelope.empty()).envelope is a

    def test_parallel_hsr_direct(self):
        from repro.hsr import ParallelHSR

        result = ParallelHSR(mode="direct", engine="python").run(
            hand_terrain()
        )
        assert result.k > 0

    def test_package_imports_without_numpy_surface(self):
        # These imports must succeed on both matrix legs.
        import repro.hsr
        import repro.pram
        import repro.terrain

        assert hasattr(repro.hsr, "SequentialHSR")
        assert hasattr(repro.pram, "PramTracker")
        assert hasattr(repro.terrain, "Terrain")
        if not HAVE_NUMPY:  # pragma: no cover - numpy in toolchain
            assert repro.terrain.GENERATORS == {}
            with pytest.raises(ImportError, match="numpy"):
                repro.terrain.generate_terrain("fractal")
            assert not hasattr(repro.hsr, "ZBufferHSR")

    def test_terrain_json_roundtrip(self, tmp_path):
        from repro.terrain import load_terrain_json, save_terrain_json

        path = tmp_path / "t.json"
        save_terrain_json(hand_terrain(), path)
        loaded = load_terrain_json(path)
        assert loaded.n_edges == hand_terrain().n_edges

    def test_cli_run_on_terrain_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.terrain import save_terrain_json

        path = tmp_path / "t.json"
        save_terrain_json(hand_terrain(), path)
        rc = main(
            [
                "run",
                str(path),
                "--algorithm",
                "sequential",
                "--engine",
                "python",
                "--json",
            ]
        )
        assert rc == 0
        assert '"k"' in capsys.readouterr().out


def random_tin(seed: int, sites: int = 40) -> Terrain:
    """A Delaunay TIN over random sites, built without numpy."""
    import random

    from repro.geometry.primitives import Point2
    from repro.terrain.triangulate import bowyer_watson

    rng = random.Random(seed)
    xy = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(sites)]
    faces = bowyer_watson([Point2(x, y) for x, y in xy])
    return Terrain([Point3(x, y, rng.uniform(0.0, 4.0)) for x, y in xy], faces)


class TestPointScanReference:
    """The windowed observer scan on segment-built lanes — the path
    ``visible_many`` and ``points_visible`` take on this leg — answers
    ``point_visible``'s flags; with numpy the default engine's path
    (the compiled call when the core is built) is checked too."""

    def _observers(self, terrain, seed):
        import math
        import random

        rng = random.Random(seed)
        out = [
            (rng.uniform(-1, 11), rng.uniform(-1, 11), rng.uniform(-1, 6))
            for _ in range(60)
        ]
        for v in terrain.vertices:
            out += [(v.x, v.y, v.z), (v.x - 0.5, v.y, v.z - 1e-9)]
        out += [
            (math.nan, 5.0, 1.0),
            (5.0, math.nan, 1.0),
            (5.0, 5.0, math.nan),
            (5.0, math.inf, 0.0),
            (-math.inf, 5.0, 0.0),
        ]
        return out

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_point_visible(self, seed):
        from repro.config import HsrConfig
        from repro.hsr.queries import (
            _PointLanes,
            _scan_reference,
            as_observer,
            point_visible,
            visible_many,
        )
        from repro.service import EnvelopeCache, ViewshedSession

        terrain = random_tin(seed)
        pts = self._observers(terrain, seed)
        want = [point_visible(terrain, p) for p in pts]
        assert any(want) and not all(want)
        lanes = _PointLanes(terrain, "python")
        eps = HsrConfig().eps
        assert _scan_reference(lanes, [as_observer(p) for p in pts], eps) == want
        for config in (None, HsrConfig(engine="python")):
            assert visible_many(terrain, pts, config=config) == want
            session = ViewshedSession(terrain, config=config, cache=EnvelopeCache())
            assert session.points_visible(pts) == want
            assert session.points_visible(pts[::-1]) == want[::-1]
