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
