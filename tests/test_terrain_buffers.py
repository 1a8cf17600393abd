"""The columnar terrain: buffers, their list views, the transforms and
the content fingerprint against their scalar definitions.

The scalar references here are the formulas the buffers replaced:
``edges`` from a set over the face triples, the transforms as one
``Point3`` expression per vertex, and the fingerprint as one
``struct.pack`` per vertex and face.  Every comparison is on bytes, so
``-0.0`` and NaN payloads count.  The hand-built cases run on the
no-numpy install too (they build their terrains from plain lists); a
terrain "without numpy" is built by hiding numpy from
:mod:`repro.terrain.model`, which then stores ``array`` buffers.
"""

from __future__ import annotations

import hashlib
import math
import struct
from array import array

import pytest

from repro.envelope.engine import HAVE_NUMPY
from repro.errors import TerrainError
from repro.geometry.primitives import Point3
from repro.service.session import terrain_fingerprint
from repro.terrain import model
from repro.terrain.model import Terrain

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def hand_terrain(dz: float = 0.0) -> Terrain:
    """A small TIN with a ``-0.0`` coordinate and unsorted faces."""
    verts = [
        Point3(-0.0, 0.0, 1.0 + dz),
        Point3(1.0, -0.0, 2.5),
        Point3(0.0, 1.0, 3.0),
        Point3(1.0, 1.0, 4.0),
        Point3(2.0, 0.0, -1.0),
        Point3(2.0, 1.0, 2.0),
    ]
    faces = [(2, 1, 0), (1, 3, 2), (4, 1, 3), (3, 5, 4)]
    return Terrain(verts, faces)


def without_numpy(build):
    """``build()`` with numpy hidden from the terrain model: the
    terrain it returns stores ``array`` buffers."""
    saved = model._np
    model._np = None
    try:
        return build()
    finally:
        model._np = saved


def set_edges(faces) -> list[tuple[int, int]]:
    """The edge list as the model derived it before the buffers."""
    seen = set()
    for a, b, c in faces:
        seen.add((a, b) if a < b else (b, a))
        seen.add((b, c) if b < c else (c, b))
        seen.add((a, c) if a < c else (c, a))
    return sorted(seen)


def reference_fingerprint(terrain: Terrain) -> str:
    """The fingerprint as one ``struct.pack`` per vertex and face."""
    h = hashlib.sha256()
    h.update(struct.pack("<2q", len(terrain.vertices), len(terrain.faces)))
    for v in terrain.vertices:
        h.update(struct.pack("<3d", v.x, v.y, v.z))
    for f in terrain.faces:
        h.update(struct.pack("<3q", *f))
    return h.hexdigest()


def vertex_bytes(vertices) -> bytes:
    return b"".join(struct.pack("<3d", *v) for v in vertices)


def rotated_reference(terrain: Terrain, azimuth: float) -> bytes:
    t = math.radians(azimuth)
    c, s = math.cos(t), math.sin(t)
    return vertex_bytes(
        (c * v.x - s * v.y, s * v.x + c * v.y, v.z) for v in terrain.vertices
    )


class TestViews:
    def test_types_and_values(self):
        t = hand_terrain()
        assert all(type(v) is Point3 for v in t.vertices)
        assert all(type(c) is float for v in t.vertices for c in v)
        assert t.faces == [(0, 1, 2), (1, 2, 3), (1, 3, 4), (3, 4, 5)]
        assert all(type(i) is int for f in t.faces for i in f)
        assert t.edges == set_edges(t.faces)
        assert all(type(i) is int for e in t.edges for i in e)
        assert (t.n_vertices, t.n_edges, t.n_faces) == (6, 9, 4)

    def test_views_are_cached(self):
        t = hand_terrain()
        assert t.vertices is t.vertices
        assert t.faces is t.faces
        assert t.edges is t.edges

    def test_transforms_share_topology(self):
        t = hand_terrain()
        r = t.rotated(30.0).scaled(xy=2.0).translated(1.0, 2.0, 3.0)
        assert r.face_buffer is t.face_buffer
        assert r.edges is t.edges

    def test_bad_rows_rejected(self):
        with pytest.raises(TerrainError, match="triple"):
            Terrain([Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0)], [(0, 1)])
        with pytest.raises(TerrainError, match="triple"):
            Terrain(
                [Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0)],
                [(0, 1, 2), (0, 1)],
            )

    def test_negative_index_rejected_without_validation(self):
        verts = [Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0)]
        for build in (Terrain, lambda *a, **k: without_numpy(lambda: Terrain(*a, **k))):
            t = build(verts, [(-1, 0, 1)], validate=False)
            with pytest.raises(TerrainError, match="negative vertex index"):
                t.edges  # noqa: B018

    def test_no_numpy_round_trip(self):
        ref = hand_terrain()
        t = without_numpy(hand_terrain)
        assert isinstance(t.vertex_buffer, array)
        assert isinstance(t.face_buffer, array)
        assert isinstance(t.edge_buffer, array)
        assert vertex_bytes(t.vertices) == vertex_bytes(ref.vertices)
        assert (t.faces, t.edges) == (ref.faces, ref.edges)
        assert (t.n_vertices, t.n_edges, t.n_faces) == (6, 9, 4)
        assert (t.height_range(), t.xy_bounds()) == (
            ref.height_range(),
            ref.xy_bounds(),
        )
        for a, b in (
            (t.rotated(37.0), ref.rotated(37.0)),
            (t.scaled(xy=1.5, z=0.25), ref.scaled(xy=1.5, z=0.25)),
            (t.translated(-1.0, 0.5, -0.0), ref.translated(-1.0, 0.5, -0.0)),
        ):
            assert isinstance(a.vertex_buffer, array)
            assert vertex_bytes(a.vertices) == vertex_bytes(b.vertices)
            assert a.edges == b.edges
        assert terrain_fingerprint(t) == terrain_fingerprint(ref)

    def test_no_numpy_validation_messages(self):
        verts = [Point3(0, 0, 1), Point3(0, 0, 2), Point3(1, 1, 0)]
        with pytest.raises(TerrainError, match="vertices 0 and 1 share xy"):
            without_numpy(lambda: Terrain(verts, [(0, 1, 2)]))
        with pytest.raises(TerrainError, match="missing vertex"):
            without_numpy(lambda: Terrain(verts[1:], [(0, 1, 5)]))


class TestFingerprint:
    def test_hand_terrain_with_negative_zero(self):
        t = hand_terrain()
        assert math.copysign(1.0, t.vertices[0].x) == -1.0
        assert terrain_fingerprint(t) == reference_fingerprint(t)
        assert terrain_fingerprint(t) != terrain_fingerprint(hand_terrain(1e-12))

    def test_without_numpy(self):
        t = without_numpy(hand_terrain)
        assert terrain_fingerprint(t) == reference_fingerprint(t)

    @needs_numpy
    def test_parity_terrains(self):
        from tests.test_ordering import PARITY_CASES, _parity_terrain

        for case in PARITY_CASES:
            t = _parity_terrain(case)
            assert terrain_fingerprint(t) == reference_fingerprint(t), case


@needs_numpy
class TestBuffers:
    def test_array_constructor(self):
        import numpy as np

        ref = hand_terrain()
        xyz = np.array([tuple(v) for v in ref.vertices])
        faces = np.array([(2, 1, 0), (1, 3, 2), (4, 1, 3), (3, 5, 4)])
        t = Terrain(xyz, faces)
        assert t.vertex_buffer.tobytes() == ref.vertex_buffer.tobytes()
        assert (t.faces, t.edges) == (ref.faces, ref.edges)
        xyz[0, 0] = 9.0  # the terrain keeps its own copy
        assert t.vertices[0].x == 0.0

    def test_buffers_read_only(self):
        t = hand_terrain().rotated(10.0)
        for buf in (t.vertex_buffer, t.face_buffer, t.edge_buffer):
            assert buf.dtype in ("float64", "int64") and buf.flags.c_contiguous
            with pytest.raises(ValueError):
                buf[0, 0] = 1

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("fractal", {"size": 17, "seed": 4}),
            ("ridge", {"rows": 12, "cols": 10, "seed": 4}),
            ("valley", {"rows": 12, "cols": 10, "seed": 4}),
            ("shielded_basin", {"rows": 12, "cols": 10, "seed": 4}),
            ("plateau", {"rows": 12, "cols": 10, "seed": 4}),
            ("random", {"n_points": 80, "seed": 4}),
        ],
    )
    def test_edges_match_set_on_every_family(self, kind, params):
        from repro.terrain.generators import generate_terrain

        t = generate_terrain(kind, **params)
        assert t.edges == set_edges(t.faces)

    def test_edges_match_set_on_lattice(self):
        from tests.test_ordering import _parity_terrain

        t = _parity_terrain("lattice")
        assert t.edges == set_edges(t.faces)

    @pytest.mark.parametrize(
        "case", ["fractal33@0", "fractal17@135", "dem", "flyover1", "flyover3"]
    )
    @pytest.mark.parametrize("azimuth", [0.0, 22.5, 90.0, 211.7, -45.0])
    def test_rotated_bytes_match_scalar_formula(self, case, azimuth):
        from tests.test_ordering import _parity_terrain

        t = _parity_terrain(case)
        assert vertex_bytes(t.rotated(azimuth).vertices) == rotated_reference(
            t, azimuth
        )

    @pytest.mark.parametrize("case", ["fractal33@30", "dem", "flyover0"])
    def test_scaled_translated_bytes_match_scalar_formula(self, case):
        from tests.test_ordering import _parity_terrain

        t = _parity_terrain(case)
        assert vertex_bytes(t.scaled(xy=1.3, z=0.7).vertices) == vertex_bytes(
            (v.x * 1.3, v.y * 1.3, v.z * 0.7) for v in t.vertices
        )
        assert vertex_bytes(
            t.translated(-2.5, 1e-7, 3.0).vertices
        ) == vertex_bytes(
            (v.x + -2.5, v.y + 1e-7, v.z + 3.0) for v in t.vertices
        )

    def test_validation_names_first_offender(self):
        import numpy as np

        verts = np.array(
            [(0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (-0.0, 0.0, 3.0), (0.0, 1.0, 0.0)]
        )
        with pytest.raises(TerrainError, match="vertices 0 and 2 share xy"):
            Terrain(verts, [(0, 1, 3)])
        nan = np.array([(math.nan, 0.0, 1.0), (math.nan, 0.0, 2.0), (0.0, 1.0, 0.0)])
        assert Terrain(nan, [(0, 1, 2)]).n_vertices == 3  # NaN != NaN
        with pytest.raises(TerrainError, match="degenerate"):
            Terrain(verts[1:], [(0, 2, 2)])


@needs_numpy
class TestFaceEdges:
    """The face→edge table of the compiled ordering's face pass, against
    the face triples and the edge list."""

    @pytest.mark.parametrize(
        "case", ["fractal9@0", "fractal17@135", "valley", "delaunay", "lattice", "dem"]
    )
    def test_table_and_boundary_match_the_faces(self, case):
        from tests.test_ordering import _parity_terrain

        t = _parity_terrain(case)
        table, boundary = t.face_edges()
        assert table.shape == (t.n_faces, 3) and table.dtype == "int64"
        edges = t.edges
        assert [
            (edges[i], edges[j], edges[k]) for i, j, k in table.tolist()
        ] == [((a, b), (b, c), (a, c)) for a, b, c in t.faces]
        seen: dict[tuple[int, int], int] = {}
        for a, b, c in t.faces:
            for e in ((a, b), (b, c), (a, c)):
                seen[e] = seen.get(e, 0) + 1
        assert boundary.tolist() == [
            i for i, e in enumerate(edges) if seen[e] == 1
        ]

    def test_built_once_per_topology_and_shared(self):
        t = hand_terrain()
        t.edge_buffer  # noqa: B018 - what a run's setup forces
        assert t._topo.face_edges is None  # not built with the edges
        r = t.rotated(30.0).scaled(xy=2.0).translated(1.0, 2.0, 3.0)
        table, boundary = r.face_edges()
        assert t.face_edges() is r.face_edges()
        assert t.rotated(-75.0).face_edges()[0] is table
        assert table.tolist() == [[0, 2, 1], [2, 5, 3], [3, 6, 4], [6, 8, 7]]
        assert boundary.tolist() == [0, 1, 4, 5, 7, 8]
        with pytest.raises(ValueError):
            table[0, 0] = 1

    def test_no_faces(self):
        table, boundary = Terrain([Point3(0, 0, 0)], [], validate=False).face_edges()
        assert table.shape == (0, 3) and boundary.shape == (0,)
