"""Polyhedral-terrain model (triangulated irregular network).

A terrain is a piecewise-linear surface meeting every vertical line at
exactly one point: ``z = f(x, y)``.  We store it as the paper does —
"a graph G whose vertices are 3-tuples (x, y, z) ... and whose edges
correspond to the segments of the polyhedral surface" — concretely a
vertex array plus triangle list (a TIN).

Storage is columnar: one float64 vertex buffer (``n × 3``) and int64
face and edge buffers (numpy arrays, or flat ``array('d')`` /
``array('q')`` buffers when numpy is absent).  The ``vertices``,
``faces`` and ``edges`` lists are views built from the buffers on
first use, for the scalar code paths; the projections the HSR runs
consume (:meth:`Terrain.image_lanes`, :meth:`Terrain.map_lanes`)
gather from the buffers directly.

The viewer is at ``x = +inf`` looking along ``-x``; the image plane is
the zy-plane.  :meth:`Terrain.rotated` lets callers view a scene from
any horizontal direction by rotating the terrain instead of the
camera, which keeps the algorithm's coordinate conventions fixed.
"""

from __future__ import annotations

import math
import operator
import sys
from array import array
from itertools import chain
from typing import Optional, Sequence

from repro.errors import TerrainError
from repro.geometry.predicates import segments_intersect_exact
from repro.geometry.primitives import Point2, Point3
from repro.geometry.segments import ImageSegment, MapSegment

try:  # pragma: no cover - numpy ships with the toolchain
    import numpy as _np
except ImportError:  # pragma: no cover - the no-numpy install
    _np = None

__all__ = ["Terrain"]


class _Topology:
    """A terrain's face buffer, its edge buffer and face→edge table
    (each derived on first use) and their list views.  Transforms move
    vertices, never topology, so a terrain and every terrain derived
    from it share one instance."""

    __slots__ = ("faces", "edges", "face_edges", "face_list", "edge_list")

    def __init__(self, faces):
        self.faces = faces
        self.edges = None
        self.face_edges = None
        self.face_list: Optional[list[tuple[int, int, int]]] = None
        self.edge_list: Optional[list[tuple[int, int]]] = None


class Terrain:
    """An immutable triangulated terrain.

    Parameters
    ----------
    vertices:
        Surface points — ``(x, y, z)`` triples or an ``(n, 3)`` array;
        their xy-projections must be pairwise distinct (checked —
        duplicate xy with different z would violate ``z = f(x, y)``).
    faces:
        Triangles as vertex index triples (or an ``(m, 3)`` integer
        array).  Edges are derived.
    validate:
        When true (default) performs the cheap invariant checks; the
        expensive planarity check is separate
        (:meth:`check_planarity`) because it is quadratic.
    """

    __slots__ = ("_xyz", "_topo", "_vertices", "_ends")

    def __init__(
        self,
        vertices: Sequence[Point3],
        faces: Sequence[tuple[int, int, int]],
        *,
        validate: bool = True,
    ):
        self._xyz = _vertex_buffer(vertices)
        self._topo = _Topology(_face_buffer(faces))
        self._vertices: Optional[list[Point3]] = None
        self._ends = None
        if validate:
            self._validate()

    @classmethod
    def _derived(cls, xyz, topo: _Topology) -> "Terrain":
        """A terrain over vertex buffer ``xyz`` sharing ``topo``."""
        t = cls.__new__(cls)
        t._xyz = _frozen(xyz)
        t._topo = topo
        t._vertices = None
        t._ends = None
        return t

    # -- invariants ----------------------------------------------------

    def _validate(self) -> None:
        n = self.n_vertices
        seen_xy: dict[tuple[float, float], int] = {}
        it = iter(_flat_list(self._xyz))
        for i, (x, y, _z) in enumerate(zip(it, it, it)):
            key = (x, y)
            if key in seen_xy:
                raise TerrainError(
                    f"vertices {seen_xy[key]} and {i} share xy {key}:"
                    " not a function z = f(x, y)"
                )
            seen_xy[key] = i
        it = iter(_flat_list(self._topo.faces))
        for f in zip(it, it, it):
            a, b, c = f
            if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
                raise TerrainError(f"face {f} references missing vertex")
            if a == b or b == c or a == c:
                raise TerrainError(f"degenerate face {f}")

    def check_planarity(self) -> None:
        """Exact check that no two edge xy-projections properly cross.

        Quadratic — intended for tests and small inputs.  Raises
        :class:`TerrainError` on the first crossing pair.
        """
        edges = self.edges
        segs = [
            (
                self.vertices[i].project_xy(),
                self.vertices[j].project_xy(),
                (i, j),
            )
            for i, j in edges
        ]
        for a in range(len(segs)):
            pa, qa, ea = segs[a]
            for b in range(a + 1, len(segs)):
                pb, qb, eb = segs[b]
                if set(ea) & set(eb):
                    continue  # sharing a vertex is fine
                if segments_intersect_exact(
                    pa, qa, pb, qb, proper_only=True
                ):
                    raise TerrainError(
                        f"edges {ea} and {eb} cross in xy-projection"
                    )

    # -- buffers and their views ----------------------------------------

    @property
    def vertex_buffer(self):
        """The float64 vertex coordinates: an ``(n, 3)`` read-only
        array, or a flat ``array('d')`` of ``x, y, z`` runs without
        numpy."""
        return self._xyz

    @property
    def face_buffer(self):
        """The faces as sorted int64 index triples: an ``(m, 3)``
        read-only array, or a flat ``array('q')`` without numpy."""
        return self._topo.faces

    @property
    def edge_buffer(self):
        """The sorted unique edges ``(i, j)``, ``i < j``, as int64
        pairs: an ``(e, 2)`` read-only array, or a flat ``array('q')``
        without numpy.  Derived from the faces on first use."""
        topo = self._topo
        if topo.edges is None:
            topo.edges = _edge_buffer(topo.faces)
        return topo.edges

    def face_edges(self) -> tuple:
        """``(table, boundary)``: an ``(m, 3)`` int64 array of the edge
        indices of ``(a, b)``, ``(b, c)`` and ``(a, c)`` for each face
        ``(a, b, c)`` of :attr:`face_buffer`, and the ascending int64
        indices of the boundary edges (those in exactly one face) —
        the compiled ordering's face pass.  Built on first use, once
        per topology.  Requires numpy."""
        topo = self._topo
        if topo.face_edges is None:
            topo.face_edges = _face_edge_table(topo.faces, self.edge_buffer)
        return topo.face_edges

    @property
    def vertices(self) -> list[Point3]:
        """The vertex buffer as :class:`Point3` rows (built once)."""
        if self._vertices is None:
            it = iter(_flat_list(self._xyz))
            self._vertices = list(map(Point3, it, it, it))
        return self._vertices

    @property
    def faces(self) -> list[tuple[int, int, int]]:
        """Sorted vertex index triples (built once per topology)."""
        topo = self._topo
        if topo.face_list is None:
            it = iter(_flat_list(topo.faces))
            topo.face_list = list(zip(it, it, it))
        return topo.face_list

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Sorted unique undirected edges ``(i, j)`` with ``i < j``."""
        topo = self._topo
        if topo.edge_list is None:
            it = iter(_flat_list(self.edge_buffer))
            topo.edge_list = list(zip(it, it))
        return topo.edge_list

    @property
    def n_vertices(self) -> int:
        return _rows(self._xyz, 3)

    @property
    def n_edges(self) -> int:
        """The paper's input size ``n``."""
        return _rows(self.edge_buffer, 2)

    @property
    def n_faces(self) -> int:
        return _rows(self._topo.faces, 3)

    # -- projections -----------------------------------------------------

    def edge_endpoints(self, edge_index: int) -> tuple[Point3, Point3]:
        i, j = self.edges[edge_index]
        return self.vertices[i], self.vertices[j]

    def map_segment(self, edge_index: int) -> MapSegment:
        """xy-projection of an edge (for front-to-back ordering)."""
        a, b = self.edge_endpoints(edge_index)
        return MapSegment.make(a.project_xy(), b.project_xy(), edge_index)

    def image_segment(self, edge_index: int) -> ImageSegment:
        """zy-projection of an edge (for profiles / visibility)."""
        a, b = self.edge_endpoints(edge_index)
        return ImageSegment.make(a.project_zy(), b.project_zy(), edge_index)

    def _lane_endpoints(self, order=None):
        """``(pts, lo, hi)``: the ``(n_vertices, 3)`` vertex buffer and,
        for each edge in ``order`` (an int64 array; default: all, by
        index), the vertex indices of its low-``y`` and high-``y`` ends.

        The ends swap iff ``y_i > y_j`` — the comparison of both
        :meth:`ImageSegment.make` and :meth:`MapSegment.make` — so
        coordinates gathered through ``lo``/``hi`` equal the fields of
        :meth:`image_segment` and :meth:`map_segment` bit for bit.
        The all-edges indices are built on first use, once per terrain.
        Requires numpy.
        """
        pts = self._xyz
        if self._ends is None:
            ends = self.edge_buffer
            i, j = ends[:, 0], ends[:, 1]
            swap = pts[i, 1] > pts[j, 1]
            self._ends = (_np.where(swap, j, i), _np.where(swap, i, j))
        lo, hi = self._ends
        if order is not None:
            return pts, lo[order], hi[order]
        return pts, lo, hi

    def image_lanes(self, order: Optional[Sequence[int]] = None) -> tuple:
        """``(y1, z1, y2, z2, source)`` of the image segments of the
        edges in ``order`` (default: all, by index) as numpy lanes —
        float64 coordinates, int64 sources.

        Coordinates are gathered from the vertex buffer, never computed
        (:meth:`_lane_endpoints`), so the lanes equal the fields of
        :meth:`image_segment` bit for bit.  Requires numpy.
        """
        if order is None:
            src = _np.arange(self.n_edges, dtype=_np.int64)
            pts, lo, hi = self._lane_endpoints()
        else:
            src = _np.asarray(order, dtype=_np.int64)
            pts, lo, hi = self._lane_endpoints(src)
        return pts[lo, 1], pts[lo, 2], pts[hi, 1], pts[hi, 2], src

    def map_lanes(self) -> tuple:
        """``(x1, y1, x2, y2, source)`` of the map segments of all
        edges, by index, as numpy lanes — float64 coordinates, int64
        sources equal to the lane indices: the compiled ordering's
        input.  Gathered like :meth:`image_lanes`, so the lanes equal
        the fields of :meth:`map_segment` bit for bit.  Requires numpy.
        """
        pts, lo, hi = self._lane_endpoints()
        src = _np.arange(len(lo), dtype=_np.int64)
        return pts[lo, 0], pts[lo, 1], pts[hi, 0], pts[hi, 1], src

    def buffer_bytes(self) -> tuple[bytes, bytes]:
        """The vertex buffer as little-endian float64 bytes and the
        face buffer as little-endian int64 bytes: per row, what
        ``struct.pack("<3d", ...)`` and ``struct.pack("<3q", ...)``
        give."""
        xyz, faces = self._xyz, self._topo.faces
        if not isinstance(xyz, array):
            return (
                xyz.astype("<f8", copy=False).tobytes(),
                faces.astype("<i8", copy=False).tobytes(),
            )
        if sys.byteorder == "big":
            xyz, faces = array("d", xyz), array("q", faces)
            xyz.byteswap()
            faces.byteswap()
        return xyz.tobytes(), faces.tobytes()

    def map_segments(self) -> list[MapSegment]:
        return [self.map_segment(e) for e in range(self.n_edges)]

    def image_segments(self) -> list[ImageSegment]:
        return [self.image_segment(e) for e in range(self.n_edges)]

    # -- transforms -------------------------------------------------------
    #
    # Each computes the scalar formula element-wise on the vertex
    # buffer (one IEEE operation per scalar one, so bit-identical) and
    # shares this terrain's topology.

    def rotated(self, azimuth_degrees: float) -> "Terrain":
        """The terrain rotated about the z-axis.

        Viewing the original scene from horizontal direction ``theta``
        equals viewing ``rotated(-theta)`` from the canonical ``+x``.
        """
        t = math.radians(azimuth_degrees)
        c, s = math.cos(t), math.sin(t)
        xyz = self._xyz
        if isinstance(xyz, array):
            it = iter(xyz)
            out = array(
                "d",
                chain.from_iterable(
                    (c * x - s * y, s * x + c * y, z)
                    for x, y, z in zip(it, it, it)
                ),
            )
        else:
            x, y = xyz[:, 0], xyz[:, 1]
            out = _np.empty_like(xyz)
            out[:, 0] = c * x - s * y
            out[:, 1] = s * x + c * y
            out[:, 2] = xyz[:, 2]
        return self._derived(out, self._topo)

    def scaled(self, *, xy: float = 1.0, z: float = 1.0) -> "Terrain":
        """Anisotropic scaling (z exaggeration is common for DEMs)."""
        if xy <= 0 or z <= 0:
            raise TerrainError("scale factors must be positive")
        return self._derived(_affine(self._xyz, (xy, xy, z), operator.mul), self._topo)

    def translated(self, dx: float, dy: float, dz: float) -> "Terrain":
        return self._derived(_affine(self._xyz, (dx, dy, dz), operator.add), self._topo)

    # -- queries ----------------------------------------------------------

    def _column(self, k: int):
        """Column ``k`` (0 x, 1 y, 2 z) of the vertex buffer, for
        Python's ``min``/``max`` (whose first-wins ties and NaN handling
        the queries keep)."""
        xyz = self._xyz
        return xyz[k::3] if isinstance(xyz, array) else xyz[:, k].tolist()

    def height_range(self) -> tuple[float, float]:
        if not self.n_vertices:
            raise TerrainError("empty terrain")
        zs = self._column(2)
        return (min(zs), max(zs))

    def xy_bounds(self) -> tuple[float, float, float, float]:
        if not self.n_vertices:
            raise TerrainError("empty terrain")
        xs = self._column(0)
        ys = self._column(1)
        return (min(xs), min(ys), max(xs), max(ys))

    def surface_height_at(self, x: float, y: float) -> Optional[float]:
        """Height of the surface at ``(x, y)``: barycentric lookup over
        the faces (linear scan — a convenience query, not a hot path).
        Returns ``None`` outside the triangulation."""
        p = Point2(x, y)
        for a, b, c in self.faces:
            va, vb, vc = (
                self.vertices[a],
                self.vertices[b],
                self.vertices[c],
            )
            h = _barycentric_height(p, va, vb, vc)
            if h is not None:
                return h
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Terrain({self.n_vertices} vertices, {self.n_edges} edges,"
            f" {self.n_faces} faces)"
        )


# -- buffer helpers ----------------------------------------------------------


def _rows(buf, width: int) -> int:
    """Row count of a buffer (a flat ``array`` holds ``width`` values
    per row)."""
    return len(buf) // width if isinstance(buf, array) else len(buf)


def _flat_list(buf) -> list:
    """A buffer's values as one flat list of Python scalars."""
    return buf.tolist() if isinstance(buf, array) else buf.ravel().tolist()


def _frozen(arr):
    """``arr`` made read-only (numpy arrays; an ``array`` is returned
    as is)."""
    if not isinstance(arr, array):
        arr.setflags(write=False)
    return arr


def _listed(items):
    """``items`` as a sequence the converters can take twice."""
    if _np is not None and isinstance(items, _np.ndarray):
        return items
    return items if isinstance(items, (list, tuple)) else list(items)


def _vertex_buffer(vertices):
    vertices = _listed(vertices)
    if _np is None:
        return array("d", chain.from_iterable(Point3(*v) for v in vertices))
    try:
        xyz = _np.array(vertices, dtype=_np.float64, order="C")
    except ValueError as exc:  # ragged rows
        raise TerrainError(f"vertices must be (x, y, z) triples: {exc}") from exc
    if xyz.size == 0:
        xyz = xyz.reshape(0, 3)
    if xyz.ndim != 2 or xyz.shape[1] != 3:
        raise TerrainError(
            f"vertices must be (x, y, z) triples, got shape {xyz.shape}"
        )
    return _frozen(xyz)


def _sorted_faces(faces):
    """The faces' index triples, each sorted, flattened (ints only)."""
    return array("q", chain.from_iterable(map(_sorted_triple, faces)))


def _sorted_triple(face) -> list:
    out = sorted(face)
    if len(out) != 3:
        raise TerrainError(f"face {tuple(face)} is not a vertex index triple")
    return out


def _face_buffer(faces):
    faces = _listed(faces)
    if _np is None:
        return _sorted_faces(faces)
    try:
        arr = _np.asarray(faces)
    except ValueError:  # ragged rows
        arr = None
    if arr is not None and arr.size == 0:
        arr = _np.empty((0, 3), _np.int64)
    elif arr is None or arr.dtype.kind not in "iu":
        # Not an integer array (floats, mixed or ragged rows): convert
        # face by face, which rejects non-integers and non-triples.
        arr = _np.frombuffer(_sorted_faces(faces), dtype=_np.int64)
        arr = arr.reshape(-1, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise TerrainError(
            f"faces must be vertex index triples, got shape {arr.shape}"
        )
    return _frozen(_np.sort(arr.astype(_np.int64, copy=False), axis=1))


def _edge_pairs(flat_faces) -> list[tuple[int, int]]:
    """Sorted unique edges of sorted face triples (the scalar path)."""
    seen: set[tuple[int, int]] = set()
    it = iter(flat_faces)
    for a, b, c in zip(it, it, it):
        seen.add((a, b) if a < b else (b, a))
        seen.add((b, c) if b < c else (c, b))
        seen.add((a, c) if a < c else (c, a))
    return sorted(seen)


def _edge_buffer(faces):
    """The sorted unique edges of the face buffer, as a buffer of the
    same kind.

    With numpy: faces are sorted triples ``a <= b <= c``, so every edge
    is already ``(low, high)``; the unique sorted keys ``low * base +
    high`` (``base`` above every index) come out in the ``(i, j)``
    tuple order of ``sorted(set)``.
    """
    flat = isinstance(faces, array)
    if (min(faces, default=0) if flat else faces.min(initial=0)) < 0:
        # Only an unvalidated terrain gets here.
        raise TerrainError("a face references a negative vertex index")
    if flat:
        return array("q", chain.from_iterable(_edge_pairs(faces)))
    if faces.size == 0:
        return _frozen(_np.empty((0, 2), _np.int64))
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    base = int(faces.max()) + 1
    keys = _np.unique(_np.concatenate((a * base + b, b * base + c, a * base + c)))
    out = _np.empty((keys.size, 2), _np.int64)
    out[:, 0], out[:, 1] = _np.divmod(keys, base)
    return _frozen(out)


def _face_edge_table(faces, edges):
    """:meth:`Terrain.face_edges` of numpy face and edge buffers: each
    face edge's ``low * base + high`` key located by ``searchsorted`` on
    the edge keys, which :func:`_edge_buffer` left ascending."""
    base = int(faces.max(initial=0)) + 1
    keys = edges[:, 0] * base + edges[:, 1]
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    table = _np.searchsorted(
        keys, _np.stack((a * base + b, b * base + c, a * base + c), axis=1)
    )
    count = _np.bincount(table.ravel(), minlength=len(edges))
    return _frozen(table), _frozen(_np.flatnonzero(count == 1))


def _affine(xyz, factors, op):
    """``op(v, f)`` per coordinate of every vertex (``operator.mul``
    scales, ``operator.add`` translates)."""
    if isinstance(xyz, array):
        fx, fy, fz = factors
        it = iter(xyz)
        rows = ((op(x, fx), op(y, fy), op(z, fz)) for x, y, z in zip(it, it, it))
        return array("d", chain.from_iterable(rows))
    return op(xyz, _np.array(factors, dtype=_np.float64))


def _barycentric_height(
    p: Point2, a: Point3, b: Point3, c: Point3
) -> Optional[float]:
    """Height of triangle ``abc`` above ``p``, or ``None`` outside."""
    ax, ay = a.x, a.y
    v0 = (b.x - ax, b.y - ay)
    v1 = (c.x - ax, c.y - ay)
    v2 = (p.x - ax, p.y - ay)
    den = v0[0] * v1[1] - v1[0] * v0[1]
    if den == 0:
        return None
    u = (v2[0] * v1[1] - v1[0] * v2[1]) / den
    v = (v0[0] * v2[1] - v2[0] * v0[1]) / den
    if u < -1e-12 or v < -1e-12 or u + v > 1 + 1e-12:
        return None
    return a.z + u * (b.z - a.z) + v * (c.z - a.z)
