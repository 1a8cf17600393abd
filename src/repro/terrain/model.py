"""Polyhedral-terrain model (triangulated irregular network).

A terrain is a piecewise-linear surface meeting every vertical line at
exactly one point: ``z = f(x, y)``.  We store it as the paper does —
"a graph G whose vertices are 3-tuples (x, y, z) ... and whose edges
correspond to the segments of the polyhedral surface" — concretely a
vertex array plus triangle list (a TIN).

The viewer is at ``x = +inf`` looking along ``-x``; the image plane is
the zy-plane.  :meth:`Terrain.rotated` lets callers view a scene from
any horizontal direction by rotating the terrain instead of the
camera, which keeps the algorithm's coordinate conventions fixed.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Optional, Sequence

from repro.errors import TerrainError
from repro.geometry.predicates import segments_intersect_exact
from repro.geometry.primitives import Point2, Point3
from repro.geometry.segments import ImageSegment, MapSegment

__all__ = ["Terrain"]


class Terrain:
    """An immutable triangulated terrain.

    Parameters
    ----------
    vertices:
        Surface points; their xy-projections must be pairwise distinct
        (checked — duplicate xy with different z would violate
        ``z = f(x, y)``).
    faces:
        Triangles as vertex index triples.  Edges are derived.
    validate:
        When true (default) performs the cheap invariant checks; the
        expensive planarity check is separate
        (:meth:`check_planarity`) because it is quadratic.
    """

    __slots__ = ("vertices", "faces", "_edges")

    def __init__(
        self,
        vertices: Sequence[Point3],
        faces: Sequence[tuple[int, int, int]],
        *,
        validate: bool = True,
    ):
        self.vertices: list[Point3] = [Point3(*v) for v in vertices]
        self.faces: list[tuple[int, int, int]] = [
            tuple(sorted(f)) for f in faces  # type: ignore[misc]
        ]
        if validate:
            self._validate()
        self._edges: Optional[list[tuple[int, int]]] = None

    # -- invariants ----------------------------------------------------

    def _validate(self) -> None:
        n = len(self.vertices)
        seen_xy: dict[tuple[float, float], int] = {}
        for i, v in enumerate(self.vertices):
            key = (v.x, v.y)
            if key in seen_xy:
                raise TerrainError(
                    f"vertices {seen_xy[key]} and {i} share xy {key}:"
                    " not a function z = f(x, y)"
                )
            seen_xy[key] = i
        for f in self.faces:
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

    # -- derived structure ----------------------------------------------

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Sorted unique undirected edges ``(i, j)`` with ``i < j``."""
        if self._edges is None:
            seen: set[tuple[int, int]] = set()
            for a, b, c in self.faces:
                seen.add((a, b) if a < b else (b, a))
                seen.add((b, c) if b < c else (c, b))
                seen.add((a, c) if a < c else (c, a))
            self._edges = sorted(seen)
        return self._edges

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        """The paper's input size ``n``."""
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

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

    def _lane_endpoints(self, order: Optional[Sequence[int]] = None):
        """``(pts, lo, hi)``: the vertices as an ``(n_vertices, 3)``
        float64 array and, for each edge in ``order`` (default: all, by
        index), the vertex indices of its low-``y`` and high-``y`` ends.

        The ends swap iff ``y_i > y_j`` — the comparison of both
        :meth:`ImageSegment.make` and :meth:`MapSegment.make` — so
        coordinates gathered through ``lo``/``hi`` equal the fields of
        :meth:`image_segment` and :meth:`map_segment` bit for bit.
        Requires numpy.
        """
        import numpy as np

        if order is None:
            order = range(self.n_edges)
        verts = self.vertices
        pts = np.fromiter(
            chain.from_iterable(verts), np.float64, 3 * len(verts)
        ).reshape(-1, 3)
        edges = self.edges
        ends = np.fromiter(
            chain.from_iterable(map(edges.__getitem__, order)),
            np.int64,
            2 * len(order),
        ).reshape(-1, 2)
        i, j = ends[:, 0], ends[:, 1]
        swap = pts[i, 1] > pts[j, 1]
        return pts, np.where(swap, j, i), np.where(swap, i, j)

    def image_lanes(self, order: Optional[Sequence[int]] = None) -> tuple:
        """``(y1, z1, y2, z2, source)`` of the image segments of the
        edges in ``order`` (default: all, by index) as numpy lanes —
        float64 coordinates, int64 sources.

        Coordinates are gathered, never computed
        (:meth:`_lane_endpoints`), so the lanes equal the fields of
        :meth:`image_segment` bit for bit.  Requires numpy.
        """
        import numpy as np

        if order is None:
            order = range(self.n_edges)
        pts, lo, hi = self._lane_endpoints(order)
        return (
            pts[lo, 1],
            pts[lo, 2],
            pts[hi, 1],
            pts[hi, 2],
            np.array(order, dtype=np.int64),
        )

    def map_segments(self) -> list[MapSegment]:
        return [self.map_segment(e) for e in range(self.n_edges)]

    def image_segments(self) -> list[ImageSegment]:
        return [self.image_segment(e) for e in range(self.n_edges)]

    # -- transforms -------------------------------------------------------

    def rotated(self, azimuth_degrees: float) -> "Terrain":
        """The terrain rotated about the z-axis.

        Viewing the original scene from horizontal direction ``theta``
        equals viewing ``rotated(-theta)`` from the canonical ``+x``.
        """
        t = math.radians(azimuth_degrees)
        c, s = math.cos(t), math.sin(t)
        verts = [
            Point3(c * v.x - s * v.y, s * v.x + c * v.y, v.z)
            for v in self.vertices
        ]
        return Terrain(verts, self.faces, validate=False)

    def scaled(self, *, xy: float = 1.0, z: float = 1.0) -> "Terrain":
        """Anisotropic scaling (z exaggeration is common for DEMs)."""
        if xy <= 0 or z <= 0:
            raise TerrainError("scale factors must be positive")
        verts = [
            Point3(v.x * xy, v.y * xy, v.z * z) for v in self.vertices
        ]
        return Terrain(verts, self.faces, validate=False)

    def translated(self, dx: float, dy: float, dz: float) -> "Terrain":
        verts = [
            Point3(v.x + dx, v.y + dy, v.z + dz) for v in self.vertices
        ]
        return Terrain(verts, self.faces, validate=False)

    # -- queries ----------------------------------------------------------

    def height_range(self) -> tuple[float, float]:
        zs = [v.z for v in self.vertices]
        if not zs:
            raise TerrainError("empty terrain")
        return (min(zs), max(zs))

    def xy_bounds(self) -> tuple[float, float, float, float]:
        if not self.vertices:
            raise TerrainError("empty terrain")
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
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
