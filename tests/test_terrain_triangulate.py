"""Tests for the triangulation substrate."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.predicates import incircle_exact
from repro.geometry.primitives import Point2
from repro.terrain.triangulate import (
    bowyer_watson,
    delaunay_faces,
    grid_faces,
    triangulate_monotone_polygon,
)


def random_points(rng, n, grid=1000):
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(0, grid), rng.randint(0, grid)))
    return [Point2(float(x), float(y)) for x, y in pts]


def check_delaunay(points, faces):
    """Every triangle's circumcircle must be empty of other points."""
    for (a, b, c) in faces:
        for d in range(len(points)):
            if d in (a, b, c):
                continue
            assert (
                incircle_exact(points[a], points[b], points[c], points[d])
                <= 0
            ), f"point {d} inside circumcircle of {(a, b, c)}"


class TestBowyerWatson:
    def test_triangle(self):
        pts = [Point2(0, 0), Point2(1, 0), Point2(0, 1)]
        faces = bowyer_watson(pts)
        assert faces == [(0, 1, 2)]

    def test_square(self):
        pts = [Point2(0, 0), Point2(1, 0), Point2(1, 1), Point2(0, 1)]
        faces = bowyer_watson(pts)
        assert len(faces) == 2

    def test_too_few(self):
        with pytest.raises(GeometryError):
            bowyer_watson([Point2(0, 0), Point2(1, 1)])

    def test_near_collinear_sites_keep_their_triangle(self):
        # The sliver's circumcircle reaches the first super-triangle's
        # vertices, which used to swallow the only triangle.
        pts = [Point2(0, 0), Point2(50, 0.01), Point2(100, 0)]
        assert bowyer_watson(pts) == [(0, 1, 2)]

    def test_collinear_sites_have_no_triangles(self):
        assert bowyer_watson([Point2(0, 0), Point2(1, 1), Point2(2, 2)]) == []

    def test_delaunay_property_random(self):
        rng = random.Random(3)
        pts = random_points(rng, 40)
        faces = bowyer_watson(pts)
        check_delaunay(pts, faces)
        # Euler: triangles = 2n - 2 - hull_size for a triangulated
        # point set; at minimum n-2.
        assert len(faces) >= len(pts) - 2

    def test_matches_scipy(self):
        pytest.importorskip("scipy")
        rng = random.Random(7)
        pts = random_points(rng, 60)
        ours = set(bowyer_watson(pts))
        import numpy as np
        from scipy.spatial import Delaunay

        sp = Delaunay(np.array([(p.x, p.y) for p in pts]))
        theirs = {tuple(sorted(map(int, s))) for s in sp.simplices}
        # Cocircular quadruples can flip diagonals; require >=90% match
        # and identical counts.
        assert len(ours) == len(theirs)
        assert len(ours & theirs) >= 0.9 * len(ours)


class TestDelaunayDispatch:
    def test_auto_small_uses_pure(self):
        pts = [Point2(0, 0), Point2(1, 0), Point2(0, 1), Point2(2, 2)]
        assert len(delaunay_faces(pts)) == 2

    def test_explicit_scipy(self):
        pytest.importorskip("scipy")
        rng = random.Random(11)
        pts = random_points(rng, 30)
        faces = delaunay_faces(pts, method="scipy")
        check_delaunay(pts, faces)

    def test_rejects_tiny(self):
        with pytest.raises(GeometryError):
            delaunay_faces([Point2(0, 0)])


class TestGridFaces:
    def test_counts(self):
        faces = grid_faces(3, 4)
        assert len(faces) == 2 * 2 * 3

    def test_indices_in_range(self):
        faces = grid_faces(4, 4)
        assert all(0 <= i < 16 for f in faces for i in f)

    def test_every_cell_covered(self):
        faces = grid_faces(3, 3)
        # Each of the 4 cells contributes exactly 2 triangles.
        assert len(faces) == 8
        assert len(set(faces)) == 8

    def test_too_small(self):
        with pytest.raises(GeometryError):
            grid_faces(1, 5)


class TestMonotoneTriangulation:
    def _area(self, chain, tris):
        def tri_area(a, b, c):
            return abs(
                (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y)
            ) / 2

        return sum(tri_area(chain[i], chain[j], chain[k]) for i, j, k in tris)

    def test_convex_chain(self):
        chain = [Point2(0, 0), Point2(1, 1), Point2(2, 1.5), Point2(3, 0)]
        tris = triangulate_monotone_polygon(chain)
        assert len(tris) == len(chain) - 2

    def test_mountain_area_preserved(self):
        # A "mountain": chain above the baseline (0,0)-(4,0).
        chain = [
            Point2(0, 0),
            Point2(1, 2),
            Point2(2, 1),
            Point2(3, 3),
            Point2(4, 0),
        ]
        tris = triangulate_monotone_polygon(chain)
        assert len(tris) == len(chain) - 2
        # Shoelace area of the polygon chain + closing baseline.
        n = len(chain)
        poly_area = 0.0
        for i in range(n):
            p, q = chain[i], chain[(i + 1) % n]
            poly_area += p.x * q.y - q.x * p.y
        poly_area = abs(poly_area) / 2
        assert abs(self._area(chain, tris) - poly_area) < 1e-9

    def test_not_monotone_rejected(self):
        with pytest.raises(GeometryError):
            triangulate_monotone_polygon(
                [Point2(0, 0), Point2(2, 1), Point2(1, 2)]
            )

    def test_tiny_chains(self):
        assert triangulate_monotone_polygon([Point2(0, 0)]) == []
        assert (
            triangulate_monotone_polygon([Point2(0, 0), Point2(1, 0)]) == []
        )

    @given(
        st.lists(st.floats(0.1, 10, allow_nan=False), min_size=3, max_size=20)
    )
    @settings(max_examples=60, deadline=None)
    def test_mountain_property(self, heights):
        chain = [Point2(0, 0)] + [
            Point2(float(i + 1), h) for i, h in enumerate(heights)
        ] + [Point2(float(len(heights) + 1), 0)]
        tris = triangulate_monotone_polygon(chain)
        assert len(tris) == len(chain) - 2
        n = len(chain)
        poly_area = 0.0
        for i in range(n):
            p, q = chain[i], chain[(i + 1) % n]
            poly_area += p.x * q.y - q.x * p.y
        poly_area = abs(poly_area) / 2
        assert abs(self._area(chain, tris) - poly_area) < 1e-6 * max(
            poly_area, 1.0
        )
