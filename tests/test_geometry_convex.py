"""Unit and property tests for repro.geometry.convex."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry.convex import (
    convex_hull,
    hull_extreme_index,
    is_convex_chain,
    lower_hull,
    max_over_hull,
    min_over_hull,
    upper_hull,
)
from repro.geometry.primitives import Point2, cross2


def _pts(coords):
    return [Point2(float(x), float(y)) for x, y in coords]


class TestHulls:
    def test_triangle(self):
        pts = _pts([(0, 0), (2, 0), (1, 1)])
        assert lower_hull(pts) == _pts([(0, 0), (2, 0)])
        assert upper_hull(pts) == _pts([(0, 0), (1, 1), (2, 0)])

    def test_collinear_dropped(self):
        pts = _pts([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert lower_hull(pts) == _pts([(0, 0), (3, 0)])
        assert upper_hull(pts) == _pts([(0, 0), (3, 0)])

    def test_duplicates_removed(self):
        pts = _pts([(0, 0), (0, 0), (1, 1)])
        assert lower_hull(pts) == _pts([(0, 0), (1, 1)])

    def test_single_and_pair(self):
        assert lower_hull(_pts([(1, 2)])) == _pts([(1, 2)])
        assert upper_hull(_pts([(1, 2), (3, 4)])) == _pts([(1, 2), (3, 4)])

    def test_convex_hull_square_ccw(self):
        pts = _pts([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
        hull = convex_hull(pts)
        assert len(hull) == 4
        # CCW orientation: every consecutive triple turns left.
        for i in range(len(hull)):
            a, b, c = hull[i], hull[(i + 1) % 4], hull[(i + 2) % 4]
            assert cross2(a, b, c) > 0

    def test_is_convex_chain(self):
        assert is_convex_chain(_pts([(0, 1), (1, 0), (2, 1)]), lower=True)
        assert not is_convex_chain(
            _pts([(0, 0), (1, 1), (2, 0)]), lower=True
        )
        assert is_convex_chain(_pts([(0, 0), (1, 1), (2, 0)]), lower=False)
        # Unsorted x is never a valid chain.
        assert not is_convex_chain(_pts([(2, 0), (0, 0)]), lower=True)


class TestExtremeQueries:
    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            hull_extreme_index([], lambda p: p.y, maximize=True)

    def test_small_hull(self):
        hull = _pts([(0, 5), (1, 1), (2, 4)])
        assert hull_extreme_index(hull, lambda p: p.y, maximize=False) == 1
        assert hull_extreme_index(hull, lambda p: p.y, maximize=True) == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=3,
            max_size=60,
        ),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-50, 50, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_extreme_matches_linear_scan(self, coords, a, b):
        pts = _pts(coords)
        hull = lower_hull(pts)
        if not hull:
            return
        got = min_over_hull(hull, a, b)
        want = min(p.y - (a * p.x + b) for p in hull)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))
        hull_u = upper_hull(pts)
        got = max_over_hull(hull_u, a, b)
        want = max(p.y - (a * p.x + b) for p in hull_u)
        assert abs(got - want) <= 1e-9 * (1 + abs(want))

    def test_tied_probes_keep_the_extreme(self):
        """Rounding ties the probes at indices 1 and 2 (both -1.0); the
        minimum, -2.0, is at index 0, left of both."""
        hull = lower_hull(_pts([(0, -1.34e-106), (1, 1), (3.18e-44, 0), (-1, 0)]))
        assert min_over_hull(hull, -1, 1) == -2.0

    def test_extreme_on_large_random_hull(self):
        rng = random.Random(42)
        pts = [
            Point2(rng.uniform(0, 1000), rng.uniform(0, 1000))
            for _ in range(5000)
        ]
        hull = lower_hull(pts)
        for _ in range(50):
            a = rng.uniform(-3, 3)
            b = rng.uniform(-100, 100)
            got = min_over_hull(hull, a, b)
            want = min(p.y - (a * p.x + b) for p in hull)
            assert abs(got - want) <= 1e-6


class TestHullInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(-50, 50),
                st.integers(-50, 50),
            ),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_hull_contains_extremes_and_is_convex(self, coords):
        pts = _pts(coords)
        lo = lower_hull(pts)
        hi = upper_hull(pts)
        assert is_convex_chain(lo, lower=True)
        assert is_convex_chain(hi, lower=False)
        # Every input point lies on or above the lower hull.
        for p in pts:
            for q1, q2 in zip(lo, lo[1:]):
                if q1.x <= p.x <= q2.x and q1.x < q2.x:
                    t = (p.x - q1.x) / (q2.x - q1.x)
                    z = q1.y + t * (q2.y - q1.y)
                    assert p.y >= z - 1e-9
