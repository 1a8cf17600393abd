"""Convex chains and extreme-point queries.

The augmented Chazelle–Guibas structure (paper §3.1, Fig. 3) stores,
for each tree edge spanning profile diagonals ``a..b``, the *lower
convex chain* of the profile vertices between them.  Deciding whether a
query segment crosses the profile inside that span reduces to extreme-
point queries against the span's convex chains:

* ``min over vertices v of (v.z - line(v.y))`` is attained at a vertex
  of the **lower** hull,
* ``max`` at a vertex of the **upper** hull,

because a linear functional over a finite point set is extremised on
the convex hull, and the functional ``z - line(y)`` is linear in
``(y, z)``.  Both queries are ternary/binary searches over the hull in
``O(log h)`` — this is what gives the CG search its ``O(log^2)`` bound.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import GeometryError
from repro.geometry.primitives import Point2, cross2

__all__ = [
    "lower_hull",
    "upper_hull",
    "lower_hull_presorted",
    "upper_hull_presorted",
    "convex_hull",
    "hull_extreme_index",
    "min_over_hull",
    "max_over_hull",
    "is_convex_chain",
]


def lower_hull(points: Sequence[Point2]) -> list[Point2]:
    """Lower convex hull of points sorted by ``x`` (ties by ``y``).

    The input need not be sorted; it is sorted internally.  The result
    runs left to right and every interior vertex is a strict right
    turn's extreme (collinear middle points are dropped).
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)
    hull: list[Point2] = []
    for p in pts:
        while len(hull) >= 2 and cross2(hull[-2], hull[-1], p) <= 0.0:
            hull.pop()
        hull.append(p)
    return hull


def upper_hull(points: Sequence[Point2]) -> list[Point2]:
    """Upper convex hull, left to right (see :func:`lower_hull`)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return list(pts)
    hull: list[Point2] = []
    for p in pts:
        while len(hull) >= 2 and cross2(hull[-2], hull[-1], p) >= 0.0:
            hull.pop()
        hull.append(p)
    return hull


def lower_hull_presorted(points: Sequence[Point2]) -> list[Point2]:
    """Lower hull of points already sorted by ``x`` — linear time.

    Unlike :func:`lower_hull` the input is not re-sorted or
    deduplicated; callers guarantee non-decreasing ``x`` (equal-x
    duplicates are tolerated and dominated ones drop out naturally).
    """
    hull: list[Point2] = []
    for p in points:
        if hull and hull[-1] == p:
            continue
        while len(hull) >= 2 and cross2(hull[-2], hull[-1], p) <= 0.0:
            hull.pop()
        hull.append(p)
    return hull


def upper_hull_presorted(points: Sequence[Point2]) -> list[Point2]:
    """Upper hull of x-sorted points — linear time (see
    :func:`lower_hull_presorted`)."""
    hull: list[Point2] = []
    for p in points:
        if hull and hull[-1] == p:
            continue
        while len(hull) >= 2 and cross2(hull[-2], hull[-1], p) >= 0.0:
            hull.pop()
        hull.append(p)
    return hull


def convex_hull(points: Sequence[Point2]) -> list[Point2]:
    """Full convex hull in CCW order (Andrew's monotone chain)."""
    lo = lower_hull(points)
    hi = upper_hull(points)
    if len(lo) <= 1:
        return lo
    return lo[:-1] + hi[::-1][:-1]


def hull_extreme_index(
    hull: Sequence[Point2],
    f: Callable[[Point2], float],
    *,
    maximize: bool,
) -> int:
    """Index of the hull vertex extremising the linear functional ``f``.

    ``hull`` must be a convex chain ordered by ``x`` (a lower or upper
    hull).  Along such a chain any linear functional is *unimodal*, so
    a ternary-style search finds the extreme in ``O(log h)`` evaluations.

    Raises :class:`GeometryError` on an empty hull.
    """
    n = len(hull)
    if n == 0:
        raise GeometryError("extreme query on empty hull")
    if n <= 3:
        vals = [f(p) for p in hull]
        return max(range(n), key=vals.__getitem__) if maximize else min(
            range(n), key=vals.__getitem__
        )
    lo, hi = 0, n - 1
    # Invariant: the extreme lies in [lo, hi].  Unimodality along the
    # chain lets us compare adjacent values to pick the half.
    while hi - lo > 2:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        v1, v2 = f(hull[m1]), f(hull[m2])
        if v1 == v2:
            # Rounding can tie two probes of a strictly unimodal
            # functional, and a tie does not tell which side holds the
            # extreme: scan what is left.
            break
        if (v1 < v2) == maximize:
            lo = m1 + 1
        else:
            hi = m2 - 1
    vals = [f(hull[i]) for i in range(lo, hi + 1)]
    if maximize:
        off = max(range(len(vals)), key=vals.__getitem__)
    else:
        off = min(range(len(vals)), key=vals.__getitem__)
    return lo + off


def min_over_hull(hull: Sequence[Point2], a: float, b: float) -> float:
    """Minimum of ``p.y - (a*p.x + b)`` over the hull vertices.

    With image-plane points stored as ``(y, z)`` this is the minimum
    signed height of the chain above the line ``z = a*y + b``.
    """
    i = hull_extreme_index(
        hull, lambda p: p.y - (a * p.x + b), maximize=False
    )
    p = hull[i]
    return p.y - (a * p.x + b)


def max_over_hull(hull: Sequence[Point2], a: float, b: float) -> float:
    """Maximum of ``p.y - (a*p.x + b)`` over the hull vertices."""
    i = hull_extreme_index(
        hull, lambda p: p.y - (a * p.x + b), maximize=True
    )
    p = hull[i]
    return p.y - (a * p.x + b)


def is_convex_chain(points: Sequence[Point2], *, lower: bool) -> bool:
    """Validate that ``points`` forms a convex chain sorted by ``x``.

    ``lower=True`` checks left-turn convexity (a lower hull);
    ``lower=False`` checks right-turn convexity (an upper hull).
    Used by the test-suite and by debug assertions in the ACG builder.
    """
    for i in range(1, len(points)):
        if points[i].x < points[i - 1].x:
            return False
    for i in range(1, len(points) - 1):
        c = cross2(points[i - 1], points[i], points[i + 1])
        if lower and c <= 0.0:
            return False
        if not lower and c >= 0.0:
            return False
    return True
