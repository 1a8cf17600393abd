"""Segments in the image (zy) plane and the map (xy) plane.

The central type is :class:`ImageSegment` — the projection of a terrain
edge onto the zy-plane, stored as a function of ``y`` (the horizontal
image coordinate).  Upper profiles are envelopes of these.

Vertical projections (both endpoints at the same ``y``) are legal
terrain edges; they are flagged ``is_vertical`` and contribute only a
point support to envelopes.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from repro.errors import GeometryError
from repro.geometry.primitives import EPS, Point2, lerp

__all__ = [
    "ImageSegment",
    "MapSegment",
    "line_crossing_y",
    "segment_intersection_2d",
]


class ImageSegment(NamedTuple):
    """A terrain edge projected on the image plane, as ``z(y)``.

    Attributes
    ----------
    y1, z1:
        Left endpoint (``y1 <= y2`` always holds).
    y2, z2:
        Right endpoint.
    source:
        Identifier of the originating terrain edge (index into the
        terrain's edge list); ``-1`` for synthetic segments.
    """

    y1: float
    z1: float
    y2: float
    z2: float
    source: int = -1

    @staticmethod
    def make(
        a: Point2, b: Point2, source: int = -1
    ) -> "ImageSegment":
        """Build from two image-plane points ``(y, z)``, normalising
        endpoint order so ``y1 <= y2``."""
        (y1, z1), (y2, z2) = a, b
        if y1 > y2:
            y1, z1, y2, z2 = y2, z2, y1, z1
        return ImageSegment(y1, z1, y2, z2, source)

    @property
    def is_vertical(self) -> bool:
        """True when the projection collapses to a single ``y``."""
        return self.y1 == self.y2

    @property
    def slope(self) -> float:
        """dz/dy; raises :class:`GeometryError` for vertical segments."""
        if self.is_vertical:
            raise GeometryError("slope of a vertical image segment")
        return (self.z2 - self.z1) / (self.y2 - self.y1)

    @property
    def top(self) -> float:
        """The larger of the two ``z`` endpoints."""
        return self.z1 if self.z1 >= self.z2 else self.z2

    def z_at(self, y: float) -> float:
        """Height of the segment's supporting line at ``y``.

        For vertical segments returns the top endpoint (the part that
        can contribute to an upper envelope).  Exact at endpoints.
        """
        if self.is_vertical:
            return self.top
        if y == self.y1:
            return self.z1
        if y == self.y2:
            return self.z2
        t = (y - self.y1) / (self.y2 - self.y1)
        return lerp(self.z1, self.z2, t)

    def covers(self, y: float, eps: float = 0.0) -> bool:
        """True when ``y`` lies in the segment's closed y-range."""
        return self.y1 - eps <= y <= self.y2 + eps

    def subsegment(self, ya: float, yb: float) -> "ImageSegment":
        """The sub-segment over ``[ya, yb]`` (must lie in the y-range)."""
        if ya > yb:
            raise GeometryError(f"empty subsegment range [{ya}, {yb}]")
        if ya < self.y1 - EPS or yb > self.y2 + EPS:
            raise GeometryError(
                f"subsegment [{ya}, {yb}] outside [{self.y1}, {self.y2}]"
            )
        ya = max(ya, self.y1)
        yb = min(yb, self.y2)
        return ImageSegment(ya, self.z_at(ya), yb, self.z_at(yb), self.source)

    def visible_piece(
        self, ya: float, yb: float
    ) -> tuple[float, float, float, float]:
        """``(ya, za, yb, zb)`` of the visible part ``[ya, yb]`` in the
        image: the top point when the segment or the part is vertical,
        else the clipped :meth:`subsegment`."""
        if self.is_vertical or ya == yb:
            top = self.top
            return ya, top, ya, top
        sub = self.subsegment(ya, yb)
        return sub.y1, sub.z1, sub.y2, sub.z2

    def length(self) -> float:
        """Euclidean length in the image plane."""
        return math.hypot(self.y2 - self.y1, self.z2 - self.z1)

    def as_points(self) -> tuple[Point2, Point2]:
        """Endpoints as image-plane points ``(y, z)``."""
        return Point2(self.y1, self.z1), Point2(self.y2, self.z2)


class MapSegment(NamedTuple):
    """A terrain edge projected on the map (xy) plane.

    Stored normalised so ``y1 <= y2`` (the sweep in
    :mod:`repro.ordering` advances in ``y``).  ``x_at`` evaluates the
    segment's ``x`` as a function of ``y`` which is the "distance from
    viewer" coordinate (viewer at ``x = +inf``).
    """

    x1: float
    y1: float
    x2: float
    y2: float
    source: int = -1

    @staticmethod
    def make(a: Point2, b: Point2, source: int = -1) -> "MapSegment":
        (x1, y1), (x2, y2) = a, b
        if y1 > y2:
            x1, y1, x2, y2 = x2, y2, x1, y1
        return MapSegment(x1, y1, x2, y2, source)

    @property
    def is_horizontal(self) -> bool:
        """True when the edge is perpendicular to the sweep direction."""
        return self.y1 == self.y2

    def x_at(self, y: float) -> float:
        """``x`` of the supporting line at sweep position ``y``.

        Horizontal segments return the *maximum* x — the part of the
        edge nearest the viewer, which is what front-to-back ordering
        must compare.
        """
        if self.is_horizontal:
            return self.x1 if self.x1 >= self.x2 else self.x2
        if y == self.y1:
            return self.x1
        if y == self.y2:
            return self.x2
        t = (y - self.y1) / (self.y2 - self.y1)
        return lerp(self.x1, self.x2, t)

    def y_range(self) -> tuple[float, float]:
        return (self.y1, self.y2)


def line_crossing_y(
    a: ImageSegment, b: ImageSegment, eps: float = EPS
) -> Optional[float]:
    """``y`` where the supporting *lines* of two non-vertical image
    segments cross, or ``None`` when (near-)parallel.

    The caller restricts the result to the y-interval of interest; this
    helper does not clamp.
    """
    if a.is_vertical or b.is_vertical:
        raise GeometryError("line_crossing_y with vertical segment")
    sa = a.slope
    sb = b.slope
    denom = sa - sb
    if abs(denom) <= eps * (1.0 + abs(sa) + abs(sb)):
        return None
    # Solve z1a + sa*(y - y1a) == z1b + sb*(y - y1b)
    ca = a.z1 - sa * a.y1
    cb = b.z1 - sb * b.y1
    return (cb - ca) / denom


def segment_intersection_2d(
    p1: Point2, p2: Point2, q1: Point2, q2: Point2, eps: float = EPS
) -> Optional[Point2]:
    """Single proper intersection point of segments ``p1p2`` and
    ``q1q2`` or ``None``.

    Collinear overlap returns ``None`` (callers that care about overlap
    handle it separately); endpoint touching within ``eps`` counts as
    an intersection.
    """
    r = p2 - p1
    s = q2 - q1
    denom = r.x * s.y - r.y * s.x
    if abs(denom) <= eps:
        return None
    qp = q1 - p1
    t = (qp.x * s.y - qp.y * s.x) / denom
    u = (qp.x * r.y - qp.y * r.x) / denom
    if -eps <= t <= 1.0 + eps and -eps <= u <= 1.0 + eps:
        return Point2(p1.x + t * r.x, p1.y + t * r.y)
    return None
