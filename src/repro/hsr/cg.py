"""Static Chazelle–Guibas structure over a profile (paper Fig. 2).

A balanced binary tree over the pieces of one envelope; every node is
augmented with the lower and upper convex chains of its span's
vertices (the paper's ACG: "we augment each edge ab of the CG data
structure with the lower convex chain of the vertices of the profile
between a and b", §3.1, following Preparata–Vitter).

Supported queries:

* :meth:`ProfileIndex.first_intersection` — the leftmost transversal
  crossing of a segment with the profile at ``y >= y_from``; the CG
  search of Lemma 3.6, descending level by level with an ``O(log h)``
  hull probe per node — ``O(log² m)`` total, which experiment E6
  verifies by probe counting.
* :meth:`ProfileIndex.all_intersections` — every crossing, via the
  Lemma 3.2 recursion: split the segment at the middle diagonal and
  recurse into both halves (the two halves are independent — the
  parallel tasks of the paper's processor allocation).

This static structure is the validation/benchmark twin of the
shared persistent variant in :mod:`repro.hsr.acg_rope`; construction cost
and query probes here correspond to Lemmas 3.3–3.5 (E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.envelope.chain import Envelope, Piece
from repro.geometry.convex import (
    hull_extreme_index,
    lower_hull_presorted,
    upper_hull_presorted,
)
from repro.geometry.primitives import EPS, Point2
from repro.geometry.segments import ImageSegment

__all__ = ["CGNode", "ProfileIndex"]


@dataclass
class CGNode:
    """Tree node spanning the contiguous piece range ``[lo, hi)``."""

    lo: int
    hi: int
    ya: float
    yb: float
    contiguous: bool
    lower: tuple[Point2, ...]
    upper: tuple[Point2, ...]
    left: Optional["CGNode"] = None
    right: Optional["CGNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.hi - self.lo == 1


class ProfileIndex:
    """Balanced hull-augmented tree over an envelope (see module doc).

    Attributes
    ----------
    build_ops:
        Hull points processed during construction — the Lemma 3.3/3.4
        build cost measured by experiment E7.
    """

    def __init__(self, env: Envelope, *, eps: float = EPS):
        self.env = env
        self.eps = eps
        self.build_ops = 0
        self.root: Optional[CGNode] = (
            self._build(0, env.size) if env.size else None
        )

    # -- construction ----------------------------------------------------

    def _build(self, lo: int, hi: int) -> CGNode:
        pieces = self.env.pieces
        if hi - lo == 1:
            p = pieces[lo]
            pts = (Point2(p.ya, p.za), Point2(p.yb, p.zb))
            self.build_ops += 2
            lower = tuple(lower_hull_presorted(pts))
            upper = tuple(upper_hull_presorted(pts))
            return CGNode(lo, hi, p.ya, p.yb, True, lower, upper)
        mid = (lo + hi) // 2
        left = self._build(lo, mid)
        right = self._build(mid, hi)
        contiguous = (
            left.contiguous
            and right.contiguous
            and pieces[mid - 1].yb == pieces[mid].ya
        )
        pts = list(left.lower) + list(right.lower)
        self.build_ops += len(pts)
        lower = tuple(lower_hull_presorted(pts))
        pts = list(left.upper) + list(right.upper)
        self.build_ops += len(pts)
        upper = tuple(upper_hull_presorted(pts))
        return CGNode(
            lo, hi, left.ya, right.yb, contiguous, lower, upper, left, right
        )

    # -- queries -----------------------------------------------------------

    def _hull_extreme(
        self, hull: tuple[Point2, ...], a: float, b: float, *, maximize: bool
    ) -> float:
        i = hull_extreme_index(
            hull, lambda p: p.y - (a * p.x + b), maximize=maximize
        )
        p = hull[i]
        return p.y - (a * p.x + b)

    def first_intersection(
        self, seg: ImageSegment, *, y_from: Optional[float] = None
    ) -> tuple[Optional[tuple[float, float]], int]:
        """Leftmost transversal crossing of ``seg`` with the profile at
        ``y >= y_from`` (default: the segment's start).

        Returns ``((y, z) | None, probes)`` where ``probes`` counts
        visited tree nodes (each performing one ``O(log h)`` hull
        probe) — the Lemma 3.6 cost.
        """
        if self.root is None or seg.is_vertical:
            return (None, 0)
        a = seg.slope
        b = seg.z1 - a * seg.y1
        lo = seg.y1 if y_from is None else max(seg.y1, y_from)
        hi = seg.y2
        probes = 0

        def walk(node: Optional[CGNode], u: float, v: float):
            nonlocal probes
            if node is None or u >= v:
                return None
            if v <= node.ya or u >= node.yb:
                return None
            probes += 1
            if node.ya >= u and node.yb <= v:
                dmin = self._hull_extreme(node.lower, a, b, maximize=False)
                if dmin > self.eps:
                    return None
                dmax = self._hull_extreme(node.upper, a, b, maximize=True)
                if dmax < -self.eps:
                    return None
            if node.is_leaf:
                return self._piece_crossing(
                    self.env.pieces[node.lo], a, b, u, v
                )
            hit = walk(node.left, u, v)
            if hit is not None:
                return hit
            return walk(node.right, u, v)

        return (walk(self.root, lo, hi), probes)

    def _piece_crossing(
        self, piece: Piece, a: float, b: float, u: float, v: float
    ) -> Optional[tuple[float, float]]:
        pu = max(u, piece.ya)
        pv = min(v, piece.yb)
        if pu >= pv:
            return None
        du = piece.z_at(pu) - (a * pu + b)
        dv = piece.z_at(pv) - (a * pv + b)
        eps = self.eps
        su = 0 if abs(du) <= eps else (1 if du > 0 else -1)
        sv = 0 if abs(dv) <= eps else (1 if dv > 0 else -1)
        if su * sv >= 0:
            return None
        t = du / (du - dv)
        w = pu + t * (pv - pu)
        if not (pu < w < pv):
            return None
        return (w, a * w + b)

    def all_intersections(
        self, seg: ImageSegment
    ) -> tuple[list[tuple[float, float]], int]:
        """All transversal crossings by repeated pruned descent: find
        any crossing, split the range there, recurse on both sides —
        ``O((k_s + 1))`` descents of ``O(log² m)`` probes each.

        (The faithful middle-diagonal recursion of Lemma 3.2, which
        exposes the two halves as *parallel* tasks, lives in
        :func:`repro.hsr.intersect.all_intersections_lemma32`; both
        return identical crossing sets.)
        """
        if self.root is None or seg.is_vertical:
            return ([], 0)
        a = seg.slope
        b = seg.z1 - a * seg.y1
        probes_total = 0
        found: list[tuple[float, float]] = []

        def crossings_in(u: float, v: float) -> None:
            nonlocal probes_total
            # Find any crossing in (u, v) by descent; then split there.
            hit, probes = self._first_in_range(a, b, u, v)
            probes_total += probes
            if hit is None:
                return
            y, z = hit
            found.append((y, z))
            crossings_in(u, y - 1e-12)
            crossings_in(y + 1e-12, v)

        crossings_in(seg.y1, seg.y2)
        found.sort()
        return (found, probes_total)

    def _first_in_range(self, a: float, b: float, u: float, v: float):
        probes = 0

        def walk(node: Optional[CGNode], u: float, v: float):
            nonlocal probes
            if node is None or u >= v:
                return None
            if v <= node.ya or u >= node.yb:
                return None
            probes += 1
            if node.ya >= u and node.yb <= v:
                dmin = self._hull_extreme(node.lower, a, b, maximize=False)
                if dmin > self.eps:
                    return None
                dmax = self._hull_extreme(node.upper, a, b, maximize=True)
                if dmax < -self.eps:
                    return None
            if node.is_leaf:
                return self._piece_crossing(
                    self.env.pieces[node.lo], a, b, u, v
                )
            hit = walk(node.left, u, v)
            if hit is not None:
                return hit
            return walk(node.right, u, v)

        return (walk(self.root, u, v), probes)

    # -- metrics ------------------------------------------------------------

    def node_count(self) -> int:
        def count(node: Optional[CGNode]) -> int:
            if node is None:
                return 0
            return 1 + count(node.left) + count(node.right)

        return count(self.root)

    def height(self) -> int:
        def h(node: Optional[CGNode]) -> int:
            if node is None:
                return 0
            return 1 + max(h(node.left), h(node.right))

        return h(self.root)
