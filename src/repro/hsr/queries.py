"""Point-visibility queries against a terrain.

Utilities answering "is this 3-D point visible from the viewing
direction?" — the primitive underlying GIS viewshed products, signal
line-of-sight checks and flight-path planning.  A point ``p`` is
visible from ``x = +inf`` iff no terrain surface in front of it rises
to its height at its image ordinate, i.e. iff

    p.z  >  sup { envelope of edges strictly in front of p } (p.y)

(strictly in front: edge xy-projection passes ``p.y`` at larger x).

Three implementations are provided:

* :func:`point_visible` — direct evaluation: scan the edges once,
  O(n) per query, exact.  The reference.
* :func:`visible_many` — the batch form: under ``engine="numpy"``
  only the edges whose y-range can cover ``p.y`` are scanned — a
  window of the edges sorted by low ordinate, ``py - span <= y1 <=
  py`` for the largest edge y-extent ``span`` — vectorised over
  observer blocks, with the reference's exact ``covers`` test
  rejecting the window's extras.  Bit-exact with the scalar scan: the
  running maximum is order-independent and the interpolation
  replicates :meth:`~repro.geometry.segments.MapSegment.x_at` /
  ``z_at`` including their endpoint shortcuts.  One edge spanning the
  whole y-range widens every window to all ``n`` edges, the cost of a
  dense scan.  Under ``engine="python"`` it is the scalar loop.
* :class:`VisibilityOracle` — batch preprocessing: sorts edges front
  to back once and builds *prefix profiles* at checkpoints, answering
  each query from the nearest checkpoint profile plus a local scan —
  O(n/c · 1 + log) per query for ``c`` checkpoints, trading memory
  for query time.  Cross-checked against the reference in tests.

All three take the observer either as a
:class:`~repro.geometry.primitives.Point3` or as any ``(x, y, z)``
sequence — the same observer type :class:`repro.service.
ViewshedSession` accepts — and an :class:`repro.config.HsrConfig`
(its ``eps`` is the query tolerance).
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence, Union

from repro.envelope.chain import Envelope
from repro.envelope.splice import insert_segment
from repro.geometry.primitives import NEG_INF, Point3
from repro.ordering.sweep import front_to_back_order
from repro.terrain.model import Terrain

__all__ = ["point_visible", "visible_many", "VisibilityOracle", "Observer"]

#: Any observer spec the query layer accepts: a ``Point3`` or a plain
#: ``(x, y, z)`` sequence (the JSON shape the service receives).
Observer = Union[Point3, Sequence[float]]


def as_observer(p: Observer) -> Point3:
    """Normalise an observer spec to :class:`Point3`."""
    if isinstance(p, Point3):
        return p
    x, y, z = p
    return Point3(float(x), float(y), float(z))


def point_visible(
    terrain: Terrain,
    p: Observer,
    *,
    config=None,
) -> bool:
    """True when ``p`` is visible from ``x = +inf`` (see module doc).

    Points strictly above every occluder are visible; a point exactly
    on a front surface (within the config's ``eps``) counts as
    visible — it *is* the surface being seen.
    """
    from repro.config import HsrConfig

    cfg = HsrConfig.resolve(config)
    p = as_observer(p)
    eps_v = cfg.eps
    best = NEG_INF
    for e in range(terrain.n_edges):
        m = terrain.map_segment(e)
        if not (m.y1 <= p.y <= m.y2):
            continue
        if m.x_at(p.y) <= p.x + eps_v:
            continue  # not strictly in front
        s = terrain.image_segment(e)
        z = s.z_at(p.y)
        if z > best:
            best = z
    return best == NEG_INF or p.z >= best - eps_v


#: Observers per vectorized block: bounds the (block × window)
#: temporaries to a few MB on realistic terrains.
_POINT_BLOCK = 256

#: Relative widening of a window's lower bound: far above the few
#: rounding steps of ``py - span`` (each ~1e-16 relative), so every
#: edge with ``y1 <= py <= y2`` provably lies inside the window.
_WINDOW_SLACK = 1e-12


def visible_many(
    terrain: Terrain,
    observers: Sequence[Observer],
    *,
    config=None,
) -> list[bool]:
    """Batch :func:`point_visible` over many observers.

    Under the numpy engine each observer scans only a window of the
    edges sorted by their low ordinate ``y1``: those with
    ``py - span <= y1 <= py``, ``span`` the largest y-extent of any
    edge — a superset of the edges whose y-range covers ``py``.  The
    exact ``covers`` test of the reference then rejects the extras, so
    results are bit-exact with the scalar reference (asserted in
    ``tests/test_hsr_queries.py``).  The point lanes are built once per
    call (:class:`repro.service.ViewshedSession` keeps them).  Worst
    case, one edge spanning the whole y-range, the window holds every
    edge and the scan costs the dense (observer × edge) sweep.
    """
    from repro.config import HsrConfig

    cfg = HsrConfig.resolve(config)
    points = [as_observer(p) for p in observers]
    if cfg.resolved_engine() != "numpy" or terrain.n_edges == 0 or not points:
        return [point_visible(terrain, p, config=cfg) for p in points]
    return _PointLanes(terrain).visible(points, cfg.eps)


class _PointLanes:
    """A terrain's edges as the 8 lanes the vectorized point scan
    reads — map-segment endpoints ``(mx1, my1, mx2, my2)`` for the
    front test and image-segment endpoints ``(sy1, sz1, sy2, sz2)``
    for the height — one column per edge, sorted by ``my1``.

    Gathered in one pass from the vertex and edge arrays
    (:meth:`Terrain._lane_endpoints`): both segment kinds swap their
    ends on the same comparison, so ``my1 == sy1`` and ``my2 == sy2``.
    ``span`` is the largest ``my2 - my1``.  Requires numpy and at
    least one edge.
    """

    __slots__ = ("lanes", "span")

    def __init__(self, terrain: Terrain):
        import numpy as np

        pts, lo, hi = terrain._lane_endpoints()
        y1, y2 = pts[lo, 1], pts[hi, 1]
        lanes = np.stack(
            (pts[lo, 0], y1, pts[hi, 0], y2, y1, pts[lo, 2], y2, pts[hi, 2])
        )
        self.lanes = lanes[:, np.argsort(y1, kind="stable")]
        self.span = float((y2 - y1).max())

    def windows(self, py):
        """``(lo, hi)``: each observer's column range ``[lo, hi)``,
        holding every edge whose y-range covers its ordinate ``py``.

        The lower bound ``py - span`` is widened by
        :data:`_WINDOW_SLACK` and one more ulp, so rounding can only
        add edges.  A non-finite ordinate covers no finite edge and
        gets an empty window.  A non-finite ``span`` (an edge with a
        non-finite ordinate) makes every window the whole array — the
        dense sweep.
        """
        import numpy as np

        y1 = self.lanes[1]
        if not math.isfinite(self.span):
            return np.zeros(py.size, np.int64), np.full(py.size, y1.size)
        finite = np.isfinite(py)
        py = np.where(finite, py, 0.0)
        span = self.span
        with np.errstate(over="ignore"):
            low = (py - span) - (np.abs(py) + span) * _WINDOW_SLACK
        lo = np.searchsorted(y1, np.nextafter(low, -np.inf), side="left")
        hi = np.searchsorted(y1, py, side="right")
        return lo, np.where(finite, hi, lo)

    def visible(self, points: Sequence[Point3], eps: float) -> list[bool]:
        """:func:`point_visible` of every point, as blocked array
        sweeps over (observer × window) panels.

        Each block gathers its observers' windows into panels as wide
        as its widest window; the exact covers test drops every entry
        that does not cover its observer, which then evaluates at its
        own ``y1``.  The kernel replicates the
        scalar float arithmetic exactly: ``lerp``'s ``t == 0 / t == 1``
        endpoint shortcuts become ``where`` selects (``y == y1`` makes
        ``t`` exactly ``0.0`` and ``y == y2`` exactly ``1.0``, so
        selecting on ``t`` covers the ``x_at``/``z_at`` shortcuts
        too), horizontal map segments and vertical image segments take
        their max-endpoint branches, and every divide runs on a
        masked-safe denominator (the numpy CI leg promotes
        RuntimeWarning to error).  The reference's running ``max`` is
        order-independent, so one array reduction over a window
        matches it bitwise.
        """
        import numpy as np

        n = self.lanes.shape[1]
        out: list[bool] = []
        for base in range(0, len(points), _POINT_BLOCK):
            block = points[base : base + _POINT_BLOCK]
            py = np.array([p.y for p in block])
            lo, hi = self.windows(py)
            # A row past its own window reads further real edges (the
            # last one repeated at the end): their y1 exceeds py, so
            # the covers test below drops them and needs no mask.
            idx = np.minimum(lo[:, None] + np.arange((hi - lo).max()), n - 1)
            mx1, my1, mx2, my2, sy1, sz1, sy2, sz2 = self.lanes[:, idx]
            py = py[:, None]
            px = np.array([p.x for p in block])[:, None]
            pz = np.array([p.z for p in block])[:, None]

            m_horiz = my1 == my2
            s_vert = sy1 == sy2
            m_top = np.maximum(mx1, mx2)
            s_top = np.maximum(sz1, sz2)
            md = np.where(m_horiz, 1.0, my2 - my1)
            sd = np.where(s_vert, 1.0, sy2 - sy1)

            covers = (my1 <= py) & (py <= my2)
            # Entries that do not cover evaluate at their own y1
            # (t = 0), so no observer ordinate can overflow the panels.
            ye = np.where(covers, py, my1)
            tm = (ye - my1) / md
            xv = np.where(
                m_horiz,
                m_top,
                np.where(
                    tm == 0.0,
                    mx1,
                    np.where(tm == 1.0, mx2, mx1 + (mx2 - mx1) * tm),
                ),
            )
            # The reference skips an edge iff ``x <= px + eps``: negate
            # that test, so a NaN ``px`` keeps the edge in front too.
            front = covers & ~(xv <= px + eps)

            ts = (ye - sy1) / sd
            zv = np.where(
                s_vert,
                s_top,
                np.where(
                    ts == 0.0,
                    sz1,
                    np.where(ts == 1.0, sz2, sz1 + (sz2 - sz1) * ts),
                ),
            )
            best = np.where(front, zv, NEG_INF).max(axis=1, initial=NEG_INF)
            vis = (best == NEG_INF) | (pz[:, 0] >= best - eps)
            out.extend(bool(v) for v in vis)
        return out


class VisibilityOracle:
    """Preprocessed point-visibility for many queries on one terrain.

    Parameters
    ----------
    terrain:
        The scene.
    checkpoints:
        Number of prefix profiles to materialise (defaults to
        ``~sqrt(n)``, balancing memory against per-query scan length).
    config:
        :class:`repro.config.HsrConfig` (engine and tolerance).
    """

    def __init__(
        self,
        terrain: Terrain,
        *,
        checkpoints: int | None = None,
        config=None,
    ):
        from repro.config import HsrConfig

        cfg = HsrConfig.resolve(config)
        self.terrain = terrain
        self.config = cfg
        self.eps = cfg.eps
        self.order = front_to_back_order(terrain, config=cfg)
        n = len(self.order)
        c = checkpoints or max(1, int(math.isqrt(n)))
        stride = max(1, n // c)
        #: positions in the order at which profiles are snapshotted;
        #: checkpoint i covers the prefix order[:cut[i]].
        self._cuts: list[int] = list(range(0, n + 1, stride))
        if self._cuts[-1] != n:
            self._cuts.append(n)
        #: x-depth of each ordered edge (min over the segment — an
        #: edge is certainly in front of p when even its farthest
        #: point is nearer than p... we instead store per-edge depth
        #: range and resolve borderline edges in the local scan).
        self._profiles: list[Envelope] = []
        env = Envelope.empty()
        cut_iter = iter(self._cuts)
        next_cut = next(cut_iter)
        pos = 0
        if next_cut == 0:
            self._profiles.append(env)
            next_cut = next(cut_iter, None)  # type: ignore[assignment]
        for pos, edge in enumerate(self.order, start=1):
            env = insert_segment(
                env, terrain.image_segment(edge), eps=self.eps
            ).envelope
            if next_cut is not None and pos == next_cut:
                self._profiles.append(env)
                next_cut = next(cut_iter, None)  # type: ignore[assignment]
        #: for the front-in-front test we need, per ordered position,
        #: the x of the edge at arbitrary y — keep map segments handy.
        self._map_segs = [terrain.map_segment(e) for e in self.order]
        self._image_segs = [terrain.image_segment(e) for e in self.order]

    @property
    def n_checkpoints(self) -> int:
        return len(self._profiles)

    def visible(self, p: Observer) -> bool:
        """Visibility of ``p`` (matches :func:`point_visible`).

        Every ordered edge before the first one that covers ``p.y``
        *without* being in front of ``p`` is either in front or
        irrelevant at ``p.y``, so the deepest checkpoint at or before
        that position can be queried wholesale in ``O(log)``; only the
        remainder is scanned edge by edge.  For points deep inside the
        scene this skips most height evaluations (measured in the
        test-suite); the asymptotic worst case stays ``O(n)`` — making
        the split worst-case sublinear is precisely the dynamic
        ray-shooting machinery of Reif–Sen that the paper's parallel
        structure replaces.
        """
        p = as_observer(p)
        n = len(self.order)
        first_bad = n
        for i, m in enumerate(self._map_segs):
            if m.y1 <= p.y <= m.y2 and m.x_at(p.y) <= p.x + self.eps:
                first_bad = i
                break
        ck = bisect.bisect_right(self._cuts, first_bad) - 1
        cut = self._cuts[ck]
        best = self._profiles[ck].value_at(p.y)
        for i in range(cut, n):
            m = self._map_segs[i]
            if not (m.y1 <= p.y <= m.y2):
                continue
            if m.x_at(p.y) <= p.x + self.eps:
                continue
            z = self._image_segs[i].z_at(p.y)
            if z > best:
                best = z
        return best == NEG_INF or p.z >= best - self.eps

    def visible_many(self, points: Sequence[Observer]) -> list[bool]:
        """Batch query."""
        return [self.visible(p) for p in points]
