"""Point-visibility queries against a terrain.

Utilities answering "is this 3-D point visible from the viewing
direction?" — the primitive underlying GIS viewshed products, signal
line-of-sight checks and flight-path planning.  A point ``p`` is
visible from ``x = +inf`` iff no terrain surface in front of it rises
to its height at its image ordinate, i.e. iff

    p.z  >  sup { envelope of edges strictly in front of p } (p.y)

(strictly in front: edge xy-projection passes ``p.y`` at larger x).

Three query forms are provided:

* :func:`point_visible` — direct evaluation: scan the edges once,
  O(n) per query, exact.  The dense oracle the batch forms are tested
  against.
* :func:`visible_many` — the batch form: only the edges whose y-range
  can cover ``p.y`` are scanned — a window of the edges sorted by low
  ordinate, ``py - span <= y1 <= py`` for the largest edge y-extent
  ``span`` — with the exact ``covers`` test rejecting the window's
  extras.  Under ``engine="numpy"`` with the compiled core on, the
  whole batch is one ``repro_points_visible`` call; otherwise the
  same windowed scan runs as a scalar loop (the one reference, which
  shares its per-edge arithmetic with :func:`point_visible`).
  Bit-exact with :func:`point_visible` on every path: the running
  maximum is order-independent and the interpolation replicates
  :meth:`~repro.geometry.segments.MapSegment.x_at` / ``z_at``
  including their endpoint shortcuts.  One edge spanning the whole
  y-range widens every window to all ``n`` edges, the cost of a dense
  scan.
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
import sys
from itertools import chain
from operator import itemgetter
from typing import Sequence, Union

from repro.envelope import _ccore
from repro.envelope.chain import Envelope
from repro.envelope.splice import insert_segment
from repro.geometry.primitives import NEG_INF, Point3
from repro.ordering.sweep import front_to_back_order
from repro.reliability import guard as _guard
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
    visible — it *is* the surface being seen.  Scans every edge: the
    dense oracle the batch forms are tested against.
    """
    from repro.config import HsrConfig

    cfg = HsrConfig.resolve(config)
    p = as_observer(p)
    rows = []
    for e in range(terrain.n_edges):
        m = terrain.map_segment(e)
        if m.y1 <= p.y <= m.y2:
            s = terrain.image_segment(e)
            rows.append((m.x1, m.y1, m.x2, m.y2, s.y1, s.z1, s.y2, s.z2))
    return _visible_over(rows, p, cfg.eps)


def _visible_over(rows, p: Point3, eps: float) -> bool:
    """Whether ``p`` clears the edges of ``rows``, each a point-lane
    column ``(mx1, my1, mx2, my2, sy1, sz1, sy2, sz2)``: the highest
    ``z`` at ``p.y`` of the edges whose y-range covers ``p.y`` and that
    lie strictly in front of ``p`` (``x_at(p.y) > p.x + eps``) is at
    most ``p.z + eps``.  Inlines the float operations of
    :meth:`~repro.geometry.segments.MapSegment.x_at` and
    :meth:`~repro.geometry.segments.ImageSegment.z_at` (endpoint and
    ``t == 0 / t == 1`` shortcuts, the max endpoint of a horizontal map
    or vertical image segment), which ``repro_points_visible``
    transcribes; the running maximum is order-independent."""
    py = p.y
    front = p.x + eps
    best = NEG_INF
    for mx1, my1, mx2, my2, sy1, sz1, sy2, sz2 in rows:
        if not (my1 <= py <= my2):
            continue
        if my1 == my2:
            x = mx1 if mx1 >= mx2 else mx2
        elif py == my1:
            x = mx1
        elif py == my2:
            x = mx2
        else:
            t = (py - my1) / (my2 - my1)
            x = mx1 if t == 0.0 else mx2 if t == 1.0 else mx1 + (mx2 - mx1) * t
        if x <= front:
            continue  # not strictly in front (a NaN x stays in front)
        if sy1 == sy2:
            z = sz1 if sz1 >= sz2 else sz2
        elif py == sy1:
            z = sz1
        elif py == sy2:
            z = sz2
        else:
            t = (py - sy1) / (sy2 - sy1)
            z = sz1 if t == 0.0 else sz2 if t == 1.0 else sz1 + (sz2 - sz1) * t
        if z > best:
            best = z
    return best == NEG_INF or p.z >= best - eps


#: Relative widening of a window's lower bound ``py - span``: far above
#: its few rounding steps (each ~1e-16 relative), so every edge with
#: ``y1 <= py <= y2`` provably lies inside the window; ``_DBL_MIN``
#: covers magnitudes where the relative term underflows.  The compiled
#: scan uses the same bound (``WINDOW_SLACK`` in ``_ccore_build.py``).
_WINDOW_SLACK = 1e-11
_DBL_MIN = sys.float_info.min


def visible_many(
    terrain: Terrain,
    observers: Sequence[Observer],
    *,
    config=None,
) -> list[bool]:
    """Batch :func:`point_visible` over many observers.

    Each observer scans only a window of the edges sorted by their low
    ordinate ``y1``: those with ``py - span <= y1 <= py``, ``span`` the
    largest y-extent of any edge — a superset of the edges whose
    y-range covers ``py``, whose extras the exact ``covers`` test
    rejects.  Under the numpy engine with the compiled core on, the
    whole batch is one ``repro_points_visible`` call (guard site
    ``point_scan``); otherwise, and when that call faults, the windowed
    scalar loop over the same lanes answers.  Results are bit-exact
    with :func:`point_visible` (asserted in
    ``tests/test_hsr_queries.py``).  The point lanes are built once per
    call (:class:`repro.service.ViewshedSession` keeps them).  Worst
    case, one edge spanning the whole y-range, the window holds every
    edge and the scan costs the dense one.
    """
    from repro.config import HsrConfig

    cfg = HsrConfig.resolve(config)
    points = [as_observer(p) for p in observers]
    if not points:
        return []
    return _scan(_PointLanes(terrain, cfg.resolved_engine()), points, cfg)


def _scan(lanes: "_PointLanes", points: list[Point3], cfg) -> list[bool]:
    """:func:`point_visible` of each of ``points`` (at least one) over
    ``lanes``: one compiled call when the lanes have a block and the
    core is on for ``cfg``, else (and on a fault) the windowed
    reference."""
    eps = cfg.eps
    if lanes.block is not None and _ccore.compiled_enabled(cfg, "point_scan"):
        import numpy as np

        xyz = np.fromiter(chain.from_iterable(points), np.float64, 3 * len(points))
        px, py, pz = xyz.reshape(-1, 3).T.copy()
        return _guard.guarded_call(
            "point_scan",
            lambda: _ccore.points_visible(
                lanes.block, lanes.span, px, py, pz, eps
            ).tolist(),
            lambda: _scan_reference(lanes, points, eps),
        )
    return _scan_reference(lanes, points, eps)


def _scan_reference(lanes: "_PointLanes", points: list[Point3], eps: float) -> list[bool]:
    """The windowed scalar scan: :func:`_visible_over` of each point's
    window of ``lanes.rows``."""
    rows = lanes.rows
    out = []
    for p in points:
        lo, hi = lanes.window(p.y)
        out.append(_visible_over(rows[lo:hi], p, eps))
    return out


class _PointLanes:
    """A terrain's edges as the 8 point lanes the observer scan reads —
    map-segment endpoints ``(mx1, my1, mx2, my2)`` for the front test
    and image-segment endpoints ``(sy1, sz1, sy2, sz2)`` for the
    height — one column per edge, stably sorted by ``my1``; ``span`` is
    the largest ``my2 - my1`` (not finite when some ordinate is not).

    Under the numpy engine the lanes are gathered in one pass from the
    vertex and edge arrays (:meth:`Terrain._lane_endpoints`) into
    ``block``, the C-contiguous ``(8, n)`` float64 array the compiled
    scan reads; both segment kinds swap their ends on the same
    comparison, so ``my1 == sy1``, ``my2 == sy2`` and the lanes equal
    the segment fields bit for bit.  ``rows`` holds the same columns as
    tuples, the reference's input, converted from ``block`` on first
    use.  Under the python engine (and without numpy) the rows are
    built from :meth:`Terrain.map_segment` and
    :meth:`Terrain.image_segment` and ``block`` is ``None``.
    """

    __slots__ = ("block", "span", "_rows", "_keys")

    def __init__(self, terrain: Terrain, engine: str):
        self._keys = None
        if engine == "numpy":
            import numpy as np

            pts, lo, hi = terrain._lane_endpoints()
            order = np.argsort(pts[lo, 1], kind="stable")
            lo, hi = lo[order], hi[order]
            y1, y2 = pts[lo, 1], pts[hi, 1]
            self.block = np.stack(
                (pts[lo, 0], y1, pts[hi, 0], y2, y1, pts[lo, 2], y2, pts[hi, 2])
            )
            self.span = float((y2 - y1).max(initial=0.0))
            self._rows = None
            return
        rows = []
        for e in range(terrain.n_edges):
            m, s = terrain.map_segment(e), terrain.image_segment(e)
            rows.append((m.x1, m.y1, m.x2, m.y2, s.y1, s.z1, s.y2, s.z2))
        rows.sort(key=itemgetter(1))  # stable
        extents = [r[3] - r[1] for r in rows]
        finite = all(map(math.isfinite, extents))
        self.span = max(extents, default=0.0) if finite else math.inf
        self.block = None
        self._rows = rows

    @property
    def rows(self) -> list[tuple]:
        """The lanes as one tuple per edge, in ``my1`` order."""
        if self._rows is None:
            self._rows = list(zip(*self.block.tolist()))
        return self._rows

    def window(self, py: float) -> tuple[int, int]:
        """``(lo, hi)``: the range of :attr:`rows` holding every edge
        whose y-range covers the ordinate ``py``.

        The lower bound ``py - span`` is widened by
        :data:`_WINDOW_SLACK`, so rounding can only add edges.  A
        non-finite ordinate covers no finite edge and gets an empty
        window.  A non-finite ``span`` (an edge with a non-finite
        ordinate) makes every window all the rows — the dense scan.
        """
        rows = self.rows
        span = self.span
        if not math.isfinite(span):
            return 0, len(rows)
        if not math.isfinite(py):
            return 0, 0
        if self._keys is None:
            self._keys = [r[1] for r in rows]
        low = (py - span) - ((abs(py) + span) * _WINDOW_SLACK + _DBL_MIN)
        return bisect.bisect_left(self._keys, low), bisect.bisect_right(self._keys, py)


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
