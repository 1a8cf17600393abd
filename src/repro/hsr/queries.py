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
  the per-edge scan vectorises over observer blocks (bit-exact with
  the scalar scan — the running maximum is order-independent and the
  interpolation replicates :meth:`~repro.geometry.segments.MapSegment.
  x_at` / ``z_at`` including their endpoint shortcuts); under
  ``engine="python"`` it is the scalar loop.
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


#: Observers per vectorized block: bounds the (block × edges) broadcast
#: temporaries to a few MB on realistic terrains.
_POINT_BLOCK = 256


def visible_many(
    terrain: Terrain,
    observers: Sequence[Observer],
    *,
    config=None,
) -> list[bool]:
    """Batch :func:`point_visible` over many observers.

    Under the numpy engine the scan runs as blocked array sweeps over
    (observer × edge) panels; results are bit-exact with the scalar
    reference (asserted in ``tests/test_service.py``).
    """
    from repro.config import HsrConfig

    cfg = HsrConfig.resolve(config)
    points = [as_observer(p) for p in observers]
    if cfg.resolved_engine() != "numpy" or terrain.n_edges == 0:
        return [point_visible(terrain, p, config=cfg) for p in points]
    return _visible_many_numpy(terrain, points, cfg.eps)


def _terrain_query_arrays(terrain: Terrain):
    """The per-edge lanes the vectorized point kernel scans: map-
    segment endpoints (front test) and image-segment endpoints
    (height evaluation), one row per edge."""
    import numpy as np

    n = terrain.n_edges
    mat = np.empty((n, 8), dtype=np.float64)
    for e in range(n):
        m = terrain.map_segment(e)
        s = terrain.image_segment(e)
        mat[e] = (m.x1, m.y1, m.x2, m.y2, s.y1, s.z1, s.y2, s.z2)
    return mat


def _visible_many_numpy(
    terrain: Terrain, points: Sequence[Point3], eps: float
) -> list[bool]:
    """Blocked vectorization of the reference scan.

    Replicates the scalar float arithmetic exactly: ``lerp``'s
    ``t == 0 / t == 1`` endpoint shortcuts become ``where`` selects
    (``y == y1`` makes ``t`` exactly ``0.0`` and ``y == y2`` exactly
    ``1.0``, so selecting on ``t`` covers the ``x_at``/``z_at``
    shortcuts too), horizontal map segments and vertical image
    segments take their max-endpoint branches, and every divide runs
    on a masked-safe denominator (the numpy CI leg promotes
    RuntimeWarning to error).  The reference's running ``max`` is
    order-independent, so one array reduction matches it bitwise.
    """
    import numpy as np

    mat = _terrain_query_arrays(terrain)
    mx1, my1, mx2, my2 = mat[:, 0], mat[:, 1], mat[:, 2], mat[:, 3]
    sy1, sz1, sy2, sz2 = mat[:, 4], mat[:, 5], mat[:, 6], mat[:, 7]
    m_horiz = my1 == my2
    s_vert = sy1 == sy2
    m_top = np.maximum(mx1, mx2)
    s_top = np.maximum(sz1, sz2)
    md = np.where(m_horiz, 1.0, my2 - my1)
    sd = np.where(s_vert, 1.0, sy2 - sy1)

    out: list[bool] = []
    for base in range(0, len(points), _POINT_BLOCK):
        block = points[base : base + _POINT_BLOCK]
        py = np.array([p.y for p in block])[:, None]
        px = np.array([p.x for p in block])[:, None]
        pz = np.array([p.z for p in block])[:, None]

        covers = (my1 <= py) & (py <= my2)
        tm = (py - my1) / md
        xv = np.where(
            m_horiz,
            m_top,
            np.where(
                tm == 0.0,
                mx1,
                np.where(tm == 1.0, mx2, mx1 + (mx2 - mx1) * tm),
            ),
        )
        front = covers & (xv > px + eps)

        ts = (py - sy1) / sd
        zv = np.where(
            s_vert,
            s_top,
            np.where(
                ts == 0.0,
                sz1,
                np.where(ts == 1.0, sz2, sz1 + (sz2 - sz1) * ts),
            ),
        )
        best = np.where(front, zv, NEG_INF).max(axis=1)
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
        self.order = front_to_back_order(terrain, engine=cfg.engine)
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
