"""The synchronous viewshed query core: sessions + envelope cache.

A :class:`ViewshedSession` binds one terrain to one
:class:`~repro.config.HsrConfig` and answers visibility queries
against the terrain's upper profile (the horizon envelope).  The
envelope is built once — by :func:`repro.envelope.build.build_envelope`
from the terrain's image lanes (one compiled call per recursion level
when the core is built) — and cached in a process-wide
:class:`EnvelopeCache` keyed by *terrain content hash*
(:func:`terrain_fingerprint`), resolved engine and eps: two sessions
on equal terrains share one build, and a re-generated but identical
DEM is a cache hit.

Query forms:

* :meth:`ViewshedSession.query` — one segment's visible parts
  (scalar :func:`~repro.envelope.visibility.visible_parts`);
* :meth:`ViewshedSession.query_batch` — many segments in **one**
  :func:`~repro.envelope.flat_visibility.batch_visible_parts` launch.
  By the kernel parity contract the coalesced answers are bit-exact
  with N sequential :meth:`query` calls (``tests/test_service.py``
  pins this), while the per-query dispatch/locate overhead is paid
  once — the ``service-qps`` benchmark row measures the resulting
  throughput multiple;
* :meth:`ViewshedSession.point_visible` /
  :meth:`ViewshedSession.points_visible` — observer-point queries
  delegating to :mod:`repro.hsr.queries` (the batched form runs the
  windowed point scan over y-sorted edge lanes the session keeps).

The asyncio front end in :mod:`repro.service.server` coalesces
concurrent client requests into :meth:`query_batch` launches on top of
this core.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from typing import Optional, Sequence, Union

from repro.envelope.chain import Envelope
from repro.envelope.visibility import VisibilityResult, visible_parts
from repro.geometry.segments import ImageSegment
from repro.hsr.queries import Observer, _PointLanes, as_observer, visible_many
from repro.hsr.queries import point_visible as _point_visible
from repro.terrain.model import Terrain

__all__ = [
    "terrain_fingerprint",
    "EnvelopeCache",
    "ViewshedSession",
]

#: A query segment: an :class:`ImageSegment` or a plain
#: ``(y1, z1, y2, z2)`` sequence (the JSON shape the server receives).
QuerySegment = Union[ImageSegment, Sequence[float]]


def as_query_segment(seg: QuerySegment) -> ImageSegment:
    """Normalise a query spec to :class:`ImageSegment` (source ``-1``:
    queries are probes, not scene members)."""
    if isinstance(seg, ImageSegment):
        return seg
    y1, z1, y2, z2 = seg
    return ImageSegment(float(y1), float(z1), float(y2), float(z2), -1)


def terrain_fingerprint(terrain: Terrain) -> str:
    """Content hash of a terrain (vertices + faces), hex-encoded.

    Hashes the vertex and face counts, then the vertex buffer as
    little-endian float64 bytes and the sorted face triples as
    little-endian int64 bytes — the bytes ``struct.pack("<3d", ...)``
    and ``struct.pack("<3q", ...)`` give per row — so the fingerprint
    is byte-stable across processes and hosts and equal exactly when
    the geometry is equal: the envelope-cache key and the wire name
    for a terrain in the query service.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<2q", terrain.n_vertices, terrain.n_faces))
    for buf in terrain.buffer_bytes():
        h.update(buf)
    return h.hexdigest()


class EnvelopeCache:
    """Small thread-safe LRU of horizon envelopes.

    Keyed ``(terrain fingerprint, resolved engine, eps)`` — the inputs
    that determine the built envelope bit-for-bit.  The default
    process-wide instance backs every session; pass a private one for
    isolation (tests) or different sizing.
    """

    def __init__(self, maxsize: int = 16):
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, Envelope] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> Optional[Envelope]:
        with self._lock:
            env = self._entries.get(key)
            if env is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return env

    def store(self, key: tuple, env: Envelope) -> None:
        with self._lock:
            self._entries[key] = env
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


#: The process-wide default cache (sessions share envelope builds).
DEFAULT_CACHE = EnvelopeCache()


class ViewshedSession:
    """Synchronous viewshed queries against one terrain.

    Parameters
    ----------
    terrain:
        The scene.
    config:
        :class:`repro.config.HsrConfig`; engine, eps and the core
        toggle select the kernels.
    cache:
        :class:`EnvelopeCache` override (defaults to the process-wide
        cache).

    Opening a session computes only the fingerprint.  Each query form
    builds what it scans on first use and keeps it: the horizon
    envelope (through the cache) for :meth:`query`, its flat arrays
    for :meth:`query_batch`, and the terrain's edges as point lanes
    sorted by low ordinate for :meth:`points_visible` (numpy engine).
    """

    def __init__(
        self,
        terrain: Terrain,
        *,
        config=None,
        cache: Optional[EnvelopeCache] = None,
    ):
        from repro.config import HsrConfig

        self.terrain = terrain
        self.config = HsrConfig.resolve(config)
        self.cache = cache if cache is not None else DEFAULT_CACHE
        self.fingerprint = terrain_fingerprint(terrain)
        self._envelope: Optional[Envelope] = None
        self._flat = None
        self._point_lanes: Optional[_PointLanes] = None
        self.stats = {"queries": 0, "batches": 0, "batched_queries": 0}

    # -- the horizon envelope -----------------------------------------

    @property
    def cache_key(self) -> tuple:
        return (
            self.fingerprint,
            self.config.resolved_engine(),
            self.config.eps,
        )

    def envelope(self) -> Envelope:
        """The terrain's upper profile (built once, cached by content)."""
        if self._envelope is None:
            env = self.cache.lookup(self.cache_key)
            if env is None:
                from repro.envelope.build import build_envelope

                terrain = self.terrain
                if self.config.resolved_engine() == "numpy":
                    res = build_envelope(
                        None, lanes=terrain.image_lanes(), config=self.config
                    )
                else:
                    res = build_envelope(
                        terrain.image_segments(), config=self.config
                    )
                env = res.envelope
                self.cache.store(self.cache_key, env)
            self._envelope = env
        return self._envelope

    def _flat_envelope(self):
        if self._flat is None:
            from repro.envelope.flat import FlatEnvelope

            self._flat = FlatEnvelope.from_envelope(self.envelope())
        return self._flat

    # -- segment queries ----------------------------------------------

    def query(self, seg: QuerySegment) -> VisibilityResult:
        """Visible parts of one query segment against the horizon."""
        self.stats["queries"] += 1
        return visible_parts(
            as_query_segment(seg), self.envelope(), eps=self.config.eps
        )

    def query_batch(
        self, segs: Sequence[QuerySegment]
    ) -> list[VisibilityResult]:
        """Visible parts of many query segments, coalesced into one
        batched kernel launch (bit-exact with per-query :meth:`query`
        calls; python engine falls back to the scalar loop)."""
        segments = [as_query_segment(s) for s in segs]
        self.stats["batches"] += 1
        self.stats["batched_queries"] += len(segments)
        if not segments:
            return []
        if self.config.resolved_engine() != "numpy":
            env = self.envelope()
            return [
                visible_parts(s, env, eps=self.config.eps)
                for s in segments
            ]
        from repro.envelope.flat_visibility import batch_visible_parts

        return batch_visible_parts(
            self._flat_envelope(), segments, eps=self.config.eps
        ).results()

    # -- observer-point queries ---------------------------------------

    def point_visible(self, observer: Observer) -> bool:
        """One observer point's visibility (reference scan)."""
        self.stats["queries"] += 1
        return _point_visible(self.terrain, observer, config=self.config)

    def points_visible(self, observers: Sequence[Observer]) -> list[bool]:
        """Many observer points, via the windowed point scan of
        :func:`~repro.hsr.queries.visible_many`; the session builds the
        y-sorted point lanes on its first call and keeps them."""
        self.stats["batches"] += 1
        self.stats["batched_queries"] += len(observers)
        cfg = self.config
        points = [as_observer(p) for p in observers]
        if (
            cfg.resolved_engine() != "numpy"
            or self.terrain.n_edges == 0
            or not points
        ):
            return visible_many(self.terrain, points, config=cfg)
        if self._point_lanes is None:
            self._point_lanes = _PointLanes(self.terrain)
        return self._point_lanes.visible(points, cfg.eps)
