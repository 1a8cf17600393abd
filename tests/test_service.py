"""Tests for :mod:`repro.service` — sessions, cache, and the server.

Pins the service contract: coalesced batches are bit-exact with
sequential queries, the envelope cache hits on regenerated identical
terrains (content hash, not object identity), and the asyncio server
actually coalesces concurrent clients into single kernel launches.
"""

from __future__ import annotations

import asyncio
import json

import pytest

np = pytest.importorskip("numpy")

from repro.config import HsrConfig
from repro.service import (
    EnvelopeCache,
    ViewshedServer,
    ViewshedSession,
    terrain_fingerprint,
)


def _fractal(seed=3):
    from repro.terrain.generators import fractal_terrain

    return fractal_terrain(size=9, seed=seed)


def _query_segments(terrain, count=60):
    """Deterministic probe segments spanning the terrain's y-range."""
    ys = [s.y1 for s in terrain.image_segments()] + [
        s.y2 for s in terrain.image_segments()
    ]
    lo, hi = min(ys), max(ys)
    span = hi - lo
    out = []
    for i in range(count):
        a = lo + span * (i / count)
        b = a + span / 7.0
        z = -5.0 + 20.0 * ((i * 37) % count) / count
        out.append((a, z, b, z + (i % 5) - 2.0))
    return out


class TestFingerprint:
    def test_stable_across_regeneration(self):
        assert terrain_fingerprint(_fractal()) == terrain_fingerprint(
            _fractal()
        )

    def test_distinguishes_terrains(self):
        assert terrain_fingerprint(_fractal(seed=1)) != terrain_fingerprint(
            _fractal(seed=2)
        )


class TestEnvelopeCache:
    def test_hit_miss_counters(self):
        cache = EnvelopeCache()
        assert cache.lookup(("k",)) is None
        cache.store(("k",), "env")
        assert cache.lookup(("k",)) == "env"
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_lru_eviction(self):
        cache = EnvelopeCache(maxsize=2)
        cache.store(("a",), 1)
        cache.store(("b",), 2)
        cache.lookup(("a",))  # refresh a
        cache.store(("c",), 3)  # evicts b
        assert cache.lookup(("b",)) is None
        assert cache.lookup(("a",)) == 1
        assert cache.lookup(("c",)) == 3


class TestSessionQueries:
    @pytest.fixture
    def terrain(self):
        return _fractal()

    def test_batch_matches_sequential(self, terrain):
        segs = _query_segments(terrain)
        seq = ViewshedSession(terrain, cache=EnvelopeCache())
        bat = ViewshedSession(terrain, cache=EnvelopeCache())
        one_by_one = [seq.query(s) for s in segs]
        batched = bat.query_batch(segs)
        assert len(batched) == len(one_by_one)
        for a, b in zip(batched, one_by_one):
            assert a.parts == b.parts
            assert a.ops == b.ops
        assert bat.stats["batches"] == 1
        assert bat.stats["batched_queries"] == len(segs)

    def test_python_engine_batch_parity(self, terrain):
        segs = _query_segments(terrain, count=20)
        py = ViewshedSession(
            terrain,
            config=HsrConfig(engine="python"),
            cache=EnvelopeCache(),
        )
        npx = ViewshedSession(terrain, cache=EnvelopeCache())
        for a, b in zip(py.query_batch(segs), npx.query_batch(segs)):
            assert a.parts == b.parts

    def test_empty_batch(self, terrain):
        session = ViewshedSession(terrain, cache=EnvelopeCache())
        assert session.query_batch([]) == []

    def test_cache_hit_on_identical_terrain(self):
        cache = EnvelopeCache()
        s1 = ViewshedSession(_fractal(), cache=cache)
        s1.envelope()
        s2 = ViewshedSession(_fractal(), cache=cache)  # regenerated
        s2.envelope()
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_cache_miss_on_different_eps(self):
        cache = EnvelopeCache()
        ViewshedSession(_fractal(), cache=cache).envelope()
        ViewshedSession(
            _fractal(), config=HsrConfig(eps=1e-6), cache=cache
        ).envelope()
        assert cache.stats()["misses"] == 2

    def test_point_queries_match_reference(self, terrain):
        from repro.hsr.queries import point_visible

        pts = [
            (float(x), float(y), float(z))
            for x in (2.0, 8.0)
            for y in (1.0, 5.0, 9.0)
            for z in (-10.0, 2.0, 50.0)
        ]
        session = ViewshedSession(terrain, cache=EnvelopeCache())
        batched = session.points_visible(pts)
        assert batched == [point_visible(terrain, p) for p in pts]
        assert any(batched) and not all(batched)


    def test_point_lanes_built_once_and_not_at_open(self, terrain, monkeypatch):
        from repro.hsr import queries

        built = []
        init = queries._PointLanes.__init__

        def spy(lanes, t):
            built.append(t)
            init(lanes, t)

        monkeypatch.setattr(queries._PointLanes, "__init__", spy)
        session = ViewshedSession(terrain, cache=EnvelopeCache())
        session.envelope()
        session.query_batch(_query_segments(terrain, count=4))
        assert built == []
        pts = [(2.0, 5.0, 50.0), (2.0, 5.0, -50.0), (8.0, 1.0, 2.0)]
        first = session.points_visible(pts)
        second = session.points_visible(pts[::-1])
        assert built == [terrain]
        assert second == first[::-1]


class TestVisibleManyParity:
    def test_numpy_matches_scalar(self):
        from repro.hsr.queries import point_visible, visible_many

        terrain = _fractal(seed=11)
        rng = np.random.default_rng(42)
        pts = [tuple(map(float, row)) for row in rng.uniform(-2, 12, (300, 3))]
        # on-surface observers too (exercise the eps boundary)
        pts += [(v.x, v.y, v.z) for v in terrain.vertices[:40]]
        vec = visible_many(terrain, pts)
        ref = [point_visible(terrain, p) for p in pts]
        py = visible_many(terrain, pts, config=HsrConfig(engine="python"))
        assert vec == ref == py


class TestServerCoalescing:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_concurrent_queries_coalesce(self):
        terrain = _fractal()
        segs = _query_segments(terrain, count=20)
        session = ViewshedSession(terrain, cache=EnvelopeCache())
        expected = [session.query(s) for s in segs]

        async def scenario():
            server = ViewshedServer(session, coalesce_ms=20.0)
            host, port = await server.start(port=0)

            async def client(seg):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    json.dumps({"op": "query", "segment": list(seg)}).encode()
                    + b"\n"
                )
                await writer.drain()
                resp = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return resp

            resps = await asyncio.gather(*(client(s) for s in segs))
            stats = server.stats
            await server.stop()
            return resps, stats

        resps, stats = self._run(scenario())
        for resp, exp in zip(resps, expected):
            assert resp["ok"]
            assert resp["parts"] == [[p.ya, p.yb] for p in exp.parts]
            assert resp["ops"] == exp.ops
        assert stats["coalesced"] == len(segs)
        assert stats["batches"] < len(segs)  # genuinely coalesced

    def test_request_ops(self):
        terrain = _fractal()
        session = ViewshedSession(terrain, cache=EnvelopeCache())

        async def scenario():
            server = ViewshedServer(session, coalesce_ms=0.0)
            await server.start(port=0)
            ping = await server.handle_request({"op": "ping"})
            stats = await server.handle_request({"op": "stats"})
            pts = await server.handle_request(
                {"op": "points", "points": [[2.0, 5.0, 50.0], [2.0, 5.0, -50.0]]}
            )
            bad_op = await server.handle_request({"op": "nope"})
            bad_seg = await server.handle_request(
                {"op": "query", "segment": [1.0]}
            )
            await server.stop()
            return ping, stats, pts, bad_op, bad_seg

        ping, stats, pts, bad_op, bad_seg = self._run(scenario())
        assert ping == {"ok": True, "pong": True}
        assert stats["ok"] and stats["terrain"] == session.fingerprint
        assert pts == {"ok": True, "visible": [True, False]}
        assert not bad_op["ok"] and "unknown op" in bad_op["error"]
        assert not bad_seg["ok"]

    def test_max_batch_splits_launches(self):
        terrain = _fractal()
        segs = _query_segments(terrain, count=12)
        session = ViewshedSession(terrain, cache=EnvelopeCache())

        async def scenario():
            server = ViewshedServer(session, max_batch=4, coalesce_ms=20.0)
            await server.start(port=0)
            results = await asyncio.gather(
                *(server._enqueue_query(s) for s in segs)
            )
            stats = dict(server.stats)
            await server.stop()
            return results, stats

        results, stats = self._run(scenario())
        assert len(results) == len(segs)
        assert stats["batches"] >= 3  # 12 queries / max_batch 4
        expected = [session.query(s) for s in segs]
        for got, exp in zip(results, expected):
            assert got.parts == exp.parts
