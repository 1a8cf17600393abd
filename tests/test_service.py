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
from repro.envelope import _ccore
from repro.envelope.visibility import visible_parts
from repro.reliability import faultinject as fi
from repro.reliability import guard
from repro.service import (
    EnvelopeCache,
    ViewshedServer,
    ViewshedSession,
    terrain_fingerprint,
)
from repro.service.session import as_query_segment

needs_ccore = pytest.mark.skipif(
    not _ccore.HAVE_CCORE,
    reason="optional compiled core not built in this environment",
)


@pytest.fixture
def no_ambient_plan(monkeypatch):
    """Run without an environment fault plan (the CI loop arms one for
    the whole session) and with guarded dispatch; both come back after
    the test."""
    monkeypatch.setattr(fi, "_PLAN", None)
    monkeypatch.setattr(fi, "ARMED", False)
    monkeypatch.setattr(guard, "GUARDED_DISPATCH", True)


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

    @pytest.mark.parametrize(
        "config,calls",
        [(None, [1, 1]), (HsrConfig(use_compiled_insert=False), [])],
        ids=["core", "core-off"],
    )
    def test_one_compiled_call_per_batch(
        self, terrain, config, calls, monkeypatch, no_ambient_plan
    ):
        if config is None and not _ccore.COMPILED_DEFAULT:
            pytest.skip("the compiled core is not on by default here")
        seen = []
        real = _ccore.query_batch
        monkeypatch.setattr(
            _ccore, "query_batch", lambda *a: seen.append(1) or real(*a)
        )
        segs = _query_segments(terrain, count=30)
        session = ViewshedSession(terrain, config=config, cache=EnvelopeCache())
        env = session.envelope()
        for half in (segs[:15], segs[15:]):
            got = session.query_batch(half)
            assert [repr(r) for r in got] == [
                repr(visible_parts(as_query_segment(s), env)) for s in half
            ]
        assert seen == calls

    @needs_ccore
    def test_raise_plan_answers_on_the_reference(
        self, terrain, monkeypatch, no_ambient_plan
    ):
        seen = []
        real = _ccore.query_batch
        monkeypatch.setattr(
            _ccore, "query_batch", lambda *a: seen.append(1) or real(*a)
        )
        segs = _query_segments(terrain)
        session = ViewshedSession(
            terrain,
            config=HsrConfig(use_compiled_insert=True),
            cache=EnvelopeCache(),
        )
        env = session.envelope()
        want = [repr(visible_parts(as_query_segment(s), env)) for s in segs]
        with guard.reliability_run() as report:
            with fi.inject("phase2_merge", "raise", nth=2) as plan:
                for _ in range(3):
                    got = session.query_batch(segs)
                    assert [repr(r) for r in got] == want
        assert plan.fired == 1
        assert report.sites["phase2_merge"].count == 1
        assert not report.sites["phase2_merge"].quarantined
        assert len(seen) == 2  # the faulted batch ran on the reference

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


    @pytest.mark.parametrize("engine", ["numpy", "python"])
    def test_point_lanes_built_once_and_not_at_open(self, terrain, monkeypatch, engine):
        from repro.hsr import queries

        built = []
        init = queries._PointLanes.__init__

        def spy(lanes, t, eng):
            built.append((t, eng))
            init(lanes, t, eng)

        monkeypatch.setattr(queries._PointLanes, "__init__", spy)
        session = ViewshedSession(
            terrain, config=HsrConfig(engine=engine), cache=EnvelopeCache()
        )
        session.envelope()
        session.query_batch(_query_segments(terrain, count=4))
        assert session.points_visible([]) == []
        assert built == []
        pts = [(2.0, 5.0, 50.0), (2.0, 5.0, -50.0), (8.0, 1.0, 2.0)]
        first = session.points_visible(pts)
        second = session.points_visible(pts[::-1])
        assert built == [(terrain, engine)]
        assert second == first[::-1]


_CORE_ON = HsrConfig(use_compiled_insert=True)

#: The configs a batch shape is checked under: the compiled core, the
#: numpy engine with the core off, and the python engine.
_BATCH_CONFIGS = [
    pytest.param(None, id="core"),
    pytest.param(HsrConfig(use_compiled_insert=False), id="core-off"),
    pytest.param(HsrConfig(engine="python"), id="python"),
]


def _batch_shapes(specs):
    """The query batch shapes :meth:`ViewshedSession.query_batch`
    accepts, each holding ``specs``."""
    segments = [as_query_segment(s) for s in specs]
    return {
        "tuples": list(specs),
        "segments": segments,
        "mixed": [
            (seg if i % 3 == 0 else list(spec) if i % 3 == 1 else tuple(spec))
            for i, (spec, seg) in enumerate(zip(specs, segments))
        ],
        "array": np.array(specs, dtype=np.float64),
    }


class TestQueryBatchShapes:
    """Every batch shape gives the records of per-query :meth:`query`
    calls, by ``repr`` (so ``-0.0`` and the record types count), and a
    malformed batch raises what a per-query normalisation raises."""

    @pytest.fixture
    def specs(self):
        specs = _query_segments(_fractal(), count=48)
        # Integer ordinates, a signed zero and a degenerate probe.
        specs[5] = tuple(int(round(v)) for v in specs[5])
        specs[7] = (specs[7][0], -0.0, specs[7][2], 0.0)
        specs[9] = (specs[9][0], 1.0, specs[9][0], 3.0)
        return specs

    @pytest.mark.parametrize("config", _BATCH_CONFIGS)
    @pytest.mark.parametrize("shape", ["tuples", "segments", "mixed", "array"])
    def test_shape_matches_per_query(self, specs, shape, config):
        session = ViewshedSession(_fractal(), config=config, cache=EnvelopeCache())
        want = [repr(session.query(s)) for s in specs]
        got = session.query_batch(_batch_shapes(specs)[shape])
        assert [repr(r) for r in got] == want
        assert session.stats["batched_queries"] == len(specs)

    @pytest.mark.parametrize("config", _BATCH_CONFIGS)
    @pytest.mark.parametrize(
        "batch", [[], (), np.empty((0, 4))], ids=["list", "tuple", "array"]
    )
    def test_empty_batch(self, batch, config):
        cache = EnvelopeCache()
        session = ViewshedSession(_fractal(), config=config, cache=cache)
        assert session.query_batch(batch) == []
        assert session.stats["batches"] == 1
        assert cache.stats()["misses"] == 0  # nothing built for nothing

    @pytest.mark.parametrize("config", _BATCH_CONFIGS)
    @pytest.mark.parametrize(
        "bad,exc",
        [
            ((0.0, 1.0, 2.0), ValueError),
            (None, TypeError),
            (("oops", 0.0, 1.0, 0.0), ValueError),
            ((0.0, None, 1.0, 0.0), TypeError),
            ((0.0, 1.0, 2.0, 3.0, 4.0), ValueError),
        ],
        ids=["three", "none", "string", "none-ordinate", "five"],
    )
    def test_malformed_batch_raises(self, specs, bad, exc, config):
        session = ViewshedSession(_fractal(), config=config, cache=EnvelopeCache())
        with pytest.raises(exc):
            as_query_segment(bad)
        for batch in ([bad] * 4, specs[:3] + [bad] + specs[3:]):
            with pytest.raises(exc):
                session.query_batch(batch)
        assert session.stats["batches"] == 0

    @pytest.mark.parametrize("config", _BATCH_CONFIGS)
    def test_all_malformed_rows_of_an_array_raise(self, config):
        session = ViewshedSession(_fractal(), config=config, cache=EnvelopeCache())
        with pytest.raises(ValueError):
            session.query_batch(np.zeros((4, 3)))


class TestHorizonBlock:
    """A numpy-engine session builds its horizon as the ``(5, n)``
    block alone (no crossings) and answers batches against it."""

    @needs_ccore
    def test_open_makes_one_build_call_and_batches_reuse_its_block(
        self, monkeypatch, no_ambient_plan
    ):
        from repro.envelope import flat_visibility

        calls = []
        real = _ccore.envelope_build
        monkeypatch.setattr(
            _ccore, "envelope_build", lambda *a: calls.append(1) or real(*a)
        )
        session = ViewshedSession(_fractal(), config=_CORE_ON, cache=EnvelopeCache())
        session.envelope()
        assert len(calls) == 1
        packed = []
        real_pack = flat_visibility.envelope_block
        monkeypatch.setattr(
            flat_visibility,
            "envelope_block",
            lambda env: packed.append(type(env)) or real_pack(env),
        )
        session.query_batch(_query_segments(_fractal(), count=8))
        assert packed == [np.ndarray]  # the kept block, not a re-pack

    @needs_ccore
    def test_build_fault_reruns_the_reference(self, no_ambient_plan):
        from repro.envelope.build import build_envelope

        terrain = _fractal()
        specs = _query_segments(terrain)
        want_env = build_envelope(terrain.image_segments(), engine="python")
        want = ViewshedSession(
            terrain, config=_CORE_ON, cache=EnvelopeCache()
        ).query_batch(specs)
        session = ViewshedSession(terrain, config=_CORE_ON, cache=EnvelopeCache())
        with guard.reliability_run() as report:
            with fi.inject("build_sweep", "raise", nth=1) as plan:
                env = session.envelope()
        assert plan.fired == 1
        assert report.sites["build_sweep"].count == 1
        assert repr(env.pieces) == repr(want_env.envelope.pieces)
        assert repr(session.query_batch(specs)) == repr(want)

    @pytest.mark.parametrize("config", _BATCH_CONFIGS)
    def test_cache_hit_answers_as_the_build(self, config):
        cache = EnvelopeCache()
        specs = _query_segments(_fractal())
        built = ViewshedSession(_fractal(), config=config, cache=cache)
        want = repr(built.query_batch(specs))
        hit = ViewshedSession(_fractal(), config=config, cache=cache)
        assert repr(hit.query_batch(specs)) == want
        assert repr(hit.envelope().pieces) == repr(built.envelope().pieces)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}


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

    def test_malformed_query_fails_alone(self):
        terrain = _fractal()
        segs = _query_segments(terrain, count=2)
        session = ViewshedSession(terrain, cache=EnvelopeCache())
        expected = session.query(segs[0])

        async def scenario():
            server = ViewshedServer(session, coalesce_ms=20.0)
            await server.start(port=0)
            resps = await asyncio.gather(
                server.handle_request({"op": "query", "segment": list(segs[0])}),
                server.handle_request(
                    {"op": "query", "segment": ["oops", 0, 1, 0]}
                ),
                server.handle_request({"op": "query", "segment": [1, 2, 3, [4]]}),
                server.handle_request({"op": "query", "segment": list(segs[1])}),
            )
            stats = dict(server.stats)
            await server.stop()
            return resps, stats

        (good, bad, nested, other), stats = self._run(scenario())
        assert good == {
            "ok": True,
            "parts": [[p.ya, p.yb] for p in expected.parts],
            "ops": expected.ops,
        }
        assert other["ok"]
        assert not bad["ok"] and "oops" in bad["error"]
        assert not nested["ok"]
        assert stats["coalesced"] == 2  # the malformed ones never queued

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
