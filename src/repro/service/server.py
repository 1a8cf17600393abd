"""Stdlib-asyncio viewshed query server with request coalescing.

JSON-lines over TCP: one request object per line, one response object
per line, matched in order per connection.  Requests:

``{"op": "query", "segment": [y1, z1, y2, z2]}``
    Visible parts of one segment against the terrain horizon →
    ``{"ok": true, "parts": [[ya, yb], ...], "ops": N}``.
``{"op": "points", "points": [[x, y, z], ...]}``
    Observer-point visibility → ``{"ok": true, "visible": [...]}``.
``{"op": "stats"}``
    Session/cache/coalescing counters.
``{"op": "ping"}``
    Liveness → ``{"ok": true, "pong": true}``.

Coalescing: every ``query`` lands in an asyncio queue; a single
batcher task drains whatever is queued (up to ``max_batch``, after a
``coalesce_ms`` gathering window) and answers the whole batch with
**one** :meth:`~repro.service.session.ViewshedSession.query_batch`
call.  Under concurrent load this turns N per-request scans into one
compiled call — the ``service-qps`` benchmark row measures the
multiple — while staying bit-exact per query.  ``points``
requests are already batches and run directly.

A ``query`` segment is normalised to floats when its request
arrives, so a malformed one is answered ``{"ok": false, "error":
...}`` on its own and never joins a batch.

The compute itself is synchronous (a batch is one compiled call, or
the scalar loop); the event loop's job here is coalescing and
connection plumbing, not parallelism.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.service.session import ViewshedSession, as_query_segment

__all__ = ["ViewshedServer", "serve"]


class ViewshedServer:
    """Asyncio front end over one :class:`ViewshedSession`.

    Parameters
    ----------
    session:
        The synchronous query core (terrain + config + cache).
    max_batch:
        Upper bound on coalesced queries per batch.
    coalesce_ms:
        Gathering window after the first queued query; ``0`` drains
        only what is already queued (lowest latency, still coalesces
        whatever arrived while the previous batch computed).
    """

    def __init__(
        self,
        session: ViewshedSession,
        *,
        max_batch: int = 256,
        coalesce_ms: float = 1.0,
    ):
        self.session = session
        self.max_batch = max_batch
        self.coalesce_ms = coalesce_ms
        self.stats = {"requests": 0, "batches": 0, "coalesced": 0}
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.AbstractServer] = None

    # -- coalescing core ----------------------------------------------

    async def _batcher_loop(self) -> None:
        assert self._queue is not None
        while True:
            first = await self._queue.get()
            if self.coalesce_ms > 0:
                await asyncio.sleep(self.coalesce_ms / 1000.0)
            batch = [first]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            futures = [f for f, _seg in batch]
            segs = [seg for _f, seg in batch]
            self.stats["batches"] += 1
            self.stats["coalesced"] += len(batch)
            try:
                results = self.session.query_batch(segs)
            except Exception as exc:  # answer every waiter, keep serving
                for fut in futures:
                    if not fut.done():
                        fut.set_exception(RuntimeError(str(exc)))
                continue
            for fut, res in zip(futures, results):
                if not fut.done():
                    fut.set_result(res)

    async def _enqueue_query(self, segment) -> "object":
        assert self._queue is not None
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put((fut, segment))
        return await fut

    # -- request handling ---------------------------------------------

    async def handle_request(self, req: dict) -> dict:
        self.stats["requests"] += 1
        op = req.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "stats":
            return {
                "ok": True,
                "server": dict(self.stats),
                "session": dict(self.session.stats),
                "cache": self.session.cache.stats(),
                "terrain": self.session.fingerprint,
            }
        if op == "query":
            # Normalise before queueing: a malformed segment fails its
            # own request, never the batch it would have joined.
            seg = req.get("segment")
            try:
                if not isinstance(seg, (list, tuple)) or len(seg) != 4:
                    raise ValueError("not a list of 4 numbers")
                seg = as_query_segment(seg)
            except (TypeError, ValueError, OverflowError) as exc:
                return {"ok": False, "error": f"segment must be [y1,z1,y2,z2]: {exc}"}
            vis = await self._enqueue_query(seg)
            return {
                "ok": True,
                "parts": [[p.ya, p.yb] for p in vis.parts],
                "ops": vis.ops,
            }
        if op == "points":
            pts = req.get("points")
            if not isinstance(pts, list):
                return {"ok": False, "error": "points must be a list"}
            visible = self.session.points_visible(pts)
            return {"ok": True, "visible": visible}
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    req = json.loads(line)
                    resp = await self.handle_request(req)
                except Exception as exc:
                    resp = {"ok": False, "error": str(exc)}
                writer.write(json.dumps(resp).encode() + b"\n")
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    # -- lifecycle ----------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``
        (``port=0`` picks a free one — handy for tests)."""
        self._queue = asyncio.Queue()
        self._batcher = asyncio.create_task(self._batcher_loop())
        self.session.envelope()  # build/warm before accepting traffic
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()


async def serve(
    session: ViewshedSession,
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    max_batch: int = 256,
    coalesce_ms: float = 1.0,
) -> None:
    """Convenience runner: start a :class:`ViewshedServer` and serve
    until cancelled (the ``repro serve`` CLI entry point)."""
    server = ViewshedServer(
        session, max_batch=max_batch, coalesce_ms=coalesce_ms
    )
    bound_host, bound_port = await server.start(host, port)
    print(
        f"viewshed service on {bound_host}:{bound_port}"
        f" (terrain {session.fingerprint[:12]},"
        f" engine {session.config.resolved_engine()})",
        flush=True,
    )
    try:
        await server.serve_forever()
    finally:
        await server.stop()
