"""Multi-core execution of the divide-and-conquer envelope build.

:func:`build_envelope_parallel` splits the build at the reference
recursion's own ``mid = (lo + hi) // 2`` boundaries: the top
``log2(chunks)`` tree levels stay in the parent, every subtree below
them builds in a worker process
(:func:`repro.envelope.flat.build_envelope_flat` on its contiguous
segment range — the relative splits coincide with the global ones
because ``(2·lo + n) // 2 == lo + n // 2``), and the parent merges the
chunk envelopes up with
:func:`~repro.envelope.flat.merge_envelopes_flat`.  Crossings
concatenate in the reference post-order (left subtree, right subtree,
node), and ``ops`` telescopes to leaf charges plus every merge's
elementary-interval count — the exact
:func:`~repro.envelope.build.build_envelope` contract, bit-exact with
the in-process engines.

The PCT layer merges of :class:`~repro.hsr.parallel.ParallelHSR` stay
in-process: each layer is one compiled call (or the reference merges
without the core), too short for the fork-and-ship round trip to pay
off.

Inputs ride :mod:`multiprocessing.shared_memory` blocks
(:class:`~repro.parallel_exec.shm.ShmBundle`): the flat SoA arrays are
written once and workers map the same pages, so per-task pickling is
limited to a block name, a few ints, and the (small) result metadata.
Workers are a lazily-created, process-wide ``fork``-context pool —
forked children inherit the already-imported numpy and repro modules,
making warm dispatch latency sub-millisecond.

Failure model (the PR-6 guard-site pattern, site ``parallel_exec``):
*unavailability* — no ``fork`` start method, pool creation failure, or
an input below the IPC-amortisation floor — declines silently and the
caller's in-process path runs; a *worker fault* mid-task is recorded
via :func:`repro.reliability.guard.handle_fault` (strict mode raises
:class:`~repro.errors.KernelFault`; guarded mode falls back bit-exact,
and the circuit breaker quarantines the site after repeated faults).
``REPRO_FAULT_INJECT=parallel_exec:raise:N`` exercises the whole
recovery path in tests.
"""

from __future__ import annotations

import atexit
import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence

import numpy as np

from repro.errors import KernelFault
from repro.geometry.primitives import EPS
from repro.geometry.segments import ImageSegment
from repro.parallel_exec.shm import ShmBundle
from repro.reliability import faultinject as _fi
from repro.reliability import guard as _guard

__all__ = [
    "available_workers",
    "build_envelope_parallel",
    "maybe_build_envelope",
    "shutdown",
    "parallel_stats",
    "reset_stats",
    "PARALLEL_BUILD_MIN_SEGMENTS",
]

_F = np.float64

SITE = "parallel_exec"

#: Below this input size the in-process build wins outright (pool
#: dispatch + page mapping cost ~100µs per level); measured on the E9
#: build workload, see ``docs/BENCHMARKS.md``.  Overridable per run via
#: :class:`repro.config.HsrConfig` (tests set it to 0).
PARALLEL_BUILD_MIN_SEGMENTS: int = 2048

#: Observability counters (reset with :func:`reset_stats`): how often
#: the pool engaged, declined, or faulted — the parity tests assert the
#: parallel path actually executed rather than silently falling back.
parallel_stats: dict[str, int] = {
    "builds": 0,
    "chunks": 0,
    "declined": 0,
    "faults": 0,
}


def reset_stats() -> None:
    for key in parallel_stats:
        parallel_stats[key] = 0


def available_workers() -> int:
    """Worker count honouring ``REPRO_WORKERS`` (default: the CPUs this
    process may schedule on).

    The one environment override the config redesign retains,
    because "how many cores may I use" is a deployment property, not
    an algorithm parameter.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- pool lifecycle ----------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0


def _get_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """The process-wide fork pool, grown on demand; ``None`` when real
    workers are unavailable on this platform."""
    global _pool, _pool_workers
    if _pool is not None and _pool_workers >= workers:
        return _pool
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():  # pragma: no cover
        return None
    try:
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=mp.get_context("fork")
        )
    except Exception:  # pragma: no cover - resource exhaustion
        return None
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
    _pool = pool
    _pool_workers = workers
    return _pool


def shutdown() -> None:
    """Tear down the worker pool (idempotent; a later dispatch simply
    re-creates it)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_workers = 0


atexit.register(shutdown)


# -- worker tasks (module level: picklable by reference) ---------------

def _build_chunk_task(args: tuple) -> tuple:
    """Worker: build the envelope of one contiguous segment chunk.

    Returns ``(bundle_name, bundle_spec, crossings, ops)`` — the chunk
    envelope rides a worker-created shared-memory block (the parent
    attaches and unlinks it), crossings (already in the chunk subtree's
    post-order) and the scalar ops total ride the result pickle.
    """
    name, spec, lo, hi, eps, record = args
    from repro.envelope.flat import _postorder_index, build_envelope_flat

    bundle = ShmBundle.attach(name, spec)
    try:
        rows = bundle["segments"][lo:hi].tolist()
    finally:
        bundle.close()
    segs = [
        ImageSegment(r[0], r[1], r[2], r[3], int(r[4])) for r in rows
    ]
    fb = build_envelope_flat(segs, eps=eps, record_crossings=record)
    env = fb.envelope
    out = ShmBundle.create(
        {
            "ya": env.ya,
            "za": env.za,
            "yb": env.yb,
            "zb": env.zb,
            "source": env.source,
        }
    )
    out_name, out_spec = out.name, out.spec
    out.close()  # keep the block; the parent unlinks it
    if record:
        order = _postorder_index(fb.n_segments)
        crossings = fb.collect_crossings(
            sorted(fb.node_crossings, key=order.__getitem__)
        )
    else:
        crossings = []
    return (out_name, out_spec, crossings, fb.n_segments + fb.total_merge_ops)


# -- parallel D&C build ------------------------------------------------


def _chunk_bounds(lo: int, hi: int, depth: int) -> list[tuple[int, int]]:
    """Leaf ranges of the top ``depth`` levels of the reference
    recursion (split at ``(lo + hi) // 2``, exactly)."""
    if depth == 0:
        return [(lo, hi)]
    mid = (lo + hi) // 2
    return _chunk_bounds(lo, mid, depth - 1) + _chunk_bounds(
        mid, hi, depth - 1
    )


def build_envelope_parallel(
    segments: Sequence[ImageSegment],
    *,
    eps: float = EPS,
    workers: int,
    record_crossings: bool = True,
    min_segments: Optional[int] = None,
) -> Optional[tuple]:
    """Multi-core upper-envelope build; see the module docstring.

    Returns ``(FlatEnvelope, crossings, total_ops)`` — bit-exact with
    :func:`repro.envelope.build.build_envelope` — or ``None`` when the
    pool is unavailable or the input is below the IPC floor (the caller
    runs its in-process path).  Worker exceptions propagate; wrap via
    :func:`maybe_build_envelope` for the guarded front door.
    """
    from repro.envelope.flat import (
        FlatEnvelope,
        _tuples_to_matrix,
        merge_envelopes_flat,
    )

    floor = (
        PARALLEL_BUILD_MIN_SEGMENTS if min_segments is None else min_segments
    )
    all_mat = (
        _tuples_to_matrix(segments)
        if len(segments)
        else np.empty((0, 5), _F)
    )
    seg_mat = np.ascontiguousarray(all_mat[all_mat[:, 0] != all_mat[:, 2]])
    m = len(seg_mat)
    if workers < 2 or m < max(floor, 8):
        parallel_stats["declined"] += 1
        return None
    depth = max(1, math.ceil(math.log2(min(workers, m // 2))))
    while (1 << depth) * 2 > m:  # every chunk keeps >= 2 segments
        depth -= 1
    if depth < 1:
        parallel_stats["declined"] += 1
        return None
    pool = _get_pool(min(workers, 1 << depth))
    if pool is None:  # pragma: no cover - platform without fork
        parallel_stats["declined"] += 1
        return None

    bounds = _chunk_bounds(0, m, depth)
    bundle = ShmBundle.create({"segments": seg_mat})
    try:
        futures = [
            pool.submit(
                _build_chunk_task,
                (bundle.name, bundle.spec, lo, hi, eps, record_crossings),
            )
            for lo, hi in bounds
        ]
        results = [f.result() for f in futures]
    finally:
        bundle.unlink()

    chunk_envs: dict[tuple[int, int], tuple] = {}
    child_bundles = []
    try:
        for (lo, hi), (out_name, out_spec, crossings, ops) in zip(
            bounds, results
        ):
            child = ShmBundle.attach(out_name, out_spec)
            child_bundles.append(child)
            env = FlatEnvelope(
                child["ya"],
                child["za"],
                child["yb"],
                child["zb"],
                child["source"],
            )
            chunk_envs[(lo, hi)] = (env, crossings, ops)

        def assemble(lo: int, hi: int, d: int) -> tuple:
            if d == 0:
                return chunk_envs[(lo, hi)]
            mid = (lo + hi) // 2
            env_l, cross_l, ops_l = assemble(lo, mid, d - 1)
            env_r, cross_r, ops_r = assemble(mid, hi, d - 1)
            res = merge_envelopes_flat(
                env_l, env_r, eps=eps, record_crossings=record_crossings
            )
            return (
                res.envelope,
                cross_l + cross_r + res.crossings,
                ops_l + ops_r + res.ops,
            )

        # Non-empty chunks make every top merge allocate fresh output
        # arrays, so the final envelope never aliases worker memory.
        env, crossings, total_ops = assemble(0, m, depth)
    finally:
        for child in child_bundles:
            child.unlink()

    parallel_stats["builds"] += 1
    parallel_stats["chunks"] += len(bounds)
    return env, crossings, total_ops


# -- guarded front doors ----------------------------------------------


def maybe_build_envelope(
    segments: Sequence[ImageSegment], *, eps: float, config
) -> Optional[tuple]:
    """Guard-site wrapper around :func:`build_envelope_parallel` for
    :func:`repro.envelope.build.build_envelope`: ``None`` means "use
    the in-process path" (declined, quarantined, or a recorded worker
    fault in guarded mode)."""
    workers = config.resolved_workers()
    if workers < 2:
        return None
    if _guard.GUARDS_ENABLED and (
        _guard.ANY_QUARANTINED and _guard.is_quarantined(SITE)
    ):
        return None
    try:
        if _fi.ARMED:
            _fi.trip(SITE)
        res = build_envelope_parallel(
            segments,
            eps=eps,
            workers=workers,
            record_crossings=True,
            min_segments=config.parallel_min_segments,
        )
        if res is not None and _guard.GUARDS_ENABLED:
            env = res[0]
            if _fi.ARMED:
                env = _fi.corrupt_flat(SITE, env)
                res = (env, res[1], res[2])
            _guard.check_flat(SITE, env.ya, env.za, env.yb, env.zb)
        return res
    except KernelFault:
        raise
    except Exception as exc:
        if not _guard.GUARDS_ENABLED:
            raise
        _guard.handle_fault(SITE, exc)
        parallel_stats["faults"] += 1
        return None

