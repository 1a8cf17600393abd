"""The traced run: per-layer times and counts, measured from outside.

Each layer is timed around a call to its public function on every
fourth frame of the workload (2 of the 8 azimuths, which keeps a
traced run of a fractal-65 workload under a minute), in the order a whole run would
reach it; the program itself carries no instrumentation.  Times are
medians over those calls in ms (one call per frame, or per batch for
the two query kernels); counts are means per frame.  The decomposition
is the same for every workload, so each traced run reports every
layer; ``trace.coverage`` then divides the sum of the layers a
workload's request passes through by its untraced wall-clock median.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.config import HsrConfig
from repro.envelope import build_envelope
from repro.envelope.flat import FlatEnvelope
from repro.envelope.flat_visibility import batch_visible_parts
from repro.hsr import (
    ParallelHSR,
    SequentialHSR,
    VisibilityMap,
    build_pct,
    run_phase2,
)
from repro.hsr.queries import visible_many
from repro.ordering import SeparatorTree, front_to_back_order, order_constraints
from repro.pram.tracker import PramTracker
from repro.reliability import reliability_run
from repro.service import EnvelopeCache, ViewshedSession, terrain_fingerprint
from repro.service.session import as_query_segment

from inputs import N_FRAMES, SERVICE, SIZES, Inputs, make_inputs
from workloads import percentile

TIMES = (
    "terrain.image_segments_ms",
    "terrain.map_segments_ms",
    "ordering.order_ms",
    "envelope.insert_ms",
    "pct.build_ms",
    "phase2.direct_ms",
    "phase2.persistent_ms",
    "hsr.assemble_ms",
    "envelope.build_ms",
    "envelope.flat_convert_ms",
    "service.fingerprint_ms",
    "envelope.batch_visibility_ms",
    "query.visible_many_ms",
)
COUNTS = (
    "ordering.constraints",
    "envelope.insert_ops",
    "envelope.max_profile",
    "pct.ops",
    "pct.pieces",
    "phase2.direct_ops",
    "phase2.pieces_materialised",
    "phase2.nodes_allocated",
    "phase2.crossings",
    "hsr.k",
    "service.cache_hits",
    "service.cache_misses",
    "pram.work",
    "pram.depth",
    "reliability.incidents",
)
NAMES = TIMES + COUNTS + ("trace.coverage",)


class _Clock:
    """Collects ``name -> [ms]`` around timed calls."""

    def __init__(self) -> None:
        self.ms: dict = {name: [] for name in TIMES}

    def __call__(self, name: str, fn):
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        self.ms[name].append((time.perf_counter() - t0) * 1e3)
        return out


def _trace_frame(frame, sightlines, observers, clock: _Clock, counts: dict) -> None:
    cfg = HsrConfig()
    segs = clock("terrain.image_segments_ms", frame.image_segments)
    msegs = clock("terrain.map_segments_ms", frame.map_segments)
    order = clock(
        "ordering.order_ms", lambda: front_to_back_order(frame, segments=msegs)
    )
    counts["ordering.constraints"].append(len(order_constraints(msegs)))

    seq = SequentialHSR(config=cfg)
    clock("envelope.insert_ms", lambda: seq.final_profile(frame, order=order))
    res = seq.run(frame, order=order)
    counts["envelope.insert_ops"].append(res.stats.ops)
    counts["envelope.max_profile"].append(res.stats.extra["max_profile_size"])

    tree = SeparatorTree(order)
    for mode in ("direct", "persistent"):
        # A fresh PCT per mode: Phase 2 caches materialised profiles on it.
        pct = clock(
            "pct.build_ms",
            lambda: build_pct(tree, segs, eps=cfg.eps, engine=cfg.engine, config=cfg),
        )
        ph2 = clock(
            f"phase2.{mode}_ms",
            lambda: run_phase2(
                pct, segs, mode=mode, eps=cfg.eps, engine=cfg.engine, config=cfg
            ),
        )
        if mode == "direct":
            counts["pct.ops"].append(pct.ops)
            counts["pct.pieces"].append(pct.total_profile_pieces())
            counts["phase2.direct_ops"].append(ph2.ops)
            counts["phase2.pieces_materialised"].append(ph2.pieces_materialised)
        else:
            counts["phase2.nodes_allocated"].append(ph2.nodes_allocated)
            counts["phase2.crossings"].append(ph2.crossings)

    def assemble():
        vmap = VisibilityMap()
        for edge in order:
            vmap.add_edge_result(edge, segs[edge], ph2.visibility[edge])
        return vmap.k

    counts["hsr.k"].append(clock("hsr.assemble_ms", assemble))

    clock("service.fingerprint_ms", lambda: terrain_fingerprint(frame))
    env = clock(
        "envelope.build_ms", lambda: build_envelope(segs, config=cfg).envelope
    )
    flat = clock("envelope.flat_convert_ms", lambda: FlatEnvelope.from_envelope(env))
    for batch in sightlines:
        probes = [as_query_segment(s) for s in batch]
        clock(
            "envelope.batch_visibility_ms",
            lambda: batch_visible_parts(flat, probes, eps=cfg.eps).results(),
        )
    for batch in observers:
        clock("query.visible_many_ms", lambda: visible_many(frame, batch, config=cfg))
    cache = EnvelopeCache()
    ViewshedSession(frame, config=cfg, cache=cache).envelope()
    stats = cache.stats()
    counts["service.cache_hits"].append(stats["hits"])
    counts["service.cache_misses"].append(stats["misses"])

    tracker = PramTracker()
    ParallelHSR(config=cfg).run(frame, tracker=tracker)
    counts["pram.work"].append(tracker.work)
    counts["pram.depth"].append(tracker.depth)


def trace_layers(workload: str, inputs: Inputs, seed: int, size, tally) -> dict:
    """Per-layer metrics for ``workload``; ``tally`` is the untraced run
    whose medians ``trace.coverage`` divides by."""
    queries = inputs
    if not queries.sightlines:
        # Terrain workloads carry no queries; borrow the service's
        # generator on the same seed and size (so the same frames) so
        # the query kernels are still timed.
        queries = make_inputs(SERVICE[0], seed, size or SIZES[workload])
    clock = _Clock()
    counts: dict = {name: [] for name in COUNTS}
    with reliability_run() as report:
        for f in range(0, N_FRAMES, 4):
            _trace_frame(
                inputs.frames[f],
                queries.sightlines[f],
                queries.observers[f],
                clock,
                counts,
            )
    counts["reliability.incidents"] = [report.faults + tally.incidents]

    out = {name: statistics.median(clock.ms[name]) for name in TIMES}
    out.update({name: statistics.fmean(counts[name]) for name in COUNTS})
    out["trace.coverage"] = _coverage(workload, out, tally)
    return out


def _coverage(workload: str, layer: dict, tally) -> float:
    """Sum of the layers one request passes through over the request's
    untraced median (wall clock, as the layers are timed)."""
    p50 = percentile(tally.raw, 50) * 1e3
    common = layer["terrain.map_segments_ms"] + layer["ordering.order_ms"]
    if workload == "sequential-flyover":
        # SequentialHSR projects edges inside its insert loop.
        covered = common + layer["envelope.insert_ms"] + layer["hsr.assemble_ms"]
    elif workload.startswith("paper-"):
        mode = workload.split("-", 1)[1]
        covered = (
            common
            + layer["terrain.image_segments_ms"]
            + layer["pct.build_ms"]
            + layer[f"phase2.{mode}_ms"]
            + layer["hsr.assemble_ms"]
        )
    elif workload == "viewshed-open":
        covered = (
            layer["service.fingerprint_ms"]
            + layer["terrain.image_segments_ms"]
            + layer["envelope.build_ms"]
        )
    elif workload == "viewshed-sightlines":
        covered = layer["envelope.batch_visibility_ms"]
    else:
        covered = layer["query.visible_many_ms"]
    return covered / p50
