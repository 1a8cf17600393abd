"""``bench envelope`` — python-vs-numpy kernel comparison.

Times both envelope engines on E9-style workloads (random segment
sets, the Lemma 3.1 construction, batched ``visible_parts`` queries,
the sequential insert pass, Phase 2 and the service) and writes the
rows to ``BENCH_envelope.json`` so later PRs have a perf trajectory
to compare against.

Row kinds (all share the six columns; ``python_ms``/``numpy_ms`` name
the two timed variants):

``build``
    ``build_envelope`` python engine vs numpy engine (one compiled
    call per recursion level when the core is built, else the same
    reference recursion).
``visibility``
    ``visible_parts`` of ``m`` query segments against the profile of
    ``m`` segments: scalar per-query loop (``python_ms``) vs one
    :func:`~repro.envelope.flat_visibility.batch_visible_parts` call
    (one compiled call when the core is built, else the same scalar
    loop) *including* materialisation back to scalar-API results
    (``numpy_ms``).
``sequential``
    A full front-to-back insert pass (the SequentialHSR inner loop)
    over a churny wide-strip workload whose profile size grows with
    ``m`` — the regime where the tuple splice pays Θ(profile) copying
    per edge.  ``python_ms`` = the ``engine="python"`` reference loop;
    ``numpy_ms`` = the shipped run loop
    :func:`~repro.envelope.flat_splice.insert_run` over
    :func:`~repro.envelope.flat_splice.segment_lanes` (the compiled
    core when built, else the reference insert per edge).
``sequential-guard-ablation`` / ``sequential-guard-ablation-wide``
    The shipped run loop with the reliability guards off
    (``python_ms`` column) vs on (``numpy_ms`` column).
``service-qps``
    ``m`` viewshed queries through the service façade: sequential
    :meth:`~repro.service.ViewshedSession.query` calls (``python_ms``
    column) vs one coalesced
    :meth:`~repro.service.ViewshedSession.query_batch` launch
    (``numpy_ms`` column) against the same cached horizon.
``phase2-rope``
    Phase 2 over a PCT built from the E9 segments: ``python_ms`` =
    ``mode="persistent"`` (the chunked-rope store), ``numpy_ms`` =
    ``mode="direct"`` on the numpy engine (one compiled call per
    layer when the core is built).  The speedup column reads "how much
    persistence costs".

Engines are timed interleaved (python, numpy, python, ...) and the
per-engine minimum is reported, which keeps the ratio honest on
machines with frequency scaling.
"""

from __future__ import annotations

import gc
import json
import platform
import random
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.bench.harness import Table
from repro.envelope.build import build_envelope
from repro.envelope.chain import Envelope
from repro.envelope.engine import HAVE_NUMPY
from repro.envelope.visibility import visible_parts

__all__ = ["run_envelope_bench", "DEFAULT_OUTPUT"]

DEFAULT_OUTPUT = Path("BENCH_envelope.json")


# The workload families live in repro.scenarios.instances now (the
# declarative scenario matrix is the single source of truth); these
# aliases keep the historical private names and seeds (17 / 29) so
# every recorded row stays reproducible bit-for-bit.
from repro.scenarios.instances import (  # noqa: E402
    e9_segments as _e9_segments,
    wide_strip_segments as _seq_segments,
)


def _time_interleaved(fns: dict[str, "object"], repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` seconds per labelled callable, interleaved."""
    best: dict[str, float] = {label: float("inf") for label in fns}
    for _ in range(repeats):
        for label, fn in fns.items():
            # An allocation-heavy variant leaves the cyclic-GC
            # generation counters primed; without a reset the *next* variant pays
            # its full collections inside the timed region (measured
            # 2.5-10x inflation on the direct column).  Collect
            # outside the clock so each variant starts clean.
            gc.collect()
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            if dt < best[label]:
                best[label] = dt
    return best


def run_envelope_bench(
    *,
    quick: bool = True,
    repeats: Optional[int] = None,
    ms: Optional[Sequence[int]] = None,
    output: Optional[Path] = DEFAULT_OUTPUT,
) -> Table:
    """Compare the envelope kernels; optionally record JSON.

    Pass ``output=None`` to skip writing ``BENCH_envelope.json``.
    """
    if ms is None:
        ms = (256, 1024, 2048) if quick else (256, 1024, 2048, 4096, 8192)
    if repeats is None:
        repeats = 5 if quick else 9

    t = Table(
        "envelope",
        "build_envelope kernel comparison (E9 workload family)",
        ["workload", "m", "env_size", "python_ms", "numpy_ms", "speedup"],
    )
    rows: list[dict] = []

    # Phase-2 persistent-vs-direct, recorded FIRST so the row matches a
    # fresh process: late in the pipeline the direct column inflates
    # 40-70% (allocator/GC state accumulated by fifty earlier rows
    # hits its large per-layer temporaries harder than the rope's
    # small chunk commits), which once flipped the recorded rope ratio
    # below 1.0.
    if HAVE_NUMPY:
        from repro.hsr.pct import build_pct
        from repro.hsr.phase2 import run_phase2
        from repro.ordering.separator import SeparatorTree

        m_p2 = max(ms)
        p2_segs = _e9_segments(m_p2)
        p2_tree = SeparatorTree(list(range(m_p2)))
        pct = build_pct(p2_tree, p2_segs, engine="numpy")
        p2_repeats = max(1, repeats // 3)
        best = _time_interleaved(
            {
                "rope": lambda: run_phase2(pct, p2_segs, mode="persistent"),
                "direct": lambda: run_phase2(
                    pct, p2_segs, mode="direct", engine="numpy"
                ),
            },
            p2_repeats,
        )
        rows.append(
            dict(
                workload="phase2-rope",
                m=m_p2,
                env_size=pct.total_profile_pieces(),
                python_ms=best["rope"] * 1e3,
                numpy_ms=best["direct"] * 1e3,
                speedup=best["rope"] / best["direct"],
            )
        )
        t.add(**rows[-1])
        del pct, p2_segs, p2_tree

    for m in ms:
        segs = _e9_segments(m)
        env_size = build_envelope(segs, engine="python").envelope.size
        if HAVE_NUMPY:
            best = _time_interleaved(
                {
                    "python": lambda: build_envelope(segs, engine="python"),
                    "numpy": lambda: build_envelope(segs, engine="numpy"),
                },
                repeats,
            )
            speedup = best["python"] / best["numpy"]
            numpy_ms: Optional[float] = best["numpy"] * 1e3
        else:  # pragma: no cover - numpy ships in the toolchain
            best = _time_interleaved(
                {"python": lambda: build_envelope(segs, engine="python")},
                repeats,
            )
            numpy_ms = None
            speedup = None  # keep the JSON strict-parseable
        row = dict(
            workload="build",
            m=m,
            env_size=env_size,
            python_ms=best["python"] * 1e3,
            numpy_ms=numpy_ms,
            speedup=speedup,
        )
        rows.append(row)
        t.add(**row)

    # Batched visibility: m queries against the profile of m segments.
    for m in ms:
        segs = _e9_segments(m)
        env = build_envelope(segs, engine="python").envelope
        queries = _e9_segments(m, seed=101)

        def scalar_vis(env=env, queries=queries):
            for q in queries:
                visible_parts(q, env)

        if HAVE_NUMPY:
            from repro.envelope.flat import FlatEnvelope
            from repro.envelope.flat_visibility import (
                batch_visible_parts,
            )

            fenv = FlatEnvelope.from_envelope(env)

            def batched_vis(fenv=fenv, queries=queries):
                batch_visible_parts(fenv, queries).results()

            best = _time_interleaved(
                {"python": scalar_vis, "numpy": batched_vis}, repeats
            )
            numpy_ms = best["numpy"] * 1e3
            speedup = best["python"] / best["numpy"]
        else:  # pragma: no cover - numpy ships in the toolchain
            best = _time_interleaved({"python": scalar_vis}, repeats)
            numpy_ms = None
            speedup = None  # keep the JSON strict-parseable
        row = dict(
            workload="visibility",
            m=m,
            env_size=env.size,
            python_ms=best["python"] * 1e3,
            numpy_ms=numpy_ms,
            speedup=speedup,
        )
        rows.append(row)
        t.add(**row)

    # Sequential insert loops on the churny wide-strip family: the
    # python engine vs the shipped run loop.  Heavier per repeat than
    # the kernel rows (the python tuple path is the quadratic regime
    # being measured), so fewer repeats.
    seq_repeats = max(1, repeats // 3)
    from repro.envelope.splice import insert_segment

    def tuple_loop(segs):
        def run():
            env = Envelope.empty()
            for s in segs:
                env = insert_segment(env, s).envelope

        return run

    if HAVE_NUMPY:
        from repro.envelope.flat_splice import insert_run, segment_lanes

        def shipped_loop(segs):
            # The shipped insert pass: one compiled call per 256
            # inserts when the core is built, else the reference
            # insert on the packed profile.
            return lambda: insert_run(segment_lanes(segs))

    for m in ms:
        segs = _seq_segments(m)

        if HAVE_NUMPY:
            # Final profile size via the shipped loop (bit-identical to
            # the python engine's, several times cheaper than an extra
            # untimed run of the quadratic tuple path).
            env_size = shipped_loop(segs)().profile.size
            best = _time_interleaved(
                {
                    "python": tuple_loop(segs),
                    "shipped": shipped_loop(segs),
                },
                seq_repeats,
            )
            rows.append(
                dict(
                    workload="sequential",
                    m=m,
                    env_size=env_size,
                    python_ms=best["python"] * 1e3,
                    numpy_ms=best["shipped"] * 1e3,
                    speedup=best["python"] / best["shipped"],
                )
            )
            t.add(**rows[-1])
        else:  # pragma: no cover - numpy ships in the toolchain
            env = Envelope.empty()
            for s in segs:
                env = insert_segment(env, s).envelope
            best = _time_interleaved(
                {"python": tuple_loop(segs)}, seq_repeats
            )
            rows.append(
                dict(
                    workload="sequential",
                    m=m,
                    env_size=env.size,
                    python_ms=best["python"] * 1e3,
                    numpy_ms=None,
                    speedup=None,
                )
            )
            t.add(**rows[-1])

    # Guard-dispatch ablation (reliability layer): the shipped insert
    # pass with the guards on (the default) vs off
    # (REPRO_GUARDS=0, the zero-overhead baseline).  Ship gate for
    # default-on guards: overhead <= 3% at the largest size, both
    # families (docs/BENCHMARKS.md).
    if HAVE_NUMPY:
        from repro.reliability import guard as guard_mod

        def guard_loop(enabled, segs):
            def run():
                old = guard_mod.GUARDS_ENABLED
                guard_mod.GUARDS_ENABLED = enabled
                try:
                    insert_run(segment_lanes(segs))
                finally:
                    guard_mod.GUARDS_ENABLED = old

            return run

        for workload, family in (
            ("sequential-guard-ablation", _e9_segments),
            ("sequential-guard-ablation-wide", _seq_segments),
        ):
            for m in ms:
                segs = family(m)
                env_size = shipped_loop(segs)().profile.size
                best = _time_interleaved(
                    {
                        "off": guard_loop(False, segs),
                        "on": guard_loop(True, segs),
                    },
                    seq_repeats,
                )
                rows.append(
                    dict(
                        workload=workload,
                        m=m,
                        env_size=env_size,
                        python_ms=best["off"] * 1e3,
                        numpy_ms=best["on"] * 1e3,
                        speedup=best["off"] / best["on"],
                    )
                )
                t.add(**rows[-1])

    # (phase2-rope is recorded at the top of this function — see the
    # fresh-process rationale there.)

    # Service throughput: m coalesced queries through one
    # ViewshedSession.query_batch launch vs m sequential query()
    # calls against the same cached horizon (answers bit-exact).
    if HAVE_NUMPY:
        from repro.service import EnvelopeCache, ViewshedSession
        from repro.terrain.generators import fractal_terrain

        # size=65: a horizon large enough that per-query dispatch
        # overhead (the thing coalescing amortises) is the dominant
        # sequential cost, as in the service's intended deployment.
        terrain = fractal_terrain(size=65, seed=7)
        session = ViewshedSession(terrain, cache=EnvelopeCache())
        horizon = session.envelope()
        ys = [v.y for v in terrain.vertices]
        lo, hi = min(ys), max(ys)
        span = hi - lo
        m_q = max(ms)
        rng = random.Random(53)
        queries = []
        for _ in range(m_q):
            a = rng.uniform(lo, hi - span / 16)
            queries.append(
                (a, rng.uniform(-5, 15), a + span / 16, rng.uniform(-5, 15))
            )

        def sequential_queries():
            for q in queries:
                session.query(q)

        best = _time_interleaved(
            {
                "sequential": sequential_queries,
                "batched": lambda: session.query_batch(queries),
            },
            seq_repeats,
        )
        rows.append(
            dict(
                workload="service-qps",
                m=m_q,
                env_size=horizon.size,
                python_ms=best["sequential"] * 1e3,
                numpy_ms=best["batched"] * 1e3,
                speedup=best["sequential"] / best["batched"],
            )
        )
        t.add(**rows[-1])

    # Scenario-matrix rows (declarative; see repro.scenarios and
    # docs/SCENARIOS.md): every bench-role scenario of the packaged
    # default spec, timed through the same interleaved best-of loop.
    # Appended LAST on purpose — the phase2 row must keep its
    # fresh-process slot at the top (see the rationale there), and
    # these rows feed the perf gate, which compares speedup *ratios*,
    # not absolute times, so late-pipeline allocator state is benign.
    if HAVE_NUMPY:
        from repro.scenarios.instances import iter_bench_rows
        from repro.scenarios.spec import default_spec

        max_m = max(ms)
        for row in iter_bench_rows(
            default_spec(),
            repeats=seq_repeats,
            time_fn=_time_interleaved,
            max_m=max_m,
        ):
            rows.append(row)
            t.add(**row)
        if quick:
            t.notes.append(
                "quick mode skips scenario instances with a declared"
                " size factor above %d — run --full to record every"
                " pinned perf-gate row" % max_m
            )

    t.notes.append(
        "scenario:* rows expand the bench-role scenarios of the"
        " packaged default spec (repro/scenarios/"
        "default_scenarios.json); python_ms/numpy_ms time the"
        " scenario's baseline/variant configs, best-of-%d"
        " interleaved, and the pinned instances back `repro"
        " perf-gate`" % seq_repeats
    )
    t.notes.append(
        "engines produce identical pieces/crossings/ops (enforced by"
        " tests/test_envelope_flat.py and"
        " tests/test_envelope_flat_visibility.py); choose on wall"
        " clock alone"
    )
    t.notes.append(
        "visibility numpy_ms includes materialising scalar-API"
        " results; the compiled call alone is faster still"
    )
    t.notes.append(
        "sequential rows run the front-to-back insert pass on a"
        " wide-strip workload (profile ~ m pieces, seed 29):"
        " python engine vs the shipped run loop"
        " insert_run(segment_lanes(segs)) (the compiled core when"
        " built), best-of-%d" % seq_repeats
    )
    t.notes.append(
        "phase2-rope times run_phase2 mode='persistent' on the"
        " chunked-rope store (python_ms column) vs mode='direct' on the"
        " numpy engine (numpy_ms column) over a PCT of the E9"
        " segments; with the compiled core both modes run one call"
        " per phase, so the speedup column is the honest"
        " persistence-overhead ratio (ROADMAP target ~1.5)"
    )
    t.notes.append(
        "sequential-guard-ablation (E9 family) and"
        " sequential-guard-ablation-wide (wide-strip family) run the"
        " shipped insert pass with the reliability guards off"
        " (python_ms column, REPRO_GUARDS=0 baseline) vs on (numpy_ms"
        " column, the default); speedup just below 1 is the guard"
        " overhead — ship gate for default-on guards is <= 3%% at the"
        " largest size, best-of-%d" % seq_repeats
    )
    t.notes.append(
        "service-qps times m sequential ViewshedSession.query calls"
        " (python_ms column) vs one coalesced query_batch launch"
        " (numpy_ms column) against the same cached fractal-terrain"
        " horizon; answers are bit-exact (tests/test_service.py)"
    )
    t.notes.append(
        "timings are best-of-%d, engines interleaved" % repeats
    )

    if output is not None:
        payload = {
            "suite": "envelope-kernel",
            "workload": "E9-style random segments (seed 17)",
            "repeats": repeats,
            "python_version": platform.python_version(),
            "have_numpy": HAVE_NUMPY,
            "rows": rows,
        }
        Path(output).write_text(json.dumps(payload, indent=2) + "\n")
        t.notes.append(f"recorded to {output}")

    return t
