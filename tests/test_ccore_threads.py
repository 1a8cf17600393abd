"""The compiled core is reentrant: runs, whole-phase calls, envelope
builds and face-pass orderings on several threads at once (cffi
releases the GIL around every C call, so they really overlap) stay
bit-exact against single-threaded ones.  Each run owns its core context
(:class:`repro.envelope._ccore.Core`); the ordering's scratch is per
call; nothing in the C side is static."""

from __future__ import annotations

import threading

import pytest

from repro.config import HsrConfig
from repro.envelope import _ccore
from repro.envelope.build import build_envelope
from repro.hsr.parallel import ParallelHSR
from repro.hsr.pct import build_pct
from repro.hsr.phase2 import run_phase2
from repro.hsr.sequential import SequentialHSR
from repro.ordering.separator import SeparatorTree
from repro.ordering.sweep import front_to_back_order, map_lanes
from repro.terrain.generators import fractal_terrain

pytestmark = pytest.mark.skipif(
    not _ccore.HAVE_CCORE,
    reason="optional compiled core not built in this environment",
)


def _run(hsr, terrain):
    def run():
        res = hsr.run(terrain)
        return (
            res.visibility_map.segments,
            res.k,
            res.stats.ops,
            res.stats.extra,
            res.order,
        )

    return run


def _phase2(terrain):
    """``direct`` and ``persistent`` Phase 2 over one compiled PCT: two
    threads read its block at once, each walking the tree in its own
    context."""
    core = HsrConfig(engine="numpy", use_compiled_insert=True)
    tree = SeparatorTree(front_to_back_order(terrain))
    pct = build_pct(tree, terrain.image_segments(), config=core)

    def job(mode):
        def run():
            ph2 = run_phase2(pct, None, mode=mode, config=core)
            return ph2.ops, ph2.crossings, ph2.layers, ph2.rows.tobytes()

        return run

    return job("direct"), job("persistent")


def _build(terrain):
    lanes = terrain.image_lanes()

    def run():
        res = build_envelope(None, lanes=lanes, engine="numpy")
        return res.envelope.pieces, res.crossings, res.ops

    return run


def _order(terrain, sign):
    lanes = map_lanes(terrain)
    faces = terrain.face_edges()

    def run():
        return _ccore.ordering_path(*lanes, sign, *faces)

    return run


def test_threads_running_the_core_stay_bit_exact():
    jobs = [
        (_run(SequentialHSR(), fractal_terrain(size=65, seed=3)), 15),
        (_run(SequentialHSR(), fractal_terrain(size=65, seed=4)), 15),
        (_run(ParallelHSR(mode="direct"), fractal_terrain(size=33, seed=3)), 6),
        (_run(ParallelHSR(mode="direct"), fractal_terrain(size=33, seed=4)), 6),
        (_run(ParallelHSR(mode="persistent"), fractal_terrain(size=33, seed=3)), 6),
        (_run(ParallelHSR(mode="persistent"), fractal_terrain(size=33, seed=4)), 6),
        *((run, 6) for run in _phase2(fractal_terrain(size=33, seed=5))),
        (_build(fractal_terrain(size=65, seed=3)), 15),
        (_build(fractal_terrain(size=65, seed=4)), 15),
        (_order(fractal_terrain(size=65, seed=3).rotated(30), 1), 40),
        (_order(fractal_terrain(size=65, seed=4).rotated(200), -1), 40),
    ]
    refs = [run() for run, _ in jobs]
    assert [path for _, path in refs[-2:]] == ["faces", "faces"]
    results: list[list] = [[] for _ in jobs]
    errors: list[BaseException] = []
    start = threading.Barrier(len(jobs))

    def work(i):
        run, runs = jobs[i]
        try:
            start.wait()
            for _ in range(runs):
                results[i].append(run())
        except BaseException as exc:  # reported below, not lost in the thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    for i, (ref, got) in enumerate(zip(refs, results)):
        assert len(got) == jobs[i][1]
        assert all(sig == ref for sig in got), f"thread {i} diverged"
