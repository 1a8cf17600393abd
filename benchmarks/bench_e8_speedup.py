"""E8 — Lemma 2.1/2.2 scheduling: speedup curves from the cost model.

The PRAM speedup curve comes from the cost model (the GIL makes
thread-level emulation meaningless — DESIGN.md §2); the serial
Phase-1 benchmark is its wall-clock baseline.  There is no multi-core
executor: each PCT layer and each level of the Lemma 3.1 envelope
build is one compiled call in the calling thread, which outran the
process pool it replaced on two cores.
"""

from __future__ import annotations

from benchmarks.conftest import attach_table
from repro.bench.harness import run_experiment
from repro.hsr.parallel import ParallelHSR


def test_e8_speedup_table(benchmark):
    table = benchmark.pedantic(
        lambda: run_experiment("E8", quick=True), rounds=1, iterations=1
    )
    attach_table(benchmark, table)
    speedups = table.column("speedup")
    assert speedups[0] == 1.0 or abs(speedups[0] - 1.0) < 1e-9
    assert speedups[-1] > speedups[0]


def test_e8_serial_phase1(benchmark, fractal_medium):
    benchmark(lambda: ParallelHSR().run(fractal_medium))
