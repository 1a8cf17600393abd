"""E5 — Figs. 1 & 3: cross-layer profile sharing; persistence vs
copying memory."""

from __future__ import annotations

from benchmarks.conftest import attach_table
from repro.bench.harness import run_experiment
from repro.hsr.parallel import ParallelHSR


def test_e5_persistent_phase2(benchmark, fractal_small):
    def run():
        # Phase 2 reports its own allocation delta (piece slots
        # written into fresh rope chunks).
        res = ParallelHSR(mode="persistent").run(fractal_small)
        return res.stats.extra["nodes_allocated"]

    allocated = benchmark(run)
    benchmark.extra_info["nodes_allocated"] = allocated
    table = run_experiment("E5", quick=True)
    attach_table(benchmark, table)
    assert max(table.column("max_layer_shared_frac")) > 0.15
    assert table.column("saving")[-1] > 1.0


def test_e5_direct_phase2_copying(benchmark, fractal_small):
    res = benchmark(lambda: ParallelHSR(mode="direct").run(fractal_small))
    benchmark.extra_info["pieces_materialised"] = res.stats.extra[
        "pieces_materialised"
    ]
