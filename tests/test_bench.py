"""Tests for the experiment harness and every registered experiment."""

from __future__ import annotations

import pytest

import repro.bench.experiments as exps
from repro.bench.harness import (
    EXPERIMENT_REGISTRY,
    Table,
    run_experiment,
)
from repro.bench.workloads import occlusion_suite, scaling_suite
from repro.errors import BenchmarkError


class TestTable:
    def test_add_and_column(self):
        t = Table("T", "demo", ["a", "b"])
        t.add(a=1, b=2.5)
        t.add(a=3, b=0.001)
        assert t.column("a") == [1, 3]
        text = t.format()
        assert "T: demo" in text
        assert "2.500" in text

    def test_format_scientific(self):
        t = Table("T", "demo", ["x"])
        t.add(x=123456.0)
        assert "1.23e+05" in t.format()

    def test_notes(self):
        t = Table("T", "demo", ["x"])
        t.notes.append("hello")
        assert "note: hello" in t.format()


class TestRegistry:
    def test_all_registered(self):
        run_experiment.__module__  # force import side effects
        import repro.bench.experiments  # noqa: F401

        for name in exps.ALL_EXPERIMENTS:
            assert name in EXPERIMENT_REGISTRY

    def test_unknown(self):
        with pytest.raises(BenchmarkError):
            run_experiment("E99")


class TestWorkloads:
    def test_scaling_sizes_grow(self):
        suite = scaling_suite((9, 17))
        assert suite[0][1].n_edges < suite[1][1].n_edges

    def test_scaling_kinds(self):
        for kind in ("fractal", "valley"):
            suite = scaling_suite((9,), kind=kind)
            assert suite[0][0].startswith(kind)
        with pytest.raises(ValueError):
            scaling_suite((9,), kind="bogus")

    def test_occlusion_fixed_n(self):
        suite = occlusion_suite((0.0, 1.0), rows=10, cols=10)
        assert suite[0][1].n_edges == suite[1][1].n_edges


@pytest.mark.slow
class TestExperimentShapes:
    """Run each experiment (quick mode) and assert its reproduction
    criterion — the executable form of EXPERIMENTS.md."""

    def test_e1_depth_ratio_bounded(self):
        t = run_experiment("E1")
        ratios = t.column("depth/log4n")
        assert ratios[-1] <= max(ratios[0], 1.0) * 1.5

    def test_e2_work_ratio_bounded(self):
        t = run_experiment("E2")
        ratios = t.column("work/bound")
        assert max(ratios) <= 3.0

    def test_e3_output_sensitivity(self):
        t = run_experiment("E3")
        ks = t.column("k")
        par = t.column("par_work")
        naive = t.column("naive_ops")
        # k must fall substantially across the occlusion sweep.
        assert ks[-1] < ks[0] / 2
        # Parallel work falls with k; naive stays flat (within 20%).
        assert par[-1] < par[0]
        assert abs(naive[-1] - naive[0]) <= 0.2 * naive[0]

    def test_e4_log_factor(self):
        t = run_experiment("E4")
        vals = t.column("ratio/log_n")
        assert max(vals) <= 3.0

    def test_e5_sharing(self):
        t = run_experiment("E5")
        fracs = t.column("max_layer_shared_frac")
        savings = t.column("saving")
        assert max(fracs) > 0.15
        assert savings[-1] > 1.0

    def test_e6_cg_probes(self):
        t = run_experiment("E6")
        assert max(t.column("probes/log2")) <= 3.0

    def test_e7_acg_build(self):
        t = run_experiment("E7")
        assert max(t.column("ops/bound")) <= 2.0

    def test_e8_speedup_saturates(self):
        t = run_experiment("E8")
        speedups = t.column("speedup")
        assert speedups[0] == pytest.approx(1.0)
        assert all(b >= a - 1e-9 for a, b in zip(speedups, speedups[1:]))

    def test_e9_envelope_depth(self):
        t = run_experiment("E9")
        assert max(t.column("depth/log2")) <= 2.0

    def test_e10_lemma32(self):
        t = run_experiment("E10")
        assert max(t.column("probes/bound")) <= 4.0

    def test_e11_ablation_consistent(self):
        t = run_experiment("E11")
        # Within a workload the three modes agree on k.
        by_wl: dict[str, set] = {}
        for row in t.rows:
            by_wl.setdefault(row["workload"], set()).add(row["k"])
        assert all(len(ks) == 1 for ks in by_wl.values())

    def test_e12_converges(self):
        t = run_experiment("E12")
        ratios = [
            row["len_ratio"] for row in t.rows if row["method"] == "z-buffer"
        ]
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0) + 1e-9
        assert abs(ratios[-1] - 1.0) < 0.25

    def test_e13_perspective(self):
        t = run_experiment("E13")
        assert all(t.column("engines_agree"))
        persp = [r["k"] for r in t.rows if r["view"] == "perspective"]
        assert persp == sorted(persp)

    def test_e14_ordering_linear(self):
        t = run_experiment("E14")
        assert max(t.column("constraints/n")) <= 3.5


class TestEnvelopeBench:
    def test_quick_comparison_writes_json(self, tmp_path):
        import json

        from repro.bench.envelope_bench import run_envelope_bench
        from repro.envelope.engine import HAVE_NUMPY

        out = tmp_path / "BENCH_envelope.json"
        t = run_envelope_bench(
            quick=True, repeats=1, ms=(64, 128), output=out
        )
        assert [r["m"] for r in t.rows if r["workload"] == "build"] == [
            64,
            128,
        ]
        payload = json.loads(out.read_text())
        assert payload["suite"] == "envelope-kernel"
        assert len(payload["rows"]) == len(t.rows)
        if HAVE_NUMPY:
            for row in t.rows:
                assert row["numpy_ms"] > 0
                assert row["speedup"] > 0

    def test_no_output_file(self, tmp_path, monkeypatch):
        from repro.bench.envelope_bench import run_envelope_bench

        monkeypatch.chdir(tmp_path)
        run_envelope_bench(quick=True, repeats=1, ms=(32,), output=None)
        assert not (tmp_path / "BENCH_envelope.json").exists()


class TestBenchHygieneRegression:
    """ISSUE 9 satellite: pin the PR-8 measurement-hygiene invariants
    so a refactor cannot silently reintroduce the cross-variant GC
    interference or the late-pipeline phase2 inflation they fixed."""

    def test_time_interleaved_collects_before_every_timed_call(
        self, monkeypatch
    ):
        # gc.collect must run before EACH timed call (not once per
        # repeat round): an allocation-heavy variant primes the
        # cyclic-GC counters, and without the per-call reset the next
        # variant pays the collection inside its timed region.
        from repro.bench import envelope_bench

        events: list[str] = []
        monkeypatch.setattr(
            envelope_bench.gc, "collect", lambda: events.append("gc")
        )
        fns = {
            "a": lambda: events.append("a"),
            "b": lambda: events.append("b"),
        }
        best = envelope_bench._time_interleaved(fns, 2)
        assert events == ["gc", "a", "gc", "b", "gc", "a", "gc", "b"]
        assert set(best) == {"a", "b"}
        assert all(v >= 0 for v in best.values())

    def test_phase2_rows_recorded_first_scenarios_last(self):
        # Row order is part of the measurement protocol: the phase2
        # persistent/direct row must run in a fresh process (first),
        # and the scenario-matrix rows are appended at the end.
        from repro.bench.envelope_bench import run_envelope_bench
        from repro.envelope.engine import HAVE_NUMPY

        if not HAVE_NUMPY:
            pytest.skip("phase2/scenario rows need numpy")
        t = run_envelope_bench(quick=True, repeats=1, ms=(16,), output=None)
        workloads = [r["workload"] for r in t.rows]
        assert workloads[0] == "phase2-rope"
        scenario_idx = [
            i for i, w in enumerate(workloads) if w.startswith("scenario:")
        ]
        assert scenario_idx, "scenario rows missing from the bench"
        # Contiguous tail: nothing runs after the scenario rows.
        assert scenario_idx[-1] == len(workloads) - 1
        assert scenario_idx == list(
            range(scenario_idx[0], len(workloads))
        )
