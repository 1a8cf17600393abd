"""Scenario-matrix consumers: parity over the full factorial matrix,
bench-row generation, and the perf-regression gate (ISSUE 9 tentpole).

Requires numpy (listed in conftest's no-numpy ``collect_ignore``):
these tests actually *run* the workloads the spec declares.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ScenarioError
from repro.scenarios import ScenarioSpec, default_spec
from repro.scenarios.instances import (
    bench_callables,
    check_parity,
    coincident_segments,
    dem_terrain_for,
    e9_segments,
    flyover_terrains,
    iter_bench_rows,
    segments_for,
    terrain_for,
    vertical_segments,
    wide_strip_segments,
)
from repro.scenarios.perfgate import run_perf_gate

SPEC = default_spec()

PARITY_INSTANCES = list(SPEC.iter_instances("parity"))


class TestParityMatrix:
    """Every config variant of every parity instance must produce the
    bit-exact same result as its scenario's reference config.  The
    matrix is data: add a factor level to default_scenarios.json and a
    new test id appears here with zero new code."""

    @pytest.mark.parametrize("inst", PARITY_INSTANCES, ids=str)
    def test_cross_config_parity(self, inst):
        check_parity(inst)

    def test_matrix_is_nontrivial(self):
        # The factorial expansion really is a matrix, not a list of
        # hand-written cases: >= 15 instances from 6 scenarios over
        # all four workload kinds.
        assert len(PARITY_INSTANCES) >= 15
        kinds = {i.scenario.workload for i in PARITY_INSTANCES}
        assert kinds == {"terrain", "segments", "dem-file", "flyover"}

    def test_paper_algorithm_in_matrix(self):
        # ParallelHSR is signed in all three Phase-2 modes, on every
        # terrain family, with the core on and off; on the DEM tile and
        # the flyover frames in both compiled modes next to the
        # sequential run.
        paper = SPEC.scenario("parity-paper")
        cross = dict(paper.cross)
        assert set(cross["mode"]) == {"direct", "persistent", "acg"}
        for name in ("parity-dem", "parity-flyover"):
            modes = dict(SPEC.scenario(name).cross)["mode"]
            assert set(modes) == {"sequential", "direct", "persistent"}
        families = set(dict(SPEC.scenario("parity-terrain").cross)["family"])
        families |= set(dict(SPEC.scenario("parity-degenerate").cross)["family"])
        assert families <= set(cross["family"])
        assert paper.config_ids() == ["python", "numpy", "numpy-nocompiled"]


class TestMaterialisers:
    def test_segment_families_match_bench_aliases(self):
        # Single source of truth: the bench module's historical
        # workload generators must be these exact functions.
        from repro.bench import envelope_bench

        assert envelope_bench._e9_segments is e9_segments
        assert envelope_bench._seq_segments is wide_strip_segments

    def test_coincident_family_duplicates_each_segment(self):
        segs = coincident_segments(10, seed=3)
        assert len(segs) == 20
        assert segs[0] == segs[1] and segs[2] == segs[3]

    def test_vertical_family_is_all_vertical(self):
        assert all(s.is_vertical for s in vertical_segments(10, seed=3))

    def test_unknown_segment_family(self):
        with pytest.raises(ScenarioError, match="unknown segment family"):
            segments_for({"family": "moebius", "m": 4})

    def test_unknown_terrain_family(self):
        with pytest.raises(ScenarioError, match="unknown terrain family"):
            terrain_for({"family": "swamp"})

    def test_observer_rotates_terrain(self):
        base = terrain_for({"family": "ridge", "size": 6, "seed": 1})
        rot = terrain_for(
            {"family": "ridge", "size": 6, "seed": 1, "observer": 30.0}
        )
        assert rot.n_edges == base.n_edges
        assert rot.vertices != base.vertices

    def test_dem_tile_loads_with_nodata_filled(self):
        terrain = dem_terrain_for(
            {"path": "data/dem_tile.asc", "format": "esri-ascii"}
        )
        # 8x8 grid -> 64 vertices; the NODATA hole is filled, not NaN.
        assert terrain.n_vertices == 64
        zs = [v.z for v in terrain.vertices]
        assert all(z == z for z in zs)  # no NaN
        assert min(zs) >= 586.2 - 1e-9
        assert -9999.0 not in zs

    def test_dem_missing_path_is_scenario_error(self):
        with pytest.raises(ScenarioError, match="dem tile"):
            dem_terrain_for(
                {"path": "data/gone.asc", "format": "esri-ascii"}
            )

    def test_flyover_frames_are_distinct_viewpoints(self):
        frames = flyover_terrains(
            {
                "family": "fractal",
                "size": 9,
                "seed": 23,
                "sweep": 90.0,
                "frames": 3,
            }
        )
        assert len(frames) == 3
        # Azimuths 0, 30, 60: frame 0 is the base, the rest rotated.
        assert frames[0].vertices != frames[1].vertices
        assert frames[1].vertices != frames[2].vertices

    def test_flyover_rejects_zero_frames(self):
        with pytest.raises(ScenarioError, match="frames"):
            flyover_terrains({"family": "fractal", "frames": 0})


def _mini_bench_spec(
    m=48,
    pinned=None,
    requires_ccore=False,
    op="insert",
    family="wide-strip",
    workload="segments",
):
    size = "m" if workload == "segments" else "size"
    return ScenarioSpec.from_data(
        {
            "format": "repro-scenarios",
            "scenarios": {
                "gate-demo": {
                    "workload": workload,
                    "roles": ["bench"],
                    "op": op,
                    "requires_ccore": requires_ccore,
                    "cross": {
                        "family": [family],
                        size: [m],
                        "seed": [29],
                    },
                    "pinned": pinned if pinned is not None else [m],
                    "configs": [
                        {"id": "python", "engine": "python"},
                        {"id": "numpy", "engine": "numpy"},
                    ],
                }
            },
        }
    )


class TestBenchRows:
    def test_rows_have_bench_schema(self):
        from repro.bench.envelope_bench import _time_interleaved

        rows = list(
            iter_bench_rows(
                _mini_bench_spec(), repeats=1, time_fn=_time_interleaved
            )
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["workload"] == "scenario:gate-demo"
        assert row["m"] == 48
        assert row["env_size"] > 0
        assert row["python_ms"] > 0 and row["numpy_ms"] > 0
        assert row["speedup"] == pytest.approx(
            row["python_ms"] / row["numpy_ms"]
        )

    def test_max_m_skips_large_instances(self):
        rows = list(
            iter_bench_rows(
                _mini_bench_spec(m=4096),
                repeats=1,
                time_fn=lambda fns, r: {k: 1.0 for k in fns},
                max_m=100,
            )
        )
        assert rows == []

    def test_default_bench_scenarios_all_materialise(self):
        # Every bench instance of the shipped spec can build its timed
        # callables (no missing family/op wiring); don't time them.
        for scenario in SPEC.by_role("bench"):
            for inst in scenario.instances():
                if inst.factor("m", 0) and inst.factor("m", 0) > 100:
                    continue  # keep the suite fast
                fns, m, env_size = bench_callables(scenario, inst)
                assert set(fns) == set(scenario.config_ids())
                assert m > 0


class TestPerfGate:
    """The gate compares fresh vs recorded speedup *ratios* for the
    spec's pinned rows.  Baselines here are written by the test, so
    pass/fail outcomes are deterministic by construction; the canary
    run uses real timings to prove a forced-python variant actually
    collapses the ratio."""

    def _baseline(self, tmp_path, speedup, m=48):
        p = tmp_path / "baseline.json"
        p.write_text(
            json.dumps(
                {
                    "suite": "envelope-kernel",
                    "rows": [
                        {
                            "workload": "scenario:gate-demo",
                            "m": m,
                            "speedup": speedup,
                        }
                    ],
                }
            )
        )
        return p

    def test_clean_gate_passes(self, tmp_path):
        # Recorded speedup far below anything real -> cannot fail.
        report = run_perf_gate(
            _mini_bench_spec(),
            baseline=self._baseline(tmp_path, 0.01),
            repeats=1,
        )
        assert report.passed
        assert len(report.rows) == 1
        assert report.rows[0].fresh_speedup > report.rows[0].floor
        assert "PASS" in report.format()

    def test_regressed_gate_fails(self, tmp_path):
        # Recorded speedup absurdly high -> any fresh run regresses.
        report = run_perf_gate(
            _mini_bench_spec(),
            baseline=self._baseline(tmp_path, 1e6),
            repeats=1,
        )
        assert not report.passed
        assert report.failures
        assert "FAIL" in report.format()

    def test_canary_collapses_real_speedup(self, tmp_path):
        # Self-recorded baseline: time the pinned row for real, then
        # run the gate with the canary's injected regression (variant
        # config replaced by the baseline config).  The fresh ratio
        # drops to ~1x, far below the measured floor.  The workload is
        # the observer-point scan on a small fractal, whose numpy
        # margin (the windowed scan over y-sorted lanes) does not
        # depend on the compiled core; the insert loop and the D&C
        # build run the python reference on both sides without it.
        from repro.bench.envelope_bench import _time_interleaved

        spec = _mini_bench_spec(
            m=17, op="points", family="fractal", workload="terrain"
        )
        [(scenario, inst)] = spec.pinned_rows()
        fns, m, _ = bench_callables(scenario, inst)
        best = _time_interleaved(fns, 3)
        real = best["python"] / best["numpy"]
        assert real > 1.3  # numpy must genuinely win on this workload
        report = run_perf_gate(
            spec,
            baseline=self._baseline(tmp_path, real, m=m),
            repeats=3,
            canary=True,
        )
        assert report.canary
        assert not report.passed, (
            "canary run must fail: injected python-vs-python ratio"
            f" {report.rows[0].fresh_speedup:.2f} vs floor"
            f" {report.rows[0].floor:.2f}"
        )
        assert report.rows[0].fresh_speedup < real

    def test_missing_baseline_row_is_config_error(self, tmp_path):
        p = tmp_path / "baseline.json"
        p.write_text(json.dumps({"rows": []}))
        with pytest.raises(ScenarioError, match="no recorded row"):
            run_perf_gate(_mini_bench_spec(), baseline=p, repeats=1)

    def test_malformed_baseline_is_config_error(self, tmp_path):
        p = tmp_path / "baseline.json"
        p.write_text("[1, 2]")
        with pytest.raises(ScenarioError, match="rows"):
            run_perf_gate(_mini_bench_spec(), baseline=p, repeats=1)

    def test_unpinned_spec_is_config_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="no pinned"):
            run_perf_gate(
                _mini_bench_spec(pinned=[]),
                baseline=self._baseline(tmp_path, 1.0),
                repeats=1,
            )

    def test_requires_ccore_rows_skip_without_core(
        self, tmp_path, monkeypatch
    ):
        # On a no-compiler install the compiled-core pinned row is
        # ungateable (its variant config would silently fall back to
        # the cascade) — the gate must skip it, not false-fail.
        import repro.scenarios.perfgate as perfgate_mod

        monkeypatch.setattr(perfgate_mod, "_have_ccore", lambda: False)
        report = run_perf_gate(
            _mini_bench_spec(requires_ccore=True),
            baseline=self._baseline(tmp_path, 1e6),
            repeats=1,
        )
        assert report.passed
        assert not report.rows
        assert report.skipped == ["gate-demo"]
        assert "skip" in report.format()

    def test_default_spec_pinned_rows_recorded(self):
        # The shipped BENCH_envelope.json must contain every pinned
        # row of the shipped spec — otherwise CI's gate would die with
        # a config error instead of gating.  (A segment workload's
        # recorded m is its declared m factor; a terrain's is its edge
        # count, which only materialising the instance tells.)
        from pathlib import Path

        rows = json.loads(Path("BENCH_envelope.json").read_text())["rows"]
        keys = {(r["workload"], r["m"]) for r in rows}
        pinned = SPEC.pinned_rows()
        assert pinned
        for scenario, inst in pinned:
            m = inst.factor("m")
            if m is None:
                m = bench_callables(scenario, inst)[1]
            assert (f"scenario:{scenario.name}", m) in keys
