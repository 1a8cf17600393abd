"""Tests for the declarative scenario spec layer (ISSUE 9 tentpole).

Everything in this module is numpy-free on purpose: the spec machinery
(:mod:`repro.scenarios.spec`) and the ``repro scenarios`` CLI must work
on the pure-python leg, so this file is *not* in conftest's no-numpy
``collect_ignore`` list.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ScenarioError
from repro.scenarios import (
    ScenarioSpec,
    default_spec,
    load_spec,
)

MINI = {
    "format": "repro-scenarios",
    "version": 1,
    "scenarios": {
        "demo": {
            "workload": "segments",
            "roles": ["parity"],
            "cross": {"m": [8, 16], "family": ["e9"], "seed": [1, 2, 3]},
            "fixed": {"note": "x"},
            "configs": [
                {"id": "a", "engine": "python"},
                {"id": "b", "engine": "numpy"},
            ],
        }
    },
}


def mini_spec() -> ScenarioSpec:
    return ScenarioSpec.from_data(json.loads(json.dumps(MINI)))


class TestExpansion:
    def test_full_factorial_count(self):
        s = mini_spec().scenario("demo")
        assert s.n_instances == 2 * 1 * 3
        assert len(s.instances()) == 6

    def test_factors_sorted_levels_declared_order(self):
        insts = mini_spec().scenario("demo").instances()
        # Factor names iterate sorted (family < m < seed); level order
        # within a factor is exactly as declared.
        assert [k for k, _ in insts[0].factors] == ["family", "m", "seed"]
        assert [i.factor("m") for i in insts] == [8, 8, 8, 16, 16, 16]
        assert [i.factor("seed") for i in insts] == [1, 2, 3, 1, 2, 3]

    def test_expansion_deterministic(self):
        a = [i.instance_id for i in mini_spec().scenario("demo").instances()]
        b = [i.instance_id for i in mini_spec().scenario("demo").instances()]
        assert a == b
        assert a[0] == "demo[family=e9,m=8,seed=1]"

    def test_params_merges_fixed(self):
        inst = mini_spec().scenario("demo").instances()[0]
        params = inst.params()
        assert params["note"] == "x"
        assert params["m"] == 8
        assert inst.factor("note") == "x"  # falls back to fixed
        assert inst.factor("missing", 42) == 42

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(ScenarioError, match="known.*demo"):
            mini_spec().scenario("nope")

    def test_by_role(self):
        spec = mini_spec()
        assert [s.name for s in spec.by_role("parity")] == ["demo"]
        assert spec.by_role("bench") == []
        with pytest.raises(ScenarioError, match="unknown role"):
            spec.by_role("chaos")


class TestDefaultSpec:
    def test_loads_and_covers_all_workloads(self):
        spec = default_spec()
        kinds = {s.workload for s in spec.scenarios}
        assert kinds == {"terrain", "segments", "dem-file", "flyover"}
        assert spec.by_role("parity") and spec.by_role("bench")

    def test_pinned_rows_exist(self):
        pinned = default_spec().pinned_rows()
        names = {s.name for s, _ in pinned}
        assert names == {
            "bench-build-e9",
            "bench-insert-e9",
            "bench-insert-wide",
            "bench-sequential",
            "bench-paper-direct",
            "bench-paper-persistent",
            "bench-points",
            "bench-open",
            "bench-sightlines",
        }
        for s, inst in pinned:
            assert inst.factor("m", inst.factor("size")) in s.pinned

    def test_bench_scenarios_have_two_configs(self):
        for s in default_spec().by_role("bench"):
            assert len(s.configs) == 2
            assert s.op is not None


class TestValidation:
    def _data(self, **entry):
        base = {
            "workload": "segments",
            "roles": ["parity"],
            "cross": {"m": [4]},
            "configs": [
                {"id": "a", "engine": "python"},
                {"id": "b", "engine": "numpy"},
            ],
        }
        base.update(entry)
        return {
            "format": "repro-scenarios",
            "scenarios": {"bad": base},
        }

    def test_not_a_spec(self):
        with pytest.raises(ScenarioError, match="format"):
            ScenarioSpec.from_data({"hello": 1})

    def test_empty_scenarios(self):
        with pytest.raises(ScenarioError, match="scenarios"):
            ScenarioSpec.from_data(
                {"format": "repro-scenarios", "scenarios": {}}
            )

    def test_unknown_key(self):
        with pytest.raises(ScenarioError, match="unknown keys.*turbo"):
            ScenarioSpec.from_data(self._data(turbo=True))

    def test_bad_workload(self):
        with pytest.raises(ScenarioError, match="workload"):
            ScenarioSpec.from_data(self._data(workload="voxels"))

    def test_bad_roles(self):
        with pytest.raises(ScenarioError, match="roles"):
            ScenarioSpec.from_data(self._data(roles=["decorative"]))

    def test_empty_factor(self):
        with pytest.raises(ScenarioError, match="non-empty"):
            ScenarioSpec.from_data(self._data(cross={"m": []}))

    def test_cross_fixed_overlap(self):
        with pytest.raises(ScenarioError, match="both 'cross' and"):
            ScenarioSpec.from_data(
                self._data(cross={"m": [4]}, fixed={"m": 9})
            )

    def test_config_needs_id(self):
        with pytest.raises(ScenarioError, match="'id'"):
            ScenarioSpec.from_data(
                self._data(configs=[{"engine": "python"}] * 2)
            )

    def test_duplicate_config_id(self):
        with pytest.raises(ScenarioError, match="duplicate config id"):
            ScenarioSpec.from_data(
                self._data(
                    configs=[
                        {"id": "a", "engine": "python"},
                        {"id": "a", "engine": "numpy"},
                    ]
                )
            )

    def test_unknown_config_field(self):
        with pytest.raises(ScenarioError, match="HsrConfig.*warp"):
            ScenarioSpec.from_data(
                self._data(
                    configs=[
                        {"id": "a", "warp": 9},
                        {"id": "b", "engine": "numpy"},
                    ]
                )
            )

    def test_bench_needs_op(self):
        with pytest.raises(ScenarioError, match="'op'"):
            ScenarioSpec.from_data(self._data(roles=["bench"]))

    def test_bench_needs_two_configs(self):
        with pytest.raises(ScenarioError, match="exactly 2"):
            ScenarioSpec.from_data(
                self._data(
                    roles=["bench"],
                    op="build",
                    configs=[{"id": "a", "engine": "python"}],
                )
            )

    def test_parity_needs_two_configs(self):
        with pytest.raises(ScenarioError, match=">= 2"):
            ScenarioSpec.from_data(
                self._data(configs=[{"id": "a", "engine": "python"}])
            )


class TestLoadSpec:
    def test_json_roundtrip(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(MINI))
        spec = load_spec(p)
        assert spec.names() == ["demo"]
        assert spec.source == str(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="gone.json"):
            load_spec(tmp_path / "gone.json")

    def test_invalid_json_has_location(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{broken")
        with pytest.raises(ScenarioError, match="line"):
            load_spec(p)

    def test_toml_spec(self, tmp_path):
        pytest.importorskip("tomllib")
        p = tmp_path / "s.toml"
        p.write_text(
            'format = "repro-scenarios"\n'
            "[scenarios.demo]\n"
            'workload = "segments"\n'
            'roles = ["parity"]\n'
            "[scenarios.demo.cross]\n"
            "m = [4]\n"
            "[[scenarios.demo.configs]]\n"
            'id = "a"\n'
            'engine = "python"\n'
            "[[scenarios.demo.configs]]\n"
            'id = "b"\n'
            'engine = "numpy"\n'
        )
        assert load_spec(p).scenario("demo").n_instances == 1

    def test_validation_error_names_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(
            json.dumps({"format": "repro-scenarios", "scenarios": {}})
        )
        with pytest.raises(ScenarioError, match="s.json"):
            load_spec(p)


class TestScenariosCli:
    def test_list_default(self, capsys):
        rc = main(["scenarios", "list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parity-terrain" in out
        assert "pinned" in out

    def test_show_expands_instances(self, capsys):
        rc = main(["scenarios", "show", "parity-coincident"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "parity-coincident[family=coincident,m=40,seed=3]" in out

    def test_show_unknown_scenario_exit_2(self, capsys):
        rc = main(["scenarios", "show", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nope" in err

    def test_list_custom_spec(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(MINI))
        rc = main(["scenarios", "list", "--spec", str(p)])
        assert rc == 0
        assert "demo" in capsys.readouterr().out

    def test_bad_spec_file_exit_2(self, tmp_path, capsys):
        p = tmp_path / "s.json"
        p.write_text("{broken")
        rc = main(["scenarios", "list", "--spec", str(p)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "s.json" in err

    def test_missing_spec_file_exit_2(self, tmp_path, capsys):
        rc = main(["scenarios", "list", "--spec", str(tmp_path / "no.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_spec_subprocess_no_traceback(self, tmp_path):
        # The full entry-point contract: exit code 2, a single
        # `error:` line, no traceback leaking to the terminal.
        import os
        import subprocess
        import sys

        p = tmp_path / "s.json"
        p.write_text('{"format": "wrong"}')
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "scenarios", "list",
             "--spec", str(p)],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_perf_gate_missing_baseline_exit_2(self, tmp_path, capsys):
        rc = main(
            ["perf-gate", "--baseline", str(tmp_path / "none.json")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_perf_gate_bad_tolerance_exit_2(self, capsys):
        rc = main(["perf-gate", "--tolerance", "7"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "tolerance" in err
