"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0


class TestGenerate:
    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main(
            ["generate", "fractal", str(out), "--size", "5", "--seed", "3"]
        )
        assert rc == 0
        assert out.exists()
        data = json.loads(out.read_text())
        assert data["format"] == "repro-terrain"

    def test_obj_output(self, tmp_path):
        out = tmp_path / "t.obj"
        rc = main(["generate", "ridge", str(out), "--rows", "6", "--cols", "6"])
        assert rc == 0
        assert out.read_text().startswith("# repro terrain")

    def test_unknown_kind(self, tmp_path, capsys):
        rc = main(["generate", "marsscape", str(tmp_path / "x.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "marsscape" in err


class TestRun:
    def test_run_generator_json(self, capsys):
        rc = main(
            ["run", "ridge", "--json", "--algorithm", "sequential"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "sequential"
        assert payload["k"] > 0

    def test_run_parallel_reports_pram(self, capsys):
        rc = main(["run", "ridge", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["work"] > payload["depth"] > 0

    def test_run_terrain_file(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        main(["generate", "fractal", str(path), "--size", "5"])
        capsys.readouterr()
        rc = main(["run", str(path), "--algorithm", "sequential"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "VisibilityMap" in out

    def test_run_with_svg(self, tmp_path, capsys):
        svg = tmp_path / "scene.svg"
        rc = main(["run", "ridge", "--svg", str(svg)])
        assert rc == 0
        assert svg.exists()

    def test_run_azimuth(self, capsys):
        rc = main(["run", "ridge", "--json", "--azimuth", "90"])
        assert rc == 0

    def test_zbuffer_algorithm(self, capsys):
        rc = main(["run", "ridge", "--json", "--algorithm", "zbuffer"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "zbuffer"

    def test_bad_terrain_spec(self, capsys):
        # A ReproError exit, not a raw SystemExit: one-line `error:`
        # on stderr and return code 2 (ISSUE 9 satellite — CLI error
        # contract).
        rc = main(["run", "/nonexistent/terrain.json"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "neither" in err


class TestRenderAndInfo:
    def test_render_ascii(self, capsys):
        rc = main(["render", "ridge", "--width", "40", "--height", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) >= 10

    def test_render_svg(self, tmp_path, capsys):
        svg = tmp_path / "r.svg"
        rc = main(["render", "ridge", "--svg", str(svg)])
        assert rc == 0
        assert svg.exists()

    def test_info(self, capsys):
        rc = main(["info"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "E1" in out

    def test_bench_single(self, capsys):
        rc = main(["bench", "E9"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "E9" in out


class TestRobustExit:
    """ISSUE 6, satellite 2: library errors exit nonzero with a one-
    line message (plus a reliability summary when degradation
    happened), never a traceback.  Driven through a real subprocess so
    the installed entry point's behaviour is what's pinned."""

    def _run(self, args, tmp_path, env_extra=None):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop("REPRO_FAULT_INJECT", None)
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )

    def test_malformed_terrain_file_clean_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "repro-terrain", "vertices": [,]}')
        proc = self._run(["run", str(bad)], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "bad.json" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_validation_error_clean_exit(self, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text(
            '{"format": "repro-terrain",'
            ' "vertices": [[0, 0, 1], [1, 0, NaN], [0, 1, 1]],'
            ' "faces": [[0, 1, 2]]}'
        )
        proc = self._run(["run", str(bad)], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_injected_fault_degrades_and_reports(self, tmp_path):
        proc = self._run(
            ["run", "ridge", "--json", "--algorithm", "sequential",
             "--engine", "numpy"],
            tmp_path,
            env_extra={"REPRO_FAULT_INJECT": "packed_splice:raise:2"},
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["k"] > 0
        assert "reliability:" in proc.stderr
        assert "packed_splice" in proc.stderr

    def test_serve_unknown_kind_clean_exit(self, tmp_path):
        # `repro serve` fails during terrain loading, long before any
        # socket is bound: exit 2, one-line error, no traceback.
        proc = self._run(["serve", "marsscape"], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "marsscape" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_serve_bad_terrain_file_clean_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = self._run(["serve", str(bad)], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "bad.json" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_injected_fault_strict_mode_fails_loud(self, tmp_path):
        proc = self._run(
            ["run", "ridge", "--algorithm", "sequential",
             "--engine", "numpy"],
            tmp_path,
            env_extra={
                "REPRO_FAULT_INJECT": "packed_splice:raise:2",
                "REPRO_GUARDED_DISPATCH": "0",
            },
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "packed_splice" in proc.stderr
        assert "Traceback" not in proc.stderr
