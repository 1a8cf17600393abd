"""Self-tests of the benchmark at a tiny size (fractal size 9).

    python3 -m pytest perfbench/tests -q

Every workload runs once untraced and once traced; the tests check the
result line against BENCHMARK.json, that a falsified reference fails
every request with a non-zero exit, and that a directory holding only
the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: The request kind each workload issues; its metrics are printed
#: under ``<kind>_ms_p50`` and ``<kind>_ms_tail``.
KIND = {
    "sequential-flyover": "sequential",
    "paper-direct": "direct",
    "paper-persistent": "persistent",
    "viewshed-open": "session_open",
    "viewshed-sightlines": "sightline_batch",
    "viewshed-observers": "observer_batch",
}
NAMED = {w: {f"{k}_ms_p50", f"{k}_ms_tail"} for w, k in KIND.items()}
COMMON = {"setup_s", "error_rate", "peak_rss_mb"}


def bench(*args: str, cwd: str = ROOT, script: str = RUN):
    proc = subprocess.run(
        [sys.executable, script, "--seed", "5", "--size", "9", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def parse(proc) -> tuple[dict, dict]:
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


_RUNS: dict = {}


def run_cached(workload: str, trace: int):
    key = (workload, trace)
    if key not in _RUNS:
        _RUNS[key] = bench(
            "--workload", workload, "--seconds", "0.5", "--trace", str(trace)
        )
    return _RUNS[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run_cached(workload, 0)
    assert proc.returncode == 0, proc.stderr
    details, result = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(expected)
    for name, metric in got.items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == expected[name]
        assert metric["value"] > 0, name
    assert set(details["named"]) == COMMON | NAMED[workload]
    assert details["named"]["error_rate"]["value"] == 0.0
    assert all(NAME.fullmatch(n) for n in details["named"])
    assert details["stamp"]["have_ccore"] is True
    assert len(details["stamp"]["ccore_source_sha256"]) == 16
    summary = details["summary"]
    assert summary["raw_p50_ms"] > 0 and summary["calibration_p50_ms"] > 0


def test_workloads_match_the_spec():
    assert WORKLOADS == list(KIND)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc = run_cached(workload, 1)
    assert proc.returncode == 0, proc.stderr
    _details, result = parse(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = result["metrics"]
    assert set(got) == set(expected)
    for name, metric in got.items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == expected[name]
    assert got["trace.coverage"]["value"] > 0
    assert got["reliability.incidents"]["value"] == 0
    assert got["service.cache_hits"]["value"] == 0
    assert got["service.cache_misses"]["value"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_every_request(workload):
    proc = bench(
        "--workload", workload, "--seconds", "0.2", "--corrupt-reference"
    )
    assert proc.returncode != 0
    details, result = parse(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert details["named"]["error_rate"]["value"] == 1.0
    assert result["metrics"]["success_rate"]["value"] == 0.0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = bench(
        "--workload",
        WORKLOADS[0],
        "--seconds",
        "1",
        cwd=str(tmp_path),
        script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_all_prints_every_named_metric_with_its_unit():
    proc = bench("--workload", "all", "--seconds", "0.2")
    assert proc.returncode == 0, proc.stderr
    merged = json.loads(proc.stdout.splitlines()[-1])
    names = {key.split(".", 1)[1] for key in merged["metrics"]}
    assert names == COMMON.union(*NAMED.values())
    assert len(names) == 15
    for name in names:
        assert re.search(rf"^  {name} +\S+ \S+", proc.stdout, re.M), name


def test_tail_percentile_keeps_ten_samples_beyond():
    sys.path.insert(0, BENCH)
    import run

    assert run.tail_pct(200) == 90
    assert run.tail_pct(400) == 95
    assert run.tail_pct(41) == 75
    assert run.tail_pct(16) == 50


def _saved(tmp_path, name: str, have_ccore: bool) -> str:
    details = {"workload": "paper-direct", "stamp": {"have_ccore": have_ccore}}
    result = {"metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    path = tmp_path / name
    path.write_text(json.dumps(details) + "\n" + json.dumps(result) + "\n")
    return str(path)


def test_compare_refuses_results_with_different_compiled_core(tmp_path):
    compare = os.path.join(BENCH, "compare.py")
    a = _saved(tmp_path, "a.txt", True)
    b = _saved(tmp_path, "b.txt", False)
    same = subprocess.run(
        [sys.executable, compare, a, a], capture_output=True, text=True
    )
    assert same.returncode == 0 and "B/A" in same.stdout
    mixed = subprocess.run(
        [sys.executable, compare, a, b], capture_output=True, text=True
    )
    assert mixed.returncode == 2 and "refused" in mixed.stderr
