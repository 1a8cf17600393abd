"""End-to-end benchmark: whole HSR runs and viewshed queries on fractal
terrains, with a traced run that times the layers one by one.

    python3 perfbench/run.py --workload sequential-flyover --seed 1 \\
        --seconds 20 --trace 0

``--workload all`` runs every workload, each in a fresh process, and
prints all of them.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the details (environment stamp, raw and scaled medians, the
tail percentile and sample counts).  A wrong answer or a raised
request makes the run exit 1; a checkout it cannot run in, 2.

Every run first builds the compiled core (``repro.envelope._repro_ccore``)
from source in place, so the figures are those of a built install of
the checked-out C source.  See ``perfbench/README.md`` for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = (
    "sequential-flyover",
    "paper-direct",
    "paper-persistent",
    "viewshed-open",
    "viewshed-sightlines",
    "viewshed-observers",
)
CCORE_SOURCE = os.path.join(SRC, "repro", "envelope", "_ccore_build.py")

#: Set-ups timed before the loop; ``setup_s`` is their median.
SETUP_REPEATS = 5


class CheckoutError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, no core)."""


def ensure_core() -> None:
    """Build the optional compiled core in place.  Runs every time: the
    build is incremental (cffi rewrites its C file only when the source
    changed), and a binary left by another commit is never timed."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise CheckoutError(f"no repro sources under {SRC}")
    pattern = os.path.join(SRC, "repro", "envelope", "_repro_ccore*.so")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0 or not glob.glob(pattern):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise CheckoutError("the compiled core did not build")


def stamp() -> dict:
    """Environment the figures belong to; results whose ``have_ccore``
    differ are not comparable (``compare.py`` refuses them)."""
    import numpy

    from repro.envelope import _ccore
    from repro.reliability import guard

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "have_ccore": _ccore.HAVE_CCORE,
        "ccore_source_sha256": _sha256(CCORE_SOURCE)[:16],
        "compiled_insert": _ccore.COMPILED_DEFAULT,
        "REPRO_COMPILED": os.environ.get("REPRO_COMPILED"),
        "REPRO_GUARDS": os.environ.get("REPRO_GUARDS"),
        "guards_enabled": guard.GUARDS_ENABLED,
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def reference(workload: str, seed: int, size) -> dict:
    """Python-engine reference answers, from a separate process."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "reference.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if size:
        cmd += ["--size", str(size)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise CheckoutError(f"reference failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def corrupt(ref: dict) -> None:
    """Make every reference answer wrong (the self-tests' negative case)."""
    for run in ref.get("runs", []):
        run["k"] += 1
    for pieces in ref.get("envelopes", []):
        pieces[0][1] += 1.0
    for frame in ref.get("sightlines", []):
        for batch in frame:
            batch[0] = [[0.0, 0.0]]
    for frame in ref.get("observers", []):
        for batch in frame:
            batch[0] = not batch[0]


def time_setups(workload: str, seed: int, size):
    """Materialise the inputs ``SETUP_REPEATS`` times; returns the last
    inputs and each set-up's wall and calibration-scaled seconds."""
    import calibrate
    from inputs import make_inputs

    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        inputs = None  # so peak RSS never holds two copies
        gc.collect()
        before = calibrate.measure()
        t0 = time.perf_counter()
        inputs = make_inputs(workload, seed, size)
        dt = time.perf_counter() - t0
        after = calibrate.measure()
        raw.append(dt)
        scaled.append(dt * calibrate.REF_S / ((before + after) / 2))
    return inputs, raw, scaled


def tail_pct(n: int) -> int:
    """The highest percentile, in steps of 5 from the median up, with at
    least 10 of ``n`` samples beyond it; 50 when there are too few."""
    q = 95
    while q > 50 and (n - 1) * (100 - q) / 100 < 10:
        q -= 5
    return q


def summary(workload: str, tally, setup_raw: list, setup_scaled: list) -> dict:
    """Everything a run reports: the BENCHMARK.json metrics and the
    details behind them."""
    from workloads import KIND, percentile

    q = tail_pct(len(tally.samples))
    tail = percentile(tally.samples, q)
    return {
        "kind": KIND[workload],
        "n": len(tally.samples),
        "p50_ms": percentile(tally.samples, 50) * 1e3,
        "tail_pct": q,
        "tail_ms": tail * 1e3,
        "beyond_tail": sum(1 for x in tally.samples if x > tail),
        "raw_p50_ms": percentile(tally.raw, 50) * 1e3,
        "raw_tail_ms": percentile(tally.raw, q) * 1e3,
        "calibration_p50_ms": percentile(tally.calibrations, 50) * 1e3,
        "setup_s": statistics.median(setup_scaled),
        "raw_setup_s": statistics.median(setup_raw),
        "error_rate": tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def end_to_end(s: dict) -> dict:
    """The BENCHMARK.json end-to-end metrics."""
    return {
        "setup_s": (s["setup_s"], "s"),
        "success_rate": (1.0 - s["error_rate"], "ratio"),
        "peak_rss_mb": (s["peak_rss_mb"], "MB"),
        "request_ms_p50": (s["p50_ms"], "ms"),
    }


def named_metrics(s: dict) -> dict:
    """The workload's metrics under their per-request-kind names."""
    return {
        "setup_s": (s["setup_s"], "s"),
        "error_rate": (s["error_rate"], "ratio"),
        "peak_rss_mb": (s["peak_rss_mb"], "MB"),
        f"{s['kind']}_ms_p50": (s["p50_ms"], "ms"),
        f"{s['kind']}_ms_tail": (s["tail_ms"], "ms"),
    }


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    ensure_core()
    from layers import NAMES, trace_layers
    from workloads import run_workload

    env = stamp()
    ref = reference(args.workload, args.seed, args.size)
    if args.corrupt_reference:
        corrupt(ref)
    inputs, setup_raw, setup_scaled = time_setups(
        args.workload, args.seed, args.size
    )
    # A traced run spends a quarter of its time on the untraced loop
    # that ``trace.coverage`` divides by, the rest on the layer breakdown.
    loop_s = args.seconds / 4 if args.trace else args.seconds
    tally = run_workload(args.workload, inputs, ref, loop_s)
    s = summary(args.workload, tally, setup_raw, setup_scaled)
    named = named_metrics(s)

    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
        f"  frames {len(inputs.frames)}"
        f"  edges/frame {inputs.frames[0].n_edges}"
    )
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in named.items():
        note = ""
        if name.endswith("_tail"):
            note = f"  p{s['tail_pct']}, {s['beyond_tail']} of {s['n']} samples beyond"
        elif name.endswith("_p50"):
            note = f"  {s['n']} samples, raw {s['raw_p50_ms']:.4f} ms"
        elif name == "setup_s":
            note = f"  raw {s['raw_setup_s']:.4f} s"
        print(f"  {name:26s} {value:12.4f} {unit}{note}")
    for message in tally.errors:
        print(f"  FAILED {message}")

    if args.trace:
        layer = trace_layers(args.workload, inputs, args.seed, args.size, tally)
        units = {n: "ms" if n.endswith("_ms") else "count" for n in NAMES}
        units["trace.coverage"] = "ratio"
        out = {n: (layer[n], units[n]) for n in NAMES}
        for name, (value, unit) in out.items():
            print(f"  {name:30s} {value:14.4f} {unit}")
    else:
        out = end_to_end(s)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "stamp": env,
        "summary": s,
        "named": {n: {"value": v, "unit": u} for n, (v, u) in named.items()},
        "errors": tally.errors,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in out.items()},
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one combined table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload",
            workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
        ]
        if args.size:
            cmd += ["--size", str(args.size)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if len(lines) < 2:
            raise CheckoutError(f"{workload} printed no result")
        print("\n".join(lines[:-2]))
        details, result = json.loads(lines[-2]), json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        source = result["metrics"] if args.trace else details["named"]
        for name, metric in source.items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", type=int, default=None, help="override the fractal size (tests)"
    )
    ap.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="falsify every reference answer (tests the output check)",
    )
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
