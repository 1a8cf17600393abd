"""The timed closed loops: one client, the next request starts when the
previous one returns, no worker pools (``workers=1``).

Every workload issues one kind of request, so its ``request_ms_p50``
is that kind's median and a gain on one kind can never hide a loss on
another.  A cycle is one frame's requests.  Each request is timed with
``perf_counter`` around the public call alone; its answer is then
checked against the reference outside the timed region.
``gc.collect()`` runs before each cycle, also outside it, and the
cycle is bracketed by two host-speed calibrations (``calibrate.py``)
that scale its request times.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field

import calibrate
from inputs import (
    N_FRAMES,
    OBSERVER_STRIDE,
    SIGHTLINE_STRIDE,
    Inputs,
)
from repro.hsr import ParallelHSR, SequentialHSR
from repro.reliability import reliability_run
from repro.service import EnvelopeCache, ViewshedSession

#: The one request kind each workload issues.
KIND = {
    "sequential-flyover": "sequential",
    "paper-direct": "direct",
    "paper-persistent": "persistent",
    "viewshed-open": "session_open",
    "viewshed-sightlines": "sightline_batch",
    "viewshed-observers": "observer_batch",
}

#: How many failure messages a run keeps for its report.
MAX_ERRORS = 5


@dataclass
class Tally:
    """What one run of a workload measured."""

    samples: list = field(default_factory=list)  # scaled request seconds
    raw: list = field(default_factory=list)  # wall-clock request seconds
    calibrations: list = field(default_factory=list)  # calibrate.measure()
    pending: list = field(default_factory=list)  # this cycle's raw seconds
    attempted: int = 0
    failed: int = 0
    incidents: int = 0  # guard degrades (ReliabilityReport.faults)
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def request(self, call, check, *, timed: bool = True):
        """Issue one request; time it and check its answer.  Returns the
        answer, or ``None`` when the request raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failed request, not a crash
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        if timed:
            self.pending.append(dt)
        problem = check(out)
        if problem:
            self.fail(problem)
        return out


def closed_loop(tally: Tally, cycle, seconds: float) -> Tally:
    """Warm up with one untimed cycle on frame 0, then run whole passes
    over the frames until ``seconds`` have elapsed, so every frame
    weighs the same in every run.  A cycle's request times are scaled
    by the mean of the calibrations just before and just after it."""
    cycle(0, timed=False)
    tally.pending.clear()
    start = time.perf_counter()
    while True:
        for f in range(N_FRAMES):
            gc.collect()
            before = calibrate.measure()
            cycle(f, timed=True)
            after = calibrate.measure()
            scale = calibrate.REF_S / ((before + after) / 2)
            tally.samples.extend(dt * scale for dt in tally.pending)
            tally.raw.extend(tally.pending)
            tally.calibrations += [before, after]
            tally.pending.clear()
        if time.perf_counter() - start >= seconds:
            return tally


def percentile(values: list, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (inclusive method)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- terrain workloads ---------------------------------------------------


def _hsr_call(kind: str, frame):
    if kind == "sequential":
        return lambda: SequentialHSR().run(frame)
    return lambda: ParallelHSR(mode=kind).run(frame)


def _hsr_check(f: int, ref: dict):
    segments = [tuple(s) for s in ref["segments"]]

    def check(res) -> str | None:
        if res.k != ref["k"] or res.stats.ops != ref["ops"]:
            return (
                f"frame {f}: k={res.k} ops={res.stats.ops}, reference"
                f" k={ref['k']} ops={ref['ops']}"
            )
        if res.visibility_map.segments != segments:
            return f"frame {f}: visibility_map.segments differ from the reference"
        return None

    return check


def run_terrain(kind: str, inputs: Inputs, ref: dict, seconds: float) -> Tally:
    """Cycle the frames; each cycle is one HSR run of ``kind`` on one
    frame, which computes its own order."""
    checks = [_hsr_check(f, r) for f, r in enumerate(ref["runs"])]
    tally = Tally()

    def cycle(f: int, timed: bool) -> None:
        res = tally.request(
            _hsr_call(kind, inputs.frames[f]), checks[f], timed=timed
        )
        if res is not None and res.reliability is not None:
            tally.incidents += res.reliability.faults

    return closed_loop(tally, cycle, seconds)


# -- viewshed service ------------------------------------------------------


def run_service(kind: str, inputs: Inputs, ref: dict, seconds: float) -> Tally:
    """On ``viewshed-open`` a cycle opens a session on the next frame
    with a private cache, so every open is a miss (fingerprint + D&C
    envelope build).  The query workloads open one session per frame
    before the loop, as a long-lived server would, and a cycle sends the
    frame's 8 sight-line batches or 2 observer batches to its session."""
    tally = Tally()

    def open_check(f: int):
        expect = [tuple(p) for p in ref["envelopes"][f]]

        def check(session) -> str | None:
            if session.envelope().pieces != expect:
                return f"frame {f}: horizon envelope differs from the reference"
            return None

        return check

    def sight_check(f: int, b: int):
        expect = [[tuple(p) for p in parts] for parts in ref["sightlines"][f][b]]

        def check(results) -> str | None:
            got = [
                list(results[j].parts)
                for j in range(0, len(results), SIGHTLINE_STRIDE)
            ]
            if got != expect:
                return f"frame {f} batch {b}: answers differ from query()"
            return None

        return check

    def obs_check(f: int, b: int):
        expect = ref["observers"][f][b]

        def check(results) -> str | None:
            got = [results[j] for j in range(0, len(results), OBSERVER_STRIDE)]
            if got != expect:
                return f"frame {f} batch {b}: answers differ from point_visible()"
            return None

        return check

    def open_session(frame):
        session = ViewshedSession(frame, cache=EnvelopeCache())
        session.envelope()  # what ViewshedServer.start() warms
        return session

    def cycle(f: int, timed: bool) -> None:
        with reliability_run() as report:
            if kind == "session_open":
                frame = inputs.frames[f]
                tally.request(
                    lambda: open_session(frame), open_check(f), timed=timed
                )
            elif kind == "sightline_batch":
                for b, batch in enumerate(inputs.sightlines[f]):
                    tally.request(
                        lambda: sessions[f].query_batch(batch),
                        sight_check(f, b),
                        timed=timed,
                    )
            else:
                for b, batch in enumerate(inputs.observers[f]):
                    tally.request(
                        lambda: sessions[f].points_visible(batch),
                        obs_check(f, b),
                        timed=timed,
                    )
        tally.incidents += report.faults

    sessions = []
    if kind != "session_open":
        sessions = [open_session(frame) for frame in inputs.frames]
    return closed_loop(tally, cycle, seconds)


def run_workload(workload: str, inputs: Inputs, ref: dict, seconds: float) -> Tally:
    kind = KIND[workload]
    if workload.startswith("viewshed-"):
        return run_service(kind, inputs, ref, seconds)
    return run_terrain(kind, inputs, ref, seconds)
