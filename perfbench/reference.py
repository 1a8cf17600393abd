"""Reference answers for one workload, computed with the python engine.

Run as a separate process by ``run.py`` so the reference computation's
memory and allocator state never reach the timed process.  Prints one
JSON object on stdout:

* terrain workloads: ``{"runs": [frame] -> {"k", "ops", "segments"}}``
  — one ``HsrConfig(engine="python")`` run per frame of the algorithm
  and mode the workload times;
* service workloads: what the workload's request answers —
  ``"envelopes": [frame] -> pieces`` (the python-engine session's
  horizon envelope), ``"sightlines": [frame][batch][sample] -> parts``
  (scalar ``ViewshedSession.query`` on every ``SIGHTLINE_STRIDE``-th
  sight line) or ``"observers": [frame][batch][sample] -> bool``
  (``point_visible`` on every ``OBSERVER_STRIDE``-th observer).

JSON keeps every float digit (``repr`` round trip), so the timed
process can compare bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from inputs import (  # noqa: E402
    OBSERVER_STRIDE,
    SIGHTLINE_STRIDE,
    make_inputs,
)
from repro.config import HsrConfig  # noqa: E402
from repro.hsr import ParallelHSR, SequentialHSR  # noqa: E402
from repro.service import EnvelopeCache, ViewshedSession  # noqa: E402
from workloads import KIND  # noqa: E402

PYTHON = HsrConfig(engine="python")


def hsr_reference(kind: str, inputs) -> dict:
    runs = []
    for frame in inputs.frames:
        if kind == "sequential":
            res = SequentialHSR(config=PYTHON).run(frame)
        else:
            res = ParallelHSR(mode=kind, config=PYTHON).run(frame)
        runs.append(
            {
                "k": res.k,
                "ops": res.stats.ops,
                "segments": [list(s) for s in res.visibility_map.segments],
            }
        )
    return {"runs": runs}


def service_reference(kind: str, inputs) -> dict:
    out: dict = {"envelopes": [], "sightlines": [], "observers": []}
    for f, frame in enumerate(inputs.frames):
        session = ViewshedSession(frame, config=PYTHON, cache=EnvelopeCache())
        if kind == "session_open":
            out["envelopes"].append([list(p) for p in session.envelope().pieces])
        elif kind == "sightline_batch":
            out["sightlines"].append(
                [
                    [
                        [list(p) for p in session.query(batch[j]).parts]
                        for j in range(0, len(batch), SIGHTLINE_STRIDE)
                    ]
                    for batch in inputs.sightlines[f]
                ]
            )
        else:
            out["observers"].append(
                [
                    [
                        session.point_visible(batch[j])
                        for j in range(0, len(batch), OBSERVER_STRIDE)
                    ]
                    for batch in inputs.observers[f]
                ]
            )
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(KIND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", type=int, default=None)
    args = ap.parse_args()
    inputs = make_inputs(args.workload, args.seed, args.size)
    kind = KIND[args.workload]
    if args.workload.startswith("viewshed-"):
        out = service_reference(kind, inputs)
    else:
        out = hsr_reference(kind, inputs)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
