"""Seeded workload inputs: terrain frames, sight-line and observer batches.

Everything a workload feeds the program is made here from ``--seed``,
so the timed process and the reference process build identical inputs.
The program only ever receives the generated terrains and query lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.terrain.generators import generate_terrain
from repro.terrain.model import Terrain

#: Fractal grid size per workload (``2**k + 1``).  The two
#: ``paper-*`` workloads run on size 33: at size 65 one ParallelHSR run
#: takes 1.3-2 s on a 2-core x86-64 VM, too few samples per run for a
#: steady median, and the python-engine reference alone ~11 s a run.
SIZES = {
    "sequential-flyover": 65,
    "paper-direct": 33,
    "paper-persistent": 33,
    "viewshed-open": 65,
    "viewshed-sightlines": 65,
    "viewshed-observers": 65,
}
SERVICE = ("viewshed-open", "viewshed-sightlines", "viewshed-observers")

N_FRAMES = 8
SIGHTLINE_BATCHES = 8
SIGHTLINE_BATCH = 256
OBSERVER_BATCHES = 2
OBSERVER_BATCH = 64

#: Every n-th answer of a batch is checked against the scalar reference.
SIGHTLINE_STRIDE = 32
OBSERVER_STRIDE = 16


@dataclass
class Inputs:
    frames: list[Terrain]
    #: ``sightlines[frame][batch]`` -> ``(y1, z1, y2, z2)`` tuples.
    sightlines: list = field(default_factory=list)
    #: ``observers[frame][batch]`` -> ``(x, y, z)`` tuples.
    observers: list = field(default_factory=list)


def make_inputs(workload: str, seed: int, size: int | None = None) -> Inputs:
    """Materialise one workload's inputs (deterministic in ``seed``).

    One fractal terrain viewed from ``N_FRAMES`` evenly spaced
    azimuths (seeded offset), each frame's edge list forced so no
    timed operation pays for it.  The service workloads add the same
    query batches per frame, so one seed gives all three the same
    frames and queries.
    """
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    base = generate_terrain(
        "fractal", seed=rng.randrange(2**31), size=size or SIZES[workload]
    )
    offset = rng.uniform(0.0, 360.0 / N_FRAMES)
    azimuths = [offset + 360.0 * i / N_FRAMES for i in range(N_FRAMES)]
    frames = [base.rotated(a) for a in azimuths]
    for frame in frames:
        frame.edges  # noqa: B018 - materialise the cached edge list
    inputs = Inputs(frames)
    if workload in SERVICE:
        for frame in frames:
            inputs.sightlines.append(
                [
                    _sightlines(rng, frame, SIGHTLINE_BATCH)
                    for _ in range(SIGHTLINE_BATCHES)
                ]
            )
            inputs.observers.append(
                [
                    _observers(rng, frame, OBSERVER_BATCH)
                    for _ in range(OBSERVER_BATCHES)
                ]
            )
    return inputs


def _sightlines(rng: random.Random, frame: Terrain, n: int) -> list:
    """Image-plane probe segments spanning the frame's height range,
    so answers mix hidden, partly and fully visible."""
    _x0, y0, _x1, y1 = frame.xy_bounds()
    zlo, zhi = frame.height_range()
    span = y1 - y0
    out = []
    for _ in range(n):
        ya = rng.uniform(y0, y1)
        yb = min(y1, ya + rng.uniform(0.02, 0.3) * span)
        out.append(
            (ya, rng.uniform(zlo, zhi * 1.1), yb, rng.uniform(zlo, zhi * 1.1))
        )
    return out


def _observers(rng: random.Random, frame: Terrain, n: int) -> list:
    x0, y0, x1, y1 = frame.xy_bounds()
    zlo, zhi = frame.height_range()
    return [
        (rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(zlo, zhi))
        for _ in range(n)
    ]
