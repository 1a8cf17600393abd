#!/usr/bin/env python
"""Line-of-sight planning: point visibility and perspective views.

Plans a "transmission tower" placement: for each candidate site on a
fractal terrain, how high must a mast be before a distant observer
(at ``x = +inf``, or at a finite perspective viewpoint) can see its
top?  Exercises the unified query façade — the batched
:func:`repro.visible_many` point scan through a
:class:`repro.ViewshedSession`, the preprocessed
:class:`repro.VisibilityOracle` — and the perspective reduction, all
configured through one :class:`repro.HsrConfig`.

    python examples/line_of_sight.py [--size 17] [--candidates 6]
"""

from __future__ import annotations

import argparse

from repro import (
    HsrConfig,
    SequentialHSR,
    ViewshedSession,
    VisibilityOracle,
)
from repro.geometry.primitives import Point3
from repro.hsr.graph import graph_summary
from repro.terrain import Viewpoint, generate_terrain, perspective_transform


def mast_height(oracle: VisibilityOracle, base: Point3, limit=50.0) -> float:
    """Smallest mast height making the top visible (bisection)."""
    if oracle.visible(base):
        return 0.0
    lo, hi = 0.0, limit
    if not oracle.visible(Point3(base.x, base.y, base.z + hi)):
        return float("inf")
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if oracle.visible(Point3(base.x, base.y, base.z + mid)):
            hi = mid
        else:
            lo = mid
    return hi


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=17)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--candidates", type=int, default=6)
    args = parser.parse_args()

    config = HsrConfig()  # one front door: engine/eps/core in one place
    terrain = generate_terrain("fractal", size=args.size, seed=args.seed)
    oracle = VisibilityOracle(terrain, config=config)
    print(f"terrain: {terrain}  (oracle: {oracle.n_checkpoints} checkpoints)")

    # Candidate sites: evenly spaced terrain vertices, answered in one
    # batched point scan through the session façade.
    step = max(1, terrain.n_vertices // args.candidates)
    sites = list(terrain.vertices[::step][: args.candidates])
    session = ViewshedSession(terrain, config=config)
    visible_flags = session.points_visible(sites)
    print(f"\n{'site (x, y, z)':>32} {'visible?':>9} {'mast needed':>12}")
    for v, vis in zip(sites, visible_flags):
        mast = mast_height(oracle, v)
        mast_str = "0 (visible)" if vis else f"{mast:.2f}"
        print(
            f"({v.x:8.2f}, {v.y:8.2f}, {v.z:6.2f}) {str(vis):>9}"
            f" {mast_str:>12}"
        )

    # The same scene through a finite camera.
    xmax = max(v.x for v in terrain.vertices)
    z_hi = terrain.height_range()[1]
    view = Viewpoint(xmax * 1.3 + 1.0, 0.0, z_hi * 2.0)
    scene = perspective_transform(terrain, view)
    res = SequentialHSR(config=config).run(scene)
    stats = graph_summary(res.visibility_map)
    print(
        f"\nperspective view from {tuple(round(c, 1) for c in view)}:"
        f" k={res.k}, image graph has {stats['nodes']:.0f} vertices,"
        f" {stats['edges']:.0f} edges, {stats['components']:.0f}"
        " connected components"
    )


if __name__ == "__main__":
    main()
