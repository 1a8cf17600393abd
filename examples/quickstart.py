#!/usr/bin/env python
"""Quickstart: generate a terrain, remove hidden surfaces, render.

Runs the paper's parallel algorithm on a fractal terrain, checks it
against the sequential baseline, reports the PRAM cost together with
predicted speedups, and writes an SVG of the visible image.

    python examples/quickstart.py [--size 33] [--seed 7] [--out scene.svg]
"""

from __future__ import annotations

import argparse

from repro import (
    HsrConfig,
    ParallelHSR,
    PramTracker,
    SequentialHSR,
    generate_terrain,
)
from repro.pram import speedup_curve
from repro.render import ascii_visibility, render_visibility_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=33, help="grid size (2**k+1)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="quickstart_scene.svg")
    args = parser.parse_args()

    terrain = generate_terrain("fractal", size=args.size, seed=args.seed)
    print(f"terrain: {terrain}")

    config = HsrConfig()  # one front door: engine / eps / compiled core
    tracker = PramTracker()
    result = ParallelHSR(mode="persistent", config=config).run(
        terrain, tracker=tracker
    )
    print(f"parallel HSR: {result.visibility_map.summary()}")
    print(
        f"PRAM cost: work={tracker.work:.0f} depth={tracker.depth:.0f}"
        f" (parallelism ~{tracker.parallelism:.0f})"
    )

    baseline = SequentialHSR(config=config).run(terrain)
    agree = result.visibility_map.approx_same(baseline.visibility_map)
    print(f"matches sequential baseline: {agree}")
    assert agree, "algorithms diverged — please report this as a bug"

    print("\npredicted time on p processors (Brent):")
    for p, tp, speedup in speedup_curve(
        tracker.work, tracker.depth, [1, 4, 16, 64]
    ):
        print(f"  p={p:>3}: time={tp:>12.0f}  speedup={speedup:.2f}")

    print("\nvisible image (ASCII preview):")
    print(ascii_visibility(result.visibility_map, width=72, height=16))

    render_visibility_svg(result.visibility_map, args.out)
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
