#!/usr/bin/env python
"""GIS horizon analysis from a DEM grid.

Builds a synthetic ESRI-ASCII digital elevation model (the common GIS
exchange format), imports it as a TIN, and computes:

* the visible surface from a given compass direction (which terrain
  edges a distant observer can see — the "viewshed-from-infinity"),
* the horizon profile (the scene's upper envelope), served through a
  :class:`repro.ViewshedSession` (one coalesced batched query against
  the cached horizon instead of per-probe sweeps),
* a comparison of the object-space result against an image-space
  z-buffer at several resolutions.

Everything runs through the unified front door: one
:class:`repro.HsrConfig` threads engine / eps / core choices to the
algorithms and the query service alike.

    python examples/gis_viewshed.py [--direction 90] [--rows 40]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro import (
    HsrConfig,
    ParallelHSR,
    SequentialHSR,
    ViewshedSession,
)
from repro.hsr import ZBufferHSR
from repro.render import render_envelope_svg, render_visibility_svg
from repro.terrain import dem_to_terrain, write_esri_ascii


def synthetic_dem(rows: int, cols: int, seed: int) -> np.ndarray:
    """A DEM with a river valley between two ranges (classic viewshed
    demo geometry)."""
    rng = np.random.default_rng(seed)
    r = np.linspace(-1, 1, rows)[:, None]
    c = np.linspace(-1, 1, cols)[None, :]
    ranges = 40 * np.exp(-((c - 0.45) ** 2) / 0.03) + 55 * np.exp(
        -((c + 0.5) ** 2) / 0.08
    )
    valley = 1.0 - 0.4 * np.exp(-(c**2) / 0.01)
    rolling = 6 * np.sin(3.1 * r) * np.cos(2.3 * c)
    return (ranges * valley + rolling + 3 * rng.random((rows, cols))).clip(0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=40)
    parser.add_argument("--cols", type=int, default=40)
    parser.add_argument(
        "--direction",
        type=float,
        default=90.0,
        help="compass direction the observer looks *from* (degrees)",
    )
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--outdir", default=".")
    args = parser.parse_args()
    config = HsrConfig()

    heights = synthetic_dem(args.rows, args.cols, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        dem_path = Path(tmp) / "demo.asc"
        write_esri_ascii(heights, dem_path, cellsize=30.0)
        terrain = dem_to_terrain(dem_path, z_exaggeration=1.0)
    print(f"DEM: {args.rows}x{args.cols} cells -> {terrain}")

    # Rotate so the requested compass direction becomes the canonical
    # +x viewing axis.
    scene = terrain.rotated(-args.direction)

    result = ParallelHSR(mode="persistent", config=config).run(scene)
    check = SequentialHSR(config=config).run(scene)
    assert result.visibility_map.approx_same(check.visibility_map)
    visible = len(result.visibility_map.visible_edges())
    print(
        f"viewshed from azimuth {args.direction:.0f}°:"
        f" {visible}/{scene.n_edges} edges visible, k={result.k}"
    )

    horizon = SequentialHSR(config=config).final_profile(scene)
    print(f"horizon profile: {horizon.size} pieces")

    # The same horizon, through the query service: probe sight lines
    # at several altitudes in one coalesced batched kernel launch.
    session = ViewshedSession(scene, config=config)
    ys = sorted({v.y for v in scene.vertices})
    z_lo, z_hi = scene.height_range()
    probes = [
        (ys[0], z, ys[-1], z)
        for z in np.linspace(z_lo, z_hi * 1.1, 8)
    ]
    answers = session.query_batch(probes)
    span = ys[-1] - ys[0]
    clear = sum(
        1
        for a in answers
        if abs(sum(p.yb - p.ya for p in a.parts) - span) < 1e-9
    )
    print(
        f"sight-line probes: {len(probes)} queries in"
        f" {session.stats['batches']} batched launch,"
        f" {clear} altitudes clear the whole ridge line"
    )

    outdir = Path(args.outdir)
    render_visibility_svg(
        result.visibility_map, outdir / "viewshed.svg", title="viewshed"
    )
    render_envelope_svg(horizon, outdir / "horizon.svg", title="horizon")
    print(f"wrote {outdir / 'viewshed.svg'} and {outdir / 'horizon.svg'}")

    print("\nobject-space vs z-buffer (visible arc length):")
    ref = result.visibility_map.total_visible_length()
    print(f"  object-space: {ref:10.1f}  (resolution independent)")
    for px in (64, 128, 256):
        zb = ZBufferHSR(width=px, height=px).run(scene)
        zl = zb.visibility_map.total_visible_length()
        print(
            f"  z-buffer {px:>3}x{px:<3}: {zl:10.1f}"
            f"  (ratio {zl / ref:.3f}, {px * px} pixels)"
        )


if __name__ == "__main__":
    main()
