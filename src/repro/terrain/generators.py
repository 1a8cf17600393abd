"""Synthetic terrain workload generators.

The paper has no testbed; output-sensitivity experiments need terrain
families whose input size ``n`` and output size ``k`` can be swept
independently (DESIGN.md §2).  Every generator takes a ``seed`` and is
fully deterministic.

Families
--------
``fractal``
    Diamond–square heightfield — the classic "realistic" terrain with
    mid-range occlusion; the workhorse for scaling experiments E1/E2.
``ridge``
    Parallel ridges perpendicular to the view direction.  Ridge
    heights *decrease* away from the viewer, so nearly everything is
    occluded: small ``k``.
``valley``
    Ridges *increasing* away from the viewer (an amphitheatre): nearly
    everything visible, ``k = Θ(n)`` and crossings abound.
``shielded_basin``
    A tall front wall hiding rough detail behind it; the wall height
    factor ``occlusion`` sweeps ``k`` at fixed ``n`` (experiment E3).
``plateau``
    Large flat steps — many collinear/degenerate contacts, a stress
    test for tie handling.
``random``
    Random xy sites (Delaunay-triangulated) with smooth random
    heights (sum of Gaussian bumps).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.errors import TerrainError
from repro.geometry.primitives import Point2, Point3
from repro.terrain.model import Terrain
from repro.terrain.triangulate import delaunay_faces, grid_faces

__all__ = [
    "generate_terrain",
    "fractal_terrain",
    "ridge_terrain",
    "valley_terrain",
    "shielded_basin_terrain",
    "plateau_terrain",
    "random_terrain",
    "grid_terrain_from_heights",
    "GENERATORS",
]


def _jitter_grid_xy(
    rows: int, cols: int, spacing: float, rng: np.random.Generator
) -> np.ndarray:
    """Grid xy-coordinates with small deterministic jitter.

    The jitter (±20% of spacing) kills the exact collinearity /
    coincident-y degeneracies a perfect lattice would feed the sweep
    and envelope code, while preserving the triangulation's planarity
    (jitter is well below half the spacing).
    """
    gx, gy = np.meshgrid(
        np.arange(cols, dtype=np.float64),
        np.arange(rows, dtype=np.float64),
    )
    jx = rng.uniform(-0.2, 0.2, size=gx.shape)
    jy = rng.uniform(-0.2, 0.2, size=gy.shape)
    xy = np.stack(
        [(gx + jx) * spacing, (gy + jy) * spacing], axis=-1
    )
    return xy


def grid_terrain_from_heights(
    heights: np.ndarray,
    *,
    spacing: float = 1.0,
    jitter_seed: int | None = 0,
) -> Terrain:
    """Terrain from a 2-D height array over a (jittered) regular grid.

    ``heights[r, c]`` becomes the z of grid vertex ``(r, c)``; x runs
    along rows (the view direction), y along columns.  Pass
    ``jitter_seed=None`` for an exact lattice (degenerate on purpose).
    """
    h = np.asarray(heights, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] < 2 or h.shape[1] < 2:
        raise TerrainError(f"heights must be at least 2x2, got {h.shape}")
    rows, cols = h.shape
    if jitter_seed is None:
        gx, gy = np.meshgrid(
            np.arange(cols, dtype=np.float64),
            np.arange(rows, dtype=np.float64),
        )
        xy = np.stack([gx * spacing, gy * spacing], axis=-1)
    else:
        rng = np.random.default_rng(jitter_seed)
        xy = _jitter_grid_xy(rows, cols, spacing, rng)
    # Vertex (r, c) is row r * cols + c.  Note the swap: grid rows
    # advance along +x (toward the viewer at +inf), columns along +y
    # (across the image).
    verts = np.stack((xy[..., 1], xy[..., 0], h), axis=-1).reshape(-1, 3)
    return Terrain(verts, grid_faces(rows, cols), validate=True)


def _diamond_square(size: int, roughness: float, rng: np.random.Generator) -> np.ndarray:
    """Classic diamond–square fractal heightfield of ``size x size``
    (``size`` must be ``2**k + 1``)."""
    if size < 3 or (size - 1) & (size - 2) != 0:
        raise TerrainError(f"diamond-square size must be 2**k+1, got {size}")
    h = np.zeros((size, size), dtype=np.float64)
    h[0, 0], h[0, -1], h[-1, 0], h[-1, -1] = rng.uniform(0, 1, 4)
    step = size - 1
    scale = 1.0
    while step > 1:
        half = step // 2
        # Diamond step.
        for r in range(half, size, step):
            for c in range(half, size, step):
                avg = (
                    h[r - half, c - half]
                    + h[r - half, c + half]
                    + h[r + half, c - half]
                    + h[r + half, c + half]
                ) / 4.0
                h[r, c] = avg + rng.uniform(-scale, scale)
        # Square step.
        for r in range(0, size, half):
            start = half if (r // half) % 2 == 0 else 0
            for c in range(start, size, step):
                total = 0.0
                cnt = 0
                for dr, dc in ((-half, 0), (half, 0), (0, -half), (0, half)):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < size and 0 <= cc < size:
                        total += h[rr, cc]
                        cnt += 1
                h[r, c] = total / cnt + rng.uniform(-scale, scale)
        step = half
        scale *= roughness
    return h


def fractal_terrain(
    *, size: int = 33, roughness: float = 0.55, z_scale: float = 6.0, seed: int = 0
) -> Terrain:
    """Diamond–square fractal terrain (``size`` must be ``2**k + 1``)."""
    rng = np.random.default_rng(seed)
    h = _diamond_square(size, roughness, rng)
    h = (h - h.min()) * z_scale
    return grid_terrain_from_heights(h, jitter_seed=seed + 1)


def ridge_terrain(
    *, rows: int = 24, cols: int = 24, n_ridges: int = 5, seed: int = 0
) -> Terrain:
    """Parallel ridges with heights decreasing away from the viewer.

    Rows advance toward the viewer, so the first (nearest) ridge is
    the tallest and hides most of what lies behind: small ``k``.
    """
    rng = np.random.default_rng(seed)
    r_idx = np.arange(rows, dtype=np.float64)[:, None]
    phase = 2.0 * math.pi * n_ridges * r_idx / rows
    # Decay with distance from the viewer (viewer side is high r).
    decay = (r_idx + 1) / rows
    h = (1.2 + np.sin(phase)) * decay * 8.0
    h = h + 0.15 * rng.standard_normal((rows, 1))
    h = np.broadcast_to(h, (rows, cols)).copy()
    h += 0.05 * rng.standard_normal((rows, cols))
    return grid_terrain_from_heights(h, jitter_seed=seed + 1)


def valley_terrain(
    *, rows: int = 24, cols: int = 24, n_ridges: int = 5, seed: int = 0
) -> Terrain:
    """Amphitheatre: ridges rising away from the viewer, so successive
    ridges peek over the nearer ones — nearly everything visible."""
    rng = np.random.default_rng(seed)
    r_idx = np.arange(rows, dtype=np.float64)[:, None]
    phase = 2.0 * math.pi * n_ridges * r_idx / rows
    rise = (rows - r_idx) / rows  # far side is high
    h = (1.2 + np.sin(phase)) * rise * 8.0
    h = np.broadcast_to(h, (rows, cols)).copy()
    h += 0.05 * rng.standard_normal((rows, cols))
    return grid_terrain_from_heights(h, jitter_seed=seed + 1)


def shielded_basin_terrain(
    *,
    rows: int = 24,
    cols: int = 24,
    occlusion: float = 1.0,
    detail: float = 3.0,
    seed: int = 0,
) -> Terrain:
    """A front wall shielding rough detail behind it.

    ``occlusion`` in ``[0, ~2]`` scales the wall height: at 0 the basin
    detail is fully exposed (large ``k``), around 1.5+ the wall hides
    almost everything (``k`` near the wall size alone).  Experiment E3
    sweeps this knob at fixed ``n``.
    """
    rng = np.random.default_rng(seed)
    h = detail * rng.random((rows, cols))
    # Clamp so degenerate 1-row grids reach grid_terrain_from_heights
    # and fail its clean "at least 2x2" TerrainError instead of a raw
    # broadcast ValueError here.
    wall_rows = min(rows, max(2, rows // 8))
    wall_height = occlusion * (detail + 4.0)
    # Viewer side is high r: the wall occupies the nearest rows.
    h[-wall_rows:, :] = wall_height + 0.1 * rng.random((wall_rows, cols))
    return grid_terrain_from_heights(h, jitter_seed=seed + 1)


def plateau_terrain(
    *, rows: int = 24, cols: int = 24, steps: int = 4, seed: int = 0
) -> Terrain:
    """Flat terraces — heavy tie/collinearity stress for the kernels."""
    rng = np.random.default_rng(seed)
    r_idx = np.arange(rows)[:, None]
    level = (r_idx * steps // rows).astype(np.float64)
    h = np.broadcast_to(level * 3.0, (rows, cols)).copy()
    h += 0.01 * rng.standard_normal((rows, cols))
    return grid_terrain_from_heights(h, jitter_seed=seed + 1)


def random_terrain(
    *, n_points: int = 200, n_bumps: int = 12, seed: int = 0
) -> Terrain:
    """Random sites, Delaunay faces, smooth Gaussian-bump heights."""
    if n_points < 3:
        raise TerrainError("random terrain needs at least 3 points")
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 100.0, size=(n_points, 2))
    centers = rng.uniform(0.0, 100.0, size=(n_bumps, 2))
    amps = rng.uniform(2.0, 10.0, size=n_bumps)
    widths = rng.uniform(8.0, 25.0, size=n_bumps)
    d2 = ((xy[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
    z = (amps[None, :] * np.exp(-d2 / (2 * widths[None, :] ** 2))).sum(axis=1)
    pts2 = [Point2(float(x), float(y)) for x, y in xy]
    faces = delaunay_faces(pts2)
    verts = [
        Point3(float(x), float(y), float(h))
        for (x, y), h in zip(xy, z)
    ]
    return Terrain(verts, faces, validate=True)


GENERATORS: dict[str, Callable[..., Terrain]] = {
    "fractal": fractal_terrain,
    "ridge": ridge_terrain,
    "valley": valley_terrain,
    "shielded_basin": shielded_basin_terrain,
    "plateau": plateau_terrain,
    "random": random_terrain,
}


def generate_terrain(kind: str, **params: object) -> Terrain:
    """Dispatch to a generator family by name (see module docstring)."""
    try:
        gen = GENERATORS[kind]
    except KeyError:
        raise TerrainError(
            f"unknown terrain kind {kind!r};"
            f" available: {sorted(GENERATORS)}"
        ) from None
    return gen(**params)  # type: ignore[arg-type]
