"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import random

import pytest

from repro.envelope.engine import HAVE_NUMPY
from repro.geometry.segments import ImageSegment

# Test modules that cannot even be collected without NumPy: they
# import it directly, or import the array-based parts of the library
# (terrain generators / DEM, z-buffer, PRAM primitives, flat kernels).
# The CI matrix runs the remaining suite on the no-numpy leg to keep
# the pure-python engine fallback green.
if not HAVE_NUMPY:  # pragma: no cover - numpy ships in the toolchain
    collect_ignore = [
        "test_bench.py",
        "test_build_ccore.py",
        "test_cli.py",
        "test_envelope_ccore.py",
        "test_envelope_flat.py",
        "test_envelope_flat_splice.py",
        "test_envelope_flat_visibility.py",
        "test_envelope_packed.py",
        "test_hsr_graph.py",
        "test_hsr_pct_phase2.py",
        "test_hsr_pipeline.py",
        "test_hsr_property.py",
        "test_hsr_queries.py",
        "test_hsr_zbuffer.py",
        "test_ordering.py",
        "test_adversarial.py",
        "test_reliability.py",
        "test_pram_primitives.py",
        "test_render.py",
        "test_scenarios.py",
        "test_terrain_dem_io.py",
        "test_terrain_generators.py",
        "test_terrain_generators_properties.py",
        "test_terrain_perspective.py",
    ]
    # test_scenarios_spec.py stays collected: the spec layer and the
    # `repro scenarios` CLI are deliberately stdlib-only.


@pytest.fixture
def rng():
    """Deterministic RNG per test."""
    return random.Random(0xC0FFEE)


def random_image_segments(
    rng: random.Random,
    count: int,
    *,
    y_range: tuple[float, float] = (0.0, 100.0),
    z_range: tuple[float, float] = (0.0, 50.0),
    min_width: float = 0.5,
) -> list[ImageSegment]:
    """Random non-vertical image segments with distinct sources."""
    out = []
    lo, hi = y_range
    for i in range(count):
        y1 = rng.uniform(lo, hi - min_width)
        y2 = rng.uniform(y1 + min_width, hi)
        z1 = rng.uniform(*z_range)
        z2 = rng.uniform(*z_range)
        out.append(ImageSegment(y1, z1, y2, z2, i))
    return out


def brute_force_envelope_value(segments, y: float) -> float:
    """Reference upper-envelope value at ``y``: max over segments."""
    best = float("-inf")
    for s in segments:
        if s.is_vertical:
            continue
        if s.y1 <= y <= s.y2:
            v = s.z_at(y)
            if v > best:
                best = v
    return best
