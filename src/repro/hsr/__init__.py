"""Hidden-surface removal: the paper's algorithm and its baselines.

* :class:`ParallelHSR` — the reproduction target (PCT + systolic
  prefix + persistent/ACG profile structure).
* :class:`SequentialHSR` — Reif–Sen-style incremental baseline.
* :class:`NaiveHSR` — Θ(n²) all-pairs baseline.
* :class:`ZBufferHSR` — image-space (device-dependent) baseline.
"""

from repro.hsr.cg import CGNode, ProfileIndex
from repro.hsr.graph import graph_summary, visibility_graph
from repro.hsr.intersect import all_intersections_lemma32
from repro.hsr.naive import NaiveHSR
from repro.hsr.parallel import ParallelHSR
from repro.hsr.pct import PCT, build_pct
from repro.hsr.queries import VisibilityOracle, point_visible, visible_many
from repro.hsr.phase2 import PHASE2_MODES, Phase2Result, run_phase2
from repro.hsr.result import (
    HsrResult,
    HsrStats,
    VisibilityMap,
    VisibleSegment,
)
from repro.hsr.sequential import SequentialHSR

__all__ = [
    "CGNode",
    "HsrResult",
    "HsrStats",
    "NaiveHSR",
    "PCT",
    "PHASE2_MODES",
    "ParallelHSR",
    "Phase2Result",
    "ProfileIndex",
    "SequentialHSR",
    "VisibilityMap",
    "VisibilityOracle",
    "VisibleSegment",
    "all_intersections_lemma32",
    "build_pct",
    "graph_summary",
    "point_visible",
    "run_phase2",
    "visibility_graph",
    "visible_many",
]

try:  # the image-space baseline is array-based; optional without numpy
    from repro.hsr.zbuffer import ZBufferHSR, ZBufferImage  # noqa: F401

    __all__ += ["ZBufferHSR", "ZBufferImage"]
except ImportError:  # pragma: no cover - numpy ships in the toolchain
    pass
