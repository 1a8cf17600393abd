"""The paper's algorithm, end to end.

:class:`ParallelHSR` runs the full pipeline of §3:

1. front-to-back edge ordering (separator-tree role,
   :mod:`repro.ordering`);
2. Phase 1 — intermediate profiles bottom-up over the PCT
   (:mod:`repro.hsr.pct`, Lemma 3.1);
3. Phase 2 — actual profiles root-to-leaves with visibility extraction
   at the leaves (:mod:`repro.hsr.phase2`, the systolic prefix);
4. assembly of the object-space visibility map.

Phase 1, and the Phase-2 ``direct`` and ``persistent`` modes, each
run as one compiled call when the compiled core is on; without it
every phase runs the Python reference, merge by merge.  Both run in
this process, the layers of a phase one after another.  Every
step charges the CREW-PRAM cost tracker, so a run yields the (work,
depth) pair Theorem 3.1 bounds; :mod:`repro.pram.schedule` turns
those into time-on-p curves.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from typing import Optional, Sequence

from repro.envelope import _ccore
from repro.hsr.pct import build_pct
from repro.hsr.phase2 import PHASE2_MODES, run_phase2
from repro.hsr.result import HsrResult, HsrStats, VisibilityMap
from repro.ordering.separator import SeparatorTree
from repro.ordering.sweep import run_order
from repro.pram.tracker import PramTracker
from repro.reliability import reliability_run
from repro.terrain.model import Terrain

__all__ = ["ParallelHSR"]


class ParallelHSR:
    """Output-size sensitive parallel hidden-surface removal.

    Parameters
    ----------
    mode:
        Phase-2 engine: ``"direct"`` (array merges), ``"persistent"``
        (splice merges into the chunked-rope store; default) or
        ``"acg"`` (hull-pruned searches on the shared persistent
        structure — the paper's full machinery).  All three produce
        the same visibility map.  With the compiled core, ``direct``
        and ``persistent`` run each phase in one C call (the rope's
        versions kept in the run's core context); ``acg`` and
        ``measure_sharing`` keep the Python rope.
    config:
        :class:`repro.config.HsrConfig` — the unified front door.
        ``use_compiled_insert`` switches the one-call-per-phase
        compiled kernels.  The ``eps=`` / ``engine=`` keywords remain
        as shorthand and override the config fields.
    eps:
        Geometric tolerance.
    measure_sharing:
        Record the Fig.-1/Fig.-3 sharing statistics (adds a full-tree
        traversal per layer; off by default).
    engine:
        Envelope kernel; see :mod:`repro.envelope.engine`.  ``None``
        selects the default (NumPy when available) — with the compiled
        core on, each phase then runs as one compiled call; else, and
        under ``"python"``, every merge runs the reference.
    """

    def __init__(
        self,
        *,
        mode: str = "persistent",
        eps: Optional[float] = None,
        measure_sharing: bool = False,
        engine: Optional[str] = None,
        config: Optional["HsrConfig"] = None,
    ):
        from repro.config import HsrConfig

        if mode not in PHASE2_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; choose from {PHASE2_MODES}"
            )
        self.mode = mode
        self.config = HsrConfig.resolve(config, engine=engine, eps=eps)
        self.eps = self.config.eps
        self.measure_sharing = measure_sharing
        self.engine = self.config.engine

    def run(
        self,
        terrain: Terrain,
        *,
        order: Optional[Sequence[int]] = None,
        tracker: Optional[PramTracker] = None,
    ) -> HsrResult:
        """Compute the visibility map; see class docstring.

        Pass a :class:`PramTracker` to collect (work, depth); the
        returned result carries it in ``result.tracker``.
        """
        t0 = time.perf_counter()

        def phase(name):
            return tracker.phase(name) if tracker is not None else nullcontext()

        if order is None:
            with phase("ordering"):
                if tracker is not None:
                    # The Tamassia–Vitter construction is O(log n) deep
                    # with n processors (paper Fact 1); charge that.
                    n = max(terrain.n_edges, 2)
                    depth = math.ceil(math.log2(n))
                    with tracker.parallel() as par:
                        par.spawn(n * depth, depth)
                order = run_order(terrain, self.config)
        # The compiled ordering's int64 array goes to image_lanes as is.
        ordered = order
        order = order.tolist() if hasattr(order, "tolist") else list(order)

        tree = SeparatorTree(order)
        # When the compiled core runs the direct and persistent phases,
        # project straight into front-to-back image lanes, as
        # SequentialHSR does; the reference paths work on segment
        # objects.
        lanes = image_segments = None
        if (
            self.mode != "acg"
            and self.config.resolved_engine() == "numpy"
            and _ccore.compiled_enabled(self.config, "pct_merge", "phase2_merge")
        ):
            lanes = terrain.image_lanes(ordered)
        else:
            image_segments = terrain.image_segments()

        with reliability_run() as report:
            with phase("phase1"):
                pct = build_pct(
                    tree,
                    image_segments,
                    eps=self.eps,
                    tracker=tracker,
                    measure_sharing=self.measure_sharing,
                    engine=self.engine,
                    config=self.config,
                    lanes=lanes,
                )
            with phase("phase2"):
                ph2 = run_phase2(
                    pct,
                    image_segments,
                    mode=self.mode,
                    eps=self.eps,
                    tracker=tracker,
                    measure_sharing=self.measure_sharing,
                    engine=self.engine,
                    config=self.config,
                )

        vmap = VisibilityMap()
        if ph2.rows is not None:
            vmap.add_block(ph2.rows)
        else:
            if image_segments is None:
                image_segments = pct.image_segments()
            for edge in order:
                vis = ph2.visibility[edge]
                vmap.add_edge_result(edge, image_segments[edge], vis)

        stats = HsrStats(
            n_edges=terrain.n_edges,
            k=vmap.k,
            ops=pct.ops + ph2.ops,
            crossings_found=ph2.crossings,
            wall_time_s=time.perf_counter() - t0,
            extra={
                "phase1_ops": float(pct.ops),
                "phase2_ops": float(ph2.ops),
                "pct_pieces": float(pct.total_profile_pieces()),
                "nodes_allocated": float(ph2.nodes_allocated),
                "pieces_materialised": float(ph2.pieces_materialised),
                "tree_height": float(tree.height),
            },
        )
        result = HsrResult(
            vmap, stats, order=order, tracker=tracker, reliability=report
        )
        result.phase2 = ph2  # type: ignore[attr-defined]
        result.pct = pct  # type: ignore[attr-defined]
        return result
