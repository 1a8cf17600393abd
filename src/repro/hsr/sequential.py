"""Sequential output-sensitive HSR (Reif–Sen-style baseline).

The paper's sequential reference (§2): process edges front to back,
test each against the current upper profile, splice its visible parts
in.  Every piece the splice removes from the profile is removed
forever, so the aggregate splice cost is charged to profile churn —
near ``O((n + k) log n)`` on the workload families here (the original
Reif–Sen algorithm adds ray-shooting structures to make the per-edge
cost worst-case output-sensitive; the scan inside the edge's y-range
is the honest simple variant, and ``stats.ops`` reports exactly what
it did).

Experiment E4 compares the parallel algorithm's work against this
baseline's operation count — the paper's Remark bounds the ratio by
``O(log n)``.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.envelope.chain import Envelope
from repro.envelope.splice import insert_segment
from repro.hsr.result import HsrResult, HsrStats, VisibilityMap
from repro.ordering.sweep import run_order
from repro.reliability import reliability_run
from repro.terrain.model import Terrain

__all__ = ["SequentialHSR"]


class SequentialHSR:
    """Incremental front-to-back hidden-surface removal.

    Parameters
    ----------
    config:
        :class:`repro.config.HsrConfig` — the unified front door for
        engine/eps/toggle selection.  The ``eps=`` / ``engine=``
        keywords below remain as supported shorthand and override the
        corresponding config fields.
    eps:
        Geometric tolerance (see :mod:`repro.envelope.visibility` for
        the visibility conventions).
    engine:
        Envelope kernel for the per-edge work (see
        :mod:`repro.envelope.engine`); ``None`` selects the default.
        Under ``"numpy"`` the profile lives in **one packed buffer
        owned for the whole run**
        (:class:`repro.envelope.packed.PackedProfile`): with the
        optional core built the whole pass is one compiled loop (a C
        call per 256 inserts, projection and clipping included), else
        each edge is locate → the reference visibility scan and merge
        over the overlapped window → an **in-place** splice into the
        buffer (at most one slice shift into the slack;
        amortized-doubling growth), so the per-edge cost tracks the
        overlapped window instead of paying Θ(profile) copying.
        Results are bit-identical to ``"python"`` — the reported
        ``ops`` are elementary-interval counts, independent of how
        many elements the layout moves.
    """

    def __init__(
        self,
        *,
        eps: Optional[float] = None,
        engine: Optional[str] = None,
        config: Optional["HsrConfig"] = None,
    ):
        from repro.config import HsrConfig

        self.config = HsrConfig.resolve(config, engine=engine, eps=eps)
        self.eps = self.config.eps
        self.engine = self.config.engine

    def _insert_loop(
        self,
        terrain: Terrain,
        order: Sequence[int],
        vmap: Optional[VisibilityMap],
    ) -> tuple[Envelope, int, int]:
        """The front-to-back insertion loop shared by :meth:`run` and
        :meth:`final_profile`: returns ``(profile, ops, max_profile)``,
        recording per-edge visibility into ``vmap`` when given.

        Under ``"numpy"`` the edges are projected straight into ordered
        image lanes (:meth:`Terrain.image_lanes`) and the whole pass is
        one :func:`~repro.envelope.flat_splice.insert_run` — a compiled
        call per 256 inserts when the core is on — whose visible rows
        go into ``vmap`` as one row block.  The profile converts to a
        scalar :class:`Envelope` only here, at the run boundary.
        """
        eps = self.eps
        if self.config.resolved_engine() == "numpy":
            from repro.envelope.flat_splice import insert_run

            run = insert_run(
                terrain.image_lanes(order), eps=eps, config=self.config
            )
            if vmap is not None:
                vmap.add_block(run.rows)
            return run.profile.to_envelope(), run.ops, run.max_profile
        env = Envelope.empty()
        ops = 0
        max_profile = 0
        for edge in order:
            seg = terrain.image_segment(edge)
            res = insert_segment(env, seg, eps=eps)
            env = res.envelope
            ops += res.ops
            if env.size > max_profile:
                max_profile = env.size
            if vmap is not None:
                vmap.add_edge_result(edge, seg, res.visibility)
        return env, ops, max_profile

    def run(
        self,
        terrain: Terrain,
        *,
        order: Optional[Sequence[int]] = None,
    ) -> HsrResult:
        """Compute the visibility map of ``terrain``.

        ``order`` (a front-to-back edge order) is computed by the sweep
        when not supplied; passing one lets experiments share the
        ordering across algorithms.
        """
        t0 = time.perf_counter()
        if order is None:
            # The compiled ordering's int64 array goes to image_lanes as is.
            order = run_order(terrain, self.config)
        vmap = VisibilityMap()
        with reliability_run() as report:
            _env, ops, max_profile = self._insert_loop(terrain, order, vmap)
        stats = HsrStats(
            n_edges=terrain.n_edges,
            k=vmap.k,
            ops=ops,
            wall_time_s=time.perf_counter() - t0,
            extra={"max_profile_size": float(max_profile)},
        )
        order = order.tolist() if hasattr(order, "tolist") else list(order)
        return HsrResult(vmap, stats, order=order, reliability=report)

    def final_profile(
        self, terrain: Terrain, *, order: Optional[Sequence[int]] = None
    ) -> Envelope:
        """The upper profile of the whole scene (the horizon line).

        Shares :meth:`run`'s insertion loop (same kernels, same
        front-to-back order, same ops accounting) and returns the
        resulting profile instead of the visibility map.
        """
        if order is None:
            order = run_order(terrain, self.config)
        with reliability_run():
            env, _ops, _max_profile = self._insert_loop(terrain, order, None)
        return env
