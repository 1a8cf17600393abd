"""Phase 2: actual profiles by systolic prefix propagation.

From the paper (§2.1/§3.1): starting at the PCT root, proceed layer by
layer toward the leaves.  Every node holds an *inherited* profile —
the actual profile ``P_i`` of all edges preceding its subtree — and
produces its children's inherited profiles:

    left.inherited  = v.inherited                      (shared!)
    right.inherited = merge(v.inherited, Phase1(left))

At a leaf with front-to-back position ``i`` the inherited profile is
exactly ``P_{i-1}``, and the visible portion of edge ``e_i`` is the
part of its projection above it.

Three interchangeable modes compute the merges (same output, different
cost profile — experiment E11's ablation):

``direct``
    Array-envelope merges by local splice
    (:func:`repro.envelope.splice.splice_merge`): only the window of
    the inherited profile overlapping the intermediate envelope goes
    through the merge sweep, but each merge still *copies* the full
    inherited profile into the child's (per-layer copying Θ(Σ |P_i|),
    reported as ``pieces_materialised`` — the cost the persistent
    representation is there to avoid).
``persistent``
    Profiles are persistent versions in the chunked rope
    (:mod:`repro.persistence.rope`); a merge splices only the y-range
    of the intermediate profile and shares the rest (paper Figs. 1/3 —
    this is where the persistent structure earns the output-sensitive
    work bound).  Left children share their parent's version outright:
    zero copying.
``acg``
    Like ``persistent``, but crossings inside the spliced range are
    located by hull-pruned searches on the chunk-augmented
    (Chazelle–Guibas style) structure instead of a linear sweep
    (:mod:`repro.hsr.acg_rope`).

On the numpy engine with the compiled core, the whole of a ``direct``
or ``persistent`` Phase 2 — every merge and leaf query — runs as one
``repro_phase2_run`` call, which walks the tree itself and keeps the
inherited profiles in its context (for ``persistent``, the rope's
versions: chunks as runs of a piece arena, versions as spines of
chunks).  Otherwise each node runs the reference —
:func:`~repro.envelope.splice.splice_merge` and
:func:`~repro.envelope.visibility.visible_parts` for ``direct``, the
Python rope's :func:`~repro.persistence.rope.rope_splice_merge` and
:func:`~repro.persistence.rope.rope_visible_parts` for ``persistent``
— which the compiled phase is bit-exact against, ``ops``, crossings,
``nodes_allocated`` and layer stats included.  A compiled call that
faults (guard site ``phase2_merge``) reruns Phase 2 from the root on
the reference.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.envelope.chain import Envelope
from repro.envelope.engine import resolve_engine
from repro.envelope.splice import splice_merge
from repro.envelope.visibility import VisibilityResult, VisiblePart, visible_parts
from repro.errors import HsrError
from repro.geometry.primitives import EPS
from repro.geometry.segments import ImageSegment
from repro.hsr.pct import PCT
from repro.persistence import rope as _rope
from repro.pram.tracker import PramTracker
from repro.reliability import guard as _guard

__all__ = ["Phase2Result", "run_phase2", "PHASE2_MODES"]

PHASE2_MODES = ("direct", "persistent", "acg")


@dataclass
class LayerStats:
    """Per-PCT-layer instrumentation (the paper's analysis is
    per-layer: "all the intersections at the next layer of PCT")."""

    depth: int
    merges: int = 0
    ops: int = 0
    crossings: int = 0
    inherited_pieces: int = 0
    shared_nodes: int = 0
    total_nodes: int = 0


@dataclass
class Phase2Result:
    """Visibility per edge + instrumentation."""

    visibility: dict[int, VisibilityResult] = field(default_factory=dict)
    ops: int = 0
    crossings: int = 0
    layers: list[LayerStats] = field(default_factory=list)
    #: persistent modes: piece slots written into fresh rope chunks
    #: during phase 2.
    nodes_allocated: int = 0
    #: direct mode: envelope pieces materialised (the copying cost).
    pieces_materialised: int = 0
    #: compiled direct and persistent modes: every edge's clipped
    #: visible parts in front-to-back order as one ``(5, m)`` float64
    #: row block (``ya, za, yb, zb``, then the edge as int64 bits) —
    #: the input of :meth:`repro.hsr.result.VisibilityMap.add_block`;
    #: ``None`` when some leaf was answered on another path.
    rows: Optional[object] = None


def run_phase2(
    pct: PCT,
    image_segments: Optional[Sequence[ImageSegment]],
    *,
    mode: str = "persistent",
    eps: float = EPS,
    tracker: Optional[PramTracker] = None,
    measure_sharing: bool = False,
    engine: Optional[str] = None,
    config=None,
) -> Phase2Result:
    """Run Phase 2 over a built PCT (see module docstring).

    ``engine`` and ``config`` (:class:`repro.config.HsrConfig`) select
    the compiled phase call of ``direct`` and ``persistent``: it runs
    on the numpy engine when the core is on and the PCT was built in
    it (its CSR :attr:`PCT.block`).  ``measure_sharing`` keeps
    ``persistent`` on the Python rope, whose piece objects the sharing
    meter counts.
    ``image_segments`` may be ``None`` when the PCT holds the leaves'
    lanes (:attr:`PCT.lanes`).
    """
    if mode not in PHASE2_MODES:
        raise HsrError(
            f"unknown phase-2 mode {mode!r}; choose from {PHASE2_MODES}"
        )
    if (
        (mode == "direct" or (mode == "persistent" and not measure_sharing))
        and pct.block is not None
        and resolve_engine(engine) == "numpy"
    ):
        from repro.envelope import _ccore

        if _ccore.compiled_enabled(config, "phase2_merge"):
            with _ccore.borrowed() as core:
                out = _phase2_compiled(pct, mode, eps, tracker, core)
            if out is not None:
                return out
    if image_segments is None:
        image_segments = pct.image_segments()
    if mode == "direct":
        return _phase2_direct(pct, image_segments, eps, tracker)
    return _phase2_persistent_rope(
        pct,
        image_segments,
        eps,
        tracker,
        use_acg=(mode == "acg"),
        measure_sharing=measure_sharing,
    )


def _merge_depth(ops: int) -> float:
    return max(1.0, math.log2(ops + 1))


def _phase2_direct(
    pct: PCT,
    image_segments: Sequence[ImageSegment],
    eps: float,
    tracker: Optional[PramTracker],
) -> Phase2Result:
    """``direct`` mode on the reference path: a
    :func:`~repro.envelope.splice.splice_merge` per internal node and
    a :func:`~repro.envelope.visibility.visible_parts` per leaf."""
    tree = pct.tree
    out = Phase2Result()
    inherited: dict[int, Envelope] = {tree.root.index: Envelope.empty()}

    for level in tree.levels():
        stats = LayerStats(depth=level[0].depth)
        par_ctx = tracker.parallel() if tracker is not None else None
        par = par_ctx.__enter__() if par_ctx is not None else None
        for node in level:
            P = inherited.pop(node.index)
            stats.inherited_pieces += P.size
            if node.is_leaf:
                edge = tree.order[node.lo]
                vis = visible_parts(image_segments[edge], P, eps=eps)
                out.visibility[edge] = vis
                out.ops += vis.ops
                stats.ops += vis.ops
                if par is not None:
                    par.spawn(vis.ops, _merge_depth(vis.ops))
            else:
                assert node.left is not None and node.right is not None
                inherited[node.left.index] = P
                res = splice_merge(P, pct.envelope_of(node.left), eps=eps)
                inherited[node.right.index] = res.envelope
                out.ops += res.ops
                out.crossings += len(res.crossings)
                out.pieces_materialised += res.materialised
                stats.merges += 1
                stats.ops += res.ops
                stats.crossings += len(res.crossings)
                if par is not None:
                    par.spawn(res.ops, _merge_depth(res.ops))
        if par_ctx is not None:
            par_ctx.__exit__(None, None, None)
        out.layers.append(stats)
    return out


class _LeafResults(Mapping):
    """``edge -> VisibilityResult`` over the compiled run's leaf lanes:
    the ``(n, 3)`` ``ops, parts, crossings`` rows of ``leaf``, the
    ``parts`` and ``vx`` lanes, all in order position, the edge at
    position ``i`` being ``edges[i]``.  Each result is built on first
    access.  Leaves iterate in processing order (layer by layer), like
    the dict the other paths fill."""

    def __init__(self, edges, leaf, parts, vx):
        self._edges = edges
        self._leaf = leaf
        self._parts = parts
        self._vx = vx
        self._index: Optional[dict] = None
        self._ends: tuple = ()
        self._built: dict[int, VisibilityResult] = {}

    def __getitem__(self, edge: int) -> VisibilityResult:
        vis = self._built.get(edge)
        if vis is None:
            if self._index is None:
                self._index = {e: i for i, e in enumerate(self._edges.tolist())}
                # Where each leaf's parts and crossings end.
                self._ends = tuple(self._leaf[:, 1:].cumsum(axis=0).T.tolist())
            i = self._index[edge]
            ops, nparts, ncross = self._leaf[i].tolist()
            b, d = self._ends[0][i], self._ends[1][i]
            a, c = b - nparts, d - ncross
            vis = VisibilityResult(
                list(map(VisiblePart, self._parts[0, a:b].tolist(),
                         self._parts[1, a:b].tolist())),
                list(zip(self._vx[0, c:d].tolist(), self._vx[1, c:d].tolist())),
                ops,
            )
            self._built[edge] = vis
        return vis

    def __iter__(self):
        import numpy as np

        from repro.hsr.pct import level_spans

        spans = level_spans(len(self._edges))
        pos = np.concatenate([lo[hi - lo == 1] for lo, hi in spans])
        return iter(self._edges[pos].tolist())

    def __len__(self) -> int:
        return len(self._edges)


def _phase2_compiled(
    pct: PCT,
    mode: str,
    eps: float,
    tracker: Optional[PramTracker],
    core,
) -> Optional[Phase2Result]:
    """``direct`` or ``persistent`` mode in the compiled core: one
    ``repro_phase2_run`` call (:func:`repro.envelope._ccore.phase2_run`)
    walks the tree from the root, doing every splice merge (``direct``,
    bit-exact with :func:`_phase2_direct`) or rope splice merge
    (``persistent``, bit-exact with :func:`_phase2_persistent_rope` —
    ``ops``, crossings and ``nodes_allocated`` included, since the
    kernel cuts the same chunks) and every leaf's visibility query and
    clipping.  The inherited profiles (the rope's versions: chunks as
    runs of a piece arena, versions as spines of chunks) stay in the
    context of ``core``, the run's handle; Python slices the per-node
    results at the layers for the layer stats and the tracker, and adds
    the ``persistent`` mode's :func:`_size_locate_cost` charges.

    The call runs under the ``phase2_merge`` guard.  A fault returns
    ``None`` and the caller reruns Phase 2 on the reference, so the
    tracker is charged only once the call is done.
    """
    import numpy as np

    from repro.envelope import _ccore

    kernel_mode = _ccore.MODE_PHASE2 if mode == "direct" else _ccore.MODE_ROPE

    def kernel():
        res, leaf = _ccore.phase2_run(core, kernel_mode, pct.block, pct.lanes, eps)
        return (
            res, leaf, core.take(_ccore.L_PARTS), core.take(_ccore.L_VX),
            core.take(_ccore.L_ROWS),
        )

    got = _guard.guarded_call("phase2_merge", kernel, lambda: None)
    if got is None:
        return None
    res, leaf, parts, vx, rows = got
    cost = res[:, _ccore.T_OPS]
    inherited = res[:, _ccore.T_INH]
    if mode == "persistent":
        cost = cost + _size_locate_costs(inherited)
        inherited = np.zeros_like(inherited)
    bases = pct._level_bases()
    starts = bases[:-1]
    per_layer = zip(
        np.add.reduceat(1 - res[:, _ccore.T_LEAF], starts).tolist(),
        np.add.reduceat(cost, starts).tolist(),
        np.add.reduceat(res[:, _ccore.T_CROSS], starts).tolist(),
        np.add.reduceat(inherited, starts).tolist(),
    )
    out = Phase2Result(rows=rows)
    out.layers = [LayerStats(d, *row) for d, row in enumerate(per_layer)]
    out.ops = sum(layer.ops for layer in out.layers)
    out.crossings = sum(layer.crossings for layer in out.layers)
    written = int(res[:, _ccore.T_NEW].sum())
    if mode == "direct":
        out.pieces_materialised = written
    else:
        out.nodes_allocated = written
    if tracker is not None:
        for a, b in zip(starts, bases[1:]):
            with tracker.parallel() as par:
                for o in cost[a:b].tolist():
                    par.spawn(o, _merge_depth(o))
    out.visibility = _LeafResults(pct.lanes[4], leaf, parts, vx)
    return out


def _size_locate_cost(n: int) -> int:
    """O(log n) charge for locating a splice boundary in a profile of
    ``n`` pieces (the rope's two-level bisect), added to every
    persistent merge and leaf query's ``ops``."""
    return max(1, int(math.log2(n + 1)))


def _size_locate_costs(sizes):
    """:func:`_size_locate_cost` of an int64 array of sizes: the
    exponent of ``frexp(n + 1)`` less one is ``floor(log2(n + 1))``
    exactly (sizes stay far below 2**53)."""
    import numpy as np

    return np.maximum(1, np.frexp(sizes + 1.0)[1] - 1)


def _phase2_persistent_rope(
    pct: PCT,
    image_segments: Sequence[ImageSegment],
    eps: float,
    tracker: Optional[PramTracker],
    *,
    use_acg: bool,
    measure_sharing: bool,
) -> Phase2Result:
    """``persistent``/``acg`` modes on the Python rope: a
    :func:`~repro.persistence.rope.rope_splice_merge` (or its ACG
    twin) per internal node, a
    :func:`~repro.persistence.rope.rope_visible_parts` per leaf.

    ``ops`` adds the :func:`_size_locate_cost` charge per merge and
    leaf query; under ``measure_sharing`` each layer's sharing is
    metered by :func:`~repro.persistence.rope.count_shared_pieces`.
    Each node's commit is the ordinary chunk-granular path copy (guard
    site ``rope_splice``).
    """
    if use_acg:
        from repro.hsr.acg_rope import acg_rope_splice_merge

    tree = pct.tree
    out = Phase2Result()
    alloc_before = _rope.allocation_count()
    inherited: dict[int, _rope.Rope] = {tree.root.index: _rope.EMPTY}

    for level in tree.levels():
        stats = LayerStats(depth=level[0].depth)
        par_ctx = tracker.parallel() if tracker is not None else None
        par = par_ctx.__enter__() if par_ctx is not None else None

        for node in level:
            root = inherited.pop(node.index)
            if node.is_leaf:
                edge = tree.order[node.lo]
                vis = _rope.rope_visible_parts(
                    root, image_segments[edge], eps=eps
                )
                out.visibility[edge] = vis
                cost = vis.ops + _size_locate_cost(root.total)
                out.ops += cost
                stats.ops += cost
                if par is not None:
                    par.spawn(cost, _merge_depth(cost))
            else:
                assert node.left is not None and node.right is not None
                inherited[node.left.index] = root  # shared version
                intermediate = pct.envelope_of(node.left)
                if use_acg:
                    new_root, res = acg_rope_splice_merge(
                        root, intermediate, eps=eps
                    )
                else:
                    new_root, res = _rope.rope_splice_merge(
                        root, intermediate, eps=eps
                    )
                inherited[node.right.index] = new_root
                n_cross = len(res.crossings)
                cost = res.ops + _size_locate_cost(root.total)
                out.ops += cost
                out.crossings += n_cross
                stats.merges += 1
                stats.ops += cost
                stats.crossings += n_cross
                if par is not None:
                    par.spawn(cost, _merge_depth(cost))
        if par_ctx is not None:
            par_ctx.__exit__(None, None, None)
        if measure_sharing:
            total, shared = _rope.count_shared_pieces(
                *inherited.values()
            )
            stats.total_nodes = total
            stats.shared_nodes = shared
        out.layers.append(stats)
    out.nodes_allocated = _rope.allocation_count() - alloc_before
    return out
