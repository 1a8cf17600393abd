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

Two interchangeable engines compute the merges (same output, different
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
    zero copying.  On the numpy engine with the compiled core, a
    layer's merges and leaf queries run as one ``repro_merge_layer``
    call whose context keeps the rope's versions (chunks as runs of a
    piece arena, versions as spines of chunks); without the core they
    run through the batched kernels on the chunks' cached lane blocks;
    on the python engine each node runs the scalar
    :func:`~repro.persistence.rope.rope_splice_merge` /
    :func:`~repro.persistence.rope.rope_visible_parts` — the reference
    both are bit-exact against, ``nodes_allocated`` included.
``acg``
    Like ``persistent``, but crossings inside the spliced range are
    located by hull-pruned searches on the chunk-augmented
    (Chazelle–Guibas style) structure instead of a linear sweep
    (:mod:`repro.hsr.acg_rope`).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.envelope.chain import Envelope, Piece
from repro.envelope.engine import resolve_engine
from repro.envelope.splice import splice_merge
from repro.envelope.visibility import VisibilityResult, VisiblePart, visible_parts
from repro.errors import HsrError
from repro.geometry.primitives import EPS
from repro.geometry.segments import ImageSegment
from repro.hsr.pct import PCT
from repro.persistence import rope as _rope
from repro.pram.tracker import PramTracker
from repro.reliability import faultinject as _fi
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
    #: visible parts as ``(edge, ya, za, yb, zb)`` lists in
    #: front-to-back order — the rows of
    #: :meth:`repro.hsr.result.VisibilityMap.add_rows`; ``None`` when
    #: some leaf was answered on another path.
    rows: Optional[tuple] = None


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

    ``engine`` selects the envelope merge kernel for the ``direct``
    mode's array merges and for the ``persistent`` mode's layer
    merges (see :mod:`repro.envelope.engine`).
    A ``config`` (:class:`repro.config.HsrConfig`) can switch the
    compiled layer kernel of ``direct`` and ``persistent`` off; its
    ``workers`` has no effect.  ``measure_sharing`` keeps
    ``persistent`` on the Python rope, whose piece objects the
    sharing meter counts.
    ``image_segments`` may be ``None`` when the PCT holds the leaves'
    lanes (:attr:`PCT.lanes`).
    """
    if mode not in PHASE2_MODES:
        raise HsrError(
            f"unknown phase-2 mode {mode!r}; choose from {PHASE2_MODES}"
        )
    if mode == "direct":
        return _phase2_direct(
            pct, image_segments, eps, tracker, engine, config
        )
    if (
        mode == "persistent"
        and not measure_sharing
        and pct.layers[0] is not None
        and resolve_engine(engine) == "numpy"
    ):
        from repro.envelope import _ccore
        from repro.envelope.flat_splice import compiled_enabled

        if compiled_enabled(config, "phase2_merge"):
            with _ccore.borrowed() as core:
                out = _phase2_persistent_compiled(pct, eps, tracker, core)
            if out is not None:
                return out
    if image_segments is None:
        image_segments = pct.image_segments()
    return _phase2_persistent_rope(
        pct,
        image_segments,
        eps,
        tracker,
        use_acg=(mode == "acg"),
        measure_sharing=measure_sharing,
        engine=engine,
    )


def _merge_depth(ops: int) -> float:
    return max(1.0, math.log2(ops + 1))


def _phase2_direct(
    pct: PCT,
    image_segments: Sequence[ImageSegment],
    eps: float,
    tracker: Optional[PramTracker],
    engine: Optional[str] = None,
    config=None,
) -> Phase2Result:
    if resolve_engine(engine) == "numpy":
        from repro.envelope import _ccore
        from repro.envelope.flat_splice import compiled_enabled

        if pct.layers[0] is not None and compiled_enabled(
            config, "phase2_merge"
        ):
            with _ccore.borrowed() as core:
                return _phase2_direct_compiled(
                    pct, image_segments, eps, tracker, core
                )
        if image_segments is None:
            image_segments = pct.image_segments()
        return _phase2_direct_flat(pct, image_segments, eps, tracker)
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
                res = splice_merge(
                    P, pct.envelope_of(node.left), eps=eps, engine="python"
                )
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


def _phase2_direct_flat(
    pct: PCT,
    image_segments: Sequence[ImageSegment],
    eps: float,
    tracker: Optional[PramTracker],
    *,
    start: int = 0,
    inherited=None,
    out: Optional[Phase2Result] = None,
) -> Phase2Result:
    """``direct`` mode on the NumPy kernel.

    Inherited profiles stay as
    :class:`~repro.envelope.packed.PackedProfile` arrays through the
    merge cascade.  Each merge is the same local splice as the scalar
    engine's :func:`~repro.envelope.splice.splice_merge` — only the
    window of the inherited profile overlapping the intermediate
    envelope enters the sweep, located per node and spliced into a
    fresh packed buffer — and, since a layer's merges are independent,
    all of a layer's windows run as *one*
    :func:`~repro.envelope.flat.batch_merge` sweep.  A layer's leaf
    visibility queries are independent too, so they run as one
    :func:`~repro.envelope.flat_visibility.batch_visible_parts` call
    over the stacked inherited profiles (one group per leaf); no
    profile is ever materialised back to piece tuples.

    A compiled run that faults hands over here at layer ``start``,
    with the layer's ``inherited`` profiles and the result so far in
    ``out``.
    """
    import numpy as np

    from repro.envelope.flat import (
        FlatEnvelope,
        batch_merge,
        stack_envelopes,
    )
    from repro.envelope.flat_visibility import batch_visible_parts
    from repro.envelope.packed import PackedProfile

    tree = pct.tree
    if out is None:
        out = Phase2Result()
        inherited = {tree.root.index: PackedProfile.empty()}

    def intermediate_flat(node) -> "object":
        flat = pct.flat_envelopes.get(node.index)
        if flat is None:  # PCT built by the Python engine
            flat = FlatEnvelope.from_envelope(pct.envelope_of(node))
        return flat

    for level in itertools.islice(tree.levels(), start, None):
        stats = LayerStats(depth=level[0].depth)
        par_ctx = tracker.parallel() if tracker is not None else None
        par = par_ctx.__enter__() if par_ctx is not None else None

        internals = [node for node in level if not node.is_leaf]
        if internals:
            parents = [inherited[node.index] for node in internals]
            inters = [intermediate_flat(node.left) for node in internals]
            # Windowed splice merges, batched: only the overlapped
            # window of each inherited profile enters the sweep;
            # empty intermediates pass the parent through shared
            # (exactly the scalar ``splice_merge`` semantics).
            live = [i for i in range(len(internals)) if len(inters[i])]
            spans = []
            for i in live:
                P, B = parents[i], inters[i]
                spans.append(
                    P.pieces_overlapping(float(B.ya[0]), float(B.yb[-1]))
                )
            def merge_kernel():
                merged: list = [None] * len(internals)
                ops_l = [0] * len(internals)
                cross_l = [0] * len(internals)
                sizes_l = [0] * len(internals)
                if not live:
                    return merged, ops_l, cross_l, sizes_l
                lefts = stack_envelopes(
                    [
                        parents[i].window(lo, hi)
                        for i, (lo, hi) in zip(live, spans)
                    ]
                )
                rights = stack_envelopes([inters[i] for i in live])
                res = batch_merge(lefts, rights, eps=eps)
                live_ops = res.ops.tolist()
                live_cross = np.diff(
                    np.searchsorted(
                        res.cross_group, np.arange(len(live) + 1)
                    )
                ).tolist()
                groups = [res.merged.group(g) for g in range(len(live))]
                if _fi.ARMED:
                    groups = _fi.corrupt_env_list("phase2_merge", groups)
                # Validate before any splice: the parents are only
                # ever read, so the python fallback recomputes every
                # merge of this layer from intact state.
                for m in groups:
                    _guard.check_flat(
                        "phase2_merge", m.ya, m.za, m.yb, m.zb
                    )
                for g, i in enumerate(live):
                    lo, hi = spans[g]
                    m = groups[g]
                    # Accumulate the right child's profile into a fresh
                    # packed buffer: one allocation + three segment
                    # writes.  The parent is only read, so the left
                    # child keeps sharing it; the moved element count
                    # equals the result size — the quantity
                    # ``pieces_materialised`` reports.
                    new = PackedProfile.from_splice(
                        parents[i], lo, hi, m.ya, m.za, m.yb, m.zb, m.source
                    )
                    merged[i] = new
                    ops_l[i] = live_ops[g]
                    cross_l[i] = live_cross[g]
                    sizes_l[i] = new.size
                return merged, ops_l, cross_l, sizes_l

            def merge_fallback():
                # Scalar splice merges per node (the python engine's
                # exact semantics) — results, ops, crossing counts and
                # the materialised piece counts are bit-identical to
                # the batched kernel's.
                merged: list = [None] * len(internals)
                ops_l = [0] * len(internals)
                cross_l = [0] * len(internals)
                sizes_l = [0] * len(internals)
                for i in live:
                    res = splice_merge(
                        parents[i].to_envelope(),
                        inters[i].to_envelope(),
                        eps=eps,
                        engine="python",
                    )
                    merged[i] = PackedProfile.from_envelope(res.envelope)
                    ops_l[i] = res.ops
                    cross_l[i] = len(res.crossings)
                    sizes_l[i] = res.materialised
                return merged, ops_l, cross_l, sizes_l

            merged_envs, ops_list, cross_counts, sizes = _guard.guarded_call(
                "phase2_merge", merge_kernel, merge_fallback
            )
            for i in range(len(internals)):
                if merged_envs[i] is None:  # empty intermediate: share
                    merged_envs[i] = parents[i]

        leaves = [node for node in level if node.is_leaf]
        if leaves:
            leaf_envs = [inherited[node.index] for node in leaves]
            lsegs = [
                image_segments[tree.order[node.lo]] for node in leaves
            ]

            def vis_kernel():
                res = batch_visible_parts(
                    stack_envelopes(leaf_envs),
                    lsegs,
                    groups=np.arange(len(leaves)),
                    eps=eps,
                ).results()
                if _fi.ARMED:
                    res = _fi.corrupt_vis_list("phase2_visibility", res)
                for s, v in zip(lsegs, res):
                    _guard.check_visibility(
                        "phase2_visibility", v, s.y1, s.y2, eps
                    )
                return res

            def vis_fallback():
                # Scalar per-leaf queries — the python engine's path.
                return [
                    visible_parts(s, e.to_envelope(), eps=eps)
                    for s, e in zip(lsegs, leaf_envs)
                ]

            leaf_vis = _guard.guarded_call(
                "phase2_visibility", vis_kernel, vis_fallback
            )

        mi = li = 0
        for node in level:
            P = inherited.pop(node.index)
            stats.inherited_pieces += P.size
            if node.is_leaf:
                edge = tree.order[node.lo]
                vis = leaf_vis[li]
                li += 1
                out.visibility[edge] = vis
                out.ops += vis.ops
                stats.ops += vis.ops
                if par is not None:
                    par.spawn(vis.ops, _merge_depth(vis.ops))
            else:
                assert node.left is not None and node.right is not None
                inherited[node.left.index] = P
                ops = ops_list[mi]
                n_cross = cross_counts[mi]
                inherited[node.right.index] = merged_envs[mi]
                out.ops += ops
                out.crossings += n_cross
                out.pieces_materialised += sizes[mi]
                stats.merges += 1
                stats.ops += ops
                stats.crossings += n_cross
                if par is not None:
                    par.spawn(ops, _merge_depth(ops))
                mi += 1
        if par_ctx is not None:
            par_ctx.__exit__(None, None, None)
        out.layers.append(stats)
    return out


class _LeafResults(Mapping):
    """``edge -> VisibilityResult`` over the compiled run's CSR leaf
    lanes, each result built on first access.  Leaves iterate in
    processing order (layer by layer), like the dict the other paths
    fill."""

    def __init__(self, edges, ops, nparts, ncross, parts, vx):
        self._edges = edges
        self._ops = ops
        self._poff = [0, *itertools.accumulate(nparts)]
        self._xoff = [0, *itertools.accumulate(ncross)]
        self._parts = parts
        self._vx = vx
        self._index: Optional[dict] = None
        self._built: dict[int, VisibilityResult] = {}

    def __getitem__(self, edge: int) -> VisibilityResult:
        vis = self._built.get(edge)
        if vis is None:
            if self._index is None:
                self._index = {e: i for i, e in enumerate(self._edges)}
            i = self._index[edge]
            a, b = self._poff[i], self._poff[i + 1]
            c, d = self._xoff[i], self._xoff[i + 1]
            vis = VisibilityResult(
                list(map(VisiblePart, self._parts[0, a:b].tolist(),
                         self._parts[1, a:b].tolist())),
                list(zip(self._vx[0, c:d].tolist(), self._vx[1, c:d].tolist())),
                self._ops[i],
            )
            self._built[edge] = vis
        return vis

    def __iter__(self):
        return iter(self._edges)

    def __len__(self) -> int:
        return len(self._edges)


def _phase2_direct_compiled(
    pct: PCT,
    image_segments: Optional[Sequence[ImageSegment]],
    eps: float,
    tracker: Optional[PramTracker],
    core,
) -> Phase2Result:
    """``direct`` mode in the compiled core: one ``repro_merge_layer``
    call per layer (:func:`repro.envelope._ccore.merge_layer`) does
    every splice merge of the layer and every leaf's visibility query
    and clipping, bit-exact with :func:`_phase2_direct_flat`.  The
    inherited profiles stay in the context of ``core``, the run's
    handle; Python builds only each layer's job array from the
    previous layer's results and the PCT block of the layer below (the
    left children's profiles).

    Each call runs under the ``phase2_merge`` guard.  A fault hands the
    rest of the run, from the faulting layer on, to
    :func:`_phase2_direct_flat`.
    """
    import numpy as np

    from repro.envelope import _ccore
    from repro.hsr.pct import level_spans

    out = Phase2Result()
    inh_off = np.zeros(1, np.int64)
    inh_len = np.zeros(1, np.int64)
    leaves: list[tuple] = []  # per layer: (positions, res rows, parts, vx, rows)
    for d, (lo, hi) in enumerate(level_spans(len(pct.tree.order))):
        step = _compiled_layer(
            pct, core, _ccore.MODE_PHASE2, d, lo, hi, inh_off, inh_len,
            eps, leaves,
        )
        if step is None:
            return _hand_over(
                pct, image_segments, eps, tracker, core, out, leaves, d,
                inh_off, inh_len,
            )
        jobs, res, inner = step
        ops = res[:, 0]
        merged = res[inner]
        stats = LayerStats(
            depth=d,
            merges=len(merged),
            ops=int(ops.sum()),
            crossings=int(merged[:, 1].sum()),
            inherited_pieces=int(inh_len.sum()),
        )
        out.ops += stats.ops
        out.crossings += stats.crossings
        out.pieces_materialised += int(merged[jobs[inner, 4] > 0, 3].sum())
        if tracker is not None:
            with tracker.parallel() as par:
                for o in ops.tolist():
                    par.spawn(o, _merge_depth(o))
        out.layers.append(stats)
        # Left children share the parent's profile; right children get
        # the merge result (the parent again when the merge was empty).
        inh_off = np.stack([inh_off[inner], merged[:, 2]], axis=1).reshape(-1)
        inh_len = np.stack([inh_len[inner], merged[:, 3]], axis=1).reshape(-1)

    _leaf_outputs(out, pct.lanes, leaves)
    return out


def _compiled_layer(pct, core, mode, d, lo, hi, a_off, a_len, eps, leaves):
    """Phase-2 layer ``d`` in one ``merge_layer`` call in ``mode``,
    under the ``phase2_merge`` guard.  Every node's side a is its
    inherited profile (``a_off``/``a_len`` in node order); an internal
    node merges its left child's PCT profile, the next layer's node
    ``2k``, and a leaf queries the image lane of its order position.
    Appends the layer's leaf lanes to ``leaves``.  Returns ``(jobs,
    res, inner)``, or ``None`` when the call faulted."""
    import numpy as np

    from repro.envelope import _ccore

    leaf = hi - lo <= 1
    inner = ~leaf
    jobs = np.zeros((len(lo), 5), np.int64)
    jobs[:, 1] = a_off
    jobs[:, 2] = a_len
    jobs[leaf, 0] = 1
    jobs[leaf, 3] = lo[leaf]
    blk = None
    if inner.any():
        blk, c_off, c_len = pct.layers[d + 1]
        jobs[inner, 3] = c_off[0::2]
        jobs[inner, 4] = c_len[0::2]

    def kernel():
        return _ccore.merge_layer(core, mode, blk, pct.lanes, jobs, eps, True)

    res = _guard.guarded_call("phase2_merge", kernel, lambda: None)
    if res is None:
        return None
    if leaf.any():
        leaves.append((
            lo[leaf], res[leaf], core.take(_ccore.L_PARTS),
            core.take(_ccore.L_VX), core.take(_ccore.L_ROWS),
        ))
    return jobs, res, inner


def _leaf_outputs(out: Phase2Result, lanes, leaves: list) -> None:
    """Fill ``out.visibility`` (lazily) and ``out.rows`` from a
    compiled run's per-layer leaf lanes."""
    import numpy as np

    from repro.hsr.pct import csr_index

    pos, res, parts, vx, rows = _stack_leaves(leaves)
    edges = lanes[4][pos]
    out.visibility = _LeafResults(
        edges.tolist(), res[:, 0].tolist(), res[:, 3].tolist(),
        res[:, 1].tolist(), parts, vx,
    )
    # The map rows in front-to-back order: leaf position order.
    by_pos = np.argsort(pos)
    starts = np.zeros(len(res), np.int64)
    np.cumsum(res[:-1, 3], out=starts[1:])
    idx = csr_index(starts[by_pos], res[by_pos, 3])
    out.rows = (
        rows[4].view(np.int64)[idx].tolist(),
        *(rows[f, idx].tolist() for f in range(4)),
    )


def _stack_leaves(leaves: list):
    """Concatenate the per-layer leaf lanes of a compiled run."""
    import numpy as np

    return (
        np.concatenate([lv[0] for lv in leaves]),
        np.concatenate([lv[1] for lv in leaves]),
        np.concatenate([lv[2] for lv in leaves], axis=1),
        np.concatenate([lv[3] for lv in leaves], axis=1),
        np.concatenate([lv[4] for lv in leaves], axis=1),
    )


def _hand_over(
    pct, image_segments, eps, tracker, core, out, leaves, d, inh_off,
    inh_len,
) -> Phase2Result:
    """Finish a compiled run on :func:`_phase2_direct_flat` from layer
    ``d``: the leaf results so far become a plain dict, and layer
    ``d``'s inherited profiles leave the core context as packed
    profiles."""
    from repro.envelope import _ccore
    from repro.envelope.flat import FlatEnvelope
    from repro.envelope.packed import PackedProfile

    if leaves:
        pos, res, parts, vx, _rows = _stack_leaves(leaves)
        done = _LeafResults(
            pct.lanes[4][pos].tolist(), res[:, 0].tolist(),
            res[:, 3].tolist(), res[:, 1].tolist(), parts, vx,
        )
        out.visibility = dict(done.items())
    arena = core.take(_ccore.L_PROF)
    src = arena[4].view("int64")
    inherited = {}
    level = list(pct.tree.levels())[d]
    for node, a, n in zip(level, inh_off.tolist(), inh_len.tolist()):
        b = a + n
        inherited[node.index] = PackedProfile.pack(
            FlatEnvelope(
                arena[0, a:b], arena[1, a:b], arena[2, a:b], arena[3, a:b],
                src[a:b],
            )
        )
    if image_segments is None:
        image_segments = pct.image_segments()
    return _phase2_direct_flat(
        pct, image_segments, eps, tracker,
        start=d, inherited=inherited, out=out,
    )


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


def _phase2_persistent_compiled(
    pct: PCT,
    eps: float,
    tracker: Optional[PramTracker],
    core,
) -> Optional[Phase2Result]:
    """``persistent`` mode in the compiled core: one
    ``repro_merge_layer`` call per layer in ``MODE_ROPE`` does every
    rope splice merge of the layer and every leaf's visibility query
    and clipping, bit-exact with :func:`_phase2_persistent_rope` —
    ``ops``, crossings and ``nodes_allocated`` included, since the
    kernel cuts the same chunks.  Every profile version stays in the
    context of ``core`` as a spine of shared chunks; Python only builds
    each layer's job array from the previous layer's versions and the
    PCT block of the layer below, and adds the
    :func:`_size_locate_cost` charges.

    Each call runs under the ``phase2_merge`` guard.  A fault returns
    ``None`` and the caller reruns Phase 2 from the root on the numpy
    rope layers, so the tracker is charged only once the last layer
    is done.
    """
    import numpy as np

    from repro.envelope import _ccore
    from repro.hsr.pct import level_spans

    out = Phase2Result()
    # The inherited versions of a layer's nodes: spine offset, spine
    # length and piece count.  The root inherits the empty version.
    ver_off = np.zeros(1, np.int64)
    ver_len = np.zeros(1, np.int64)
    ver_tot = np.zeros(1, np.int64)
    leaves: list[tuple] = []
    costs = []
    for d, (lo, hi) in enumerate(level_spans(len(pct.tree.order))):
        step = _compiled_layer(
            pct, core, _ccore.MODE_ROPE, d, lo, hi, ver_off, ver_len, eps,
            leaves,
        )
        if step is None:
            return None
        _jobs, res, inner = step
        cost = res[:, 0] + _size_locate_costs(ver_tot)
        merged = res[inner]
        stats = LayerStats(
            depth=d,
            merges=len(merged),
            ops=int(cost.sum()),
            crossings=int(merged[:, 1].sum()),
        )
        out.ops += stats.ops
        out.crossings += stats.crossings
        out.nodes_allocated += int(merged[:, 5].sum())
        out.layers.append(stats)
        costs.append(cost)
        # Left children share the parent's version; right children get
        # the merge's successor (the parent again when it was empty).
        ver_off = np.stack([ver_off[inner], merged[:, 2]], axis=1).reshape(-1)
        ver_len = np.stack([ver_len[inner], merged[:, 3]], axis=1).reshape(-1)
        ver_tot = np.stack([ver_tot[inner], merged[:, 4]], axis=1).reshape(-1)

    if tracker is not None:
        for cost in costs:
            with tracker.parallel() as par:
                for o in cost.tolist():
                    par.spawn(o, _merge_depth(o))
    _leaf_outputs(out, pct.lanes, leaves)
    return out


def _phase2_persistent_rope(
    pct: PCT,
    image_segments: Sequence[ImageSegment],
    eps: float,
    tracker: Optional[PramTracker],
    *,
    use_acg: bool,
    measure_sharing: bool,
    engine: Optional[str] = None,
) -> Phase2Result:
    """``persistent``/``acg`` modes on the rope store.

    ``ops`` adds the :func:`_size_locate_cost` charge per merge and
    leaf query; under ``measure_sharing`` each layer's sharing is
    metered by :func:`~repro.persistence.rope.count_shared_pieces`.
    On the numpy engine a layer's splice merges run as *one*
    :func:`~repro.envelope.flat.batch_merge` over the ropes' chunk-
    block windows and a layer's leaf queries as one
    :func:`~repro.envelope.flat_visibility.batch_visible_parts` —
    the windows never round-trip through per-piece python.  Each
    node's commit is the ordinary chunk-granular path copy (guard
    site ``rope_splice``).
    """
    if use_acg:
        from repro.hsr.acg_rope import acg_rope_splice_merge

    batched = not use_acg and resolve_engine(engine) == "numpy"
    tree = pct.tree
    out = Phase2Result()
    alloc_before = _rope.allocation_count()
    inherited: dict[int, _rope.Rope] = {tree.root.index: _rope.EMPTY}

    for level in tree.levels():
        stats = LayerStats(depth=level[0].depth)
        par_ctx = tracker.parallel() if tracker is not None else None
        par = par_ctx.__enter__() if par_ctx is not None else None

        merges: dict[int, tuple[_rope.Rope, int, int]] = {}
        leaf_vis: dict[int, VisibilityResult] = {}
        if batched:
            merges = _rope_layer_merges(
                pct, level, inherited, eps,
                measure_sharing=measure_sharing,
            )
            leaf_vis = _rope_layer_visibility(
                tree, level, inherited, image_segments, eps
            )

        for node in level:
            root = inherited.pop(node.index)
            if node.is_leaf:
                edge = tree.order[node.lo]
                if node.index in leaf_vis:
                    vis = leaf_vis[node.index]
                else:
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
                if node.index in merges:
                    new_root, ops, n_cross = merges[node.index]
                else:
                    intermediate = pct.envelope_of(node.left)
                    if use_acg:
                        new_root, res = acg_rope_splice_merge(
                            root, intermediate, eps=eps
                        )
                    else:
                        new_root, res = _rope.rope_splice_merge(
                            root, intermediate, eps=eps
                        )
                    ops, n_cross = res.ops, len(res.crossings)
                inherited[node.right.index] = new_root
                cost = ops + _size_locate_cost(root.total)
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


def _rope_layer_merges(
    pct: PCT,
    level,
    inherited: dict[int, "_rope.Rope"],
    eps: float,
    *,
    measure_sharing: bool = False,
) -> dict[int, tuple["_rope.Rope", int, int]]:
    """One batched sweep for all of a layer's splice merges.

    Returns ``{node.index: (new_rope, ops, n_crossings)}`` for every
    internal node of the level.  The sweep runs under the
    ``phase2_merge`` guard (fallback: per-node scalar merges over the
    same windows — bit-identical results); each commit then runs the
    normal chunk path copy under its own ``rope_splice`` guard.

    On the happy path each merged run stays in lane form end to end —
    :func:`~repro.persistence.rope.commit_splice_lanes` slices the
    successor's fresh chunks out of one commit block without ever
    materialising a :class:`Piece`.  Under ``measure_sharing`` the
    commits switch to the scalar piece path: E5's layer sharing meter
    (:func:`~repro.persistence.rope.count_shared_pieces`) counts piece
    *object* identity, which only exists when boundary slots refold as
    the same tuples — results are bit-exact either way, only the
    sharing accounting granularity differs.
    """
    import numpy as np

    from repro.envelope.flat import (
        FlatEnvelope,
        batch_merge,
        stack_envelopes,
    )
    from repro.hsr.pct import _rows

    results: dict[int, tuple["_rope.Rope", int, int]] = {}
    internals = [node for node in level if not node.is_leaf]
    if not internals:
        return results
    # Each merge needs its intermediate's size and span: read them off
    # the CSR block of the next layer (the left children are its nodes
    # 2k), with no Envelope per merge.
    if pct.layers[0] is not None:
        layer = pct.layers[internals[0].depth + 1]
        blk, c_off, c_len = layer
        l_off, l_len = c_off[0::2], c_len[0::2]
        full = l_len > 0
        ya_l = np.zeros(len(l_len))
        yb_l = np.zeros(len(l_len))
        ya_l[full] = blk[0, l_off[full]]
        yb_l[full] = blk[2, l_off[full] + l_len[full] - 1]

        def rights_of(keep):
            return _rows(layer, l_off[keep], l_len[keep])

    else:  # PCT built by the python engine
        flats = [
            FlatEnvelope.from_envelope(pct.envelope_of(node.left))
            for node in internals
        ]
        l_len = np.array([len(f) for f in flats], np.int64)
        ya_l = np.array([f.ya[0] if len(f) else 0.0 for f in flats])
        yb_l = np.array([f.yb[-1] if len(f) else 0.0 for f in flats])

        def rights_of(keep):
            return stack_envelopes([flats[k] for k in keep])

    sizes, ya_l, yb_l = l_len.tolist(), ya_l.tolist(), yb_l.tolist()
    live: list[tuple] = []  # (node, root, SpliceRange)
    keep: list[int] = []  # their positions in ``internals``
    for k, node in enumerate(internals):
        root = inherited[node.index]
        if not sizes[k]:
            results[node.index] = (root, 0, 0)
        elif root.total == 0:
            inter = pct.envelope_of(node.left)
            results[node.index] = (
                _rope.rope_from_envelope(inter),
                inter.size,
                0,
            )
        else:
            keep.append(k)
            live.append((node, root, _rope.SpliceRange(root, ya_l[k], yb_l[k])))
    if not live:
        return results
    rights = rights_of(keep)

    def kernel():
        lefts = stack_envelopes(
            [FlatEnvelope(*sr.window_lanes()) for _, _, sr in live]
        )
        res = batch_merge(lefts, rights, eps=eps)
        ops = res.ops.tolist()
        cross = np.diff(
            np.searchsorted(res.cross_group, np.arange(len(live) + 1))
        ).tolist()
        groups = [res.merged.group(g) for g in range(len(live))]
        if _fi.ARMED:
            groups = _fi.corrupt_env_list("phase2_merge", groups)
        for m in groups:
            _guard.check_flat("phase2_merge", m.ya, m.za, m.yb, m.zb)
        out = []
        for g, m in enumerate(groups):
            if measure_sharing:
                payload = list(
                    map(
                        Piece,
                        m.ya.tolist(),
                        m.za.tolist(),
                        m.yb.tolist(),
                        m.zb.tolist(),
                        m.source.tolist(),
                    )
                )
            else:
                payload = (m.ya, m.za, m.yb, m.zb, m.source)
            out.append((payload, ops[g], cross[g]))
        return out

    def fallback():
        # Scalar sweeps per node over the same extracted windows —
        # exactly what rope_splice_merge runs on the python engine.
        from repro.envelope.merge import merge_envelopes

        out = []
        for g, (_, _, sr) in enumerate(live):
            res = merge_envelopes(
                Envelope(sr.mid_pieces()),
                rights.group(g).to_envelope(),
                eps=eps,
            )
            out.append(
                (list(res.envelope.pieces), res.ops, len(res.crossings))
            )
        return out

    per_node = _guard.guarded_call("phase2_merge", kernel, fallback)
    for (node, root, sr), (payload, ops, n_cross) in zip(live, per_node):
        carry = sr.carry
        if carry is not None and not (carry.ya < carry.yb):
            carry = None
        if isinstance(payload, tuple):  # lane-native happy path
            new_root = _rope.commit_splice_lanes(root, sr, payload, carry)
        else:  # scalar pieces: measure_sharing, or the guard fallback
            pieces = payload + [carry] if carry is not None else payload
            new_root = _rope.commit_splice(root, sr, pieces)
        results[node.index] = (new_root, ops, n_cross)
    return results


def _rope_layer_visibility(
    tree,
    level,
    inherited: dict[int, "_rope.Rope"],
    image_segments: Sequence[ImageSegment],
    eps: float,
) -> dict[int, VisibilityResult]:
    """One batched visibility query for all of a layer's leaves, over
    the ropes' range-extracted chunk-block windows (guard site
    ``phase2_visibility``; fallback: scalar per-leaf queries)."""
    import numpy as np

    from repro.envelope.flat import FlatEnvelope, stack_envelopes
    from repro.envelope.flat_visibility import batch_visible_parts

    leaves = [node for node in level if node.is_leaf]
    if not leaves:
        return {}
    segs = [image_segments[tree.order[node.lo]] for node in leaves]
    windows = []
    for node, seg in zip(leaves, segs):
        root = inherited[node.index]
        if seg.is_vertical:
            ya, yb = seg.y1, seg.y1 + 1e-12
        else:
            ya, yb = seg.y1, seg.y2
        windows.append(FlatEnvelope(*_rope.range_lanes(root, ya, yb)))

    def kernel():
        res = batch_visible_parts(
            stack_envelopes(windows),
            segs,
            groups=np.arange(len(leaves)),
            eps=eps,
        ).results()
        if _fi.ARMED:
            res = _fi.corrupt_vis_list("phase2_visibility", res)
        for s, v in zip(segs, res):
            _guard.check_visibility(
                "phase2_visibility", v, s.y1, s.y2, eps
            )
        return res

    def fallback():
        # Scalar per-leaf queries — the python engine's path.
        return [
            _rope.rope_visible_parts(inherited[n.index], s, eps=eps)
            for n, s in zip(leaves, segs)
        ]

    vis = _guard.guarded_call("phase2_visibility", kernel, fallback)
    return {n.index: v for n, v in zip(leaves, vis)}
