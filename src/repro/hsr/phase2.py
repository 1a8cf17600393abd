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

On the numpy engine with the compiled core, a ``direct`` or
``persistent`` layer's merges and leaf queries run as one
``repro_merge_layer`` call, whose context keeps the layer's inherited
profiles (for ``persistent``, the rope's versions: chunks as runs of a
piece arena, versions as spines of chunks).  Otherwise each node runs
the reference — :func:`~repro.envelope.splice.splice_merge` and
:func:`~repro.envelope.visibility.visible_parts` for ``direct``, the
Python rope's :func:`~repro.persistence.rope.rope_splice_merge` and
:func:`~repro.persistence.rope.rope_visible_parts` for ``persistent``
— which the compiled layers are bit-exact against, ``ops``,
crossings and ``nodes_allocated`` included.  A compiled layer that
faults (guard site ``phase2_merge``) reruns Phase 2 from the root on
the reference.
"""

from __future__ import annotations

import itertools
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
    the compiled layer kernel of ``direct`` and ``persistent``: it
    runs on the numpy engine when the core is on and the PCT was built
    in it (its CSR layers).  ``measure_sharing`` keeps ``persistent`` on the Python
    rope, whose piece objects the sharing meter counts.
    ``image_segments`` may be ``None`` when the PCT holds the leaves'
    lanes (:attr:`PCT.lanes`).
    """
    if mode not in PHASE2_MODES:
        raise HsrError(
            f"unknown phase-2 mode {mode!r}; choose from {PHASE2_MODES}"
        )
    if (
        (mode == "direct" or (mode == "persistent" and not measure_sharing))
        and pct.layers[0] is not None
        and resolve_engine(engine) == "numpy"
    ):
        from repro.envelope import _ccore

        if _ccore.compiled_enabled(config, "phase2_merge"):
            compiled = (
                _phase2_direct_compiled
                if mode == "direct"
                else _phase2_persistent_compiled
            )
            with _ccore.borrowed() as core:
                out = compiled(pct, eps, tracker, core)
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
    eps: float,
    tracker: Optional[PramTracker],
    core,
) -> Optional[Phase2Result]:
    """``direct`` mode in the compiled core: one ``repro_merge_layer``
    call per layer (:func:`repro.envelope._ccore.merge_layer`) does
    every splice merge of the layer and every leaf's visibility query
    and clipping, bit-exact with :func:`_phase2_direct`.  The
    inherited profiles stay in the context of ``core``, the run's
    handle; Python builds only each layer's job array from the
    previous layer's results and the PCT block of the layer below (the
    left children's profiles).

    Each call runs under the ``phase2_merge`` guard.  A fault returns
    ``None`` and the caller reruns Phase 2 from the root on the
    reference, so the tracker is charged only once the last layer is
    done.
    """
    import numpy as np

    from repro.envelope import _ccore

    out = Phase2Result()
    inh_off = np.zeros(1, np.int64)
    inh_len = np.zeros(1, np.int64)
    leaves: list[tuple] = []  # per layer: (positions, res rows, parts, vx, rows)
    costs = []
    for d, (lo, hi) in enumerate(pct.spans):
        step = _compiled_layer(
            pct, core, _ccore.MODE_PHASE2, d, lo, hi, inh_off, inh_len,
            eps, leaves,
        )
        if step is None:
            return None
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
        out.layers.append(stats)
        costs.append(ops)
        # Left children share the parent's profile; right children get
        # the merge result (the parent again when the merge was empty).
        inh_off = np.stack([inh_off[inner], merged[:, 2]], axis=1).reshape(-1)
        inh_len = np.stack([inh_len[inner], merged[:, 3]], axis=1).reshape(-1)

    _charge_layers(tracker, costs)
    _leaf_outputs(out, pct.lanes, leaves)
    return out


def _charge_layers(tracker: Optional[PramTracker], costs: list) -> None:
    """A compiled run's PRAM charges: one parallel region per layer,
    one task per node of its ``ops`` (an int64 array)."""
    if tracker is None:
        return
    for cost in costs:
        with tracker.parallel() as par:
            for o in cost.tolist():
                par.spawn(o, _merge_depth(o))


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

    pos = np.concatenate([lv[0] for lv in leaves])
    res = np.concatenate([lv[1] for lv in leaves])
    parts, vx, rows = (
        np.concatenate([lv[f] for lv in leaves], axis=1) for f in (2, 3, 4)
    )
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
    out.rows = rows[:, idx]


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
    ``None`` and the caller reruns Phase 2 from the root on the Python
    rope, so the tracker is charged only once the last layer is done.
    """
    import numpy as np

    from repro.envelope import _ccore

    out = Phase2Result()
    # The inherited versions of a layer's nodes: spine offset, spine
    # length and piece count.  The root inherits the empty version.
    ver_off = np.zeros(1, np.int64)
    ver_len = np.zeros(1, np.int64)
    ver_tot = np.zeros(1, np.int64)
    leaves: list[tuple] = []
    costs = []
    for d, (lo, hi) in enumerate(pct.spans):
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

    _charge_layers(tracker, costs)
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
