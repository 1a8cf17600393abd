"""Phase 1: the Profile Computation Tree (PCT).

"For each node v in the separator tree do in parallel: compute the
profile of the edges in the leaves of the subtree rooted at v"
(paper §3, step 2a).  Bottom-up, layer by layer: a node's intermediate
profile is the merge of its children's.  All merges of a layer are
independent — one parallel region in the cost model.

Lemma 3.1 gives the construction O(log² n) depth; the tracker
measures it (experiment E9 on the construction in isolation, E1 on
the full pipeline).

Because a layer's merges are independent, the NumPy engine with the
compiled core on runs each layer as *one* call
(:func:`repro.envelope._ccore.merge_layer`); a call that faults reruns
the whole phase on the reference.  A layer's profiles land in one CSR
block — a ``(5, n)`` float64 array whose last row holds the int64
sources, plus per-node offsets and lengths — and
:attr:`PCT.flat_envelopes` / :meth:`PCT.envelope_of` are lazy views
over the blocks.  Without the core a merge per node runs
:func:`~repro.envelope.merge.merge_envelopes`, the reference.  Results
and PRAM charges are identical either way.

The PCT also exposes the Fig. 1 statistic: how many pieces of each
intermediate profile are *shared* (geometrically identical) with a
child's profile — the redundancy that motivates the paper's persistent
visibility structure.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Mapping
from typing import Optional, Sequence

from repro.envelope.chain import Envelope
from repro.envelope.engine import resolve_engine
from repro.envelope.merge import merge_envelopes
from repro.geometry.primitives import EPS
from repro.geometry.segments import ImageSegment
from repro.ordering.separator import SeparatorNode, SeparatorTree
from repro.pram.tracker import PramTracker

__all__ = ["PCT", "build_pct"]


def level_spans(n: int) -> list:
    """The ``(lo, hi)`` order ranges of every layer's nodes, root
    first, as int64 arrays in node-index order — the shape
    :class:`SeparatorTree` builds (split at ``(lo + hi) // 2``, children
    left then right), computed without walking its nodes.  The
    children of a layer's ``k``-th internal node are the next layer's
    nodes ``2k`` and ``2k + 1``."""
    import numpy as np

    lo = np.zeros(1, np.int64)
    hi = np.full(1, n, np.int64)
    out = []
    while len(lo):
        out.append((lo, hi))
        inner = hi - lo > 1
        mid = (lo[inner] + hi[inner]) // 2
        lo = np.stack([lo[inner], mid], axis=1).reshape(-1)
        hi = np.stack([mid, hi[inner]], axis=1).reshape(-1)
    return out


def csr_index(starts, counts):
    """The positions ``starts[i] + j`` for ``j < counts[i]``, ranges
    concatenated in order — a gather index over CSR rows."""
    import numpy as np

    firsts = np.zeros(len(counts), np.int64)
    np.cumsum(counts[:-1], out=firsts[1:])
    return np.repeat(starts - firsts, counts) + np.arange(int(counts.sum()))


def order_lanes(tree: SeparatorTree, image_segments: Sequence[ImageSegment]):
    """``(y1, z1, y2, z2, source)`` numpy lanes of the leaves' image
    segments in front-to-back order (lane ``i`` is
    ``image_segments[tree.order[i]]``) — what
    :meth:`repro.terrain.model.Terrain.image_lanes` gives for the
    tree's order."""
    import numpy as np

    from repro.envelope.flat_splice import segment_lanes

    segs = [image_segments[e] for e in tree.order]
    return tuple(map(np.asarray, segment_lanes(segs)))


class _FlatViews(Mapping):
    """``node.index -> FlatEnvelope``: zero-copy views of the layer
    blocks (empty while the PCT holds none), each made on first
    access."""

    def __init__(self, pct: "PCT"):
        self._pct = pct
        self._views: dict = {}

    def __getitem__(self, index: int):
        view = self._views.get(index)
        if view is None:
            found = self._pct._locate(index)
            if found is None:
                raise KeyError(index)
            blk, off, ln, pos = found
            view = self._views[index] = block_view(blk, off[pos], ln[pos])
        return view

    def __iter__(self):
        bases = self._pct._level_bases()
        for d, layer in enumerate(self._pct.layers):
            if layer is not None:
                yield from range(bases[d], bases[d] + len(layer[1]))

    def __len__(self) -> int:
        return sum(len(layer[1]) for layer in self._pct.layers if layer)


class PCT:
    """The profile computation tree: separator-tree shape + per-node
    intermediate profiles.

    The compiled build keeps a layer's profiles as one CSR block
    (``layers[depth] = (block, offsets, lengths)``, nodes in index
    order); :attr:`flat_envelopes` views them and :meth:`envelope_of`
    converts to :class:`Envelope` lazily (conversion is cached) —
    Phase 2 only ever touches the left-child profiles, so half the
    tree typically never materialises.  The reference build fills
    :attr:`envelopes` directly.
    """

    def __init__(self, tree: SeparatorTree):
        self.tree = tree
        #: node.index -> materialised intermediate profile.
        self.envelopes: dict[int, Envelope] = {}
        #: per layer (root first): ``(block, offsets, lengths)``,
        #: compiled build only.
        self.layers: list = [None] * tree.height
        #: per layer (root first): its :func:`level_spans` entry,
        #: compiled build only.
        self.spans: Optional[list] = None
        #: node.index -> flat (array) profile view, compiled build only.
        self.flat_envelopes = _FlatViews(self)
        #: the leaves' image lanes in front-to-back order, when the
        #: build was given or gathered them (see :func:`order_lanes`).
        self.lanes = None
        #: total elementary merge operations performed in Phase 1.
        self.ops: int = 0
        #: per-layer (depth) sharing fraction: pieces of the layer's
        #: profiles identical to a piece of a child profile.
        self.layer_sharing: list[tuple[int, float]] = []
        self._bases: Optional[list[int]] = None
        self._segments: Optional[dict] = None

    def _level_bases(self) -> list[int]:
        """The first node index of every layer (and the node count)."""
        if self._bases is None:
            self._bases = [0]
            for level in self.tree.levels():
                self._bases.append(self._bases[-1] + len(level))
        return self._bases

    def _locate(self, index: int):
        d = bisect.bisect_right(self._level_bases(), index) - 1
        if not 0 <= d < len(self.layers) or self.layers[d] is None:
            return None
        blk, off, ln = self.layers[d]
        return blk, off, ln, index - self._level_bases()[d]

    def envelope_of(self, node: SeparatorNode) -> Envelope:
        env = self.envelopes.get(node.index)
        if env is None:
            env = self.flat_envelopes[node.index].to_envelope()
            self.envelopes[node.index] = env
        return env

    def image_segments(self) -> dict[int, ImageSegment]:
        """The leaves' image segments by edge, rebuilt once from
        :attr:`lanes` — for the paths that need segment objects when
        the caller projected lanes only."""
        if self._segments is None:
            rows = zip(*(lane.tolist() for lane in self.lanes))
            self._segments = {row[4]: ImageSegment(*row) for row in rows}
        return self._segments

    def total_profile_pieces(self) -> int:
        """Σ over nodes of intermediate-profile size — the storage a
        non-persistent representation must copy."""
        if any(layer is not None for layer in self.layers):
            return sum(int(layer[2].sum()) for layer in self.layers)
        return sum(env.size for env in self.envelopes.values())


def build_pct(
    tree: SeparatorTree,
    image_segments: Optional[Sequence[ImageSegment]],
    *,
    eps: float = EPS,
    tracker: Optional[PramTracker] = None,
    measure_sharing: bool = False,
    engine: Optional[str] = None,
    config=None,
    lanes=None,
) -> PCT:
    """Run Phase 1 over ``tree``.

    The leaf with order range ``[i, i+1)`` takes
    ``image_segments[tree.order[i]]``.  The leaves' ``lanes`` may be
    given instead (front-to-back image lanes, see :func:`order_lanes`;
    ``image_segments`` may then be ``None``).

    On the NumPy engine with the compiled core on (see
    :func:`repro.envelope._ccore.compiled_enabled`; a
    ``config`` can switch it off) each layer runs as one compiled
    call under the guard site ``pct_merge``; a faulting call reruns
    the whole phase on the reference (whose PCT holds no layer blocks,
    so Phase 2 takes its reference too).  Otherwise, and on the python
    engine, each node runs the reference merge.
    """
    from repro.envelope import _ccore

    pct = PCT(tree)
    pct.lanes = lanes
    done = False
    if resolve_engine(engine) == "numpy" and _ccore.compiled_enabled(
        config, "pct_merge", "phase2_merge"
    ):
        if lanes is None:
            pct.lanes = order_lanes(tree, image_segments)
        with _ccore.borrowed() as core:
            done = _build_layers(pct, eps, tracker, core)
    if not done:
        if image_segments is None:
            image_segments = pct.image_segments()
        _build_python(pct, image_segments, eps, tracker)
    if measure_sharing:
        for level in tree.levels_bottom_up():
            internals = [node for node in level if not node.is_leaf]
            if not internals:
                continue
            shared = 0
            total = 0
            for node in internals:
                child_pieces = set()
                for child in (node.left, node.right):
                    assert child is not None
                    child_pieces.update(pct.envelope_of(child).pieces)
                env = pct.envelope_of(node)
                total += env.size
                shared += sum(1 for p in env.pieces if p in child_pieces)
            depth = internals[0].depth
            pct.layer_sharing.append(
                (depth, shared / total if total else 0.0)
            )
    return pct


def _charge(tracker: Optional[PramTracker], n_leaves: int, ops_list) -> None:
    """One layer's PRAM charges: the leaf initialisations in one
    parallel region, then the merges in another."""
    if tracker is None:
        return
    if n_leaves:
        with tracker.parallel() as par:
            for _ in range(n_leaves):
                par.spawn(1, 1)
    if ops_list:
        with tracker.parallel() as par:
            for ops in ops_list:
                par.spawn(ops, max(1.0, math.log2(ops + 1)))


def _build_python(pct: PCT, image_segments, eps, tracker) -> None:
    """Phase 1 on the reference path: a merge per node."""
    tree = pct.tree
    for level in tree.levels_bottom_up():
        leaves = [node for node in level if node.is_leaf]
        internals = [node for node in level if not node.is_leaf]
        for node in leaves:
            seg = image_segments[tree.order[node.lo]]
            pct.envelopes[node.index] = Envelope.from_segment(seg)
            pct.ops += 1
        results = [
            merge_envelopes(
                pct.envelopes[node.left.index],  # type: ignore[union-attr]
                pct.envelopes[node.right.index],  # type: ignore[union-attr]
                eps=eps,
                record_crossings=False,
            )
            for node in internals
        ]
        _charge(tracker, len(leaves), [res.ops for res in results])
        for node, res in zip(internals, results):
            pct.envelopes[node.index] = res.envelope
            pct.ops += res.ops


def layer_jobs(lo, hi, child):
    """The ``repro_merge_layer`` job rows of one layer whose nodes span
    ``lo, hi`` (a :func:`level_spans` entry), and its leaf mask: a
    leaf reads lane ``lo``; a merge, its two children's rows of the
    ``child`` layer ``(block, offsets, lengths)`` below (``None`` for
    the deepest layer, which holds leaves only)."""
    import numpy as np

    leaf = hi - lo <= 1
    inner = ~leaf
    jobs = np.zeros((len(lo), 5), np.int64)
    jobs[leaf, 0] = 1
    jobs[leaf, 3] = lo[leaf]
    if child is not None:
        _blk, c_off, c_len = child
        jobs[inner, 1] = c_off[0::2]
        jobs[inner, 2] = c_len[0::2]
        jobs[inner, 3] = c_off[1::2]
        jobs[inner, 4] = c_len[1::2]
    return jobs, leaf


def _build_layers(pct: PCT, eps: float, tracker, core) -> bool:
    """Phase 1 in the compiled core, one call per layer on ``core``
    (the run's handle), each under the ``pct_merge`` guard.  Returns
    ``False``, with ``pct`` untouched, when a call faulted: the caller
    then reruns the phase on :func:`_build_python`, so the tracker is
    charged only after the last compiled layer."""
    from repro.envelope import _ccore
    from repro.reliability import guard as _guard

    lanes = pct.lanes
    layers = [None] * len(pct.layers)
    charges = []
    child = None
    spans = level_spans(len(pct.tree.order))
    for d in reversed(range(len(spans))):
        jobs, leaf = layer_jobs(*spans[d], child)

        def kernel(child=child, jobs=jobs):
            res = _ccore.merge_layer(
                core, _ccore.MODE_PCT,
                None if child is None else child[0],
                lanes, jobs, eps, False,
            )
            return core.take(_ccore.L_PROF), res[:, 2].copy(), res[:, 3].copy(), res[:, 0]

        out = _guard.guarded_call("pct_merge", kernel, lambda: None)
        if out is None:
            return False
        blk, off, ln, ops = out
        layers[d] = child = (blk, off, ln)
        charges.append((int(leaf.sum()), ops[~leaf].tolist()))
    pct.layers = layers
    pct.spans = spans
    for n_leaves, ops_list in charges:
        pct.ops += n_leaves + sum(ops_list)
        _charge(tracker, n_leaves, ops_list)
    return True


def block_view(blk, off, n):
    """Pieces ``[off, off + n)`` of a layer block as a zero-copy
    :class:`~repro.envelope.flat.FlatEnvelope`."""
    from repro.envelope.flat import FlatEnvelope

    a, b = int(off), int(off + n)
    return FlatEnvelope(
        blk[0, a:b], blk[1, a:b], blk[2, a:b], blk[3, a:b],
        blk[4, a:b].view("int64"),
    )
