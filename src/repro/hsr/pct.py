"""Phase 1: the Profile Computation Tree (PCT).

"For each node v in the separator tree do in parallel: compute the
profile of the edges in the leaves of the subtree rooted at v"
(paper §3, step 2a).  Bottom-up, layer by layer: a node's intermediate
profile is the merge of its children's.  All merges of a layer are
independent — a parallel region in the cost model, and optionally a
real multi-core fan-out (:mod:`repro.parallel_exec`).

Lemma 3.1 gives the construction O(log² n) depth; the tracker
measures it (experiment E9 on the construction in isolation, E1 on
the full pipeline).

Because a layer's merges are independent, the NumPy engine
(``engine="numpy"``, the default when NumPy is present) executes each
layer as *one* batched array sweep over all of its merges
(:func:`repro.envelope.flat.batch_merge`) instead of per-node Python
sweeps, holding profiles as :class:`~repro.envelope.flat.FlatEnvelope`
arrays and materialising :class:`Envelope` objects lazily on access.
Results and PRAM charges are identical between engines.

The PCT also exposes the Fig. 1 statistic: how many pieces of each
intermediate profile are *shared* (geometrically identical) with a
child's profile — the redundancy that motivates the paper's persistent
visibility structure.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.envelope.chain import Envelope
from repro.envelope.engine import merge_dispatch, resolve_engine
from repro.geometry.primitives import EPS
from repro.geometry.segments import ImageSegment
from repro.ordering.separator import SeparatorNode, SeparatorTree
from repro.pram.tracker import PramTracker

__all__ = ["PCT", "build_pct"]


def _merge_task(
    a: Envelope, b: Envelope, eps: float, engine: Optional[str]
) -> tuple[Envelope, int, int]:
    """One Phase-1 merge on the scalar path: ``(envelope, ops,
    crossings)``."""
    res = merge_dispatch(
        a, b, eps=eps, record_crossings=False, engine=engine
    )
    return (res.envelope, res.ops, len(res.crossings))


class PCT:
    """The profile computation tree: separator-tree shape + per-node
    intermediate profiles.

    Profiles built by the NumPy engine are held as flat arrays and
    converted to :class:`Envelope` lazily by :meth:`envelope_of`
    (conversion is cached) — Phase 2 only ever touches the left-child
    profiles, so half the tree typically never materialises.
    """

    def __init__(self, tree: SeparatorTree):
        self.tree = tree
        #: node.index -> materialised intermediate profile.
        self.envelopes: dict[int, Envelope] = {}
        #: node.index -> flat (array) profile, NumPy engine only.
        self.flat_envelopes: dict[int, "object"] = {}
        #: total elementary merge operations performed in Phase 1.
        self.ops: int = 0
        #: per-layer (depth) sharing fraction: pieces of the layer's
        #: profiles identical to a piece of a child profile.
        self.layer_sharing: list[tuple[int, float]] = []

    def envelope_of(self, node: SeparatorNode) -> Envelope:
        env = self.envelopes.get(node.index)
        if env is None:
            env = self.flat_envelopes[node.index].to_envelope()
            self.envelopes[node.index] = env
        return env

    def total_profile_pieces(self) -> int:
        """Σ over nodes of intermediate-profile size — the storage a
        non-persistent representation must copy."""
        total = sum(env.size for env in self.flat_envelopes.values())
        total += sum(
            env.size
            for idx, env in self.envelopes.items()
            if idx not in self.flat_envelopes
        )
        return total


def build_pct(
    tree: SeparatorTree,
    image_segments: Sequence[ImageSegment],
    *,
    eps: float = EPS,
    tracker: Optional[PramTracker] = None,
    measure_sharing: bool = False,
    engine: Optional[str] = None,
    config=None,
) -> PCT:
    """Run Phase 1 over ``tree``.

    ``image_segments[i]`` must be the image projection of the edge at
    front-to-back position... precisely: leaf with order-range
    ``[i, i+1)`` takes ``image_segments[tree.order[i]]``.

    ``engine`` selects the merge kernel (see
    :mod:`repro.envelope.engine`); the NumPy engine batches each layer
    into one array sweep.  A ``config``
    (:class:`repro.config.HsrConfig`) with ``workers > 1`` splits each
    layer's batched sweep across the :mod:`repro.parallel_exec`
    process pool, bit-exact.
    """
    use_batch = resolve_engine(engine) == "numpy"
    use_pool = (
        use_batch and config is not None and config.resolved_workers() > 1
    )
    pct = PCT(tree)

    if use_batch:
        from repro.envelope.flat import (
            FlatEnvelope,
            batch_merge,
            stack_envelopes,
        )

    for level in tree.levels_bottom_up():
        leaves = [node for node in level if node.is_leaf]
        internals = [node for node in level if not node.is_leaf]

        if leaves:
            for node in leaves:
                seg = image_segments[tree.order[node.lo]]
                if use_batch:
                    pct.flat_envelopes[node.index] = (
                        FlatEnvelope.from_segment(seg)
                    )
                else:
                    pct.envelopes[node.index] = Envelope.from_segment(seg)
                pct.ops += 1
            if tracker is not None:
                # All leaf initialisations of a layer run concurrently.
                with tracker.parallel() as par:
                    for _ in leaves:
                        par.spawn(1, 1)

        if internals:
            if use_batch:
                lefts = stack_envelopes(
                    [
                        pct.flat_envelopes[node.left.index]  # type: ignore[union-attr]
                        for node in internals
                    ]
                )
                rights = stack_envelopes(
                    [
                        pct.flat_envelopes[node.right.index]  # type: ignore[union-attr]
                        for node in internals
                    ]
                )
                res = None
                if use_pool:
                    from repro.parallel_exec import maybe_batch_merge

                    res = maybe_batch_merge(
                        lefts,
                        rights,
                        eps=eps,
                        record_crossings=False,
                        config=config,
                    )
                if res is None:
                    res = batch_merge(
                        lefts, rights, eps=eps, record_crossings=False
                    )
                ops_list = res.ops.tolist()
                for g, node in enumerate(internals):
                    pct.flat_envelopes[node.index] = res.merged.group(g)
                    pct.ops += ops_list[g]
                if tracker is not None:
                    with tracker.parallel() as par:
                        for ops in ops_list:
                            par.spawn(ops, max(1.0, math.log2(ops + 1)))
            else:
                results = [
                    _merge_task(
                        pct.envelopes[node.left.index],  # type: ignore[union-attr]
                        pct.envelopes[node.right.index],  # type: ignore[union-attr]
                        eps,
                        engine,
                    )
                    for node in internals
                ]
                if tracker is not None:
                    with tracker.parallel() as par:
                        for (_env, ops, _nx) in results:
                            par.spawn(ops, max(1.0, math.log2(ops + 1)))
                for node, (env, ops, _nx) in zip(internals, results):
                    pct.envelopes[node.index] = env
                    pct.ops += ops

        if measure_sharing and internals:
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
