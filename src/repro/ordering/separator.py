"""Separator tree over the front-to-back edge order.

The paper's separator tree (via Tamassia–Vitter monotone-chain
decomposition) serves two roles: it linearises the in-front-of order
and provides the balanced binary skeleton on which the Profile
Computation Tree (PCT) is built.  The linearisation here comes from
:mod:`repro.ordering.sweep`; this module supplies the skeleton — a
balanced binary tree whose leaves are the ordered edges and whose
internal nodes span contiguous order ranges.

The same class doubles as the PCT shape: Phase 1 attaches an
intermediate profile to every node, Phase 2 walks it layer by layer
(see :mod:`repro.hsr.pct`).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.errors import OrderingError

__all__ = ["SeparatorNode", "SeparatorTree"]


class SeparatorNode:
    """One node of the separator tree: the edge-order range
    ``[lo, hi)`` of the leaves below it."""

    __slots__ = ("lo", "hi", "left", "right", "parent", "depth", "index")

    def __init__(self, lo: int, hi: int, depth: int):
        self.lo = lo
        self.hi = hi
        self.left: Optional["SeparatorNode"] = None
        self.right: Optional["SeparatorNode"] = None
        self.parent: Optional["SeparatorNode"] = None
        self.depth = depth
        self.index = -1  # BFS numbering, assigned by the tree

    @property
    def is_leaf(self) -> bool:
        return self.hi - self.lo <= 1

    @property
    def span(self) -> int:
        return self.hi - self.lo

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeparatorNode([{self.lo}, {self.hi}), depth={self.depth})"


class SeparatorTree:
    """Balanced binary tree over an ordered edge sequence.

    Parameters
    ----------
    order:
        Front-to-back edge indices (leaf ``i`` is ``order[i]``).
    """

    def __init__(self, order: Sequence[int]):
        if not order:
            raise OrderingError("separator tree over empty edge order")
        self.order: list[int] = list(order)
        self._levels: Optional[list[list[SeparatorNode]]] = None

    @property
    def root(self) -> SeparatorNode:
        return self._node_levels()[0][0]

    def _node_levels(self) -> list[list[SeparatorNode]]:
        """The node objects, layer by layer — built on first use, since
        the array paths of Phases 1 and 2 never walk them."""
        if self._levels is None:
            self._levels = self._assign_levels(self._build(0, len(self.order), 0))
        return self._levels

    def _build(self, lo: int, hi: int, depth: int) -> SeparatorNode:
        node = SeparatorNode(lo, hi, depth)
        if hi - lo > 1:
            mid = (lo + hi) // 2
            node.left = self._build(lo, mid, depth + 1)
            node.right = self._build(mid, hi, depth + 1)
            node.left.parent = node
            node.right.parent = node
        return node

    @staticmethod
    def _assign_levels(root: SeparatorNode) -> list[list[SeparatorNode]]:
        levels = []
        frontier = [root]
        idx = 0
        while frontier:
            levels.append(frontier)
            nxt: list[SeparatorNode] = []
            for node in frontier:
                node.index = idx
                idx += 1
                if node.left is not None:
                    nxt.append(node.left)
                if node.right is not None:
                    nxt.append(node.right)
            frontier = nxt
        return levels

    # -- traversal ------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of layers (root layer = 1): the larger half of a
        split has ``ceil(n / 2)`` leaves, so ``ceil(log2 n) + 1``."""
        return (len(self.order) - 1).bit_length() + 1

    def levels(self) -> Iterator[list[SeparatorNode]]:
        """Layers root-first — Phase 2's processing order."""
        return iter(self._node_levels())

    def levels_bottom_up(self) -> Iterator[list[SeparatorNode]]:
        """Layers leaves-first — Phase 1's processing order."""
        return reversed(self._node_levels())

    def nodes(self) -> Iterator[SeparatorNode]:
        for level in self._node_levels():
            yield from level

    def leaves(self) -> list[SeparatorNode]:
        return [node for node in self.nodes() if node.is_leaf]

    def leaf_edge(self, node: SeparatorNode) -> int:
        """The terrain-edge index at a leaf."""
        if not node.is_leaf:
            raise OrderingError(f"{node!r} is not a leaf")
        return self.order[node.lo]

    @property
    def n_leaves(self) -> int:
        return len(self.order)

    def node_count(self) -> int:
        return sum(len(level) for level in self._node_levels())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SeparatorTree({self.n_leaves} leaves, height={self.height})"
        )
