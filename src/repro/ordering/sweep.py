"""Front-to-back edge ordering by plane sweep.

The paper orders edges with a Tamassia–Vitter separator tree; the only
property downstream phases use is that the result is a linear
extension of the *in-front-of* partial order:

    e_i ≺ e_j  iff some viewing ray meets e_i before e_j,

equivalently (viewer at ``x = +inf``): at some common map ``y``, the
xy-projection of ``e_i`` has strictly larger ``x``.  Because the
xy-projections of terrain edges never properly cross, the relative
x-order of two overlapping projections is constant over their common
y-range, and the relation is acyclic.

The sweep advances in ``y`` keeping the status — projections crossing
the sweep line, sorted by ``x``.  Whenever two segments become
*adjacent* in the status (insertion next to a neighbour, or removal of
the last segment between two), a precedence constraint is recorded.
Any two overlapping segments are connected through the chain of
status-adjacent pairs at any common ``y``, so the transitive closure
of recorded constraints contains the full partial order; a
topological sort then yields the front-to-back sequence.

Degenerate edges whose projection is horizontal in the map plane
(constant sweep ``y``) are inserted and immediately removed, which
records their neighbour constraints at that single ``y``; they occlude
a measure-zero sliver only, and their own visibility is decided by a
point query downstream.

Under the numpy engine with the optional compiled core built, the
ordering is one C call (:func:`repro.envelope._ccore.front_to_back`).
For a terrain it passes the face table (:meth:`Terrain.face_edges`):
the constraints are then each face's in-front pairs plus this sweep
run over the boundary edges alone, whose transitive closure equals the
full sweep's — and Kahn's order depends only on that closure, so the
order is the same, byte for byte, in time linear in the faces.  On a
map-horizontal edge, a tie, a non-manifold table, a NaN or a cycle the
call falls back to a literal transcription of this module's full
sweep; a ``segments=`` list always takes it.  The Python code here is
the ``engine="python"`` path, the oracle, and the answer whenever the
C call declines.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Optional, Sequence

from repro.envelope import _ccore
from repro.errors import OrderingError
from repro.geometry.segments import MapSegment
from repro.terrain.model import Terrain

__all__ = ["front_to_back_order", "in_front_comparison", "order_constraints"]


def in_front_comparison(a: MapSegment, b: MapSegment) -> int:
    """``+1`` when ``a`` is in front of ``b`` (larger x on the common
    y-range), ``-1`` for behind, ``0`` when the projections share at
    most a point of y-range (no constraint).

    Evaluated at the midpoint of the common y-range, where the
    constant-sign property of non-crossing projections makes a single
    comparison decisive.
    """
    lo = max(a.y1, b.y1)
    hi = min(a.y2, b.y2)
    if hi <= lo:
        return 0
    ym = 0.5 * (lo + hi)
    xa = a.x_at(ym)
    xb = b.x_at(ym)
    if xa > xb:
        return 1
    if xa < xb:
        return -1
    return 0


class _StatusEntry:
    """Sort adapter: orders status entries by x at the common y-range."""

    __slots__ = ("seg",)

    def __init__(self, seg: MapSegment):
        self.seg = seg

    def __lt__(self, other: "_StatusEntry") -> bool:
        c = in_front_comparison(self.seg, other.seg)
        if c != 0:
            return c < 0  # status is sorted by ascending x (back first)
        return self.seg.source < other.seg.source


def order_constraints(
    segments: Sequence[MapSegment],
) -> list[tuple[int, int]]:
    """All (front, back) precedence constraints from the sweep.

    Each pair ``(f, b)`` asserts edge ``f`` must be processed before
    edge ``b``.  Constraint count is ``O(n)`` — at most two per
    insertion and one per removal.
    """
    events: list[tuple[float, int, int]] = []
    # Event kinds at equal y: removals (0) before insert/remove pairs
    # of degenerate horizontals (1) before insertions (2); this keeps
    # point-contact pairs unconstrained.
    for idx, seg in enumerate(segments):
        if seg.is_horizontal:
            events.append((seg.y1, 1, idx))
        else:
            events.append((seg.y1, 2, idx))
            events.append((seg.y2, 0, idx))
    events.sort()

    status: list[_StatusEntry] = []
    constraints: list[tuple[int, int]] = []

    def locate(entry: _StatusEntry) -> int:
        lo, hi = 0, len(status)
        while lo < hi:
            mid = (lo + hi) // 2
            if status[mid] < entry:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def record_neighbours(pos: int, idx: int) -> None:
        # status[pos] == the entry for idx; left neighbour is behind
        # (smaller x), right neighbour is in front.
        if pos > 0:
            constraints.append((idx, status[pos - 1].seg.source))
        if pos + 1 < len(status):
            constraints.append((status[pos + 1].seg.source, idx))

    def remove(idx: int, seg: MapSegment) -> None:
        entry = _StatusEntry(seg)
        pos = locate(entry)
        # The comparator can place equal-at-midpoint entries either
        # side; scan the small neighbourhood for the exact source.
        scan = pos
        while scan < len(status) and status[scan].seg.source != idx:
            scan += 1
        if scan == len(status):
            scan = pos - 1
            while scan >= 0 and status[scan].seg.source != idx:
                scan -= 1
        if scan < 0:  # pragma: no cover - defensive
            raise OrderingError(f"segment {idx} missing from sweep status")
        status.pop(scan)
        if 0 < scan < len(status):
            # Newly adjacent pair (left=behind, right=front).
            constraints.append(
                (status[scan].seg.source, status[scan - 1].seg.source)
            )

    for _y, _kind, idx in events:
        seg = segments[idx]
        if _kind == 2:
            entry = _StatusEntry(seg)
            pos = locate(entry)
            status.insert(pos, entry)
            record_neighbours(pos, idx)
        elif _kind == 0:
            remove(idx, seg)
        else:  # degenerate horizontal: insert + record + remove
            entry = _StatusEntry(seg)
            pos = locate(entry)
            status.insert(pos, entry)
            record_neighbours(pos, idx)
            status.pop(pos)

    return constraints


def map_lanes(terrain: Terrain, segments: Sequence[MapSegment] | None = None):
    """``(x1, y1, x2, y2, source)`` of the map segments — float64
    coordinate and int64 source lanes: the compiled ordering's input.

    Built from ``segments`` when given (``array`` buffers), else
    :meth:`Terrain.map_lanes` (numpy lanes gathered from the terrain's
    buffers, sources equal to the lane indices).
    """
    if segments is None:
        return terrain.map_lanes()
    return (
        array("d", [s.x1 for s in segments]),
        array("d", [s.y1 for s in segments]),
        array("d", [s.x2 for s in segments]),
        array("d", [s.y2 for s in segments]),
        array("q", [s.source for s in segments]),
    )


def front_to_back_order(
    terrain: Terrain,
    *,
    segments: Sequence[MapSegment] | None = None,
    tie_break: str = "min",
    engine: Optional[str] = None,
    config=None,
) -> list[int]:
    """Front-to-back edge processing order for ``terrain``.

    Returns edge indices such that no later edge ever occludes an
    earlier one.  Deterministic: among simultaneously-ready edges the
    smallest index goes first (``tie_break="min"``) or the largest
    (``tie_break="max"``) — two different valid linear extensions,
    which the test-suite uses to check that the visibility map is
    order-independent.  Raises :class:`OrderingError` if the
    constraint graph has a cycle (impossible for valid terrains;
    indicates corrupt input).

    ``config`` (:class:`repro.config.HsrConfig`) and ``engine``
    resolve like every other front door: under ``"numpy"`` the
    compiled core answers when it is built and the config's
    ``compiled_insert()`` is on (the default unless
    ``REPRO_COMPILED=0``); ``"python"`` or ``use_compiled_insert=False``
    runs the Python sweep.  Both give the identical order.
    """
    from repro.config import HsrConfig

    if tie_break not in ("min", "max"):
        raise OrderingError(f"unknown tie_break {tie_break!r}")
    cfg = HsrConfig.resolve(config, engine=engine)
    order = _order(terrain, segments, 1 if tie_break == "min" else -1, cfg)
    return order if isinstance(order, list) else order.tolist()


def run_order(terrain: Terrain, config) -> "list[int] | object":
    """The order of an HSR run under ``config``: what
    :func:`front_to_back_order` returns, but as the compiled core's
    int64 array when the core answered — the form
    :meth:`Terrain.image_lanes` takes without rebuilding it."""
    return _order(terrain, None, 1, config)


def _order(terrain: Terrain, segments, sign: int, cfg):
    if cfg.compiled_insert() and cfg.resolved_engine() == "numpy":
        faces = terrain.face_edges() if segments is None else (None, None)
        order = _ccore.order_array(*map_lanes(terrain, segments), sign, *faces)
        if order is not None:
            return order
    segs = list(segments) if segments is not None else terrain.map_segments()
    n = len(segs)
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    # Duplicate (front, back) pairs are kept: both copies decrement
    # ``back`` when ``front`` pops, so Kahn's output cannot change.
    for front, back in order_constraints(segs):
        if front == back:
            continue
        succ[front].append(back)
        indeg[back] += 1
    heap = [sign * i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        i = sign * heapq.heappop(heap)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, sign * j)
    if len(order) != n:
        raise OrderingError(
            "in-front-of constraint graph has a cycle"
            f" ({n - len(order)} edges unordered) — input is not a"
            " valid terrain projection"
        )
    return order
