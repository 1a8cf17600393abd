"""Hidden-surface-removal output: the visibility map.

The algorithm's output is *object-space* and device-independent
(paper §1.1): a combinatorial description of the visible image — a
planar graph in the image (zy) plane whose edges are the visible
sub-segments of terrain edges and whose vertices are their endpoints
(original vertex images and profile crossings).  The output size ``k``
is the number of vertices plus edges of this graph, which is what
Theorem 3.1's bound is sensitive to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, NamedTuple, Optional

from repro.envelope.visibility import VisibilityResult
from repro.geometry.segments import ImageSegment

__all__ = ["VisibleSegment", "VisibilityMap", "HsrStats", "HsrResult"]

#: Rounding grid for identifying coincident image vertices.
_VERTEX_QUANTUM = 1e-6


class VisibleSegment(NamedTuple):
    """One visible sub-segment of a terrain edge in the image plane.

    Degenerate (``ya == yb``) entries record visible vertically-
    projected edges, which appear as single points in the image.
    """

    edge: int
    ya: float
    za: float
    yb: float
    zb: float

    @property
    def is_point(self) -> bool:
        return self.ya == self.yb

    @property
    def width(self) -> float:
        return self.yb - self.ya


class VisibilityMap:
    """The visible image as a collection of :class:`VisibleSegment`.

    Construction is incremental: the pipelines append per-edge results
    via :meth:`add_edge_result`, or a whole run's clipped rows as one
    columnar block via :meth:`add_block`.  A block's segments are built
    on the first access to :attr:`segments`; derived quantities (vertex
    count, ``k``) are computed lazily and cached.
    """

    def __init__(self) -> None:
        self._segments: list[VisibleSegment] = []
        #: Row blocks whose segments are not built yet; they come after
        #: ``_segments`` in insertion order.
        self._pending: list = []
        #: Every row block added, while no segment came any other way
        #: (``None`` after one did): ``k`` is then counted on them.
        self._blocks: Optional[list] = []
        #: Segments per edge, in insertion order; built on first query.
        self._by_edge: Optional[dict[int, list[VisibleSegment]]] = None
        self._k: Optional[int] = None

    # -- construction ----------------------------------------------------

    def add_segment(self, seg: VisibleSegment) -> None:
        self.segments.append(seg)
        if self._by_edge is not None:
            self._by_edge.setdefault(seg.edge, []).append(seg)
        self._k = None
        self._blocks = None

    def add_edge_result(
        self, edge: int, image_seg: ImageSegment, result: VisibilityResult
    ) -> None:
        """Record the visible parts of one edge.

        ``image_seg`` is the edge's image projection; each visible part
        is clipped out of it (:meth:`ImageSegment.visible_piece`).
        Vertical projections store their top point.
        """
        for part in result.parts:
            self.add_segment(
                VisibleSegment(edge, *image_seg.visible_piece(part.ya, part.yb))
            )

    def add_block(self, rows) -> None:
        """Append already-clipped visible parts as one ``(5, m)``
        float64 row block in the :meth:`repro.envelope._ccore.Core.take`
        layout: rows ``ya, za, yb, zb``, then the edge as int64 bits in
        row 4 (the ``rows`` of :func:`repro.envelope.flat_splice.insert_run`
        and of a compiled Phase 2).  Column ``j`` is one
        :class:`VisibleSegment`, built on first access to
        :attr:`segments`.  The map keeps the block and makes it
        read-only, so later writes cannot desynchronise ``k`` from the
        segments."""
        if rows.ndim != 2 or rows.shape[0] != 5 or str(rows.dtype) != "float64":
            raise ValueError(
                f"a row block is a (5, m) float64 array, not {rows.dtype} {rows.shape}"
            )
        if not rows.shape[1]:
            return
        rows.flags.writeable = False
        self._pending.append(rows)
        if self._blocks is not None:
            self._blocks.append(rows)
        self._k = None

    @property
    def segments(self) -> list[VisibleSegment]:
        """Every visible segment, in insertion order.  The segments of
        pending row blocks are built here, once: Python ``int`` edges
        and ``float`` coordinates, one ``tolist`` per lane kind of a
        block."""
        if not self._pending:
            return self._segments
        import numpy as np

        for rows in self._pending:
            edge = rows[4].view(np.int64).tolist()
            # tuple.__new__ builds the same named tuples without a
            # Python call per row.
            built = list(
                map(
                    tuple.__new__,
                    repeat(VisibleSegment),
                    zip(edge, *rows[:4].tolist()),
                )
            )
            self._segments += built
            if self._by_edge is not None:
                _index_by_edge(self._by_edge, built)
        self._pending = []
        return self._segments

    # -- queries -----------------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self._segments) + sum(rows.shape[1] for rows in self._pending)

    def _edge_index(self) -> dict[int, list[VisibleSegment]]:
        segments = self.segments
        if self._by_edge is None:
            self._by_edge = _index_by_edge({}, segments)
        return self._by_edge

    def visible_edges(self) -> set[int]:
        """Terrain edges with at least one visible part."""
        return set(self._edge_index())

    def edge_intervals(self, edge: int) -> list[tuple[float, float]]:
        """Visible y-intervals of one edge, sorted."""
        return sorted(
            (s.ya, s.yb) for s in self._edge_index().get(edge, [])
        )

    def per_edge_intervals(self) -> dict[int, list[tuple[float, float]]]:
        return {e: self.edge_intervals(e) for e in self._edge_index()}

    def vertices(self) -> set[tuple[float, float]]:
        """Distinct image vertices (quantised endpoint coordinates)."""
        q = _VERTEX_QUANTUM
        out: set[tuple[float, float]] = set()
        for s in self.segments:
            out.add((round(s.ya / q) * q, round(s.za / q) * q))
            out.add((round(s.yb / q) * q, round(s.zb / q) * q))
        return out

    @property
    def k(self) -> int:
        """Output size: image vertices + image edges (paper §1.1).

        Counted on the row blocks when every segment came from one
        (:func:`_k_of_blocks`), else over :meth:`vertices`; both give
        the same count."""
        if self._k is None:
            k = _k_of_blocks(self._blocks) if self._blocks else None
            if k is None:
                n_points = sum(1 for s in self.segments if s.is_point)
                proper = self.n_segments - n_points
                k = len(self.vertices()) + proper
            self._k = k
        return self._k

    def total_visible_length(self) -> float:
        """Total arc length of the visible image (a robust scalar for
        cross-algorithm comparison)."""
        total = 0.0
        for s in self.segments:
            dy = s.yb - s.ya
            dz = s.zb - s.za
            total += (dy * dy + dz * dz) ** 0.5
        return total

    # -- comparison ---------------------------------------------------------

    def approx_same(
        self, other: "VisibilityMap", *, tol: float = 1e-6
    ) -> bool:
        """Structural comparison of two visibility maps.

        Two maps agree when every edge has the same visible y-intervals
        up to ``tol`` (interval lists are merged before comparison so a
        part split in two by one algorithm still matches).
        """
        edges = self.visible_edges() | other.visible_edges()
        for e in edges:
            a = _merge_intervals(self.edge_intervals(e), tol)
            b = _merge_intervals(other.edge_intervals(e), tol)
            if len(a) != len(b):
                return False
            for (a1, a2), (b1, b2) in zip(a, b):
                if abs(a1 - b1) > tol or abs(a2 - b2) > tol:
                    return False
        return True

    def difference_report(
        self, other: "VisibilityMap", *, tol: float = 1e-6
    ) -> list[str]:
        """Human-readable mismatch list (empty when maps agree)."""
        report: list[str] = []
        edges = self.visible_edges() | other.visible_edges()
        for e in sorted(edges):
            a = _merge_intervals(self.edge_intervals(e), tol)
            b = _merge_intervals(other.edge_intervals(e), tol)
            if a != b and (
                len(a) != len(b)
                or any(
                    abs(x1 - y1) > tol or abs(x2 - y2) > tol
                    for (x1, x2), (y1, y2) in zip(a, b)
                )
            ):
                report.append(f"edge {e}: {a} vs {b}")
        return report

    def summary(self) -> str:
        return (
            f"VisibilityMap: {self.n_segments} visible segments over"
            f" {len(self.visible_edges())} edges, k={self.k}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.summary()}>"


def _index_by_edge(by_edge: dict, segments) -> dict:
    """Append each of ``segments`` to its edge's list in ``by_edge``."""
    for seg in segments:
        by_edge.setdefault(seg.edge, []).append(seg)
    return by_edge


def _k_of_blocks(blocks: list) -> Optional[int]:
    """``k`` of the rows of ``(5, m)`` row blocks (see
    :meth:`VisibilityMap.add_block`), vectorised (numpy); ``None`` when
    a quotient ``v / q`` is not finite (the scalar count raises on it,
    as ``round`` does).

    Each endpoint coordinate snaps as ``np.rint(v / q) * q``, which is
    ``round(v / q) * q`` bit for bit (both round half to even, and
    ``v / q`` already holds an integer beyond 2**52); ``+ 0.0`` folds
    ``-0.0`` onto ``0.0``, which the set of :meth:`VisibilityMap.vertices`
    treats as one, so equal snapped values are equal bit patterns and
    sort together.  Distinct snapped ``(y, z)`` pairs are the image
    vertices, and rows with ``ya != yb`` the image edges.
    """
    import numpy as np

    rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
    ya, yb = rows[0], rows[2]
    if not ya.size:
        return 0
    q = _VERTEX_QUANTUM
    with np.errstate(over="ignore", invalid="ignore"):
        # Row 0 is every endpoint's y (ya then yb), row 1 its z.
        quot = rows[[0, 2, 1, 3]].reshape(2, -1) / q
    if not np.isfinite(quot).all():
        return None
    y, z = np.rint(quot) * q + 0.0
    # Distinct (y, z) pairs: rank each coordinate among its distinct
    # values, then count distinct rank pairs as sorted int64 keys.
    _, ry = np.unique(y, return_inverse=True)
    _, rz = np.unique(z, return_inverse=True)
    keys = ry.astype(np.int64) * (int(rz.max()) + 1) + rz
    keys.sort()
    vertices = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    return vertices + int(np.count_nonzero(ya != yb))


def _merge_intervals(
    intervals: Iterable[tuple[float, float]], tol: float
) -> list[tuple[float, float]]:
    """Merge touching/overlapping intervals (within ``tol``)."""
    out: list[tuple[float, float]] = []
    for ya, yb in sorted(intervals):
        if out and ya <= out[-1][1] + tol:
            out[-1] = (out[-1][0], max(out[-1][1], yb))
        else:
            out.append((ya, yb))
    return out


@dataclass
class HsrStats:
    """Instrumentation from one HSR run."""

    n_edges: int = 0
    k: int = 0
    ops: int = 0
    crossings_found: int = 0
    wall_time_s: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    def as_row(self) -> dict[str, float]:
        row: dict[str, float] = {
            "n": self.n_edges,
            "k": self.k,
            "ops": self.ops,
            "crossings": self.crossings_found,
            "seconds": self.wall_time_s,
        }
        row.update(self.extra)
        return row


@dataclass
class HsrResult:
    """Output + instrumentation of an HSR pipeline run.

    ``reliability`` carries the run's
    :class:`~repro.reliability.guard.ReliabilityReport` when the
    pipeline ran under guarded dispatch — deliberately *not* part of
    ``stats.extra``, which the engine-parity suites compare bit-exact
    (a degraded run's stats are identical to a healthy one's; only the
    incident log differs).
    """

    visibility_map: VisibilityMap
    stats: HsrStats
    order: list[int] = field(default_factory=list)
    tracker: object = None  # Optional[PramTracker]; object to avoid import cycle
    reliability: object = None  # Optional[ReliabilityReport]; same reason

    @property
    def k(self) -> int:
        return self.visibility_map.k
