"""Upper-profile (envelope) representation.

An :class:`Envelope` is the point-wise maximum of a set of image-plane
segments: a monotone (in ``y``) sequence of non-overlapping linear
*pieces*, with implicit gaps (value ``-inf``) where no segment is
present.  This is the paper's "upper profile" / "silhouette".

Envelopes here are array-backed and immutable-by-convention: all
mutating algorithms (:mod:`repro.envelope.merge`,
``Envelope.insert_segment``) return new envelopes.  The persistent
chunked-rope representation used by the persistent and ACG phase-2
modes lives in :mod:`repro.persistence`.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.errors import EnvelopeError
from repro.geometry.primitives import EPS, NEG_INF, Point2, lerp
from repro.geometry.segments import ImageSegment

__all__ = ["Piece", "Envelope"]


class Piece(NamedTuple):
    """One linear piece of an envelope over ``[ya, yb]``.

    ``source`` is the terrain-edge index whose segment supports the
    piece (``-1`` for synthetic pieces).  Pieces always have
    ``ya < yb``; point supports are not stored (see the note on
    vertical segments in :mod:`repro.geometry.segments`).
    """

    ya: float
    za: float
    yb: float
    zb: float
    source: int

    def z_at(self, y: float) -> float:
        """Height of the piece's supporting line at ``y`` (exact at
        the endpoints)."""
        if y == self.ya:
            return self.za
        if y == self.yb:
            return self.zb
        t = (y - self.ya) / (self.yb - self.ya)
        return lerp(self.za, self.zb, t)

    @property
    def slope(self) -> float:
        return (self.zb - self.za) / (self.yb - self.ya)

    def clipped(self, u: float, v: float) -> "Piece":
        """The sub-piece over ``[u, v] ⊆ [ya, yb]``."""
        if u < self.ya - EPS or v > self.yb + EPS or u >= v:
            raise EnvelopeError(
                f"clip [{u}, {v}] outside piece [{self.ya}, {self.yb}]"
            )
        u = max(u, self.ya)
        v = min(v, self.yb)
        return Piece(u, self.z_at(u), v, self.z_at(v), self.source)

    def as_segment(self) -> ImageSegment:
        return ImageSegment(self.ya, self.za, self.yb, self.zb, self.source)

    def vertices(self) -> tuple[Point2, Point2]:
        """Both endpoints as image-plane points ``(y, z)``."""
        return Point2(self.ya, self.za), Point2(self.yb, self.zb)


class Envelope:
    """A monotone piecewise-linear upper profile.

    Invariants (checked by :meth:`validate`):

    * pieces sorted by ``ya``; ``ya < yb`` within each piece;
    * consecutive pieces do not overlap: ``pieces[i].yb <= pieces[i+1].ya``
      (equality means the profile is contiguous there; strict
      inequality is a gap where the profile is ``-inf``).
    """

    __slots__ = ("pieces", "_starts")

    def __init__(self, pieces: Sequence[Piece] = ()):
        self.pieces: list[Piece] = list(pieces)
        # Cached piece start ordinates for binary search.
        self._starts: list[float] = [p.ya for p in self.pieces]

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty() -> "Envelope":
        """The envelope of the empty segment set (``-inf`` everywhere)."""
        return Envelope(())

    @staticmethod
    def from_segment(seg: ImageSegment) -> "Envelope":
        """Envelope of a single segment.

        Vertical segments have an empty envelope (their image is a
        single ``y`` — measure zero; their own visibility is handled by
        point queries in :mod:`repro.envelope.visibility`).
        """
        if seg.is_vertical:
            return Envelope.empty()
        return Envelope(
            (Piece(seg.y1, seg.z1, seg.y2, seg.z2, seg.source),)
        )

    @staticmethod
    def from_pieces(pieces: Iterable[Piece]) -> "Envelope":
        env = Envelope(tuple(pieces))
        env.validate()
        return env

    # -- basic queries ------------------------------------------------

    def __len__(self) -> int:
        return len(self.pieces)

    def __iter__(self) -> Iterator[Piece]:
        return iter(self.pieces)

    def __bool__(self) -> bool:
        return bool(self.pieces)

    @property
    def size(self) -> int:
        """Number of linear pieces (the profile's combinatorial size)."""
        return len(self.pieces)

    def y_span(self) -> tuple[float, float]:
        """Smallest interval containing the profile's support.

        Raises :class:`EnvelopeError` when empty.
        """
        if not self.pieces:
            raise EnvelopeError("y_span of empty envelope")
        return self.pieces[0].ya, self.pieces[-1].yb

    def value_at(self, y: float) -> float:
        """Profile height at ``y``; ``-inf`` in gaps.

        At a breakpoint shared by two pieces the value is the max of
        the two one-sided limits (upper semi-continuity — the correct
        convention for an upper envelope of closed segments).
        """
        if not self.pieces:
            return NEG_INF
        i = bisect.bisect_right(self._starts, y) - 1
        best = NEG_INF
        if i >= 0:
            p = self.pieces[i]
            if p.ya <= y <= p.yb:
                best = p.z_at(y)
            # The previous piece may end exactly at y (a breakpoint
            # where two pieces meet, possibly with a jump).
            if i >= 1 and self.pieces[i - 1].yb == y:
                v = self.pieces[i - 1].zb
                if v > best:
                    best = v
        # The next piece may start exactly at y.
        if i + 1 < len(self.pieces) and self.pieces[i + 1].ya == y:
            v = self.pieces[i + 1].za
            if v > best:
                best = v
        return best

    def piece_index_covering(self, y: float) -> Optional[int]:
        """Index of a piece whose closed range contains ``y`` (the
        left-most such piece), or ``None`` in a gap."""
        if not self.pieces:
            return None
        i = bisect.bisect_right(self._starts, y) - 1
        if i >= 1 and self.pieces[i - 1].yb == y:
            return i - 1
        if i >= 0 and self.pieces[i].ya <= y <= self.pieces[i].yb:
            return i
        if i + 1 < len(self.pieces) and self.pieces[i + 1].ya == y:
            return i + 1
        return None

    def pieces_overlapping(self, ya: float, yb: float) -> tuple[int, int]:
        """Half-open index range ``[lo, hi)`` of pieces whose interior
        overlaps ``(ya, yb)``."""
        if not self.pieces or ya >= yb:
            return (0, 0)
        lo = bisect.bisect_right(self._starts, ya) - 1
        if lo < 0 or self.pieces[lo].yb <= ya:
            lo += 1
        hi = bisect.bisect_left(self._starts, yb)
        return (lo, hi)

    def vertices(self) -> list[Point2]:
        """All piece endpoints in y-order (duplicates at contiguous
        joins removed when the values agree exactly)."""
        out: list[Point2] = []
        for p in self.pieces:
            a, b = p.vertices()
            if not out or out[-1] != a:
                out.append(a)
            out.append(b)
        return out

    def sources(self) -> set[int]:
        """Set of terrain-edge ids contributing at least one piece."""
        return {p.source for p in self.pieces}

    def total_length(self) -> float:
        """Total arc length of the profile (diagnostics)."""
        return sum(p.as_segment().length() for p in self.pieces)

    # -- integrity ----------------------------------------------------

    def validate(self, eps: float = 0.0) -> None:
        """Raise :class:`EnvelopeError` when invariants are violated."""
        prev_end = None
        for idx, p in enumerate(self.pieces):
            if not (p.ya < p.yb):
                raise EnvelopeError(f"piece {idx} has empty span: {p}")
            if prev_end is not None and p.ya < prev_end - eps:
                raise EnvelopeError(
                    f"piece {idx} overlaps previous (starts {p.ya} <"
                    f" previous end {prev_end})"
                )
            prev_end = p.yb

    # -- comparison helpers (used heavily by tests) --------------------

    def approx_equal(
        self, other: "Envelope", *, samples: int = 257, eps: float = 1e-6
    ) -> bool:
        """Numerically compare two envelopes on a dense common grid.

        Compares ``value_at`` at every breakpoint of either envelope,
        at midpoints between consecutive breakpoints, and on a uniform
        grid of ``samples`` points over the union span.  ``-inf`` must
        match exactly.
        """
        ys: set[float] = set()
        for env in (self, other):
            for p in env.pieces:
                ys.add(p.ya)
                ys.add(p.yb)
        if not ys:
            return not self.pieces and not other.pieces
        lo, hi = min(ys), max(ys)
        if samples > 1 and hi > lo:
            step = (hi - lo) / (samples - 1)
            ys.update(lo + i * step for i in range(samples))
        sorted_ys = sorted(ys)
        for u, v in zip(sorted_ys, sorted_ys[1:]):
            ys.add(0.5 * (u + v))
        for y in ys:
            a = self.value_at(y)
            b = other.value_at(y)
            if a == NEG_INF or b == NEG_INF:
                # Tolerate -inf vs finite mismatches only within eps of
                # a support boundary, where one-sided conventions may
                # legitimately differ.
                if a != b and not self._near_boundary(y, other, eps):
                    return False
                continue
            if abs(a - b) > eps:
                return False
        return True

    def _near_boundary(self, y: float, other: "Envelope", eps: float) -> bool:
        for env in (self, other):
            for p in env.pieces:
                if abs(p.ya - y) <= eps or abs(p.yb - y) <= eps:
                    return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not self.pieces:
            return "Envelope(empty)"
        lo, hi = self.y_span()
        return (
            f"Envelope({len(self.pieces)} pieces over"
            f" [{lo:.4g}, {hi:.4g}])"
        )


class EnvelopeBuilder:
    """Accumulates pieces left-to-right, coalescing contiguous pieces
    that come from the same source segment (same supporting line).

    Used by the merge sweep so that splitting a piece at envelope
    breakpoints of the *other* envelope does not inflate the output
    size — without coalescing, merged envelope sizes would grow with
    the number of elementary intervals instead of the number of true
    profile vertices.
    """

    __slots__ = ("_pieces", "eps", "_last_slope")

    def __init__(self, eps: float = EPS):
        self._pieces: list[Piece] = []
        self.eps = eps
        # Slope of the current last piece, when already known.  Merge
        # sweeps repeatedly clip the same synthetic (source -1) piece
        # into adjacent sub-pieces; caching avoids re-deriving the
        # slope of the accumulated piece on every ``add``.
        self._last_slope: Optional[float] = None

    def add(self, piece: Piece) -> None:
        if piece.ya >= piece.yb:
            return
        if self._pieces:
            last = self._pieces[-1]
            if (
                last.source == piece.source
                and last.yb == piece.ya
                and abs(last.zb - piece.za) <= self.eps
            ):
                if last.source >= 0:
                    self._pieces[-1] = Piece(
                        last.ya, last.za, piece.yb, piece.zb, last.source
                    )
                    self._last_slope = None
                    return
                piece_slope = piece.slope
                last_slope = self._last_slope
                if last_slope is None:
                    last_slope = last.slope
                if abs(last_slope - piece_slope) <= self.eps:
                    self._pieces[-1] = Piece(
                        last.ya, last.za, piece.yb, piece.zb, last.source
                    )
                    self._last_slope = None
                    return
                self._pieces.append(piece)
                self._last_slope = piece_slope
                return
        self._pieces.append(piece)
        self._last_slope = None

    def add_clipped(self, piece: Piece, u: float, v: float) -> None:
        """Add the restriction of ``piece`` to ``[u, v]``."""
        if u < v:
            self.add(piece.clipped(u, v))

    def build(self) -> Envelope:
        return Envelope(self._pieces)
