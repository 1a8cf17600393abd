"""Chunk-augmented Chazelle–Guibas search on rope profile versions.

The paper (§3.1, Figs. 2–3) detects segment/profile intersections with
a balanced structure whose edges carry *lower convex chains* of the
profile vertices they span, searched level by level in ``O(log²)``.
Instead of keeping one such structure per profile, it keeps a single
shared one for all profiles of a PCT layer, with the chains stored
persistently.

Here the rope that *is* the profile version doubles as that
structure: every (immutable) chunk lazily memoises an augmentation
(:attr:`repro.persistence.rope.Chunk._aug`) —

    (support span, first/last values, contiguity flag,
     lower hull, upper hull of the chunk's piece vertices)

Because chunks are immutable and shared between versions, an
augmentation computed for one profile version is reused by every
layer-mate sharing that chunk — the paper's "single ACG structure for
all the profiles".

Queries prune chunks by evaluating the linear functional
``z - line(y)`` at hull extremes.  The search is a scan over the
(short) chunk spine: a chunk wholly inside the query range whose
every vertex lies strictly above the query segment's line (lower hull
above) cannot contribute a visibility flip — the segment is hidden
throughout; strictly below (upper hull below) likewise — the segment
is exposed throughout, and flips can only occur at support gaps,
which are collected separately (contiguous chunks are skipped without
opening their pieces).  Only inconclusive chunks are opened, giving
the output-sensitive search of Lemma 3.6.  Junction candidates at
chunk seams are always checked: a pruned chunk's *interior* junctions
cannot straddle the line, but its boundary vertex pairs with a
neighbouring chunk's vertex, which may sit on the other side.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Optional

from repro.envelope.chain import Envelope, Piece
from repro.envelope.merge import Crossing, MergeResult
from repro.geometry.convex import (
    hull_extreme_index,
    lower_hull_presorted,
    upper_hull_presorted,
)
from repro.geometry.primitives import EPS, Point2
from repro.geometry.segments import ImageSegment
from repro.persistence.rope import (
    Chunk,
    Rope,
    rope_from_envelope,
    rope_splice_merge,
    rope_value_at,
)

__all__ = [
    "ChunkAugment",
    "chunk_augment",
    "collect_gaps_rope",
    "collect_flip_candidates_rope",
    "winner_regions_rope",
    "acg_rope_splice_merge",
]


class ChunkAugment(NamedTuple):
    """Memoised chunk summary (see module docstring)."""

    ya_min: float
    za_first: float
    yb_max: float
    zb_last: float
    contiguous: bool
    lower: tuple[Point2, ...]
    upper: tuple[Point2, ...]


def chunk_augment(chunk: Chunk) -> ChunkAugment:
    """The chunk's augmentation, computed on first use and cached on
    the (immutable, version-shared) chunk."""
    aug = chunk._aug
    if aug is not None:
        return aug
    pieces = chunk.pieces
    pts: list[Point2] = []
    for p in pieces:
        pts.append(Point2(p.ya, p.za))
        pts.append(Point2(p.yb, p.zb))
    aug = ChunkAugment(
        pieces[0].ya,
        pieces[0].za,
        pieces[-1].yb,
        pieces[-1].zb,
        all(
            pieces[k].yb == pieces[k + 1].ya
            for k in range(len(pieces) - 1)
        ),
        tuple(lower_hull_presorted(pts)),
        tuple(upper_hull_presorted(pts)),
    )
    chunk._aug = aug
    return aug


def _hull_min(hull: tuple[Point2, ...], a: float, b: float) -> float:
    """min over hull points of ``z - (a*y + b)``; hull points are
    stored as ``(y, z)`` so the functional is ``p.y - (a*p.x + b)``."""
    i = hull_extreme_index(hull, lambda p: p.y - (a * p.x + b), maximize=False)
    p = hull[i]
    return p.y - (a * p.x + b)


def _hull_max(hull: tuple[Point2, ...], a: float, b: float) -> float:
    i = hull_extreme_index(hull, lambda p: p.y - (a * p.x + b), maximize=True)
    p = hull[i]
    return p.y - (a * p.x + b)


class _ProbeCounter:
    __slots__ = ("probes",)

    def __init__(self) -> None:
        self.probes = 0


def _first_chunk(rope: Rope, lo: float) -> int:
    """Index of the first chunk that can overlap ``(lo, ...)``."""
    return max(0, bisect_right(rope.starts, lo) - 1)


def collect_gaps_rope(
    rope: Rope,
    lo: float,
    hi: float,
    counter: Optional[_ProbeCounter] = None,
) -> list[tuple[float, float]]:
    """Maximal sub-intervals of ``[lo, hi]`` not covered by any piece —
    each boundary is a visibility flip for a segment spanning it.
    Cost O(log chunks + touched chunks); contiguous chunks are skipped
    without opening their pieces."""
    out: list[tuple[float, float]] = []
    a = lo
    n = len(rope.chunks)
    c = _first_chunk(rope, lo)
    while c < n and a < hi:
        if counter is not None:
            counter.probes += 1
        chunk = rope.chunks[c]
        aug = chunk_augment(chunk)
        if aug.yb_max <= a:
            c += 1
            continue
        if aug.ya_min >= hi:
            break
        if a < aug.ya_min:
            out.append((a, min(hi, aug.ya_min)))
            a = aug.ya_min
        if aug.contiguous:
            a = max(a, min(hi, aug.yb_max))
        else:
            for p in chunk.pieces:
                if counter is not None:
                    counter.probes += 1
                if a >= hi:
                    break
                if p.yb <= a:
                    continue
                if p.ya >= hi:
                    break
                if a < p.ya:
                    out.append((a, min(hi, p.ya)))
                a = max(a, min(hi, p.yb))
        c += 1
    if a < hi:
        out.append((a, hi))
    return out


def collect_flip_candidates_rope(
    rope: Rope,
    seg: ImageSegment,
    lo: float,
    hi: float,
    *,
    eps: float = EPS,
    counter: Optional[_ProbeCounter] = None,
) -> list[float]:
    """y-values in ``(lo, hi)`` where ``seg`` may exchange dominance
    with the profile — transversal crossings, tangential contacts and
    straddled jump junctions (inclusive straddle: grazing the top or
    bottom of a jump is a tangency and must split regions too),
    hull-pruned per chunk (Lemma 3.6's search on the chunk spine)."""
    sa = seg.slope
    sb = seg.z1 - sa * seg.y1
    out: list[float] = []

    def junction(p1: Piece, p2: Piece) -> None:
        y = p1.yb
        if p2.ya == y and lo < y < hi:
            z1, z2 = p1.zb, p2.za
            sy = sa * y + sb
            if min(z1, z2) - eps <= sy <= max(z1, z2) + eps:
                out.append(y)

    n = len(rope.chunks)
    c = _first_chunk(rope, lo)
    prev_piece: Optional[Piece] = (
        rope.chunks[c - 1].pieces[-1] if c > 0 else None
    )
    while c < n:
        if counter is not None:
            counter.probes += 1
        chunk = rope.chunks[c]
        aug = chunk_augment(chunk)
        if aug.yb_max <= lo:
            prev_piece = chunk.pieces[-1]
            c += 1
            continue
        if aug.ya_min >= hi:
            break
        # Chunk-seam junction: checked even when a side is pruned (a
        # pruned chunk's boundary vertex can still straddle the line
        # paired with its neighbour's).
        if prev_piece is not None:
            junction(prev_piece, chunk.pieces[0])
        pruned = False
        if aug.ya_min >= lo and aug.yb_max <= hi:
            # Chunk wholly inside the query range: hulls decide.
            if _hull_min(aug.lower, sa, sb) > eps:
                pruned = True  # strictly above the line: no flips
            elif _hull_max(aug.upper, sa, sb) < -eps:
                pruned = True  # strictly below: flips only at gaps
        if not pruned:
            pieces = chunk.pieces
            for k, piece in enumerate(pieces):
                if piece.yb <= lo:
                    continue
                if piece.ya >= hi:
                    break
                if counter is not None:
                    counter.probes += 1
                pu = max(lo, piece.ya)
                pv = min(hi, piece.yb)
                if pu < pv:
                    du = piece.z_at(pu) - (sa * pu + sb)
                    dv = piece.z_at(pv) - (sa * pv + sb)
                    su = 0 if abs(du) <= eps else (1 if du > 0 else -1)
                    sv = 0 if abs(dv) <= eps else (1 if dv > 0 else -1)
                    if su * sv < 0:
                        t = du / (du - dv)
                        w = pu + t * (pv - pu)
                        if pu < w < pv:
                            out.append(w)
                    # Tangential contacts: the difference vanishes at a
                    # piece endpoint without a strict sign flip.  Emit
                    # the endpoint so the region-midpoint probe never
                    # lands on a zero of the difference and
                    # misclassifies the whole region.
                    if su == 0 and lo < pu < hi:
                        out.append(pu)
                    if sv == 0 and lo < pv < hi:
                        out.append(pv)
                if k > 0:
                    junction(pieces[k - 1], piece)
        prev_piece = chunk.pieces[-1]
        c += 1
    return sorted(out)


def winner_regions_rope(
    rope: Rope, seg: ImageSegment, *, eps: float = EPS
) -> tuple[list[tuple[float, float, bool]], list[float], int]:
    """Partition ``[seg.y1, seg.y2]`` into maximal regions where
    either the profile or the segment dominates.

    Returns ``(regions, crossings, probes)``: regions as
    ``(ya, yb, seg_wins)``, the transversal crossing ordinates (flip
    candidates that separate regions with opposite winners), and the
    number of chunk/piece probes performed (the measured query cost).
    """
    counter = _ProbeCounter()
    lo, hi = seg.y1, seg.y2
    events: set = {lo, hi}
    for ga, gb in collect_gaps_rope(rope, lo, hi, counter):
        events.add(ga)
        events.add(gb)
    flips = collect_flip_candidates_rope(
        rope, seg, lo, hi, eps=eps, counter=counter
    )
    events.update(flips)
    ys = sorted(events)
    raw: list[tuple[float, float, bool]] = []
    for u, v in zip(ys, ys[1:]):
        if v - u <= 0:
            continue
        m = 0.5 * (u + v)
        counter.probes += 1
        seg_wins = seg.z_at(m) - rope_value_at(rope, m) > eps
        if raw and raw[-1][2] == seg_wins and raw[-1][1] == u:
            raw[-1] = (raw[-1][0], v, seg_wins)
        else:
            raw.append((u, v, seg_wins))
    boundaries = {r[0] for r in raw[1:]}
    crossings = [y for y in flips if y in boundaries]
    return raw, crossings, counter.probes


def acg_rope_splice_merge(
    rope: Rope, other: Envelope, *, eps: float = EPS
) -> tuple[Rope, MergeResult]:
    """Merge ``other`` into a rope version using chunk-ACG searches.

    Functionally identical to
    :func:`~repro.persistence.rope.rope_splice_merge` (the test suite
    asserts it), but locates the changed regions by hull-pruned search
    instead of sweeping the whole overlap range — the paper's
    output-sensitive Phase-2 engine.  Each region where a piece of
    ``other`` wins is spliced in as its own clipped piece; eps-narrow
    regions are kept, since the midpoint test already required the
    segment to dominate by more than ``eps`` in height.
    """
    if not other.pieces:
        return rope, MergeResult(Envelope.empty(), [], 0)
    if rope.total == 0:
        return rope_from_envelope(other), MergeResult(other, [], other.size)
    ops = 0
    crossings: list[Crossing] = []
    new_rope = rope
    for piece in other.pieces:
        seg = piece.as_segment()
        if seg.is_vertical:  # pieces are never vertical, defensive
            continue
        regions, cross_ys, probes = winner_regions_rope(
            new_rope, seg, eps=eps
        )
        ops += probes
        for y in cross_ys:
            crossings.append(Crossing(y, seg.z_at(y), -1, piece.source))
        for (ra, rb, seg_wins) in regions:
            if not seg_wins or rb <= ra:
                continue
            clip = piece.clipped(max(ra, piece.ya), min(rb, piece.yb))
            new_rope, res = rope_splice_merge(
                new_rope, Envelope([clip]), eps=eps
            )
            ops += res.ops
    return new_rope, MergeResult(Envelope([]), crossings, ops)
