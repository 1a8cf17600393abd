"""Localised envelope update: insert one segment.

The sequential (Reif–Sen-style) algorithm processes edges front to
back, testing each against the current profile and splicing its
visible parts in.  A full re-merge would cost Θ(profile size) per
edge; :func:`insert_segment` touches only the pieces overlapping the
segment's y-range, so the cost is O(log m) for the locate plus the
local range size — the pieces it deletes are deleted forever, which is
what makes the sequential algorithm output-sensitive in aggregate.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.envelope.chain import Envelope
from repro.envelope.merge import Crossing, merge_envelopes
from repro.envelope.visibility import VisibilityResult, visible_parts
from repro.geometry.primitives import EPS
from repro.geometry.segments import ImageSegment

__all__ = [
    "InsertResult",
    "insert_segment",
    "SpliceMergeResult",
    "splice_merge",
]


class InsertResult(NamedTuple):
    """Outcome of inserting one segment into a profile.

    Attributes
    ----------
    envelope:
        The updated profile ``max(old, segment)``.
    visibility:
        Visible parts of the segment against the *old* profile.
    ops:
        Elementary intervals examined (scan + local merge).
    """

    envelope: Envelope
    visibility: VisibilityResult
    ops: int


def insert_segment(
    env: Envelope,
    seg: ImageSegment,
    *,
    eps: float = EPS,
) -> InsertResult:
    """Insert ``seg`` into profile ``env``; see module docstring.

    Vertical projections never alter the profile (measure-zero image)
    but still get a visibility verdict via point query.
    """
    vis = visible_parts(seg, env, eps=eps)
    if seg.is_vertical:
        return InsertResult(env, vis, vis.ops)
    if vis.fully_hidden:
        return InsertResult(env, vis, vis.ops)

    lo, hi = env.pieces_overlapping(seg.y1, seg.y2)
    local = Envelope(env.pieces[lo:hi])
    merged = merge_envelopes(
        local, Envelope.from_segment(seg), eps=eps, record_crossings=False
    )
    new_pieces = (
        env.pieces[:lo] + merged.envelope.pieces + env.pieces[hi:]
    )
    return InsertResult(
        Envelope(new_pieces), vis, vis.ops + merged.ops
    )


class SpliceMergeResult(NamedTuple):
    """Outcome of merging one envelope into another by local splice.

    Attributes
    ----------
    envelope:
        ``max(env, other)`` (same pointwise values as a full merge; the
        pieces may differ from a full merge only by coalescing at the
        two splice boundaries).
    crossings:
        Transversal crossings inside the spliced window, in y-order.
    ops:
        Elementary intervals of the window merge — output-sensitive in
        ``other``'s span, unlike a full merge's Θ(env size) charge.
    materialised:
        Pieces copied into the result (0 when ``other`` was empty and
        ``env`` is returned shared).
    """

    envelope: Envelope
    crossings: list[Crossing]
    ops: int
    materialised: int


def splice_merge(
    env: Envelope,
    other: Envelope,
    *,
    eps: float = EPS,
    record_crossings: bool = True,
) -> SpliceMergeResult:
    """Merge ``other`` into ``env`` touching only the overlapped window.

    ``other`` spans a bounded y-range, so only the pieces of ``env``
    overlapping that range can change under a pointwise max; the head
    and tail pass through untouched — the same shape as
    :func:`insert_segment`, generalised from one segment to a whole
    envelope.  This is the Phase-2 ``direct`` mode's merge: a full
    :func:`~repro.envelope.merge.merge_envelopes` would sweep (and
    charge ``ops`` for) every elementary interval of the inherited
    profile on every merge, even far outside the intermediate
    envelope's span.
    """
    if not other.pieces:
        return SpliceMergeResult(env, [], 0, 0)
    s, t = other.y_span()
    lo, hi = env.pieces_overlapping(s, t)
    local = Envelope(env.pieces[lo:hi])
    res = merge_envelopes(
        local, other, eps=eps, record_crossings=record_crossings
    )
    pieces = env.pieces[:lo] + res.envelope.pieces + env.pieces[hi:]
    return SpliceMergeResult(
        Envelope(pieces), res.crossings, res.ops, len(pieces)
    )
