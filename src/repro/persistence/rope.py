"""Persistent envelopes: a two-level rope of shared piece chunks.

Phase 2 of the algorithm materialises one *actual profile* per PCT
node, and profiles at the same layer share all structure outside the
y-range of the intermediate profile merged in (paper Fig. 1: "profiles
may be shared among the layers").  Array envelopes would copy
everything; here a profile version shares structure with its
predecessor and a merge **splices** only the affected y-range — with
no per-piece pointers to chase, so queries and splices walk whole
chunks.

A profile version is a :class:`Rope`: an immutable *spine* (a tuple)
of immutable :class:`Chunk` objects, each chunk a small frozen run of
consecutive :class:`~repro.envelope.chain.Piece` tuples.

Path copying happens at **chunk granularity**: a splice over
``[ya, yb]`` rebuilds only the chunks overlapping that range plus the
spine, so a version costs ``O(affected chunks + spine)`` fresh
allocations and every untouched chunk is shared between versions.
Version checkout is O(1): a version *is* its spine object — no
copying, no node materialisation (pinned by an allocation-counter test,
not wall clock).

Sharing accounting, in piece units:

* :func:`allocation_count` counts **piece slots written into freshly
  built chunks** by the calling thread — the allocations experiments
  E5/E11 report.
* :func:`count_shared_pieces` counts piece *objects* reachable from
  several versions (splices reuse the same tuples outside the merged
  range) — the layer sharing meter phase 2 reports.
* :func:`count_shared_chunks` is the coarser chunk-granular view
  (piece-weighted), measuring the structural block sharing itself.

The splice path is a guard site (``rope_splice``) of
:mod:`repro.reliability`: the freshly merged piece run is validated
(sorted, non-overlapping, finite) *before* the new spine is assembled,
and any fault degrades to an unshared full rebuild from the intact
piece lists — results identical, sharing sacrificed for that one
version (see ``docs/RELIABILITY.md``).

This module is numpy-free, so the no-numpy CI leg runs the whole
rope-versus-model parity suite.  It is the reference the compiled
``persistent`` layers (:mod:`repro.hsr.phase2`) are bit-exact
against.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from typing import Iterable, Optional

from repro.envelope.chain import Envelope, Piece
from repro.envelope.merge import MergeResult, merge_envelopes
from repro.geometry.primitives import EPS, NEG_INF
from repro.reliability import faultinject as _fi
from repro.reliability import guard as _guard

__all__ = [
    "CHUNK_TARGET",
    "Chunk",
    "EMPTY",
    "Rope",
    "SpliceRange",
    "rope_from_envelope",
    "rope_from_pieces",
    "rope_value_at",
    "rope_range_pieces",
    "rope_visible_parts",
    "rope_splice_merge",
    "commit_splice",
    "allocation_count",
    "reset_allocation_count",
    "count_chunks",
    "count_shared_chunks",
    "count_shared_pieces",
]

#: Pieces per freshly built chunk.  Small enough that a narrow splice
#: rewrites little, large enough that spines stay short and the
#: per-chunk python overhead amortises.  Fresh runs are *balanced*
#: into ``ceil(n / CHUNK_TARGET)`` near-equal chunks, so no splice
#: leaves single-piece runts behind.
CHUNK_TARGET = 32


class _Meter(threading.local):
    """Piece slots written into freshly constructed chunks — the rope's
    allocation meter.  Per thread: a run reads it as a before/after
    delta, and runs on other threads must not leak into that delta."""

    slots = 0


_METER = _Meter()


def allocation_count() -> int:
    """Total piece slots written into fresh chunks so far by this
    thread."""
    return _METER.slots


def reset_allocation_count() -> None:
    _METER.slots = 0


class Chunk:
    """An immutable run of consecutive envelope pieces.

    The chunk-level ACG augmentation (:mod:`repro.hsr.acg_rope`)
    caches on ``_aug``; because chunks are immutable and shared across
    versions, it is computed once per chunk and reused by every
    version sharing the chunk.
    """

    __slots__ = ("pieces", "_starts", "_key", "_last_yb", "_aug")

    def __init__(self, pieces: tuple[Piece, ...]):
        self.pieces = pieces
        self._starts = None
        self._key = pieces[0].ya
        self._last_yb = pieces[-1].yb
        self._aug = None
        _METER.slots += len(pieces)

    def __len__(self) -> int:
        return len(self.pieces)

    @property
    def starts(self) -> tuple[float, ...]:
        """The pieces' first keys, built on first use."""
        st = self._starts
        if st is None:
            st = self._starts = tuple(p.ya for p in self.pieces)
        return st

    @property
    def ya_min(self) -> float:
        return self._key

    @property
    def yb_max(self) -> float:
        return self._last_yb

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Chunk({len(self.pieces)} pieces @ {self._key:.4g})"


class Rope:
    """One profile version: an immutable spine of shared chunks.

    ``starts[c]`` is chunk ``c``'s first key and ``offsets[c]`` its
    first global piece index (``offsets[-1] == total``); both power the
    two-level bisection locate.  Instances are values — every operation
    returns a new ``Rope`` sharing all untouched chunks.
    """

    __slots__ = ("chunks", "starts", "offsets", "total")

    def __init__(self, chunks: Iterable[Chunk]):
        self.chunks = tuple(chunks)
        self.starts = tuple(c.ya_min for c in self.chunks)
        offsets = [0]
        for c in self.chunks:
            offsets.append(offsets[-1] + len(c))
        self.offsets = tuple(offsets)
        self.total = offsets[-1]

    def __len__(self) -> int:
        return self.total

    def piece_at(self, i: int) -> Piece:
        """Global piece ``i`` (two bisect-free index steps)."""
        c = bisect_right(self.offsets, i) - 1
        return self.chunks[c].pieces[i - self.offsets[c]]

    def pieces_between(self, i: int, j: int) -> list[Piece]:
        """Pieces ``[i, j)`` in y-order, walking whole chunks."""
        if i >= j:
            return []
        out: list[Piece] = []
        c = bisect_right(self.offsets, i) - 1
        while i < j:
            chunk = self.chunks[c]
            base = self.offsets[c]
            lo = i - base
            hi = min(j - base, len(chunk))
            if lo == 0 and hi == len(chunk):
                out.extend(chunk.pieces)
            else:
                out.extend(chunk.pieces[lo:hi])
            i = base + hi
            c += 1
        return out

    def to_pieces(self) -> list[Piece]:
        out: list[Piece] = []
        for c in self.chunks:
            out.extend(c.pieces)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Rope({self.total} pieces in {len(self.chunks)} chunks)"


#: The canonical empty version (safe to share: ropes are immutable).
EMPTY = Rope(())


def _chunked(pieces: list[Piece]) -> list[Chunk]:
    """Balance a fresh piece run into near-equal chunks of at most
    :data:`CHUNK_TARGET` pieces (no runts: 33 pieces become 17+16, not
    32+1)."""
    n = len(pieces)
    if n == 0:
        return []
    parts = -(-n // CHUNK_TARGET)  # ceil
    out: list[Chunk] = []
    base, extra = divmod(n, parts)
    i = 0
    for p in range(parts):
        k = base + (1 if p < extra else 0)
        out.append(Chunk(tuple(pieces[i : i + k])))
        i += k
    return out


def rope_from_pieces(pieces: Iterable[Piece]) -> Rope:
    """Build a version from sorted, non-overlapping pieces in O(n)."""
    pieces = list(pieces)
    if not pieces:
        return EMPTY
    return Rope(_chunked(pieces))


def rope_from_envelope(env: Envelope) -> Rope:
    return rope_from_pieces(env.pieces)


# ---------------------------------------------------------------------------
# Two-level locate.  Keys (piece ``ya`` starts) are globally strictly
# increasing, so both global bisections decompose into a spine bisect
# followed by a within-chunk bisect.
# ---------------------------------------------------------------------------


def _index_ge(rope: Rope, y: float) -> int:
    """Global index of the first piece with key ``>= y``
    (``bisect_left`` over the concatenated keys)."""
    c = bisect_right(rope.starts, y) - 1
    if c < 0:
        return 0
    return rope.offsets[c] + bisect_left(rope.chunks[c].starts, y)


def _index_gt(rope: Rope, y: float) -> int:
    """Global index of the first piece with key ``> y``
    (``bisect_right`` over the concatenated keys)."""
    c = bisect_right(rope.starts, y) - 1
    if c < 0:
        return 0
    return rope.offsets[c] + bisect_right(rope.chunks[c].starts, y)


def rope_value_at(rope: Rope, y: float) -> float:
    """Profile height at ``y`` (``-inf`` in gaps).

    The candidate is the piece with the greatest key (``ya``)
    ``<= y``, taken only when its closed span contains ``y``; a
    shared endpoint therefore reads from the piece starting there.
    """
    i = _index_gt(rope, y) - 1
    if i < 0:
        return NEG_INF
    p = rope.piece_at(i)
    if p.ya <= y <= p.yb:
        return p.z_at(y)
    return NEG_INF


def rope_range_pieces(rope: Rope, ya: float, yb: float) -> list[Piece]:
    """Pieces whose closed span intersects ``[ya, yb]``, in y-order —
    the version's keys in ``[ya, yb)`` plus the one possible straddling
    predecessor.  A piece starting exactly at ``yb`` touches the range
    boundary only and is left out; callers that care about
    touch-points query :func:`rope_value_at` directly."""
    out: list[Piece] = []
    i0 = _index_ge(rope, ya)
    if i0 > 0:
        p = rope.piece_at(i0 - 1)
        if p.yb >= ya:
            out.append(p)
    out.extend(rope.pieces_between(i0, _index_ge(rope, yb)))
    return out


def rope_visible_parts(rope: Rope, seg, *, eps: float = EPS):
    """Visible parts of an image segment against a rope version —
    range-extract the overlapped window, reuse the array scan."""
    from repro.envelope.visibility import visible_parts

    if seg.is_vertical:
        local = Envelope(rope_range_pieces(rope, seg.y1, seg.y1 + 1e-12))
        return visible_parts(seg, local, eps=eps)
    local = Envelope(rope_range_pieces(rope, seg.y1, seg.y2))
    return visible_parts(seg, local, eps=eps)


# ---------------------------------------------------------------------------
# Splice: path copying at chunk granularity.
# ---------------------------------------------------------------------------


class SpliceRange:
    """The decomposition of a version around a splice span ``[ya, yb]``.

    ``i0``/``i1`` bound the keys in ``[ya, yb)``; ``left_cut`` is the
    trimmed replacement for a piece straddling ``ya`` (it stays on the
    left, clipped at the cut — the straddle's in-range part,
    ``straddle_clip``, rides into the merge range); ``carry`` is the
    overhang of the last in-range piece past ``yb``, kept out of the
    merge (``tail_trim`` replaces it there) and re-attached after.

    The in-range pieces themselves are *not* materialised here — the
    merge takes :meth:`mid_pieces`.
    """

    __slots__ = (
        "rope",
        "yb",
        "i0",
        "i1",
        "left_cut",
        "straddle_clip",
        "tail_trim",
        "carry",
    )

    def __init__(self, rope: Rope, ya: float, yb: float):
        self.rope = rope
        self.yb = yb
        i0 = _index_ge(rope, ya)
        left_cut: Optional[Piece] = None
        straddle_clip: Optional[Piece] = None
        if i0 > 0:
            piece = rope.piece_at(i0 - 1)
            if piece.yb > ya:
                # The straddler's key is < ya, so the trim is never
                # empty; a piece starting exactly at the cut is in the
                # mid range already (key >= ya), never here.
                left_cut = piece.clipped(piece.ya, ya)
                straddle_clip = piece.clipped(ya, piece.yb)
        i1 = _index_ge(rope, yb)
        # The last in-range piece may extend beyond yb; keep the
        # overhang out of the merge and re-attach it afterwards.  When
        # the whole range sits inside the straddler the overhanging
        # piece *is* the straddle clip.
        if i1 > i0:
            last: Optional[Piece] = rope.piece_at(i1 - 1)
        else:
            last = straddle_clip
        carry: Optional[Piece] = None
        tail_trim: Optional[Piece] = None
        if last is not None and last.yb > yb:
            tail_trim = last.clipped(last.ya, yb)
            carry = last.clipped(yb, last.yb)
        self.i0 = i0
        self.i1 = i1
        self.left_cut = left_cut
        self.straddle_clip = straddle_clip
        self.tail_trim = tail_trim
        self.carry = carry

    def mid_pieces(self) -> list[Piece]:
        """The merge-range pieces as scalar tuples (boundary trims
        applied) — the input the scalar merge sweep sees."""
        mid = self.rope.pieces_between(self.i0, self.i1)
        if self.straddle_clip is not None:
            mid.insert(0, self.straddle_clip)
        if self.tail_trim is not None and mid:
            mid[-1] = self.tail_trim
        return mid


def _check_splice_pieces(
    pieces: list[Piece], prev_yb: float, next_ya: float
) -> None:
    """Post-condition check for the ``rope_splice`` guard: the fresh
    run is sorted, non-overlapping, finite, and fits between its
    neighbours.  Scalar and numpy-free — the site must stay checkable
    on the pure-python leg."""
    prev = prev_yb
    for j, p in enumerate(pieces):
        if not (prev <= p.ya < p.yb) or p.za != p.za or p.zb != p.zb:
            _guard.violation(
                "rope_splice",
                f"fresh piece {j} ({p.ya!r}..{p.yb!r}) unsorted,"
                " overlapping or non-finite",
            )
        prev = p.yb
    if prev > next_ya:
        _guard.violation(
            "rope_splice",
            f"fresh run overruns right neighbour ({prev!r} > {next_ya!r})",
        )


def _splice_frags(rope: Rope, sr: SpliceRange):
    """The shared commit prologue: keep bounds, whole shared chunks on
    both sides, and the boundary-chunk piece fragments that refold into
    the fresh run (``left_frag`` already carries ``sr.left_cut``)."""
    keep_left = sr.i0 - (1 if sr.left_cut is not None else 0)
    keep_right = sr.i1
    offsets = rope.offsets
    # Whole chunks strictly inside the kept prefix / suffix.
    cl = bisect_right(offsets, keep_left) - 1
    shared_left = rope.chunks[:cl]
    left_frag = list(rope.chunks[cl].pieces[: keep_left - offsets[cl]]) if (
        keep_left - offsets[cl]
    ) else []
    cr = bisect_right(offsets, keep_right) - 1
    if cr == len(rope.chunks):  # splice reaches the end
        right_frag: list[Piece] = []
        shared_right: tuple[Chunk, ...] = ()
    else:
        cut = keep_right - offsets[cr]
        right_frag = list(rope.chunks[cr].pieces[cut:]) if cut else []
        shared_right = rope.chunks[cr + 1 :] if cut else rope.chunks[cr:]
    if sr.left_cut is not None:
        left_frag.append(sr.left_cut)
    return keep_left, keep_right, shared_left, left_frag, right_frag, shared_right


def commit_splice(rope: Rope, sr: SpliceRange, merged: list[Piece]) -> Rope:
    """Assemble the successor version: shared chunks outside the
    affected span, balanced fresh chunks inside (boundary-chunk
    fragments fold into the fresh run — they are new allocations
    either way, and folding avoids runt chunks at the seams).

    Guard site ``rope_splice``: the fresh run is validated against its
    kept neighbours *before* any spine is built; a fault degrades to a
    full unshared rebuild from the intact piece lists (identical
    pieces, sharing lost for this one version).
    """
    (keep_left, keep_right, shared_left, left_frag,
     right_frag, shared_right) = _splice_frags(rope, sr)

    def kernel() -> Rope:
        fresh = merged
        if _fi.ARMED:
            fresh = _fi.corrupt_piece_list("rope_splice", fresh)
        prev_yb = shared_left[-1].yb_max if shared_left else NEG_INF
        next_ya = (
            shared_right[0].ya_min if shared_right else float("inf")
        )
        _check_splice_pieces(
            left_frag + fresh + right_frag, prev_yb, next_ya
        )
        return Rope(
            shared_left
            + tuple(_chunked(left_frag + fresh + right_frag))
            + shared_right
        )

    def fallback() -> Rope:
        # Unshared rebuild from the intact scalar piece lists — the
        # simple path sharing no spine arithmetic with the kernel.
        pieces = rope.pieces_between(0, keep_left)
        if sr.left_cut is not None:
            pieces.append(sr.left_cut)
        pieces.extend(merged)
        pieces.extend(rope.pieces_between(keep_right, rope.total))
        return rope_from_pieces(pieces)

    return _guard.guarded_call("rope_splice", kernel, fallback)


def rope_splice_merge(
    rope: Rope, other: Envelope, *, eps: float = EPS
) -> tuple[Rope, MergeResult]:
    """Merge an array envelope into a rope version.

    Only the pieces overlapping ``other``'s span are extracted — the
    piece straddling the span's start is clipped into the range and
    the last piece's overhang past its end is carried out of the
    merge and re-attached afterwards (:class:`SpliceRange`) — merged
    with ``other`` by the standard
    :func:`~repro.envelope.merge.merge_envelopes` sweep, and committed
    by chunk-granular path copying; everything else is shared with the
    input version.  Returns ``(new_rope, merge_result)`` where the
    merge result covers only the affected range.  This scalar path is
    the reference the compiled ``persistent`` layers of phase 2 are
    bit-exact against.
    """
    if not other.pieces:
        return rope, MergeResult(Envelope.empty(), [], 0)
    ya, yb = other.y_span()
    if rope.total == 0:
        return rope_from_envelope(other), MergeResult(other, [], other.size)
    sr = SpliceRange(rope, ya, yb)
    local = Envelope(sr.mid_pieces())
    res = merge_envelopes(local, other, eps=eps)
    merged = list(res.envelope.pieces)
    if sr.carry is not None and sr.carry.ya < sr.carry.yb:
        merged.append(sr.carry)
    return commit_splice(rope, sr, merged), res


# ---------------------------------------------------------------------------
# Sharing accounting (the E5/E11 meters).
# ---------------------------------------------------------------------------


def count_chunks(rope: Optional[Rope]) -> int:
    return len(rope.chunks) if rope is not None else 0


def count_shared_pieces(*ropes: Optional[Rope]) -> tuple[int, int]:
    """Piece-identity ``(total_distinct, shared)`` across versions.
    A splice reuses the *same*
    :class:`~repro.envelope.chain.Piece` objects for every slot
    outside the merged range — including slots refolded into fresh
    boundary chunks — so identity counting sees exactly the memory
    actually shared between layer-mates; the chunk-granular view is
    :func:`count_shared_chunks`."""
    per_rope: list[set[int]] = []
    for r in ropes:
        seen: set[int] = set()
        if r is not None:
            for c in r.chunks:
                for p in c.pieces:
                    seen.add(id(p))
        per_rope.append(seen)
    all_ids: set[int] = set().union(*per_rope) if per_rope else set()
    shared = sum(
        1
        for i in all_ids
        if sum(1 for s in per_rope if i in s) >= 2
    )
    return (len(all_ids), shared)


def count_shared_chunks(*ropes: Optional[Rope]) -> tuple[int, int]:
    """Piece-weighted ``(total_distinct, shared)`` across versions —
    the chunk-granular sharing view, in the same piece units as
    :func:`count_shared_pieces`.  ``shared`` sums the piece counts of chunk objects
    reachable from at least two of the versions."""
    per_rope: list[set[int]] = []
    by_id: dict[int, Chunk] = {}
    for r in ropes:
        seen: set[int] = set()
        if r is not None:
            for c in r.chunks:
                seen.add(id(c))
                by_id[id(c)] = c
        per_rope.append(seen)
    all_ids: set[int] = set().union(*per_rope) if per_rope else set()
    total = sum(len(by_id[i]) for i in all_ids)
    shared = sum(
        len(by_id[i])
        for i in all_ids
        if sum(1 for s in per_rope if i in s) >= 2
    )
    return (total, shared)
