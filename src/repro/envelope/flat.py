"""Vectorized (NumPy) envelope kernel.

The pure-Python merge in :mod:`repro.envelope.merge` walks elementary
intervals one at a time.  This module expresses the same computation as
array programs:

* :class:`FlatEnvelope` — a structure-of-arrays envelope
  (``ya/za/yb/zb`` float64 + ``source`` int64), losslessly
  round-trippable to/from :class:`repro.envelope.chain.Envelope`;
* :func:`merge_envelopes_flat` — the pairwise merge: union breakpoints
  by one composite (group, y) argsort of the per-side endpoint
  streams, covering-piece location by segmented running maxima over
  piece-start markers, vectorized linear interpolation per unique
  bound, dominance resolution with sign arrays, and crossing/output
  emission with boolean masks — no per-interval Python loop;
* :func:`batch_merge` — the same sweep over *many independent merges
  at once* (a "stacked" set of envelope pairs keyed by a group-id
  array).  The divide-and-conquer construction and the PCT Phase-1
  layers are exactly such batches: all merges of one tree level are
  independent, so one NumPy pass replaces hundreds of tiny Python
  merges;
* :func:`build_envelope_flat` — level-batched divide-and-conquer
  construction (Lemma 3.1) on top of :func:`batch_merge`, returning
  per-node elementary-interval counts so callers can replay the exact
  PRAM charges of the reference engine.

Parity contract: for every input, the flat kernel produces the *same*
pieces, sources, crossings and ``ops`` as the pure-Python engine — the
float arithmetic mirrors ``Piece.z_at`` / ``lerp`` operation for
operation (including the exact-endpoint shortcuts), the breakpoint set
is the same sorted-unique set, and coalescing applies the same
source/contiguity rules.  ``tests/test_envelope_flat.py`` enforces
this on adversarial inputs.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.envelope.chain import Envelope, EnvelopeBuilder, Piece
from repro.envelope.merge import Crossing
from repro.errors import EnvelopeError
from repro.geometry.primitives import EPS, NEG_INF
from repro.geometry.segments import ImageSegment

__all__ = [
    "FlatEnvelope",
    "FlatMergeResult",
    "merge_envelopes_flat",
    "batch_merge",
    "stack_envelopes",
    "build_envelope_flat",
    "FlatBuildResult",
]

_F = np.float64
_I = np.int64


def _tuples_to_matrix(rows: Sequence) -> np.ndarray:
    """(n, 5) float64 matrix from a sequence of 5-field flat tuples
    (``Piece`` / ``ImageSegment``), via a single chained ``fromiter``
    pass — several times faster than ``np.asarray`` on tuple rows."""
    return np.fromiter(
        itertools.chain.from_iterable(rows), _F, count=5 * len(rows)
    ).reshape(-1, 5)


class FlatEnvelope:
    """Structure-of-arrays envelope: parallel ``ya/za/yb/zb/source``.

    Same invariants as :class:`Envelope` (pieces sorted by ``ya``,
    ``ya < yb``, no overlap); the arrays make batched evaluation and
    merging cheap.  Instances are immutable by convention.
    """

    __slots__ = ("ya", "za", "yb", "zb", "source")

    def __init__(
        self,
        ya: np.ndarray,
        za: np.ndarray,
        yb: np.ndarray,
        zb: np.ndarray,
        source: np.ndarray,
    ):
        self.ya = ya
        self.za = za
        self.yb = yb
        self.zb = zb
        self.source = source

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty() -> "FlatEnvelope":
        z = np.empty(0, _F)
        return FlatEnvelope(z, z, z, z, np.empty(0, _I))

    @staticmethod
    def from_envelope(env: Envelope) -> "FlatEnvelope":
        return FlatEnvelope.from_pieces(env.pieces)

    @staticmethod
    def from_pieces(pieces: Sequence[Piece]) -> "FlatEnvelope":
        """Flatten a ``(ya, za, yb, zb, source)`` tuple sequence.

        ``fromiter`` over the chained fields is several times faster
        than ``np.asarray`` on the tuple sequence (it skips the
        per-row sequence protocol).

        >>> from repro.envelope.chain import Piece
        >>> flat = FlatEnvelope.from_pieces([
        ...     Piece(0.0, 1.0, 2.0, 3.0, 7),
        ...     Piece(2.0, 0.5, 4.0, 0.5, 8),
        ... ])
        >>> flat.size
        2
        >>> flat.ya.tolist()
        [0.0, 2.0]
        >>> flat.to_envelope().pieces[1].source  # lossless round trip
        8
        """
        if not len(pieces):
            return FlatEnvelope.empty()
        mat = _tuples_to_matrix(pieces)
        return FlatEnvelope(
            np.ascontiguousarray(mat[:, 0]),
            np.ascontiguousarray(mat[:, 1]),
            np.ascontiguousarray(mat[:, 2]),
            np.ascontiguousarray(mat[:, 3]),
            mat[:, 4].astype(_I),
        )

    @staticmethod
    def from_segment(seg: ImageSegment) -> "FlatEnvelope":
        if seg.is_vertical:
            return FlatEnvelope.empty()
        return FlatEnvelope(
            np.array([seg.y1], _F),
            np.array([seg.z1], _F),
            np.array([seg.y2], _F),
            np.array([seg.z2], _F),
            np.array([seg.source], _I),
        )

    # -- conversion ---------------------------------------------------

    def to_envelope(self) -> Envelope:
        return Envelope(
            list(
                map(
                    Piece._make,
                    zip(
                        self.ya.tolist(),
                        self.za.tolist(),
                        self.yb.tolist(),
                        self.zb.tolist(),
                        self.source.tolist(),
                    ),
                )
            )
        )

    # -- queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ya)

    @property
    def size(self) -> int:
        return len(self.ya)

    def __bool__(self) -> bool:
        return len(self.ya) > 0

    def pieces_overlapping(self, ya: float, yb: float) -> tuple[int, int]:
        """Half-open index range ``[lo, hi)`` of pieces whose interior
        overlaps ``(ya, yb)`` — exact replica of
        :meth:`Envelope.pieces_overlapping` (same bisection on the same
        floats)."""
        n = len(self.ya)
        if n == 0 or ya >= yb:
            return (0, 0)
        # ndarray.searchsorted avoids the np.searchsorted dispatch
        # wrapper — this runs once per insert on the hot path.
        lo = int(self.ya.searchsorted(ya, side="right")) - 1
        if lo < 0 or self.yb[lo] <= ya:
            lo += 1
        hi = int(self.ya.searchsorted(yb, side="left"))
        return (lo, hi)

    def window(self, lo: int, hi: int) -> "FlatEnvelope":
        """Zero-copy view of pieces ``[lo, hi)`` (shares the buffers)."""
        return FlatEnvelope(
            self.ya[lo:hi],
            self.za[lo:hi],
            self.yb[lo:hi],
            self.zb[lo:hi],
            self.source[lo:hi],
        )

    def z_at_many(self, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`Envelope.value_at`: profile height at each
        ``y`` (``-inf`` in gaps, max of one-sided limits at shared
        breakpoints)."""
        ys = np.asarray(ys, _F)
        n = len(self.ya)
        if n == 0:
            return np.full(ys.shape, NEG_INF, _F)
        i = np.searchsorted(self.ya, ys, side="right") - 1
        ic = np.clip(i, 0, n - 1)
        inside = (i >= 0) & (self.ya[ic] <= ys) & (ys <= self.yb[ic])
        best = np.where(
            inside,
            _z_eval(self.ya[ic], self.za[ic], self.yb[ic], self.zb[ic], ys),
            NEG_INF,
        )
        # Previous piece ending exactly at y (jump breakpoints).
        prev_ok = (i >= 1) & (self.yb[np.clip(i - 1, 0, n - 1)] == ys)
        prev_val = np.where(
            prev_ok, self.zb[np.clip(i - 1, 0, n - 1)], NEG_INF
        )
        best = np.maximum(best, prev_val)
        # Next piece starting exactly at y.
        nxt = np.clip(i + 1, 0, n - 1)
        nxt_ok = (i + 1 < n) & (self.ya[nxt] == ys)
        best = np.maximum(best, np.where(nxt_ok, self.za[nxt], NEG_INF))
        return best

    def validate(self) -> None:
        """Raise :class:`EnvelopeError` when invariants are violated."""
        if np.any(self.ya >= self.yb):
            raise EnvelopeError("flat envelope has an empty-span piece")
        if len(self.ya) > 1 and np.any(self.ya[1:] < self.yb[:-1]):
            raise EnvelopeError("flat envelope pieces overlap")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if not len(self.ya):
            return "FlatEnvelope(empty)"
        return (
            f"FlatEnvelope({len(self.ya)} pieces over"
            f" [{self.ya[0]:.4g}, {self.yb[-1]:.4g}])"
        )


class FlatMergeResult(NamedTuple):
    """Flat-kernel analogue of :class:`repro.envelope.merge.MergeResult`."""

    envelope: FlatEnvelope
    crossings: list[Crossing]
    ops: int


def _z_eval(
    ya: np.ndarray,
    za: np.ndarray,
    yb: np.ndarray,
    zb: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Vectorized ``Piece.z_at``: value-identical float arithmetic,
    including the exact-at-endpoint semantics of ``z_at`` and ``lerp``.

    Only the ``t == 1.0`` guard is materialised: ``y == ya`` forces
    ``t == 0.0`` exactly, and ``za + (zb - za) * 0.0`` equals ``za``
    (up to the sign of zero, which compares equal everywhere), while
    ``y == yb`` forces ``t == 1.0`` (IEEE ``x / x == 1``), which the
    guard maps to ``zb`` exactly as the scalar shortcuts do.  Callers
    only evaluate real pieces (``ya < yb``), so the division never
    sees a zero denominator.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        # Lanes for non-covering candidate pieces hold garbage (they
        # are masked out by the callers) and may overflow to inf/nan.
        t = (y - ya) / (yb - ya)
        z = za + (zb - za) * t
        return np.where(t == 1.0, zb, z)


class _Stacked(NamedTuple):
    """Many envelopes stacked into one array set.

    ``offsets`` has length ``n_groups + 1``; group ``g`` owns pieces
    ``offsets[g]:offsets[g+1]`` (sorted by ``ya`` within the group).
    """

    ya: np.ndarray
    za: np.ndarray
    yb: np.ndarray
    zb: np.ndarray
    source: np.ndarray
    offsets: np.ndarray

    @property
    def n_groups(self) -> int:
        return len(self.offsets) - 1

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def group_ids(self) -> np.ndarray:
        return np.repeat(
            np.arange(self.n_groups, dtype=_I), self.counts()
        )

    def group(self, g: int) -> FlatEnvelope:
        lo, hi = int(self.offsets[g]), int(self.offsets[g + 1])
        return FlatEnvelope(
            self.ya[lo:hi],
            self.za[lo:hi],
            self.yb[lo:hi],
            self.zb[lo:hi],
            self.source[lo:hi],
        )


def stack_envelopes(envs: Sequence[FlatEnvelope]) -> _Stacked:
    counts = np.array([len(e) for e in envs], _I)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    if not envs:
        e = FlatEnvelope.empty()
        return _Stacked(e.ya, e.za, e.yb, e.zb, e.source, offsets)
    return _Stacked(
        np.concatenate([e.ya for e in envs]),
        np.concatenate([e.za for e in envs]),
        np.concatenate([e.yb for e in envs]),
        np.concatenate([e.zb for e in envs]),
        np.concatenate([e.source for e in envs]),
        offsets,
    )


class _BatchOut(NamedTuple):
    """Result of a batched multi-group merge."""

    merged: _Stacked
    #: elementary-interval count per group (the PRAM ``ops`` charge).
    ops: np.ndarray
    #: crossing arrays, in (group, y) order.
    cross_group: np.ndarray
    cross_y: np.ndarray
    cross_z: np.ndarray
    cross_front: np.ndarray
    cross_back: np.ndarray

    def crossings_of(self, g: int) -> list[Crossing]:
        lo = int(np.searchsorted(self.cross_group, g, side="left"))
        hi = int(np.searchsorted(self.cross_group, g, side="right"))
        return [
            Crossing(y, z, f, b)
            for y, z, f, b in zip(
                self.cross_y[lo:hi].tolist(),
                self.cross_z[lo:hi].tolist(),
                self.cross_front[lo:hi].tolist(),
                self.cross_back[lo:hi].tolist(),
            )
        ]


def batch_merge(
    a: _Stacked,
    b: _Stacked,
    *,
    eps: float = EPS,
    record_crossings: bool = True,
) -> _BatchOut:
    """Merge ``a.group(g)`` with ``b.group(g)`` for every ``g`` at once.

    Mirrors :func:`repro.envelope.merge.merge_envelopes` exactly,
    including the empty-input fast path (an empty side returns the
    other side verbatim — uncoalesced — with ``ops`` equal to its piece
    count and no crossings).
    """
    if a.n_groups != b.n_groups:
        raise EnvelopeError(
            f"batch_merge group mismatch: {a.n_groups} != {b.n_groups}"
        )
    G = a.n_groups
    ca, cb = a.counts(), b.counts()
    live = (ca > 0) & (cb > 0)  # groups that go through the sweep
    all_live = bool(live.all())

    ops_live, out = _sweep(a, b, live, eps, record_crossings)
    if all_live:
        ops = ops_live
    else:
        ops = np.zeros(G, _I)
        # Empty-side fast path: ops = len(other.pieces); both sides
        # empty -> 0 — exactly mirrors the scalar early returns.
        ops[ca == 0] = cb[ca == 0]
        ops[cb == 0] += ca[cb == 0] * (ca[cb == 0] > 0)
        ops[live] = ops_live

    if all_live:
        out_ya, out_za, out_yb, out_zb, out_src, _ = out[:6]
        merged = _Stacked(
            out_ya, out_za, out_yb, out_zb, out_src, out[6]
        )
        cg, cy, cz, cf, cbk = out[7:12]
        return _BatchOut(merged, ops, cg, cy, cz, cf, cbk)

    # Stitch live output and passthrough groups back into group order.
    parts_ya: list[np.ndarray] = []
    parts_za: list[np.ndarray] = []
    parts_yb: list[np.ndarray] = []
    parts_zb: list[np.ndarray] = []
    parts_src: list[np.ndarray] = []
    parts_grp: list[np.ndarray] = []

    def take(st: _Stacked, g: int) -> None:
        lo, hi = int(st.offsets[g]), int(st.offsets[g + 1])
        parts_ya.append(st.ya[lo:hi])
        parts_za.append(st.za[lo:hi])
        parts_yb.append(st.yb[lo:hi])
        parts_zb.append(st.zb[lo:hi])
        parts_src.append(st.source[lo:hi])
        parts_grp.append(np.full(hi - lo, g, _I))

    live_pos = 0
    (l_ya, l_za, l_yb, l_zb, l_src, l_grp) = out[:6]
    live_offsets = out[6]
    live_ids = np.flatnonzero(live)
    for g in range(G):
        if live[g]:
            lo = int(live_offsets[live_pos])
            hi = int(live_offsets[live_pos + 1])
            parts_ya.append(l_ya[lo:hi])
            parts_za.append(l_za[lo:hi])
            parts_yb.append(l_yb[lo:hi])
            parts_zb.append(l_zb[lo:hi])
            parts_src.append(l_src[lo:hi])
            parts_grp.append(np.full(hi - lo, g, _I))
            live_pos += 1
        elif ca[g] > 0:
            take(a, g)
        elif cb[g] > 0:
            take(b, g)
    out_ya = np.concatenate(parts_ya) if parts_ya else np.empty(0, _F)
    out_za = np.concatenate(parts_za) if parts_za else np.empty(0, _F)
    out_yb = np.concatenate(parts_yb) if parts_yb else np.empty(0, _F)
    out_zb = np.concatenate(parts_zb) if parts_zb else np.empty(0, _F)
    out_src = (
        np.concatenate(parts_src) if parts_src else np.empty(0, _I)
    )
    out_grp = (
        np.concatenate(parts_grp) if parts_grp else np.empty(0, _I)
    )
    assert live_pos == len(live_ids)

    offsets = np.zeros(G + 1, _I)
    np.cumsum(np.bincount(out_grp, minlength=G), out=offsets[1:])
    merged = _Stacked(out_ya, out_za, out_yb, out_zb, out_src, offsets)

    cg, cy, cz, cf, cbk = out[7:12]
    return _BatchOut(merged, ops, cg, cy, cz, cf, cbk)


def _endpoint_stream(
    ya: np.ndarray,
    yb: np.ndarray,
    grp: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interleaved, within-side-deduplicated endpoint events of one
    stacked side: ``(values, groups, start_markers)``.

    The stream ``[ya0, yb0, ya1, yb1, ...]`` is sorted within each
    group; the only duplicates are a piece end coinciding with the
    next piece's start, and runs have length at most two (``ya < yb``
    per piece).  Dropping the start keeps the sort small; its piece
    marker folds into the kept end event so downstream point location
    still sees the start.
    """
    ev = np.empty(2 * n, _F)
    ev[0::2] = ya
    ev[1::2] = yb
    gv = np.empty(2 * n, _I)
    gv[0::2] = grp
    gv[1::2] = grp
    mk = np.full(2 * n, -1, _I)
    mk[0::2] = np.arange(n, dtype=_I)
    keep = np.empty(2 * n, bool)
    keep[0] = True
    keep[1:] = (ev[1:] != ev[:-1]) | (gv[1:] != gv[:-1])
    if keep.all():
        return ev, gv, mk
    mk[:-1] = np.maximum(
        mk[:-1], np.where(keep[1:], _I(-1), mk[1:])
    )
    return ev[keep], gv[keep], mk[keep]


def _composite_argsort(
    ys: np.ndarray, gs: np.ndarray, n_groups: int
) -> np.ndarray:
    """Composite (group, y) ordering as two argsort passes — the event
    ordering of :func:`_sweep`.  Equivalent to
    ``np.lexsort((ys, gs))`` but faster: the group pass radix-sorts
    narrow integers.  Only the *second* pass must be stable (it
    preserves the y-order within each group); the y pass may reorder
    exact ties freely."""
    o1 = np.argsort(ys)
    gdt = np.int16 if n_groups < 2**15 else np.int32
    o2 = np.argsort(gs[o1].astype(gdt), kind="stable")
    return o1[o2]


def _sweep(
    a: _Stacked,
    b: _Stacked,
    live: np.ndarray,
    eps: float,
    record_crossings: bool,
) -> tuple[np.ndarray, tuple]:
    """The vectorized merge sweep over all live groups.

    Returns ``(ops_per_live_group, output_arrays)`` where the output
    arrays carry *live-group-indexed* pieces in (group, y) order plus
    live-group offsets and crossing arrays (re-indexed to original
    group ids).
    """
    live_ids = np.flatnonzero(live)
    n_live = len(live_ids)

    if n_live == 0:
        e_f, e_i = np.empty(0, _F), np.empty(0, _I)
        return (
            np.empty(0, _I),
            (e_f, e_f, e_f, e_f, e_i, e_i, np.zeros(1, _I), e_i, e_f, e_f, e_i, e_i),
        )

    if n_live == a.n_groups:
        a_live, b_live = a, b
    else:
        a_live = _select_groups(a, live_ids)
        b_live = _select_groups(b, live_ids)
    ag = a_live.group_ids()
    bg = b_live.group_ids()

    na, nb = len(a_live.ya), len(b_live.ya)

    # Concatenated A|B piece arrays: one gather/eval pass serves both
    # sides of every interval.
    ab_ya = np.concatenate([a_live.ya, b_live.ya])
    ab_za = np.concatenate([a_live.za, b_live.za])
    ab_yb = np.concatenate([a_live.yb, b_live.yb])
    ab_zb = np.concatenate([a_live.zb, b_live.zb])
    ab_src = np.concatenate([a_live.source, b_live.source])
    ab_g = np.concatenate([ag, bg])

    # 1. Union breakpoints per group (the flat analogue of
    #    ``envelope_breakpoints``) plus, per unique bound, the last
    #    piece of each side starting at or before it.
    if na == n_live and nb == n_live:
        # Leaf-level fast path: every group is one piece vs one piece,
        # so each group's four endpoints merge with an odd-even
        # sorting network — no global sort needed.  This is the
        # largest level of a divide-and-conquer build.
        a0, a1 = a_live.ya, a_live.yb
        b0, b1 = b_live.ya, b_live.yb
        c0 = np.minimum(a0, b0)
        c3 = np.maximum(a1, b1)
        m1 = np.maximum(a0, b0)
        m2 = np.minimum(a1, b1)
        c1 = np.minimum(m1, m2)
        c2 = np.maximum(m1, m2)
        n4 = 4 * n_live
        ev = np.empty(n4, _F)
        ev[0::4] = c0
        ev[1::4] = c1
        ev[2::4] = c2
        ev[3::4] = c3
        keep = np.empty(n4, bool)
        keep[0::4] = True
        keep[1::4] = c1 != c0
        keep[2::4] = c2 != c1
        keep[3::4] = c3 != c2
        ga = np.arange(n_live, dtype=_I)
        grp4 = np.repeat(ga, 4)
        # The single candidate piece of a side covers a bound exactly
        # when it starts at or before it (value-based, so duplicate
        # events collapse consistently with the generic run-end rule).
        bca = np.empty(n4, _I)
        bcb = np.empty(n4, _I)
        for k, ck in enumerate((c0, c1, c2, c3)):
            bca[k::4] = np.where(ck >= a0, ga, -1)
            bcb[k::4] = np.where(ck >= b0, ga, -1)
        ysu = ev[keep]
        gsu = grp4[keep]
        bound_cand_a = bca[keep]
        bound_cand_b = bcb[keep]
    else:
        # Generic path: one sorted event sequence per level.  It
        # doubles as the point-location structure: a running maximum
        # over piece-start markers gives, at every bound, the last
        # piece of each side starting at or before it (a segmented
        # per-group ``searchsorted`` with no extra sort).
        #
        # Each side's interleaved endpoint stream ``[ya0, yb0, ya1,
        # yb1, ...]`` is already sorted within every group; contiguous
        # pieces duplicate their shared endpoint (``yb_i == ya_{i+1}``)
        # so an adjacent-dedup *before* the global sort shrinks it by
        # up to half, folding the dropped start's piece marker into
        # the kept event.
        ea, ga_s, ma = _endpoint_stream(a_live.ya, a_live.yb, ag, na)
        eb, gb_s, mb = _endpoint_stream(b_live.ya, b_live.yb, bg, nb)
        n_ev = len(ea) + len(eb)
        ys = np.concatenate([ea, eb])
        gs = np.concatenate([ga_s, gb_s])
        order = _composite_argsort(ys, gs, n_live)
        ys_s = ys[order]
        gs_s = gs[order]
        mark_a = np.full(n_ev, -1, _I)
        mark_a[: len(ea)] = ma
        mark_a = mark_a[order]
        mark_b = np.full(n_ev, -1, _I)
        mark_b[len(ea) :] = mb
        mark_b = mark_b[order]
        keep = np.empty(n_ev, bool)
        keep[0] = True
        keep[1:] = (ys_s[1:] != ys_s[:-1]) | (gs_s[1:] != gs_s[:-1])
        starts = np.flatnonzero(keep)
        ends = np.concatenate([starts[1:], [n_ev]]) - 1
        ysu = ys_s[starts]
        gsu = gs_s[starts]
        # Piece indices increase along the sorted order within a group
        # (stacks are (group, ya)-sorted), so the running max is "the
        # most recent"; taking it at the *end* of each equal-(g, y) run
        # makes a piece starting exactly at ``u`` cover ``u``
        # (``p.ya <= u`` inclusive).
        cum_a = np.maximum.accumulate(mark_a)
        cum_b = np.maximum.accumulate(mark_b)
        bound_cand_a = cum_a[ends]
        bound_cand_b = cum_b[ends]

    # 2. Elementary intervals (u, v) within each group.
    iv = np.flatnonzero(gsu[1:] == gsu[:-1])
    u = ysu[iv]
    v = ysu[iv + 1]
    gi = gsu[iv]
    n_iv = len(u)
    ops = np.bincount(gi, minlength=n_live)

    # 3. Evaluate each side once per *unique bound* (candidate piece
    #    heights), stacked [A-bounds | B-bounds].  Absolute indices
    #    into the concatenated A|B arrays; the B side offsets by
    #    ``na``.  The candidate piece fields and validity are gathered
    #    once here and re-used by the per-interval step below — the
    #    group check folds into the bound-level validity, so step 4
    #    never re-gathers from the piece arrays.
    n_bounds = len(ysu)
    bc2 = np.concatenate(
        [bound_cand_a, np.where(bound_cand_b >= 0, bound_cand_b + na, -1)]
    )
    bi2 = np.clip(bc2, 0, None)
    yb_b2 = ab_yb[bi2]
    zb_b2 = ab_zb[bi2]
    z_bound2 = _z_eval(
        ab_ya[bi2],
        ab_za[bi2],
        yb_b2,
        zb_b2,
        np.concatenate([ysu, ysu]),
    )
    # A candidate covers onward intervals only when it is real and
    # belongs to the bound's own group (the running max carries the
    # previous group's last piece across group boundaries).
    valid_b2 = (bc2 >= 0) & (ab_g[bi2] == np.concatenate([gsu, gsu]))

    # 4. Per-interval covers and endpoint heights, stacked [A | B].
    #    The height at ``u`` is the bound evaluation itself; the
    #    height at ``v`` reuses the next bound's evaluation when the
    #    piece continues past ``v`` (same covering piece, pieces
    #    cannot overlap) and is the piece's exact ``zb`` when it ends
    #    there — precisely the scalar ``z_at`` endpoint shortcut.
    iv2 = np.concatenate([iv, iv + n_bounds])
    i2 = bi2[iv2]
    vv = np.concatenate([v, v])
    yb_i2 = yb_b2[iv2]
    cover2 = valid_b2[iv2] & (yb_i2 >= vv)
    cover_a, cover_b = cover2[:n_iv], cover2[n_iv:]
    ia, ib = i2[:n_iv], i2[n_iv:]  # absolute indices into ab_* arrays
    z_u2 = z_bound2[iv2]
    z_v2 = np.where(yb_i2 == vv, zb_b2[iv2], z_bound2[iv2 + 1])
    za_u, zb_u = z_u2[:n_iv], z_u2[n_iv:]
    za_v, zb_v = z_v2[:n_iv], z_v2[n_iv:]

    # 5. Dominance signs (0 within eps — the tie band where ``a`` wins).
    both = cover_a & cover_b
    du = za_u - zb_u
    dv = za_v - zb_v
    su = (du > eps).astype(np.int8)
    su -= du < -eps
    sv = (dv > eps).astype(np.int8)
    sv -= dv < -eps
    a_dom = both & (su >= 0) & (sv >= 0)
    b_dom = both & ~a_dom & (su <= 0) & (sv <= 0)
    cross_raw = np.flatnonzero(both & ~a_dom & ~b_dom)

    # 6. Crossing point; numerically clamped crossings degrade to
    #    one-sided dominance exactly as in the scalar code.
    duc = du[cross_raw]
    dvc = dv[cross_raw]
    t = duc / (duc - dvc)
    w = u[cross_raw] + t * (v[cross_raw] - u[cross_raw])
    degenerate = (w <= u[cross_raw]) | (w >= v[cross_raw])
    if degenerate.any():
        deg = cross_raw[degenerate]
        a_side = (su[deg] > 0) | (sv[deg] < 0)
        a_dom[deg[a_side]] = True
        b_dom[deg[~a_side]] = True
    cross = cross_raw[~degenerate]
    w = w[~degenerate]
    first_is_a = su[cross] > 0

    # 7. Heights at the crossing, per supporting piece (both sides
    #    stacked into one evaluation).
    n_x = len(cross)
    idxx = np.concatenate([ia[cross], ib[cross]])
    wx = np.concatenate([w, w])
    zw_ab = _z_eval(
        ab_ya[idxx], ab_za[idxx], ab_yb[idxx], ab_zb[idxx], wx
    )
    zw_a, zw_b = zw_ab[:n_x], zw_ab[n_x:]

    # 8. Emit output pieces: one per dominated interval, two per
    #    crossing interval, in (group, y) order by construction.
    emit_a = (cover_a & ~cover_b) | a_dom
    n_x = len(cross)
    if n_x:
        src_a = ab_src[ia[cross]]
        src_b = ab_src[ib[cross]]

    emit = emit_a | (cover_b & ~cover_a) | b_dom
    counts = emit.astype(_I)
    counts[cross] = 2
    offs = np.cumsum(counts) - counts
    n_out = int(counts.sum())

    out_ya = np.empty(n_out, _F)
    out_za = np.empty(n_out, _F)
    out_yb = np.empty(n_out, _F)
    out_zb = np.empty(n_out, _F)
    out_src = np.empty(n_out, _I)
    out_grp = np.empty(n_out, _I)

    sel = np.flatnonzero(emit)
    ea = emit_a[sel]  # winner side of each single-piece interval
    pos = offs[sel]
    out_ya[pos] = u[sel]
    out_za[pos] = np.where(ea, za_u[sel], zb_u[sel])
    out_yb[pos] = v[sel]
    out_zb[pos] = np.where(ea, za_v[sel], zb_v[sel])
    out_src[pos] = ab_src[np.where(ea, ia[sel], ib[sel])]
    out_grp[pos] = gi[sel]

    if n_x:
        p1 = offs[cross]
        out_ya[p1] = u[cross]
        out_za[p1] = np.where(first_is_a, za_u[cross], zb_u[cross])
        out_yb[p1] = w
        out_zb[p1] = np.where(first_is_a, zw_a, zw_b)
        out_src[p1] = np.where(first_is_a, src_a, src_b)
        out_grp[p1] = gi[cross]
        p2 = p1 + 1
        out_ya[p2] = w
        out_za[p2] = np.where(first_is_a, zw_b, zw_a)
        out_yb[p2] = v[cross]
        out_zb[p2] = np.where(first_is_a, zb_v[cross], za_v[cross])
        out_src[p2] = np.where(first_is_a, src_b, src_a)
        out_grp[p2] = gi[cross]

    # 9. Coalesce contiguous same-source pieces (EnvelopeBuilder
    #    rules).
    if n_out and bool((out_src < 0).any()):
        # Synthetic (source -1) pieces coalesce on a
        # *mutated-slope* condition that is inherently sequential;
        # fall back to the reference builder per group (rare
        # outside tests).
        out_ya, out_za, out_yb, out_zb, out_src, out_grp = (
            _coalesce_python(
                out_ya, out_za, out_yb, out_zb, out_src, out_grp, eps
            )
        )
    elif n_out:
        join = np.empty(n_out, bool)
        join[0] = False
        join[1:] = (
            (out_src[1:] == out_src[:-1])
            & (out_grp[1:] == out_grp[:-1])
            & (out_ya[1:] == out_yb[:-1])
            & (np.abs(out_za[1:] - out_zb[:-1]) <= eps)
        )
        starts = np.flatnonzero(~join)
        ends = np.concatenate([starts[1:], [n_out]]) - 1
        out_ya = out_ya[starts]
        out_za = out_za[starts]
        out_yb = out_yb[ends]
        out_zb = out_zb[ends]
        out_src = out_src[starts]
        out_grp = out_grp[starts]

    live_counts = np.bincount(out_grp, minlength=n_live)
    live_offsets = np.concatenate([[0], np.cumsum(live_counts)])

    # 10. Crossing records (in (group, y) order), original group ids.
    if record_crossings and len(cross):
        cg = live_ids[gi[cross]]
        cy = w
        cz = zw_a  # the scalar code records ``pa.z_at(w)``
        cf = np.where(first_is_a, src_a, src_b)
        cbk = np.where(first_is_a, src_b, src_a)
    else:
        cg = np.empty(0, _I)
        cy = np.empty(0, _F)
        cz = np.empty(0, _F)
        cf = np.empty(0, _I)
        cbk = np.empty(0, _I)

    return (
        ops,
        (
            out_ya,
            out_za,
            out_yb,
            out_zb,
            out_src,
            live_ids[out_grp] if len(out_grp) else out_grp,
            live_offsets,
            cg,
            cy,
            cz,
            cf,
            cbk,
        ),
    )


def _select_groups(st: _Stacked, ids: np.ndarray) -> _Stacked:
    """Sub-stack containing only the given groups, renumbered densely."""
    counts = st.counts()[ids]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    take = np.concatenate(
        [
            np.arange(st.offsets[g], st.offsets[g + 1])
            for g in ids.tolist()
        ]
    ) if len(ids) else np.empty(0, _I)
    take = take.astype(np.intp)
    return _Stacked(
        st.ya[take],
        st.za[take],
        st.yb[take],
        st.zb[take],
        st.source[take],
        offsets.astype(_I),
    )


def _coalesce_python(
    ya: np.ndarray,
    za: np.ndarray,
    yb: np.ndarray,
    zb: np.ndarray,
    src: np.ndarray,
    grp: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, ...]:
    """Reference (per-group ``EnvelopeBuilder``) coalescing fallback."""
    out_p: list[Piece] = []
    out_g: list[int] = []
    builder: Optional[EnvelopeBuilder] = None
    cur = None
    for i in range(len(ya)):
        g = int(grp[i])
        if g != cur:
            if builder is not None:
                for p in builder.build().pieces:
                    out_p.append(p)
                    out_g.append(cur)  # type: ignore[arg-type]
            builder = EnvelopeBuilder(eps)
            cur = g
        builder.add(
            Piece(
                float(ya[i]),
                float(za[i]),
                float(yb[i]),
                float(zb[i]),
                int(src[i]),
            )
        )
    if builder is not None:
        for p in builder.build().pieces:
            out_p.append(p)
            out_g.append(cur)  # type: ignore[arg-type]
    return (
        np.array([p.ya for p in out_p], _F),
        np.array([p.za for p in out_p], _F),
        np.array([p.yb for p in out_p], _F),
        np.array([p.zb for p in out_p], _F),
        np.array([p.source for p in out_p], _I),
        np.array(out_g, _I),
    )


def merge_envelopes_flat(
    a: FlatEnvelope | Envelope,
    b: FlatEnvelope | Envelope,
    *,
    eps: float = EPS,
    record_crossings: bool = True,
) -> FlatMergeResult:
    """Point-wise maximum of two envelopes, fully vectorized.

    Produces exactly the pieces, crossings and ``ops`` of
    :func:`repro.envelope.merge.merge_envelopes` (ties prefer ``a``).
    """
    fa = a if isinstance(a, FlatEnvelope) else FlatEnvelope.from_envelope(a)
    fb = b if isinstance(b, FlatEnvelope) else FlatEnvelope.from_envelope(b)
    if not len(fa):
        return FlatMergeResult(fb, [], len(fb))
    if not len(fb):
        return FlatMergeResult(fa, [], len(fa))
    res = batch_merge(
        stack_envelopes([fa]), stack_envelopes([fb]), eps=eps, record_crossings=record_crossings
    )
    return FlatMergeResult(
        res.merged.group(0), res.crossings_of(0), int(res.ops[0])
    )


class FlatBuildResult:
    """Level-batched divide-and-conquer construction output.

    ``node_ops`` / ``node_crossings`` are keyed by the recursion range
    ``(lo, hi)`` so callers can replay the reference engine's exact
    PRAM charge sequence and crossing collection order.  Crossing
    values are ``(y, z, front, back)`` array 4-tuples (only nodes with
    at least one crossing appear); :meth:`FlatBuildResult.crossings_of`
    materialises :class:`Crossing` records.  The per-node ops dict is
    built lazily from the per-level ops arrays — tracker-free callers
    only need :attr:`total_merge_ops`.
    """

    __slots__ = (
        "envelope",
        "node_crossings",
        "n_segments",
        "_level_nodes",
        "_level_ops",
        "_node_ops",
    )

    def __init__(
        self,
        envelope: FlatEnvelope,
        node_crossings: dict[
            tuple[int, int],
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        ],
        n_segments: int,
        level_nodes: Sequence[Sequence[tuple[int, int]]],
        level_ops: Sequence[np.ndarray],
    ):
        self.envelope = envelope
        self.node_crossings = node_crossings
        self.n_segments = n_segments
        self._level_nodes = level_nodes
        self._level_ops = level_ops
        self._node_ops: Optional[dict[tuple[int, int], int]] = None

    @property
    def node_ops(self) -> dict[tuple[int, int], int]:
        if self._node_ops is None:
            d: dict[tuple[int, int], int] = {}
            for nodes, ops in zip(self._level_nodes, self._level_ops):
                d.update(zip(nodes, ops.tolist()))
            self._node_ops = d
        return self._node_ops

    @property
    def total_merge_ops(self) -> int:
        """Sum of all merge elementary-interval counts (leaf charges
        excluded)."""
        return int(sum(int(ops.sum()) for ops in self._level_ops))

    def crossings_of(self, node: tuple[int, int]) -> list[Crossing]:
        arrs = self.node_crossings.get(node)
        if arrs is None:
            return []
        y, z, f, b = arrs
        return [
            Crossing(*args)
            for args in zip(
                y.tolist(), z.tolist(), f.tolist(), b.tolist()
            )
        ]

    def collect_crossings(
        self, order: Sequence[tuple[int, int]]
    ) -> list[Crossing]:
        """All crossings, nodes visited in ``order`` — materialised in
        one concatenated pass rather than per node."""
        picked = [
            self.node_crossings[node]
            for node in order
            if node in self.node_crossings
        ]
        if not picked:
            return []
        ys = np.concatenate([p[0] for p in picked]).tolist()
        zs = np.concatenate([p[1] for p in picked]).tolist()
        fs = np.concatenate([p[2] for p in picked]).tolist()
        bs = np.concatenate([p[3] for p in picked]).tolist()
        return list(map(Crossing._make, zip(ys, zs, fs, bs)))


@lru_cache(maxsize=64)
def _recursion_levels(
    m: int,
) -> tuple[
    tuple[
        tuple[tuple[int, int], ...],
        tuple[tuple[int, int], ...],
        tuple[tuple[int, int], ...],
    ],
    ...,
]:
    """Breadth-first levels of the reference D&C recursion over ``m``
    segments (split at ``(lo + hi) // 2``), each level as
    ``(nodes, internals, leaves)``.  Leaf nodes (``hi - lo == 1``)
    occur on at most the two deepest levels.  Cached: the tree shape
    depends only on ``m``.
    """
    out = []
    nodes: tuple[tuple[int, int], ...] = ((0, m),)
    while nodes:
        internals = tuple(n for n in nodes if n[1] - n[0] >= 2)
        leaves = tuple(n for n in nodes if n[1] - n[0] == 1)
        out.append((nodes, internals, leaves))
        nodes = tuple(
            child
            for (lo, hi) in internals
            for child in ((lo, (lo + hi) // 2), ((lo + hi) // 2, hi))
        )
    return tuple(out)


@lru_cache(maxsize=64)
def _postorder_index(m: int) -> dict[tuple[int, int], int]:
    """Node -> position in the reference post-order (cached per ``m``);
    lets callers order a sparse node subset without scanning the whole
    tree."""
    return {
        node: i for i, node in enumerate(_recursion_postorder(m))
    }


@lru_cache(maxsize=64)
def _recursion_postorder(m: int) -> tuple[tuple[int, int], ...]:
    """Internal nodes of the reference recursion in post-order (left
    subtree, right subtree, node) — the order in which the reference
    engine collects merge results.  Cached per ``m``."""
    out: list[tuple[int, int]] = []

    def walk(lo: int, hi: int) -> None:
        if hi - lo <= 1:
            return
        mid = (lo + hi) // 2
        walk(lo, mid)
        walk(mid, hi)
        out.append((lo, hi))

    walk(0, m)
    return tuple(out)


def _split_children(st: _Stacked) -> tuple[_Stacked, _Stacked]:
    """Even-index groups as one stack, odd-index groups as another.

    A recursion level's nodes are exactly ``(left, right)`` child pairs
    of the level above, in parent order — so the A/B inputs of a level
    batch are the even/odd groups of the level below.
    """
    gids = st.group_ids()
    counts = st.counts()
    # Integer index gathers: one mask scan total instead of one
    # per field.
    even = np.flatnonzero((gids & 1) == 0)
    odd = np.flatnonzero(gids & 1)
    a_off = np.concatenate([[0], np.cumsum(counts[0::2])]).astype(_I)
    b_off = np.concatenate([[0], np.cumsum(counts[1::2])]).astype(_I)
    return (
        _Stacked(
            st.ya[even],
            st.za[even],
            st.yb[even],
            st.zb[even],
            st.source[even],
            a_off,
        ),
        _Stacked(
            st.ya[odd],
            st.za[odd],
            st.yb[odd],
            st.zb[odd],
            st.source[odd],
            b_off,
        ),
    )


def build_envelope_flat(
    segments: Sequence[ImageSegment],
    *,
    eps: float = EPS,
    record_crossings: bool = True,
) -> FlatBuildResult:
    """Upper envelope by *level-batched* divide and conquer.

    The recursion tree is identical to the reference
    :func:`repro.envelope.build.build_envelope` (split at
    ``(lo + hi) // 2``); all merges of one tree level are independent,
    so each level executes as a single :func:`batch_merge` call over
    level-wide stacked arrays.  The per-node elementary-interval
    counts — the PRAM work charges — are returned so the caller can
    reproduce the reference tracker costs exactly.
    """
    # One C-level pass turns the segment list into a (m, 5) matrix
    # (ImageSegment is a flat NamedTuple); vertical projections drop
    # out with a vectorized filter.
    all_mat = (
        _tuples_to_matrix(segments)
        if len(segments)
        else np.empty((0, 5), _F)
    )
    seg_mat = all_mat[all_mat[:, 0] != all_mat[:, 2]]
    m = len(seg_mat)
    if m == 0:
        return FlatBuildResult(FlatEnvelope.empty(), {}, 0, (), ())

    levels = _recursion_levels(m)

    level_nodes: list[tuple[tuple[int, int], ...]] = []
    level_ops: list[np.ndarray] = []
    node_crossings: dict[
        tuple[int, int],
        tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ] = {}

    def leaf_stack(nodes: Sequence[tuple[int, int]]) -> _Stacked:
        # Leaf ``lo`` indices are ascending; a full level of leaves is
        # a contiguous range (no gather needed).
        first, last = nodes[0][0], nodes[-1][0]
        if last - first + 1 == len(nodes):
            sub = seg_mat[first : last + 1]
        else:
            los = np.fromiter(
                (n[0] for n in nodes), dtype=np.intp, count=len(nodes)
            )
            sub = seg_mat[los]
        return _Stacked(
            np.ascontiguousarray(sub[:, 0]),
            np.ascontiguousarray(sub[:, 1]),
            np.ascontiguousarray(sub[:, 2]),
            np.ascontiguousarray(sub[:, 3]),
            sub[:, 4].astype(_I),
            np.arange(len(nodes) + 1, dtype=_I),
        )

    below: Optional[_Stacked] = None  # stack over the level just done
    for depth in range(len(levels) - 1, -1, -1):
        nodes, internals, leaves = levels[depth]

        merged: Optional[_Stacked] = None
        if internals:
            assert below is not None
            lefts, rights = _split_children(below)
            # Every node of a build level is non-empty (vertical
            # segments were filtered), so the sweep runs directly —
            # no empty-side stitching needed.
            ops, out = _sweep(
                lefts,
                rights,
                np.ones(len(internals), bool),
                eps,
                record_crossings,
            )
            merged = _Stacked(
                out[0], out[1], out[2], out[3], out[4], out[6]
            )
            cross_group, cross_y, cross_z, cross_f, cross_b = out[7:12]
            level_nodes.append(internals)
            level_ops.append(ops)
            if record_crossings and len(cross_group):
                bounds = np.searchsorted(
                    cross_group, np.arange(len(internals) + 1)
                )
                for g in np.flatnonzero(np.diff(bounds) > 0).tolist():
                    clo, chi = int(bounds[g]), int(bounds[g + 1])
                    node_crossings[internals[g]] = (
                        cross_y[clo:chi],
                        cross_z[clo:chi],
                        cross_f[clo:chi],
                        cross_b[clo:chi],
                    )

        if not leaves:
            assert merged is not None
            below = merged
        elif not internals:
            below = leaf_stack(leaves)
        else:
            # Mixed level (non-power-of-two m): interleave leaf
            # singletons and merged groups back into node order.
            lstack = leaf_stack(leaves)
            assert merged is not None
            parts: list[FlatEnvelope] = []
            li = mi = 0
            for node in nodes:
                if node[1] - node[0] == 1:
                    parts.append(lstack.group(li))
                    li += 1
                else:
                    parts.append(merged.group(mi))
                    mi += 1
            below = stack_envelopes(parts)

    assert below is not None and below.n_groups == 1
    return FlatBuildResult(
        below.group(0), node_crossings, m, level_nodes, level_ops
    )
