"""Pairwise envelope merge (point-wise maximum) with crossing detection.

``merge_envelopes(a, b)`` sweeps the union of breakpoints left to
right; inside each elementary interval both inputs are linear, so the
winner either holds throughout or flips once at a computable crossing.

Crossings — points where the two envelopes transversally exchange
dominance — are the "intersections" the paper's analysis counts: every
crossing discovered during Phase 1 or Phase 2 is (potentially) a vertex
of some profile, and the total number discovered relates linearly to
the output size ``k``.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Optional, Sequence

from repro.envelope.chain import Envelope, EnvelopeBuilder, Piece
from repro.geometry.primitives import EPS

__all__ = [
    "Crossing",
    "MergeResult",
    "merge_envelopes",
    "merge_many",
    "envelope_breakpoints",
]


class Crossing(NamedTuple):
    """A transversal crossing between two envelope pieces.

    ``front`` / ``back`` are the source edge ids of the piece that is
    above to the *left* of the crossing and to the right respectively
    — "front"/"back" naming matches the Phase-2 use where ``a`` is the
    inherited (front) profile.
    """

    y: float
    z: float
    front: int
    back: int


class MergeResult(NamedTuple):
    """Outcome of an envelope merge.

    Attributes
    ----------
    envelope:
        The point-wise maximum of the inputs.
    crossings:
        Transversal crossings discovered, in y-order.
    ops:
        Elementary intervals processed — the sequential work of the
        merge; PRAM trackers charge this as work.
    """

    envelope: Envelope
    crossings: list[Crossing]
    ops: int


def _endpoint_stream(env: Envelope) -> list[float]:
    """All piece endpoints of ``env`` in y-order.

    Within one envelope pieces are y-sorted and non-overlapping, so
    the interleaved ``[ya0, yb0, ya1, yb1, ...]`` sequence is already
    sorted — no per-envelope sort is needed.
    """
    out: list[float] = []
    for p in env.pieces:
        out.append(p.ya)
        out.append(p.yb)
    return out


def envelope_breakpoints(*envs: Envelope) -> list[float]:
    """Sorted unique piece endpoints of the given envelopes.

    Each envelope's endpoint stream is already sorted (see
    :func:`_endpoint_stream`), so the union is a linear merge — a
    two-pointer pass for the common two-envelope case, a heap merge
    for more — rather than a hash-set plus full sort.
    """
    if len(envs) == 2:
        xs = _endpoint_stream(envs[0])
        ys = _endpoint_stream(envs[1])
        out: list[float] = []
        i = j = 0
        nx, ny = len(xs), len(ys)
        while i < nx and j < ny:
            x, y = xs[i], ys[j]
            if x <= y:
                if not out or out[-1] != x:
                    out.append(x)
                i += 1
                if x == y:
                    j += 1
            else:
                if not out or out[-1] != y:
                    out.append(y)
                j += 1
        for k in range(i, nx):
            if not out or out[-1] != xs[k]:
                out.append(xs[k])
        for k in range(j, ny):
            if not out or out[-1] != ys[k]:
                out.append(ys[k])
        return out
    merged: list[float] = []
    for y in heapq.merge(*(_endpoint_stream(e) for e in envs)):
        if not merged or merged[-1] != y:
            merged.append(y)
    return merged


def _piece_at(env: Envelope, idx: int, u: float, v: float) -> Optional[Piece]:
    """The piece at index ``idx`` if it covers ``[u, v]``, else ``None``."""
    if 0 <= idx < len(env.pieces):
        p = env.pieces[idx]
        if p.ya <= u and v <= p.yb:
            return p
    return None


def merge_envelopes(
    a: Envelope,
    b: Envelope,
    *,
    eps: float = EPS,
    record_crossings: bool = True,
) -> MergeResult:
    """Point-wise maximum of two envelopes.

    Tie-breaking: where the envelopes coincide (within ``eps``) the
    piece of ``a`` wins.  Phase 2 passes the inherited (front) profile
    as ``a`` so that coincident geometry is attributed to the nearer
    edge, matching the "front edge occludes" convention.
    """
    if not a.pieces:
        return MergeResult(Envelope(b.pieces), [], len(b.pieces))
    if not b.pieces:
        return MergeResult(Envelope(a.pieces), [], len(a.pieces))

    bounds = envelope_breakpoints(a, b)
    out = EnvelopeBuilder(eps)
    crossings: list[Crossing] = []
    ops = 0
    ia = ib = 0

    for u, v in zip(bounds, bounds[1:]):
        if u >= v:
            continue
        ops += 1
        while ia < len(a.pieces) and a.pieces[ia].yb <= u:
            ia += 1
        while ib < len(b.pieces) and b.pieces[ib].yb <= u:
            ib += 1
        pa = _piece_at(a, ia, u, v)
        pb = _piece_at(b, ib, u, v)
        if pa is None and pb is None:
            continue
        # Endpoint heights are evaluated once here and passed through
        # to the emitted pieces — ``Piece.clipped`` would recompute
        # the exact same ``z_at`` values.
        if pb is None:
            out.add(Piece(u, pa.z_at(u), v, pa.z_at(v), pa.source))  # type: ignore[union-attr]
            continue
        if pa is None:
            out.add(Piece(u, pb.z_at(u), v, pb.z_at(v), pb.source))
            continue

        pa_u = pa.z_at(u)
        pa_v = pa.z_at(v)
        pb_u = pb.z_at(u)
        pb_v = pb.z_at(v)
        du = pa_u - pb_u
        dv = pa_v - pb_v
        su = 0 if abs(du) <= eps else (1 if du > 0 else -1)
        sv = 0 if abs(dv) <= eps else (1 if dv > 0 else -1)

        if su >= 0 and sv >= 0:
            out.add(Piece(u, pa_u, v, pa_v, pa.source))
        elif su <= 0 and sv <= 0:
            # Coincident pieces (su == sv == 0) were taken by the
            # branch above — the front envelope wins ties.
            out.add(Piece(u, pb_u, v, pb_v, pb.source))
        else:
            # True transversal flip inside (u, v).
            t = du / (du - dv)
            w = u + t * (v - u)
            if w <= u or w >= v:  # numeric clamp: treat as one-sided
                if su > 0 or sv < 0:
                    out.add(Piece(u, pa_u, v, pa_v, pa.source))
                else:
                    out.add(Piece(u, pb_u, v, pb_v, pb.source))
                continue
            zw = pa.z_at(w)
            zw_b = pb.z_at(w)
            if su > 0:
                out.add(Piece(u, pa_u, w, zw, pa.source))
                out.add(Piece(w, zw_b, v, pb_v, pb.source))
            else:
                out.add(Piece(u, pb_u, w, zw_b, pb.source))
                out.add(Piece(w, zw, v, pa_v, pa.source))
            if record_crossings:
                left_src = pa.source if su > 0 else pb.source
                right_src = pb.source if su > 0 else pa.source
                crossings.append(Crossing(w, zw, left_src, right_src))

    return MergeResult(out.build(), crossings, ops)


def merge_many(
    envs: Sequence[Envelope],
    *,
    eps: float = EPS,
) -> MergeResult:
    """k-way merge of several envelopes by balanced tournament
    reduction.

    Adjacent pairs merge in rounds (a balanced, heap-shaped reduction
    tree), so total work is ``O(S log k)`` for total piece count ``S``
    instead of the ``O(S·k)`` of a left fold.  Pairing stays adjacent
    — never size-reordered — so earlier envelopes keep tie-breaking
    precedence over later ones.  This matches the former left fold on
    exact ties, but not bit-for-bit on *eps-chained* near-ties
    (eps-tie resolution is not associative) and the ``ops`` total
    differs (the fold's initial empty-accumulator merge is gone); the
    result is the same envelope up to eps everywhere.
    """
    if not envs:
        return MergeResult(Envelope.empty(), [], 0)
    crossings: list[Crossing] = []
    ops = 0
    level = list(envs)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            res = merge_envelopes(level[i], level[i + 1], eps=eps)
            nxt.append(res.envelope)
            crossings.extend(res.crossings)
            ops += res.ops
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return MergeResult(level[0], crossings, ops)
