"""Fused visibility+merge window kernel for the sequential flat path.

:func:`repro.envelope.flat_splice.insert_segment_flat` used to answer
each edge with **two** passes over the overlapped window: a visibility
scan (is anything of the segment above the profile?) and — when
something was — a separate merge producing the spliced window output.
Above the dispatch cutoffs those were two independent array-kernel
launches (``batch_visible_parts`` plus ``merge_envelopes_flat``), each
paying its own fixed overhead and the first materialising an
intermediate :class:`~repro.envelope.flat_visibility.FlatVisibility`;
below them, two Python loops that both evaluate the same segment and
piece supporting lines at the same interval endpoints.

This module fuses the two passes into **one sweep** in both regimes:

* :func:`fused_insert_window` — the scalar fused loop over plain-float
  window lists.  One walk over the window's elementary intervals
  classifies each (gap / visible / hidden / transversal) and emits the
  visible parts, the crossings *and* the merged output pieces from a
  single set of ``_line_z`` evaluations and dominance signs.  The
  segment-vs-piece height differences are shared: the merge's signs
  are the exact negations of the visibility scan's, and the crossing
  parameter ``t = du / (du - dv)`` is bit-identical under that
  negation, so the fused loop reproduces both reference results float
  for float.
* :func:`fused_insert_window_flat` — the same computation as one array
  program over a zero-copy :class:`~repro.envelope.flat.FlatEnvelope`
  window view: union breakpoints by an interleave+dedup (the window's
  endpoint stream is already sorted; ``y1``/``y2`` insert by two
  scalar ``searchsorted``), one covering-piece locate, one stacked
  line evaluation per interval endpoint, shared sign arrays, and
  boolean-mask emission of visible parts, crossings and merged pieces
  — a single launch where the old path had two plus a
  materialisation.

The regime boundary is :data:`repro.envelope.engine.FLAT_FUSED_CUTOFF`
(overlapped pieces); it sits well below the tuple path's 96-piece
visibility cutoff because the fused kernel amortises one launch
instead of two (see ``docs/BENCHMARKS.md`` for the measured
breakeven).

Parity contract: for every insert, the fused paths produce exactly the
:class:`~repro.envelope.visibility.VisibilityResult` (parts, crossings,
``ops``) of :func:`repro.envelope.visibility.visible_parts` and exactly
the merged pieces and ``ops`` of
:func:`repro.envelope.merge.merge_envelopes` on the window — the same
contract the reference insert path satisfies, enforced by
``tests/test_envelope_flat_fused.py`` on adversarial inputs and by the
engine-parametrized SequentialHSR suites.

Hidden inserts never touch the profile: when the fused sweep finds no
visible part (after the ``width > eps`` filter) it reports the
visibility verdict alone and charges no merge ops, exactly as the
two-pass path did.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.envelope.flat import FlatEnvelope
from repro.envelope.packed import _line_z
from repro.envelope.visibility import VisibilityResult, VisiblePart
from repro.reliability import faultinject as _fi
from repro.reliability import guard as _guard

__all__ = [
    "FusedWindowResult",
    "fused_insert_window",
    "fused_insert_window_flat",
]

_F = np.float64
_I = np.int64


def _acc_add(parts: list[list[float]], ya: float, yb: float, eps: float) -> None:
    """``_PartAccumulator.add`` over mutable ``[ya, yb]`` rows."""
    if yb < ya:
        return
    if parts:
        last = parts[-1]
        if ya <= last[1] + eps:
            if yb > last[1]:
                last[1] = yb
            return
    parts.append([ya, yb])


class FusedWindowResult(NamedTuple):
    """One fused visibility+merge sweep over an overlapped window.

    ``visibility`` carries exactly what the standalone scan would
    report.  ``merged`` is the spliced window output as parallel
    ``(ya, za, yb, zb, source)`` sequences — ``None`` when the segment
    was fully hidden (no splice; ``merge_ops`` is 0 then, matching the
    two-pass path's early return before the merge).

    When the vectorized kernel is handed a ``dest`` profile it splices
    the merged window straight into it instead of handing the arrays
    back: ``profile`` is then the updated profile (the *same, mutated*
    object on the packed single-buffer layout), ``merged`` stays
    ``None``, and callers must treat every pre-call window view as
    stale.  ``profile is None`` + ``merged is None`` still means
    "fully hidden, nothing written".
    """

    visibility: VisibilityResult
    merged: Optional[tuple]
    merge_ops: int
    profile: Optional[object] = None


def fused_insert_window(
    wya: Sequence[float],
    wza: Sequence[float],
    wyb: Sequence[float],
    wzb: Sequence[float],
    wsrc: Sequence[int],
    y1: float,
    z1: float,
    y2: float,
    z2: float,
    src: int,
    eps: float,
) -> FusedWindowResult:
    """Scalar fused sweep: visibility and merged window in one loop.

    The window lists hold the profile pieces overlapping ``(y1, y2)``
    (every piece satisfies ``ya < y2`` and ``yb > y1``); sources must
    be real (``>= 0``) — synthetic pieces coalesce on a different
    builder rule and take the reference path in the caller.

    One elementary interval at a time (the merge's union-breakpoint
    subdivision, which refines the visibility scan's piece walk only
    by the window-piece head before ``y1`` and tail after ``y2``),
    each segment/piece height is evaluated once and drives both the
    visibility classification and the merge emission.
    """
    k = len(wya)
    parts: list[list[float]] = []
    crossings: list[tuple[float, float]] = []
    vis_ops = 0

    oya: list[float] = []
    oza: list[float] = []
    oyb: list[float] = []
    ozb: list[float] = []
    osrc: list[int] = []
    merge_ops = 0
    line_z = _line_z

    def add(pya: float, pza: float, pyb: float, pzb: float, s: int) -> None:
        # EnvelopeBuilder.add for real sources: coalesce contiguous
        # same-source pieces whose heights agree within eps.
        if pya >= pyb:
            return
        if osrc and osrc[-1] == s and oyb[-1] == pya and abs(ozb[-1] - pza) <= eps:
            oyb[-1] = pyb
            ozb[-1] = pzb
            return
        oya.append(pya)
        oza.append(pza)
        oyb.append(pyb)
        ozb.append(pzb)
        osrc.append(s)

    # Segment height at the previous interval end: contiguous pieces
    # re-enter exactly where the previous one exited, so one segment
    # evaluation per piece serves the previous pair's end, the gap
    # start and this pair's start.
    prev_zs = z1
    for j in range(k):
        pya = wya[j]
        pza = wza[j]
        pyb = wyb[j]
        pzb = wzb[j]
        if j == 0:
            if y1 < pya:
                # Head gap: the segment alone, visible and emitted.
                zs_u = line_z(y1, z1, y2, z2, pya)
                _acc_add(parts, y1, pya, eps)
                add(y1, z1, pya, zs_u, src)
                vis_ops += 1
                merge_ops += 1
                u = pya
            else:
                if pya < y1:
                    # Window-piece head before y1: merge-only interval.
                    add(pya, pza, y1, line_z(pya, pza, pyb, pzb, y1), wsrc[j])
                    merge_ops += 1
                u = y1
                zs_u = z1
        else:
            g0 = wyb[j - 1]
            u = pya
            if g0 < pya:
                # Gap between pieces — always inside (y1, y2);
                # ``g0`` is the previous interval end, so the segment
                # height there is already in hand.
                zs_u = line_z(y1, z1, y2, z2, pya)
                _acc_add(parts, g0, pya, eps)
                add(g0, prev_zs, pya, zs_u, src)
                vis_ops += 1
                merge_ops += 1
            else:
                zs_u = prev_zs
        if pyb < y2:
            v = pyb
            zs_v = line_z(y1, z1, y2, z2, pyb)
        else:
            v = y2
            zs_v = z2
        # Overlap interval (u, v): non-empty by the window invariant.
        zw_u = pza if u == pya else line_z(pya, pza, pyb, pzb, u)
        zw_v = pzb if v == pyb else line_z(pya, pza, pyb, pzb, v)
        du = zs_u - zw_u
        dv = zs_v - zw_v
        su = 0 if abs(du) <= eps else (1 if du > 0 else -1)
        sv = 0 if abs(dv) <= eps else (1 if dv > 0 else -1)
        vis_ops += 1
        merge_ops += 1
        if su >= 0 and sv >= 0 and (su > 0 or sv > 0):
            # Segment strictly above somewhere, never strictly below.
            _acc_add(parts, u, v, eps)
            add(u, zs_u, v, zs_v, src)
        elif su <= 0 and sv <= 0:
            # Hidden (or coincident — the window wins ties).
            add(u, zw_u, v, zw_v, wsrc[j])
        else:
            t = du / (du - dv)
            w = u + t * (v - u)
            if w <= u or w >= v:  # numeric clamp: treat as one-sided
                if su < 0 or sv > 0:
                    add(u, zw_u, v, zw_v, wsrc[j])
                else:
                    add(u, zs_u, v, zs_v, src)
                wc = u if w <= u else v
                if su > 0:
                    _acc_add(parts, u, wc, eps)
                else:
                    _acc_add(parts, wc, v, eps)
            else:
                zw_w = line_z(pya, pza, pyb, pzb, w)
                zs_w = line_z(y1, z1, y2, z2, w)
                if su > 0:
                    _acc_add(parts, u, w, eps)
                    add(u, zs_u, w, zs_w, src)
                    add(w, zw_w, v, zw_v, wsrc[j])
                else:
                    _acc_add(parts, w, v, eps)
                    add(u, zw_u, w, zw_w, wsrc[j])
                    add(w, zs_w, v, zs_v, src)
                crossings.append((w, zs_w))

        if j == k - 1:
            if v < y2:
                # Trailing gap past the last piece.
                _acc_add(parts, v, y2, eps)
                add(v, zs_v, y2, z2, src)
                vis_ops += 1
                merge_ops += 1
            elif y2 < pyb:
                # Window-piece tail past y2: merge-only interval.
                add(y2, zw_v, pyb, pzb, wsrc[j])
                merge_ops += 1
        prev_zs = zs_v

    out_parts = [VisiblePart(a, b) for a, b in parts if b - a > eps]
    vis = VisibilityResult(out_parts, crossings, max(vis_ops, 1))
    if not out_parts:
        return FusedWindowResult(vis, None, 0)
    return FusedWindowResult(vis, (oya, oza, oyb, ozb, osrc), merge_ops)


def fused_insert_window_flat(
    window: FlatEnvelope,
    y1: float,
    z1: float,
    y2: float,
    z2: float,
    src: int,
    eps: float,
    dest: "Optional[object]" = None,
    dest_range: Optional[tuple] = None,
) -> FusedWindowResult:
    """Vectorized fused sweep over a zero-copy window view.

    One array program replaces the batched visibility launch, its
    intermediate ``FlatVisibility`` materialisation *and* the flat
    merge launch of the two-pass path.  Sources must be real
    (``>= 0``): the vectorized coalesce applies the real-source
    builder rule only.

    ``dest`` (with ``dest_range = (lo, hi)``) asks the kernel to write
    the merged window straight back into the owning profile via its
    ``splice`` — in place, with zero extra moves when the merged piece
    count equals the window's, on the packed single-buffer layout.
    The write happens strictly *after* the last read of the window
    view, so the view staleness a packed splice causes can never feed
    back into this sweep.  ``window`` must be ``dest``'s own
    ``window(lo, hi)`` view.
    """
    if _fi.ARMED:
        _fi.trip("fused_insert")
    wya, wza = window.ya, window.za
    wyb, wzb = window.yb, window.zb
    wsrc = window.source
    k = len(wya)

    # ---- union breakpoints: interleave + dedup + insert y1/y2 ------
    ev = np.empty(2 * k, _F)
    ev[0::2] = wya
    ev[1::2] = wyb
    keep = np.empty(2 * k, bool)
    keep[0] = True
    keep[1:] = ev[1:] != ev[:-1]
    bounds = ev[keep] if not keep.all() else ev
    nb = len(bounds)
    # y1/y2 insert near the window edges (the first piece overlaps
    # past y1, the last past y2); two scalar searchsorteds and slice
    # stores beat ``np.insert``'s generic machinery by ~10µs.
    p1 = int(bounds.searchsorted(y1, side="left"))
    p2 = int(bounds.searchsorted(y2, side="left"))
    ins1 = p1 == nb or bounds[p1] != y1
    ins2 = p2 == nb or bounds[p2] != y2
    if ins1 or ins2:
        grown = np.empty(nb + ins1 + ins2, _F)
        grown[:p1] = bounds[:p1]
        w_at = p1
        if ins1:
            grown[w_at] = y1
            w_at += 1
        grown[w_at : w_at + (p2 - p1)] = bounds[p1:p2]
        w_at += p2 - p1
        if ins2:
            grown[w_at] = y2
            w_at += 1
        grown[w_at:] = bounds[p2:]
        bounds = grown

    u = bounds[:-1]
    v = bounds[1:]
    n_iv = len(u)
    merge_ops = n_iv  # every elementary interval is non-degenerate

    # ---- covering piece and coverage masks -------------------------
    cand = wya.searchsorted(u, side="right") - 1
    candc = np.maximum(cand, 0)
    pya = wya[candc]
    pza = wza[candc]
    pyb = wyb[candc]
    pzb = wzb[candc]
    pa = (cand >= 0) & (pyb >= v)
    pb = (u >= y1) & (v <= y2)

    # ---- heights: segment line and covering piece at u and v -------
    # One error-state guard serves every evaluation below (lanes of
    # non-covering candidates hold garbage and may overflow; they are
    # masked out before use).
    old_err = np.seterr(over="ignore", invalid="ignore")
    try:
        uv = np.concatenate([u, v])
        t_s = (uv - y1) / (y2 - y1)
        zs = np.where(t_s == 1.0, z2, z1 + (z2 - z1) * t_s)
        zs_u, zs_v = zs[:n_iv], zs[n_iv:]
        span = pyb - pya
        t_u = (u - pya) / span
        zw_u = np.where(t_u == 1.0, pzb, pza + (pzb - pza) * t_u)
        t_v = (v - pya) / span
        zw_v = np.where(t_v == 1.0, pzb, pza + (pzb - pza) * t_v)
    finally:
        np.seterr(**old_err)

    # ---- dominance signs (visibility orientation: seg - window) ----
    both = pa & pb
    du = zs_u - zw_u
    dv = zs_v - zw_v
    su = (du > eps).astype(np.int8)
    su -= du < -eps
    sv = (dv > eps).astype(np.int8)
    sv -= dv < -eps

    hidden = both & (su <= 0) & (sv <= 0)
    seg_dom = both & ~hidden & (su >= 0) & (sv >= 0)
    tr = np.flatnonzero(both & ~hidden & ~seg_dom)

    # ---- transversal pairs: shared crossing parameter --------------
    win_dom = hidden
    vis_ya = u
    vis_yb = v
    if len(tr):
        dut = du[tr]
        dvt = dv[tr]
        t = dut / (dut - dvt)
        w = u[tr] + t * (v[tr] - u[tr])
        degenerate = (w <= u[tr]) | (w >= v[tr])
        # Merge side: degenerate flips collapse to one-sided
        # dominance.
        if degenerate.any():
            deg = tr[degenerate]
            win_side = (su[deg] < 0) | (sv[deg] > 0)
            win_dom = hidden.copy()
            win_dom[deg[win_side]] = True
            seg_dom[deg[~win_side]] = True
        cross = tr[~degenerate]
        w_int = w[~degenerate]
        n_x = len(cross)
        if n_x:
            # Real covering pieces and an interior w: no garbage
            # lanes, so no error-state guard is needed here.
            span_x = pyb[cross] - pya[cross]
            t_w = (w_int - pya[cross]) / span_x
            zw_w = np.where(
                t_w == 1.0, pzb[cross], pza[cross] + (pzb[cross] - pza[cross]) * t_w
            )
            t_x = (w_int - y1) / (y2 - y1)
            zs_w = np.where(t_x == 1.0, z2, z1 + (z2 - z1) * t_x)
        else:
            zw_w = zs_w = np.empty(0, _F)
        rising = su[tr] < 0  # hidden then visible: part (w, v)

        # Clamped visibility sub-interval of each transversal pair.
        w_clamp = np.minimum(np.maximum(w, u[tr]), v[tr])
        vis_ya = u.copy()
        vis_yb = v.copy()
        vis_ya[tr[rising]] = w_clamp[rising]
        vis_yb[tr[~rising]] = w_clamp[~rising]
    else:
        cross = tr
        w_int = zw_w = zs_w = np.empty(0, _F)
        n_x = 0

    # ---- visibility: candidate parts, accumulator merge ------------
    # Candidates in y-order: every in-span interval contributes one —
    # a gap (segment only), the full overlap, or the clamped
    # transversal sub-interval; hidden pairs contribute none.
    vis_valid = pb & ~hidden
    vis_ops = int(pb.sum())

    sel = np.flatnonzero(vis_valid)
    cya = vis_ya[sel]
    cyb = vis_yb[sel]
    n_sel = len(sel)
    out_parts: list[VisiblePart] = []
    if n_sel:
        new = np.empty(n_sel, bool)
        new[0] = True
        # Candidates are disjoint with non-decreasing ends, so the
        # accumulated last end *is* the previous candidate's end.
        new[1:] = cya[1:] > cyb[:-1] + eps
        pstarts = np.flatnonzero(new)
        pends = np.empty_like(pstarts)
        pends[:-1] = pstarts[1:] - 1
        pends[-1] = n_sel - 1
        m_ya = cya[pstarts]
        m_yb = cyb[pends]
        wide = (m_yb - m_ya) > eps
        out_parts = list(
            map(VisiblePart._make, zip(m_ya[wide].tolist(), m_yb[wide].tolist()))
        )

    # Crossings: strictly interior flips (the non-degenerate
    # transversal set is exactly interior), z on the segment line.
    out_cross = list(zip(w_int.tolist(), zs_w.tolist()))

    vis = VisibilityResult(out_parts, out_cross, max(vis_ops, 1))
    if not out_parts:
        return FusedWindowResult(vis, None, 0)

    # ---- merge emission: one or two pieces per covered interval ----
    emit_w = (pa & ~pb) | win_dom
    emit_s = (pb & ~pa) | seg_dom
    emit1 = emit_w | emit_s
    counts = emit1.astype(_I)
    counts[cross] = 2
    offs = np.cumsum(counts)
    n_out = int(offs[-1])
    offs -= counts

    out_ya = np.empty(n_out, _F)
    out_za = np.empty(n_out, _F)
    out_yb = np.empty(n_out, _F)
    out_zb = np.empty(n_out, _F)
    out_src = np.empty(n_out, _I)

    one = np.flatnonzero(emit1)
    ew = emit_w[one]
    pos = offs[one]
    out_ya[pos] = u[one]
    out_za[pos] = np.where(ew, zw_u[one], zs_u[one])
    out_yb[pos] = v[one]
    out_zb[pos] = np.where(ew, zw_v[one], zs_v[one])
    out_src[pos] = np.where(ew, wsrc[candc[one]], src)

    if n_x:
        # Transversal split: first side is the one above at u — the
        # window when su < 0 (segment below), the segment when su > 0.
        first_w = su[cross] < 0
        src_w = wsrc[candc[cross]]
        p1x = offs[cross]
        out_ya[p1x] = u[cross]
        out_za[p1x] = np.where(first_w, zw_u[cross], zs_u[cross])
        out_yb[p1x] = w_int
        out_zb[p1x] = np.where(first_w, zw_w, zs_w)
        out_src[p1x] = np.where(first_w, src_w, src)
        p2x = p1x + 1
        out_ya[p2x] = w_int
        out_za[p2x] = np.where(first_w, zs_w, zw_w)
        out_yb[p2x] = v[cross]
        out_zb[p2x] = np.where(first_w, zs_v[cross], zw_v[cross])
        out_src[p2x] = np.where(first_w, src, src_w)

    # ---- coalesce (EnvelopeBuilder real-source rule) ---------------
    if n_out:
        join = np.empty(n_out, bool)
        join[0] = False
        join[1:] = (
            (out_src[1:] == out_src[:-1])
            & (out_ya[1:] == out_yb[:-1])
            & (np.abs(out_za[1:] - out_zb[:-1]) <= eps)
        )
        if join.any():
            starts = np.flatnonzero(~join)
            ends = np.empty_like(starts)
            ends[:-1] = starts[1:] - 1
            ends[-1] = n_out - 1
            out_ya = out_ya[starts]
            out_za = out_za[starts]
            out_yb = out_yb[ends]
            out_zb = out_zb[ends]
            out_src = out_src[starts]

    # Guard hook: corrupt the freshly-built (never aliased) output
    # lanes if an injection plan targets this site, then validate them
    # *before* the dest-splice commits anything to the live profile —
    # the insert-level retry needs the profile unmutated.
    if _fi.ARMED:
        out_ya, out_za, out_yb, out_zb, out_src = _fi.corrupt_lanes(
            "fused_insert", out_ya, out_za, out_yb, out_zb, out_src
        )
    if _fi.ARMED or _guard.GUARDED_CHECK_ALL:
        _guard.check_flat("fused_insert", out_ya, out_za, out_yb, out_zb)

    if dest is not None:
        lo, hi = dest_range
        new = dest.splice(lo, hi, out_ya, out_za, out_yb, out_zb, out_src)
        return FusedWindowResult(vis, None, merge_ops, new)
    return FusedWindowResult(
        vis, (out_ya, out_za, out_yb, out_zb, out_src), merge_ops
    )
