"""Flat-native incremental profile: sequential inserts without tuple copies.

The tuple-based :func:`repro.envelope.splice.insert_segment` rebuilds
the whole profile on every edge (``env.pieces[:lo] + merged +
env.pieces[hi:]`` plus a fresh :class:`~repro.envelope.chain.Envelope`
with its ``_starts`` cache), so each insert costs Θ(m) in Python-object
copying even when the overlapped window is a single piece — the ``ops``
counter reports output-sensitive work while the wall clock is
quadratic in the profile size.

:func:`insert_segment_flat` keeps the live profile in one
:class:`~repro.envelope.packed.PackedProfile` buffer across a whole
sequential run and answers each edge on one of two paths:

1. *compiled core* — when the optional extension is built
   (:data:`USE_COMPILED_INSERT`), one C call does locate, fused sweep
   and in-place splice (:mod:`repro.envelope._ccore`);
2. *numpy path* — otherwise (or when the core declines): two
   ``searchsorted`` calls replicating
   :meth:`Envelope.pieces_overlapping` bit for bit, then one fused
   visibility+merge sweep of :mod:`repro.envelope.flat_fused` over the
   window — the scalar fused loop (with scalar hidden/fully-visible
   fast-path predicates) below
   :data:`repro.envelope.engine.FLAT_FUSED_CUTOFF` overlapped pieces,
   the vectorized fused kernel on a zero-copy window view (with
   array fast-path reductions) at or above it — and an in-place
   splice of the merged window.

Windows holding synthetic (negative-source) pieces coalesce on the
builder's sequential slope rule, which neither fused kernel
implements; they — and every guard retry — take
:func:`_insert_reference`, the scalar scan plus the reference merge.

:func:`insert_run` is the whole-run loop behind ``SequentialHSR``:
with the compiled core on it hands chunks of up to 256 inserts to one
C call each (:func:`repro.envelope._ccore.insert_run`, which also
clips the visible parts into CSR rows) and falls back to
:func:`insert_segment_flat` per insert otherwise.

Conversion to/from the scalar :class:`Envelope` happens only at run
boundaries.  Parity contract: for every insert sequence the profile
pieces, per-edge :class:`VisibilityResult` (parts, crossings, ops) and
total ``ops`` are identical to the ``engine="python"`` reference path —
``tests/test_envelope_flat_splice.py``, ``tests/test_envelope_flat_fused.py``
and the incremental-run fixtures in
``tests/test_envelope_flat_visibility.py`` enforce this on adversarial
inputs.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Sequence

import numpy as np

import repro.envelope.engine as _engine
from repro.envelope import _ccore
from repro.envelope.chain import Envelope
from repro.envelope.flat import _tuples_to_matrix
from repro.envelope.merge import merge_envelopes
from repro.envelope.packed import PackedProfile, _line_z
from repro.envelope.visibility import VisibilityResult, VisiblePart
from repro.errors import KernelFault
from repro.geometry.primitives import EPS, NEG_INF
from repro.geometry.segments import ImageSegment
from repro.reliability import faultinject as _fi
from repro.reliability import guard as _guard

__all__ = [
    "FlatInsertResult",
    "InsertRun",
    "insert_run",
    "insert_segment_flat",
    "segment_lanes",
    "USE_COMPILED_INSERT",
]

_I = np.int64

#: The compiled fused-insert core (:mod:`repro.envelope._ccore`): one
#: C call per insert doing locate + fused sweep + in-place packed
#: splice, for windows of any size.  Defaults on when the optional
#: extension compiled at install time (``REPRO_COMPILED=0`` is the env
#: ablation); ``False`` — or a no-compiler install — runs the numpy
#: path below, which is bit-exact by the parity contract.
USE_COMPILED_INSERT = _ccore.COMPILED_DEFAULT

#: Lazily-bound fused kernel module (resolving it through the import
#: machinery on every insert costs ~0.5µs in the Python-loop-bound
#: small-window regime; ``flat_fused`` imports from this module, so
#: the binding cannot happen at import time).  The module object — not
#: the functions — is cached so test monkeypatching stays visible.
_fused_mod = None


def _get_fused_mod():
    global _fused_mod
    if _fused_mod is None:
        import repro.envelope.flat_fused as _fused_mod_imported

        _fused_mod = _fused_mod_imported
    return _fused_mod


class FlatInsertResult(NamedTuple):
    """Flat-native analogue of :class:`repro.envelope.splice.InsertResult`.

    ``profile`` is the updated :class:`PackedProfile` — always the
    *same* object, mutated in place unless the segment was hidden or
    vertical; ``visibility`` and ``ops`` carry exactly the values the
    reference :func:`~repro.envelope.splice.insert_segment` would
    report.
    """

    profile: PackedProfile
    visibility: VisibilityResult
    ops: int


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


def _scan_window(
    y1: float,
    z1: float,
    y2: float,
    z2: float,
    wya: Sequence[float],
    wza: Sequence[float],
    wyb: Sequence[float],
    wzb: Sequence[float],
    eps: float,
) -> VisibilityResult:
    """Visible parts of a non-vertical segment against the window of
    profile pieces overlapping its span — an exact inline of
    :func:`repro.envelope.visibility.visible_parts` over plain floats
    (every piece of the window overlaps ``(y1, y2)`` by construction,
    so the ``pieces_overlapping`` pre-pass is the identity here)."""
    parts: list[list[float]] = []
    crossings: list[tuple[float, float]] = []
    ops = 0
    cursor = y1
    line_z = _line_z  # local binding: called four times per piece
    for j in range(len(wya)):
        pya = wya[j]
        pyb = wyb[j]
        gap_end = pya if pya < y2 else y2
        if cursor < gap_end:
            _acc_add(parts, cursor, gap_end, eps)
            ops += 1
        u = max(cursor, pya, y1)
        v = pyb if pyb < y2 else y2
        if u < v:
            ops += 1
            pza = wza[j]
            pzb = wzb[j]
            du = line_z(y1, z1, y2, z2, u) - line_z(pya, pza, pyb, pzb, u)
            dv = line_z(y1, z1, y2, z2, v) - line_z(pya, pza, pyb, pzb, v)
            su = 0 if abs(du) <= eps else (1 if du > 0 else -1)
            sv = 0 if abs(dv) <= eps else (1 if dv > 0 else -1)
            if su >= 0 and sv >= 0 and (su > 0 or sv > 0):
                _acc_add(parts, u, v, eps)
            elif su <= 0 and sv <= 0:
                pass  # hidden (or coincident) throughout
            else:
                t = du / (du - dv)
                w = u + t * (v - u)
                w = min(max(w, u), v)
                if su > 0:
                    _acc_add(parts, u, w, eps)
                else:
                    _acc_add(parts, w, v, eps)
                if u < w < v:
                    crossings.append((w, _line_z(y1, z1, y2, z2, w)))
        cursor = max(cursor, v) if u < v else max(cursor, gap_end)
    if cursor < y2:
        _acc_add(parts, cursor, y2, eps)
        ops += 1
    out = [VisiblePart(a, b) for a, b in parts if b - a > eps]
    return VisibilityResult(out, crossings, max(ops, 1))


def _visible_vertical_flat(
    profile: PackedProfile, seg: ImageSegment, eps: float
) -> VisibilityResult:
    """``_visible_vertical`` on flat arrays: the edge is visible iff its
    top endpoint rises above the profile at its ``y``."""
    zenv = profile.value_at(seg.y1)
    top = seg.z1 if seg.z1 >= seg.z2 else seg.z2
    if zenv == NEG_INF or top > zenv + eps:
        return VisibilityResult([VisiblePart(seg.y1, seg.y1)], [], 1)
    return VisibilityResult([], [], 1)


def _merge_window_with_segment(
    wya: list,
    wza: list,
    wyb: list,
    wzb: list,
    wsrc: list,
    y1: float,
    z1: float,
    y2: float,
    z2: float,
    src: int,
    eps: float,
) -> tuple[list, list, list, list, list, int]:
    """Merge the window pieces with one segment — an exact inline of
    :func:`repro.envelope.merge.merge_envelopes` (ties prefer the
    window, ``record_crossings=False``) specialised to a single-piece
    right side and real (``>= 0``) sources, emitting plain-float piece
    field lists ready to splice.  Returns
    ``(ya, za, yb, zb, source, ops)``."""
    k = len(wya)
    if k == 0:
        # merge_envelopes' empty-side fast path: the other side
        # verbatim, ops = its piece count.
        return [y1], [z1], [y2], [z2], [src], 1

    # Union breakpoints: the window's interleaved endpoint stream is
    # already sorted; two-pointer merge with [y1, y2] (the exact
    # ``envelope_breakpoints`` dedup rules).
    xs: list[float] = []
    for j in range(k):
        xs.append(wya[j])
        xs.append(wyb[j])
    ys = [y1, y2]
    bounds: list[float] = []
    i = j = 0
    nx, ny = len(xs), 2
    while i < nx and j < ny:
        x, y = xs[i], ys[j]
        if x <= y:
            if not bounds or bounds[-1] != x:
                bounds.append(x)
            i += 1
            if x == y:
                j += 1
        else:
            if not bounds or bounds[-1] != y:
                bounds.append(y)
            j += 1
    for r in range(i, nx):
        if not bounds or bounds[-1] != xs[r]:
            bounds.append(xs[r])
    for r in range(j, ny):
        if not bounds or bounds[-1] != ys[r]:
            bounds.append(ys[r])

    oya: list[float] = []
    oza: list[float] = []
    oyb: list[float] = []
    ozb: list[float] = []
    osrc: list[int] = []

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

    ops = 0
    ia = 0
    for idx in range(len(bounds) - 1):
        u = bounds[idx]
        v = bounds[idx + 1]
        if u >= v:
            continue
        ops += 1
        while ia < k and wyb[ia] <= u:
            ia += 1
        pa = ia < k and wya[ia] <= u and v <= wyb[ia]
        pb = y1 <= u and v <= y2
        if not pa and not pb:
            continue
        if not pb:
            sa = wsrc[ia]
            add(
                u,
                _line_z(wya[ia], wza[ia], wyb[ia], wzb[ia], u),
                v,
                _line_z(wya[ia], wza[ia], wyb[ia], wzb[ia], v),
                sa,
            )
            continue
        if not pa:
            add(u, _line_z(y1, z1, y2, z2, u), v, _line_z(y1, z1, y2, z2, v), src)
            continue

        pya, pza, pyb, pzb = wya[ia], wza[ia], wyb[ia], wzb[ia]
        sa = wsrc[ia]
        pa_u = _line_z(pya, pza, pyb, pzb, u)
        pa_v = _line_z(pya, pza, pyb, pzb, v)
        pb_u = _line_z(y1, z1, y2, z2, u)
        pb_v = _line_z(y1, z1, y2, z2, v)
        du = pa_u - pb_u
        dv = pa_v - pb_v
        su = 0 if abs(du) <= eps else (1 if du > 0 else -1)
        sv = 0 if abs(dv) <= eps else (1 if dv > 0 else -1)

        if su >= 0 and sv >= 0:
            add(u, pa_u, v, pa_v, sa)
        elif su <= 0 and sv <= 0:
            add(u, pb_u, v, pb_v, src)
        else:
            t = du / (du - dv)
            w = u + t * (v - u)
            if w <= u or w >= v:  # numeric clamp: treat as one-sided
                if su > 0 or sv < 0:
                    add(u, pa_u, v, pa_v, sa)
                else:
                    add(u, pb_u, v, pb_v, src)
                continue
            zw = _line_z(pya, pza, pyb, pzb, w)
            zw_b = _line_z(y1, z1, y2, z2, w)
            if su > 0:
                add(u, pa_u, w, zw, sa)
                add(w, zw_b, v, pb_v, src)
            else:
                add(u, pb_u, w, zw_b, src)
                add(w, zw, v, pa_v, sa)

    return oya, oza, oyb, ozb, osrc, ops


def _insert_fused(
    profile: PackedProfile,
    seg: ImageSegment,
    lo: int,
    hi: int,
    win: int,
    eps: float,
    fused_cutoff: "int | None" = None,
) -> "FlatInsertResult | None":
    """The fused visibility+merge insert (one sweep instead of a
    visibility pass plus a merge pass; see
    :mod:`repro.envelope.flat_fused`).  Returns ``None`` when the
    window holds synthetic (negative-source) pieces — those coalesce
    on a different builder rule and take :func:`_insert_reference`."""
    fused = _get_fused_mod()

    y1, z1, y2, z2 = seg.y1, seg.z1, seg.y2, seg.z2
    if win == 0:
        # Empty window: one trailing scan interval, one merge
        # interval (the segment verbatim) — unless the span is
        # eps-degenerate, which the scan reports hidden.
        if y2 - y1 > eps:
            vis = VisibilityResult([VisiblePart(y1, y2)], [], 1)
            new = profile.splice(
                lo, hi, [y1], [z1], [y2], [z2], [seg.source]
            )
            return FlatInsertResult(new, vis, 2)
        return FlatInsertResult(profile, VisibilityResult([], [], 1), 1)

    if fused_cutoff is None:
        fused_cutoff = _engine.FLAT_FUSED_CUTOFF
    if win < fused_cutoff:
        return _insert_fused_small(
            profile, seg, lo, hi, win, y1, z1, y2, z2, eps, fused
        )

    # Hidden-window fast path.  When the window has no gaps, covers
    # the whole span, and its lowest endpoint clears the segment's top
    # endpoint by a safely-more-than-eps margin, every elementary
    # interval of the scan takes the hidden branch: the result is
    # exactly ``VisibilityResult([], [], win)`` and the profile is
    # untouched.  The margin adds a relative guard so lerp rounding
    # (a few ulps) can never flip a sign the scan would compute
    # differently — when unsure, fall through to the exact sweep.
    # (Below the fused cutoff the same predicates run as one scalar
    # pass over the window lists in ``_insert_fused_small`` — the
    # fixed overhead of these array reductions is the dominant
    # per-insert cost in the small-window regime.)
    top = z1 if z1 >= z2 else z2
    za_lo = profile.za[lo]
    if top < za_lo:  # quick reject before the reductions
        minz = profile.window_z_min(lo, hi)
        if (
            minz - top > eps + 1e-12 * (abs(minz) + abs(top) + 1.0)
            and profile.ya[lo] <= y1
            and profile.yb[hi - 1] >= y2
            and (
                win == 1
                or bool(
                    (profile.ya[lo + 1 : hi] == profile.yb[lo : hi - 1]).all()
                )
            )
        ):
            return FlatInsertResult(
                profile, VisibilityResult([], [], win), win
            )
    else:
        # Fully-visible fast path: when the segment's *bottom* clears
        # the window's highest endpoint by a safely-more-than-eps
        # margin, every pair is segment-dominated: the scan yields the
        # single part (y1, y2) and no crossings, and the merged window
        # collapses to (head clip of the first piece?) + the segment
        # verbatim + (tail clip of the last piece?) — the segment
        # emissions coalesce exactly because consecutive intervals
        # re-evaluate the same supporting line at the same bound.
        bot = z1 if z1 <= z2 else z2
        if bot > za_lo and y2 - y1 > eps:
            maxz = profile.window_z_max(lo, hi)
            if bot - maxz > eps + 1e-12 * (abs(maxz) + abs(bot) + 1.0):
                ya0 = float(profile.ya[lo])
                yb_l = float(profile.yb[hi - 1])
                gaps = (
                    int(
                        (
                            profile.yb[lo : hi - 1]
                            < profile.ya[lo + 1 : hi]
                        ).sum()
                    )
                    if win > 1
                    else 0
                )
                vis_ops = win + gaps + (y1 < ya0) + (y2 > yb_l)
                vis = VisibilityResult(
                    [VisiblePart(y1, y2)], [], vis_ops
                )
                merge_ops = win + gaps + (ya0 != y1) + (yb_l != y2)
                oya = [y1]
                oza = [z1]
                oyb = [y2]
                ozb = [z2]
                osrc = [seg.source]
                if ya0 < y1:
                    oya.insert(0, ya0)
                    oza.insert(0, float(profile.za[lo]))
                    oyb.insert(0, y1)
                    ozb.insert(
                        0,
                        _line_z(
                            ya0,
                            float(profile.za[lo]),
                            float(profile.yb[lo]),
                            float(profile.zb[lo]),
                            y1,
                        ),
                    )
                    osrc.insert(0, int(profile.source[lo]))
                if yb_l > y2:
                    oya.append(y2)
                    oza.append(
                        _line_z(
                            float(profile.ya[hi - 1]),
                            float(profile.za[hi - 1]),
                            yb_l,
                            float(profile.zb[hi - 1]),
                            y2,
                        )
                    )
                    oyb.append(yb_l)
                    ozb.append(float(profile.zb[hi - 1]))
                    osrc.append(int(profile.source[hi - 1]))
                new = profile.splice(lo, hi, oya, oza, oyb, ozb, osrc)
                return FlatInsertResult(new, vis, vis_ops + merge_ops)

    wsrc_arr = profile.source[lo:hi]
    if bool((wsrc_arr < 0).any()):
        return None
    res = fused.fused_insert_window_flat(
        profile.window(lo, hi),
        y1,
        z1,
        y2,
        z2,
        seg.source,
        eps,
        dest=profile,
        dest_range=(lo, hi),
    )
    if res.profile is not None:
        # The kernel spliced the merged window straight into the
        # profile (in place on the packed layout).
        return FlatInsertResult(
            res.profile, res.visibility, res.visibility.ops + res.merge_ops
        )
    # Fully hidden: no splice, profile shared.
    return FlatInsertResult(profile, res.visibility, res.visibility.ops)


def _insert_fused_small(
    profile: PackedProfile,
    seg: ImageSegment,
    lo: int,
    hi: int,
    win: int,
    y1: float,
    z1: float,
    y2: float,
    z2: float,
    eps: float,
    fused,
) -> "FlatInsertResult | None":
    """The small-window (< ``FLAT_FUSED_CUTOFF``) fused insert.

    One bulk :meth:`PackedProfile.window_lists` feeds the
    hidden/fully-visible fast-path predicates *and* the scalar fused
    sweep, so the whole insert runs on plain Python floats — the array
    reductions the large-window path uses cost more in fixed dispatch
    overhead than the entire scalar pass at these sizes.  The
    predicates are float-for-float the same as the large-window
    reductions (``tolist`` is lossless), so the branch taken — and
    therefore every result — is identical.
    """
    wya, wza, wyb, wzb = profile.window_lists(lo, hi)
    za0 = wza[0]
    top = z1 if z1 >= z2 else z2
    if top < za0:
        # Hidden-window fast path: gap-free covering window whose
        # lowest endpoint safely clears the segment's top (same
        # margin guard as the vectorized path).
        if wya[0] <= y1 and wyb[win - 1] >= y2:
            minz = za0 if za0 <= wzb[0] else wzb[0]
            prev_yb = wyb[0]
            gap_free = True
            for j in range(1, win):
                if wya[j] != prev_yb:
                    gap_free = False
                    break
                prev_yb = wyb[j]
                if wza[j] < minz:
                    minz = wza[j]
                if wzb[j] < minz:
                    minz = wzb[j]
            if gap_free and minz - top > eps + 1e-12 * (
                abs(minz) + abs(top) + 1.0
            ):
                return FlatInsertResult(
                    profile, VisibilityResult([], [], win), win
                )
    else:
        # Fully-visible fast path: the segment's bottom safely clears
        # the window's highest endpoint; merged window = [head clip?]
        # + segment + [tail clip?].
        bot = z1 if z1 <= z2 else z2
        if bot > za0 and y2 - y1 > eps:
            maxz = za0 if za0 >= wzb[0] else wzb[0]
            prev_yb = wyb[0]
            gaps = 0
            for j in range(1, win):
                if prev_yb < wya[j]:
                    gaps += 1
                prev_yb = wyb[j]
                if wza[j] > maxz:
                    maxz = wza[j]
                if wzb[j] > maxz:
                    maxz = wzb[j]
            if bot - maxz > eps + 1e-12 * (abs(maxz) + abs(bot) + 1.0):
                ya0 = wya[0]
                yb_l = wyb[win - 1]
                vis_ops = win + gaps + (y1 < ya0) + (y2 > yb_l)
                vis = VisibilityResult([VisiblePart(y1, y2)], [], vis_ops)
                merge_ops = win + gaps + (ya0 != y1) + (yb_l != y2)
                oya = [y1]
                oza = [z1]
                oyb = [y2]
                ozb = [z2]
                osrc = [seg.source]
                if ya0 < y1:
                    oya.insert(0, ya0)
                    oza.insert(0, za0)
                    oyb.insert(0, y1)
                    ozb.insert(0, _line_z(ya0, za0, wyb[0], wzb[0], y1))
                    osrc.insert(0, int(profile.source[lo]))
                if yb_l > y2:
                    oya.append(y2)
                    oza.append(
                        _line_z(wya[win - 1], wza[win - 1], yb_l, wzb[win - 1], y2)
                    )
                    oyb.append(yb_l)
                    ozb.append(wzb[win - 1])
                    osrc.append(int(profile.source[hi - 1]))
                new = profile.splice(lo, hi, oya, oza, oyb, ozb, osrc)
                return FlatInsertResult(new, vis, vis_ops + merge_ops)

    wsrc = profile.source[lo:hi].tolist()
    if min(wsrc) < 0:
        return None
    if _fi.ARMED or _guard.GUARDED_CHECK_ALL:
        res = _checked_fused_scalar(
            fused, wya, wza, wyb, wzb, wsrc, y1, z1, y2, z2, seg.source, eps
        )
    else:
        res = fused.fused_insert_window(
            wya, wza, wyb, wzb, wsrc, y1, z1, y2, z2, seg.source, eps
        )
    if res.merged is None:  # fully hidden: no splice, profile shared
        return FlatInsertResult(profile, res.visibility, res.visibility.ops)
    oya, oza, oyb, ozb, osrc = res.merged
    new = profile.splice(lo, hi, oya, oza, oyb, ozb, osrc)
    return FlatInsertResult(
        new, res.visibility, res.visibility.ops + res.merge_ops
    )


def _insert_segment_flat_impl(
    profile: PackedProfile,
    seg: ImageSegment,
    eps: float,
    config=None,
) -> FlatInsertResult:
    """The two insert paths behind :func:`insert_segment_flat`: the
    compiled core when built, else the numpy fused path; synthetic
    (negative-source) windows take the reference path.

    ``config`` (:class:`repro.config.HsrConfig`) overrides
    :data:`USE_COMPILED_INSERT` and the fused cutoff for this call;
    ``None`` reads the live globals.
    """
    if seg.is_vertical:
        vis = _visible_vertical_flat(profile, seg, eps)
        return FlatInsertResult(profile, vis, vis.ops)
    if seg.source < 0:
        return _insert_reference(profile, seg, eps)

    if config is None:
        compiled_on = USE_COMPILED_INSERT
        fused_cutoff = None
    else:
        compiled_on = config.compiled_insert()
        fused_cutoff = config.fused_cutoff()

    if compiled_on:
        # The compiled core does its own locate — dispatch before the
        # Python-side binary search so the hot path pays exactly one.
        res = _insert_compiled(profile, seg, eps)
        if res is not None:
            return res
        # Declined (synthetic window / quarantine / recorded fault):
        # the numpy path recomputes from unmutated state.

    lo, hi = profile.pieces_overlapping(seg.y1, seg.y2)
    res = _insert_fused(profile, seg, lo, hi, hi - lo, eps, fused_cutoff)
    if res is not None:
        return res
    return _insert_reference(profile, seg, eps)


def _insert_compiled(
    profile, seg: ImageSegment, eps: float
) -> "FlatInsertResult | None":
    """Guard site ``compiled_insert``: the one-call C hot path.

    Returns the completed insert (profile mutated in place, identity
    preserved — the packed splice contract), or ``None`` when the core
    declines (synthetic sources in the window), the site is
    quarantined, or a fault was recorded — in every ``None`` case
    nothing was committed, so the caller's numpy path recomputes the
    identical insert from unmutated state.

    Under an armed injection plan (or ``REPRO_GUARD_CHECK_ALL``) the
    call splits into compute + Python-side commit
    (:func:`_checked_compiled`) so the merged window crosses the guard
    checks — and the ``packed_splice`` site — exactly like every other
    kernel edge.
    """
    if not _guard.GUARDS_ENABLED:
        res = _ccore.insert_packed(profile, seg, eps)
        if res is None:
            return None
        vis, ops = res
        return FlatInsertResult(profile, vis, ops)
    if _guard.ANY_QUARANTINED and _guard.is_quarantined("compiled_insert"):
        return None
    if _fi.ARMED and _fi.armed_site() != "compiled_insert":
        # A plan targets a numpy-path site (fused_insert,
        # packed_splice, ...): stand aside so the armed boundary
        # actually runs — injection semantics stay identical to a
        # no-compiler install.
        return None
    try:
        if _fi.ARMED or _guard.GUARDED_CHECK_ALL:
            return _checked_compiled(profile, seg, eps)
        res = _ccore.insert_packed(profile, seg, eps)
        if res is None:
            return None
        vis, ops = res
        return FlatInsertResult(profile, vis, ops)
    except KernelFault:
        raise
    except Exception as exc:
        _guard.handle_fault(
            getattr(exc, "site", None) or "compiled_insert", exc
        )
        return None


def _checked_compiled(
    profile, seg: ImageSegment, eps: float
) -> "FlatInsertResult | None":
    """Compiled core under an armed injection plan (or
    ``REPRO_GUARD_CHECK_ALL``): trip the ``compiled_insert`` site, run
    the sweep with ``commit=0`` (no mutation), corrupt the merged
    lists if a plan targets them, validate visibility and merged
    window, then commit through :meth:`PackedProfile.splice` — which
    keeps the ``packed_splice`` guard site live under the compiled
    path."""
    if _fi.ARMED:
        _fi.trip("compiled_insert")
    res = _ccore.compute(profile, seg, eps)
    if res is None:
        return None
    lo, hi, vis, merged, ops = res
    if _fi.ARMED and merged is not None:
        merged = _fi.corrupt_merged_lists("compiled_insert", merged)
    _guard.check_visibility("compiled_insert", vis, seg.y1, seg.y2, eps)
    if merged is None:  # hidden: no splice, profile shared
        return FlatInsertResult(profile, vis, ops)
    oya, oza, oyb, ozb, osrc = merged
    _guard.check_merged_lists("compiled_insert", oya, oza, oyb, ozb)
    new = profile.splice(lo, hi, oya, oza, oyb, ozb, osrc)
    return FlatInsertResult(new, vis, ops)


def _checked_fused_scalar(
    fused, wya, wza, wyb, wzb, wsrc, y1, z1, y2, z2, src, eps
):
    """Scalar fused kernel call under an armed injection plan (or
    ``REPRO_GUARD_CHECK_ALL``): trip the ``fused_insert`` site, corrupt
    the freshly-built merged window if a plan targets it, and validate
    the output *before* the caller commits it with a splice."""
    if _fi.ARMED:
        _fi.trip("fused_insert")
    res = fused.fused_insert_window(
        wya, wza, wyb, wzb, wsrc, y1, z1, y2, z2, src, eps
    )
    if _fi.ARMED and res.merged is not None:
        merged = _fi.corrupt_merged_lists("fused_insert", res.merged)
        if merged is not res.merged:
            res = res._replace(merged=merged)
    _guard.check_visibility("fused_insert", res.visibility, y1, y2, eps)
    if res.merged is not None:
        oya, oza, oyb, ozb, _osrc = res.merged
        _guard.check_merged_lists("fused_insert", oya, oza, oyb, ozb)
    return res


def _insert_reference(
    profile: PackedProfile, seg: ImageSegment, eps: float
) -> FlatInsertResult:
    """Whole-insert scalar reference path — the guard's retry target
    and the route for synthetic (negative-source) windows.

    Two separate passes with no fused kernel: the scalar visibility
    scan, then the scalar window merge (or, when a synthetic source is
    involved, :func:`~repro.envelope.merge.merge_envelopes` on the
    materialised window, which implements the builder's slope rule),
    then the splice.  Bit-exact with the fused paths in visible parts,
    merged pieces *and* ``ops`` by the parity contract, so a degraded
    insert is indistinguishable from a healthy one downstream.
    """
    if seg.is_vertical:
        vis = _visible_vertical_flat(profile, seg, eps)
        return FlatInsertResult(profile, vis, vis.ops)

    y1, z1, y2, z2 = seg.y1, seg.z1, seg.y2, seg.z2
    lo, hi = profile.pieces_overlapping(y1, y2)
    wlists = profile.window_lists(lo, hi)
    vis = _scan_window(y1, z1, y2, z2, *wlists, eps)
    if not vis.parts:  # fully hidden: no splice, profile shared
        return FlatInsertResult(profile, vis, vis.ops)

    wsrc = profile.source[lo:hi].tolist()
    if seg.source < 0 or min(wsrc, default=0) < 0:
        mres = merge_envelopes(
            profile.window(lo, hi).to_envelope(),
            Envelope.from_segment(seg),
            eps=eps,
            record_crossings=False,
        )
        mat = _tuples_to_matrix(mres.envelope.pieces)
        new = profile.splice(
            lo,
            hi,
            mat[:, 0],
            mat[:, 1],
            mat[:, 2],
            mat[:, 3],
            mat[:, 4].astype(_I),
        )
        return FlatInsertResult(new, vis, vis.ops + mres.ops)

    oya, oza, oyb, ozb, osrc, mops = _merge_window_with_segment(
        *wlists, wsrc, y1, z1, y2, z2, seg.source, eps
    )
    new = profile.splice(lo, hi, oya, oza, oyb, ozb, osrc)
    return FlatInsertResult(new, vis, vis.ops + mops)


#: Insert count between periodic whole-profile validation ticks (site
#: ``profile``; detection-only — see :func:`repro.reliability.guard.
#: check_profile`), and the most inserts one compiled call of
#: :func:`insert_run` makes.
_TICK_EVERY = 256
_tick = 0


def insert_segment_flat(
    profile: PackedProfile,
    seg: ImageSegment,
    *,
    eps: float = EPS,
    config=None,
) -> FlatInsertResult:
    """Insert ``seg`` into ``profile``; see the module docstring.

    Exact analogue of :func:`repro.envelope.splice.insert_segment`:
    the same results and ``ops`` come out, but the profile never
    leaves its array representation.

    Runs under the guarded-dispatch envelope (site ``fused_insert``
    plus the nested ``compiled_insert`` / ``packed_splice`` sites): a
    kernel fault on either insert path is recorded and the whole
    insert retried on the scalar reference path, bit-exact.
    ``REPRO_GUARDS=0`` strips the envelope.
    """
    if not _guard.GUARDS_ENABLED:
        return _insert_segment_flat_impl(profile, seg, eps, config)

    global _tick
    _tick += 1
    tick = not _tick % _TICK_EVERY
    if _fi.ARMED and _fi.poison_profile("profile", profile):
        tick = True  # corruption committed: the tick must catch it now
    if tick:
        _guard.check_profile(profile)

    if _guard.ANY_QUARANTINED and _guard.is_quarantined("fused_insert"):
        with _fi.suppressed():
            return _insert_reference(profile, seg, eps)
    try:
        return _insert_segment_flat_impl(profile, seg, eps, config)
    except KernelFault:
        raise
    except Exception as exc:
        _guard.handle_fault(getattr(exc, "site", None) or "fused_insert", exc)
        with _fi.suppressed():
            return _insert_reference(profile, seg, eps)


# ---------------------------------------------------------------------------
# Whole runs


class InsertRun:
    """The outcome of :func:`insert_run`: the final ``profile``, the
    summed ``ops``, the largest profile size seen (``max_profile``), and
    the clipped visible parts as CSR rows — insert ``i`` owns rows
    ``offsets[i]:offsets[i + 1]`` of the ``edge, ya, za, yb, zb`` lanes,
    each row one :class:`~repro.hsr.result.VisibleSegment`."""

    __slots__ = (
        "profile", "ops", "max_profile", "offsets", "edge", "ya", "za", "yb", "zb"
    )

    def __init__(self, profile: PackedProfile):
        self.profile = profile
        self.ops = 0
        self.max_profile = 0
        self.offsets = [0]
        self.edge: list[int] = []
        self.ya: list[float] = []
        self.za: list[float] = []
        self.yb: list[float] = []
        self.zb: list[float] = []

    def add(self, seg: ImageSegment, res: FlatInsertResult) -> None:
        """Account one insert answered on a Python path."""
        self.profile = res.profile
        self.ops += res.ops
        if res.profile.size > self.max_profile:
            self.max_profile = res.profile.size
        for part in res.visibility.parts:
            ya, za, yb, zb = seg.visible_piece(part.ya, part.yb)
            self.edge.append(seg.source)
            self.ya.append(ya)
            self.za.append(za)
            self.yb.append(yb)
            self.zb.append(zb)
        self.offsets.append(len(self.ya))


def segment_lanes(
    segments: Sequence[ImageSegment],
) -> tuple[array, array, array, array, array]:
    """``(y1, z1, y2, z2, source)`` lanes of a segment list, the input
    of :func:`insert_run`."""
    return (
        array("d", [s.y1 for s in segments]),
        array("d", [s.z1 for s in segments]),
        array("d", [s.y2 for s in segments]),
        array("d", [s.z2 for s in segments]),
        array("q", [s.source for s in segments]),
    )


def _lane_segment(lanes, i: int) -> ImageSegment:
    y1, z1, y2, z2, src = lanes
    return ImageSegment(
        float(y1[i]), float(z1[i]), float(y2[i]), float(z2[i]), int(src[i])
    )


def _run_compiled(config) -> bool:
    """Whether :func:`insert_run` may hand chunks to the compiled core:
    it is built and the resolved compiled-insert toggle is on, no fault
    plan is armed, ``REPRO_GUARD_CHECK_ALL`` is off, and neither insert
    guard site is quarantined.  Otherwise every insert goes through
    :func:`insert_segment_flat`, so injection and checks see the same
    per-insert boundaries as before."""
    if not _ccore.HAVE_CCORE or _fi.ARMED or _guard.GUARDED_CHECK_ALL:
        return False
    if not (USE_COMPILED_INSERT if config is None else config.compiled_insert()):
        return False
    return not _guard.ANY_QUARANTINED or not (
        _guard.is_quarantined("compiled_insert")
        or _guard.is_quarantined("fused_insert")
    )


def insert_run(lanes, *, eps: float = EPS, config=None) -> InsertRun:
    """Insert every segment of ``lanes`` (``y1, z1, y2, z2, source``
    buffers in insertion order, float64 and int64 — see
    :meth:`repro.terrain.model.Terrain.image_lanes` and
    :func:`segment_lanes`) into a fresh profile.

    The result is exactly that of calling :func:`insert_segment_flat`
    per segment and clipping each visible part with
    :meth:`ImageSegment.visible_piece`.  With the compiled core on
    (see :func:`_run_compiled`) the inserts run in chunks of at most
    ``_TICK_EVERY``, one C call each, with the profile check between
    chunks; the core comes back early only for a reallocating splice
    (committed here, through :meth:`PackedProfile.splice`), an insert
    it declines (run by :func:`insert_segment_flat`), or a failed
    post-condition (recorded at site ``compiled_insert`` and run on the
    reference path).
    """
    n = len(lanes[4])
    run = InsertRun(PackedProfile.empty())
    i = 0
    while i < n:
        if not _run_compiled(config):
            for j in range(i, n):
                seg = _lane_segment(lanes, j)
                run.add(
                    seg,
                    insert_segment_flat(run.profile, seg, eps=eps, config=config),
                )
            break
        if i and not i % _TICK_EVERY and _guard.GUARDS_ENABLED:
            _guard.check_profile(run.profile)
        stop = min(n, (i // _TICK_EVERY + 1) * _TICK_EVERY)
        st, i = _ccore.insert_run(run.profile, lanes, i, stop, eps, run)
        if st == _ccore.ST_FALLBACK:
            seg = _lane_segment(lanes, i)
            run.add(
                seg, insert_segment_flat(run.profile, seg, eps=eps, config=config)
            )
            i += 1
        elif st == _ccore.ST_FAULT:
            exc = _ccore.CCoreFault("compiled insert post-condition failed")
            if not _guard.GUARDS_ENABLED:
                raise exc
            _guard.handle_fault("compiled_insert", exc)
            seg = _lane_segment(lanes, i)
            with _fi.suppressed():
                run.add(seg, _insert_reference(run.profile, seg, eps))
            i += 1
    return run
