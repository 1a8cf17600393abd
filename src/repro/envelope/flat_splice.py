"""Flat-native incremental profile: sequential inserts without tuple copies.

The tuple-based :func:`repro.envelope.splice.insert_segment` rebuilds
the whole profile on every edge (``env.pieces[:lo] + merged +
env.pieces[hi:]`` plus a fresh :class:`~repro.envelope.chain.Envelope`
with its ``_starts`` cache), so each insert costs Θ(m) in Python-object
copying even when the overlapped window is a single piece — the ``ops``
counter reports output-sensitive work while the wall clock is
quadratic in the profile size.

The live profile stays in one
:class:`~repro.envelope.packed.PackedProfile` buffer across a whole
sequential run.  :func:`insert_run` is the run loop behind
``SequentialHSR``: with the optional compiled core on, it hands chunks
of up to 256 inserts to one C call each
(:func:`repro.envelope._ccore.insert_run`: locate, fused sweep,
in-place splice and clipping of the visible parts into CSR rows).
Otherwise — and for any insert the core hands back — it calls
:func:`insert_segment_flat`, the numpy path: two ``searchsorted``
calls replicating :meth:`Envelope.pieces_overlapping` bit for bit,
then one fused visibility+merge sweep of
:mod:`repro.envelope.flat_fused` over the window — the scalar fused
loop (with scalar hidden/fully-visible fast-path predicates) below
:data:`repro.envelope.engine.FLAT_FUSED_CUTOFF` overlapped pieces, the
vectorized fused kernel on a zero-copy window view (with array
fast-path reductions) at or above it — and an in-place splice of the
merged window.

Windows holding synthetic (negative-source) pieces coalesce on the
builder's sequential slope rule, which neither fused kernel
implements; they — and every guard retry — take
:func:`_insert_reference`: :func:`~repro.envelope.visibility.
visible_parts` and :func:`~repro.envelope.merge.merge_envelopes` on
the window.

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
import repro.envelope.flat_fused as _fused
from repro.envelope import _ccore
from repro.envelope.chain import Envelope
from repro.envelope.flat import _tuples_to_matrix
from repro.envelope.merge import merge_envelopes
from repro.envelope.packed import PackedProfile, _line_z
from repro.envelope.visibility import VisibilityResult, VisiblePart, visible_parts
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
]

_I = np.int64


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
            profile, seg, lo, hi, win, y1, z1, y2, z2, eps
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
    res = _fused.fused_insert_window_flat(
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
            wya, wza, wyb, wzb, wsrc, y1, z1, y2, z2, seg.source, eps
        )
    else:
        res = _fused.fused_insert_window(
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
    fused_cutoff: "int | None" = None,
) -> FlatInsertResult:
    """The numpy fused path behind :func:`insert_segment_flat`;
    synthetic (negative-source) segments and windows take the
    reference path."""
    if seg.is_vertical:
        vis = _visible_vertical_flat(profile, seg, eps)
        return FlatInsertResult(profile, vis, vis.ops)
    if seg.source < 0:
        return _insert_reference(profile, seg, eps)
    lo, hi = profile.pieces_overlapping(seg.y1, seg.y2)
    res = _insert_fused(profile, seg, lo, hi, hi - lo, eps, fused_cutoff)
    if res is not None:
        return res
    return _insert_reference(profile, seg, eps)


def _checked_fused_scalar(
    wya, wza, wyb, wzb, wsrc, y1, z1, y2, z2, src, eps
):
    """Scalar fused kernel call under an armed injection plan (or
    ``REPRO_GUARD_CHECK_ALL``): trip the ``fused_insert`` site, corrupt
    the freshly-built merged window if a plan targets it, and validate
    the output *before* the caller commits it with a splice."""
    if _fi.ARMED:
        _fi.trip("fused_insert")
    res = _fused.fused_insert_window(
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

    The overlapped window becomes an :class:`Envelope` once; then
    :func:`~repro.envelope.visibility.visible_parts` answers the
    visibility and :func:`~repro.envelope.merge.merge_envelopes` (the
    window wins ties, builder coalescing including the synthetic slope
    rule) the merged window, which is spliced back.  Bit-exact with
    the fused paths in visible parts, merged pieces *and* ``ops`` by
    the parity contract, so a degraded insert is indistinguishable
    from a healthy one downstream.
    """
    if seg.is_vertical:
        vis = _visible_vertical_flat(profile, seg, eps)
        return FlatInsertResult(profile, vis, vis.ops)

    lo, hi = profile.pieces_overlapping(seg.y1, seg.y2)
    window = profile.window(lo, hi).to_envelope()
    vis = visible_parts(seg, window, eps=eps)
    if not vis.parts:  # fully hidden: no splice, profile shared
        return FlatInsertResult(profile, vis, vis.ops)
    mres = merge_envelopes(
        window, Envelope.from_segment(seg), eps=eps, record_crossings=False
    )
    mat = _tuples_to_matrix(mres.envelope.pieces)
    new = profile.splice(
        lo, hi, mat[:, 0], mat[:, 1], mat[:, 2], mat[:, 3], mat[:, 4].astype(_I)
    )
    return FlatInsertResult(new, vis, vis.ops + mres.ops)


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

    ``config`` (:class:`repro.config.HsrConfig`) overrides the fused
    cutoff for this call.  Runs under the guarded-dispatch envelope
    (site ``fused_insert`` plus the nested ``packed_splice`` site): a
    kernel fault is recorded and the whole insert retried on the
    scalar reference path, bit-exact.  ``REPRO_GUARDS=0`` strips the
    envelope.
    """
    cutoff = None if config is None else config.fused_cutoff()
    if not _guard.GUARDS_ENABLED:
        return _insert_segment_flat_impl(profile, seg, eps, cutoff)

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
        return _insert_segment_flat_impl(profile, seg, eps, cutoff)
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
    each row one :class:`~repro.hsr.result.VisibleSegment`.  ``core``
    is the compiled-core handle the run borrows while it inserts."""

    __slots__ = (
        "profile", "ops", "max_profile", "offsets", "edge", "ya", "za", "yb", "zb",
        "core",
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
        self.core = None

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


def compiled_enabled(config, site: str, *sites: str) -> bool:
    """Whether a compiled entry point guarded at ``site`` may run: the
    core is built and the resolved compiled toggle is on, no plan is
    armed except a ``raise`` plan at ``site`` (which the caller trips
    per call), ``REPRO_GUARD_CHECK_ALL`` is off, and neither ``site``
    nor any of the ``sites`` its fallback runs through is quarantined.
    Otherwise the caller takes its numpy path, so injection and checks
    see the boundaries of that path."""
    if not _ccore.HAVE_CCORE or _guard.GUARDED_CHECK_ALL:
        return False
    if _fi.ARMED and (_fi.armed_site() != site or _fi.armed_mode() != "raise"):
        return False
    if not (_ccore.COMPILED_DEFAULT if config is None else config.compiled_insert()):
        return False
    return not _guard.ANY_QUARANTINED or not any(
        map(_guard.is_quarantined, (site,) + sites)
    )


def _run_compiled(config) -> bool:
    """Whether :func:`insert_run` may hand inserts to the compiled core
    (see :func:`compiled_enabled`); otherwise every insert goes through
    :func:`insert_segment_flat`."""
    return compiled_enabled(config, "compiled_insert", "fused_insert")


def _rerun_on_reference(run: InsertRun, lanes, i: int, eps: float, exc) -> None:
    """Record a fault of the compiled core at site ``compiled_insert``
    (strict mode raises) and answer insert ``i`` on the reference
    path instead."""
    _guard.handle_fault("compiled_insert", exc)
    seg = _lane_segment(lanes, i)
    with _fi.suppressed():
        run.add(seg, _insert_reference(run.profile, seg, eps))


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
    reference path).  Under a ``compiled_insert`` fault plan each call
    covers one insert and trips the site first, so the plan counts
    inserts; a tripped insert is recovered the same way.
    """
    run = InsertRun(PackedProfile.empty())
    with _ccore.borrowed() as run.core:
        _insert_chunks(run, lanes, eps, config)
    run.core = None
    return run


def _insert_chunks(run: InsertRun, lanes, eps: float, config) -> None:
    """The loop of :func:`insert_run` (see there)."""
    n = len(lanes[4])
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
        if _fi.ARMED and _guard.GUARDS_ENABLED:
            stop = i + 1
            try:
                _fi.trip("compiled_insert")
            except _fi.InjectedFault as exc:
                _rerun_on_reference(run, lanes, i, eps, exc)
                i += 1
                continue
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
            _rerun_on_reference(run, lanes, i, eps, exc)
            i += 1
