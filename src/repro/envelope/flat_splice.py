"""Flat-native incremental profile: sequential inserts without tuple copies.

The tuple-based :func:`repro.envelope.splice.insert_segment` rebuilds
the whole profile on every edge (``env.pieces[:lo] + merged +
env.pieces[hi:]`` plus a fresh :class:`~repro.envelope.chain.Envelope`
with its ``_starts`` cache), so each insert costs Θ(m) in Python-object
copying even when the overlapped window is a single piece — the ``ops``
counter reports output-sensitive work while the wall clock is
quadratic in the profile size.

:func:`insert_run` is the run loop behind ``SequentialHSR``.  With
the optional compiled core on, the whole run is one C call
(:func:`repro.envelope._ccore.insert_run`: per insert the locate, the
visibility scan with clipping of the visible parts into rows, and —
when some part is visible — the window merge and an in-place splice;
the scan and the merge are the kernels of the compiled phase calls),
and the live profile stays in the call's context.  A run the core
declines or faults on — and every run without the core — takes
:func:`_insert_reference` per insert, with the live profile in one
:class:`~repro.envelope.packed.PackedProfile` buffer: the overlapped
window becomes an :class:`Envelope`,
:func:`~repro.envelope.visibility.visible_parts` and
:func:`~repro.envelope.merge.merge_envelopes` answer it, and the
merged window is spliced back in place.

Conversion to/from the scalar :class:`Envelope` happens only at run
boundaries and around the reference's window.  Parity contract: for
every insert sequence the profile pieces, per-edge
:class:`VisibilityResult` (parts, crossings, ops) and total ``ops`` are
identical to the ``engine="python"`` reference path —
``tests/test_envelope_flat_splice.py``, ``tests/test_envelope_ccore.py``
and ``tests/test_insert_run.py`` enforce this on adversarial inputs.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple, Sequence

import numpy as np

from repro.envelope import _ccore
from repro.envelope.chain import Envelope
from repro.envelope.merge import merge_envelopes
from repro.envelope.packed import PackedProfile
from repro.envelope.visibility import VisibilityResult, VisiblePart, visible_parts
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


def _insert_reference(
    profile: PackedProfile, seg: ImageSegment, eps: float
) -> FlatInsertResult:
    """The reference insert on a packed profile — the path of every
    insert the compiled core does not answer.

    The overlapped window becomes an :class:`Envelope` once; then
    :func:`~repro.envelope.visibility.visible_parts` answers the
    visibility and :func:`~repro.envelope.merge.merge_envelopes` (the
    window wins ties, builder coalescing including the synthetic slope
    rule) the merged window, which is spliced back in place.
    Bit-exact with the compiled core in visible parts, merged pieces
    *and* ``ops`` by the parity contract, so a run the core hands back
    is indistinguishable from one it answered.
    """
    if seg.is_vertical:
        vis = _visible_vertical_flat(profile, seg, eps)
        return FlatInsertResult(profile, vis, vis.ops)

    lo, hi = profile.pieces_overlapping(seg.y1, seg.y2)
    window = profile.window_envelope(lo, hi)
    vis = visible_parts(seg, window, eps=eps)
    if not vis.parts:  # fully hidden: no splice, profile shared
        return FlatInsertResult(profile, vis, vis.ops)
    mres = merge_envelopes(
        window, Envelope.from_segment(seg), eps=eps, record_crossings=False
    )
    # Field columns of the merged window: exact Python floats and ints.
    new = profile.splice(lo, hi, *zip(*mres.envelope.pieces))
    return FlatInsertResult(new, vis, vis.ops + mres.ops)


def insert_segment_flat(
    profile: PackedProfile, seg: ImageSegment, *, eps: float = EPS
) -> FlatInsertResult:
    """Insert ``seg`` into ``profile`` on the reference path (see
    :func:`_insert_reference`).

    Exact analogue of :func:`repro.envelope.splice.insert_segment`:
    the same results and ``ops`` come out, but the live profile stays
    one packed buffer, spliced in place.
    """
    return _insert_reference(profile, seg, eps)


# ---------------------------------------------------------------------------
# Whole runs

#: The insert count between the whole-profile checks of a run on the
#: reference path (site ``profile``; detection-only — see
#: :func:`repro.reliability.guard.check_profile`).
_CHECK_EVERY = 256


class InsertRun:
    """The outcome of :func:`insert_run` over ``n`` inserts: the final
    ``profile``, the summed ``ops``, the largest profile size seen
    (``max_profile``), and the clipped visible parts as one row block.
    ``rows`` is a ``(5, m)`` float64 array in the
    :meth:`repro.envelope._ccore.Core.take` layout — ``ya, za, yb, zb``,
    then the edge as int64 bits in row 4 — whose columns
    ``offsets[i]:offsets[i + 1]`` (an int64 array of ``n + 1`` slots)
    are insert ``i``'s, each one :class:`~repro.hsr.result.VisibleSegment`.
    """

    __slots__ = ("profile", "ops", "max_profile", "offsets", "rows")

    def __init__(self, n: int):
        self.profile = None
        self.ops = 0
        self.max_profile = 0
        self.offsets = np.zeros(n + 1, np.int64)
        self.rows = None


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


def insert_run(lanes, *, eps: float = EPS, config=None) -> InsertRun:
    """Insert every segment of ``lanes`` (``y1, z1, y2, z2, source``
    buffers in insertion order, float64 and int64 — see
    :meth:`repro.terrain.model.Terrain.image_lanes` and
    :func:`segment_lanes`) into a fresh profile.

    The result is exactly that of calling :func:`insert_segment_flat`
    per segment and clipping each visible part with
    :meth:`ImageSegment.visible_piece`.  With the compiled core on (see
    :func:`repro.envelope._ccore.compiled_enabled`) the run is one C
    call under guard site ``compiled_insert``, which checks every
    window it commits against its neighbours; the final profile then
    gets the whole-profile check (site ``profile``) once.  A fault of
    that call (a failed post-condition, scratch OOM, a tripped
    ``compiled_insert`` plan) is recorded, and the whole run reruns on
    the reference path from a fresh profile; a run the core declines (a
    synthetic source, a part it cannot clip) reruns the same way, with
    no incident.  On the reference path every insert takes
    :func:`_insert_reference`, with the whole-profile check every
    ``_CHECK_EVERY`` inserts; a ``profile`` plan poisons the live
    profile before an insert, and the check then runs at once.
    """
    if _ccore.compiled_enabled(config, "compiled_insert"):
        with _ccore.borrowed() as core:
            core.lane_ptrs(lanes)  # mismatched lanes raise here, not as a fault
            run = _guard.guarded_call(
                "compiled_insert",
                lambda: _insert_compiled(core, lanes, eps),
                lambda: None,
            )
        if run is not None:
            if _guard.GUARDS_ENABLED:
                _guard.check_profile(run.profile)
            return run
    return _insert_reference_run(lanes, eps)


def _insert_compiled(core, lanes, eps: float):
    """The whole run in one compiled call on ``core``; ``None`` when
    the core declines an insert."""
    run = InsertRun(len(lanes[4]))
    totals = _ccore.insert_run(core, lanes, eps, run.offsets)
    if totals is None:
        return None
    run.ops, run.max_profile = totals
    run.rows = core.take(_ccore.L_ROWS)
    live = core.take(_ccore.L_LIVE)
    run.profile = PackedProfile(live, live.view(np.int64), 0, live.shape[1])
    return run


def _insert_reference_run(lanes, eps: float) -> InsertRun:
    """The run of :func:`insert_run` on the reference path."""
    run = InsertRun(len(lanes[4]))
    profile = PackedProfile.empty()
    offsets = run.offsets
    rows: list[tuple] = []
    checked = _guard.GUARDS_ENABLED
    for i, seg in enumerate(map(ImageSegment, *(lane.tolist() for lane in lanes))):
        if checked:
            if i and not i % _CHECK_EVERY:
                _guard.check_profile(profile)
            if _fi.ARMED and _fi.poison_profile("profile", profile):
                _guard.check_profile(profile)
        res = _insert_reference(profile, seg, eps)
        profile = res.profile
        run.ops += res.ops
        if profile.size > run.max_profile:
            run.max_profile = profile.size
        for part in res.visibility.parts:
            rows.append((seg.source, *seg.visible_piece(part.ya, part.yb)))
        offsets[i + 1] = len(rows)
    run.rows = np.empty((5, len(rows)))
    if rows:
        edge, *coords = zip(*rows)
        run.rows[:4] = coords
        run.rows[4].view(np.int64)[:] = edge
    run.profile = profile
    return run
