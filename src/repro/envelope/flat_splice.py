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
(:func:`repro.envelope._ccore.insert_run`: locate, the visibility
scan with clipping of the visible parts into CSR rows, and — when some
part is visible — the window merge and an in-place splice; the scan and
the merge are the kernels of the compiled PCT layers).  Every insert the core hands back — and every
insert of a run without the core — takes :func:`_insert_reference`:
the overlapped window becomes an :class:`Envelope`,
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
    *and* ``ops`` by the parity contract, so an insert the core hands
    back is indistinguishable from one it answered.
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

#: The most inserts one compiled call of :func:`insert_run` makes, and
#: the insert count between its whole-profile checks (site
#: ``profile``; detection-only — see :func:`repro.reliability.guard.
#: check_profile`).
_CHUNK = 256


class InsertRun:
    """The outcome of :func:`insert_run` over ``n`` inserts: the final
    ``profile``, the summed ``ops``, the largest profile size seen
    (``max_profile``), and the clipped visible parts as one row block.
    ``rows`` is a ``(5, m)`` float64 array in the
    :meth:`repro.envelope._ccore.Core.take` layout — ``ya, za, yb, zb``,
    then the edge as int64 bits in row 4 — whose columns
    ``offsets[i]:offsets[i + 1]`` (an int64 array of ``n + 1`` slots)
    are insert ``i``'s, each one :class:`~repro.hsr.result.VisibleSegment`.

    ``core`` is the compiled-core handle the run borrows while it
    inserts; the rows of its calls stay there (``core_rows`` of them)
    until an insert answered in Python or the end of the run moves them
    into a block, so C rows and Python rows keep insert order.
    """

    __slots__ = (
        "profile", "ops", "max_profile", "offsets", "rows", "core", "core_rows",
        "_blocks", "_py",
    )

    def __init__(self, profile: PackedProfile, n: int):
        self.profile = profile
        self.ops = 0
        self.max_profile = 0
        self.offsets = np.zeros(n + 1, np.int64)
        self.rows = None
        self.core = None
        self.core_rows = 0
        #: Finished row blocks, in insert order.
        self._blocks: list = []
        #: ``(edge, ya, za, yb, zb)`` rows of Python-answered inserts
        #: not in a block yet.
        self._py: list[tuple] = []

    def add(self, i: int, seg: ImageSegment, res: FlatInsertResult) -> None:
        """Account insert ``i``, answered on a Python path."""
        self._take_core_rows()
        self.profile = res.profile
        self.ops += res.ops
        if res.profile.size > self.max_profile:
            self.max_profile = res.profile.size
        parts = res.visibility.parts
        for part in parts:
            self._py.append((seg.source, *seg.visible_piece(part.ya, part.yb)))
        self.offsets[i + 1] = self.offsets[i] + len(parts)

    def _take_core_rows(self) -> None:
        """Move the rows the handle holds into a block."""
        if self.core_rows:
            self._blocks.append(self.core.take_rows())
            self.core_rows = 0

    def seal(self) -> None:
        """Move the rows of Python-answered inserts into a block, so
        the rows of a compiled call can follow them."""
        if self._py:
            edge, *coords = zip(*self._py)
            blk = np.empty((5, len(edge)))
            blk[:4] = coords
            blk[4].view(np.int64)[:] = edge
            self._blocks.append(blk)
            self._py = []

    def finish(self) -> None:
        """Set ``rows``: the handle's rows and every block, joined."""
        self._take_core_rows()
        self.seal()
        blocks = self._blocks or [np.empty((5, 0))]
        self.rows = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        self._blocks = []


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
    """Whether :func:`insert_run` may hand inserts to the compiled core
    (see :func:`repro.envelope._ccore.compiled_enabled`); otherwise
    every insert takes :func:`_insert_reference`."""
    return _ccore.compiled_enabled(config, "compiled_insert")


def _insert_on_reference(run: InsertRun, lanes, i: int, eps: float) -> None:
    """Answer insert ``i`` of ``lanes`` on the reference path."""
    seg = _lane_segment(lanes, i)
    run.add(i, seg, _insert_reference(run.profile, seg, eps))


def _rerun_on_reference(run: InsertRun, lanes, i: int, eps: float, exc) -> None:
    """Record a fault of the compiled core at site ``compiled_insert``
    (strict mode raises) and answer insert ``i`` on the reference
    path instead."""
    _guard.handle_fault("compiled_insert", exc)
    with _fi.suppressed():
        _insert_on_reference(run, lanes, i, eps)


def insert_run(lanes, *, eps: float = EPS, config=None) -> InsertRun:
    """Insert every segment of ``lanes`` (``y1, z1, y2, z2, source``
    buffers in insertion order, float64 and int64 — see
    :meth:`repro.terrain.model.Terrain.image_lanes` and
    :func:`segment_lanes`) into a fresh profile.

    The result is exactly that of calling :func:`insert_segment_flat`
    per segment and clipping each visible part with
    :meth:`ImageSegment.visible_piece`.  The inserts run in chunks of
    at most ``_CHUNK``, with the whole-profile check (site
    ``profile``) between chunks.  With the compiled core on (see
    :func:`_run_compiled`) a chunk is one C call; the core comes back
    early only for a reallocating splice (committed here, through
    :meth:`PackedProfile.splice`), an insert it declines (run by
    :func:`_insert_reference`), or a failed post-condition (recorded
    at site ``compiled_insert`` and run on the reference path).  Under
    a ``compiled_insert`` fault plan each call covers one insert and
    trips the site first, so the plan counts inserts; a tripped insert
    is recovered the same way.  Without the core every insert takes
    :func:`_insert_reference`; a ``profile`` plan poisons the live
    profile before an insert, and the check then runs at once.
    """
    run = InsertRun(PackedProfile.empty(), len(lanes[4]))
    with _ccore.borrowed() as run.core:
        _insert_chunks(run, lanes, eps, config)
        run.finish()
    run.core = None
    return run


def _insert_chunks(run: InsertRun, lanes, eps: float, config) -> None:
    """The loop of :func:`insert_run` (see there)."""
    n = len(lanes[4])
    i = 0
    while i < n:
        if i and not i % _CHUNK and _guard.GUARDS_ENABLED:
            _guard.check_profile(run.profile)
        stop = min(n, (i // _CHUNK + 1) * _CHUNK)
        if not _run_compiled(config):
            chunk = (lane[i:stop].tolist() for lane in lanes)
            for i, seg in enumerate(map(ImageSegment, *chunk), i):
                if (
                    _fi.ARMED
                    and _guard.GUARDS_ENABLED
                    and _fi.poison_profile("profile", run.profile)
                ):
                    _guard.check_profile(run.profile)
                run.add(i, seg, _insert_reference(run.profile, seg, eps))
            i = stop
            continue
        run.seal()
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
            _insert_on_reference(run, lanes, i, eps)
            i += 1
        elif st == _ccore.ST_FAULT:
            exc = _ccore.CCoreFault("compiled insert post-condition failed")
            if not _guard.GUARDS_ENABLED:
                raise exc
            _rerun_on_reference(run, lanes, i, eps, exc)
            i += 1
