"""Divide-and-conquer upper-envelope construction (Lemma 3.1).

"The profile of a set of m segments can be constructed in O(log^2 m)
time using O(m·alpha(m)/log m) processors" — by splitting the set in
two halves, recursing on both halves *in parallel*, and merging the two
sub-profiles.  The merge of two envelopes of total size s has depth
O(log s) on a CREW PRAM (concurrent binary searches); the recursion
adds O(log m) levels, giving O(log^2 m) depth.

The implementation executes sequentially but charges the tracker with
PRAM costs: at each recursion level, the two recursive calls are
branches of a parallel region, and each merge charges work equal to
its elementary-interval count with depth ``log2`` of that count.
Experiment E9 verifies the measured depth is Θ(log^2 m).

Two paths compute the build.  On the numpy engine with the compiled
core on, the whole recursion is one compiled call
(:func:`repro.envelope._ccore.envelope_build`, the same merge kernel
as Phase 1) that walks it depth first; the crossings come from the
kernel's record path and the tracker replays the recursion's exact
charge sequence from the merges' ``ops``.  Otherwise — no core,
``use_compiled_insert=False``, ``engine="python"``, or a faulting
call — the reference recursion runs as written.  Both give the same
envelope, crossings (in the recursion's post-order), ``ops``, work and
depth.

:func:`build_envelope_block` runs the same dispatch for a caller that
wants only the envelope, as a ``(5, n)`` block: the compiled call's
root profile, with no :class:`~repro.envelope.merge.Crossing` built
and no tracker.  The viewshed service opens its sessions with it.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

from repro.envelope.chain import Envelope
from repro.envelope.merge import Crossing, MergeResult, merge_envelopes
from repro.errors import EnvelopeError
from repro.geometry.primitives import EPS
from repro.geometry.segments import ImageSegment
from repro.pram.tracker import PramTracker

__all__ = ["build_envelope", "build_envelope_block", "build_envelope_sequential"]


def _merge_depth(ops: int) -> float:
    """PRAM depth of a merge of ``ops`` elementary intervals."""
    return max(1.0, math.log2(ops + 1))


def build_envelope(
    segments: Optional[Sequence[ImageSegment]],
    *,
    tracker: Optional[PramTracker] = None,
    eps: Optional[float] = None,
    engine: Optional[str] = None,
    config: Optional["HsrConfig"] = None,
    lanes=None,
) -> MergeResult:
    """Upper envelope of ``segments`` by parallel divide and conquer.

    Vertical projections are skipped (they have measure-zero image;
    see :meth:`Envelope.from_segment`).  Returns the envelope together
    with every crossing discovered on the way up and the total merge
    work performed.  ``config`` (:class:`repro.config.HsrConfig`) is
    the front door for engine/eps/core selection; the ``engine=`` /
    ``eps=`` keywords remain as shorthand and override the config.

    The segments' ``(y1, z1, y2, z2, source)`` numpy ``lanes`` may be
    given instead (``segments`` may then be ``None``), as
    :meth:`repro.terrain.model.Terrain.image_lanes` returns them; the
    reference rebuilds :class:`ImageSegment` objects from them only
    when it runs.

    The compiled build runs under guard site ``build_sweep``, tripped
    once per build: a fault reruns the whole build on the reference
    (strict mode raises :class:`~repro.errors.KernelFault`), and the
    tracker is charged only after the compiled call, so a fault never
    charges twice.
    """
    from repro.config import HsrConfig
    from repro.reliability import guard as _guard

    cfg = HsrConfig.resolve(config, engine=engine, eps=eps)
    eps = cfg.eps

    def reference():
        segs = segments if segments is not None else _lane_segments(lanes)
        return _build_envelope_python(segs, tracker=tracker, eps=eps)

    if not _compiles(cfg):
        return reference()
    if lanes is None:
        import numpy as np

        from repro.envelope.flat_splice import segment_lanes

        lanes = tuple(map(np.asarray, segment_lanes(segments)))
    return _guard.guarded_call(
        "build_sweep", lambda: _build_compiled(lanes, tracker, eps), reference
    )


def build_envelope_block(lanes, *, config: Optional["HsrConfig"] = None):
    """The envelope of :func:`build_envelope` over the image ``lanes``
    as a ``(5, n)`` block (the
    :func:`~repro.envelope.flat_visibility.envelope_block` layout),
    without the crossings.

    The same dispatch as :func:`build_envelope`: one compiled call
    under guard site ``build_sweep`` on the numpy engine with the core
    on, whose root profile is the block; otherwise, or on a fault, the
    reference recursion, packed.  Both give the same block bit for
    bit.  The viewshed service opens its sessions with it.
    """
    from repro.config import HsrConfig
    from repro.envelope.flat_visibility import envelope_block
    from repro.reliability import guard as _guard

    cfg = HsrConfig.resolve(config)

    def reference():
        segs = _lane_segments(lanes)
        env = _build_envelope_python(segs, tracker=None, eps=cfg.eps).envelope
        return envelope_block(env)

    if not _compiles(cfg):
        return reference()
    return _guard.guarded_call(
        "build_sweep", lambda: _build_core(lanes, cfg.eps)[0], reference
    )


def _compiles(cfg) -> bool:
    """Whether a build under ``cfg`` tries the compiled call."""
    from repro.envelope import _ccore

    return cfg.resolved_engine() == "numpy" and _ccore.compiled_enabled(
        cfg, "build_sweep"
    )


def _lane_segments(lanes) -> list[ImageSegment]:
    rows = zip(*(lane.tolist() for lane in lanes))
    return [ImageSegment(*row) for row in rows]


def _build_envelope_python(
    segments: Sequence[ImageSegment],
    *,
    tracker: Optional[PramTracker],
    eps: float,
) -> MergeResult:
    """The reference recursion — and the ``build_sweep`` retry target."""
    segs = [s for s in segments if not s.is_vertical]
    crossings: list[Crossing] = []
    total_ops = 0

    def recurse(lo: int, hi: int) -> Envelope:
        nonlocal total_ops
        if hi - lo == 0:
            return Envelope.empty()
        if hi - lo == 1:
            if tracker is not None:
                tracker.charge(1)
            total_ops += 1
            return Envelope.from_segment(segs[lo])
        mid = (lo + hi) // 2
        if tracker is not None:
            with tracker.parallel() as par:
                with par.branch():
                    left = recurse(lo, mid)
                with par.branch():
                    right = recurse(mid, hi)
        else:
            left = recurse(lo, mid)
            right = recurse(mid, hi)
        res = merge_envelopes(left, right, eps=eps)
        if tracker is not None:
            tracker.charge(res.ops, _merge_depth(res.ops))
        total_ops += res.ops
        crossings.extend(res.crossings)
        return res.envelope

    env = recurse(0, len(segs))
    return MergeResult(env, crossings, total_ops)


def _build_core(lanes, eps: float):
    """The recursion in one compiled call: ``(blk, x, ops, m)``, the
    root profile as a ``(5, n)`` block, the crossings as a ``(4, k)``
    ``y, z | front, back`` block, the merges' ``ops`` and the number of
    segments built.

    Verticals are dropped first, as the reference does, so ``m`` and
    the recursion shape match it.  The call walks the recursion depth
    first, so its crossings and its merges' ``ops`` come in the
    reference's post-order.
    """
    import numpy as np

    from repro.envelope import _ccore

    keep = lanes[0] != lanes[2]
    if not keep.all():
        lanes = tuple(lane[keep] for lane in lanes)
    m = len(lanes[4])
    if m == 0:
        return np.empty((5, 0)), np.empty((4, 0)), np.empty(0, np.int64), 0
    with _ccore.borrowed() as core:
        ops = _ccore.envelope_build(core, lanes, eps)
        blk = core.take(_ccore.L_PROF)
        x = core.take(_ccore.L_XING)
    return blk, x, ops, m


def _build_compiled(
    lanes, tracker: Optional[PramTracker], eps: float
) -> MergeResult:
    """:func:`_build_core` as a :class:`MergeResult`: the crossings
    converted to :class:`Crossing` tuples, and the tracker replaying
    the recursion's charges from the merges' ``ops`` in sequence."""
    import numpy as np

    from repro.hsr.pct import block_view

    blk, x, ops, m = _build_core(lanes, eps)
    env = block_view(blk, 0, blk.shape[1]).to_envelope()
    y, z = x[:2].tolist()
    front, back = x[2:].view(np.int64).tolist()
    crossings = list(map(Crossing._make, zip(y, z, front, back)))
    if tracker is not None and m:
        merge_ops = iter(ops.tolist())

        def replay(lo: int, hi: int) -> None:
            if hi - lo == 1:
                tracker.charge(1)
                return
            mid = (lo + hi) // 2
            with tracker.parallel() as par:
                with par.branch():
                    replay(lo, mid)
                with par.branch():
                    replay(mid, hi)
            k = next(merge_ops)
            tracker.charge(k, _merge_depth(k))

        replay(0, m)
    return MergeResult(env, crossings, m + int(ops.sum()))


def build_envelope_sequential(
    segments: Sequence[ImageSegment],
    *,
    eps: float = EPS,
    max_segments: Optional[int] = 4096,
    on_exceed: str = "warn",
) -> MergeResult:
    """Incremental (insert-one-at-a-time) envelope construction.

    Used as a cross-check for :func:`build_envelope` in tests: the
    divide-and-conquer and the incremental construction must agree
    point-wise.  Worst-case Θ(m^2) work, so inputs larger than
    ``max_segments`` trigger the ``on_exceed`` policy: ``"warn"``
    (default) emits a :class:`RuntimeWarning`, ``"raise"`` raises
    :class:`EnvelopeError`, ``"ignore"`` proceeds silently.  Pass
    ``max_segments=None`` to disable the guard.
    """
    if on_exceed not in ("warn", "raise", "ignore"):
        raise EnvelopeError(
            f"unknown on_exceed policy {on_exceed!r};"
            " choose from ('warn', 'raise', 'ignore')"
        )
    if max_segments is not None and len(segments) > max_segments:
        message = (
            f"build_envelope_sequential on {len(segments)} segments:"
            f" worst-case Θ(m²) work above the"
            f" {max_segments}-segment threshold — use build_envelope"
            " (divide and conquer) for large inputs, or, when the"
            " goal is bulk segment-vs-profile queries, the batched"
            " visibility call"
            " (repro.envelope.flat_visibility.batch_visible_parts)"
        )
        if on_exceed == "raise":
            raise EnvelopeError(message)
        if on_exceed == "warn":
            warnings.warn(message, RuntimeWarning, stacklevel=2)
    acc = Envelope.empty()
    crossings: list[Crossing] = []
    ops = 0
    for seg in segments:
        if seg.is_vertical:
            continue
        res = merge_envelopes(acc, Envelope.from_segment(seg), eps=eps)
        acc = res.envelope
        crossings.extend(res.crossings)
        ops += res.ops
    return MergeResult(acc, crossings, ops)
