"""Envelope kernel selection.

Two interchangeable merge kernels produce bit-identical results (the
property suite in ``tests/test_envelope_flat.py`` enforces it):

``"python"``
    The reference per-interval sweep in :mod:`repro.envelope.merge` —
    pure Python, no dependencies, the semantic ground truth.
``"numpy"``
    The vectorized kernel in :mod:`repro.envelope.flat` — batched
    array sweeps, dramatically faster on large envelopes and on
    level-batched divide-and-conquer builds.

``engine=None`` (or ``"auto"``) resolves to :data:`DEFAULT_ENGINE` —
``"numpy"`` when NumPy is importable, else ``"python"``.  The NumPy
dependency is gated here so the rest of the library never imports it
directly.

:func:`merge_dispatch` additionally applies a size cutoff
(:data:`FLAT_MERGE_CUTOFF`): below it the Python sweep is faster than
the array pipeline's fixed launch overhead, so small merges run on the
reference kernel even under ``engine="numpy"``.  Because the kernels
agree exactly, the dispatch point is unobservable in results — only in
wall clock.  PRAM ``ops`` charges are engine-independent by
construction (elementary-interval counts), so cost accounting is
unaffected by kernel choice.

:func:`visibility_dispatch` applies the same policy to segment-vs-
profile visibility queries: scalar scan below
:data:`FLAT_VISIBILITY_CUTOFF` overlapped pieces, the batched kernel
of :mod:`repro.envelope.flat_visibility` above it (vertical queries
always take the scalar point query — they are O(log m) either way).

The sequential flat insert path does not use the two dispatches: a
run goes through the compiled run loop when the optional core is
built, and :func:`repro.envelope.flat_splice.insert_segment_flat`
answers visibility *and* the merged window in one fused sweep
(:mod:`repro.envelope.flat_fused`), switching from its scalar fused
loop to its vectorized fused kernel at :data:`FLAT_FUSED_CUTOFF`
overlapped pieces.  The two dispatches serve the tuple path
(:func:`repro.envelope.splice.insert_segment` and
:func:`~repro.envelope.splice.splice_merge`) and the PCT build.  All
cutoffs are wall-clock-only dispatch points: every kernel pair agrees
bit for bit, which ``tests/test_envelope_flat_fused.py`` pins exactly
at, one below and one above each boundary.

Both dispatchers are *guard sites* of the reliability layer
(:mod:`repro.reliability.guard`): the numpy branch runs under
post-condition checks and, on a kernel fault in guarded mode, the call
falls through to the python tail below the cutoff — the same bit-exact
code, so a degraded dispatch is observable only in the
:class:`~repro.reliability.guard.ReliabilityReport` (and the wall
clock).  See ``docs/RELIABILITY.md``.

See ``docs/ARCHITECTURE.md`` for the full dispatch map and
``docs/BENCHMARKS.md`` for how the cutoffs were measured.
"""

from __future__ import annotations

from typing import Optional

from repro.envelope.chain import Envelope
from repro.envelope.merge import MergeResult, merge_envelopes
from repro.envelope.visibility import VisibilityResult, visible_parts
from repro.errors import EnvelopeError, KernelFault
from repro.geometry.primitives import EPS
from repro.geometry.segments import ImageSegment
from repro.reliability import faultinject as _fi
from repro.reliability import guard as _guard

__all__ = [
    "HAVE_NUMPY",
    "DEFAULT_ENGINE",
    "ENGINES",
    "resolve_engine",
    "merge_dispatch",
    "visibility_dispatch",
    "FLAT_MERGE_CUTOFF",
    "FLAT_VISIBILITY_CUTOFF",
    "FLAT_FUSED_CUTOFF",
]

try:  # pragma: no cover - exercised implicitly on import
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy ships in the toolchain
    HAVE_NUMPY = False

ENGINES = ("python", "numpy")

#: Engine used when callers pass ``engine=None`` / ``"auto"``.
DEFAULT_ENGINE: str = "numpy" if HAVE_NUMPY else "python"

#: Total input pieces below which :func:`merge_dispatch` prefers the
#: Python sweep even under ``engine="numpy"`` — the array pipeline's
#: per-call overhead dominates on tiny merges.
FLAT_MERGE_CUTOFF: int = 64

#: Overlapped-piece count below which :func:`visibility_dispatch`
#: prefers the scalar scan even under ``engine="numpy"`` — the batched
#: kernel's fixed launch overhead (~a few dozen array ops) beats the
#: ~µs/piece scalar walk only on windows of this order.
FLAT_VISIBILITY_CUTOFF: int = 96

#: Overlapped-piece count at which the *fused* visibility+merge insert
#: (:mod:`repro.envelope.flat_fused`, the sequential flat path's
#: kernel) switches from its scalar fused loop to its vectorized fused
#: sweep.  One launch amortises over both the visibility answer and
#: the merged window, so the breakeven sits well below the two-launch
#: path's effective 96-piece visibility cutoff (measured on the E9 and
#: wide-strip insert workloads; see ``docs/BENCHMARKS.md``).
FLAT_FUSED_CUTOFF: int = 64

# When the optional compiled core is built
# (``repro.envelope._ccore.HAVE_CCORE``), a sequential run bypasses
# FLAT_FUSED_CUTOFF entirely — the compiled run loop handles every
# window size — unless ``REPRO_COMPILED=0`` or
# ``HsrConfig.use_compiled_insert`` turns it off.  Parity is
# unconditional.


def resolve_engine(engine: Optional[str]) -> str:
    """Normalise an engine spec to ``"python"`` or ``"numpy"``.

    ``None`` and ``"auto"`` resolve to :data:`DEFAULT_ENGINE`;
    requesting ``"numpy"`` without NumPy installed raises.
    """
    if engine is None or engine == "auto":
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise EnvelopeError(
            f"unknown envelope engine {engine!r}; choose from {ENGINES}"
        )
    if engine == "numpy" and not HAVE_NUMPY:
        raise EnvelopeError(
            "engine='numpy' requested but numpy is not installed"
        )
    return engine


def merge_dispatch(
    a: Envelope,
    b: Envelope,
    *,
    eps: float = EPS,
    record_crossings: bool = True,
    engine: Optional[str] = None,
) -> MergeResult:
    """Merge two envelopes on the selected kernel (same result either
    way); see the module docstring for the cutoff rule."""
    if (
        resolve_engine(engine) == "numpy"
        and a.size + b.size >= FLAT_MERGE_CUTOFF
    ):
        from repro.envelope.flat import merge_envelopes_flat

        if not _guard.GUARDS_ENABLED:
            res = merge_envelopes_flat(
                a, b, eps=eps, record_crossings=record_crossings
            )
            return MergeResult(
                res.envelope.to_envelope(), res.crossings, res.ops
            )
        if not (
            _guard.ANY_QUARANTINED
            and _guard.is_quarantined("merge_dispatch")
        ):
            # Guard site ``merge_dispatch``: validate the flat output
            # lanes before materialising; any fault falls through to
            # the bit-exact python sweep below.
            try:
                if _fi.ARMED:
                    _fi.trip("merge_dispatch")
                res = merge_envelopes_flat(
                    a, b, eps=eps, record_crossings=record_crossings
                )
                fe = res.envelope
                if _fi.ARMED:
                    fe = _fi.corrupt_flat("merge_dispatch", fe)
                _guard.check_flat("merge_dispatch", fe.ya, fe.za, fe.yb, fe.zb)
                return MergeResult(fe.to_envelope(), res.crossings, res.ops)
            except KernelFault:
                raise
            except Exception as exc:
                _guard.handle_fault("merge_dispatch", exc)
    return merge_envelopes(
        a, b, eps=eps, record_crossings=record_crossings
    )


def visibility_dispatch(
    seg: ImageSegment,
    env: Envelope,
    *,
    eps: float = EPS,
    engine: Optional[str] = None,
) -> VisibilityResult:
    """Visible parts of ``seg`` against ``env`` on the selected kernel
    (same result either way).

    The scalar scan only ever touches the pieces overlapping the
    segment's y-span, so the batched kernel runs on exactly that
    window — and only when the window clears
    :data:`FLAT_VISIBILITY_CUTOFF`.  Vertical queries are an O(log m)
    point query and always take the scalar path.

    >>> import pytest
    >>> _ = pytest.importorskip("numpy")
    >>> from repro.envelope.chain import Envelope, Piece
    >>> from repro.geometry.segments import ImageSegment
    >>> env = Envelope([
    ...     Piece(0.0, 1.0, 4.0, 1.0, 0),   # low shelf
    ...     Piece(4.0, 5.0, 8.0, 5.0, 1),   # high shelf
    ... ])
    >>> seg = ImageSegment(1.0, 3.0, 7.0, 3.0, 2)  # between the shelves
    >>> res = visibility_dispatch(seg, env, engine="numpy")
    >>> res.parts      # above the low shelf only
    [VisiblePart(ya=1.0, yb=4.0)]
    >>> res.ops        # two elementary intervals examined
    2
    """
    if resolve_engine(engine) == "numpy" and not seg.is_vertical:
        lo, hi = env.pieces_overlapping(seg.y1, seg.y2)
        if hi - lo >= FLAT_VISIBILITY_CUTOFF:
            from repro.envelope.flat import FlatEnvelope
            from repro.envelope.flat_visibility import (
                visible_parts_flat,
            )

            fwindow = FlatEnvelope.from_pieces(env.pieces[lo:hi])
            if not _guard.GUARDS_ENABLED:
                return visible_parts_flat(seg, fwindow, eps=eps)
            vis = _guarded_visibility_flat(
                visible_parts_flat, seg, fwindow, eps
            )
            if vis is not None:
                return vis
    return visible_parts(seg, env, eps=eps)


def _guarded_visibility_flat(
    kernel, seg: ImageSegment, fwindow, eps: float
) -> Optional[VisibilityResult]:
    """Guard site ``visibility_dispatch``: run the batched visibility
    kernel under post-condition checks.  Returns ``None`` on a
    recorded fault (guarded mode) so the caller falls through to the
    scalar scan; raises :class:`KernelFault` in strict mode."""
    if _guard.ANY_QUARANTINED and _guard.is_quarantined(
        "visibility_dispatch"
    ):
        return None
    try:
        if _fi.ARMED:
            _fi.trip("visibility_dispatch")
        vis = kernel(seg, fwindow, eps=eps)
        if _fi.ARMED:
            vis = _fi.corrupt_visibility("visibility_dispatch", vis)
        _guard.check_visibility(
            "visibility_dispatch", vis, seg.y1, seg.y2, eps
        )
        return vis
    except KernelFault:
        raise
    except Exception as exc:
        _guard.handle_fault("visibility_dispatch", exc)
        return None
