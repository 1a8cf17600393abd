"""Packed single-buffer live profile: in-place splices for the flat stack.

:class:`PackedProfile` is the one live-profile layout of a sequential
run on the numpy engine (:func:`repro.envelope.flat_splice.insert_run`:
the compiled core in :mod:`repro.envelope._ccore`, and the reference
insert for whatever the core does not answer).  It keeps the profile
in **one** contiguous ``(5, capacity)`` float64 allocation — the five
field columns ``ya/za/yb/zb/source`` are row views into it, and
``source`` is the same bytes reinterpreted as int64 (both are 8-byte
lanes, so one buffer serves all five fields).  The live pieces occupy
a window ``[beg, end)`` of the capacity with **slack at both ends**,
so a splice is:

* *no size change* — an in-place window write, zero moves;
* *size change* — **one** ``memmove``-style 2D slice shift of the
  cheaper of head/tail into its slack (all five fields move in a
  single int64 assignment, bit-exact for float lanes), then the
  window write;
* *slack exhausted* — an amortized-doubling reallocation
  (``capacity = 2 × need``) that re-centres the live window, charged
  O(1) per insert in aggregate.

Locates (:meth:`FlatEnvelope.pieces_overlapping`) read ``searchsorted``
directly off the live ``ya`` row view — no reallocation has happened
since the views were last derived, because *only* :meth:`splice`
moves the buffer and it re-derives them.

Mutability contract
-------------------

Unlike its :class:`FlatEnvelope` base, ``PackedProfile`` is **mutable**:
:meth:`splice` edits the buffer in place and returns ``self``.  Zero-
copy window views taken *before* a splice may point at a stale buffer
(after a reallocation) or at shifted contents (after a slice move)
— consumers must re-derive windows from the live profile after every
insert and never read a pre-splice view afterwards.
``repro.envelope.flat_splice.insert_segment_flat`` observes this by
construction (its window is copied out before the single splice at
the end of each insert); ``tests/test_envelope_packed.py`` pins the
contract with stale-view regression tests.

``ops`` accounting is unaffected by the layout: the reported ``ops``
are elementary-interval counts (engine- and layout-independent by
construction), so a ``PackedProfile`` run is bit-exact — visibility
map, ``ops``, ``max_profile_size``, profile pieces — against
``engine="python"``.  The *moved-element* cost of shifts and
reallocations is a wall-clock-only implementation detail.
"""

from __future__ import annotations

import numpy as np

from repro.envelope.chain import Envelope, Piece
from repro.envelope.flat import FlatEnvelope
from repro.errors import KernelFault
from repro.geometry.primitives import NEG_INF
from repro.reliability import faultinject as _fi
from repro.reliability import guard as _guard

__all__ = [
    "PackedProfile",
    "MIN_CAPACITY",
]

_F = np.float64
_I = np.int64

#: Smallest buffer a :class:`PackedProfile` allocates — covers the
#: first handful of inserts of a run without a growth step.
MIN_CAPACITY = 16


def _line_z(ya: float, za: float, yb: float, zb: float, y: float) -> float:
    """Supporting-line height at ``y`` — the exact float arithmetic of
    ``Piece.z_at`` / ``ImageSegment.z_at`` (endpoint shortcuts, then
    ``lerp`` with its ``t == 0/1`` shortcuts) for non-degenerate spans."""
    if y == ya:
        return za
    if y == yb:
        return zb
    t = (y - ya) / (yb - ya)
    if t == 0.0:
        return za
    if t == 1.0:
        return zb
    return za + (zb - za) * t


class PackedProfile(FlatEnvelope):
    """A live profile in one packed buffer; splices mutate in place.

    Same query surface as :class:`FlatEnvelope` (the five field
    attributes are live row views into the buffer) plus the
    locate/materialise queries the insert path needs, but
    :meth:`splice` **mutates** the receiver and returns it — see the
    module docstring for the view-staleness contract.

    The compiled insert core (:mod:`repro.envelope._ccore`) borrows
    ``_buf`` as a raw pointer for the duration of one call: it may
    shift ``[_beg, _end)`` within the existing allocation (then the
    wrapper re-syncs the views) but never reallocates — growth always
    comes back through :meth:`splice`, so this class stays the sole
    owner of the buffer's lifetime.

    >>> prof = PackedProfile.empty()
    >>> prof.splice(0, 0, [0.0], [1.0], [2.0], [1.0], [7]) is prof
    True
    >>> _ = prof.splice(1, 1, [2.0], [4.0], [5.0], [4.0], [9])
    >>> prof.size, [p.source for p in prof.to_envelope().pieces]
    (2, [7, 9])
    """

    __slots__ = ("_buf", "_ibuf", "_beg", "_end")

    def __init__(self, buf: np.ndarray, ibuf: np.ndarray, beg: int, end: int):
        self._buf = buf
        self._ibuf = ibuf
        self._beg = beg
        self._end = end
        self._sync_views()

    def _sync_views(self) -> None:
        """Re-derive the five live field views after a buffer edit."""
        buf, beg, end = self._buf, self._beg, self._end
        self.ya = buf[0, beg:end]
        self.za = buf[1, beg:end]
        self.yb = buf[2, beg:end]
        self.zb = buf[3, beg:end]
        self.source = self._ibuf[4, beg:end]

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty(capacity: int = MIN_CAPACITY) -> "PackedProfile":
        capacity = max(2, int(capacity))
        buf = np.empty((5, capacity), _F)
        beg = capacity // 2
        return PackedProfile(buf, buf.view(_I), beg, beg)

    @classmethod
    def pack(cls, flat: FlatEnvelope) -> "PackedProfile":
        """A packed copy of any flat envelope, with fresh slack."""
        n = len(flat)
        cap = max(MIN_CAPACITY, 2 * n)
        buf = np.empty((5, cap), _F)
        ibuf = buf.view(_I)
        beg = (cap - n) // 2
        end = beg + n
        buf[0, beg:end] = flat.ya
        buf[1, beg:end] = flat.za
        buf[2, beg:end] = flat.yb
        buf[3, beg:end] = flat.zb
        ibuf[4, beg:end] = flat.source
        return cls(buf, ibuf, beg, end)

    @staticmethod
    def from_envelope(env: Envelope) -> "PackedProfile":
        return PackedProfile.pack(FlatEnvelope.from_pieces(env.pieces))

    @classmethod
    def from_splice(
        cls,
        parent: "PackedProfile",
        lo: int,
        hi: int,
        ya,
        za,
        yb,
        zb,
        source,
    ) -> "PackedProfile":
        """A *new* packed profile equal to ``parent`` with pieces
        ``[lo, hi)`` replaced — the recovery path of :meth:`splice`.

        The parent is only read, and the copy is one buffer allocation
        plus three segment writes.
        """
        k = len(ya)
        head = lo
        n = len(parent)
        tail = n - hi
        need = head + k + tail
        cap = max(MIN_CAPACITY, need)
        buf = np.empty((5, cap), _F)
        ibuf = buf.view(_I)
        beg = (cap - need) // 2
        a = beg + head
        b = a + k
        end = beg + need
        if head:
            p = parent._beg
            ibuf[:, beg:a] = parent._ibuf[:, p : p + head]
        if tail:
            p = parent._beg + hi
            ibuf[:, b:end] = parent._ibuf[:, p : p + tail]
        if k:
            buf[0, a:b] = ya
            buf[1, a:b] = za
            buf[2, a:b] = yb
            buf[3, a:b] = zb
            ibuf[4, a:b] = source
        return cls(buf, ibuf, beg, end)

    # -- capacity introspection (tests / diagnostics) -----------------

    @property
    def capacity(self) -> int:
        return self._buf.shape[1]

    @property
    def slack(self) -> tuple[int, int]:
        """``(head_slack, tail_slack)`` free lanes on each side."""
        return (self._beg, self._buf.shape[1] - self._end)

    # -- the in-place splice ------------------------------------------

    def splice(self, lo: int, hi: int, ya, za, yb, zb, source) -> "PackedProfile":
        """Replace live pieces ``[lo, hi)`` with the given fields,
        **in place**, and return ``self``.

        At most one side of the profile moves — the cheaper of head
        and tail, by one 2D slice shift over the int64 bit view (all
        five fields in one assignment, bit-exact for the float lanes)
        — and only when the replacement changes the piece count.
        Growth reallocates with amortized doubling.  All views
        previously derived from this profile are stale afterwards.

        Guard site ``packed_splice``: a bounds violation escalates as
        an :class:`~repro.reliability.guard.InvariantViolation` (the
        caller's window is wrong — re-splicing cannot help); any other
        fault is recorded and the splice retried through the read-only
        :meth:`from_splice` rebuild, which works off buffer truth.
        """
        if not _guard.GUARDS_ENABLED:
            return self._splice_impl(lo, hi, ya, za, yb, zb, source)
        n = self._end - self._beg
        if not (0 <= lo <= hi <= n):
            _guard.violation(
                "packed_splice",
                f"splice range [{lo}, {hi}) outside live range [0, {n})",
            )
        if _guard.ANY_QUARANTINED and _guard.is_quarantined("packed_splice"):
            with _fi.suppressed():
                return self._rebuild_splice(lo, hi, ya, za, yb, zb, source)
        try:
            if _fi.ARMED:
                _fi.trip("packed_splice")
            return self._splice_impl(lo, hi, ya, za, yb, zb, source)
        except KernelFault:
            raise
        except Exception as exc:
            _guard.handle_fault("packed_splice", exc)
            with _fi.suppressed():
                return self._rebuild_splice(lo, hi, ya, za, yb, zb, source)

    def _rebuild_splice(
        self, lo: int, hi: int, ya, za, yb, zb, source
    ) -> "PackedProfile":
        """Recovery path of :meth:`splice`: rebuild the whole buffer
        through the parent-read-only :meth:`from_splice` constructor
        and adopt its storage, preserving object identity.  Views are
        re-derived from buffer truth first, so a fault that left them
        stale cannot corrupt the rebuild."""
        self._sync_views()
        fresh = PackedProfile.from_splice(self, lo, hi, ya, za, yb, zb, source)
        self._buf = fresh._buf
        self._ibuf = fresh._ibuf
        self._beg = fresh._beg
        self._end = fresh._end
        self._sync_views()
        return self

    def _splice_impl(
        self, lo: int, hi: int, ya, za, yb, zb, source
    ) -> "PackedProfile":
        k = len(ya)
        beg, end = self._beg, self._end
        n = end - beg
        d = k - (hi - lo)
        buf, ibuf = self._buf, self._ibuf
        if d:
            head = lo
            tail = n - hi
            if d < 0:
                # Shrink: shift the smaller side inward (always fits).
                if head <= tail:
                    if head:
                        ibuf[:, beg - d : beg - d + head] = ibuf[:, beg : beg + head]
                    beg -= d
                    self._beg = beg
                else:
                    if tail:
                        ibuf[:, beg + lo + k : end + d] = ibuf[:, beg + hi : end]
                    self._end = end + d
            else:
                # Grow: prefer the cheaper side whose slack fits.
                fits_head = beg >= d
                fits_tail = buf.shape[1] - end >= d
                if fits_head and (head <= tail or not fits_tail):
                    if head:
                        ibuf[:, beg - d : beg - d + head] = ibuf[:, beg : beg + head]
                    beg -= d
                    self._beg = beg
                elif fits_tail:
                    if tail:
                        ibuf[:, beg + lo + k : end + d] = ibuf[:, beg + hi : end]
                    self._end = end + d
                else:
                    return self._grow_splice(lo, hi, k, ya, za, yb, zb, source)
        a = beg + lo
        if k <= 2 and type(ya) is list:
            # Scalar stores: a handful of item writes beats five
            # list→array slice conversions on 1–2-piece windows (the
            # common merged-window size in the small-insert regime).
            for i in range(k):
                c = a + i
                buf[0, c] = ya[i]
                buf[1, c] = za[i]
                buf[2, c] = yb[i]
                buf[3, c] = zb[i]
                ibuf[4, c] = source[i]
        elif k:
            b = a + k
            buf[0, a:b] = ya
            buf[1, a:b] = za
            buf[2, a:b] = yb
            buf[3, a:b] = zb
            ibuf[4, a:b] = source
        if d:
            self._sync_views()
        return self

    def _grow_splice(
        self, lo: int, hi: int, k: int, ya, za, yb, zb, source
    ) -> "PackedProfile":
        """Amortized-doubling reallocation path of :meth:`splice`."""
        beg, end = self._beg, self._end
        n = end - beg
        head = lo
        tail = n - hi
        need = head + k + tail
        cap = max(MIN_CAPACITY, 2 * need)
        new = np.empty((5, cap), _F)
        nibuf = new.view(_I)
        nbeg = (cap - need) // 2
        a = nbeg + head
        b = a + k
        nend = nbeg + need
        if head:
            nibuf[:, nbeg:a] = self._ibuf[:, beg : beg + head]
        if tail:
            nibuf[:, b:nend] = self._ibuf[:, beg + hi : end]
        if k:
            new[0, a:b] = ya
            new[1, a:b] = za
            new[2, a:b] = yb
            new[3, a:b] = zb
            nibuf[4, a:b] = source
        self._buf = new
        self._ibuf = nibuf
        self._beg = nbeg
        self._end = nend
        self._sync_views()
        return self

    # -- scalar-parity queries ----------------------------------------

    def value_at(self, y: float) -> float:
        """Profile height at ``y`` — exact scalar replica of
        :meth:`Envelope.value_at` (same bisection, same ``z_at``
        arithmetic), used by the vertical point queries."""
        n = len(self.ya)
        if n == 0:
            return NEG_INF
        i = int(np.searchsorted(self.ya, y, side="right")) - 1
        best = NEG_INF
        if i >= 0:
            pya = float(self.ya[i])
            pyb = float(self.yb[i])
            if pya <= y <= pyb:
                best = _line_z(pya, float(self.za[i]), pyb, float(self.zb[i]), y)
            if i >= 1 and float(self.yb[i - 1]) == y:
                v = float(self.zb[i - 1])
                if v > best:
                    best = v
        if i + 1 < n and float(self.ya[i + 1]) == y:
            v = float(self.za[i + 1])
            if v > best:
                best = v
        return best

    def window_envelope(self, lo: int, hi: int) -> Envelope:
        """Pieces ``[lo, hi)`` as an :class:`Envelope` — one 2D
        ``tolist`` off the buffer (the reference insert's window)."""
        a = self._beg + lo
        b = self._beg + hi
        ya, za, yb, zb = self._buf[:4, a:b].tolist()
        return Envelope(list(map(Piece, ya, za, yb, zb, self._ibuf[4, a:b].tolist())))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PackedProfile({self.size} pieces, capacity"
            f" {self.capacity}, slack {self.slack})"
        )
