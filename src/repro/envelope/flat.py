"""Structure-of-arrays envelopes (NumPy).

:class:`FlatEnvelope` holds an envelope as parallel ``ya/za/yb/zb``
float64 and ``source`` int64 arrays, losslessly round-trippable
to/from :class:`repro.envelope.chain.Envelope`.  It is the array form
the batched visibility kernel
(:mod:`repro.envelope.flat_visibility`), the packed live profile
(:mod:`repro.envelope.packed`) and the compiled PCT layer blocks
(:func:`repro.hsr.pct.block_view`) share.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.envelope.chain import Envelope, Piece
from repro.errors import EnvelopeError
from repro.geometry.segments import ImageSegment

__all__ = ["FlatEnvelope"]

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
    ``ya < yb``, no overlap); the arrays make batched evaluation
    cheap.  Instances are immutable by convention.
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

