"""Batched segment-vs-profile visibility: many sight-line queries
against one envelope.

:func:`batch_visible_parts` answers every query of a batch in **one**
compiled call when the core is on: ``repro_query_batch``
(:func:`repro.envelope._ccore.query_batch`), which runs the Phase-2
leaf query (``leaf_query``, the C transcription of
:func:`~repro.envelope.visibility.visible_parts`) of each query against
the envelope packed as a ``(5, n)`` block.  The call runs under the
``phase2_merge`` guard site.  The reference is the scalar
:func:`~repro.envelope.visibility.visible_parts` loop; it answers when
the core is off, absent or quarantined, and reruns a faulting call.

Parity contract: identical ``parts``, ``crossings`` and ``ops`` as
:func:`~repro.envelope.visibility.visible_parts` for every query,
including the ``_visible_vertical`` point-query degeneracies.
``tests/test_envelope_flat_visibility.py`` fuzzes both paths against
it.

:class:`FlatVisibility` holds the answers as flat lanes plus each
query's part and crossing counts (the kernel's own rows).
:meth:`FlatVisibility.results` builds every record in bulk: one
``tolist`` per lane, the tuples made by ``map``, and each query's lists
cut out by slicing at the running sums of the counts.

Role: the kernel of the service's ``query_batch`` (many sight lines
against one horizon) and of the ``visibility`` bench rows.
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple, Sequence, Union

import numpy as np

from repro.envelope.chain import Envelope
from repro.envelope.flat import FlatEnvelope, _tuples_to_matrix
from repro.envelope.visibility import (
    VisibilityResult,
    VisiblePart,
    visible_parts,
)
from repro.geometry.primitives import EPS
from repro.geometry.segments import ImageSegment

__all__ = [
    "FlatVisibility",
    "batch_visible_parts",
    "envelope_block",
]

_F = np.float64
_I = np.int64


class FlatVisibility(NamedTuple):
    """Batched visibility results, held as flat arrays.

    ``part_*`` rows are the maximal visible sub-intervals of every
    query, in ``(query, y)`` order; ``cross_*`` rows are the
    visibility-change points, likewise ordered.  ``n_parts`` /
    ``n_cross`` count each query's rows, and ``ops`` is the per-query
    elementary-interval count (the PRAM work charge of the scan,
    identical to the scalar kernel's).  Use :meth:`result_of` /
    :meth:`results` to materialise scalar-API
    :class:`~repro.envelope.visibility.VisibilityResult` records.
    """

    part_ya: np.ndarray
    part_yb: np.ndarray
    cross_y: np.ndarray
    cross_z: np.ndarray
    n_parts: np.ndarray
    n_cross: np.ndarray
    ops: np.ndarray

    @property
    def n_queries(self) -> int:
        return len(self.ops)

    def result_of(self, q: int) -> VisibilityResult:
        """The scalar-API result of query ``q``."""
        plo = int(self.n_parts[:q].sum())
        phi = plo + int(self.n_parts[q])
        clo = int(self.n_cross[:q].sum())
        chi = clo + int(self.n_cross[q])
        parts = list(
            map(
                VisiblePart._make,
                zip(
                    self.part_ya[plo:phi].tolist(),
                    self.part_yb[plo:phi].tolist(),
                ),
            )
        )
        crossings = list(
            zip(
                self.cross_y[clo:chi].tolist(),
                self.cross_z[clo:chi].tolist(),
            )
        )
        return VisibilityResult(parts, crossings, int(self.ops[q]))

    def results(self) -> list[VisibilityResult]:
        """All queries' results, built in bulk: one ``tolist`` per
        lane, then each query's lists cut out by slicing."""
        parts = list(
            map(
                tuple.__new__,
                repeat(VisiblePart),
                zip(self.part_ya.tolist(), self.part_yb.tolist()),
            )
        )
        crossings = list(zip(self.cross_y.tolist(), self.cross_z.tolist()))
        return list(
            map(
                tuple.__new__,
                repeat(VisibilityResult),
                zip(
                    _cut(parts, self.n_parts),
                    _cut(crossings, self.n_cross),
                    self.ops.tolist(),
                ),
            )
        )


def _cut(items: list, counts: np.ndarray):
    """``items`` cut into consecutive lists of ``counts[i]`` items."""
    ends = np.cumsum(counts).tolist()
    return map(items.__getitem__, map(slice, [0, *ends[:-1]], ends))


def envelope_block(env: Union[FlatEnvelope, Envelope, np.ndarray]) -> np.ndarray:
    """``env`` as a ``(5, n)`` float64 block, the PCT block layout:
    ``ya, za, yb, zb`` rows, then the sources' int64 bits (a block is
    returned as it is)."""
    if isinstance(env, np.ndarray):
        return env
    if isinstance(env, Envelope):
        env = FlatEnvelope.from_envelope(env)
    return np.stack([env.ya, env.za, env.yb, env.zb, env.source.view(_F)])


def batch_visible_parts(
    env: Union[FlatEnvelope, Envelope, np.ndarray],
    segments: Union[Sequence[ImageSegment], np.ndarray],
    *,
    eps: float = EPS,
    config=None,
) -> FlatVisibility:
    """Visible parts of many query segments against one envelope.

    ``env`` is the envelope every query is tested against: an
    :class:`Envelope`, a :class:`FlatEnvelope` or an
    :func:`envelope_block`.  ``segments`` is a sequence of
    :class:`ImageSegment` or a prebuilt ``(Q, 4)`` or ``(Q, 5)``
    float64 matrix whose first four columns are ``y1, z1, y2, z2``.
    ``config`` (:class:`repro.config.HsrConfig`) can switch the
    compiled core off.

    Every query's parts, crossings and ops are exactly those of the
    scalar :func:`~repro.envelope.visibility.visible_parts`.
    """
    from repro.envelope import _ccore
    from repro.reliability import guard as _guard

    if isinstance(segments, np.ndarray):
        mat = segments
    else:
        mat = _tuples_to_matrix(segments) if len(segments) else np.empty((0, 5), _F)
    nq = len(mat)
    if nq == 0:
        e_f = np.empty(0, _F)
        e_i = np.empty(0, _I)
        return FlatVisibility(e_f, e_f, e_f, e_f, e_i, e_i, e_i)
    if _ccore.compiled_enabled(config, "phase2_merge"):
        blk = envelope_block(env)
        q = mat[:, :4].T.copy()
        lanes = (q[0], q[1], q[2], q[3], np.full(nq, -1, _I))
        with _ccore.borrowed() as core:

            def kernel():
                ops, n_parts, n_cross = _ccore.query_batch(core, blk, lanes, eps).T
                return FlatVisibility(
                    *core.take(_ccore.L_PARTS), *core.take(_ccore.L_VX),
                    n_parts, n_cross, ops,
                )

            out = _guard.guarded_call("phase2_merge", kernel, lambda: None)
        if out is not None:
            return out
    return _reference(env, mat, eps)


def _reference(env, mat: np.ndarray, eps: float) -> FlatVisibility:
    """The scalar :func:`visible_parts` loop, as a :class:`FlatVisibility`."""
    if isinstance(env, np.ndarray):
        env = FlatEnvelope(*env[:4], env[4].view(_I))
    if isinstance(env, FlatEnvelope):
        env = env.to_envelope()
    res = [
        visible_parts(ImageSegment(*row), env, eps=eps) for row in mat[:, :4].tolist()
    ]
    parts = np.array([p for r in res for p in r.parts], _F).reshape(-1, 2)
    cross = np.array([c for r in res for c in r.crossings], _F).reshape(-1, 2)
    return FlatVisibility(
        *parts.T, *cross.T,
        np.array([len(r.parts) for r in res], _I),
        np.array([len(r.crossings) for r in res], _I),
        np.array([r.ops for r in res], _I),
    )
