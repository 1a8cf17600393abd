"""Batched (NumPy) segment-vs-profile visibility kernel.

The scalar scan in :mod:`repro.envelope.visibility` walks the pieces
overlapping a query segment one at a time behind a moving cursor.  The
envelope invariants make that cursor redundant: every piece in the
overlap range ``[lo, hi)`` satisfies ``ya < y2`` and ``yb > y1``
(:meth:`Envelope.pieces_overlapping` semantics) and pieces do not
overlap, so for *every* piece of the range

* the examined sub-interval is ``u = max(ya, y1) < v = min(yb, y2)``,
* the cursor entering piece ``j`` equals ``y1`` for the first piece
  and ``yb`` of piece ``j - 1`` otherwise (only the last piece of the
  range can clip at ``y2``).

The whole scan therefore vectorizes with no sequential state: one
(query, piece) pair table, ``z_at_many``-style batched line evaluation
on its endpoints, dominance signs, and boolean-mask emission of gap /
visible / crossing candidates — for *many* query segments against one
:class:`~repro.envelope.flat.FlatEnvelope`, in a single sweep.

Parity contract: identical ``parts`` (after the same eps-merge and
``width > eps`` filtering), ``crossings`` and ``ops`` as
:func:`repro.envelope.visibility.visible_parts` for every query,
including the :func:`_visible_vertical` point-query degeneracies.
``tests/test_envelope_flat_visibility.py`` enforces this on
adversarial inputs.

Role: the *many-queries* sweep here is the kernel of the service's
``query_batch`` (many sight lines against one horizon) and of the
``visibility`` bench rows.  The sequential insert path and the HSR
phases never launch it: the compiled core answers them, and the
python reference answers whatever the core does not.

View lifetime: the envelopes handed in here are often zero-copy
window views, and with the packed live-profile layout
(:mod:`repro.envelope.packed`) the buffer under a view is shifted or
reallocated by every profile splice.  This kernel only reads its
inputs within one call, which is always safe; *callers* must treat
window views as per-insert temporaries, re-derived from the live
profile after each splice, and never cache one across inserts.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

import numpy as np

from repro.envelope.chain import Envelope
from repro.envelope.flat import FlatEnvelope, _tuples_to_matrix, _z_eval
from repro.envelope.visibility import VisibilityResult, VisiblePart
from repro.geometry.primitives import EPS, NEG_INF
from repro.geometry.segments import ImageSegment

__all__ = [
    "FlatVisibility",
    "batch_visible_parts",
]

_F = np.float64
_I = np.int64


class FlatVisibility(NamedTuple):
    """Batched visibility results, held as flat arrays.

    ``part_*`` rows are the maximal visible sub-intervals of every
    query, sorted by ``(query, y)``; ``cross_*`` rows are the
    visibility-change points, likewise sorted.  ``ops`` is the
    per-query elementary-interval count (the PRAM work charge of the
    scan, identical to the scalar kernel's).  Use :meth:`result_of` /
    :meth:`results` to materialise scalar-API
    :class:`~repro.envelope.visibility.VisibilityResult` records.
    """

    part_query: np.ndarray
    part_ya: np.ndarray
    part_yb: np.ndarray
    cross_query: np.ndarray
    cross_y: np.ndarray
    cross_z: np.ndarray
    ops: np.ndarray

    @property
    def n_queries(self) -> int:
        return len(self.ops)

    def result_of(self, q: int) -> VisibilityResult:
        """The scalar-API result of query ``q``."""
        plo = int(np.searchsorted(self.part_query, q, side="left"))
        phi = int(np.searchsorted(self.part_query, q, side="right"))
        clo = int(np.searchsorted(self.cross_query, q, side="left"))
        chi = int(np.searchsorted(self.cross_query, q, side="right"))
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
        """All queries' results, materialised in one pass."""
        q = len(self.ops)
        pq = self.part_query
        cq = self.cross_query
        p_bounds = np.searchsorted(pq, np.arange(q + 1))
        c_bounds = np.searchsorted(cq, np.arange(q + 1))
        pya = self.part_ya.tolist()
        pyb = self.part_yb.tolist()
        cy = self.cross_y.tolist()
        cz = self.cross_z.tolist()
        ops = self.ops.tolist()
        out = []
        for i in range(q):
            plo, phi = int(p_bounds[i]), int(p_bounds[i + 1])
            clo, chi = int(c_bounds[i]), int(c_bounds[i + 1])
            out.append(
                VisibilityResult(
                    [
                        VisiblePart(pya[j], pyb[j])
                        for j in range(plo, phi)
                    ],
                    [(cy[j], cz[j]) for j in range(clo, chi)],
                    ops[i],
                )
            )
        return out


def _locate(
    p_ya: np.ndarray,
    p_yb: np.ndarray,
    q_y1: np.ndarray,
    q_y2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query piece range, replicating ``pieces_overlapping`` (and
    the raw ``bisect_right - 1`` index that ``value_at`` needs).

    Returns piece indices ``(i_raw, lo, hi)``:

    * ``i_raw`` — last piece with ``ya <= y1``, or ``-1`` when none;
    * ``lo``/``hi`` — half-open overlap range of the query's
      ``(y1, y2)`` span, empty when ``y1 == y2`` is outside any piece.
    """
    n = len(p_ya)
    i_raw = np.searchsorted(p_ya, q_y1, side="right") - 1
    hi = np.searchsorted(p_ya, q_y2, side="left")
    # ``pieces_overlapping`` adjustment: step past a piece ending at or
    # before ``y1`` (and past the start when no piece starts at or
    # before ``y1``).
    if n:
        ends = p_yb[np.clip(i_raw, 0, n - 1)]
        lo = np.where((i_raw >= 0) & (ends > q_y1), i_raw, i_raw + 1)
    else:
        lo = i_raw + 1
    return i_raw, lo, hi


def batch_visible_parts(
    env: Union[FlatEnvelope, Envelope],
    segments: Union[Sequence[ImageSegment], np.ndarray],
    *,
    eps: float = EPS,
) -> FlatVisibility:
    """Visible parts of many query segments, in one batched sweep.

    ``env`` is the envelope (:class:`FlatEnvelope` or
    :class:`Envelope`) that every query is tested against.

    ``segments`` is a sequence of :class:`ImageSegment` or a prebuilt
    ``(Q, 5)`` float64 matrix.  Vertical queries (``y1 == y2``) take
    the point-query path of ``_visible_vertical``.

    Every query's parts, crossings and ops are exactly those of the
    scalar :func:`~repro.envelope.visibility.visible_parts`.
    """
    if isinstance(env, Envelope):
        env = FlatEnvelope.from_envelope(env)
    p_ya, p_za, p_yb, p_zb = env.ya, env.za, env.yb, env.zb

    if isinstance(segments, np.ndarray):
        seg_mat = segments
    else:
        seg_mat = (
            _tuples_to_matrix(segments)
            if len(segments)
            else np.empty((0, 5), _F)
        )
    nq = len(seg_mat)
    q_y1 = np.ascontiguousarray(seg_mat[:, 0])
    q_z1 = np.ascontiguousarray(seg_mat[:, 1])
    q_y2 = np.ascontiguousarray(seg_mat[:, 2])
    q_z2 = np.ascontiguousarray(seg_mat[:, 3])

    e_f = np.empty(0, _F)
    e_i = np.empty(0, _I)
    if nq == 0:
        return FlatVisibility(
            e_i, e_f, e_f, e_i, e_f, e_f, np.empty(0, _I)
        )

    i_raw, lo, hi = _locate(p_ya, p_yb, q_y1, q_y2)
    ops = np.ones(nq, _I)

    vertical = q_y1 == q_y2
    nonvert = ~vertical

    # ---- non-vertical queries: the vectorized interval scan --------
    nv = np.flatnonzero(nonvert)
    if len(nv):
        counts = (hi[nv] - lo[nv]).astype(_I)
        np.maximum(counts, 0, out=counts)  # defensive; cannot go < 0
        n_pairs = int(counts.sum())
        pair_off = np.concatenate([[0], np.cumsum(counts)])

        # (query, piece) pair table; ``qi`` is the ordinal among the
        # non-vertical queries, in input order.
        qi = np.repeat(np.arange(len(nv), dtype=_I), counts)
        piece = (
            np.arange(n_pairs, dtype=_I)
            - np.repeat(pair_off[:-1], counts)
            + np.repeat(lo[nv], counts)
        )
        y1q = q_y1[nv][qi]
        y2q = q_y2[nv][qi]
        u = np.maximum(p_ya[piece], y1q)
        v = np.minimum(p_yb[piece], y2q)

        first = np.zeros(n_pairs, bool)
        first[pair_off[:-1][counts > 0]] = True
        # Cursor entering pair j: y1 for the query's first piece, the
        # previous piece's end otherwise (see module docstring).
        prev_yb = p_yb[np.maximum(piece - 1, 0)]
        gap_start = np.where(first, y1q, prev_yb)
        gap_end = p_ya[piece]  # == min(ya, y2): ya < y2 in range
        has_gap = gap_start < gap_end

        # z_at_many-style evaluation: query line and covering piece at
        # both interval endpoints, two stacked calls.
        uv = np.concatenate([u, v])
        qq = np.concatenate([qi, qi])
        pp = np.concatenate([piece, piece])
        z_seg = _z_eval(
            q_y1[nv][qq], q_z1[nv][qq], q_y2[nv][qq], q_z2[nv][qq], uv
        )
        z_env = _z_eval(p_ya[pp], p_za[pp], p_yb[pp], p_zb[pp], uv)
        d = z_seg - z_env
        du, dv = d[:n_pairs], d[n_pairs:]
        su = (du > eps).astype(np.int8)
        su -= du < -eps
        sv = (dv > eps).astype(np.int8)
        sv -= dv < -eps

        visible_full = (su >= 0) & (sv >= 0) & ((su > 0) | (sv > 0))
        hidden = ~visible_full & (su <= 0) & (sv <= 0)
        tr = np.flatnonzero(~visible_full & ~hidden)

        # Transversal pairs: crossing point, clamped like the scalar.
        dut = du[tr]
        dvt = dv[tr]
        t = dut / (dut - dvt)
        w = u[tr] + t * (v[tr] - u[tr])
        w = np.minimum(np.maximum(w, u[tr]), v[tr])
        tr_rising = su[tr] < 0  # hidden then visible: part (w, v)

        vis_ya = u.copy()
        vis_yb = v.copy()
        vis_ya[tr[tr_rising]] = w[tr_rising]
        vis_yb[tr[~tr_rising]] = w[~tr_rising]

        # Crossings: strictly interior flips only, z on the query line.
        interior = (u[tr] < w) & (w < v[tr])
        cross_pair = tr[interior]
        cross_y = w[interior]
        cross_z = _z_eval(
            q_y1[nv][qi[cross_pair]],
            q_z1[nv][qi[cross_pair]],
            q_y2[nv][qi[cross_pair]],
            q_z2[nv][qi[cross_pair]],
            cross_y,
        )

        # Candidate slots, (query, y)-ordered by construction:
        # [gap_0, vis_0, gap_1, vis_1, ..., trailing] per query.
        n_nv = len(nv)
        n_slots = 2 * n_pairs + n_nv
        slot_gap = 2 * np.arange(n_pairs, dtype=_I) + qi
        slot_trail = 2 * pair_off[1:] + np.arange(n_nv, dtype=_I)

        cand_ya = np.empty(n_slots, _F)
        cand_yb = np.empty(n_slots, _F)
        cand_q = np.empty(n_slots, _I)
        valid = np.zeros(n_slots, bool)

        valid[slot_gap] = has_gap
        cand_ya[slot_gap] = gap_start
        cand_yb[slot_gap] = gap_end
        cand_q[slot_gap] = qi
        valid[slot_gap + 1] = ~hidden
        cand_ya[slot_gap + 1] = vis_ya
        cand_yb[slot_gap + 1] = vis_yb
        cand_q[slot_gap + 1] = qi

        if n_pairs:
            last_v = v[np.maximum(pair_off[1:] - 1, 0)]
            cursor_end = np.where(counts > 0, last_v, q_y1[nv])
        else:
            cursor_end = q_y1[nv]
        valid[slot_trail] = cursor_end < q_y2[nv]
        cand_ya[slot_trail] = cursor_end
        cand_yb[slot_trail] = q_y2[nv]
        cand_q[slot_trail] = np.arange(n_nv, dtype=_I)

        ops_nv = (
            counts
            + np.bincount(qi[has_gap], minlength=n_nv)
            + valid[slot_trail]
        )
        ops[nv] = np.maximum(ops_nv, 1)

        # Merge adjacent candidates (the _PartAccumulator rule): within
        # a query, candidates are disjoint with non-decreasing ends, so
        # the accumulated last end *is* the previous candidate's end.
        sel = np.flatnonzero(valid)
        cya = cand_ya[sel]
        cyb = cand_yb[sel]
        cq = cand_q[sel]
        n_sel = len(sel)
        if n_sel:
            new = np.empty(n_sel, bool)
            new[0] = True
            new[1:] = (cq[1:] != cq[:-1]) | (
                cya[1:] > cyb[:-1] + eps
            )
            pstarts = np.flatnonzero(new)
            pends = np.concatenate([pstarts[1:], [n_sel]]) - 1
            m_ya = cya[pstarts]
            m_yb = cyb[pends]
            m_q = cq[pstarts]
            wide = (m_yb - m_ya) > eps
            part_q_nv = nv[m_q[wide]]
            part_ya_nv = m_ya[wide]
            part_yb_nv = m_yb[wide]
        else:
            part_q_nv, part_ya_nv, part_yb_nv = e_i, e_f, e_f
        cross_q_nv = nv[qi[cross_pair]]
    else:
        part_q_nv, part_ya_nv, part_yb_nv = e_i, e_f, e_f
        cross_q_nv, cross_y, cross_z = e_i, e_f, e_f

    # ---- vertical queries: batched point query (value_at) ----------
    vt = np.flatnonzero(vertical)
    if len(vt):
        n = len(p_ya)
        y = q_y1[vt]
        i = i_raw[vt]
        if n:
            ic = np.clip(i, 0, n - 1)
            inside = (i >= 0) & (p_ya[ic] <= y) & (y <= p_yb[ic])
            best = np.where(
                inside,
                _z_eval(p_ya[ic], p_za[ic], p_yb[ic], p_zb[ic], y),
                NEG_INF,
            )
            ip = np.clip(i - 1, 0, n - 1)
            prev_ok = (i >= 1) & (p_yb[ip] == y)
            best = np.maximum(
                best, np.where(prev_ok, p_zb[ip], NEG_INF)
            )
            inx = np.clip(i + 1, 0, n - 1)
            next_ok = (i + 1 < n) & (p_ya[inx] == y)
            best = np.maximum(
                best, np.where(next_ok, p_za[inx], NEG_INF)
            )
        else:
            best = np.full(len(vt), NEG_INF, _F)
        top = np.maximum(q_z1[vt], q_z2[vt])
        vis_v = (best == NEG_INF) | (top > best + eps)
        part_q_vt = vt[vis_v]
        part_y_vt = y[vis_v]
    else:
        part_q_vt = e_i
        part_y_vt = e_f

    # ---- combine, (query, y)-ordered --------------------------------
    if len(part_q_vt):
        pq = np.concatenate([part_q_nv, part_q_vt])
        pya = np.concatenate([part_ya_nv, part_y_vt])
        pyb = np.concatenate([part_yb_nv, part_y_vt])
        order = np.argsort(pq, kind="stable")
        part_query = pq[order]
        part_ya = pya[order]
        part_yb = pyb[order]
    else:
        part_query, part_ya, part_yb = part_q_nv, part_ya_nv, part_yb_nv

    return FlatVisibility(
        part_query, part_ya, part_yb, cross_q_nv, cross_y, cross_z, ops
    )
