"""Algebraic property tests for the envelope (upper-profile) algebra.

The point-wise maximum is associative, commutative and idempotent;
the array merge, the rope splice merge and the rope ACG merge must all
realise the same algebra.  Hypothesis drives random small envelopes
through these laws.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envelope.build import build_envelope
from repro.envelope.chain import Envelope
from repro.envelope.merge import merge_envelopes
from repro.geometry.primitives import NEG_INF
from repro.geometry.segments import ImageSegment


@st.composite
def envelopes(draw, max_segments=8, src_base=0):
    n = draw(st.integers(0, max_segments))
    segs = []
    for i in range(n):
        y1 = draw(st.floats(0, 80, allow_nan=False))
        w = draw(st.floats(0.5, 30, allow_nan=False))
        z1 = draw(st.floats(0, 40, allow_nan=False))
        z2 = draw(st.floats(0, 40, allow_nan=False))
        segs.append(ImageSegment(y1, z1, y1 + w, z2, src_base + i))
    return build_envelope(segs).envelope


def sample_points(*envs: Envelope) -> list[float]:
    ys: set[float] = set()
    for e in envs:
        for p in e.pieces:
            ys.update((p.ya, p.yb, 0.5 * (p.ya + p.yb)))
    out = sorted(ys)
    mids = [0.5 * (a + b) for a, b in zip(out, out[1:])]
    return out + mids


def env_close(a: Envelope, b: Envelope, pts, tol=1e-6) -> bool:
    for y in pts:
        va, vb = a.value_at(y), b.value_at(y)
        if va == NEG_INF or vb == NEG_INF:
            if va != vb and not _near_any_boundary(y, a, b):
                return False
            continue
        if abs(va - vb) > tol:
            return False
    return True


def _near_any_boundary(y, *envs, eps=1e-9):
    for e in envs:
        for p in e.pieces:
            if abs(p.ya - y) <= eps or abs(p.yb - y) <= eps:
                return True
    return False


class TestMaxAlgebra:
    @given(envelopes(src_base=0), envelopes(src_base=100))
    @settings(max_examples=80, deadline=None)
    def test_commutative(self, a, b):
        ab = merge_envelopes(a, b).envelope
        ba = merge_envelopes(b, a).envelope
        assert env_close(ab, ba, sample_points(a, b))

    @given(
        envelopes(src_base=0),
        envelopes(src_base=100),
        envelopes(src_base=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        left = merge_envelopes(
            merge_envelopes(a, b).envelope, c
        ).envelope
        right = merge_envelopes(
            a, merge_envelopes(b, c).envelope
        ).envelope
        assert env_close(left, right, sample_points(a, b, c))

    @given(envelopes())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, a):
        aa = merge_envelopes(a, a).envelope
        assert env_close(aa, a, sample_points(a))

    @given(envelopes())
    @settings(max_examples=60, deadline=None)
    def test_identity(self, a):
        assert env_close(
            merge_envelopes(a, Envelope.empty()).envelope,
            a,
            sample_points(a),
        )

    @given(envelopes(src_base=0), envelopes(src_base=100))
    @settings(max_examples=80, deadline=None)
    def test_dominance(self, a, b):
        m = merge_envelopes(a, b).envelope
        for y in sample_points(a, b):
            vm = m.value_at(y)
            want = max(a.value_at(y), b.value_at(y))
            if want == NEG_INF:
                assert vm == NEG_INF or _near_any_boundary(y, a, b)
            else:
                assert vm >= want - 1e-7

    @given(envelopes(src_base=0), envelopes(src_base=100))
    @settings(max_examples=50, deadline=None)
    def test_merge_size_linear(self, a, b):
        # Output complexity is at most linear in input pieces plus
        # crossings (no breakpoint-product blowup).
        res = merge_envelopes(a, b)
        assert res.envelope.size <= 2 * (a.size + b.size) + 2 * len(
            res.crossings
        ) + 2

    @given(envelopes(src_base=0), envelopes(src_base=100))
    @settings(max_examples=50, deadline=None)
    def test_result_validates(self, a, b):
        merge_envelopes(a, b).envelope.validate()


class TestEngineEquivalence:
    @given(envelopes(src_base=0), envelopes(src_base=100))
    @settings(max_examples=60, deadline=None)
    def test_three_merge_engines_agree(self, a, b):
        from repro.hsr.acg_rope import acg_rope_splice_merge
        from repro.persistence.rope import (
            rope_from_envelope,
            rope_splice_merge,
        )

        want = merge_envelopes(a, b).envelope
        pts = sample_points(a, b)

        r1, _ = rope_splice_merge(rope_from_envelope(a), b)
        assert env_close(Envelope(r1.to_pieces()), want, pts)

        r2, _ = acg_rope_splice_merge(rope_from_envelope(a), b)
        assert env_close(Envelope(r2.to_pieces()), want, pts)
