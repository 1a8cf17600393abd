"""Engine-equivalence suite: the array engine must be an exact replica
of the pure-Python reference.

Unlike the tolerance-based comparisons elsewhere in the test suite,
these assertions are *exact*: same pieces (bit-for-bit floats), same
sources, same crossings, same ``ops``.  The array engine's pairwise
merge is the compiled core's (the merge of its envelope build), which
mirrors the scalar arithmetic operation for operation, so anything
weaker would hide a divergence.

The hypothesis strategies are deliberately adversarial: endpoint
coordinates come from a small shared pool with jitters of ``0``,
``eps`` and sub-``eps`` sizes, producing coincident pieces,
eps-touching endpoints, gaps, and near-parallel crossings far more
often than uniform sampling would.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envelope import _ccore
from repro.envelope.build import build_envelope, build_envelope_sequential
from repro.envelope.chain import Envelope, Piece
from repro.envelope.flat import FlatEnvelope
from repro.envelope.merge import MergeResult, merge_envelopes, merge_many
from repro.errors import EnvelopeError
from repro.geometry.primitives import NEG_INF
from repro.geometry.segments import ImageSegment
from repro.pram.tracker import PramTracker
from tests.conftest import random_image_segments
from tests.test_phase2_ccore import (
    _piece_segments,
    assert_build_identical,
    halves_rebuilt,
)

# A coarse coordinate pool plus eps-scale jitters: exact coincidences
# and barely-separated endpoints appear with high probability.
_JITTERS = (0.0, 0.0, 1e-9, -1e-9, 5e-10, 1e-12, 2e-9)


@st.composite
def adversarial_segments(draw, max_segments=10, src_base=0):
    n = draw(st.integers(0, max_segments))
    out = []
    for i in range(n):
        y1 = draw(st.integers(0, 12)) * 0.5 + draw(
            st.sampled_from(_JITTERS)
        )
        width = draw(st.integers(1, 8)) * 0.5 + draw(
            st.sampled_from(_JITTERS)
        )
        z1 = draw(st.integers(0, 8)) * 0.5 + draw(
            st.sampled_from(_JITTERS)
        )
        # Near-parallel crossings: z2 close to z1 plus a tiny tilt.
        z2 = draw(
            st.one_of(
                st.integers(0, 8).map(lambda k: k * 0.5),
                st.just(z1),
                st.sampled_from(_JITTERS).map(lambda j: z1 + j),
            )
        )
        out.append(ImageSegment(y1, z1, y1 + abs(width), z2, src_base + i))
    return out


def env_of(segs):
    return build_envelope(segs, engine="python").envelope


def assert_merge_identical(a: Envelope, b: Envelope) -> MergeResult:
    """The compiled build over ``a``'s pieces then ``b``'s, crossings
    recorded, against the reference build of the same segments; when
    :func:`halves_rebuilt` holds, its root merge against
    ``merge_envelopes(a, b)``.  Returns the compiled build."""
    got, merge_ops = assert_build_identical(_piece_segments(a, b))
    if halves_rebuilt(a, b):
        ref = merge_envelopes(a, b)
        assert got.envelope.pieces == ref.envelope.pieces
        assert got.crossings == ref.crossings
        assert merge_ops[-1] == ref.ops
    return got


class TestRoundTrip:
    @given(adversarial_segments())
    @settings(max_examples=100, deadline=None)
    def test_envelope_round_trip(self, segs):
        env = env_of(segs)
        flat = FlatEnvelope.from_envelope(env)
        flat.validate()
        assert flat.to_envelope().pieces == env.pieces
        assert flat.size == env.size

    def test_empty_round_trip(self):
        assert FlatEnvelope.from_envelope(Envelope.empty()).to_envelope().pieces == []
        assert not FlatEnvelope.empty()

    def test_validate_rejects_overlap(self):
        bad = FlatEnvelope.from_envelope(Envelope.empty())
        bad.ya = np.array([0.0, 0.5])
        bad.za = np.array([0.0, 0.0])
        bad.yb = np.array([1.0, 1.5])
        bad.zb = np.array([0.0, 0.0])
        bad.source = np.array([0, 1])
        with pytest.raises(EnvelopeError):
            bad.validate()


@pytest.mark.skipif(not _ccore.HAVE_CCORE, reason="compiled core not built")
class TestMergeParity:
    @given(
        adversarial_segments(src_base=0),
        adversarial_segments(src_base=100),
    )
    @settings(max_examples=150, deadline=None)
    def test_adversarial_pairs(self, sa, sb):
        assert_merge_identical(env_of(sa), env_of(sb))

    @pytest.mark.slow
    @given(
        adversarial_segments(max_segments=24, src_base=0),
        adversarial_segments(max_segments=24, src_base=100),
    )
    @settings(max_examples=300, deadline=None)
    def test_adversarial_pairs_deep(self, sa, sb):
        assert_merge_identical(env_of(sa), env_of(sb))

    def test_coincident_pieces(self):
        # Identical geometry, different sources — ties must go to ``a``
        # in both engines, with no crossings.
        a = env_of([ImageSegment(0.0, 1.0, 4.0, 3.0, 7)])
        b = env_of([ImageSegment(0.0, 1.0, 4.0, 3.0, 8)])
        res = assert_merge_identical(a, b)
        assert res.envelope.sources() == {7}
        assert res.crossings == []

    def test_eps_touching_endpoints(self):
        for offset in (0.0, 1e-9, -1e-9, 1e-12, 2e-9):
            a = env_of([ImageSegment(0.0, 1.0, 2.0, 1.0, 0)])
            b = env_of([ImageSegment(2.0 + offset, 1.0, 4.0, 1.0, 1)])
            assert_merge_identical(a, b)

    def test_gaps(self):
        a = env_of(
            [
                ImageSegment(0.0, 1.0, 1.0, 1.0, 0),
                ImageSegment(5.0, 2.0, 6.0, 2.0, 1),
            ]
        )
        b = env_of([ImageSegment(2.0, 3.0, 3.0, 3.0, 2)])
        assert_merge_identical(a, b)
        assert_merge_identical(b, a)  # halves b | a: the root merge

    def test_near_parallel_crossing(self):
        a = env_of([ImageSegment(0.0, 1.0, 10.0, 1.0 + 3e-9, 0)])
        b = env_of([ImageSegment(0.0, 1.0 + 2e-9, 10.0, 1.0 - 1e-9, 1)])
        assert_merge_identical(a, b)

    def test_steep_crossing(self):
        a = env_of([ImageSegment(0.0, 0.0, 10.0, 10.0, 0)])
        b = env_of([ImageSegment(0.0, 10.0, 10.0, 0.0, 1)])
        res = assert_merge_identical(a, b)
        assert len(res.crossings) == 1

    def test_empty_sides(self):
        e = Envelope.empty()
        a = env_of([ImageSegment(0.0, 1.0, 2.0, 2.0, 0)])
        for x, y in ((a, e), (e, a), (e, e)):
            assert_merge_identical(x, y)
        # Empty-side fast path returns the other side verbatim.
        res = assert_merge_identical(e, a)
        assert res.ops == a.size and res.crossings == []

    def test_synthetic_source_coalescing(self):
        # Synthetic (source -1) pieces on one side.
        a = Envelope(
            [Piece(0.0, 1.0, 2.0, 1.0, -1), Piece(2.0, 1.0, 4.0, 1.0, -1)]
        )
        b = env_of([ImageSegment(1.0, 0.5, 3.0, 0.5, 5)])
        assert_merge_identical(a, b)


class TestBuildParity:
    @given(adversarial_segments(max_segments=20))
    @settings(max_examples=100, deadline=None)
    def test_build_engines_identical(self, segs):
        rp = build_envelope(segs, engine="python")
        rn = build_envelope(segs, engine="numpy")
        assert rn.envelope.pieces == rp.envelope.pieces
        assert rn.crossings == rp.crossings
        assert rn.ops == rp.ops

    @pytest.mark.slow
    def test_build_parity_large_random(self):
        rng = random.Random(20480)
        for m in (63, 64, 65, 257, 1024):
            segs = random_image_segments(rng, m)
            rp = build_envelope(segs, engine="python")
            rn = build_envelope(segs, engine="numpy")
            assert rn.envelope.pieces == rp.envelope.pieces, m
            assert rn.crossings == rp.crossings, m
            assert rn.ops == rp.ops, m

    def test_tracker_charges_identical(self):
        rng = random.Random(7)
        for m in (1, 2, 3, 17, 200):
            segs = random_image_segments(rng, m)
            tp, tn = PramTracker(), PramTracker()
            build_envelope(segs, engine="python", tracker=tp)
            build_envelope(segs, engine="numpy", tracker=tn)
            assert tp.work == tn.work, m
            assert tp.depth == tn.depth, m

    def test_vertical_segments_skipped(self):
        segs = [
            ImageSegment(1.0, 0.0, 1.0, 5.0, 0),
            ImageSegment(0.0, 1.0, 2.0, 1.0, 1),
        ]
        rp = build_envelope(segs, engine="python")
        rn = build_envelope(segs, engine="numpy")
        assert rn.envelope.pieces == rp.envelope.pieces
        assert rn.envelope.sources() == {1}

    def test_empty_input(self):
        assert build_envelope([], engine="numpy").envelope.size == 0


class TestMergeMany:
    def test_balanced_matches_brute_force(self, rng):
        segs = random_image_segments(rng, 24)
        envs = [Envelope.from_segment(s) for s in segs]
        res = merge_many(envs)
        res.envelope.validate()
        for _ in range(60):
            y = rng.uniform(0, 100)
            want = max((e.value_at(y) for e in envs), default=NEG_INF)
            got = res.envelope.value_at(y)
            if want == NEG_INF:
                assert got == NEG_INF
            else:
                assert abs(got - want) <= 1e-7

    def test_earlier_envelope_wins_ties(self):
        # Same geometry in all inputs: the first source must win, as
        # it did under the left fold.
        envs = [
            Envelope([Piece(0.0, 1.0, 2.0, 1.0, s)]) for s in (3, 5, 9)
        ]
        assert merge_many(envs).envelope.sources() == {3}

    def test_empty(self):
        assert merge_many([]).envelope.size == 0


class TestSequentialGuard:
    def test_warns_above_threshold(self, rng):
        segs = random_image_segments(rng, 8)
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always")
            build_envelope_sequential(segs, max_segments=4)
        assert any(
            issubclass(w.category, RuntimeWarning) for w in wlist
        )

    def test_raises_when_asked(self, rng):
        segs = random_image_segments(rng, 8)
        with pytest.raises(EnvelopeError, match="m²"):
            build_envelope_sequential(
                segs, max_segments=4, on_exceed="raise"
            )

    def test_silent_below_threshold_and_when_disabled(self, rng):
        segs = random_image_segments(rng, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_envelope_sequential(segs, max_segments=8)
            build_envelope_sequential(segs, max_segments=None)

    def test_unknown_policy_rejected(self, rng):
        with pytest.raises(EnvelopeError, match="on_exceed"):
            build_envelope_sequential(
                random_image_segments(rng, 2), on_exceed="explode"
            )
