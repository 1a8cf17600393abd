"""Unit and property tests for segment-vs-profile visibility."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envelope.build import build_envelope
from repro.envelope.chain import Envelope, Piece
from repro.envelope.engine import HAVE_NUMPY
from repro.envelope.visibility import visible_parts
from repro.geometry.primitives import EPS
from repro.geometry.segments import ImageSegment
from tests.conftest import brute_force_envelope_value, random_image_segments


def seg(y1, z1, y2, z2, src=99):
    return ImageSegment(float(y1), float(z1), float(y2), float(z2), src)


def flat(z, y1=0.0, y2=10.0, src=0):
    return Envelope([Piece(y1, float(z), y2, float(z), src)])


@pytest.fixture(
    params=[
        "python",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(
                not HAVE_NUMPY, reason="numpy not installed"
            ),
        ),
    ]
)
def vis(request):
    """``visible_parts`` on the selected engine (numpy: a one-query
    :func:`~repro.envelope.flat_visibility.batch_visible_parts`).

    Both engines must return identical parts, crossings and ops —
    the vertical/eps edge-case classes below run under each.
    """
    if request.param == "python":
        return visible_parts

    from repro.envelope.flat_visibility import batch_visible_parts

    def flat_vis(s, env, *, eps=EPS):
        return batch_visible_parts(env, (s,), eps=eps).result_of(0)

    return flat_vis


class TestVerticalSharedEngines:
    """``_visible_vertical`` degeneracies, on both engines."""

    def test_above_profile(self, vis):
        res = vis(seg(5, 0, 5, 2), flat(1))
        assert res.parts == [(5.0, 5.0)]
        assert res.ops == 1 and res.crossings == []

    def test_below_profile(self, vis):
        res = vis(seg(5, 0, 5, 0.5), flat(1))
        assert res.fully_hidden and res.ops == 1

    def test_exactly_at_profile_is_hidden(self, vis):
        # Coincident top endpoint: the profile owns shared geometry.
        assert vis(seg(5, 0, 5, 1.0), flat(1)).fully_hidden

    def test_eps_above_profile_is_hidden(self, vis):
        assert vis(seg(5, 0, 5, 1.0 + 1e-10), flat(1)).fully_hidden

    def test_just_past_eps_is_visible(self, vis):
        res = vis(seg(5, 0, 5, 1.0 + 1e-8), flat(1))
        assert res.parts == [(5.0, 5.0)]

    def test_in_gap(self, vis):
        env = Envelope(
            [Piece(0, 1, 3, 1, 0), Piece(7, 1, 9, 1, 1)]
        )
        res = vis(seg(5, -9, 5, -8), env)
        assert res.parts == [(5.0, 5.0)]

    def test_at_jump_breakpoint_takes_max_limit(self, vis):
        # Two pieces meet at y=5 with a jump: the profile value is the
        # max of the one-sided limits (upper semi-continuity).
        env = Envelope(
            [Piece(0, 1, 5, 1, 0), Piece(5, 3, 10, 3, 1)]
        )
        assert vis(seg(5, 0, 5, 2), env).fully_hidden
        res = vis(seg(5, 0, 5, 4), env)
        assert res.parts == [(5.0, 5.0)]

    def test_at_support_boundary(self, vis):
        # Exactly at the profile's last breakpoint; beyond it, a gap.
        assert vis(seg(10, 0, 10, 0.5), flat(1)).fully_hidden
        res = vis(seg(10 + 1e-6, 0, 10 + 1e-6, 0.5), flat(1))
        assert res.parts == [(res.parts[0].ya, res.parts[0].ya)]


class TestEpsBoundariesSharedEngines:
    """Touching endpoints and zero-width slivers, on both engines."""

    def test_touching_endpoint_keeps_closure(self, vis):
        # Rising from exactly the profile height: the visible part
        # reaches back to the shared endpoint.
        res = vis(seg(0, 1, 10, 3), flat(1))
        assert len(res.parts) == 1
        assert res.parts[0].ya <= 1e-9

    def test_zero_width_sliver_is_dropped(self, vis):
        # The segment pokes above the profile over a sub-eps interval:
        # the degenerate sliver is reported hidden.
        env = flat(1.0)
        res = vis(seg(4.0, 1.0 - 1e-12, 4.0 + 5e-10, 1.0 + 5e-13), env)
        assert res.fully_hidden

    def test_sub_eps_gap_between_parts_merges(self, vis):
        # Two profile pieces separated by a sub-eps gap: the two
        # visible slivers of a crossing segment coalesce.
        env = Envelope(
            [
                Piece(0.0, 5.0, 4.0, 5.0, 0),
                Piece(4.0 + 5e-10, 5.0, 8.0, 5.0, 1),
            ]
        )
        res = vis(seg(-2, 8, 10, 8), env)
        assert res.parts == [(-2.0, 10.0)]

    def test_eps_touching_profile_is_hidden(self, vis):
        res = vis(seg(0, 1.0 + 5e-10, 10, 1.0 - 5e-10), flat(1))
        assert res.fully_hidden

    def test_coincident_with_sliver_above(self, vis):
        # Coincident almost everywhere, rising just past eps at the
        # right end: one part, no spurious crossings at the eps edge.
        res = vis(seg(0, 1.0, 10, 1.0 + 3e-9), flat(1))
        ref = visible_parts(seg(0, 1.0, 10, 1.0 + 3e-9), flat(1))
        assert res.parts == ref.parts
        assert res.crossings == ref.crossings
        assert res.ops == ref.ops

    def test_endpoint_touch_at_piece_boundary(self, vis):
        env = Envelope(
            [Piece(0, 0, 5, 5, 0), Piece(5, 5, 10, 0, 0)]
        )
        # Touches the apex exactly; visible on neither side beyond it.
        res = vis(seg(0, 5, 10, 5), env)
        ref = visible_parts(seg(0, 5, 10, 5), env)
        assert res.parts == ref.parts and res.ops == ref.ops


class TestBasicCases:
    def test_empty_profile_fully_visible(self):
        res = visible_parts(seg(0, 1, 5, 2), Envelope.empty())
        assert res.fully_visible
        assert res.parts[0] == (0.0, 5.0)

    def test_fully_above(self):
        res = visible_parts(seg(1, 5, 9, 5), flat(1))
        assert res.fully_visible

    def test_fully_below(self):
        res = visible_parts(seg(1, 0.2, 9, 0.5), flat(1))
        assert res.fully_hidden
        assert res.crossings == []

    def test_single_crossing_rising(self):
        res = visible_parts(seg(0, 0, 10, 2), flat(1))
        assert len(res.parts) == 1
        ya, yb = res.parts[0]
        assert math.isclose(ya, 5.0)
        assert math.isclose(yb, 10.0)
        assert len(res.crossings) == 1
        assert math.isclose(res.crossings[0][0], 5.0)

    def test_double_crossing_peak(self):
        # Profile is a tent; segment is a low horizontal line crossing
        # both flanks: visible on both sides of the tent.
        env = Envelope(
            [Piece(0, 0, 5, 5, 0), Piece(5, 5, 10, 0, 0)]
        )
        res = visible_parts(seg(0, 2.5, 10, 2.5), env)
        assert len(res.parts) == 2
        assert len(res.crossings) == 2
        (a1, b1), (a2, b2) = res.parts
        assert math.isclose(b1, 2.5) and math.isclose(a2, 7.5)

    def test_visible_through_gap(self):
        env = Envelope(
            [Piece(0, 10, 3, 10, 0), Piece(7, 10, 10, 10, 1)]
        )
        res = visible_parts(seg(0, 1, 10, 1), env)
        assert len(res.parts) == 1
        assert res.parts[0] == (3.0, 7.0)

    def test_extends_past_profile(self):
        res = visible_parts(seg(-5, 2, 15, 2), flat(1, 0, 10))
        # Visible before 0, above everywhere actually since z=2 > 1.
        assert res.parts[0] == (-5.0, 15.0)

    def test_hidden_except_overhang(self):
        res = visible_parts(seg(-5, 0.5, 15, 0.5), flat(1, 0, 10))
        assert len(res.parts) == 2
        assert res.parts[0] == (-5.0, 0.0)
        assert res.parts[1] == (10.0, 15.0)

    def test_coincident_is_hidden(self):
        res = visible_parts(seg(0, 1, 10, 1), flat(1))
        assert res.fully_hidden

    def test_endpoint_touch_keeps_closure(self):
        # Segment rises from exactly the profile height at its left
        # endpoint: visible part must reach back to the endpoint.
        res = visible_parts(seg(0, 1, 10, 3), flat(1))
        assert len(res.parts) == 1
        assert res.parts[0].ya <= 1e-9

    def test_total_width_and_flags(self):
        res = visible_parts(seg(0, 2, 10, 2), flat(1, 0, 5))
        assert math.isclose(res.total_width(), 10.0)
        env2 = flat(3)
        assert visible_parts(seg(0, 2, 10, 2), env2).fully_hidden


class TestVerticalSegments:
    def test_above(self):
        res = visible_parts(seg(5, 0, 5, 2), flat(1))
        assert len(res.parts) == 1
        assert res.parts[0].ya == res.parts[0].yb == 5.0

    def test_below(self):
        assert visible_parts(seg(5, 0, 5, 0.5), flat(1)).fully_hidden

    def test_in_gap(self):
        env = Envelope([Piece(0, 1, 3, 1, 0)])
        res = visible_parts(seg(5, 0, 5, 0.5), env)
        assert len(res.parts) == 1


class TestAgainstBruteForce:
    def test_random_scan(self, rng):
        for _ in range(25):
            segs = random_image_segments(rng, rng.randint(1, 20))
            env = build_envelope(segs).envelope
            q = random_image_segments(rng, 1)[0]
            q = ImageSegment(q.y1, q.z1, q.y2, q.z2, 999)
            res = visible_parts(q, env)
            # Sample densely: visibility verdicts must match pointwise.
            for i in range(1, 100):
                y = q.y1 + (q.y2 - q.y1) * i / 100
                zq = q.z_at(y)
                ze = brute_force_envelope_value(segs, y)
                inside = any(p.ya < y < p.yb for p in res.parts)
                if zq > ze + 1e-6:
                    assert inside, f"y={y} should be visible"
                elif zq < ze - 1e-6:
                    assert not inside, f"y={y} should be hidden"

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 50, allow_nan=False),
                st.floats(0, 20, allow_nan=False),
                st.floats(0.5, 30, allow_nan=False),
                st.floats(0, 20, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        ),
        st.tuples(
            st.floats(0, 50, allow_nan=False),
            st.floats(0, 25, allow_nan=False),
            st.floats(1, 30, allow_nan=False),
            st.floats(0, 25, allow_nan=False),
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_parts_are_sane(self, raw_segs, raw_q):
        segs = [
            ImageSegment(y1, z1, y1 + w, z2, i)
            for i, (y1, z1, w, z2) in enumerate(raw_segs)
        ]
        env = build_envelope(segs).envelope
        y1, z1, w, z2 = raw_q
        q = ImageSegment(y1, z1, y1 + w, z2, 999)
        res = visible_parts(q, env)
        prev_end = None
        for p in res.parts:
            assert q.y1 - 1e-9 <= p.ya <= p.yb <= q.y2 + 1e-9
            if prev_end is not None:
                assert p.ya > prev_end  # maximal, disjoint, sorted
            prev_end = p.yb
        for (y, z) in res.crossings:
            assert q.y1 <= y <= q.y2
