"""Engine-equivalence suite for the batched visibility kernel.

Same contract as ``tests/test_envelope_flat.py``: the NumPy kernel
must be an *exact* replica of the scalar reference — identical parts
(bit-for-bit floats), crossings and ``ops`` for every query, on
adversarial inputs with eps-scale jitters, verticals, gaps and
near-parallel crossings.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envelope.build import build_envelope
from repro.envelope.chain import Envelope
from repro.envelope.flat import FlatEnvelope
from repro.envelope.flat_visibility import batch_visible_parts
from repro.envelope.visibility import visible_parts
from repro.geometry.segments import ImageSegment
from tests.conftest import random_image_segments

_JITTERS = (0.0, 0.0, 1e-9, -1e-9, 5e-10, 1e-12, 2e-9)


@st.composite
def adversarial_queries(draw, max_queries=6, allow_vertical=True):
    n = draw(st.integers(1, max_queries))
    out = []
    for i in range(n):
        y1 = draw(st.integers(0, 12)) * 0.5 + draw(
            st.sampled_from(_JITTERS)
        )
        if allow_vertical and draw(st.booleans()) and i % 3 == 0:
            width = 0.0
        else:
            width = abs(
                draw(st.integers(0, 8)) * 0.5
                + draw(st.sampled_from(_JITTERS))
            )
        z1 = draw(st.integers(0, 8)) * 0.5 + draw(
            st.sampled_from(_JITTERS)
        )
        z2 = draw(
            st.one_of(
                st.integers(0, 8).map(lambda k: k * 0.5),
                st.just(z1),
                st.sampled_from(_JITTERS).map(lambda j: z1 + j),
            )
        )
        out.append(ImageSegment(y1, z1, y1 + width, z2, 100 + i))
    return out


@st.composite
def adversarial_envelope(draw, max_segments=8):
    n = draw(st.integers(0, max_segments))
    segs = []
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
        z2 = draw(st.integers(0, 8)) * 0.5
        segs.append(ImageSegment(y1, z1, y1 + abs(width), z2, i))
    return build_envelope(segs, engine="python").envelope


def assert_query_identical(got, ref) -> None:
    assert got.parts == ref.parts
    assert got.crossings == ref.crossings
    assert got.ops == ref.ops


class TestBatchParity:
    @given(adversarial_envelope(), adversarial_queries())
    @settings(max_examples=200, deadline=None)
    def test_adversarial(self, env, queries):
        res = batch_visible_parts(env, queries)
        for k, q in enumerate(queries):
            assert_query_identical(
                res.result_of(k), visible_parts(q, env)
            )

    @given(adversarial_envelope(), adversarial_queries())
    @settings(max_examples=50, deadline=None)
    def test_results_matches_result_of(self, env, queries):
        res = batch_visible_parts(env, queries)
        all_res = res.results()
        assert len(all_res) == len(queries)
        for k in range(len(queries)):
            assert all_res[k] == res.result_of(k)

    @pytest.mark.slow
    @given(
        adversarial_envelope(max_segments=24),
        adversarial_queries(max_queries=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_adversarial_deep(self, env, queries):
        res = batch_visible_parts(env, queries)
        for k, q in enumerate(queries):
            assert_query_identical(
                res.result_of(k), visible_parts(q, env)
            )

    def test_random_large(self, rng):
        segs = random_image_segments(rng, 300)
        env = build_envelope(segs, engine="python").envelope
        queries = [
            ImageSegment(q.y1, q.z1, q.y2, q.z2, 1000 + i)
            for i, q in enumerate(random_image_segments(rng, 100))
        ]
        res = batch_visible_parts(
            FlatEnvelope.from_envelope(env), queries
        )
        for k, q in enumerate(queries):
            assert_query_identical(
                res.result_of(k), visible_parts(q, env)
            )

    def test_empty_envelope(self):
        res = batch_visible_parts(
            Envelope.empty(),
            [
                ImageSegment(0.0, 1.0, 4.0, 2.0, 0),
                ImageSegment(1.0, 0.0, 1.0, 3.0, 1),  # vertical
            ],
        )
        a = res.result_of(0)
        assert a.fully_visible and a.parts == [(0.0, 4.0)]
        assert a.ops == 1
        b = res.result_of(1)
        assert b.parts == [(1.0, 1.0)] and b.ops == 1

    def test_empty_queries(self):
        res = batch_visible_parts(Envelope.empty(), [])
        assert res.n_queries == 0 and len(res.part_query) == 0

    def test_single_query_wrapper(self, rng):
        segs = random_image_segments(rng, 40)
        env = build_envelope(segs, engine="python").envelope
        q = ImageSegment(10.0, 20.0, 80.0, 21.0, 999)
        assert_query_identical(
            batch_visible_parts(env, (q,)).result_of(0), visible_parts(q, env)
        )

    def test_negative_zero_boundary(self):
        # Pieces starting at -0.0 and +0.0, queried up to the other
        # zero: bisect treats the zeros as equal, so the batched
        # locate must too, or the overlap range and ops shift.
        for start in (-0.0, 0.0):
            env = build_envelope(
                [ImageSegment(start, 1.0, 5.0, 1.0, 0)], engine="python"
            ).envelope
            queries = [
                ImageSegment(-3.0, 9.0, 0.0, 9.0, 100),
                ImageSegment(-1.0, 9.0, -0.0, 9.0, 101),
                ImageSegment(-0.0, 0.0, 0.0, 9.0, 102),
            ]
            res = batch_visible_parts(FlatEnvelope.from_envelope(env), queries)
            for k, q in enumerate(queries):
                assert_query_identical(res.result_of(k), visible_parts(q, env))


def _run_incremental_pair(segments, *, eps=None):
    """Run the python insert loop and the flat-profile loop over the
    same front-to-back sequence, asserting bit-exact agreement at
    every step; returns the final profiles."""
    from repro.envelope.flat_splice import insert_segment_flat
    from repro.envelope.packed import PackedProfile
    from repro.envelope.splice import insert_segment
    from repro.geometry.primitives import EPS

    eps = EPS if eps is None else eps
    env = Envelope.empty()
    prof = PackedProfile.empty()
    for i, seg in enumerate(segments):
        ref = insert_segment(env, seg, eps=eps)
        got = insert_segment_flat(prof, seg, eps=eps)
        assert_query_identical(got.visibility, ref.visibility)
        assert got.ops == ref.ops, f"step {i}: ops drift"
        env = ref.envelope
        prof = got.profile
        assert prof.to_envelope().pieces == env.pieces, (
            f"step {i}: profile drift"
        )
    return env, prof


class TestIncrementalRuns:
    """Full incremental (SequentialHSR-shaped) runs: the flat-native
    profile must replicate the reference insert loop bit for bit,
    including the vertical point queries and eps-scale near-ties the
    per-query suite above exercises."""

    @given(adversarial_queries(max_queries=12, allow_vertical=True))
    @settings(max_examples=200, deadline=None)
    def test_adversarial_inserts(self, segments):
        _run_incremental_pair(segments)

    @pytest.mark.slow
    @given(adversarial_queries(max_queries=20, allow_vertical=True))
    @settings(max_examples=300, deadline=None)
    def test_adversarial_inserts_deep(self, segments):
        _run_incremental_pair(segments)

    def test_random_large_run(self, rng):
        segs = random_image_segments(rng, 400)
        # Sprinkle vertical edges through the sequence.
        segs = [
            ImageSegment(s.y1, s.z1, s.y1, s.z1 + 3.0, s.source)
            if i % 17 == 0
            else s
            for i, s in enumerate(segs)
        ]
        env, prof = _run_incremental_pair(segs)
        assert env.size > 0
        assert prof.size == env.size

    def test_hidden_and_vertical_share_profile(self, rng):
        # Hidden or vertical inserts must return the *same* profile
        # object (no splice performed) — mirroring insert_segment's
        # identity semantics.
        from repro.envelope.flat_splice import insert_segment_flat
        from repro.envelope.packed import PackedProfile

        prof = insert_segment_flat(
            PackedProfile.empty(), ImageSegment(0.0, 10.0, 10.0, 10.0, 0)
        ).profile
        hidden = insert_segment_flat(
            prof, ImageSegment(2.0, 1.0, 8.0, 1.0, 1)
        )
        assert hidden.profile is prof
        assert hidden.visibility.fully_hidden
        vertical = insert_segment_flat(
            prof, ImageSegment(5.0, 0.0, 5.0, 99.0, 2)
        )
        assert vertical.profile is prof
        assert not vertical.visibility.fully_hidden


class TestSequentialThreading:
    def test_sequential_hsr_engine_parity(self):
        from repro.hsr.sequential import SequentialHSR
        from repro.terrain.generators import fractal_terrain

        terrain = fractal_terrain(size=9, seed=11)
        rp = SequentialHSR(engine="python").run(terrain)
        rn = SequentialHSR(engine="numpy").run(terrain)
        assert rp.stats.ops == rn.stats.ops
        assert rp.stats.k == rn.stats.k
        assert rp.visibility_map.segments == rn.visibility_map.segments
        assert rp.stats.extra == rn.stats.extra


class TestPhase2Threading:
    def test_direct_mode_engine_parity(self):
        from repro.hsr.pct import build_pct
        from repro.hsr.phase2 import run_phase2
        from repro.ordering.separator import SeparatorTree
        from repro.ordering.sweep import front_to_back_order
        from repro.terrain.generators import fractal_terrain

        terrain = fractal_terrain(size=9, seed=19)
        order = front_to_back_order(terrain)
        tree = SeparatorTree(order)
        segs = terrain.image_segments()
        pcts = {
            e: build_pct(tree, segs, engine=e)
            for e in ("python", "numpy")
        }
        rp = run_phase2(
            pcts["python"], segs, mode="direct", engine="python"
        )
        rn = run_phase2(
            pcts["numpy"], segs, mode="direct", engine="numpy"
        )
        assert rp.ops == rn.ops
        assert rp.crossings == rn.crossings
        assert set(rp.visibility) == set(rn.visibility)
        for e in rp.visibility:
            assert_query_identical(rn.visibility[e], rp.visibility[e])
        for la, lb in zip(rp.layers, rn.layers):
            assert (
                la.ops,
                la.crossings,
                la.merges,
                la.inherited_pieces,
            ) == (lb.ops, lb.crossings, lb.merges, lb.inherited_pieces)
