"""Tests for the chunked-rope persistent store — model fuzz, queries,
splice boundaries, visibility, O(1) checkout, sharing meters, the
``rope_splice`` guard, and Phase-2 engine parity.

The rope (:mod:`repro.persistence.rope`) must be *bit-exact* against a
plain sorted piece list driven through the same window-local merge
(the model, :func:`_model_splice`).  The hypothesis suites steer
splices onto chunk boundaries, straddling pieces, and interleaved
version histories, and re-run under ``CHUNK_TARGET`` 1, 2 and 3 so
every chunk-shape edge case (capacity-1 chunks, all-boundary splices)
is exercised.  Phase 2's batched numpy layer merges are checked
against the scalar ``engine="python"`` path on the same store.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envelope.build import build_envelope
from repro.envelope.chain import Envelope, Piece
from repro.envelope.merge import merge_envelopes
from repro.geometry.primitives import NEG_INF
from repro.geometry.segments import ImageSegment
from repro.envelope.visibility import visible_parts
from repro.persistence import rope as R
from repro.reliability import faultinject as fi
from repro.reliability import guard
from tests.conftest import random_image_segments


@pytest.fixture(autouse=True)
def _fresh_guard():
    guard.reset_ambient()
    yield
    guard.reset_ambient()


def env_of(segs):
    return build_envelope(segs).envelope


# Small non-vertical segments over a narrow span so splices frequently
# straddle existing pieces and land on chunk boundaries.
seg_st = st.builds(
    lambda y1, w, z1, z2, src: ImageSegment(y1, z1, y1 + w, z2, src),
    st.floats(0.0, 30.0, allow_nan=False),
    st.floats(0.5, 8.0, allow_nan=False),
    st.floats(0.0, 20.0, allow_nan=False),
    st.floats(0.0, 20.0, allow_nan=False),
    st.integers(0, 500),
)
batch_st = st.lists(
    st.lists(seg_st, min_size=1, max_size=4), min_size=1, max_size=8
)


def apply_history(batches):
    """Drive the same envelope batches through the rope and the
    plain-list model; return both version histories."""
    ropes = [R.EMPTY]
    models = [[]]  # plain sorted piece lists
    for i, batch in enumerate(batches):
        other = env_of(
            [
                ImageSegment(s.y1, s.z1, s.y2, s.z2, 1000 * i + j)
                for j, s in enumerate(batch)
            ]
        )
        if not other.pieces:
            continue
        new_rope, res_r = R.rope_splice_merge(ropes[-1], other)
        model, res_m = _model_splice(models[-1], other)
        if res_m is not None:
            assert res_r.ops == res_m.ops
            assert res_r.crossings == res_m.crossings
        ropes.append(new_rope)
        models.append(model)
    return ropes, models


def _model_splice(pieces, other):
    """The plain-list reference: extract the overlapped window with the
    same straddle/carry trims, merge, splice back.  Returns
    ``(pieces, merge_result)`` (no merge result into an empty model)."""
    ya, yb = other.y_span()
    if not pieces:
        return list(other.pieces), None
    left, mid, right = [], [], []
    for p in pieces:
        if p.yb <= ya and not (p.ya < ya < p.yb):
            left.append(p)
        elif p.ya >= yb:
            right.append(p)
        else:
            mid.append(p)
    carry = None
    if mid:
        if mid[0].ya < ya:
            left.append(mid[0].clipped(mid[0].ya, ya))
            mid[0] = mid[0].clipped(ya, mid[0].yb)
        if mid[-1].yb > yb:
            carry = mid[-1].clipped(yb, mid[-1].yb)
            mid[-1] = mid[-1].clipped(mid[-1].ya, yb)
    res = merge_envelopes(Envelope(mid), other)
    merged = list(res.envelope.pieces)
    if carry is not None and carry.ya < carry.yb:
        merged.append(carry)
    return left + merged + right, res


def _model_value_at(pieces, y):
    """Height at ``y``: the piece with the greatest ``ya <= y``, taken
    only when its closed span contains ``y``."""
    cand = [p for p in pieces if p.ya <= y]
    if cand and cand[-1].ya <= y <= cand[-1].yb:
        return cand[-1].z_at(y)
    return NEG_INF


def _model_range_pieces(pieces, ya, yb):
    """Keys in ``[ya, yb)`` plus the one straddling predecessor."""
    before = [p for p in pieces if p.ya < ya]
    out = [before[-1]] if before and before[-1].yb >= ya else []
    return out + [p for p in pieces if ya <= p.ya < yb]


class TestFuzzParity:
    @settings(max_examples=60, deadline=None)
    @given(batch_st)
    def test_rope_matches_model(self, batches):
        ropes, models = apply_history(batches)
        for rope, model in zip(ropes, models):
            assert rope.to_pieces() == model

    @settings(max_examples=25, deadline=None)
    @given(batch_st, st.sampled_from([1, 2, 3]))
    def test_tiny_chunks(self, batches, target):
        # Capacity-1/2/3 chunks: every splice is a chunk-boundary
        # splice and spines get long — shapes the default 32 never hits.
        saved = R.CHUNK_TARGET
        R.CHUNK_TARGET = target
        try:
            ropes, models = apply_history(batches)
            for rope, model in zip(ropes, models):
                assert rope.to_pieces() == model
                for c in rope.chunks:
                    assert 1 <= len(c) <= target
        finally:
            R.CHUNK_TARGET = saved

    @settings(max_examples=40, deadline=None)
    @given(batch_st, st.floats(-5.0, 45.0, allow_nan=False))
    def test_queries_match_model(self, batches, y):
        ropes, models = apply_history(batches)
        rope, model = ropes[-1], models[-1]
        assert R.rope_value_at(rope, y) == _model_value_at(model, y)
        assert R.rope_range_pieces(
            rope, y, y + 7.0
        ) == _model_range_pieces(model, y, y + 7.0)

    @settings(max_examples=40, deadline=None)
    @given(batch_st)
    def test_old_versions_immutable(self, batches):
        ropes, models = apply_history(batches)
        # Every historical version still answers exactly its model —
        # later splices never disturbed a shared chunk.
        for rope, model in zip(ropes, models):
            assert rope.to_pieces() == model


class TestCheckoutAndAllocation:
    def test_checkout_is_o1(self, rng):
        # Version checkout must allocate nothing: a version IS its
        # spine.  Pinned by the allocation counter, not wall clock.
        env = env_of(random_image_segments(rng, 400))
        rope = R.rope_from_envelope(env)
        R.reset_allocation_count()
        checked_out = [rope for _ in range(50)]
        for v in checked_out:
            assert v.total == env.size
            R.rope_value_at(v, 12.3)
            R.rope_range_pieces(v, 10.0, 20.0)
        assert R.allocation_count() == 0

    def test_splice_allocates_locally(self):
        # A narrow splice allocates O(affected chunks), not O(n):
        # 1000 disjoint pieces, one splice in the middle.
        pieces = [
            Piece(float(i), 1.0, i + 0.9, 1.0, i) for i in range(1000)
        ]
        rope = R.rope_from_pieces(pieces)
        narrow = Envelope.from_segment(
            ImageSegment(500.2, 9.0, 500.7, 9.0, 7777)
        )
        R.reset_allocation_count()
        new_rope, _ = R.rope_splice_merge(rope, narrow)
        # At most the two boundary chunks refold plus the merged run.
        assert R.allocation_count() <= 2 * R.CHUNK_TARGET + 8
        assert new_rope.total >= rope.total

    def test_units_match_size(self, rng):
        # Allocations are metered in piece slots: building a version
        # from scratch writes exactly one slot per piece.
        env = env_of(random_image_segments(rng, 80))
        R.reset_allocation_count()
        R.rope_from_envelope(env)
        assert R.allocation_count() == env.size

    def test_meter_is_per_thread(self, rng):
        # A run reads the meter as a delta, so chunks another thread
        # builds meanwhile must not show up in it.
        import threading

        env = env_of(random_image_segments(rng, 80))
        R.reset_allocation_count()
        other = threading.Thread(target=R.rope_from_envelope, args=(env,))
        other.start()
        other.join()
        assert R.allocation_count() == 0
        R.rope_from_envelope(env)
        assert R.allocation_count() == env.size


class TestSharingMeters:
    def test_narrow_splice_shares(self):
        pieces = [
            Piece(float(i), 1.0, i + 0.9, 1.0, i) for i in range(1000)
        ]
        rope = R.rope_from_pieces(pieces)
        narrow = Envelope.from_segment(
            ImageSegment(500.2, 9.0, 500.7, 9.0, 7777)
        )
        new_rope, _ = R.rope_splice_merge(rope, narrow)
        total_p, shared_p = R.count_shared_pieces(rope, new_rope)
        total_c, shared_c = R.count_shared_chunks(rope, new_rope)
        # Piece identity survives the splice outside the merged range;
        # chunk sharing is the coarser structural view.
        assert shared_p > 0.5 * rope.total
        assert shared_c > 0
        assert shared_p >= shared_c  # boundary slots refold as pieces
        assert total_p >= rope.total

    def test_disjoint_versions_share_nothing(self, rng):
        a = R.rope_from_envelope(env_of(random_image_segments(rng, 20)))
        b = R.rope_from_envelope(env_of(random_image_segments(rng, 20)))
        assert R.count_shared_pieces(a, b)[1] == 0
        assert R.count_shared_chunks(a, b)[1] == 0


class TestRopeSpliceGuard:
    def _merge_once(self, rng):
        env = env_of(random_image_segments(rng, 40))
        rope = R.rope_from_envelope(env)
        other = env_of(
            [
                ImageSegment(s.y1, s.z1 + 5.0, s.y2, s.z2 + 5.0, 900 + i)
                for i, s in enumerate(random_image_segments(rng, 6))
            ]
        )
        new_rope, _ = R.rope_splice_merge(rope, other)
        return rope, other, new_rope

    @pytest.mark.parametrize("mode", ["raise", "unsorted", "nan"])
    def test_scalar_commit_recovers(self, rng, mode):
        rope, other, clean = self._merge_once(rng)
        with fi.inject("rope_splice", mode) as plan:
            faulted, _ = R.rope_splice_merge(rope, other)
        assert plan.fired == 1
        assert faulted.to_pieces() == clean.to_pieces()
        # The fallback rebuild shares no *chunks* (sharing sacrificed,
        # data intact); the scalar piece objects still flow through.
        assert R.count_shared_chunks(rope, faulted)[1] == 0

    def test_strict_mode_raises(self, rng, monkeypatch):
        from repro.errors import KernelFault

        rope, other, _ = self._merge_once(rng)
        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with fi.inject("rope_splice", "nan"):
            with pytest.raises(KernelFault) as exc:
                R.rope_splice_merge(rope, other)
        assert exc.value.site == "rope_splice"


class TestPhase2BackendParity:
    """``persistent`` Phase 2 under both engines on the same
    reference-built PCT: the numpy engine needs the compiled CSR PCT
    for its layer kernel, so both runs take the Python rope and must
    agree bit for bit, sharing meter included."""

    @pytest.mark.parametrize("family", ["fractal", "valley", "shielded"])
    def test_persistent_modes_bit_exact(self, family):
        pytest.importorskip("numpy")
        from repro.hsr.pct import build_pct
        from repro.hsr.phase2 import run_phase2
        from repro.ordering.separator import SeparatorTree
        from repro.ordering.sweep import front_to_back_order
        from repro.terrain.generators import (
            fractal_terrain,
            shielded_basin_terrain,
            valley_terrain,
        )

        terrain = {
            "fractal": lambda: fractal_terrain(size=17, seed=19),
            "valley": lambda: valley_terrain(rows=16, cols=16),
            "shielded": lambda: shielded_basin_terrain(rows=16, cols=16),
        }[family]()
        order = front_to_back_order(terrain)
        tree = SeparatorTree(order)
        segs = terrain.image_segments()
        # A python-built PCT: both runs see the same scalar
        # intermediate profiles, so only the Phase-2 path differs.
        pct = build_pct(tree, segs, engine="python")
        rp = run_phase2(pct, segs, mode="persistent", engine="python")
        rn = run_phase2(pct, segs, mode="persistent", engine="numpy")
        assert rn.ops == rp.ops
        assert rn.crossings == rp.crossings
        assert rn.nodes_allocated == rp.nodes_allocated
        assert rn.visibility.keys() == rp.visibility.keys()
        for k, v in rp.visibility.items():
            assert rn.visibility[k].parts == v.parts
        # The sharing-metered run keeps the same results and reports
        # per-layer piece sharing (the E5 meter).
        rs = run_phase2(
            pct, segs, mode="persistent", engine="numpy",
            measure_sharing=True,
        )
        assert rs.ops == rn.ops and rs.crossings == rn.crossings
        assert any(
            layer.shared_nodes > 0 for layer in rs.layers
        )


class TestRoundtrip:
    def test_from_to_envelope(self, rng):
        env = env_of(random_image_segments(rng, 20))
        rope = R.rope_from_envelope(env)
        back = Envelope(rope.to_pieces())
        assert back.approx_equal(env)
        assert rope.total == env.size

    def test_empty(self):
        assert R.EMPTY.total == 0
        assert R.rope_value_at(R.EMPTY, 3.0) == NEG_INF
        assert R.EMPTY.to_pieces() == []


class TestValueAt:
    def test_matches_array(self, rng):
        env = env_of(random_image_segments(rng, 30))
        rope = R.rope_from_envelope(env)
        for _ in range(200):
            y = rng.uniform(-10, 110)
            a = env.value_at(y)
            b = R.rope_value_at(rope, y)
            if a == NEG_INF:
                # The rope reads closed pieces; at exact shared
                # breakpoints the array version may report the
                # neighbour max — only compare where both are finite or
                # both gaps away from breakpoints.
                assert b == NEG_INF or any(
                    abs(p.ya - y) < 1e-9 or abs(p.yb - y) < 1e-9
                    for p in env.pieces
                )
            else:
                assert b == NEG_INF or abs(a - b) <= 1e-9


class TestRangePieces:
    def test_includes_straddler(self, rng):
        env = env_of(random_image_segments(rng, 25))
        rope = R.rope_from_envelope(env)
        lo, hi = env.y_span()
        mid1 = lo + 0.3 * (hi - lo)
        mid2 = lo + 0.6 * (hi - lo)
        pieces = R.rope_range_pieces(rope, mid1, mid2)
        # Every piece overlapping (mid1, mid2) must be present.
        want = [
            p for p in env.pieces if p.yb >= mid1 and p.ya < mid2
        ]
        assert [p for p in pieces if p.yb > mid1] == [
            p for p in want if p.yb > mid1
        ]

    def test_empty_root(self):
        assert R.rope_range_pieces(R.EMPTY, 0.0, 1.0) == []


class TestSpliceMerge:
    def test_matches_array_merge(self, rng):
        for _ in range(20):
            base = env_of(random_image_segments(rng, rng.randint(1, 20)))
            other_segs = [
                ImageSegment(s.y1, s.z1, s.y2, s.z2, 100 + i)
                for i, s in enumerate(
                    random_image_segments(rng, rng.randint(1, 10))
                )
            ]
            other = env_of(other_segs)
            rope = R.rope_from_envelope(base)
            new_rope, _res = R.rope_splice_merge(rope, other)
            got = Envelope(new_rope.to_pieces())
            want = merge_envelopes(base, other).envelope
            assert got.approx_equal(want, eps=1e-7), (
                f"splice merge mismatch: {got!r} vs {want!r}"
            )

    def test_merge_into_empty(self, rng):
        other = env_of(random_image_segments(rng, 5))
        new_rope, _ = R.rope_splice_merge(R.EMPTY, other)
        assert Envelope(new_rope.to_pieces()).approx_equal(other)

    def test_merge_empty_other(self, rng):
        base = env_of(random_image_segments(rng, 5))
        rope = R.rope_from_envelope(base)
        new_rope, res = R.rope_splice_merge(rope, Envelope.empty())
        assert new_rope is rope
        assert res.ops == 0

    def test_old_version_unchanged(self, rng):
        base = env_of(random_image_segments(rng, 15))
        rope = R.rope_from_envelope(base)
        before = rope.to_pieces()
        other = env_of(
            [
                ImageSegment(s.y1, s.z1 + 100, s.y2, s.z2 + 100, 99)
                for s in random_image_segments(rng, 5)
            ]
        )
        R.rope_splice_merge(rope, other)
        assert rope.to_pieces() == before

    def test_sharing_outside_range(self, rng):
        # Merge a narrow envelope: pieces far from its span must be
        # the same piece objects in both versions.
        segs = random_image_segments(rng, 60, y_range=(0.0, 1000.0))
        base = env_of(segs)
        rope = R.rope_from_envelope(base)
        narrow = Envelope.from_segment(
            ImageSegment(490.0, 1000.0, 510.0, 1000.0, 777)
        )
        new_rope, _ = R.rope_splice_merge(rope, narrow)
        total, shared = R.count_shared_pieces(rope, new_rope)
        assert shared > 0.5 * rope.total


class TestSpliceBoundaries:
    """Splice spans whose edges land exactly on existing piece
    boundaries: the straddle and carry trims must never produce a
    zero-width piece."""

    def test_splice_span_starting_at_piece_key(self, rng):
        # The merged span's left edge lands exactly on an existing
        # piece start — the straddle path must not produce a
        # zero-width trim.
        base = env_of([ImageSegment(0.0, 5.0, 10.0, 5.0, 0)])
        rope = R.rope_from_envelope(base)
        for ya in (0.0, 5.0):
            other = env_of([ImageSegment(ya, 8.0, ya + 2.0, 8.0, 9)])
            new_rope, _ = R.rope_splice_merge(rope, other)
            got = Envelope(new_rope.to_pieces())
            want = merge_envelopes(base, other).envelope
            assert got.approx_equal(want, eps=1e-9)
            assert all(p.ya < p.yb for p in got.pieces)

    def test_splice_span_ending_at_piece_end(self, rng):
        base = env_of(
            [
                ImageSegment(0.0, 5.0, 4.0, 5.0, 0),
                ImageSegment(4.0, 3.0, 8.0, 3.0, 1),
            ]
        )
        rope = R.rope_from_envelope(base)
        other = env_of([ImageSegment(2.0, 9.0, 4.0, 9.0, 9)])
        new_rope, _ = R.rope_splice_merge(rope, other)
        got = Envelope(new_rope.to_pieces())
        want = merge_envelopes(base, other).envelope
        assert got.approx_equal(want, eps=1e-9)
        assert all(p.ya < p.yb for p in got.pieces)


class TestRopeVisibility:
    def test_matches_array_visibility(self, rng):
        base = env_of(random_image_segments(rng, 25))
        rope = R.rope_from_envelope(base)
        for i in range(40):
            y1 = rng.uniform(0, 80)
            seg = ImageSegment(
                y1,
                rng.uniform(0, 60),
                y1 + rng.uniform(0.5, 20),
                rng.uniform(0, 60),
                500 + i,
            )
            a = visible_parts(seg, base)
            b = R.rope_visible_parts(rope, seg)
            assert len(a.parts) == len(b.parts)
            for pa, pb in zip(a.parts, b.parts):
                assert abs(pa.ya - pb.ya) <= 1e-9
                assert abs(pa.yb - pb.yb) <= 1e-9

    def test_vertical_query(self, rng):
        base = env_of([ImageSegment(0.0, 5.0, 10.0, 5.0, 0)])
        rope = R.rope_from_envelope(base)
        above = ImageSegment(5.0, 0.0, 5.0, 9.0, 1)
        below = ImageSegment(5.0, 0.0, 5.0, 4.0, 2)
        assert not R.rope_visible_parts(rope, above).fully_hidden
        assert R.rope_visible_parts(rope, below).fully_hidden
