"""Tests for the chunk-augmented (ACG) search on rope profile versions
(:mod:`repro.hsr.acg_rope`): chunk augments, gap and flip-candidate
collection, winner regions, and the splice merge built on them.

Each case runs on the default chunk size and on tiny chunks
(:data:`~repro.persistence.rope.CHUNK_TARGET` patched down), so the
pruned chunk scans cross many chunk seams even on small profiles.
"""

from __future__ import annotations

import math

import pytest

from repro.envelope.build import build_envelope
from repro.envelope.chain import Envelope, Piece
from repro.envelope.merge import merge_envelopes
from repro.geometry.segments import ImageSegment
from repro.hsr.acg_rope import (
    _ProbeCounter,
    acg_rope_splice_merge,
    chunk_augment,
    collect_flip_candidates_rope,
    collect_gaps_rope,
    winner_regions_rope,
)
from repro.persistence import rope as R
from tests.conftest import random_image_segments

#: Chunk sizes every case runs under: the shipped default and a tiny
#: one that puts a chunk seam every few pieces.
CHUNK_SIZES = (R.CHUNK_TARGET, 3)


@pytest.fixture
def chunk_size():
    """Yields a setter for ``CHUNK_TARGET``; restores it afterwards."""
    saved = R.CHUNK_TARGET

    def set_size(n: int) -> None:
        R.CHUNK_TARGET = n

    yield set_size
    R.CHUNK_TARGET = saved


def env_of(segs):
    return build_envelope(segs).envelope


def pieces_of(rope) -> Envelope:
    return Envelope(rope.to_pieces())


def brute_gaps(env: Envelope, lo: float, hi: float):
    """Reference gap computation by linear scan."""
    out = []
    cursor = lo
    for p in env.pieces:
        if p.ya >= hi:
            break
        if p.yb <= lo:
            continue
        if p.ya > cursor:
            out.append((cursor, min(p.ya, hi)))
        cursor = max(cursor, p.yb)
    if cursor < hi:
        out.append((cursor, hi))
    return [g for g in out if g[1] > g[0]]


class TestAugment:
    def test_span_and_contiguity(self, rng, chunk_size):
        env = env_of(random_image_segments(rng, 25))
        for n in CHUNK_SIZES:
            chunk_size(n)
            rope = R.rope_from_envelope(env)
            for chunk in rope.chunks:
                pieces = chunk.pieces
                aug = chunk_augment(chunk)
                assert aug.ya_min == pieces[0].ya
                assert aug.za_first == pieces[0].za
                assert aug.yb_max == pieces[-1].yb
                assert aug.zb_last == pieces[-1].zb
                has_gap = any(
                    pieces[i].yb != pieces[i + 1].ya
                    for i in range(len(pieces) - 1)
                )
                assert aug.contiguous == (not has_gap)

    def test_hulls_are_convex_chains(self, rng, chunk_size):
        env = env_of(random_image_segments(rng, 40))
        for n in CHUNK_SIZES:
            chunk_size(n)
            for chunk in R.rope_from_envelope(env).chunks:
                aug = chunk_augment(chunk)
                # Presorted hull keeps possible duplicate-x stubs at
                # the tail; the chains are y-sorted either way.
                assert len(aug.lower) >= 2
                assert all(
                    aug.lower[i].x <= aug.lower[i + 1].x
                    for i in range(len(aug.lower) - 1)
                )
                assert all(
                    aug.upper[i].x <= aug.upper[i + 1].x
                    for i in range(len(aug.upper) - 1)
                )

    def test_hull_bounds_all_vertices(self, rng, chunk_size):
        env = env_of(random_image_segments(rng, 30))
        for n in CHUNK_SIZES:
            chunk_size(n)
            for chunk in R.rope_from_envelope(env).chunks:
                aug = chunk_augment(chunk)
                lo_min = min(p.y for p in aug.lower)
                hi_max = max(p.y for p in aug.upper)
                for p in chunk.pieces:
                    assert p.za >= lo_min - 1e-9 and p.zb >= lo_min - 1e-9
                    assert p.za <= hi_max + 1e-9 and p.zb <= hi_max + 1e-9

    def test_memoised(self, rng, chunk_size):
        chunk_size(3)
        env = env_of(random_image_segments(rng, 30, y_range=(0, 1000)))
        rope = R.rope_from_envelope(env)
        augs = [chunk_augment(c) for c in rope.chunks]
        assert all(chunk_augment(c) is a for c, a in zip(rope.chunks, augs))
        # A later version shares the untouched chunks, and with them
        # the augments already computed — one ACG structure for all
        # the layer-mates.
        narrow = Envelope.from_segment(
            ImageSegment(480.0, 1e4, 520.0, 1e4, 777)
        )
        new_rope, _ = R.rope_splice_merge(rope, narrow)
        old = {id(c): a for c, a in zip(rope.chunks, augs)}
        shared = [c for c in new_rope.chunks if id(c) in old]
        assert shared
        for c in shared:
            assert chunk_augment(c) is old[id(c)]


class TestCollectGaps:
    def test_matches_brute_force(self, rng, chunk_size):
        for _ in range(30):
            env = env_of(random_image_segments(rng, rng.randint(1, 20)))
            lo = rng.uniform(-10, 50)
            hi = lo + rng.uniform(1, 120)
            want = brute_gaps(env, lo, hi)
            for n in CHUNK_SIZES:
                chunk_size(n)
                got = collect_gaps_rope(R.rope_from_envelope(env), lo, hi)
                assert len(got) == len(want), (got, want)
                for (ga, gb), (wa, wb) in zip(got, want):
                    assert abs(ga - wa) <= 1e-9
                    assert abs(gb - wb) <= 1e-9

    def test_empty_root(self):
        assert collect_gaps_rope(R.EMPTY, 0.0, 5.0) == [(0.0, 5.0)]

    def test_no_gaps_in_contiguous(self, chunk_size):
        env = Envelope([Piece(0, 0, 5, 1, 0), Piece(5, 1, 9, 0, 1)])
        for n in (1, 2):
            chunk_size(n)
            rope = R.rope_from_envelope(env)
            assert collect_gaps_rope(rope, 1.0, 8.0) == []


class TestFlipCandidates:
    def test_transversal_crossing_found(self):
        rope = R.rope_from_envelope(Envelope([Piece(0, 0, 10, 10, 0)]))
        seg = ImageSegment(0, 10, 10, 0, 1)
        flips = collect_flip_candidates_rope(rope, seg, 0.0, 10.0)
        assert len(flips) == 1
        assert math.isclose(flips[0], 5.0)

    def test_jump_junction_found(self, chunk_size):
        env = Envelope([Piece(0, 0, 5, 0, 0), Piece(5, 10, 10, 10, 1)])
        seg = ImageSegment(0, 5, 10, 5, 2)  # passes between the jump
        # One chunk (junction inside it) and one piece per chunk
        # (junction at a chunk seam).
        for n in (2, 1):
            chunk_size(n)
            rope = R.rope_from_envelope(env)
            flips = collect_flip_candidates_rope(rope, seg, 0.0, 10.0)
            assert any(math.isclose(f, 5.0) for f in flips)

    def test_pruned_when_profile_above(self, rng, chunk_size):
        env = env_of(random_image_segments(rng, 50, z_range=(50, 60)))
        lo, hi = env.y_span()
        seg = ImageSegment(lo, 1.0, hi, 2.0, 99)  # far below
        for n in CHUNK_SIZES:
            chunk_size(n)
            rope = R.rope_from_envelope(env)
            c = _ProbeCounter()
            flips = collect_flip_candidates_rope(
                rope, seg, lo, hi, counter=c
            )
            assert flips == []
            # Hull pruning opens no chunk: one probe per chunk, well
            # below the piece count.
            assert c.probes == len(rope.chunks)
            assert c.probes <= env.size / 2 + 10


class TestWinnerRegions:
    def test_regions_partition_segment(self, rng, chunk_size):
        env = env_of(random_image_segments(rng, 20))
        q = random_image_segments(rng, 1)[0]
        for n in CHUNK_SIZES:
            chunk_size(n)
            rope = R.rope_from_envelope(env)
            regions, _crossings, _probes = winner_regions_rope(rope, q)
            assert regions[0][0] == q.y1
            assert regions[-1][1] == q.y2
            for (a, b, _w), (c, d, _w2) in zip(regions, regions[1:]):
                assert b == c

    def test_winner_matches_values(self, rng, chunk_size):
        for _ in range(15):
            env = env_of(random_image_segments(rng, rng.randint(1, 15)))
            q = random_image_segments(rng, 1)[0]
            for n in CHUNK_SIZES:
                chunk_size(n)
                rope = R.rope_from_envelope(env)
                regions, _, _ = winner_regions_rope(rope, q)
                for (a, b, seg_wins) in regions:
                    m = 0.5 * (a + b)
                    diff = q.z_at(m) - R.rope_value_at(rope, m)
                    if seg_wins:
                        assert diff > -1e-7
                    else:
                        assert diff < 1e-7


class TestAcgSpliceMerge:
    def test_matches_plain_merge(self, rng, chunk_size):
        for trial in range(25):
            base = env_of(random_image_segments(rng, rng.randint(1, 20)))
            other_segs = [
                ImageSegment(s.y1, s.z1, s.y2, s.z2, 100 + i)
                for i, s in enumerate(
                    random_image_segments(rng, rng.randint(1, 8))
                )
            ]
            other = env_of(other_segs)
            want = merge_envelopes(base, other).envelope
            for n in CHUNK_SIZES:
                chunk_size(n)
                rope = R.rope_from_envelope(base)
                new_rope, _ = acg_rope_splice_merge(rope, other)
                assert pieces_of(new_rope).approx_equal(want, eps=1e-6), (
                    f"trial {trial}, chunk size {n}: acg merge diverged"
                )

    def test_merge_into_empty(self, rng):
        other = env_of(random_image_segments(rng, 5))
        rope, res = acg_rope_splice_merge(R.EMPTY, other)
        assert pieces_of(rope).approx_equal(other)
        assert res.ops == other.size

    def test_versions_shared(self, rng, chunk_size):
        base = env_of(random_image_segments(rng, 60, y_range=(0, 1000)))
        narrow = Envelope.from_segment(
            ImageSegment(480.0, 10000.0, 520.0, 10000.0, 777)
        )
        for n in CHUNK_SIZES:
            chunk_size(n)
            rope = R.rope_from_envelope(base)
            new_rope, _ = acg_rope_splice_merge(rope, narrow)
            # Piece objects outside the spliced range are shared at
            # any chunk size ...
            _, shared_pieces = R.count_shared_pieces(rope, new_rope)
            assert shared_pieces > 0.5 * rope.total
        # ... and once the profile spans many chunks, whole chunks are.
        assert len(rope.chunks) > 4
        total, shared = R.count_shared_chunks(rope, new_rope)
        assert shared > 0.5 * rope.total
        assert total < rope.total + new_rope.total

    def test_hidden_other_only_fills_gaps(self, rng, chunk_size):
        # A segment far below the profile changes nothing except in
        # the profile's support gaps (where -inf loses to anything).
        base = env_of(random_image_segments(rng, 20, z_range=(50, 60)))
        lo, hi = base.y_span()
        low = Envelope.from_segment(ImageSegment(lo, 1.0, hi, 1.0, 99))
        want = merge_envelopes(base, low).envelope
        for n in CHUNK_SIZES:
            chunk_size(n)
            rope = R.rope_from_envelope(base)
            new_rope, res = acg_rope_splice_merge(rope, low)
            assert pieces_of(new_rope).approx_equal(want)
            assert res.crossings == []  # gap flips are not transversal

    def test_hidden_other_under_contiguous_profile(self, chunk_size):
        base = Envelope(
            [Piece(0, 50, 5, 55, 0), Piece(5, 55, 10, 50, 1)]
        )
        low = Envelope.from_segment(ImageSegment(0.0, 1.0, 10.0, 1.0, 99))
        for n in (2, 1):
            chunk_size(n)
            rope = R.rope_from_envelope(base)
            new_rope, res = acg_rope_splice_merge(rope, low)
            assert pieces_of(new_rope).approx_equal(base)
            assert new_rope is rope  # nothing won: no splice at all
            assert res.crossings == []
