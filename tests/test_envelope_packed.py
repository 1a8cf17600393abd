"""Tests for the packed single-buffer profile layout.

Three contracts:

* **Splice mechanics** — grow/shift/shrink boundary behaviour of
  :meth:`PackedProfile.splice` (in-place window writes, head-vs-tail
  shifts into the slack, amortized-doubling growth), pinned by unit
  cases at the slack edges and a hypothesis fuzz against a pure-list
  reference model.
* **Bit-exact parity** — insert sequences on the packed layout produce
  the identical visibility, ``ops`` and profile pieces as
  ``engine="python"``, down to tiny initial capacities (every insert
  near a grow boundary).
* **Stale views** — windows taken before a reallocation still see the
  old buffer (they are never silently re-pointed).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envelope.build import build_envelope
from repro.envelope.chain import Envelope
from repro.envelope.flat import FlatEnvelope
from repro.envelope.flat_splice import insert_segment_flat
from repro.envelope.packed import MIN_CAPACITY, PackedProfile
from repro.envelope.splice import insert_segment
from repro.geometry.segments import ImageSegment
from tests.conftest import random_image_segments


def _rows(prof: PackedProfile) -> list[tuple]:
    """Live pieces as plain tuples (the reference representation)."""
    return list(
        zip(
            prof.ya.tolist(),
            prof.za.tolist(),
            prof.yb.tolist(),
            prof.zb.tolist(),
            prof.source.tolist(),
        )
    )


def _mk_piece(i: int) -> tuple:
    return (float(i), float(i) + 0.25, float(i) + 0.5, float(i) + 0.75, i)


def _fields(pieces: list[tuple]) -> tuple:
    return tuple([p[f] for p in pieces] for f in range(5))


class TestSpliceMechanics:
    def test_empty_window_insert_and_whole_profile_replace(self):
        prof = PackedProfile.empty()
        prof.splice(0, 0, *_fields([_mk_piece(0), _mk_piece(1)]))
        assert _rows(prof) == [_mk_piece(0), _mk_piece(1)]
        # Whole-profile replacement.
        prof.splice(0, 2, *_fields([_mk_piece(7)]))
        assert _rows(prof) == [_mk_piece(7)]
        # Empty-window *removal* is a no-op.
        assert prof.splice(1, 1, [], [], [], [], []) is prof
        assert _rows(prof) == [_mk_piece(7)]

    def test_in_place_window_write_moves_nothing(self):
        prof = PackedProfile.empty()
        prof.splice(0, 0, *_fields([_mk_piece(i) for i in range(4)]))
        buf = prof._buf
        slack = prof.slack
        prof.splice(1, 3, *_fields([_mk_piece(10), _mk_piece(11)]))
        # Same piece count: same buffer, same slack, only the window
        # bytes changed.
        assert prof._buf is buf
        assert prof.slack == slack
        assert _rows(prof) == [
            _mk_piece(0),
            _mk_piece(10),
            _mk_piece(11),
            _mk_piece(3),
        ]

    def test_shift_prefers_cheaper_side(self):
        prof = PackedProfile.empty(64)
        prof.splice(0, 0, *_fields([_mk_piece(i) for i in range(10)]))
        head0, tail0 = prof.slack
        # Grow near the tail: the tail (1 piece) is cheaper to move
        # than the head (8 pieces) — tail slack shrinks.
        prof.splice(8, 9, *_fields([_mk_piece(20), _mk_piece(21)]))
        head1, tail1 = prof.slack
        assert head1 == head0 and tail1 == tail0 - 1
        # Grow near the head: head moves instead.
        prof.splice(1, 2, *_fields([_mk_piece(30), _mk_piece(31)]))
        head2, tail2 = prof.slack
        assert tail2 == tail1 and head2 == head1 - 1

    def test_splice_at_both_slack_edges(self):
        prof = PackedProfile.empty(8)
        prof.splice(0, 0, *_fields([_mk_piece(1)]))
        # Prepend until the head slack is exhausted, then keep going —
        # the splice must shift or grow, never corrupt.
        for i in range(2, 12):
            prof.splice(0, 0, *_fields([_mk_piece(100 - i)]))
            assert prof.size == i
        # Append past the tail slack.
        n = prof.size
        for i in range(10):
            prof.splice(n + i, n + i, *_fields([_mk_piece(200 + i)]))
        rows = _rows(prof)
        assert [r[4] for r in rows[-10:]] == list(range(200, 210))
        assert prof.size == n + 10

    def test_splice_exactly_at_capacity_grows(self):
        prof = PackedProfile.empty(4)
        pieces = [_mk_piece(i) for i in range(4)]
        prof.splice(0, 0, *_fields(pieces))
        assert prof.capacity >= 4
        # Consume every slack lane with single appends (each eats one
        # lane — tail slack first, then head shifts).
        guard = 0
        while prof.slack != (0, 0):
            n = prof.size
            prof.splice(n, n, *_fields([_mk_piece(10 + n)]))
            guard += 1
            assert guard < 10_000
        assert prof.slack == (0, 0)
        old_buf = prof._buf
        # One more insert in the middle: no slack on either side —
        # must reallocate (amortized doubling) and preserve contents.
        before = _rows(prof)
        prof.splice(2, 2, *_fields([_mk_piece(99)]))
        assert prof._buf is not old_buf
        assert prof.capacity >= 2 * (len(before) + 1)
        assert _rows(prof) == before[:2] + [_mk_piece(99)] + before[2:]

    def test_shrink_both_sides(self):
        for cut_lo, cut_hi in ((0, 3), (5, 8), (2, 6), (0, 8)):
            prof = PackedProfile.empty()
            pieces = [_mk_piece(i) for i in range(8)]
            prof.splice(0, 0, *_fields(pieces))
            prof.splice(cut_lo, cut_hi, [], [], [], [], [])
            assert _rows(prof) == pieces[:cut_lo] + pieces[cut_hi:]

    def test_from_splice_copies_parent_untouched(self):
        parent = PackedProfile.empty()
        pieces = [_mk_piece(i) for i in range(6)]
        parent.splice(0, 0, *_fields(pieces))
        child = PackedProfile.from_splice(
            parent, 2, 4, *_fields([_mk_piece(50)])
        )
        assert _rows(child) == pieces[:2] + [_mk_piece(50)] + pieces[4:]
        assert _rows(parent) == pieces  # parent only read
        assert child._buf is not parent._buf
        # An empty parent takes the whole replacement.
        child2 = PackedProfile.from_splice(
            PackedProfile.empty(), 0, 0, *_fields(pieces)
        )
        assert _rows(child2) == pieces

    def test_min_capacity_floor(self):
        prof = PackedProfile.empty(2)
        prof.splice(0, 0, *_fields([_mk_piece(0), _mk_piece(1), _mk_piece(2)]))
        assert prof.capacity >= MIN_CAPACITY or prof.capacity >= 2 * 3


class TestSpliceFuzz:
    """Hypothesis fuzz: a random splice sequence on a tiny buffer must
    match a pure-Python list model — every grow/shift boundary gets
    exercised because the initial capacity is minimal."""

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(0, 100),  # lo selector
                st.integers(0, 100),  # hi selector
                st.integers(0, 5),  # replacement size
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_list_model(self, ops):
        prof = PackedProfile.empty(2)
        model: list[tuple] = []
        counter = [0]

        def fresh(k):
            out = []
            for _ in range(k):
                counter[0] += 1
                out.append(_mk_piece(counter[0]))
            return out

        for lo_s, hi_s, k in ops:
            n = len(model)
            lo = lo_s % (n + 1)
            hi = lo + (hi_s % (n - lo + 1))
            repl = fresh(k)
            prof.splice(lo, hi, *_fields(repl))
            model[lo:hi] = repl
            assert _rows(prof) == model
            assert prof.size == len(model)
            head, tail = prof.slack
            assert head >= 0 and tail >= 0
            assert head + tail + prof.size == prof.capacity


class TestInsertParity:
    def test_incremental_matches_python_engine_tiny_capacity(self, rng):
        # Start at the smallest legal capacity so nearly every insert
        # crosses a grow/shift boundary.
        for _ in range(8):
            segs = random_image_segments(rng, rng.randint(2, 70))
            env = Envelope.empty()
            prof = PackedProfile.empty(2)
            for s in segs:
                rp = insert_segment(env, s)
                rf = insert_segment_flat(prof, s)
                assert rf.ops == rp.ops
                assert rf.visibility == rp.visibility
                assert rf.profile is prof  # in-place: same object
                env = rp.envelope
            assert prof.to_envelope().pieces == env.pieces

    def test_churny_occlusion_sequence(self, rng):
        # Repeatedly overwrite the same y-range with rising segments —
        # maximal profile churn (whole-window replacements, shrinks,
        # single-piece rewrites) on one long-lived buffer.
        env = Envelope.empty()
        prof = PackedProfile.empty(2)
        for i in range(120):
            y1 = rng.uniform(0, 20)
            seg = ImageSegment(
                y1, 1.0 + i * 0.5, y1 + rng.uniform(1, 25), 1.0 + i * 0.5, i
            )
            rp = insert_segment(env, seg)
            rf = insert_segment_flat(prof, seg)
            assert rf.ops == rp.ops
            assert rf.visibility == rp.visibility
            env = rp.envelope
        assert prof.to_envelope().pieces == env.pieces


class TestStaleViews:
    def test_view_keeps_old_buffer_after_realloc(self):
        prof = PackedProfile.empty(4)
        prof.splice(0, 0, *_fields([_mk_piece(i) for i in range(4)]))
        # Exhaust the slack so the next growing splice reallocates.
        while prof.slack != (0, 0):
            n = prof.size
            prof.splice(n, n, *_fields([_mk_piece(50 + n)]))
        old_buf = prof._buf
        win = prof.window(0, prof.size)
        snapshot = win.ya.tolist()
        prof.splice(1, 1, *_fields([_mk_piece(99)]))  # forces realloc
        assert prof._buf is not old_buf
        # The pre-realloc view still reads the *old* buffer: edits to
        # the live profile can no longer reach it (stale, not
        # corrupted-in-flight), and fresh windows view the new buffer.
        prof.splice(0, 1, *_fields([_mk_piece(123)]))
        assert win.ya.tolist() == snapshot
        base = prof.window(0, prof.size).ya.base
        while getattr(base, "base", None) is not None:
            base = base.base
        assert base is prof._buf

    def test_splice_output_never_aliases_live_buffer(self, rng):
        # The merged arrays a splice writes come from fresh kernel
        # outputs; writing them must not corrupt values still being
        # read.  End-to-end: long runs stay bit-exact (checked above);
        # here pin that a window view taken just before an insert is
        # unchanged by a same-size in-place splice elsewhere.
        prof = PackedProfile.empty()
        pieces = [_mk_piece(i) for i in range(6)]
        prof.splice(0, 0, *_fields(pieces))
        head_view = prof.window(0, 2)
        before = head_view.ya.tolist()
        prof.splice(4, 5, *_fields([_mk_piece(77)]))  # same size: in place
        assert head_view.ya.tolist() == before


class TestPackedQueries:
    def test_queries_match_flat_profile(self, rng):
        # The packed buffer's fast queries agree with plain per-field
        # slices of the same profile's flat arrays.
        segs = random_image_segments(rng, 60)
        env = build_envelope(segs, engine="python").envelope
        packed = PackedProfile.from_envelope(env)
        flat = FlatEnvelope.from_envelope(env)
        assert packed.to_envelope().pieces == env.pieces
        for _ in range(30):
            y1 = rng.uniform(-10, 110)
            y2 = y1 + rng.uniform(0, 50)
            assert packed.pieces_overlapping(y1, y2) == (
                flat.pieces_overlapping(y1, y2)
            )
            assert packed.value_at(y1) == env.value_at(y1)

    def test_window_is_zero_copy(self, rng):
        segs = random_image_segments(rng, 30)
        prof = PackedProfile.from_envelope(
            build_envelope(segs, engine="python").envelope
        )
        w = prof.window(3, 9)
        base = w.ya.base
        while getattr(base, "base", None) is not None:
            base = base.base
        assert base is prof._buf
        assert len(w) == 6
