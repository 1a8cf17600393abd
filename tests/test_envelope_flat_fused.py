"""Tests for the fused visibility+merge window kernel (flat_fused).

Contract under test: the numpy insert path of ``insert_segment_flat``
— scalar fused loop, vectorized sweep, hidden/visible fast paths — and
its reference path are *bit-exact* vs the ``engine="python"``
reference ``insert_segment`` (same visibility parts/crossings/ops,
same profile pieces, same total ops), and the dispatch boundaries at
:data:`repro.envelope.engine.FLAT_FUSED_CUTOFF` and (on the tuple
path) :data:`~repro.envelope.engine.FLAT_VISIBILITY_CUTOFF` are pinned
so future re-tuning cannot silently change which kernel answers which
window — only wall clock may move.  The compiled core is switched off
here so the numpy path answers every insert; its own parity suite is
``tests/test_envelope_ccore.py``.
"""

from __future__ import annotations

import random

import pytest

import repro.envelope.engine as engine_mod
import repro.envelope.flat_fused as fused_mod
import repro.envelope.flat_splice as splice_mod
from repro.envelope.chain import Envelope
from repro.envelope.flat_splice import insert_segment_flat
from repro.envelope.packed import PackedProfile
from repro.envelope.splice import insert_segment
from repro.geometry.primitives import EPS
from repro.geometry.segments import ImageSegment
from tests.conftest import random_image_segments


def _assert_incremental_parity(segs):
    env = Envelope.empty()
    prof = PackedProfile.empty()
    for s in segs:
        rp = insert_segment(env, s, engine="python")
        rf = insert_segment_flat(prof, s)
        assert rf.ops == rp.ops, s
        assert rf.visibility == rp.visibility, s
        env = rp.envelope
        prof = rf.profile
    assert prof.to_envelope().pieces == env.pieces
    return prof


@pytest.mark.parametrize(
    "fused_cutoff", [None, 1, 10**9], ids=["default", "vectorized", "scalar"]
)
class TestFusedInsertParity:
    """Every fused regime replicates the python engine bit for bit."""

    @pytest.fixture(autouse=True)
    def _cutoff(self, fused_cutoff, monkeypatch):
        if fused_cutoff is not None:
            monkeypatch.setattr(
                engine_mod, "FLAT_FUSED_CUTOFF", fused_cutoff
            )

    def test_random_runs(self, rng):
        for _ in range(8):
            _assert_incremental_parity(
                random_image_segments(rng, rng.randint(2, 120))
            )

    def test_layered_bands_exercise_fast_paths(self):
        # Alternating z bands: many fully-hidden and fully-visible
        # inserts, the regimes the fast paths answer without a sweep.
        rng = random.Random(97)
        segs = []
        for i, band in enumerate((50.0, 10.0, 90.0, 30.0, 70.0) * 30):
            y1 = rng.uniform(0, 95)
            segs.append(
                ImageSegment(
                    y1,
                    band + rng.uniform(-3, 3),
                    y1 + rng.uniform(0.6, 30),
                    band + rng.uniform(-3, 3),
                    i,
                )
            )
        _assert_incremental_parity(segs)

    def test_exact_breakpoint_touches(self, rng):
        # Segments re-using existing profile breakpoints hit the
        # coincident-endpoint shortcuts of every kernel.
        env = Envelope.empty()
        prof = PackedProfile.empty()
        for j, s in enumerate(random_image_segments(rng, 70)):
            if j % 3 == 2 and env.pieces:
                p = env.pieces[rng.randrange(len(env.pieces))]
                s = ImageSegment(
                    p.ya,
                    rng.uniform(0, 120),
                    p.yb,
                    rng.uniform(0, 120),
                    1000 + j,
                )
            rp = insert_segment(env, s, engine="python")
            rf = insert_segment_flat(prof, s)
            assert rf.ops == rp.ops, (j, s)
            assert rf.visibility == rp.visibility, (j, s)
            env = rp.envelope
            prof = rf.profile
        assert prof.to_envelope().pieces == env.pieces


class TestFusedAblationAndFallbacks:
    def test_unfused_ablation_matches(self, rng):
        # The unfused two-pass path (scalar scan, then scalar window
        # merge) survives as ``_insert_reference`` — the guard retry
        # and synthetic-window route — and must agree on every insert.
        env = Envelope.empty()
        prof = PackedProfile.empty()
        for s in random_image_segments(rng, 80):
            rp = insert_segment(env, s, engine="python")
            rf = splice_mod._insert_reference(prof, s, EPS)
            assert rf.ops == rp.ops, s
            assert rf.visibility == rp.visibility, s
            env = rp.envelope
        assert prof.to_envelope().pieces == env.pieces

    def test_synthetic_source_takes_cascade(self, monkeypatch):
        # Negative sources coalesce on the builder's slope rule; the
        # fused kernel must not see them (they take the reference
        # path instead).
        calls = []
        orig = fused_mod.fused_insert_window

        def counting(*a, **k):
            calls.append(a)
            return orig(*a, **k)

        monkeypatch.setattr(
            fused_mod, "fused_insert_window", counting
        )
        segs = [
            ImageSegment(0.0, 1.0, 4.0, 2.0, -1),
            ImageSegment(2.0, 0.5, 6.0, 3.0, -1),
            ImageSegment(1.0, 2.5, 5.0, 2.5, 3),
        ]
        _assert_incremental_parity(segs)
        assert calls == []  # synthetic windows never reach the kernel

    def test_hidden_insert_shares_profile(self, rng):
        base = ImageSegment(0.0, 50.0, 100.0, 50.0, 0)
        prof = insert_segment_flat(PackedProfile.empty(), base).profile
        below = ImageSegment(10.0, 5.0, 60.0, 5.0, 1)
        res = insert_segment_flat(prof, below)
        assert res.profile is prof  # no splice on hidden inserts
        assert res.visibility.fully_hidden
        assert res.ops == insert_segment(
            Envelope([*prof.to_envelope().pieces]), below, engine="python"
        ).ops


def _strip_profile(n):
    """A profile of exactly ``n`` contiguous single-source pieces."""
    prof = PackedProfile.empty()
    env = Envelope.empty()
    rng = random.Random(1234 + n)
    for i in range(n):
        s = ImageSegment(
            float(i), 10.0 + rng.uniform(0, 5), float(i + 1),
            10.0 + rng.uniform(0, 5), i,
        )
        prof = insert_segment_flat(prof, s).profile
        env = insert_segment(env, s, engine="python").envelope
    assert prof.size == n and env.size == n
    return prof, env


class TestCutoffBoundaries:
    """Pin dispatch behaviour exactly at, one below and one above the
    cutoffs, so re-tuning the constants cannot silently change parity
    (only wall clock)."""

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_fused_cutoff_boundary(self, delta, monkeypatch):
        cutoff = engine_mod.FLAT_FUSED_CUTOFF
        win = cutoff + delta
        prof, env = _strip_profile(win)
        scalar_calls, flat_calls = [], []
        orig_s = fused_mod.fused_insert_window
        orig_f = fused_mod.fused_insert_window_flat
        monkeypatch.setattr(
            fused_mod,
            "fused_insert_window",
            lambda *a, **k: (scalar_calls.append(1), orig_s(*a, **k))[1],
        )
        monkeypatch.setattr(
            fused_mod,
            "fused_insert_window_flat",
            lambda *a, **k: (flat_calls.append(1), orig_f(*a, **k))[1],
        )
        # Overlaps all ``win`` pieces; mid-height so the sweep runs.
        seg = ImageSegment(0.25, 12.0, win - 0.25, 13.0, 5000)
        assert prof.pieces_overlapping(seg.y1, seg.y2) == (0, win)
        rf = insert_segment_flat(prof, seg)
        rp = insert_segment(env, seg, engine="python")
        assert rf.ops == rp.ops
        assert rf.visibility == rp.visibility
        assert rf.profile.to_envelope().pieces == rp.envelope.pieces
        if win >= cutoff:
            assert flat_calls and not scalar_calls
        else:
            assert scalar_calls and not flat_calls

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_visibility_cutoff_boundary(self, delta, monkeypatch):
        # The tuple insert path dispatches on FLAT_VISIBILITY_CUTOFF;
        # pin which kernel answers at the boundary and that results
        # are identical either way.
        import repro.envelope.flat_visibility as vis_mod

        cutoff = engine_mod.FLAT_VISIBILITY_CUTOFF
        win = cutoff + delta
        _prof, env = _strip_profile(win)
        batched = []
        orig = vis_mod.visible_parts_flat
        monkeypatch.setattr(
            vis_mod,
            "visible_parts_flat",
            lambda *a, **k: (batched.append(1), orig(*a, **k))[1],
        )
        seg = ImageSegment(0.25, 12.0, win - 0.25, 13.0, 6000)
        assert env.pieces_overlapping(seg.y1, seg.y2) == (0, win)
        rn = insert_segment(env, seg, engine="numpy")
        rp = insert_segment(env, seg, engine="python")
        assert rn.ops == rp.ops
        assert rn.visibility == rp.visibility
        assert rn.envelope.pieces == rp.envelope.pieces
        assert bool(batched) == (win >= cutoff)
