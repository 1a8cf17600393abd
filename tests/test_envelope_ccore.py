"""Tests for the compiled insert core (``repro.envelope._ccore``).

Contract under test: with the optional C extension built, the run loop
(``flat_splice.insert_run``) answers **every** window size through the
compiled core, one call per chunk of inserts — and is *bit-exact*
against the per-insert reference path (``use_compiled_insert=False``;
and, transitively, against ``engine="python"``; the scenario parity
matrix asserts that leg directly).  Without the extension — or with
the toggle off — the reference path answers, and the toggle can never silently
change which kernel handles an insert (the path pins below).  The
``compiled_insert`` guard site gets the same injection/retry/quarantine
treatment as every other kernel edge.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.envelope.flat_splice as splice_mod
from repro.config import HsrConfig
from repro.envelope import _ccore
from repro.envelope.flat_splice import insert_run, segment_lanes
from repro.envelope.packed import PackedProfile
from repro.geometry.segments import ImageSegment
from repro.reliability import faultinject as fi
from repro.reliability import guard
from tests.conftest import random_image_segments

needs_ccore = pytest.mark.skipif(
    not _ccore.HAVE_CCORE,
    reason="optional compiled core not built in this environment",
)

COMPILED = HsrConfig(use_compiled_insert=True)
PER_INSERT = HsrConfig(use_compiled_insert=False)


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    fi.clear()
    guard.reset_ambient()
    monkeypatch.setattr(guard, "GUARDED_DISPATCH", True)
    yield
    fi.clear()
    guard.reset_ambient()


@contextmanager
def _start_capacity(capacity):
    """Start every run's profile at ``capacity`` slots."""
    if capacity is None:
        yield
        return

    class _Sized:
        @staticmethod
        def empty():
            return PackedProfile.empty(capacity)

    splice_mod.PackedProfile = _Sized
    try:
        yield
    finally:
        splice_mod.PackedProfile = PackedProfile


def _run_loop(segs, *, compiled, capacity=None):
    """One run of ``segs`` through ``insert_run``; returns the final
    profile plus the run's totals and visible rows."""
    with _start_capacity(capacity):
        run = insert_run(
            segment_lanes(segs), config=COMPILED if compiled else PER_INSERT
        )
    trace = (
        run.ops,
        run.max_profile,
        run.offsets.tolist(),
        run.rows[4].view(np.int64).tolist(),
        *run.rows[:4].tolist(),
    )
    return run.profile, trace


def _state(prof):
    w = prof.window(0, prof.size)
    return ([w.ya.tolist(), w.za.tolist(), w.yb.tolist(), w.zb.tolist()],
            w.source.tolist())


def _assert_identical(segs, capacity=None):
    p_c, t_c = _run_loop(segs, compiled=True, capacity=capacity)
    p_n, t_n = _run_loop(segs, compiled=False, capacity=capacity)
    assert _state(p_c) == _state(p_n)
    assert t_c == t_n  # ops, sizes and clipped rows, float-exact


# -- randomized parity ----------------------------------------------------

# A small value grid makes eps-ties, shared endpoints, verticals and
# exactly-coincident pieces common; the continuous arm keeps generic
# geometry covered.
coord = st.one_of(
    st.integers(min_value=0, max_value=12).map(float),
    st.floats(
        min_value=0.0, max_value=12.0, allow_nan=False, width=64
    ),
)


@st.composite
def seg_lists(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    segs = []
    for i in range(n):
        y1, y2 = sorted((draw(coord), draw(coord)))
        segs.append(ImageSegment(y1, draw(coord), y2, draw(coord), i))
    return segs


@needs_ccore
class TestCompiledParity:
    @settings(max_examples=150, deadline=None)
    @given(segs=seg_lists())
    def test_fuzz_matches_cascade(self, segs):
        _assert_identical(segs)

    @settings(max_examples=60, deadline=None)
    @given(segs=seg_lists())
    def test_fuzz_capacity_edge(self, segs):
        # Minimum starting capacity: every few inserts straddle a
        # realloc boundary, exercising the C-side GROW handoff and
        # the re-centred buffer copy.
        _assert_identical(segs, capacity=2)

    def test_long_run_with_grows(self, rng):
        segs = random_image_segments(rng, 300)
        _assert_identical(segs, capacity=2)

    def test_matches_python_engine(self, rng):
        # Direct leg against the tuple-path reference (the scenario
        # parity matrix crosses the remaining config space).
        from repro.envelope.chain import Envelope
        from repro.envelope.splice import insert_segment

        segs = random_image_segments(rng, 120)
        prof, (ops, max_profile, offsets, *_rows) = _run_loop(
            segs, compiled=True
        )
        env = Envelope.empty()
        ref_ops, ref_max, ref_offsets = 0, 0, [0]
        for s in segs:
            r = insert_segment(env, s)
            env = r.envelope
            ref_ops += r.ops
            ref_max = max(ref_max, env.size)
            ref_offsets.append(ref_offsets[-1] + len(r.visibility.parts))
        assert (ops, max_profile, offsets) == (ref_ops, ref_max, ref_offsets)
        assert prof.to_envelope().pieces == env.pieces

    def test_eps_degenerate_and_vertical_segments(self):
        segs = [
            ImageSegment(0.0, 1.0, 4.0, 1.0, 0),
            ImageSegment(2.0, 3.0, 2.0, 5.0, 1),  # vertical
            ImageSegment(1.0, 1.0 + 1e-12, 1.0 + 5e-10, 1.0, 2),  # ~eps span
            ImageSegment(0.0, 1.0, 4.0, 1.0, 3),  # exactly coincident
        ]
        _assert_identical(segs)


# -- path pins ------------------------------------------------------------


@needs_ccore
class TestCascadePins:
    """``use_compiled_insert`` decides which kernel answers — always,
    for every window size, and never silently."""

    def _counting(self, monkeypatch):
        calls = {"ccore": 0, "fallback": 0, "reference": 0}
        import repro.envelope.flat_splice as splice_mod

        real_run = _ccore.insert_run
        real_reference = splice_mod._insert_reference

        def count_ccore(*a, **k):
            calls["ccore"] += 1
            out = real_run(*a, **k)
            calls["fallback"] += out[0] == _ccore.ST_FALLBACK
            return out

        def count_reference(*a, **k):
            calls["reference"] += 1
            return real_reference(*a, **k)

        monkeypatch.setattr(_ccore, "insert_run", count_ccore)
        monkeypatch.setattr(splice_mod, "_insert_reference", count_reference)
        return calls

    def _mixed_window_segments(self, rng):
        # Many narrow segments build a wide profile; the late spanning
        # segments then open windows of well over a hundred pieces.
        segs = random_image_segments(rng, 150, min_width=0.5)
        wide = [
            ImageSegment(0.0, 60.0 + i, 100.0, 60.5 + i, 1000 + i)
            for i in range(3)
        ]
        return segs + wide

    def test_compiled_on_answers_all_window_sizes(self, rng, monkeypatch):
        calls = self._counting(monkeypatch)
        segs = self._mixed_window_segments(rng)
        _run_loop(segs, compiled=True)
        assert calls["ccore"] >= 1
        assert calls["fallback"] == 0
        assert calls["reference"] == 0

    def test_compiled_off_runs_the_cascade(self, rng, monkeypatch):
        calls = self._counting(monkeypatch)
        segs = self._mixed_window_segments(rng)
        _run_loop(segs, compiled=False)
        assert calls["ccore"] == 0
        assert calls["reference"] == len(segs)

    def test_synthetic_source_window_declines(self, rng, monkeypatch):
        # Negative-source pieces coalesce on the builder rule the C
        # core doesn't implement: it must hand both inserts back, and
        # the reference path must produce the identical run.
        calls = self._counting(monkeypatch)
        synth = ImageSegment(2.0, 5.0, 8.0, 5.0, -1)
        over = ImageSegment(0.0, 3.0, 10.0, 7.0, 7)
        p_c, t_c = _run_loop([synth, over], compiled=True)
        assert calls["fallback"] == 2
        p_n, t_n = _run_loop([synth, over], compiled=False)
        assert _state(p_c) == _state(p_n)
        assert t_c == t_n

    def test_config_field_pins_the_path(self, rng, monkeypatch):
        calls = self._counting(monkeypatch)
        segs = random_image_segments(rng, 30)
        for cfg, on in ((COMPILED, True), (PER_INSERT, False)):
            calls["ccore"] = 0
            insert_run(segment_lanes(segs), config=cfg)
            assert (calls["ccore"] > 0) is on

    def test_env_opt_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "0")
        assert not _ccore._env_enabled()
        monkeypatch.setenv("REPRO_COMPILED", "off")
        assert not _ccore._env_enabled()
        monkeypatch.setenv("REPRO_COMPILED", "1")
        assert _ccore._env_enabled()
        monkeypatch.delenv("REPRO_COMPILED")
        assert _ccore._env_enabled()


# -- guard site -----------------------------------------------------------


@needs_ccore
class TestCompiledGuardSite:
    def _parity_under_plan(self, rng, mode, nth=2):
        segs = random_image_segments(rng, 80)
        with fi.inject("compiled_insert", mode, nth=nth) as plan:
            p_i, t_i = _run_loop(segs, compiled=True, capacity=2)
        assert plan.fired >= 1
        with fi.suppressed():
            p_n, t_n = _run_loop(segs, compiled=False, capacity=2)
        assert _state(p_i) == _state(p_n)
        assert t_i == t_n

    # The core hands no merged window to Python, so there is nothing to
    # corrupt: the site takes raise plans only.  Its C-side merged_ok
    # post-condition is pinned by the NaN-segment tests in
    # tests/test_insert_run.py.
    @pytest.mark.parametrize("mode", ["raise"])
    def test_injected_fault_absorbed_bit_exact(self, rng, mode):
        self._parity_under_plan(rng, mode)

    def test_repeat_plan_quarantines_and_stays_exact(self, rng):
        segs = random_image_segments(rng, 120)
        with fi.inject("compiled_insert", "raise", nth=1, repeat=True):
            p_i, t_i = _run_loop(segs, compiled=True)
            # Breaker tripped after FAULT_THRESHOLD faults; the rest of
            # the run stands aside without tripping the plan again.
            assert guard.is_quarantined("compiled_insert")
        rec = guard.current_report().sites["compiled_insert"]
        assert rec.quarantined and rec.count == guard.FAULT_THRESHOLD
        with fi.suppressed():
            p_n, t_n = _run_loop(segs, compiled=False)
        assert _state(p_i) == _state(p_n)
        assert t_i == t_n

    def test_other_site_plans_reach_their_kernel(self, rng):
        # With e.g. packed_splice armed, the compiled core must stand
        # aside so the injected boundary actually runs.
        segs = random_image_segments(rng, 60)
        with fi.inject("packed_splice", "raise", nth=2) as plan:
            _run_loop(segs, compiled=True)
        assert plan.fired >= 1

    def test_fault_recorded_in_sequential_report(self, monkeypatch):
        # Pinned on, so the site is live under REPRO_COMPILED=0 too.
        from repro.hsr.sequential import SequentialHSR
        from repro.terrain.generators import fractal_terrain

        runs = []
        real_run = _ccore.insert_run
        monkeypatch.setattr(
            _ccore, "insert_run", lambda *a: runs.append(a[2:4]) or real_run(*a)
        )
        terrain = fractal_terrain(size=9, seed=23)
        config = HsrConfig(engine="numpy", use_compiled_insert=True)
        with fi.inject("compiled_insert", "raise", nth=3) as plan:
            rn = SequentialHSR(config=config).run(terrain)
        with fi.suppressed():
            rp = SequentialHSR(engine="python").run(terrain)
        # The armed plan keeps the run on the core, one insert a call.
        assert runs and all(stop - start == 1 for start, stop in runs)
        assert plan.fired == 1
        assert rn.stats.ops == rp.stats.ops
        assert rn.visibility_map.segments == rp.visibility_map.segments
        assert rn.reliability is not None
        assert rn.reliability.sites["compiled_insert"].count == 1


# -- fallback installs ----------------------------------------------------


class TestFallback:
    def test_module_imports_without_extension(self):
        # Meaningful on both legs: with the extension absent the
        # wrappers are the no-op stubs; with it present they are live.
        assert hasattr(_ccore, "insert_run")
        assert hasattr(_ccore, "front_to_back")
        if not _ccore.HAVE_CCORE:
            assert _ccore.insert_run(None, None, 0, 0, 1e-9, None) is None
            assert _ccore.front_to_back(None, None, None, None, None, 1) is None
            assert not _ccore.COMPILED_DEFAULT

    def test_default_tracks_availability(self):
        assert _ccore.COMPILED_DEFAULT == (
            _ccore.HAVE_CCORE and _ccore._env_enabled()
        )
