"""Tests for the compiled run path (``flat_splice.insert_run`` +
``_ccore.insert_run``).

Contract under test: with the core built, a numpy-engine
``SequentialHSR`` run hands the whole front-to-back pass to the C core,
one call per chunk of at most 256 inserts plus one per early return
(reallocating splice, declined insert, failed post-condition), and is
*bit-exact* against the per-insert reference path
(``use_compiled_insert=False``) and ``engine="python"``: the same
visibility segments, ``ops``, ``k``, ``max_profile_size`` and final
profile.  Under a ``compiled_insert`` fault plan the core runs one
insert per call, so the plan counts inserts.  Under a plan at any other
site or a quarantined ``compiled_insert`` site the run stands aside to
the per-insert reference path.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import repro.envelope.flat_splice as splice_mod
from repro.config import HsrConfig
from repro.envelope import _ccore
from repro.envelope.flat_splice import insert_run, segment_lanes
from repro.envelope.packed import MIN_CAPACITY
from repro.errors import KernelFault
from repro.geometry.segments import ImageSegment
from repro.hsr.sequential import SequentialHSR
from repro.ordering.sweep import front_to_back_order
from repro.reliability import faultinject as fi
from repro.reliability import guard
from repro.scenarios.instances import (
    dem_terrain_for,
    flyover_terrains,
    terrain_for,
)
from repro.terrain.generators import fractal_terrain, grid_terrain_from_heights

needs_ccore = pytest.mark.skipif(
    not _ccore.HAVE_CCORE,
    reason="optional compiled core not built in this environment",
)

COMPILED = HsrConfig(engine="numpy", use_compiled_insert=True)
PER_INSERT = HsrConfig(engine="numpy", use_compiled_insert=False)
PYTHON = HsrConfig(engine="python")


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    fi.clear()
    guard.reset_ambient()
    monkeypatch.setattr(guard, "GUARDED_DISPATCH", True)
    yield
    fi.clear()
    guard.reset_ambient()


@pytest.fixture
def calls(monkeypatch):
    """Spy on both insert paths: every compiled ``insert_run`` call as
    ``(start, stop, status, next)``, and the count of per-insert
    ``_insert_reference`` calls (the reference path)."""
    log = {"run": [], "per_insert": 0}
    real_run = _ccore.insert_run
    real_flat = splice_mod._insert_reference

    def spy_run(profile, lanes, start, stop, eps, run):
        out = real_run(profile, lanes, start, stop, eps, run)
        log["run"].append((start, stop) + tuple(out))
        return out

    def spy_flat(*a, **k):
        log["per_insert"] += 1
        return real_flat(*a, **k)

    monkeypatch.setattr(_ccore, "insert_run", spy_run)
    monkeypatch.setattr(splice_mod, "_insert_reference", spy_flat)
    return log


def _lattice_fractal(size=17, seed=5):
    """Fractal heights on an exact lattice: every edge along x projects
    to a vertical image segment."""
    t = fractal_terrain(size=size, seed=seed)
    h = np.array([v.z for v in t.vertices]).reshape(size, size)
    return grid_terrain_from_heights(h, jitter_seed=None)


def _block_rows(run):
    """``run``'s offsets and rows as Python lists: ``(offsets, [(edge,
    ya, za, yb, zb), ...])``, compared by ``repr`` so a NaN row matches
    itself."""
    rows = run.rows
    edge = rows[4].view(np.int64).tolist()
    return repr((run.offsets.tolist(), list(zip(edge, *rows[:4].tolist()))))


def _python_rows(segs):
    """The same record from the ``engine="python"`` insert loop: each
    insert's visible parts clipped by ``ImageSegment.visible_piece``."""
    from repro.envelope.chain import Envelope
    from repro.envelope.splice import insert_segment

    env = Envelope.empty()
    offsets, rows = [0], []
    for seg in segs:
        res = insert_segment(env, seg)
        env = res.envelope
        rows += [
            (seg.source, *seg.visible_piece(p.ya, p.yb)) for p in res.visibility.parts
        ]
        offsets.append(len(rows))
    return repr((offsets, rows))


def _assert_rows_match(run, segs):
    """``run``'s row block and offsets equal the per-insert path's byte
    for byte, and the python engine's record."""
    ref = insert_run(segment_lanes(segs), config=PER_INSERT)
    assert run.rows.shape == (5, run.offsets[-1])
    assert run.rows.tobytes() == ref.rows.tobytes()
    assert run.offsets.tobytes() == ref.offsets.tobytes()
    assert _block_rows(run) == _python_rows(segs)


def _signature(terrain, config, order):
    seq = SequentialHSR(config=config)
    res = seq.run(terrain, order=order)
    return (
        res.visibility_map.segments,
        res.stats.ops,
        res.stats.k,
        res.stats.extra["max_profile_size"],
        seq.final_profile(terrain, order=order).pieces,
    )


def _terrains():
    yield "lattice-fractal", _lattice_fractal()
    base = fractal_terrain(size=17, seed=11)
    for az in (20.0, 95.0, 200.0, 317.0):
        yield f"fractal@{az:g}", base.rotated(az)
    yield "dem", dem_terrain_for(
        {"path": "data/dem_tile.asc", "format": "esri-ascii"}
    )
    for f, frame in enumerate(
        flyover_terrains(
            {"family": "fractal", "size": 17, "seed": 7, "frames": 3}
        )
    ):
        yield f"flyover-{f}", frame
    for family in ("constant_plateau", "lattice_plateau"):
        yield family, terrain_for({"family": family, "size": 9})


TERRAINS = list(_terrains())


@needs_ccore
class TestRunParity:
    @pytest.mark.parametrize("tie_break", ["min", "max"])
    @pytest.mark.parametrize(
        "name,terrain", TERRAINS, ids=[n for n, _ in TERRAINS]
    )
    def test_bit_exact_across_paths(self, name, terrain, tie_break, calls):
        order = front_to_back_order(terrain, tie_break=tie_break)
        got = _signature(terrain, COMPILED, order)
        assert calls["run"], "the compiled run path did not answer"
        assert got == _signature(terrain, PER_INSERT, order)
        assert got == _signature(terrain, PYTHON, order)

    def test_lattice_has_vertical_segments(self):
        lanes = _lattice_fractal().image_lanes()
        assert int((lanes[0] == lanes[2]).sum()) > 100

    def test_image_lanes_match_image_segments(self):
        terrain = fractal_terrain(size=9, seed=4).rotated(33.0)
        order = front_to_back_order(terrain)
        lanes = terrain.image_lanes(order)
        got = [
            ImageSegment(*(float(lane[i]) for lane in lanes[:4]), int(lanes[4][i]))
            for i in range(len(order))
        ]
        assert got == [terrain.image_segment(e) for e in order]

    def test_layered_bands_exercise_the_shortcut(self, calls):
        # Alternating z bands: many all-hidden inserts, which the
        # core's shortcut answers without a scan, and many fully
        # visible ones, which its scan and merge answer like any other.
        from repro.scenarios.instances import _segments_signature

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
        got = _segments_signature(segs, COMPILED)
        assert calls["run"] and calls["per_insert"] == 0
        assert got == _segments_signature(segs, PER_INSERT)
        assert got == _segments_signature(segs, PYTHON)

    @pytest.mark.parametrize("base", [10.0, 1e6])
    def test_tops_inside_the_all_hidden_margin(self, base):
        # A gap-free V of two pieces, lowest at `base` in its middle,
        # covers every flat probe.  Each probe sits below it by a gap
        # inside the all-hidden shortcut's margin (eps + 1e-12 *
        # scale), so the shortcut must decline and the scan answer;
        # then one gap just outside it, where the shortcut answers, and
        # a probe 2 eps above, which is visible.  At base 1e6 the scale
        # term, not eps, sets the margin.
        from repro.geometry.primitives import EPS
        from repro.scenarios.instances import _segments_signature

        margin = EPS + 1e-12 * (2 * base + 1)
        segs = [
            ImageSegment(0.0, base + 1.0, 10.0, base, 0),
            ImageSegment(10.0, base, 20.0, base + 1.0, 1),
        ]
        gaps = (0.0, 0.5 * EPS, EPS, 0.5 * margin, 0.99 * margin, 1.01 * margin)
        for j, gap in enumerate((*gaps, -2 * EPS)):
            top = base - gap
            segs.append(ImageSegment(2.0 + j, top, 18.0 - j, top, 2 + j))
        _assert_rows_match(insert_run(segment_lanes(segs), config=COMPILED), segs)
        got = _segments_signature(segs, COMPILED)
        assert got == _segments_signature(segs, PER_INSERT)
        assert got == _segments_signature(segs, PYTHON)

    def test_exact_breakpoint_touches(self, rng):
        # Segments re-using existing profile breakpoints hit the
        # coincident-endpoint shortcuts of the core's sweep.
        from repro.envelope.chain import Envelope
        from repro.envelope.splice import insert_segment
        from repro.scenarios.instances import _segments_signature
        from tests.conftest import random_image_segments

        env = Envelope.empty()
        segs = []
        for j, s in enumerate(random_image_segments(rng, 70)):
            if j % 3 == 2 and env.pieces:
                p = env.pieces[rng.randrange(len(env.pieces))]
                s = ImageSegment(
                    p.ya, rng.uniform(0, 120), p.yb, rng.uniform(0, 120), 1000 + j
                )
            env = insert_segment(env, s).envelope
            segs.append(s)
        got = _segments_signature(segs, COMPILED)
        assert got == _segments_signature(segs, PER_INSERT)
        assert got == _segments_signature(segs, PYTHON)

    def test_segment_lanes_record_matches_per_insert(self, rng):
        from repro.scenarios.instances import _segments_signature
        from tests.conftest import random_image_segments

        segs = random_image_segments(rng, 300)
        got = _segments_signature(segs, COMPILED)
        assert got == _segments_signature(segs, PER_INSERT)
        assert got == _segments_signature(segs, PYTHON)


@needs_ccore
class TestRunCalls:
    def test_grows_mid_chunk_from_min_capacity(self, calls, rng):
        from tests.conftest import random_image_segments

        segs = random_image_segments(rng, 600)
        run = insert_run(segment_lanes(segs), config=COMPILED)
        grows = [c for c in calls["run"] if c[2] == _ccore.ST_GROW]
        assert len(grows) >= 3
        assert all(c[3] < c[1] for c in grows)  # returned mid-chunk
        assert run.profile.capacity > MIN_CAPACITY
        ref = insert_run(segment_lanes(segs), config=PER_INSERT)
        assert run.profile.to_envelope().pieces == ref.profile.to_envelope().pieces
        assert (run.ops, run.max_profile) == (ref.ops, ref.max_profile)
        _assert_rows_match(run, segs)

    def test_call_count_pin(self, calls):
        terrain = fractal_terrain(size=33, seed=2)
        n = terrain.n_edges
        SequentialHSR(config=COMPILED).run(terrain)
        st = [c[2] for c in calls["run"]]
        grows = st.count(_ccore.ST_GROW)
        fallbacks = st.count(_ccore.ST_FALLBACK)
        assert len(st) <= math.ceil(n / 256) + grows + fallbacks
        assert fallbacks == 0 and calls["per_insert"] == 0
        assert all(c[1] - c[0] <= 256 for c in calls["run"])

    def test_declined_inserts_run_per_insert(self, calls):
        # A synthetic source, then a segment over the synthetic piece:
        # the core declines both and the per-insert path answers them.
        segs = [
            ImageSegment(2.0, 5.0, 8.0, 5.0, -1),
            ImageSegment(0.0, 3.0, 10.0, 7.0, 7),
            ImageSegment(11.0, 1.0, 12.0, 2.0, 8),
        ]
        run = insert_run(segment_lanes(segs), config=COMPILED)
        st = [c[2] for c in calls["run"]]
        assert st.count(_ccore.ST_FALLBACK) == 2
        ref = insert_run(segment_lanes(segs), config=PER_INSERT)
        assert run.profile.to_envelope().pieces == ref.profile.to_envelope().pieces
        assert run.ops == ref.ops
        _assert_rows_match(run, segs)

    def test_rows_keep_insert_order_across_paths(self, calls):
        # Compiled rows, then two declined inserts' rows, then compiled
        # rows again, all inside one chunk: the block keeps insert
        # order, and the offsets count each insert's rows.
        segs = [
            ImageSegment(20.0, 1.0, 22.0, 2.0, 6),
            ImageSegment(2.0, 5.0, 8.0, 5.0, -1),
            ImageSegment(0.0, 3.0, 10.0, 7.0, 7),
            ImageSegment(11.0, 1.0, 12.0, 2.0, 8),
            ImageSegment(21.0, 0.0, 25.0, 9.0, 9),
        ]
        run = insert_run(segment_lanes(segs), config=COMPILED)
        assert [c[2] for c in calls["run"]] == [
            _ccore.ST_FALLBACK, _ccore.ST_FALLBACK, _ccore.ST_DONE,
        ]
        assert calls["per_insert"] == 2
        assert run.offsets.tolist() == [0, 1, 2, 4, 5, 6]
        assert run.rows[4].view(np.int64).tolist() == [6, -1, 7, 7, 8, 9]
        _assert_rows_match(run, segs)

    def test_rejects_mismatched_lanes(self):
        y1, z1, y2, z2, src = segment_lanes(
            [ImageSegment(0.0, 1.0, 2.0, 1.0, 0), ImageSegment(1.0, 2.0, 3.0, 2.0, 1)]
        )
        for bad in (
            (y1, z1, y2, z2[:1], src),
            (y1, z1, y2, z2, np.asarray(src, dtype=np.int32)),
        ):
            with pytest.raises(ValueError, match="lanes"):
                insert_run(bad, config=COMPILED)

    def _nan_segments(self):
        # The NaN segment's merged window fails the C post-condition;
        # the others never overlap it.
        return [
            ImageSegment(0.0, math.nan, 1.0, 2.0, 0),
            ImageSegment(2.0, 1.0, 5.0, 3.0, 1),
            ImageSegment(3.0, 4.0, 6.0, 0.0, 2),
        ]

    def test_fault_recorded_and_run_on_reference(self, calls):
        segs = self._nan_segments()
        with guard.reliability_run() as rep:
            run = insert_run(segment_lanes(segs), config=COMPILED)
        assert rep.sites["compiled_insert"].count == 1
        assert [c[2] for c in calls["run"]][0] == _ccore.ST_FAULT
        with guard.reliability_run():
            ref = insert_run(segment_lanes(segs), config=PER_INSERT)
        got = run.profile.to_envelope().pieces
        want = ref.profile.to_envelope().pieces
        assert repr(got) == repr(want)
        assert run.ops == ref.ops
        with guard.reliability_run():
            _assert_rows_match(run, segs)

    def test_fault_strict_mode_raises(self, monkeypatch):
        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with pytest.raises(KernelFault):
            insert_run(segment_lanes(self._nan_segments()), config=COMPILED)

    def test_compiled_insert_plan_steps_one_insert(self, calls, monkeypatch):
        # A compiled_insert plan keeps the run on the core, one insert
        # per call, and trips the site before each: the third insert
        # is recorded and answered on the reference path.
        terrain = fractal_terrain(size=9, seed=23)
        order = front_to_back_order(terrain)
        with fi.inject("compiled_insert", "raise", nth=3) as plan:
            res = SequentialHSR(config=COMPILED).run(terrain, order=order)
            got = (
                res.visibility_map.segments,
                res.stats.ops,
                res.stats.k,
                res.stats.extra["max_profile_size"],
            )
        assert plan.fired == 1
        assert calls["run"] and all(c[1] - c[0] == 1 for c in calls["run"])
        assert calls["run"][0][:2] == (0, 1) and (2, 3) not in {
            c[:2] for c in calls["run"]
        }
        assert calls["per_insert"] == 1  # the tripped insert
        assert res.reliability.sites["compiled_insert"].count == 1
        for config in (PER_INSERT, PYTHON):
            assert got == _signature(terrain, config, order)[:4]
        # The run's own block: the tripped insert's rows sit between
        # the rows of the calls around it.
        lanes = terrain.image_lanes(order)
        with fi.inject("compiled_insert", "raise", nth=3) as plan:
            run = insert_run(lanes, config=COMPILED)
        assert plan.fired == 1
        _assert_rows_match(run, [terrain.image_segment(e) for e in order])
        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with fi.inject("compiled_insert", "raise", nth=3):
            with pytest.raises(KernelFault) as exc:
                SequentialHSR(config=COMPILED).run(terrain, order=order)
        assert exc.value.site == "compiled_insert"


@needs_ccore
class TestStandAside:
    def _segments(self, rng):
        from tests.conftest import random_image_segments

        return random_image_segments(rng, 80)

    def test_armed_plan(self, calls):
        # A plan at a reference-path site: the run stands aside so the
        # armed boundary actually runs.
        terrain = fractal_terrain(size=9, seed=23)
        with fi.inject("packed_splice", "raise", nth=3) as plan:
            res = SequentialHSR(config=COMPILED).run(terrain)
        assert plan.fired == 1
        assert calls["run"] == [] and calls["per_insert"] > 0
        assert res.reliability.sites["packed_splice"].count == 1

    @pytest.mark.parametrize("site", ["compiled_insert"])
    def test_quarantined_site(self, site, calls, rng):
        segs = self._segments(rng)
        with guard.reliability_run():
            for _ in range(guard.FAULT_THRESHOLD):
                guard.handle_fault(site, RuntimeError("test"))
            assert guard.is_quarantined(site)
            run = insert_run(segment_lanes(segs), config=COMPILED)
        assert calls["run"] == []
        ref = insert_run(segment_lanes(segs), config=PER_INSERT)
        assert run.ops == ref.ops
        assert run.rows.tobytes() == ref.rows.tobytes()

    def test_toggle_off(self, calls, rng, monkeypatch):
        insert_run(segment_lanes(self._segments(rng)), config=PER_INSERT)
        # No config: the default, here as if REPRO_COMPILED=0 was set.
        monkeypatch.setattr(_ccore, "COMPILED_DEFAULT", False)
        insert_run(segment_lanes(self._segments(rng)))
        assert calls["run"] == [] and calls["per_insert"] == 160

