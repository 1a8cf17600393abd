"""Fault-injection integration tests for the guarded dispatch layer.

The contract under test (ISSUE 6): with any named injection site armed
in guarded mode, the final visibility map, ``ops`` and
``max_profile_size`` are **bit-exact** with ``engine="python"`` on the
parity workloads — the fault is absorbed by the python-path retry and
shows up only in ``result.reliability``.  In strict mode
(``GUARDED_DISPATCH = False``) the same fault raises
:class:`~repro.errors.KernelFault` naming the site.
"""

from __future__ import annotations

import random

import pytest

from repro.config import HsrConfig
from repro.envelope import _ccore
from repro.errors import KernelFault
from repro.reliability import faultinject as fi
from repro.reliability import guard
from tests.conftest import random_image_segments


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    fi.clear()
    guard.reset_ambient()
    monkeypatch.setattr(guard, "GUARDED_DISPATCH", True)
    yield
    fi.clear()
    guard.reset_ambient()


def _fractal():
    from repro.terrain.generators import fractal_terrain

    return fractal_terrain(size=9, seed=23)


def _valley():
    from repro.terrain.generators import valley_terrain

    return valley_terrain(rows=9, cols=9, seed=7)


def _basin():
    from repro.bench.workloads import occlusion_suite

    return occlusion_suite((0.3, 1.2), rows=8, cols=8, seed=31)[0][1]


SUITES = [_fractal, _valley, _basin]


def _assert_sequential_parity(terrain, site, *, expect_record=True):
    """Numpy run under the armed plan vs an uninjected python run."""
    from repro.hsr.sequential import SequentialHSR

    rn = SequentialHSR(engine="numpy").run(terrain)
    with fi.suppressed():
        rp = SequentialHSR(engine="python").run(terrain)
    assert rn.stats.ops == rp.stats.ops
    assert rn.stats.k == rp.stats.k
    assert rn.stats.extra == rp.stats.extra
    assert rn.order == rp.order
    assert rn.visibility_map.segments == rp.visibility_map.segments
    if expect_record:
        assert rn.reliability is not None
        assert rn.reliability.sites[site].count >= 1
    return rn


class TestSequentialInjectionParity:
    """The packed splice is the hot site of the reference insert path,
    which a plan at any site but ``compiled_insert`` puts every insert
    on."""

    @pytest.mark.parametrize("suite", SUITES, ids=["fractal", "valley", "basin"])
    def test_packed_splice_raise(self, suite):
        terrain = suite()
        with fi.inject("packed_splice", "raise", nth=5) as plan:
            _assert_sequential_parity(terrain, "packed_splice")
        assert plan.fired >= 1

    def test_uninjected_run_reports_clean(self):
        from repro.hsr.sequential import SequentialHSR

        res = SequentialHSR(engine="numpy").run(_fractal())
        assert res.reliability is not None
        assert not res.reliability.degraded


class TestStrictMode:
    @pytest.mark.parametrize("site,mode", [("packed_splice", "raise")])
    def test_strict_raises_naming_site(self, monkeypatch, site, mode):
        from repro.hsr.sequential import SequentialHSR

        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with fi.inject(site, mode, nth=3):
            with pytest.raises(KernelFault) as exc:
                SequentialHSR(engine="numpy").run(_fractal())
        assert exc.value.site == site


class TestProfileTick:
    """The periodic whole-profile tick is detection-only: corruption of
    a *live* profile raises KernelFault in BOTH modes (degrading would
    hand back garbage)."""

    @pytest.mark.parametrize("mode", ["unsorted", "nan"])
    def test_guarded_mode_raises(self, mode):
        from repro.hsr.sequential import SequentialHSR

        with fi.inject("profile", mode, nth=10) as plan:
            with pytest.raises(KernelFault) as exc:
                SequentialHSR(engine="numpy").run(_fractal())
        assert exc.value.site == "profile"
        assert plan.fired == 1

    def test_strict_mode_raises(self, monkeypatch):
        from repro.hsr.sequential import SequentialHSR

        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with fi.inject("profile", "nan", nth=10):
            with pytest.raises(KernelFault) as exc:
                SequentialHSR(engine="numpy").run(_fractal())
        assert exc.value.site == "profile"

    @pytest.mark.parametrize("mode", ["unsorted", "nan"])
    def test_no_core_poison_checked_at_once(self, mode, monkeypatch):
        # Without the core every insert takes the reference path; the
        # poisoned profile is checked before the next insert, not at
        # the next 256th insert.
        import repro.envelope.flat_splice as splice_mod
        from repro.config import HsrConfig
        from repro.envelope.flat_splice import insert_run, segment_lanes

        done = []
        real = splice_mod._insert_reference

        def counting(*a):
            done.append(1)
            return real(*a)

        monkeypatch.setattr(splice_mod, "_insert_reference", counting)
        segs = random_image_segments(random.Random(3), 40)
        config = HsrConfig(engine="numpy", use_compiled_insert=False)
        with fi.inject("profile", mode, nth=10) as plan:
            with pytest.raises(KernelFault) as exc:
                insert_run(segment_lanes(segs), config=config)
        assert exc.value.site == "profile"
        assert plan.fired == 1
        # The first insert meets an empty profile (not eligible), so
        # the 10th eligible poison lands before insert 10.
        assert len(done) == 10


def _expected_checks(segs, compiled):
    """The profiles a run's whole-profile checks see: the final one for
    a compiled run, else the profile after every ``_CHECK_EVERY``-th
    insert but the last."""
    from repro.envelope.chain import Envelope
    from repro.envelope.flat_splice import _CHECK_EVERY
    from repro.envelope.splice import insert_segment

    env, want = Envelope.empty(), []
    for i, s in enumerate(segs, 1):
        env = insert_segment(env, s).envelope
        if i % _CHECK_EVERY == 0 and i < len(segs):
            want.append(env.pieces)
    return [env.pieces] if compiled else want


class TestProfileCheckCadence:
    """The whole-profile check of a reference run lands after its own
    256th, 512th, ... insert, and a compiled run's once, on its final
    profile: neither earlier runs nor runs on other threads shift
    them."""

    @pytest.mark.parametrize("prior", [0, 1, 255, 300])
    @pytest.mark.parametrize("compiled", [True, False], ids=["core", "reference"])
    def test_cadence_is_per_run(self, compiled, prior, monkeypatch):
        from repro.envelope.flat_splice import insert_run, segment_lanes

        config = HsrConfig(engine="numpy", use_compiled_insert=compiled)
        rng = random.Random(11)
        if prior:
            insert_run(
                segment_lanes(random_image_segments(rng, prior)), config=config
            )
        segs = random_image_segments(rng, 600)
        on_core = _ccore.compiled_enabled(config, "compiled_insert")
        want = _expected_checks(segs, on_core)
        assert len(want) == (1 if on_core else 2)
        real = guard.check_profile
        seen = []
        monkeypatch.setattr(
            guard,
            "check_profile",
            lambda p: seen.append(p.to_envelope().pieces) or real(p),
        )
        insert_run(segment_lanes(segs), config=config)
        assert seen == want

    def test_cadence_is_per_thread(self, monkeypatch):
        import threading

        from repro.envelope.flat_splice import insert_run, segment_lanes

        rng = random.Random(12)
        runs = [random_image_segments(rng, n) for n in (600, 530, 777)]
        seen: dict = {}
        real = guard.check_profile

        def spy(profile):
            seen[threading.get_ident()].append(profile.to_envelope().pieces)
            return real(profile)

        monkeypatch.setattr(guard, "check_profile", spy)
        start = threading.Barrier(len(runs), timeout=60)
        got = [None] * len(runs)

        def work(j):
            mine = seen[threading.get_ident()] = []
            start.wait()
            insert_run(segment_lanes(runs[j]))
            got[j] = mine

        threads = [threading.Thread(target=work, args=(j,)) for j in range(len(runs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        on_core = _ccore.compiled_enabled(None, "compiled_insert")
        assert got == [_expected_checks(segs, on_core) for segs in runs]


class TestCircuitBreaker:
    def test_repeat_plan_quarantines_and_stays_exact(self):
        with fi.inject("packed_splice", "raise", nth=1, repeat=True):
            res = _assert_sequential_parity(_fractal(), "packed_splice")
        rec = res.reliability.sites["packed_splice"]
        assert rec.quarantined
        # The breaker opened after FAULT_THRESHOLD faults; the rest of
        # the run routed straight to the python path, so the fault
        # count stays pinned at the threshold.
        assert rec.count == guard.FAULT_THRESHOLD
        assert res.reliability.quarantined_sites() == {"packed_splice"}

    def test_quarantine_does_not_leak_across_runs(self):
        from repro.hsr.sequential import SequentialHSR

        with fi.inject("packed_splice", "raise", nth=1, repeat=True):
            SequentialHSR(engine="numpy").run(_fractal())
        res = SequentialHSR(engine="numpy").run(_fractal())
        assert not res.reliability.degraded


#: The compiled core pinned on, so its sites are live under
#: ``REPRO_COMPILED=0`` too.
CORE = HsrConfig(engine="numpy", use_compiled_insert=True)


@pytest.mark.skipif(not _ccore.HAVE_CCORE, reason="compiled core not built")
class TestBuildSweep:
    """The compiled ``build_envelope`` runs under guard site
    ``build_sweep`` (raise-only: its kernel validates every merge in C
    and a plan of another mode stands the core aside): a fault reruns
    the whole build on the reference recursion."""

    def _segments(self, rng):
        return random_image_segments(rng, 120)

    def _assert_recovered(self, segs):
        from repro.envelope.build import build_envelope
        from repro.pram.tracker import PramTracker

        tp, tn = PramTracker(), PramTracker()
        with fi.suppressed():
            rp = build_envelope(segs, engine="python", tracker=tp)
        rn = build_envelope(segs, config=CORE, tracker=tn)
        assert rn.envelope.pieces == rp.envelope.pieces
        assert rn.ops == rp.ops
        assert rn.crossings == rp.crossings
        # Charged once, by the rerun: the faulted build charged nothing.
        assert (tn.work, tn.depth) == (tp.work, tp.depth)
        assert guard.current_report().sites["build_sweep"].count == 1

    @pytest.mark.parametrize("mode", ["raise"])
    def test_guarded_recovers_bit_exact(self, rng, mode):
        with fi.inject("build_sweep", mode) as plan:
            self._assert_recovered(self._segments(rng))
        assert plan.fired == 1

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_kernel_fault_recovers_bit_exact(self, rng, when, monkeypatch):
        """A post-condition fault (``CCoreFault``) of the build's one
        compiled call, answered before the call runs or after it has
        filled the context, reruns the build on the reference."""
        from tests.test_phase2_ccore import _FaultingPhase

        lib = _FaultingPhase(_ccore.lib, "repro_envelope_build", when)
        monkeypatch.setattr(_ccore, "lib", lib)
        self._assert_recovered(self._segments(rng))
        assert lib.calls == 1

    def test_strict_raises(self, rng, monkeypatch):
        from repro.envelope.build import build_envelope

        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with fi.inject("build_sweep", "raise"):
            with pytest.raises(KernelFault) as exc:
                build_envelope(self._segments(rng), config=CORE)
        assert exc.value.site == "build_sweep"


@pytest.mark.skipif(not _ccore.HAVE_CCORE, reason="compiled core not built")
class TestPhase2Injection:
    """Direct-mode phase 2 runs as one compiled call under the
    ``phase2_merge`` guard; a fault reruns Phase 2 from the root on
    the reference."""

    def _assert_parallel_parity(self, site):
        from repro.hsr.parallel import ParallelHSR

        terrain = _valley()
        rn = ParallelHSR(mode="direct", config=CORE).run(terrain)
        with fi.suppressed():
            rp = ParallelHSR(mode="direct", engine="python").run(terrain)
        assert rn.stats.ops == rp.stats.ops
        assert rn.stats.k == rp.stats.k
        assert rn.stats.extra == rp.stats.extra
        assert rn.order == rp.order
        assert rn.visibility_map.segments == rp.visibility_map.segments
        assert rn.reliability.sites[site].count >= 1
        return rn

    @pytest.mark.parametrize("mode", ["raise"])
    def test_phase2_merge(self, mode):
        with fi.inject("phase2_merge", mode) as plan:
            self._assert_parallel_parity("phase2_merge")
        assert plan.fired >= 1

    def test_phase2_strict_raises(self, monkeypatch):
        from repro.hsr.parallel import ParallelHSR

        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with fi.inject("phase2_merge", "raise"):
            with pytest.raises(KernelFault) as exc:
                ParallelHSR(mode="direct", config=CORE).run(_valley())
        assert exc.value.site == "phase2_merge"


class TestEnvDrivenInjection:
    def test_env_spec_installs_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "packed_splice:raise:2")
        plan = fi.configure_from_env()
        assert plan is not None and plan.site == "packed_splice"
        _assert_sequential_parity(_fractal(), "packed_splice")
        assert plan.fired == 1


def _run_sequential():
    from repro.hsr.sequential import SequentialHSR

    SequentialHSR(engine="numpy").run(_fractal())


def _run_compiled():
    from repro.envelope import _ccore

    from repro.config import HsrConfig
    from repro.hsr.sequential import SequentialHSR

    if not _ccore.HAVE_CCORE:
        pytest.skip("compiled core not built")
    # Pinned on, so the site is live under REPRO_COMPILED=0 too.
    config = HsrConfig(engine="numpy", use_compiled_insert=True)
    SequentialHSR(config=config).run(_fractal())


def _run_build():
    from repro.envelope.build import build_envelope

    if not _ccore.HAVE_CCORE:
        pytest.skip("compiled core not built")
    build_envelope(random_image_segments(random.Random(5), 120), config=CORE)


def _run_direct():
    from repro.hsr.parallel import ParallelHSR

    if not _ccore.HAVE_CCORE:
        pytest.skip("compiled core not built")
    ParallelHSR(mode="direct", config=CORE).run(_valley())


def _run_persistent():
    from repro.hsr.parallel import ParallelHSR

    ParallelHSR(mode="persistent", engine="numpy").run(_valley())


def _observers(terrain):
    """Observers at and just above each vertex: some hidden, some seen."""
    return [(v.x, v.y, v.z + dz) for v in terrain.vertices for dz in (0.0, 0.5)]


def _run_points():
    from repro.hsr.queries import visible_many

    if not _ccore.HAVE_CCORE:
        pytest.skip("compiled core not built")
    terrain = _fractal()
    visible_many(terrain, _observers(terrain), config=CORE)


#: One production path per injection site.  ``profile`` is the
#: detection-only tick (``nan`` plans only; it raises by contract).
_SITE_PATHS = {
    "compiled_insert": ("raise", _run_compiled),
    "packed_splice": ("raise", _run_sequential),
    "build_sweep": ("raise", _run_build),
    "pct_merge": ("raise", _run_direct),
    "phase2_merge": ("raise", _run_direct),
    "rope_splice": ("raise", _run_persistent),
    "point_scan": ("raise", _run_points),
    "profile": ("nan", _run_sequential),
}


@pytest.mark.parametrize("site", fi.SITES)
def test_every_site_fires_on_a_production_path(site):
    """Each injection site is reachable: a plan armed there fires on a
    real run (a site nothing calls would pass the CI loop silently)."""
    mode, run = _SITE_PATHS[site]
    with fi.inject(site, mode) as plan:
        try:
            run()
        except KernelFault as exc:
            assert site == "profile" and exc.site == "profile"
    assert plan.fired >= 1


def _build_signature(config):
    """Two builds: a build trips its site once, so the second one
    meets an ``nth=2`` plan."""
    from repro.envelope.build import build_envelope

    out = []
    for seed in (5, 6):
        segs = random_image_segments(random.Random(seed), 120)
        res = build_envelope(segs, config=config)
        out.append((res.envelope.pieces, res.crossings, res.ops))
    return out


def _hsr_signature(terrain, mode=None):
    from repro.scenarios.instances import _run_signature

    return lambda config: _run_signature(terrain(), config, mode)


def _two_runs(terrain, mode):
    """Two runs: a ``SequentialHSR`` run trips ``compiled_insert`` once
    and a ``ParallelHSR`` run each phase's site once, so the second one
    meets an ``nth=2`` plan."""
    run = _hsr_signature(terrain, mode)
    return lambda config: [run(config), run(config)]


def _points_signature(config):
    """Two observer batches on one session: a batch trips
    ``point_scan`` once, so the second one meets an ``nth=2`` plan."""
    from repro.service import EnvelopeCache, ViewshedSession

    terrain = _fractal()
    session = ViewshedSession(terrain, config=config, cache=EnvelopeCache())
    pts = _observers(terrain)
    return [session.points_visible(pts[::2]), session.points_visible(pts[1::2])]


NUMPY = HsrConfig(engine="numpy")

#: One production path per ``raise``-capable site, with the config
#: that puts the site on it: ``(signature of the run, config)``.
_RAISE_PATHS = {
    "compiled_insert": (_two_runs(_fractal, None), CORE),
    "packed_splice": (_hsr_signature(_fractal), NUMPY),
    "build_sweep": (_build_signature, CORE),
    "pct_merge": (_two_runs(_valley, "direct"), CORE),
    "phase2_merge": (_two_runs(_valley, "direct"), CORE),
    "rope_splice": (_hsr_signature(_valley, "persistent"), NUMPY),
    "point_scan": (_points_signature, CORE),
}


@pytest.mark.parametrize("site", [s for s in fi.SITES if s != "profile"])
def test_every_raise_site_recovers_bit_exact(site):
    """``<site>:raise:2`` — one step of the CI fault loop — on the
    site's production path leaves the result bit-exact with the python
    engine."""
    run, config = _RAISE_PATHS[site]
    if config is CORE and not _ccore.HAVE_CCORE:
        pytest.skip("compiled core not built")
    with fi.inject(site, "raise", nth=2) as plan:
        got = run(config)
    assert plan.fired == 1
    with fi.suppressed():
        assert got == run(HsrConfig(engine="python"))
