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

import repro.envelope.engine as engine_mod
from repro.errors import KernelFault
from repro.geometry.segments import ImageSegment
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
    """Default cutoffs: the scalar fused insert and the packed splice
    are the hot sites."""

    @pytest.mark.parametrize("mode", ["raise", "unsorted", "nan"])
    @pytest.mark.parametrize("suite", SUITES, ids=["fractal", "valley", "basin"])
    def test_fused_insert(self, suite, mode):
        terrain = suite()
        with fi.inject("fused_insert", mode, nth=3) as plan:
            _assert_sequential_parity(terrain, "fused_insert")
        assert plan.fired >= 1

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


def _assert_oracle_parity(terrain, site):
    """The tuple insert loop behind :class:`VisibilityOracle` (engine
    auto, so numpy) under the armed plan vs an uninjected python loop,
    checkpoint by checkpoint."""
    from repro.envelope.chain import Envelope
    from repro.envelope.splice import insert_segment
    from repro.hsr.queries import VisibilityOracle

    oracle = VisibilityOracle(terrain)
    with fi.suppressed():
        env = Envelope.empty()
        ref = [env]
        for edge in oracle.order:
            seg = terrain.image_segment(edge)
            env = insert_segment(env, seg, engine="python").envelope
            ref.append(env)
    for cut, prof in zip(oracle._cuts, oracle._profiles):
        assert prof.pieces == ref[cut].pieces
    assert guard.current_report().sites[site].count >= 1


@pytest.fixture
def _force_dispatch(monkeypatch):
    """Engine cutoffs forced to 1, so the tuple path's separate
    dispatch kernels (and their guards) run on every insert."""
    monkeypatch.setattr(engine_mod, "FLAT_VISIBILITY_CUTOFF", 1)
    monkeypatch.setattr(engine_mod, "FLAT_MERGE_CUTOFF", 1)


@pytest.mark.usefixtures("_force_dispatch")
class TestForcedFlatInjectionParity:
    """The ``merge_dispatch`` / ``visibility_dispatch`` sites guard the
    tuple insert path (``splice.insert_segment`` under numpy), which
    :class:`~repro.hsr.queries.VisibilityOracle` runs per edge."""

    @pytest.mark.parametrize("mode", ["raise", "unsorted", "nan"])
    def test_merge_dispatch(self, mode):
        with fi.inject("merge_dispatch", mode, nth=2) as plan:
            _assert_oracle_parity(_valley(), "merge_dispatch")
        assert plan.fired >= 1

    @pytest.mark.parametrize("mode", ["raise", "unsorted", "nan"])
    def test_visibility_dispatch(self, mode):
        with fi.inject("visibility_dispatch", mode, nth=2) as plan:
            _assert_oracle_parity(_valley(), "visibility_dispatch")
        assert plan.fired >= 1


class TestStrictMode:
    @pytest.mark.parametrize(
        "site,mode",
        [("fused_insert", "raise"), ("fused_insert", "nan"),
         ("packed_splice", "raise")],
    )
    def test_strict_raises_naming_site(self, monkeypatch, site, mode):
        from repro.hsr.sequential import SequentialHSR

        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with fi.inject(site, mode, nth=3):
            with pytest.raises(KernelFault) as exc:
                SequentialHSR(engine="numpy").run(_fractal())
        assert exc.value.site == site

    @pytest.mark.usefixtures("_force_dispatch")
    def test_strict_merge_dispatch(self, monkeypatch):
        from repro.hsr.queries import VisibilityOracle

        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with fi.inject("merge_dispatch", "raise", nth=2):
            with pytest.raises(KernelFault) as exc:
                VisibilityOracle(_valley())
        assert exc.value.site == "merge_dispatch"


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


class TestCircuitBreaker:
    def test_repeat_plan_quarantines_and_stays_exact(self):
        with fi.inject("fused_insert", "raise", nth=1, repeat=True):
            res = _assert_sequential_parity(_fractal(), "fused_insert")
        rec = res.reliability.sites["fused_insert"]
        assert rec.quarantined
        # The breaker opened after FAULT_THRESHOLD faults; the rest of
        # the run routed straight to the python path, so the fault
        # count stays pinned at the threshold.
        assert rec.count == guard.FAULT_THRESHOLD
        assert res.reliability.quarantined_sites() == {"fused_insert"}

    def test_quarantine_does_not_leak_across_runs(self):
        from repro.hsr.sequential import SequentialHSR

        with fi.inject("fused_insert", "raise", nth=1, repeat=True):
            SequentialHSR(engine="numpy").run(_fractal())
        res = SequentialHSR(engine="numpy").run(_fractal())
        assert not res.reliability.degraded


class TestBuildSweep:
    """`build_envelope(engine="numpy")` is the batched build guard."""

    def _segments(self, rng):
        return random_image_segments(rng, 120)

    @pytest.mark.parametrize("mode", ["raise", "unsorted", "nan"])
    def test_guarded_recovers_bit_exact(self, rng, mode):
        from repro.envelope.build import build_envelope

        segs = self._segments(rng)
        rp = build_envelope(segs, engine="python")
        with fi.inject("build_sweep", mode) as plan:
            rn = build_envelope(segs, engine="numpy")
        assert plan.fired >= 1
        assert rn.envelope.pieces == rp.envelope.pieces
        assert rn.ops == rp.ops
        assert rn.crossings == rp.crossings
        assert guard.current_report().sites["build_sweep"].count >= 1

    def test_strict_raises(self, rng, monkeypatch):
        from repro.envelope.build import build_envelope

        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with fi.inject("build_sweep", "raise"):
            with pytest.raises(KernelFault) as exc:
                build_envelope(self._segments(rng), engine="numpy")
        assert exc.value.site == "build_sweep"


class TestPhase2Injection:
    """Direct-mode phase 2 batches its merges and visibility queries —
    the two ``phase2_*`` guard sites."""

    def _assert_parallel_parity(self, site):
        from repro.hsr.parallel import ParallelHSR

        terrain = _valley()
        rn = ParallelHSR(mode="direct", engine="numpy").run(terrain)
        with fi.suppressed():
            rp = ParallelHSR(mode="direct", engine="python").run(terrain)
        assert rn.stats.ops == rp.stats.ops
        assert rn.stats.k == rp.stats.k
        assert rn.stats.extra == rp.stats.extra
        assert rn.order == rp.order
        assert rn.visibility_map.segments == rp.visibility_map.segments
        assert rn.reliability.sites[site].count >= 1
        return rn

    @pytest.mark.parametrize("mode", ["raise", "unsorted", "nan"])
    def test_phase2_merge(self, mode):
        with fi.inject("phase2_merge", mode) as plan:
            self._assert_parallel_parity("phase2_merge")
        assert plan.fired >= 1

    @pytest.mark.parametrize("mode", ["raise", "unsorted", "nan"])
    def test_phase2_visibility(self, mode):
        with fi.inject("phase2_visibility", mode) as plan:
            self._assert_parallel_parity("phase2_visibility")
        assert plan.fired >= 1

    def test_phase2_strict_raises(self, monkeypatch):
        from repro.hsr.parallel import ParallelHSR

        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        with fi.inject("phase2_merge", "raise"):
            with pytest.raises(KernelFault) as exc:
                ParallelHSR(mode="direct", engine="numpy").run(_valley())
        assert exc.value.site == "phase2_merge"


class TestEnvDrivenInjection:
    def test_env_spec_installs_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "fused_insert:raise:2")
        plan = fi.configure_from_env()
        assert plan is not None and plan.site == "fused_insert"
        _assert_sequential_parity(_fractal(), "fused_insert")
        assert plan.fired == 1


def _run_sequential():
    from repro.hsr.sequential import SequentialHSR

    SequentialHSR(engine="numpy").run(_fractal())


def _run_oracle():
    from repro.hsr.queries import VisibilityOracle

    VisibilityOracle(_valley())


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

    build_envelope(random_image_segments(random.Random(5), 120), engine="numpy")


def _run_parallel_build():
    from repro.config import HsrConfig
    from repro.envelope.build import build_envelope

    cfg = HsrConfig(engine="numpy", workers=2, parallel_min_segments=0)
    build_envelope(random_image_segments(random.Random(5), 120), config=cfg)


def _run_direct():
    from repro.hsr.parallel import ParallelHSR

    ParallelHSR(mode="direct", engine="numpy").run(_valley())


def _run_persistent():
    from repro.hsr.parallel import ParallelHSR

    ParallelHSR(mode="persistent", engine="numpy").run(_valley())


#: One production path per injection site.  ``profile`` is the
#: detection-only tick (``nan`` plans only; it raises by contract).
_SITE_PATHS = {
    "merge_dispatch": ("raise", _run_oracle),
    "visibility_dispatch": ("raise", _run_oracle),
    "compiled_insert": ("raise", _run_compiled),
    "fused_insert": ("raise", _run_sequential),
    "packed_splice": ("raise", _run_sequential),
    "build_sweep": ("raise", _run_build),
    "parallel_exec": ("raise", _run_parallel_build),
    "pct_merge": ("raise", _run_direct),
    "phase2_merge": ("raise", _run_direct),
    "phase2_visibility": ("raise", _run_direct),
    "rope_splice": ("raise", _run_persistent),
    "profile": ("nan", _run_sequential),
}


@pytest.mark.usefixtures("_force_dispatch")
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
