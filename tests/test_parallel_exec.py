"""Tests for :mod:`repro.parallel_exec` — real multi-core D&C builds.

Everything here runs with **2+ real worker processes** (the CI floor)
and pins bit-exactness against the in-process kernels: identical
envelope arrays, identical crossing lists (content *and* order),
identical operation counts, identical end-to-end visibility maps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import HsrConfig
from repro.envelope.flat import build_envelope_flat
from repro.errors import KernelFault
from repro.parallel_exec import (
    available_workers,
    build_envelope_parallel,
    parallel_stats,
    reset_stats,
)
from repro.reliability import faultinject as fi
from repro.reliability import guard

from tests.conftest import random_image_segments

EPS = 1e-9

#: Floor zeroed so the pool engages on test-sized fixtures.
POOL2 = HsrConfig(engine="numpy", workers=2, parallel_min_segments=0)


def _fractal(size=17, seed=3):
    from repro.terrain.generators import fractal_terrain

    return fractal_terrain(size=size, seed=seed)


def _valley(rows=10, cols=10, seed=1):
    from repro.terrain.generators import valley_terrain

    return valley_terrain(rows=rows, cols=cols, seed=seed)


class TestAvailableWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert available_workers() == 7

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert available_workers() >= 1

    def test_env_invalid_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "banana")
        assert available_workers() >= 1

    def test_env_minimum_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert available_workers() == 1


class TestBuildParity:
    def test_build_matches_in_process(self, rng):
        from repro.envelope.build import build_envelope

        segs = random_image_segments(rng, 600)
        ref_flat = build_envelope_flat(segs, eps=EPS)
        ref = build_envelope(segs, config=HsrConfig(engine="numpy"))
        out = build_envelope_parallel(
            segs, eps=EPS, workers=2, min_segments=0
        )
        assert out is not None
        env, crossings, ops = out
        for field in ("ya", "za", "yb", "zb", "source"):
            np.testing.assert_array_equal(
                getattr(env, field), getattr(ref_flat.envelope, field)
            )
        assert crossings == ref.crossings
        assert ops == ref.ops

    def test_more_workers_same_bits(self, rng):
        segs = random_image_segments(rng, 300)
        ref = build_envelope_parallel(segs, eps=EPS, workers=2, min_segments=0)
        alt = build_envelope_parallel(segs, eps=EPS, workers=4, min_segments=0)
        assert ref is not None and alt is not None
        np.testing.assert_array_equal(ref[0].ya, alt[0].ya)
        np.testing.assert_array_equal(ref[0].source, alt[0].source)
        assert ref[1] == alt[1] and ref[2] == alt[2]

    def test_declines_below_floor(self, rng):
        reset_stats()
        segs = random_image_segments(rng, 20)
        assert (
            build_envelope_parallel(segs, eps=EPS, workers=2) is None
        )  # default floor = 2048 segments
        assert parallel_stats["declined"] == 1


class TestPipelineParity:
    """End-to-end: the D&C build front door is bit-exact with 2
    workers, and the HSR classes ignore ``workers`` — their PCT layers
    run in-process, so a 2-worker config answers on the same path with
    the same bits and never touches the pool."""

    @staticmethod
    def _assert_workers_ignored(make, terrain):
        ref = make(HsrConfig(engine="numpy")).run(terrain)
        before = dict(parallel_stats)
        par = make(POOL2).run(terrain)
        assert parallel_stats == before  # the pool never engaged
        assert par.visibility_map.segments == ref.visibility_map.segments
        assert (par.k, par.stats.ops, par.stats.extra) == (
            ref.k, ref.stats.ops, ref.stats.extra
        )
        return par

    def test_sequential_hsr_config_ignores_workers(self):
        from repro.hsr.sequential import SequentialHSR

        for terrain in (_fractal(seed=7), _valley()):
            self._assert_workers_ignored(
                lambda cfg: SequentialHSR(config=cfg), terrain
            )

    @pytest.mark.parametrize("terrain_fn", [_fractal, _valley])
    @pytest.mark.parametrize("mode", ["direct", "persistent", "acg"])
    def test_parallel_hsr_config_ignores_workers(self, mode, terrain_fn):
        from repro.envelope._ccore import compiled_enabled
        from repro.hsr.parallel import ParallelHSR

        par = self._assert_workers_ignored(
            lambda cfg: ParallelHSR(mode=mode, config=cfg), terrain_fn()
        )
        if mode == "direct" and compiled_enabled(POOL2, "phase2_merge"):
            assert par.phase2.rows is not None  # the compiled layers answered

    def test_build_envelope_front_door(self, rng):
        from repro.envelope.build import build_envelope

        segs = random_image_segments(rng, 400)
        ref = build_envelope(segs, engine="python")
        par = build_envelope(segs, config=POOL2)
        assert par.ops == ref.ops
        assert par.crossings == ref.crossings
        assert [
            (p.ya, p.za, p.yb, p.zb, p.source) for p in par.envelope.pieces
        ] == [
            (p.ya, p.za, p.yb, p.zb, p.source) for p in ref.envelope.pieces
        ]


class TestFaultHandling:
    """The ``parallel_exec`` guard site: injected faults degrade to the
    in-process path bit-exact (guarded) or raise (strict)."""

    def test_injected_fault_falls_back(self, rng, monkeypatch):
        from repro.envelope.build import build_envelope

        monkeypatch.setattr(guard, "GUARDED_DISPATCH", True)
        guard.reset_ambient()
        reset_stats()
        segs = random_image_segments(rng, 400)
        ref = build_envelope(segs, engine="python")
        with fi.inject("parallel_exec", "raise") as plan:
            par = build_envelope(segs, config=POOL2)
        assert plan.fired == 1
        assert parallel_stats["faults"] == 1
        assert par.ops == ref.ops and par.crossings == ref.crossings
        guard.reset_ambient()

    def test_strict_mode_raises(self, rng, monkeypatch):
        from repro.envelope.build import build_envelope

        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        segs = random_image_segments(rng, 400)
        with fi.inject("parallel_exec", "raise"):
            with pytest.raises(KernelFault) as exc:
                build_envelope(segs, config=POOL2)
        assert exc.value.site == "parallel_exec"

    def test_single_worker_config_never_dispatches(self, rng):
        from repro.parallel_exec import maybe_build_envelope

        segs = random_image_segments(rng, 100)
        cfg = HsrConfig(workers=1, parallel_min_segments=0)
        assert maybe_build_envelope(segs, eps=EPS, config=cfg) is None
