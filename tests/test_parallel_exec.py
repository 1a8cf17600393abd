"""Tests for :mod:`repro.parallel_exec` — real multi-core build/merge.

Everything here runs with **2+ real worker processes** (the CI floor)
and pins bit-exactness against the in-process kernels: identical
envelope arrays, identical crossing lists (content *and* order),
identical operation counts, identical end-to-end visibility maps.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import HsrConfig
from repro.envelope.flat import batch_merge, build_envelope_flat, stack_envelopes
from repro.errors import KernelFault
from repro.parallel_exec import (
    available_workers,
    build_envelope_parallel,
    parallel_batch_merge,
    parallel_stats,
    reset_stats,
)
from repro.reliability import faultinject as fi
from repro.reliability import guard

from tests.conftest import random_image_segments

EPS = 1e-9

#: Floors zeroed so the pool engages on test-sized fixtures.
POOL2 = HsrConfig(
    engine="numpy",
    workers=2,
    parallel_min_segments=0,
    parallel_min_pieces=0,
)


def _fractal(size=9, seed=3):
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


class TestBatchMergeParity:
    @staticmethod
    def _stacks(rng, groups=12, per=8):
        def one():
            return stack_envelopes(
                [
                    build_envelope_flat(
                        random_image_segments(rng, per), eps=EPS
                    ).envelope
                    for _ in range(groups)
                ]
            )

        return one(), one()

    def test_merge_matches_batch_merge(self, rng):
        a, b = self._stacks(rng)
        ref = batch_merge(a, b, eps=EPS, record_crossings=True)
        out = parallel_batch_merge(
            a, b, eps=EPS, record_crossings=True, workers=3, min_pieces=0
        )
        assert out is not None
        np.testing.assert_array_equal(ref.ops, out.ops)
        for field in ("ya", "za", "yb", "zb", "source", "offsets"):
            np.testing.assert_array_equal(
                getattr(ref.merged, field), getattr(out.merged, field)
            )
        for field in (
            "cross_group",
            "cross_y",
            "cross_z",
            "cross_front",
            "cross_back",
        ):
            np.testing.assert_array_equal(
                getattr(ref, field), getattr(out, field)
            )

    def test_declines_on_single_group(self, rng):
        a = stack_envelopes(
            [build_envelope_flat(random_image_segments(rng, 8), eps=EPS).envelope]
        )
        b = stack_envelopes(
            [build_envelope_flat(random_image_segments(rng, 8), eps=EPS).envelope]
        )
        reset_stats()
        assert (
            parallel_batch_merge(
                a, b, eps=EPS, record_crossings=False, workers=2, min_pieces=0
            )
            is None
        )
        assert parallel_stats["declined"] == 1


class TestPipelineParity:
    """End-to-end: a 2-worker run is bit-exact with the python engine,
    and the pool demonstrably engaged."""

    @pytest.mark.parametrize("terrain_fn", [_fractal, _valley])
    def test_parallel_hsr_two_workers(self, terrain_fn):
        from repro.hsr.parallel import ParallelHSR

        terrain = terrain_fn()
        reset_stats()
        ref = ParallelHSR(mode="direct", engine="python").run(terrain)
        par = ParallelHSR(mode="direct", config=POOL2).run(terrain)
        assert par.k == ref.k
        assert par.stats.ops == ref.stats.ops
        assert par.visibility_map.segments == ref.visibility_map.segments
        assert parallel_stats["batched_merges"] > 0  # pool actually ran
        assert (
            parallel_stats["chunks"] >= 2 * parallel_stats["batched_merges"]
        )

    def test_sequential_hsr_config_ignores_workers(self):
        # SequentialHSR inserts one segment at a time — no batched
        # level merges — so a workers>1 config must be a no-op.
        from repro.hsr.sequential import SequentialHSR

        terrain = _fractal(size=9, seed=7)
        ref = SequentialHSR(config=HsrConfig(engine="numpy")).run(terrain)
        par = SequentialHSR(config=POOL2).run(terrain)
        assert par.k == ref.k
        assert par.visibility_map.segments == ref.visibility_map.segments

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
