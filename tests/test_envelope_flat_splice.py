"""Tests for the flat-native incremental profile (flat_splice) and its
threading through SequentialHSR and the phase-2 direct mode.

Contract under test: ``SequentialHSR(engine="numpy")`` and the generic
``insert_segment_flat`` loop are *bit-exact* replicas of the
``engine="python"`` reference path — same visibility map, same ``ops``,
same ``max_profile_size``, same profile pieces — while the live profile
stays one packed buffer for the whole run.
"""

from __future__ import annotations

import pytest

from repro.envelope.build import build_envelope
from repro.envelope.chain import Envelope
from repro.envelope.flat import FlatEnvelope
from repro.envelope.flat_splice import insert_segment_flat
from repro.envelope.merge import merge_envelopes
from repro.envelope.packed import PackedProfile
from repro.envelope.splice import insert_segment, splice_merge
from repro.geometry.segments import ImageSegment
from tests.conftest import random_image_segments


class TestLiveProfile:
    """The packed live profile answers the scalar ``Envelope`` queries
    bit for bit."""

    def test_pieces_overlapping_matches_envelope(self, rng):
        for _ in range(20):
            segs = random_image_segments(rng, rng.randint(0, 60))
            env = build_envelope(segs, engine="python").envelope
            prof = PackedProfile.from_envelope(env)
            for _q in range(25):
                y1 = rng.uniform(-10, 110)
                y2 = y1 + rng.uniform(0, 50)
                assert prof.pieces_overlapping(y1, y2) == (
                    env.pieces_overlapping(y1, y2)
                )
            # Exact piece boundaries are the adversarial locates.
            for p in env.pieces[:10]:
                assert prof.pieces_overlapping(p.ya, p.yb) == (
                    env.pieces_overlapping(p.ya, p.yb)
                )

    def test_value_at_matches_envelope(self, rng):
        segs = random_image_segments(rng, 40)
        env = build_envelope(segs, engine="python").envelope
        prof = PackedProfile.from_envelope(env)
        ys = [rng.uniform(-10, 110) for _ in range(50)]
        ys += [p.ya for p in env.pieces[:10]]
        ys += [p.yb for p in env.pieces[:10]]
        for y in ys:
            assert prof.value_at(y) == env.value_at(y)

    def test_round_trip(self, rng):
        segs = random_image_segments(rng, 30)
        env = build_envelope(segs, engine="python").envelope
        assert PackedProfile.from_envelope(env).to_envelope().pieces == (
            env.pieces
        )
        assert PackedProfile.empty().to_envelope().pieces == []

    def test_splice_type_closed(self):
        prof = PackedProfile.empty()
        new = prof.splice(0, 0, [0.0], [1.0], [2.0], [1.0], [7])
        assert new is prof and isinstance(new, PackedProfile)
        assert new.to_envelope().pieces[0].source == 7

    def test_window_is_zero_copy(self, rng):
        # Windows of the flat snapshot the live profile converts to
        # share its arrays rather than copying them.
        segs = random_image_segments(rng, 30)
        prof = PackedProfile.from_envelope(
            build_envelope(segs, engine="python").envelope
        )
        flat = FlatEnvelope.from_envelope(prof.to_envelope())
        w = flat.window(3, 9)
        assert w.ya.base is flat.ya
        assert w.source.base is flat.source
        assert len(w) == 6
        assert w.to_envelope().pieces == prof.to_envelope().pieces[3:9]


class TestInsertSegmentFlat:
    def test_incremental_matches_python_engine(self, rng):
        for _ in range(10):
            segs = random_image_segments(rng, rng.randint(2, 60))
            env = Envelope.empty()
            prof = PackedProfile.empty()
            for s in segs:
                rp = insert_segment(env, s)
                rf = insert_segment_flat(prof, s)
                assert rf.ops == rp.ops
                assert rf.visibility == rp.visibility
                env = rp.envelope
                prof = rf.profile
            assert prof.to_envelope().pieces == env.pieces

    def test_synthetic_source_fallback(self, rng):
        # Source -1 pieces coalesce on the EnvelopeBuilder slope rule;
        # the flat path must defer to the reference kernel there.
        segs = [
            ImageSegment(0.0, 1.0, 4.0, 2.0, -1),
            ImageSegment(2.0, 0.5, 6.0, 3.0, -1),
            ImageSegment(1.0, 2.5, 5.0, 2.5, 3),
        ]
        env = Envelope.empty()
        prof = PackedProfile.empty()
        for s in segs:
            rp = insert_segment(env, s)
            rf = insert_segment_flat(prof, s)
            assert rf.ops == rp.ops
            env = rp.envelope
            prof = rf.profile
        assert prof.to_envelope().pieces == env.pieces


class TestSyntheticRouting:
    @pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "numpy"])
    def test_negative_source_window_routes_to_reference(
        self, compiled, monkeypatch
    ):
        """A run with a synthetic (negative-source) piece is answered by
        ``_insert_reference`` — the compiled core declines it and the
        whole run reruns on the reference; without the core every
        insert takes the reference — and matches ``engine="python"``
        bit for bit."""
        import repro.envelope.flat_splice as splice_mod
        from repro.config import HsrConfig

        calls = []
        orig = splice_mod._insert_reference

        def counting(profile, seg, eps):
            calls.append(seg.source)
            return orig(profile, seg, eps)

        monkeypatch.setattr(splice_mod, "_insert_reference", counting)
        segs = [
            ImageSegment(0.0, 1.0, 4.0, 2.0, -1),
            ImageSegment(2.0, 0.5, 6.0, 3.0, 7),  # window holds source -1
            ImageSegment(10.0, 1.0, 12.0, 1.0, 8),  # empty window
        ]
        config = HsrConfig(use_compiled_insert=compiled)
        run = splice_mod.insert_run(splice_mod.segment_lanes(segs), config=config)
        env = Envelope.empty()
        ops = 0
        parts = []
        for s in segs:
            rp = insert_segment(env, s)
            env = rp.envelope
            ops += rp.ops
            parts += [s.visible_piece(p.ya, p.yb) for p in rp.visibility.parts]
        assert run.ops == ops
        assert list(zip(*run.rows[:4].tolist())) == parts
        assert run.profile.to_envelope().pieces == env.pieces
        # Every insert takes the reference, whether the core declined
        # the run or stood aside (switched off, not built, a plan armed
        # elsewhere).
        assert calls == [-1, 7, 8]


class TestSpliceMerge:
    def test_matches_full_merge_pointwise(self, rng):
        for _ in range(15):
            a = build_envelope(
                random_image_segments(rng, rng.randint(0, 40)),
                engine="python",
            ).envelope
            b = build_envelope(
                [
                    ImageSegment(s.y1, s.z1, s.y2, s.z2, 500 + s.source)
                    for s in random_image_segments(rng, rng.randint(1, 12))
                ],
                engine="python",
            ).envelope
            res = splice_merge(a, b)
            full = merge_envelopes(a, b)
            assert res.envelope.approx_equal(full.envelope, eps=1e-9)
            assert res.crossings == full.crossings
            assert res.ops <= full.ops
            assert res.materialised == res.envelope.size
            res.envelope.validate()

    def test_empty_other_passthrough(self, rng):
        a = build_envelope(
            random_image_segments(rng, 10), engine="python"
        ).envelope
        res = splice_merge(a, Envelope.empty())
        assert res.envelope is a
        assert res.ops == 0 and res.materialised == 0

    def test_empty_env(self, rng):
        b = build_envelope(
            random_image_segments(rng, 5), engine="python"
        ).envelope
        res = splice_merge(Envelope.empty(), b)
        assert res.envelope.pieces == b.pieces
        assert res.ops == b.size


class TestSequentialEngineParity:
    """Thin wrapper over the declarative scenario matrix (ISSUE 9):
    the hand-rolled fractal/valley/shielded-basin cases — with the
    compiled and no-core legs as a config axis — live in the
    ``parity-terrain`` / ``parity-occlusion`` scenarios of
    ``repro/scenarios/default_scenarios.json``.  The full matrix runs
    in ``tests/test_scenarios.py``; this wrapper pins the historical
    coverage by name so it cannot silently drop out of the spec."""

    def _instances(self, scenario_name):
        from repro.scenarios import default_spec

        return default_spec().scenario(scenario_name).instances()

    def test_terrain_scenarios_cover_historical_suite(self):
        from repro.scenarios import default_spec

        spec = default_spec()
        terrain = spec.scenario("parity-terrain")
        families = dict(terrain.cross)["family"]
        assert {"fractal", "valley", "shielded_basin"} <= set(families)
        assert {"numpy-packed", "numpy-nocompiled"} <= set(
            terrain.config_ids()
        )
        occ = spec.scenario("parity-occlusion")
        assert set(dict(occ.cross)["occlusion"]) == {0.3, 1.2}

    @pytest.mark.parametrize("scenario", ["parity-terrain"])
    def test_terrain_matrix_parity(self, scenario):
        from repro.scenarios.instances import check_parity

        for inst in self._instances(scenario):
            check_parity(inst)

    def test_shielded_basin_churn(self):
        from repro.scenarios.instances import check_parity

        for inst in self._instances("parity-occlusion"):
            check_parity(inst)

    def test_final_profile_shares_run_path(self):
        from repro.hsr.sequential import SequentialHSR
        from repro.terrain.generators import fractal_terrain

        terrain = fractal_terrain(size=9, seed=23)
        fp = SequentialHSR(engine="python").final_profile(terrain)
        fn = SequentialHSR(engine="numpy").final_profile(terrain)
        assert fn.pieces == fp.pieces
        fn.validate()


@pytest.mark.slow
class TestSequentialEngineParitySlow:
    def test_larger_workloads(self):
        from repro.bench.workloads import scaling_suite
        from repro.hsr.sequential import SequentialHSR

        for _label, terrain in scaling_suite(
            (17,), kind="fractal"
        ) + scaling_suite((17,), kind="valley"):
            rp = SequentialHSR(engine="python").run(terrain)
            rn = SequentialHSR(engine="numpy").run(terrain)
            assert rn.stats.ops == rp.stats.ops
            assert rn.stats.extra == rp.stats.extra
            assert rn.visibility_map.segments == (
                rp.visibility_map.segments
            )
