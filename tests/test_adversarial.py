"""Degenerate and adversarial input tests (ISSUE 6, satellite 3).

Inputs chosen to sit on the kernels' tie/degeneracy edges — plateau
terrains (all-equal elevations), coincident ridges (duplicate
segments), zero-length and vertical-only segments.  Each case pins
either a clean :class:`~repro.errors.ValidationError` at the front
door or bit-exact parity between the python and numpy engines, over
both numpy insert paths (compiled core on/off).
"""

from __future__ import annotations

import pytest

from repro.envelope.chain import Envelope
from repro.envelope.flat_splice import insert_segment_flat
from repro.envelope.packed import PackedProfile
from repro.envelope.splice import insert_segment
from repro.errors import ValidationError
from repro.geometry.segments import ImageSegment
from repro.reliability import validate_segments
from tests.conftest import random_image_segments


def _assert_run_parity(terrain):
    from repro.hsr.sequential import SequentialHSR

    rp = SequentialHSR(engine="python").run(terrain)
    rn = SequentialHSR(engine="numpy").run(terrain)
    assert rn.stats.ops == rp.stats.ops
    assert rn.stats.k == rp.stats.k
    assert rn.stats.extra == rp.stats.extra
    assert rn.order == rp.order
    assert rn.visibility_map.segments == rp.visibility_map.segments


class TestDegenerateTerrainParity:
    """Thin wrapper over the ``parity-degenerate`` scenario (ISSUE 9):
    the plateau / constant-plateau cases — plus the exact-lattice grid
    (``jitter_seed=None``, coincident-y and collinear on purpose) the
    hand-rolled suite never covered — are matrix axes now, and the
    compiled and no-core insert legs are config variants."""

    def test_scenario_covers_degenerate_families(self):
        from repro.scenarios import default_spec

        s = default_spec().scenario("parity-degenerate")
        assert set(dict(s.cross)["family"]) == {
            "plateau",
            "constant_plateau",
            "lattice_plateau",
        }
        assert {"numpy-packed", "numpy-nocompiled"} <= set(s.config_ids())

    def test_degenerate_matrix_parity(self):
        from repro.scenarios import default_spec
        from repro.scenarios.instances import check_parity

        for inst in default_spec().scenario("parity-degenerate").instances():
            check_parity(inst)

    def test_terraced_plateau(self):
        # steps= is a generator knob the scenario matrix doesn't
        # cross; keep the historical direct case.
        from repro.terrain.generators import plateau_terrain

        _assert_run_parity(
            plateau_terrain(rows=10, cols=10, steps=3, seed=2)
        )


class TestCoincidentSegments:
    """Thin wrapper over the ``parity-coincident`` scenario: duplicate
    ridges and vertical-only segments (the hardest eps-tie workloads)
    are matrix axes, and the two numpy insert paths config variants."""

    def test_scenario_covers_coincident_families(self):
        from repro.scenarios import default_spec

        s = default_spec().scenario("parity-coincident")
        assert set(dict(s.cross)["family"]) == {"coincident", "vertical"}

    def test_coincident_matrix_parity(self):
        from repro.scenarios import default_spec
        from repro.scenarios.instances import check_parity

        for inst in default_spec().scenario("parity-coincident").instances():
            check_parity(inst)

    def test_second_copy_contributes_nothing(self, rng):
        # Duplicated segments leave the envelope identical to the
        # deduplicated build — the duplicate's visible parts are ties.
        from repro.envelope.build import build_envelope

        segs = random_image_segments(rng, 60)
        dup = [s for s in segs for _ in (0, 1)]
        rp = build_envelope(segs, engine="python")
        rd = build_envelope(dup, engine="python")
        assert [
            (p.ya, p.yb, p.za, p.zb) for p in rp.envelope.pieces
        ] == [(p.ya, p.yb, p.za, p.zb) for p in rd.envelope.pieces]


class TestZeroLengthSegments:
    def test_front_door_rejects(self):
        segs = [ImageSegment(3.0, 4.0, 3.0, 4.0, 0)]
        with pytest.raises(ValidationError, match="zero length"):
            validate_segments(segs)

    def test_front_door_names_offender(self):
        segs = [
            ImageSegment(0.0, 0.0, 1.0, 1.0, 0),
            ImageSegment(2.0, 2.0, 2.0, 2.0, 9),
        ]
        with pytest.raises(ValidationError, match="segment 1"):
            validate_segments(segs)


@pytest.mark.parametrize(
    "profile_factory",
    [PackedProfile.empty, lambda: PackedProfile.empty(2)],
    ids=["packed", "packed-tiny"],
)
class TestVerticalOnlySegments:
    """A workload of only vertical (measure-zero) segments: the
    profile must never change, and both engines must agree on every
    point-query verdict (default and minimal initial capacity)."""

    def _verticals(self, rng, count):
        out = []
        for i in range(count):
            y = rng.uniform(0.0, 100.0)
            z1 = rng.uniform(0.0, 50.0)
            out.append(ImageSegment(y, z1, y, z1 + rng.uniform(0.5, 10.0), i))
        return out

    def test_profile_untouched_and_parity(self, rng, profile_factory):
        env = Envelope.empty()
        prof = profile_factory()
        for seg in self._verticals(rng, 25):
            rp = insert_segment(env, seg)
            rf = insert_segment_flat(prof, seg)
            assert rf.visibility.parts == rp.visibility.parts
            assert rf.ops == rp.ops
            assert rp.envelope.pieces == []
            prof = rf.profile
        assert len(prof.ya) == 0

    def test_verticals_over_seeded_profile(self, rng, profile_factory):
        # Verticals against a real profile: point queries, plus ties
        # at piece boundaries.
        base = random_image_segments(rng, 30)
        env = Envelope.empty()
        prof = profile_factory()
        for seg in base:
            env = insert_segment(env, seg).envelope
            prof = insert_segment_flat(prof, seg).profile
        n_before = len(prof.ya)
        for piece in env.pieces[:10]:
            v = ImageSegment(piece.ya, 0.0, piece.ya, 100.0, 999)
            rp = insert_segment(env, v)
            rf = insert_segment_flat(prof, v)
            assert rf.visibility.parts == rp.visibility.parts
            assert rf.ops == rp.ops
        assert len(prof.ya) == n_before
