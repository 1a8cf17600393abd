"""Unit tests for the reliability subsystem's numpy-free core.

Covers the report/breaker machinery, the fault-injection planner and
the input validators.  Runs on the no-numpy leg (not in the conftest
``collect_ignore`` list) — everything here is pure stdlib.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.envelope.chain import Piece
from repro.errors import KernelFault, ValidationError
from repro.geometry.primitives import Point3
from repro.geometry.segments import ImageSegment
from repro.reliability import faultinject as fi
from repro.reliability import guard
from repro.reliability import validate_segments, validate_terrain


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    """Disarm injection and reset the ambient report around each test."""
    fi.clear()
    guard.reset_ambient()
    monkeypatch.setattr(guard, "GUARDED_DISPATCH", True)
    monkeypatch.setattr(guard, "GUARDS_ENABLED", True)
    yield
    fi.clear()
    guard.reset_ambient()


# ---------------------------------------------------------------------------
# ReliabilityReport + circuit breaker
# ---------------------------------------------------------------------------


class TestReliabilityReport:
    def test_fresh_report_is_clean(self):
        rep = guard.ReliabilityReport()
        assert not rep.degraded
        assert rep.faults == 0
        assert rep.quarantined_sites() == set()
        assert rep.summary() == "reliability: no kernel faults"
        assert rep.as_dict() == {}

    def test_record_tallies_per_site(self):
        rep = guard.ReliabilityReport()
        rep.record("compiled_insert", ValueError("boom"))
        rep.record("compiled_insert", ValueError("boom again"))
        rep.record("packed_splice", RuntimeError("oops"))
        assert rep.faults == 3
        assert rep.degraded
        assert rep.sites["compiled_insert"].count == 2
        assert rep.sites["packed_splice"].count == 1
        assert "ValueError: boom" in rep.sites["compiled_insert"].causes

    def test_quarantine_at_threshold(self):
        rep = guard.ReliabilityReport()
        for _ in range(guard.FAULT_THRESHOLD - 1):
            rep.record("pct_merge", ValueError("x"))
        assert rep.quarantined_sites() == set()
        rep.record("pct_merge", ValueError("x"))
        assert rep.quarantined_sites() == {"pct_merge"}

    def test_causes_capped_count_keeps_going(self):
        rep = guard.ReliabilityReport()
        for i in range(guard.MAX_CAUSES + 4):
            rep.record("build_sweep", ValueError(f"cause {i}"))
        rec = rep.sites["build_sweep"]
        assert rec.count == guard.MAX_CAUSES + 4
        assert len(rec.causes) == guard.MAX_CAUSES

    def test_summary_names_site_and_quarantine(self):
        rep = guard.ReliabilityReport()
        for _ in range(guard.FAULT_THRESHOLD):
            rep.record("compiled_insert", ValueError("bad lanes"))
        text = rep.summary()
        assert "compiled_insert" in text
        assert "[quarantined]" in text
        assert "bad lanes" in text

    def test_as_dict_roundtrips_fields(self):
        rep = guard.ReliabilityReport()
        rep.record("profile", RuntimeError("tick"))
        d = rep.as_dict()
        assert d == {
            "profile": {
                "count": 1,
                "quarantined": False,
                "causes": ["RuntimeError: tick"],
            }
        }


class TestReportStack:
    def test_run_context_yields_fresh_report(self):
        with guard.reliability_run() as rep:
            assert guard.current_report() is rep
            assert not rep.degraded

    def test_inner_faults_visible_in_outer_report(self):
        with guard.reliability_run() as outer:
            with guard.reliability_run() as inner:
                guard.handle_fault("compiled_insert", ValueError("x"))
            assert inner.faults == 1
            assert outer.faults == 1
        # The ambient report saw it too.
        assert guard.current_report().faults == 1

    def test_breaker_scoped_to_innermost_run(self):
        with guard.reliability_run():
            for _ in range(guard.FAULT_THRESHOLD):
                guard.handle_fault("compiled_insert", ValueError("x"))
            assert guard.is_quarantined("compiled_insert")
            assert guard.ANY_QUARANTINED
            with guard.reliability_run():
                # A fresh run starts with a closed breaker.
                assert not guard.is_quarantined("compiled_insert")
                assert not guard.ANY_QUARANTINED
            assert guard.is_quarantined("compiled_insert")

    def test_reset_ambient_clears_quarantine(self):
        for _ in range(guard.FAULT_THRESHOLD):
            guard.handle_fault("compiled_insert", ValueError("x"))
        assert guard.ANY_QUARANTINED
        guard.reset_ambient()
        assert not guard.ANY_QUARANTINED
        assert not guard.current_report().degraded


class TestHandleFault:
    def test_strict_mode_raises_kernel_fault_with_site(self, monkeypatch):
        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
        cause = ValueError("inner")
        with pytest.raises(KernelFault) as exc:
            guard.handle_fault("packed_splice", cause)
        assert exc.value.site == "packed_splice"
        assert exc.value.cause is cause
        assert "packed_splice" in str(exc.value)

    def test_guarded_mode_records(self):
        guard.handle_fault("packed_splice", ValueError("inner"))
        rep = guard.current_report()
        assert rep.sites["packed_splice"].count == 1


class TestGuardedCall:
    def test_kernel_result_passes_through(self):
        out = guard.guarded_call("compiled_insert", lambda: 42, lambda: -1)
        assert out == 42
        assert not guard.current_report().degraded

    def test_kernel_exception_falls_back(self):
        def kernel():
            raise ValueError("kernel died")

        out = guard.guarded_call("compiled_insert", kernel, lambda: "fallback")
        assert out == "fallback"
        assert guard.current_report().sites["compiled_insert"].count == 1

    def test_check_violation_falls_back(self):
        def check(result):
            guard.violation("compiled_insert", "bad result")

        out = guard.guarded_call(
            "compiled_insert", lambda: "raw", lambda: "fallback", check=check
        )
        assert out == "fallback"

    def test_strict_mode_raises(self, monkeypatch):
        monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)

        def kernel():
            raise ValueError("kernel died")

        with pytest.raises(KernelFault) as exc:
            guard.guarded_call("compiled_insert", kernel, lambda: "fallback")
        assert exc.value.site == "compiled_insert"

    def test_guards_disabled_runs_raw(self, monkeypatch):
        monkeypatch.setattr(guard, "GUARDS_ENABLED", False)

        def kernel():
            raise ValueError("kernel died")

        with pytest.raises(ValueError):
            guard.guarded_call("compiled_insert", kernel, lambda: "fallback")

    def test_quarantined_site_skips_kernel(self):
        calls = {"kernel": 0, "fallback": 0}

        def kernel():
            calls["kernel"] += 1
            raise ValueError("x")

        def fallback():
            calls["fallback"] += 1
            return "py"

        with guard.reliability_run():
            for _ in range(guard.FAULT_THRESHOLD):
                assert (
                    guard.guarded_call("compiled_insert", kernel, fallback)
                    == "py"
                )
            kernel_calls = calls["kernel"]
            assert guard.guarded_call("compiled_insert", kernel, fallback) == "py"
            assert calls["kernel"] == kernel_calls  # breaker open: not tried
            assert calls["fallback"] == guard.FAULT_THRESHOLD + 1

    def test_injected_raise_attributes_and_recovers(self):
        with fi.inject("compiled_insert", "raise") as plan:
            out = guard.guarded_call("compiled_insert", lambda: "raw", lambda: "py")
        assert out == "py"
        assert plan.fired == 1
        assert guard.current_report().sites["compiled_insert"].count == 1


# ---------------------------------------------------------------------------
# Fault-injection planner
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            fi.install("nonsense", "raise")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown injection mode"):
            fi.install("compiled_insert", "explode")

    def test_armed_flag_tracks_plan(self):
        assert not fi.ARMED
        with fi.inject("compiled_insert", "raise"):
            assert fi.ARMED
        assert not fi.ARMED

    def test_trip_fires_on_nth_call_only(self):
        with fi.inject("compiled_insert", "raise", nth=3) as plan:
            fi.trip("compiled_insert")
            fi.trip("compiled_insert")
            with pytest.raises(fi.InjectedFault) as exc:
                fi.trip("compiled_insert")
            assert exc.value.site == "compiled_insert"
            fi.trip("compiled_insert")  # one-shot: fires once
        assert plan.fired == 1
        assert plan.calls == 4

    def test_repeat_plan_fires_every_call_from_nth(self):
        with fi.inject("compiled_insert", "raise", nth=2, repeat=True) as plan:
            fi.trip("compiled_insert")
            for _ in range(3):
                with pytest.raises(fi.InjectedFault):
                    fi.trip("compiled_insert")
        assert plan.fired == 3

    def test_other_sites_unaffected(self):
        with fi.inject("compiled_insert", "raise") as plan:
            fi.trip("pct_merge")
            fi.trip("packed_splice")
        assert plan.fired == 0
        assert plan.calls == 0

    def test_suppressed_blocks_firing(self):
        with fi.inject("compiled_insert", "raise") as plan:
            with fi.suppressed():
                assert not fi.ARMED
                fi.trip("compiled_insert")
            assert fi.ARMED
        assert plan.fired == 0

    def test_configure_from_env_parses_spec(self):
        plan = fi.configure_from_env("packed_splice:nan:2")
        assert plan.site == "packed_splice"
        assert plan.mode == "nan"
        assert plan.nth == 2
        assert not plan.repeat

    def test_configure_from_env_repeat_suffix(self):
        plan = fi.configure_from_env("compiled_insert:raise:1+")
        assert plan.repeat
        assert plan.nth == 1

    def test_configure_from_env_empty_is_noop(self):
        assert fi.configure_from_env("") is None
        assert fi.configure_from_env("   ") is None

    @pytest.mark.parametrize(
        "spec", ["fused_insert", "a:b:c:d", "fused_insert:raise:x"]
    )
    def test_configure_from_env_malformed(self, spec):
        with pytest.raises(ValueError, match="malformed REPRO_FAULT_INJECT"):
            fi.configure_from_env(spec)

    def test_corrupt_helpers_need_matching_site(self):
        with fi.inject("rope_splice", "nan"):
            pieces = [Piece(0.0, 1.0, 2.0, 3.0, 0)]
            assert fi.corrupt_piece_list("packed_splice", pieces) is pieces

    def test_corrupt_piece_list_nan_poisons_z(self):
        with fi.inject("rope_splice", "nan") as plan:
            out = fi.corrupt_piece_list(
                "rope_splice",
                [Piece(0.0, 1.0, 1.0, 1.0, 0), Piece(2.0, 1.0, 3.0, 1.0, 1)],
            )
        assert plan.fired == 1
        assert any(p.za != p.za for p in out)

    def test_corrupt_piece_list_unsorted_swaps(self):
        with fi.inject("rope_splice", "unsorted") as plan:
            out = fi.corrupt_piece_list(
                "rope_splice",
                [Piece(0.0, 1.0, 1.0, 1.0, 0), Piece(2.0, 1.0, 3.0, 1.0, 1)],
            )
        assert plan.fired == 1
        assert out[0].ya > out[1].ya

    def test_empty_result_not_eligible(self):
        with fi.inject("rope_splice", "nan") as plan:
            pieces = []
            assert fi.corrupt_piece_list("rope_splice", pieces) is pieces
        assert plan.calls == 0


# ---------------------------------------------------------------------------
# Input validators
# ---------------------------------------------------------------------------


def _terrain(*verts):
    return SimpleNamespace(vertices=[Point3(*v) for v in verts])


class TestValidateTerrain:
    def test_accepts_good_terrain(self):
        t = _terrain((0, 0, 1), (1, 0, 2), (0, 1, 3))
        assert validate_terrain(t) is t

    def test_rejects_nan_elevation(self):
        t = _terrain((0, 0, 1), (1, 0, math.nan))
        with pytest.raises(ValidationError, match="vertex 1.*non-finite"):
            validate_terrain(t)

    def test_rejects_inf_coordinate(self):
        t = _terrain((math.inf, 0, 1))
        with pytest.raises(ValidationError, match="non-finite"):
            validate_terrain(t)

    def test_rejects_duplicate_xy(self):
        t = _terrain((0, 0, 1), (1, 1, 2), (0, 0, 5))
        with pytest.raises(ValidationError, match="vertices 0 and 2"):
            validate_terrain(t)

    def test_context_prefixes_message(self):
        t = _terrain((0, 0, math.nan))
        with pytest.raises(ValidationError, match=r"^/tmp/bad\.json: "):
            validate_terrain(t, context="/tmp/bad.json")


class TestValidateSegments:
    def test_accepts_good_segments(self):
        segs = [ImageSegment(0.0, 1.0, 2.0, 3.0, 0)]
        assert validate_segments(segs) is segs

    def test_accepts_vertical_segment(self):
        segs = [ImageSegment(1.0, 0.0, 1.0, 5.0, 0)]
        assert validate_segments(segs) is segs

    def test_rejects_non_finite_lane(self):
        segs = [ImageSegment(0.0, math.nan, 2.0, 3.0, 7)]
        with pytest.raises(ValidationError, match="segment 0.*source 7"):
            validate_segments(segs)

    def test_rejects_zero_length(self):
        segs = [
            ImageSegment(0.0, 1.0, 2.0, 3.0, 0),
            ImageSegment(5.0, 5.0, 5.0, 5.0, 1),
        ]
        with pytest.raises(ValidationError, match="segment 1.*zero length"):
            validate_segments(segs)
