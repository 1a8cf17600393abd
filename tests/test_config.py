"""Tests for :class:`repro.config.HsrConfig` — the unified front door."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG, HsrConfig


class TestValueSemantics:
    def test_field_names_pinned(self):
        # Every field is a supported front-door knob; a deleted toggle
        # cannot come back without a diff here.
        assert {f.name for f in dataclasses.fields(HsrConfig)} == {
            "engine",
            "eps",
            "use_compiled_insert",
        }

    def test_frozen(self):
        cfg = HsrConfig()
        with pytest.raises(Exception):
            cfg.eps = 1.0  # type: ignore[misc]

    def test_hashable_and_comparable(self):
        assert HsrConfig(eps=1e-6) == HsrConfig(eps=1e-6)
        assert HsrConfig(eps=1e-6) != HsrConfig(eps=1e-7)
        assert hash(HsrConfig(eps=1e-9)) == hash(HsrConfig(eps=1e-9))
        assert len({HsrConfig(), HsrConfig(), HsrConfig(engine="python")}) == 2

    def test_replace(self):
        cfg = HsrConfig(engine="python")
        out = cfg.replace(use_compiled_insert=False)
        assert out.engine == "python" and out.use_compiled_insert is False
        assert cfg.use_compiled_insert is None  # original untouched


class TestResolve:
    def test_none_is_default(self):
        assert HsrConfig.resolve(None) is DEFAULT_CONFIG

    def test_passthrough_without_overrides(self):
        cfg = HsrConfig(use_compiled_insert=False)
        assert HsrConfig.resolve(cfg) is cfg

    def test_keyword_overrides_win(self):
        cfg = HsrConfig(engine="numpy", eps=1e-9)
        out = HsrConfig.resolve(cfg, engine="python", eps=1e-6)
        assert out.engine == "python" and out.eps == 1e-6
        assert cfg.engine == "numpy"  # original untouched

    def test_resolved_engine_python(self):
        assert HsrConfig(engine="python").resolved_engine() == "python"

    def test_resolved_engine_auto(self):
        pytest.importorskip("numpy")
        assert HsrConfig().resolved_engine() == "numpy"


class TestToggleDeferral:
    """``None`` fields track the library defaults; set fields win
    without mutating any process-wide state."""

    def test_explicit_field_wins(self):
        from repro.envelope import _ccore

        default = _ccore.COMPILED_DEFAULT
        for value in (True, False):
            assert HsrConfig(use_compiled_insert=value).compiled_insert() is value
        assert _ccore.COMPILED_DEFAULT is default  # default untouched

    def test_fused_toggles_defer_to_splice(self):
        # The compiled-insert default is the built core unless
        # REPRO_COMPILED=0; no module global can override it.
        from repro.envelope import _ccore

        assert HsrConfig().compiled_insert() is _ccore.COMPILED_DEFAULT


class TestConfigThreading:
    """Toggle ablations via config fields (no monkeypatching) stay
    bit-exact with the defaults."""

    @pytest.fixture
    def terrain(self):
        pytest.importorskip("numpy")
        from repro.terrain.generators import fractal_terrain

        return fractal_terrain(size=9, seed=5)

    def test_sequential_compiled_toggle_parity(self, terrain):
        from repro.hsr.sequential import SequentialHSR

        base = SequentialHSR(config=HsrConfig(engine="python")).run(terrain)
        for compiled in (False, True):
            cfg = HsrConfig(engine="numpy", use_compiled_insert=compiled)
            res = SequentialHSR(config=cfg).run(terrain)
            assert res.k == base.k
            assert (
                res.visibility_map.segments == base.visibility_map.segments
            )

    def test_parallel_engine_config_parity(self, terrain):
        from repro.hsr.parallel import ParallelHSR

        ref = ParallelHSR(mode="direct", engine="python").run(terrain)
        via_cfg = ParallelHSR(
            mode="direct", config=HsrConfig(engine="numpy")
        ).run(terrain)
        assert via_cfg.k == ref.k
        assert (
            via_cfg.visibility_map.segments == ref.visibility_map.segments
        )

    def test_eps_threads_through_constructor(self):
        from repro.hsr.sequential import SequentialHSR

        algo = SequentialHSR(config=HsrConfig(eps=1e-7))
        assert algo.eps == 1e-7
        # keyword shorthand overrides the config field
        algo = SequentialHSR(eps=1e-5, config=HsrConfig(eps=1e-7))
        assert algo.eps == 1e-5
