"""Contract tests for the public package surface."""

from __future__ import annotations

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro import errors

#: The complete top-level surface — an exact pin, so accidental
#: additions and removals both fail loudly.
EXPECTED_ALL = [
    "__version__",
    "HsrConfig",
    "DEFAULT_CONFIG",
    "Terrain",
    "generate_terrain",
    "ParallelHSR",
    "SequentialHSR",
    "NaiveHSR",
    "VisibilityMap",
    "point_visible",
    "visible_many",
    "VisibilityOracle",
    "batch_visible_parts",
    "ViewshedSession",
    "ViewshedServer",
    "PramTracker",
    "Envelope",
    "ReliabilityReport",
    "reliability_run",
    "validate_terrain",
    "validate_segments",
]


class TestLazyTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_exact_public_surface(self):
        assert sorted(repro.__all__) == sorted(EXPECTED_ALL)
        assert len(repro.__all__) == 21

    def test_lazy_exports_resolve(self):
        pytest.importorskip("numpy")  # batch_visible_parts needs arrays
        for name in EXPECTED_ALL:
            assert getattr(repro, name) is not None, name

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_thing

    def test_dir_lists_lazy_names(self):
        listing = dir(repro)
        assert "ParallelHSR" in listing
        assert "generate_terrain" in listing

    def test_import_is_cheap(self):
        # `import repro` must not pull in the heavy subpackages.
        code = (
            "import sys; import repro; "
            "assert 'repro.hsr' not in sys.modules, 'hsr loaded eagerly'; "
            "assert 'scipy' not in sys.modules, 'scipy loaded eagerly'; "
            "print('lazy-ok')"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert "lazy-ok" in out.stdout


class TestImportIsWarningClean:
    def test_import_clean_under_error_deprecation(self):
        # The acceptance bar from the API redesign: importing the
        # package (and resolving the whole lazy surface) never emits
        # a DeprecationWarning — only deprecated *usage* does.
        code = (
            "import repro\n"
            "for name in repro.__all__:\n"
            "    getattr(repro, name)\n"
            "print('clean')\n"
        )
        out = subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert "clean" in out.stdout


class TestNoDeprecationWarnings:
    """Superseded call paths are removed, not shimmed: the supported
    paths never emit a DeprecationWarning."""

    @staticmethod
    def _count_deprecations(fn):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fn()
            fn()
        return sum(
            1 for w in caught if issubclass(w.category, DeprecationWarning)
        )

    def test_persistence_import_warning_clean(self):
        assert (
            self._count_deprecations(
                lambda: (
                    __import__("repro.persistence"),
                    repro.persistence.Rope,
                    repro.persistence.rope_splice_merge,
                )
            )
            == 0
        )

    def test_config_path_never_warns(self):
        pytest.importorskip("numpy")
        from repro.config import HsrConfig
        from repro.hsr.queries import point_visible
        from repro.terrain.generators import fractal_terrain

        terrain = fractal_terrain(size=5, seed=0)
        assert (
            self._count_deprecations(
                lambda: point_visible(
                    terrain, (1.0, 1.0, 99.0), config=HsrConfig(eps=1e-9)
                )
            )
            == 0
        )


class TestRemovedPaths:
    """Rows of the docs/API.md migration table: a removed name is gone
    and a removed keyword is no parameter, with no shim left behind."""

    @pytest.mark.parametrize(
        "path",
        [
            "repro.envelope.flat_fused",
            "repro.envelope.engine:merge_dispatch",
            "repro.envelope.engine:visibility_dispatch",
            "repro.envelope.engine:FLAT_FUSED_CUTOFF",
            "repro.envelope.flat_visibility:visible_parts_flat",
            "repro.config:HsrConfig.fused_cutoff",
            "repro.reliability.guard:GUARDED_CHECK_ALL",
            "repro.parallel_exec",
            "repro.config:HsrConfig.resolved_workers",
            "repro.envelope:FlatMergeResult",
            "repro.envelope:build_envelope_flat",
            "repro.envelope:merge_envelopes_flat",
            "repro.reliability.faultinject:corrupt_flat",
        ],
    )
    def test_name_is_gone(self, path):
        import importlib

        pytest.importorskip("numpy")
        module_name, _, attrs = path.partition(":")
        if not attrs:
            with pytest.raises(ImportError):
                importlib.import_module(module_name)
            return
        obj = importlib.import_module(module_name)
        *owners, last = attrs.split(".")
        for name in owners:
            obj = getattr(obj, name)
        assert not hasattr(obj, last)

    @pytest.mark.parametrize(
        "path,keyword",
        [
            ("repro.envelope.splice:insert_segment", "engine"),
            ("repro.envelope.splice:splice_merge", "engine"),
            ("repro.envelope.merge:merge_many", "engine"),
            ("repro.envelope.flat_visibility:batch_visible_parts", "groups"),
            ("repro.config:HsrConfig", "flat_fused_cutoff"),
            ("repro.config:HsrConfig", "workers"),
            ("repro.config:HsrConfig", "parallel_min_segments"),
        ],
    )
    def test_keyword_is_gone(self, path, keyword):
        import importlib
        import inspect

        pytest.importorskip("numpy")
        module_name, _, name = path.partition(":")
        fn = getattr(importlib.import_module(module_name), name)
        assert keyword not in inspect.signature(fn).parameters

    def test_serve_workers_flag_is_gone(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "fractal", "--workers", "2"])
        assert "--workers" in capsys.readouterr().err

    def test_guard_site_is_gone(self):
        from repro.reliability import faultinject

        assert "parallel_exec" not in faultinject.SITES
        with pytest.raises(ValueError):
            faultinject.install("parallel_exec", "raise")

    @pytest.mark.parametrize("name", ["REPRO_WORKERS", "--workers"])
    def test_nothing_reads_the_removed_switch(self, name):
        """No library module or example reads the removed environment
        variable or flag."""
        root = Path(__file__).resolve().parent.parent
        files = [*(root / "src" / "repro").rglob("*.py"), *(root / "examples").glob("*.py")]
        assert files
        assert [str(f) for f in files if name in f.read_text()] == []


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, Exception)
            if name != "ReproError":
                assert issubclass(exc, errors.ReproError)

    def test_catchable_as_base(self):
        pytest.importorskip("numpy")  # real generators only
        from repro.terrain import generate_terrain

        with pytest.raises(errors.ReproError):
            generate_terrain("not-a-kind")

    def test_distinct_categories(self):
        assert not issubclass(errors.TerrainError, errors.EnvelopeError)
        assert not issubclass(errors.PramError, errors.GeometryError)


class TestSubpackageAll:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.geometry",
            "repro.envelope",
            "repro.persistence",
            "repro.pram",
            "repro.terrain",
            "repro.ordering",
            "repro.hsr",
            "repro.render",
            "repro.bench",
            "repro.service",
        ],
    )
    def test_all_names_exist(self, module_name):
        import importlib

        if module_name == "repro.bench":
            # The experiment harness is array-based.
            pytest.importorskip("numpy")
        mod = importlib.import_module(module_name)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module_name}.{name} missing"

    def test_hsr_has_no_acg_reexports(self):
        # The ACG walker is reached through the Phase-2 modes and its
        # own module, never through the package surface.
        import repro.hsr as hsr

        assert not any(
            "acg" in n or "rope" in n or n.startswith(("collect_", "winner"))
            for n in hsr.__all__
        )

    def test_pram_surface(self):
        import repro.pram as pram

        # The array primitives join only when numpy is importable.
        primitives = {
            "parallel_max_index",
            "parallel_merge_positions",
            "parallel_prefix",
            "parallel_reduce",
            "prefix_combine",
        }
        assert sorted(set(pram.__all__) - primitives) == [
            "PhaseCost",
            "PhaseRecord",
            "PramTracker",
            "allocation_time",
            "brent_time",
            "phases_from_tracker",
            "slowdown_time",
            "speedup_curve",
        ]

    def test_persistence_surface(self):
        import repro.persistence as persistence

        assert sorted(persistence.__all__) == [
            "Chunk",
            "Rope",
            "count_shared_chunks",
            "rope_from_envelope",
            "rope_range_pieces",
            "rope_splice_merge",
            "rope_value_at",
            "rope_visible_parts",
        ]

    def test_no_private_leaks_in_all(self):
        import importlib

        for module_name in (
            "repro.geometry",
            "repro.envelope",
            "repro.hsr",
        ):
            mod = importlib.import_module(module_name)
            assert all(not n.startswith("_") for n in mod.__all__)
