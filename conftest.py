"""Repo-root collection rules for the doctest leg, and the session
build of the optional compiled core.

``pytest --doctest-modules src/repro/envelope`` collects library
modules directly; on the no-numpy CI leg the ``flat*`` kernel modules
cannot even import, so they are excluded here (their doctests are
numpy-only by definition).  A numpy-dependent doctest in a module that
*does* import without numpy must guard itself with
``pytest.importorskip``.
"""

import contextlib
import glob
import importlib.util
import io
import os
import shutil
import sys
import tempfile

try:  # pragma: no cover - exercised implicitly on import
    import numpy  # noqa: F401

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy ships in the toolchain
    _HAVE_NUMPY = False

if not _HAVE_NUMPY:
    collect_ignore_glob = [
        "src/repro/envelope/flat*.py",
        "src/repro/envelope/packed.py",
    ]

#: Session build dir of the compiled core (see ``_build_ccore``).
_CCORE_TMP = None


def _ccore_build_enabled() -> bool:
    return os.environ.get("REPRO_CCORE_BUILD", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


def _build_ccore() -> None:
    """Build the optional compiled core for this session when it can.

    A fresh checkout has no built extension, so every compiled-core
    test would skip.  Unless ``REPRO_CCORE_BUILD=0`` (the documented
    no-compiler lever) or the package already holds a built core (an
    in-place build, an installed wheel), compile
    ``_ccore_build.ffibuilder`` into a session temp dir and register
    it as ``repro.envelope._repro_ccore`` before anything imports
    ``repro.envelope``.  No cffi or no working compiler: nothing is
    registered and the core tests skip as before.

    Runs when this file is imported: ``tests/conftest.py`` is an
    initial conftest and imports ``repro.envelope`` before any
    ``pytest_configure`` hook fires.
    """
    global _CCORE_TMP
    if not _ccore_build_enabled():
        return
    spec = importlib.util.find_spec("repro")
    if spec is None or not spec.submodule_search_locations:
        return
    envelope_dir = os.path.join(spec.submodule_search_locations[0], "envelope")
    if glob.glob(os.path.join(envelope_dir, "_repro_ccore*.so")):
        return
    _CCORE_TMP = tempfile.mkdtemp(prefix="repro-ccore-")
    try:
        build_spec = importlib.util.spec_from_file_location(
            "_repro_ccore_build", os.path.join(envelope_dir, "_ccore_build.py")
        )
        builder = importlib.util.module_from_spec(build_spec)
        build_spec.loader.exec_module(builder)
        with contextlib.redirect_stdout(io.StringIO()):
            so_path = builder.ffibuilder.compile(tmpdir=_CCORE_TMP)
    except Exception as exc:  # no cffi, no compiler, a broken toolchain
        sys.stderr.write(f"compiled core not built for this session: {exc}\n")
        return
    core_spec = importlib.util.spec_from_file_location(
        "repro.envelope._repro_ccore", so_path
    )
    core = importlib.util.module_from_spec(core_spec)
    core_spec.loader.exec_module(core)
    sys.modules[core_spec.name] = core


_build_ccore()


def pytest_unconfigure(config):
    if _CCORE_TMP is not None:
        shutil.rmtree(_CCORE_TMP, ignore_errors=True)
