"""The unified run configuration: one frozen object through every front door.

Every public entry point — :class:`~repro.hsr.sequential.SequentialHSR`,
:class:`~repro.hsr.parallel.ParallelHSR`,
:func:`~repro.envelope.build.build_envelope`, the
:mod:`repro.hsr.queries` helpers and the
:class:`~repro.service.ViewshedSession` query service — accepts a
``config=`` :class:`HsrConfig`.  The dataclass replaces the keyword
sprawl that had accreted across constructors (``engine=`` here,
``eps=`` there, module-global toggles monkeypatched in tests, worker
counts read from the environment) with a single immutable, hashable
value that can be threaded through a whole pipeline, cached on, and
compared.

Resolution rule
---------------
Every optional field defaults to ``None`` meaning *use the library
default*: :data:`repro.envelope._ccore.COMPILED_DEFAULT` (the built
core, unless ``REPRO_COMPILED=0``), so a default-constructed
``HsrConfig()`` changes nothing.  A field that
*is* set wins over the default for the call it is threaded through,
without mutating any process-wide state: two sessions with different
configs can interleave safely.

``workers`` selects real multi-process execution of the D&C envelope
build (:mod:`repro.parallel_exec`, used by
:func:`~repro.envelope.build.build_envelope` and
:class:`~repro.service.ViewshedSession`): ``1`` (default) stays
in-process, ``N > 1`` builds the subtrees in a process pool,
``"auto"`` asks :func:`repro.parallel_exec.available_workers` (which
honours ``REPRO_WORKERS``, the one environment override retained —
documented in ``docs/API.md``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from repro.geometry.primitives import EPS

__all__ = ["HsrConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class HsrConfig:
    """Immutable configuration for HSR runs and viewshed queries.

    Parameters
    ----------
    engine:
        Envelope kernel: ``"python"``, ``"numpy"``, or ``None``/
        ``"auto"`` for the default (numpy when importable).
    eps:
        Geometric tolerance shared by every predicate.
    workers:
        Process count for the D&C envelope build
        (:mod:`repro.parallel_exec`); ``1`` means in-process,
        ``"auto"`` resolves via
        :func:`repro.parallel_exec.available_workers`.  The HSR
        classes ignore it.
    use_compiled_insert:
        The compiled core: one C call per 256 inserts of a sequential
        run, and one per PCT layer in each phase of a
        ``ParallelHSR`` run; ``None`` defers to
        :data:`repro.envelope._ccore.COMPILED_DEFAULT`, which is on
        exactly when the optional extension compiled at install time
        and ``REPRO_COMPILED=0`` is not set.  ``True`` on a
        no-compiler install is a silent no-op (the python reference
        answers, bit-exact).
    parallel_min_segments:
        Build size below which the parallel executor declines (IPC
        would dominate); ``None`` defers to
        :data:`repro.parallel_exec.PARALLEL_BUILD_MIN_SEGMENTS`.  Tests
        set it to ``0`` to exercise the pool on small fixtures.
    """

    engine: Optional[str] = None
    eps: float = EPS
    workers: Union[int, str] = 1
    use_compiled_insert: Optional[bool] = None
    parallel_min_segments: Optional[int] = None

    # -- resolution helpers (read the documented defaults lazily, so a
    # -- default config always tracks the live module globals) --------

    def resolved_engine(self) -> str:
        from repro.envelope.engine import resolve_engine

        return resolve_engine(self.engine)

    def resolved_workers(self) -> int:
        if self.workers == "auto":
            from repro.parallel_exec import available_workers

            return available_workers()
        return max(1, int(self.workers))

    def compiled_insert(self) -> bool:
        if self.use_compiled_insert is not None:
            return self.use_compiled_insert
        from repro.envelope._ccore import COMPILED_DEFAULT

        return COMPILED_DEFAULT

    # -- construction helpers -----------------------------------------

    def replace(self, **changes: object) -> "HsrConfig":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    @staticmethod
    def resolve(
        config: Optional["HsrConfig"],
        *,
        engine: Optional[str] = None,
        eps: Optional[float] = None,
    ) -> "HsrConfig":
        """Normalise a front door's ``(config, engine=, eps=)`` inputs.

        Explicit ``engine=`` / ``eps=`` keywords — kept on the
        constructors as supported shorthand — override the
        corresponding config fields; a missing config starts from
        :data:`DEFAULT_CONFIG`.
        """
        out = config if config is not None else DEFAULT_CONFIG
        changes: dict[str, object] = {}
        if engine is not None:
            changes["engine"] = engine
        if eps is not None:
            changes["eps"] = eps
        return out.replace(**changes) if changes else out


#: The all-defaults configuration (engine auto, in-process, module
#: globals for every toggle).
DEFAULT_CONFIG = HsrConfig()
