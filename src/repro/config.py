"""The unified run configuration: one frozen object through every front door.

Every public entry point — :class:`~repro.hsr.sequential.SequentialHSR`,
:class:`~repro.hsr.parallel.ParallelHSR`,
:func:`~repro.envelope.build.build_envelope`, the
:mod:`repro.hsr.queries` helpers and the
:class:`~repro.service.ViewshedSession` query service — accepts a
``config=`` :class:`HsrConfig`.  The dataclass replaces the keyword
sprawl that had accreted across constructors (``engine=`` here,
``eps=`` there, module-global toggles monkeypatched in tests) with a
single immutable, hashable value that can be threaded through a whole
pipeline, cached on, and compared.

Resolution rule
---------------
Every optional field defaults to ``None`` meaning *use the library
default*: :data:`repro.envelope._ccore.COMPILED_DEFAULT` (the built
core, unless ``REPRO_COMPILED=0``), so a default-constructed
``HsrConfig()`` changes nothing.  A field that
*is* set wins over the default for the call it is threaded through,
without mutating any process-wide state: two sessions with different
configs can interleave safely.

Three settable fields: ``engine``, ``eps`` and
``use_compiled_insert`` (the compiled core).  There is no process pool:
each kernel boundary is one compiled call (when the core is built) or
the python reference, in the calling thread.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

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
    use_compiled_insert:
        The compiled core: one C call per sequential run, one per phase
        of a ``ParallelHSR`` run, one per ``build_envelope`` and one per
        batch of sight-line queries or observer points (and the
        front-to-back ordering);
        ``None`` defers to :data:`repro.envelope._ccore.COMPILED_DEFAULT`,
        which is on exactly when the optional extension compiled at
        install time and ``REPRO_COMPILED=0`` is not set.  ``True`` on a
        no-compiler install is a silent no-op (the python reference
        answers, bit-exact).
    """

    engine: Optional[str] = None
    eps: float = EPS
    use_compiled_insert: Optional[bool] = None

    # -- resolution helpers (read the documented defaults lazily, so a
    # -- default config always tracks the live module globals) --------

    def resolved_engine(self) -> str:
        from repro.envelope.engine import resolve_engine

        return resolve_engine(self.engine)

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


#: The all-defaults configuration (engine auto, module globals for
#: every toggle).
DEFAULT_CONFIG = HsrConfig()
