"""Envelope kernel selection.

Two engines produce bit-identical results:

``"python"``
    The reference kernels — :mod:`repro.envelope.merge`,
    :mod:`repro.envelope.visibility` and the tuple insert of
    :mod:`repro.envelope.splice` — pure Python, no dependencies, the
    semantic ground truth.
``"numpy"``
    The array kernels: the packed live profile of the sequential run
    (:mod:`repro.envelope.flat_splice`), the batched query kernels
    (:mod:`repro.envelope.flat_visibility`) and, when the optional
    compiled core is built, the C loops behind the insert run, the PCT
    layers, the levels of the divide-and-conquer build and the
    ordering (:mod:`repro.envelope._ccore`).

Each HSR boundary has one fast path and one reference: the compiled
core, and — for every insert, layer or build it does not answer, and
on an install without it — the python reference on the same data.  PRAM
``ops`` charges are engine-independent by construction
(elementary-interval counts), so cost accounting is unaffected by
kernel choice.

``engine=None`` (or ``"auto"``) resolves to :data:`DEFAULT_ENGINE` —
``"numpy"`` when NumPy is importable, else ``"python"``.  The NumPy
dependency is gated here so the rest of the library never imports it
directly.

See ``docs/ARCHITECTURE.md`` for the full dispatch map.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import EnvelopeError

__all__ = [
    "HAVE_NUMPY",
    "DEFAULT_ENGINE",
    "ENGINES",
    "resolve_engine",
]

try:  # pragma: no cover - exercised implicitly on import
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy ships in the toolchain
    HAVE_NUMPY = False

ENGINES = ("python", "numpy")

#: Engine used when callers pass ``engine=None`` / ``"auto"``.
DEFAULT_ENGINE: str = "numpy" if HAVE_NUMPY else "python"


def resolve_engine(engine: Optional[str]) -> str:
    """Normalise an engine spec to ``"python"`` or ``"numpy"``.

    ``None`` and ``"auto"`` resolve to :data:`DEFAULT_ENGINE`;
    requesting ``"numpy"`` without NumPy installed raises.
    """
    if engine is None or engine == "auto":
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise EnvelopeError(
            f"unknown envelope engine {engine!r}; choose from {ENGINES}"
        )
    if engine == "numpy" and not HAVE_NUMPY:
        raise EnvelopeError(
            "engine='numpy' requested but numpy is not installed"
        )
    return engine
