"""Real multi-core execution for the D&C envelope build.

The divide-and-conquer envelope build
(:func:`repro.envelope.build.build_envelope`, and through it
:class:`repro.service.ViewshedSession`) dispatched to a
``fork``-context process pool over
:mod:`multiprocessing.shared_memory`-backed numpy buffers (zero-copy
thanks to the flat SoA layout), bit-exact with the in-process engines
and guarded by the ``parallel_exec`` fault site — unavailable workers
decline silently, worker faults fall back through the PR-6 recovery
pattern.  Select it per run with
:class:`repro.config.HsrConfig(workers=N)`; nothing here runs unless a
config asks for more than one worker.  The HSR classes ignore
``workers``: their PCT layers run in-process.

See :mod:`repro.parallel_exec.executor` for the execution model and
:mod:`repro.parallel_exec.shm` for the buffer lifecycle contract.
"""

from repro.parallel_exec.executor import (
    PARALLEL_BUILD_MIN_SEGMENTS,
    available_workers,
    build_envelope_parallel,
    maybe_build_envelope,
    parallel_stats,
    reset_stats,
    shutdown,
)

__all__ = [
    "available_workers",
    "build_envelope_parallel",
    "maybe_build_envelope",
    "shutdown",
    "parallel_stats",
    "reset_stats",
    "PARALLEL_BUILD_MIN_SEGMENTS",
]
