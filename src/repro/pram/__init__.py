"""Simulated CREW PRAM: cost tracking, scheduling, primitives.

See DESIGN.md §2 for why the PRAM is simulated (work/depth accounting)
rather than emulated with threads: the algorithm's guarantees are
statements about work and depth, and those are machine-measurable;
thread emulation under the GIL would measure nothing.
"""

from repro.pram.schedule import (
    PhaseCost,
    allocation_time,
    brent_time,
    phases_from_tracker,
    slowdown_time,
    speedup_curve,
)
from repro.pram.tracker import PhaseRecord, PramTracker

__all__ = [
    "PhaseCost",
    "PhaseRecord",
    "PramTracker",
    "allocation_time",
    "brent_time",
    "phases_from_tracker",
    "slowdown_time",
    "speedup_curve",
]

try:  # array-backed PRAM primitives are optional without numpy
    from repro.pram.primitives import (  # noqa: F401
        parallel_max_index,
        parallel_merge_positions,
        parallel_prefix,
        parallel_reduce,
        prefix_combine,
    )

    __all__ += [
        "parallel_max_index",
        "parallel_merge_positions",
        "parallel_prefix",
        "parallel_reduce",
        "prefix_combine",
    ]
except ImportError:  # pragma: no cover - numpy ships in the toolchain
    pass
