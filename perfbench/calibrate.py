"""Host-speed calibration: a fixed piece of work timed next to every cycle.

The shared 2-core VMs this benchmark runs on change speed by 20-50%
over seconds to minutes (frequency scaling and neighbours, not CPU
steal: process time moves with wall time).  Medians inside one run
absorb short episodes; they cannot absorb a slow minute, nor a host
that is slower for a whole set of runs.  So every timed cycle is
bracketed by a run of :func:`work`, a fixed mix of interpreter and
small-array numpy work in this file (nothing of the program under
test), and each request time is scaled by ``REF_S / calibration``:
the time the request would have taken on a host where :func:`work`
takes ``REF_S``.  A change to the program moves the request but not
the calibration, so the scaled figures compare two commits the way
raw ones would on a host of steady speed.  Raw times are kept beside
the scaled ones in the run's details line.
"""

from __future__ import annotations

import time

import numpy as np

#: Time of :func:`work` on the reference host: a 2-core x86-64 VM
#: (Python 3.11, numpy 2.4) in a quiet period, when it read 6.8-7.3 ms;
#: slow periods read 10-10.6 ms.  Scaled figures read as milliseconds /
#: seconds on that host in a quiet period.
REF_S = 0.007

_RNG = np.random.default_rng(12345)
_ARRAY = _RNG.random(4096)
_KEYS = np.sort(_RNG.random(512))
_POINTS = [(float(a), float(b)) for a, b in _RNG.random((400, 2))]


def work() -> float:
    """A fixed workload shaped like the program's own mix: a Python
    sweep over float tuples with list and dict traffic, then small
    numpy sorts, searches and selects."""
    acc = 0.0
    seen: dict = {}
    for _ in range(30):
        stack = []
        for i, (a, b) in enumerate(_POINTS):
            t = (a - b) * 0.5 if a > b else (b - a) * 0.25
            stack.append((t, i))
            if len(stack) > 8:
                acc += max(stack)[0]
                stack.clear()
            seen[i & 63] = t
    for _ in range(60):
        s = np.sort(_ARRAY)
        idx = np.searchsorted(s, _KEYS)
        acc += float(np.where(s[idx % s.size] > 0.5, s[idx % s.size], 0.0).sum())
    return acc + sum(seen.values())


def measure() -> float:
    """Seconds one :func:`work` takes now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
