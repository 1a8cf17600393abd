"""Guarded kernel dispatch: invariant checks, python-path retry,
circuit breaker.

Every fast boundary has a bit-exact python twin (the parity contract
of :mod:`repro.envelope.engine`).  This module turns that twin into a
runtime safety net.  Each guarded boundary — the compiled insert run
and PCT layers, ``PackedProfile.splice``, the rope splice commit and
the batched build — runs under a guard that

1. **checks** cheap post-conditions on the kernel's freshly-built
   output *before* it is committed anywhere (sorted ``ya`` lanes,
   finite ``z`` lanes, visible parts inside the query span, splice
   bounds inside the live range), and catches kernel exceptions;
2. **degrades**: in guarded mode (the default) a failed operation is
   transparently recomputed on the bit-exact python path — results,
   ``ops`` and all downstream accounting are parity-identical, so the
   only observable difference is the :class:`ReliabilityReport`
   incident;
3. **reports**: every incident is recorded per run (site, count,
   causes), and a circuit breaker quarantines a site to the python
   path for the rest of the run after :data:`FAULT_THRESHOLD` faults.

Modes
-----

:data:`GUARDS_ENABLED`
    Master switch (env ``REPRO_GUARDS``).  ``False`` removes all guard
    work — the ablation baseline the ``sequential-guard-ablation``
    bench rows measure against.  Kernel exceptions then propagate raw.
:data:`GUARDED_DISPATCH`
    ``True`` (default; env ``REPRO_GUARDED_DISPATCH``): degrade and
    record.  ``False`` (*strict*): the first fault raises
    :class:`repro.errors.KernelFault` naming the site — the mode CI
    uses to prove injected faults are actually caught at their site.

Check placement is *pre-commit* by design: outputs are validated while
the inputs they were computed from are still intact, so the python
retry recomputes from unmutated state.  The one exception is the
periodic whole-profile tick (site ``profile``), which is detection-
only — by the time a live profile fails validation the corruption is
already committed, so it raises :class:`~repro.errors.KernelFault` in
*both* modes rather than degrade to garbage.

This module is numpy-free at import time (the vectorized checks bind
numpy lazily) so the no-numpy leg can import and use the report /
validation machinery.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.errors import KernelFault, ReproError
from repro.reliability import faultinject as _fi

__all__ = [
    "GUARDS_ENABLED",
    "GUARDED_DISPATCH",
    "FAULT_THRESHOLD",
    "InvariantViolation",
    "ReliabilityReport",
    "SiteIncidents",
    "reliability_run",
    "current_report",
    "guarded_call",
    "handle_fault",
    "violation",
    "is_quarantined",
    "check_flat",
    "check_profile",
]


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "off", "no", "")


#: Master guard switch; ``False`` is the zero-overhead ablation
#: baseline (kernel exceptions propagate raw, nothing is recorded).
GUARDS_ENABLED: bool = _env_flag("REPRO_GUARDS", True)

#: ``True``: degrade faulted operations to the python path and record
#: them.  ``False``: strict mode — raise :class:`KernelFault` naming
#: the site on the first fault.
GUARDED_DISPATCH: bool = _env_flag("REPRO_GUARDED_DISPATCH", True)

#: Faults at one site within one run after which the circuit breaker
#: quarantines the site: the guard stops trying the kernel and routes
#: straight to the python path for the rest of the run.
FAULT_THRESHOLD: int = 3

#: Causes kept verbatim per site in a report (the count keeps going).
MAX_CAUSES: int = 5

#: ``True`` when the *innermost* report has quarantined any site —
#: a one-attribute-load prefilter for the hot paths.
ANY_QUARANTINED: bool = False


class InvariantViolation(ReproError):
    """A guarded kernel's output failed its post-condition check.

    Carries ``site`` so the guard that catches it attributes the fault
    to the boundary whose check failed (e.g. a splice-bounds violation
    detected inside an insert is still a ``packed_splice`` incident).
    """

    def __init__(self, site: str, message: str):
        self.site = site
        super().__init__(f"{site}: {message}")


def violation(site: str, message: str) -> None:
    """Raise an :class:`InvariantViolation` for ``site``."""
    raise InvariantViolation(site, message)


# ---------------------------------------------------------------------------
# Per-run reporting + circuit breaker
# ---------------------------------------------------------------------------


@dataclass
class SiteIncidents:
    """Fault tally for one guard site within one report."""

    site: str
    count: int = 0
    quarantined: bool = False
    causes: list = field(default_factory=list)


class ReliabilityReport:
    """Incident log of one run under guarded dispatch.

    ``sites`` maps guard-site name → :class:`SiteIncidents`.  A report
    is *degraded* when any fault was recorded — every recorded fault
    corresponds to one operation that was recomputed on the bit-exact
    python path, so a degraded run's results are still exact.
    """

    __slots__ = ("sites",)

    def __init__(self) -> None:
        self.sites: dict = {}

    def record(self, site: str, cause: BaseException) -> None:
        rec = self.sites.get(site)
        if rec is None:
            rec = self.sites[site] = SiteIncidents(site)
        rec.count += 1
        if len(rec.causes) < MAX_CAUSES:
            rec.causes.append(f"{type(cause).__name__}: {cause}")
        if rec.count >= FAULT_THRESHOLD:
            rec.quarantined = True

    @property
    def faults(self) -> int:
        return sum(rec.count for rec in self.sites.values())

    @property
    def degraded(self) -> bool:
        return bool(self.sites)

    def quarantined_sites(self) -> set:
        return {s for s, rec in self.sites.items() if rec.quarantined}

    def summary(self) -> str:
        """One line per faulted site, prefixed with the total."""
        if not self.sites:
            return "reliability: no kernel faults"
        lines = [
            f"reliability: {self.faults} kernel fault(s) degraded to the"
            f" python path across {len(self.sites)} site(s)"
        ]
        for site in sorted(self.sites):
            rec = self.sites[site]
            tag = " [quarantined]" if rec.quarantined else ""
            cause = f" — {rec.causes[0]}" if rec.causes else ""
            lines.append(f"  {site}: {rec.count} fault(s){tag}{cause}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            site: {
                "count": rec.count,
                "quarantined": rec.quarantined,
                "causes": list(rec.causes),
            }
            for site, rec in self.sites.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReliabilityReport {self.faults} fault(s),"
            f" {len(self.sites)} site(s)>"
        )


# The report stack.  ``_STACK[0]`` is the ambient process report (for
# library use outside any run context); ``reliability_run`` pushes a
# fresh per-run report.  Faults record into *every* open report (so an
# outer CLI context sees incidents of an inner run); the breaker reads
# the innermost one only, so quarantine is scoped to the current run.
_STACK: list = [ReliabilityReport()]


def _refresh_quarantine() -> None:
    global ANY_QUARANTINED
    ANY_QUARANTINED = bool(_STACK[-1].quarantined_sites())


def current_report() -> ReliabilityReport:
    """The innermost open report."""
    return _STACK[-1]


def reset_ambient() -> None:
    """Replace the ambient process report (test isolation)."""
    _STACK[0] = ReliabilityReport()
    if len(_STACK) == 1:
        _refresh_quarantine()


@contextmanager
def reliability_run() -> Iterator[ReliabilityReport]:
    """Open a per-run report; the circuit breaker scopes to it."""
    rep = ReliabilityReport()
    _STACK.append(rep)
    _refresh_quarantine()
    try:
        yield rep
    finally:
        _STACK.pop()
        _refresh_quarantine()


def is_quarantined(site: str) -> bool:
    rec = _STACK[-1].sites.get(site)
    return rec is not None and rec.quarantined


def handle_fault(site: str, exc: BaseException) -> None:
    """Dispatch one kernel fault: raise in strict mode, record in
    guarded mode (the caller then runs its python-path fallback)."""
    if not GUARDED_DISPATCH:
        raise KernelFault(site, exc) from exc
    for rep in _STACK:
        rep.record(site, exc)
    _refresh_quarantine()


def guarded_call(
    site: str,
    kernel: Callable,
    fallback: Callable,
    check: Optional[Callable] = None,
    corrupt: Optional[Callable] = None,
):
    """Run ``kernel`` under the guard for ``site``.

    ``check(result)`` raises :class:`InvariantViolation` on a bad
    post-condition; ``corrupt`` is the fault-injection hook applied to
    the fresh result when injection is armed.  On any fault the call
    is retried as ``fallback()`` (the bit-exact python path) with
    injection suppressed; in strict mode the fault raises
    :class:`KernelFault` instead.
    """
    if not GUARDS_ENABLED:
        return kernel()
    if ANY_QUARANTINED and is_quarantined(site):
        with _fi.suppressed():
            return fallback()
    try:
        _fi.trip(site)
        result = kernel()
        if corrupt is not None and _fi.ARMED:
            result = corrupt(result)
        if check is not None:
            check(result)
        return result
    except KernelFault:
        raise
    except Exception as exc:
        handle_fault(site, exc)
        with _fi.suppressed():
            return fallback()


# ---------------------------------------------------------------------------
# Post-condition checks.  All pre-commit: they validate freshly-built
# kernel output before it is spliced/shared anywhere, so a failed
# check leaves the inputs intact for the python retry.  NaN fails
# every ordered comparison below, so poisoned lanes trip the same
# predicates as unsorted ones.
# ---------------------------------------------------------------------------


def check_flat(site: str, ya, za, yb, zb) -> None:
    """Vectorized envelope-lane check: ``ya <= yb``, pieces sorted and
    non-overlapping, finite ``z`` lanes.  A handful of array
    reductions — used on the batched build's outputs and on the live
    profile."""
    n = len(ya)
    if n == 0:
        return
    import numpy as np

    ok = bool((ya <= yb).all()) and bool(np.isfinite(za).all()) and bool(
        np.isfinite(zb).all()
    )
    if ok and n > 1:
        ok = bool((yb[:-1] <= ya[1:]).all())
    if not ok:
        violation(site, f"flat output lanes unsorted or non-finite ({n} pieces)")


def check_profile(profile) -> None:
    """Validate a live profile's lanes (the check every 256 inserts).

    Detection-only: a live profile failing validation means corruption
    was already committed by an earlier splice, so this raises
    :class:`KernelFault` in both modes instead of degrading.
    """
    try:
        check_flat("profile", profile.ya, profile.za, profile.yb, profile.zb)
    except InvariantViolation as exc:
        raise KernelFault("profile", exc) from exc
