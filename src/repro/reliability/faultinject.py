"""Deterministic fault injection for the guarded dispatch layer.

Every guarded kernel boundary (:mod:`repro.reliability.guard`) exposes
a *named injection site*.  Exactly one fault plan can be armed at a
time — via the :func:`inject` context manager or the
``REPRO_FAULT_INJECT`` environment variable — and it fires
deterministically on the *nth eligible call* at its site:

``raise``
    The site raises :class:`InjectedFault` before the kernel runs —
    modelling an allocation failure or a crash inside a vectorized
    sweep.
``unsorted``
    The kernel's freshly-built output has its first two pieces (or the
    endpoints of its only piece) swapped — modelling a buggy splice
    that breaks the sorted-``ya`` envelope invariant.
``nan``
    One ``z`` lane of the output is poisoned with NaN (seeded,
    reproducible index choice) — modelling silent numeric corruption.

Corruption always targets *freshly allocated result objects*, never
window views that alias a live profile buffer, so an injected fault is
recoverable by recomputing from the (untouched) inputs — which is
exactly what guarded mode must demonstrate.  While a guard runs its
python-path fallback, injection is suppressed
(:func:`suppressed`), so the recovery path cannot re-trip the fault it
is recovering from.

Environment variable format (parsed once at import, and on demand via
:func:`configure_from_env`)::

    REPRO_FAULT_INJECT="site:mode[:nth[+]]"

e.g. ``compiled_insert:raise`` (first call), ``rope_splice:nan:2``
(second call), ``packed_splice:raise:1+`` (every call — the circuit-
breaker exercise).  This module never imports numpy at module level
and stays importable on the no-numpy leg.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ReproError

__all__ = [
    "InjectedFault",
    "SITES",
    "inject",
    "install",
    "clear",
    "suppressed",
    "trip",
    "configure_from_env",
]

#: Every named injection site, in dispatch order.  ``profile`` is the
#: periodic whole-profile validation tick (detection-only — see
#: ``docs/RELIABILITY.md``).
SITES = (
    "compiled_insert",
    "packed_splice",
    "build_sweep",
    "pct_merge",
    "phase2_merge",
    "rope_splice",
    "point_scan",
    "profile",
)

_MODES = ("raise", "unsorted", "nan")


class InjectedFault(ReproError):
    """The exception raised by a ``raise``-mode injection plan.

    Carries ``site`` so an outer guard catching it attributes the
    fault to the boundary it was injected at, not its own."""

    def __init__(self, site: str, message: str):
        self.site = site
        super().__init__(message)


class _Plan:
    __slots__ = ("site", "mode", "nth", "repeat", "seed", "calls", "fired")

    def __init__(self, site: str, mode: str, nth: int, repeat: bool, seed: int):
        self.site = site
        self.mode = mode
        self.nth = nth
        self.repeat = repeat
        self.seed = seed
        self.calls = 0  # eligible calls seen at the site
        self.fired = 0  # faults actually delivered


_PLAN: Optional[_Plan] = None
_SUPPRESS = 0

#: Fast gate read by the guarded hot paths: ``True`` iff a plan is
#: installed and injection is not suppressed.  Kept as a plain module
#: attribute so the common case costs one attribute load.
ARMED = False


def _sync_armed() -> None:
    global ARMED
    ARMED = _PLAN is not None and _SUPPRESS == 0


def install(
    site: str,
    mode: str,
    *,
    nth: int = 1,
    repeat: bool = False,
    seed: int = 0,
) -> _Plan:
    """Arm a fault plan (replacing any previous one)."""
    global _PLAN
    if site not in SITES:
        raise ValueError(f"unknown injection site {site!r}; known: {SITES}")
    if mode not in _MODES:
        raise ValueError(f"unknown injection mode {mode!r}; known: {_MODES}")
    _PLAN = _Plan(site, mode, max(1, int(nth)), bool(repeat), int(seed))
    _sync_armed()
    return _PLAN


def clear() -> None:
    """Disarm fault injection."""
    global _PLAN
    _PLAN = None
    _sync_armed()


def armed_site() -> Optional[str]:
    """The armed plan's target site, or ``None`` when disarmed.

    Dispatch shortcuts consult this to *decline* while a plan targets
    a site they would bypass: the compiled run loop answers inserts
    without the reference path's splice, so with e.g.
    ``packed_splice`` armed it must stand aside or the injected
    boundary never runs."""
    return _PLAN.site if ARMED else None


def armed_mode() -> Optional[str]:
    """The armed plan's mode, or ``None`` when disarmed."""
    return _PLAN.mode if ARMED else None


@contextmanager
def inject(
    site: str,
    mode: str,
    *,
    nth: int = 1,
    repeat: bool = False,
    seed: int = 0,
) -> Iterator[_Plan]:
    """Arm a fault plan for the duration of a ``with`` block.

    Yields the plan so tests can assert ``plan.fired`` afterwards.
    """
    plan = install(site, mode, nth=nth, repeat=repeat, seed=seed)
    try:
        yield plan
    finally:
        clear()


@contextmanager
def suppressed() -> Iterator[None]:
    """Disable injection while a guard runs its recovery path."""
    global _SUPPRESS
    _SUPPRESS += 1
    _sync_armed()
    try:
        yield
    finally:
        _SUPPRESS -= 1
        _sync_armed()


def configure_from_env(value: Optional[str] = None) -> Optional[_Plan]:
    """Parse ``REPRO_FAULT_INJECT`` (or an explicit spec) into a plan.

    Returns the installed plan, or ``None`` when the spec is empty.
    Raises :class:`ValueError` on a malformed spec.
    """
    if value is None:
        value = os.environ.get("REPRO_FAULT_INJECT", "")
    value = value.strip()
    if not value:
        return None
    fields = value.split(":")
    if len(fields) < 2 or len(fields) > 3:
        raise ValueError(
            f"malformed REPRO_FAULT_INJECT {value!r};"
            " expected 'site:mode[:nth[+]]'"
        )
    site, mode = fields[0], fields[1]
    nth, repeat = 1, False
    if len(fields) == 3:
        tok = fields[2]
        if tok.endswith("+"):
            repeat = True
            tok = tok[:-1]
        try:
            nth = int(tok)
        except ValueError:
            raise ValueError(
                f"malformed REPRO_FAULT_INJECT count {fields[2]!r}"
            ) from None
    return install(site, mode, nth=nth, repeat=repeat)


def _fires(site: str, modes: tuple, eligible: bool) -> bool:
    """Count an eligible call at ``site`` and decide whether the plan
    fires on it.  Trivial (empty-result) calls are not eligible: there
    is nothing to corrupt, so the plan waits for the next call that
    carries data."""
    p = _PLAN
    if p is None or _SUPPRESS or p.site != site or p.mode not in modes:
        return False
    if not eligible:
        return False
    p.calls += 1
    if p.calls == p.nth or (p.repeat and p.calls >= p.nth):
        p.fired += 1
        return True
    return False


def trip(site: str) -> None:
    """Raise :class:`InjectedFault` when a ``raise`` plan fires here.

    Called at guard sites *before* the kernel runs (and before any
    mutation), so a tripped site leaves its inputs untouched.
    """
    if _fires(site, ("raise",), True):
        raise InjectedFault(
            site,
            f"injected fault at guard site {site!r}"
            f" (eligible call #{_PLAN.calls})",  # type: ignore[union-attr]
        )


# ---------------------------------------------------------------------------
# Corruption helpers.  Only reached when ``ARMED`` is true (the guards
# gate on the flag), so the imports below never run on the hot path.
# ---------------------------------------------------------------------------


def _nan_index(n: int) -> int:
    import random

    p = _PLAN
    assert p is not None
    return random.Random(p.seed * 1000003 + p.calls).randrange(n)


def poison_profile(site: str, profile) -> bool:
    """Corrupt a LIVE profile in place — the ``profile`` site's
    exercise.  Unlike every other helper this deliberately commits the
    corruption (writes through the live lanes), because the periodic
    tick's contract is *detection after the fact*: it must raise
    :class:`~repro.errors.KernelFault` in both modes.  ``raise`` mode
    is not meaningful here; only ``unsorted``/``nan`` plans fire."""
    if not _fires(site, ("unsorted", "nan"), len(profile.ya) > 0):
        return False
    if _PLAN.mode == "nan":  # type: ignore[union-attr]
        profile.za[_nan_index(len(profile.za))] = float("nan")
    else:
        ya0 = float(profile.ya[0])
        yb0 = float(profile.yb[0])
        profile.ya[0] = yb0 + 1.0
        profile.yb[0] = ya0
    return True


def corrupt_piece_list(site: str, pieces: list) -> list:
    """Corrupt a freshly-merged scalar :class:`Piece` run (the rope
    splice commit's input).  Returns a new list — the intact input is
    what the unshared-rebuild fallback recommits from."""
    if not _fires(site, ("unsorted", "nan"), len(pieces) > 0):
        return pieces
    out = list(pieces)
    if _PLAN.mode == "unsorted":  # type: ignore[union-attr]
        if len(out) >= 2:
            out[0], out[1] = out[1], out[0]
        else:
            p = out[0]
            out[0] = p._replace(ya=p.yb + 1.0, yb=p.ya)
    else:
        i = _nan_index(len(out))
        out[i] = out[i]._replace(za=float("nan"))
    return out


# Arm from the environment at import (the CI fault-injection leg and
# the CLI subprocess tests drive injection this way).
configure_from_env()
