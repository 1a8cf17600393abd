"""Shared-memory ndarray bundles for zero-copy worker handoff.

The flat SoA layout of :mod:`repro.envelope.flat` keeps every envelope
as a handful of contiguous 1-D arrays, which makes process handoff
cheap: pack the arrays into **one**
:class:`multiprocessing.shared_memory.SharedMemory` block and ship only
the block *name* plus a small layout spec through the task pickle.  The
worker maps the same physical pages and slices zero-copy views — no
per-task array serialisation, which is exactly the cost that made the
first, per-task-pickling process pool lose to the batched in-process
sweeps (experiment E8).

Lifecycle contract (enforced by the callers in
:mod:`repro.parallel_exec.executor`):

* the **creator** (parent for inputs, worker for outputs) writes the
  arrays, hands out ``(name, spec)``, and eventually calls
  :meth:`ShmBundle.unlink`;
* an **attacher** maps the block read-only-by-convention and calls
  :meth:`ShmBundle.close` when its views are dead — always *before*
  the creator unlinks (the synchronous submit/collect flow guarantees
  the ordering, and the fork start method keeps a single
  ``resource_tracker``, so register/unregister pairs stay balanced).
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Optional, Sequence

import numpy as np

__all__ = ["ShmBundle", "BundleSpec"]

#: ``(field name, shape, dtype string, byte offset)`` rows plus the
#: total byte size — everything an attacher needs, small enough to ride
#: the task pickle.
BundleSpec = tuple[tuple[tuple[str, tuple[int, ...], str, int], ...], int]

_ALIGN = 16


class ShmBundle:
    """Named ndarrays packed into one shared-memory block."""

    __slots__ = ("shm", "spec", "arrays", "_owner")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        spec: BundleSpec,
        arrays: dict[str, np.ndarray],
        owner: bool,
    ):
        self.shm = shm
        self.spec = spec
        self.arrays = arrays
        self._owner = owner

    @property
    def name(self) -> str:
        return self.shm.name

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]

    @classmethod
    def create(
        cls, arrays: dict[str, np.ndarray]
    ) -> "ShmBundle":
        """Allocate one block holding copies of ``arrays``."""
        rows: list[tuple[str, tuple[int, ...], str, int]] = []
        offset = 0
        for name, arr in arrays.items():
            offset = -(-offset // _ALIGN) * _ALIGN  # round up
            rows.append((name, arr.shape, arr.dtype.str, offset))
            offset += arr.nbytes
        total = max(offset, 1)
        shm = shared_memory.SharedMemory(create=True, size=total)
        views: dict[str, np.ndarray] = {}
        for (name, shape, dtype, off), src in zip(rows, arrays.values()):
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
            view[...] = src
            views[name] = view
        return cls(shm, (tuple(rows), total), views, owner=True)

    @classmethod
    def attach(cls, name: str, spec: BundleSpec) -> "ShmBundle":
        """Map an existing block by name and rebuild the views."""
        shm = shared_memory.SharedMemory(name=name)
        rows, _total = spec
        views = {
            field: np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
            for field, shape, dtype, off in rows
        }
        return cls(shm, spec, views, owner=False)

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        self.arrays = {}
        try:
            self.shm.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass

    def unlink(self) -> None:
        """Close and free the block (creator side)."""
        self.close()
        try:
            self.shm.unlink()
        except Exception:  # pragma: no cover - already gone
            pass


def pack_stacked(
    prefix: str, arrays: Sequence[np.ndarray], names: Sequence[str]
) -> dict[str, np.ndarray]:
    """Helper: key ``arrays`` as ``f"{prefix}{name}"`` for bundling."""
    return {prefix + n: a for n, a in zip(names, arrays)}


def take(
    bundle: ShmBundle, prefix: str, names: Sequence[str]
) -> list[np.ndarray]:
    """Inverse of :func:`pack_stacked` on an attached bundle."""
    return [bundle[prefix + n] for n in names]


def fingerprint(spec: BundleSpec) -> Optional[str]:  # pragma: no cover
    """Debug helper: stable one-line description of a bundle layout."""
    rows, total = spec
    if not rows:
        return None
    return ",".join(f"{n}{list(s)}" for n, s, _d, _o in rows) + f":{total}B"
