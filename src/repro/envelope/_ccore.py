"""Loader + thin wrapper for the compiled core.

``repro.envelope._repro_ccore`` (built by :mod:`._ccore_build`; see
that module for the bit-exactness and buffer-ownership contracts) is
an **optional** cffi API-mode extension — compiled wheels ship it, a
no-compiler install simply doesn't have it, and ``REPRO_COMPILED=0``
disables it even when present.  This module absorbs all three cases
behind two flags and these names:

``HAVE_CCORE``
    The extension imported.

``COMPILED_DEFAULT``
    The shipped default of ``HsrConfig.compiled_insert()`` —
    ``HAVE_CCORE`` unless the environment opts out.

``compiled_enabled(config, *sites)``
    Whether a compiled entry point may run: the core is on for
    ``config`` and no fault plan, check-all mode or quarantine at its
    guard ``sites`` stands in the way.

``Core()`` / ``borrowed()``
    One run's handle: the C scratch context (freed with the handle)
    and the out-params of its calls.  A run borrows one from a small
    pool of idle handles for its duration, so the core is reentrant —
    two threads may run it at once (cffi releases the GIL around
    every call) and never share a handle.

``insert_run(profile, lanes, start, stop, eps, run)``
    A chunk of a whole sequential run in one C call: inserts
    ``[start, stop)`` of the front-to-back image ``lanes`` (float64
    ``y1, z1, y2, z2`` and int64 ``source`` buffers) — each a locate,
    the visibility scan of the Phase-2 leaves and, when some part is
    visible, the merge of the phase calls and an in-place splice,
    bit-exact with the reference insert — adding ops and the max
    profile size to ``run`` (a
    :class:`repro.envelope.flat_splice.InsertRun`, whose ``core`` is
    the run's handle) and writing its ``offsets`` in place.  The
    clipped visible rows stay in the handle, accumulating over the
    run's calls (``run.core_rows`` of them), until
    :meth:`Core.take_rows` copies them out.  Returns ``(status,
    next)``: ``ST_DONE`` with ``next == stop``; ``ST_GROW`` after
    committing a reallocating splice through
    :meth:`PackedProfile.splice` (insert ``next - 1`` done); or
    ``ST_FALLBACK`` / ``ST_FAULT`` with insert ``next`` untouched, for
    the caller to run on a Python path.

``pct_build(core, lanes, eps)`` / ``phase2_run(core, mode, block, lanes, eps)``
    A whole phase of the paper's algorithm in one C call, which walks
    the :class:`~repro.ordering.separator.SeparatorTree` shape itself:
    Phase 1's profiles into one block left in the handle
    (:mod:`repro.hsr.pct`), or Phase 2's ``direct`` (``MODE_PHASE2``)
    or ``persistent`` (``MODE_ROPE``) merges and leaf queries over a
    PCT block, the inherited profiles or rope versions kept in the
    handle and the leaves' outputs left there in order position
    (:mod:`repro.hsr.phase2`).  Each returns one int64 row per node in
    node-index order (the ``T_*`` columns).

``merge_layer(core, mode, blk, lanes, jobs, eps, record)``
    A batch of independent jobs over the same kernels in one C call:
    the merges of one recursion level of the D&C envelope build
    (``MODE_PCT``, crossings recorded; :mod:`repro.envelope.build`), a
    batch of sight-line queries (``MODE_PHASE2`` kind-2 leaves, each
    against a block the caller passes;
    :mod:`repro.envelope.flat_visibility`), or Phase 2's splice and
    rope merges and leaf queries job by job (``MODE_PHASE2``,
    ``MODE_ROPE``; the per-kernel parity tests drive them this way);
    results left in the handle's lane sets for :meth:`Core.take`.

``front_to_back(x1, y1, x2, y2, src, sign, faces, boundary)``
    The front-to-back ordering in one C call over map-segment lanes
    (buffers of float64 coordinates and int64 sources).  With a
    terrain's face table (:meth:`repro.terrain.model.Terrain.face_edges`)
    the constraints come from the face pass, else (or when the face
    pass declines) from the full sweep.  Returns the order list, or
    ``None`` when the core declines (scratch OOM, a source other than
    its lane index, a NaN sweep ``y``, a missing status entry) and the
    Python sweep should answer; ``order_array`` returns the same order
    as the int64 array the call filled.  ``ordering_path`` also names the
    path that answered (:data:`ORDER_PATHS`), and
    ``order_constraints`` returns the full sweep's raw constraint
    list, both for the tests.

``flat_splice`` imports *us*, never the reverse.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.geometry.primitives import EPS
from repro.reliability import faultinject as _fi
from repro.reliability import guard as _guard

try:  # pragma: no cover - exercised via the CI wheel/no-compiler legs
    from repro.envelope import _repro_ccore as _cc
except ImportError:  # no compiler at install time, or build skipped
    _cc = None

HAVE_CCORE = _cc is not None

#: Status codes of ``repro_insert_run`` (keep in sync with the
#: ``ST_*`` defines in ``_ccore_build.py``).
ST_DONE = 1
ST_GROW = 2
ST_FALLBACK = 3
ST_FAULT = 5

#: ``out[]`` slots of a merged window left for a reallocating commit
#: (the ``O_*`` defines): it replaces pieces ``[O_LO, O_HI)`` with the
#: ``O_MK`` pieces in ``L_PROF``.
O_LO = 0
O_HI = 1
O_MK = 2

#: ``acc[]`` slots of ``repro_insert_run`` (the ``R_*`` defines).
R_OPS = 0
R_MAX = 1
R_STATUS = 2
R_ROWS = 3

#: Lane sets of a context (the ``L_*`` defines) and the rows
#: :meth:`Core.take` copies of each: double lanes, then int64 lanes.
L_WIN = 0  # window copied out of a rope: ya za yb zb | source
L_ROWS = 1  # clipped visible rows: ya za yb zb | edge
L_PROF = 2  # merged profiles: ya za yb zb | source
L_XING = 3  # merge crossings: y z | front back
L_PARTS = 4  # visible parts: ya yb
L_VX = 5  # leaf crossings: y z
L_BND = 6  # breakpoint union of one merge: y
L_SPINE = 7  # rope spines, one entry a chunk: | offset length start
LANE_ROWS = (5, 5, 5, 4, 2, 2, 1, 3)

#: ``repro_merge_layer`` modes (the ``MODE_*`` defines).
MODE_PCT = 1
MODE_PHASE2 = 2
MODE_ROPE = 3

#: Columns of a node's row in the phase calls' results (the ``T_*``
#: defines): ``ops`` and the leaf flag, then Phase 1's profile offset
#: and length, or Phase 2's crossings, inherited pieces and pieces
#: written (materialised by ``direct``, fresh rope slots by
#: ``persistent``).  A Phase-2 leaf's ``ops``, parts and crossings
#: are its row of the ``leaf`` result, by order position.
T_OPS, T_LEAF, T_OFF, T_LEN = 0, 1, 2, 3
T_CROSS, T_INH, T_NEW = 2, 3, 4

#: Path codes of ``repro_front_to_back``, by value (keep in sync with
#: the ``OP_*`` defines in ``_ccore_build.py``): ``"faces"`` is the
#: face pass; the others are the full sweep and the reason the face
#: pass did not answer (``"sweep"``: no face table was passed).
ORDER_PATHS = ("faces", "sweep", "horizontal", "tie", "non-manifold", "nan", "cycle")


def _env_enabled() -> bool:
    return os.environ.get("REPRO_COMPILED", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


#: Shipped default of ``HsrConfig.compiled_insert()``.
COMPILED_DEFAULT = HAVE_CCORE and _env_enabled()


def compiled_enabled(config, *sites: str) -> bool:
    """Whether a compiled entry point guarded at ``sites`` may run: the
    core is built and ``config``'s compiled toggle (the shipped
    default when ``config`` is ``None``) is on, no plan is armed
    except a ``raise`` plan at one of ``sites`` (which the caller
    trips per call), and none of ``sites`` is quarantined.  Otherwise
    the caller takes its reference path, so injection and checks see
    the boundaries of that path."""
    if not HAVE_CCORE:
        return False
    if _fi.ARMED and (_fi.armed_site() not in sites or _fi.armed_mode() != "raise"):
        return False
    if not (COMPILED_DEFAULT if config is None else config.compiled_insert()):
        return False
    return not _guard.ANY_QUARANTINED or not any(map(_guard.is_quarantined, sites))


class CCoreFault(RuntimeError):
    """A C-side post-condition (a merged window, a leaf's visible
    parts) failed before anything was committed."""


if HAVE_CCORE:
    ffi = _cc.ffi
    lib = _cc.lib

    class Core:
        """One run's handle on the core: a scratch context (freed with
        the handle) and the out-params of its calls.  Every run
        borrows its own (:func:`borrowed`), so runs on two threads
        never share memory."""

        __slots__ = (
            "ctx", "state", "out", "acc",
            "_buf", "_buf_ptr", "_lanes", "_lane_ptrs", "_off", "_off_ptr",
        )

        def __init__(self):
            ctx = lib.repro_ctx_new()
            if ctx == ffi.NULL:
                raise MemoryError("compiled core context")
            self.ctx = ffi.gc(ctx, lib.repro_ctx_free)
            self.state = ffi.new("int64_t[2]")
            self.out = ffi.new("int64_t[3]")
            self.acc = ffi.new("int64_t[4]")
            self._buf = self._buf_ptr = None
            self._lanes = self._lane_ptrs = None
            self._off = self._off_ptr = None

        def buf_ptr(self, buf):
            """The cdata pointer of a packed buffer.  ``from_buffer`` is
            ~µs-scale, so it is cached per backing buffer
            (PackedProfile replaces ``_buf`` wholesale on growth, so
            identity is the correct cache key)."""
            if buf is not self._buf:
                self._buf_ptr = ffi.from_buffer("double[]", buf.reshape(-1))
                self._buf = buf
            return self._buf_ptr

        def lane_ptrs(self, lanes):
            """Pointers of the ``(y1, z1, y2, z2, source)`` image lanes,
            cached like :meth:`buf_ptr`: a run passes one lanes tuple
            to every call."""
            if lanes is not self._lanes:
                ptrs = tuple(
                    ffi.from_buffer("double[]", lane) for lane in lanes[:4]
                ) + (ffi.from_buffer("int64_t[]", lanes[4]),)
                # Element counts of an 8-byte view: a lane of another
                # item size shows up as a length mismatch too.
                if len({len(p) for p in ptrs}) != 1:
                    raise ValueError("image lanes differ in length or item size")
                self._lane_ptrs = ptrs
                self._lanes = lanes
            return self._lane_ptrs

        def off_ptr(self, offsets):
            """The pointer of a run's int64 ``offsets`` array, cached
            like :meth:`buf_ptr`."""
            if offsets is not self._off:
                self._off_ptr = ffi.from_buffer("int64_t[]", offsets)
                self._off = offsets
            return self._off_ptr

        def reset(self) -> None:
            """Empty the lanes (keeping their memory) and drop the
            cached pointers, so an idle handle pins no caller buffer."""
            lib.repro_ctx_clear(self.ctx)
            self._buf = self._buf_ptr = None
            self._lanes = self._lane_ptrs = None
            self._off = self._off_ptr = None

        def take(self, which: int):
            """A ``(rows, n)`` float64 copy of lane set ``which``; its
            int64 lanes are the last rows, read through ``.view``."""
            import numpy as np

            n = lib.repro_lanes_len(self.ctx, which)
            out = np.empty((LANE_ROWS[which], n), np.float64)
            if n:
                lib.repro_lanes_take(
                    self.ctx, which, ffi.from_buffer("double[]", out), n
                )
            return out

        def take_rows(self):
            """``take(L_ROWS)``, then empty the lanes: the rows an
            insert run's calls left, so rows of the next call start a
            new block.  Between two calls of an insert run no other
            lane set holds anything a later call reads."""
            rows = self.take(L_ROWS)
            lib.repro_ctx_clear(self.ctx)
            return rows

    #: Idle handles, most recently returned last; at most ``_KEEP``.
    _idle: list = []
    _KEEP = 2

    @contextmanager
    def borrowed():
        """A handle for one run: an idle one when there is one, else a
        new one; emptied and kept for reuse afterwards.  A reused
        handle's lanes are already mapped, so a run pays no page
        faults for scratch an earlier run grew — a Phase-2 run writes
        every materialised piece into fresh lanes, and on first touch
        those faults cost more than the merges.  ``list.pop`` and
        ``append`` are atomic, so threads never share a handle."""
        try:
            core = _idle.pop()
        except IndexError:
            core = Core()
        try:
            yield core
        finally:
            core.reset()
            if len(_idle) < _KEEP:
                _idle.append(core)

    def insert_run(profile, lanes, start: int, stop: int, eps: float, run):
        """Inserts ``[start, stop)`` in one C call; see the module
        docstring.  ``run`` carries the running ops / max-size totals
        in and out; its ``offsets`` from slot ``start`` on are written
        in place."""
        core = run.core
        if core is None:
            core = run.core = Core()
        ptrs = core.lane_ptrs(lanes)
        off = core.off_ptr(run.offsets)
        if not 0 <= start <= stop <= len(ptrs[4]) < len(off):
            raise ValueError(f"insert range [{start}, {stop}) outside the lanes")
        state, out, acc, ctx = core.state, core.out, core.acc, core.ctx
        buf = profile._buf
        state[0] = beg = profile._beg
        state[1] = end = profile._end
        acc[R_OPS] = run.ops
        acc[R_MAX] = run.max_profile
        at = lib.repro_insert_run(
            ctx,
            core.buf_ptr(buf),
            buf.shape[1],
            state,
            *ptrs,
            start,
            stop,
            eps,
            EPS,
            off + start,
            acc,
            out,
        )
        if state[0] != beg or state[1] != end:
            profile._beg = state[0]
            profile._end = state[1]
            profile._sync_views()
        st = acc[R_STATUS]
        run.ops = acc[R_OPS]
        run.max_profile = acc[R_MAX]
        run.core_rows = acc[R_ROWS]
        if st == ST_GROW:
            # The merged window leaves the context before anything can
            # clobber it, and PackedProfile.splice owns the
            # reallocation.
            k = out[O_MK]
            merged = [
                list(ffi.unpack(lib.repro_lane(ctx, L_PROF, f), k))
                for f in range(4)
            ]
            msrc = list(ffi.unpack(lib.repro_lane_q(ctx, L_PROF, 0), k))
            profile.splice(out[O_LO], out[O_HI], *merged, msrc)
            return st, at + 1
        return st, at

    def merge_layer(core, mode: int, blk, lanes, jobs, eps: float, record: bool):
        """A batch of ``jobs`` (an ``(n, 5)`` int64 array of
        ``kind, a_off, a_len, b_off, b_len`` rows) in one C call; see
        ``repro_merge_layer`` in ``_ccore_build.py``.  ``blk`` is the
        ``(5, cap)`` float64 block side b (and, under ``MODE_PCT`` or
        for a kind-2 leaf, side a) indexes, or ``None``; ``lanes`` the
        front-to-back image lanes leaf jobs index.  Returns the ``(n, 4)`` int64
        ``ops, crossings, offset, length`` rows (``MODE_ROPE``: ``(n,
        6)``, a merge's new version's piece count and fresh slots
        appended); raises :class:`CCoreFault` when a job fails its
        post-condition and :class:`MemoryError` when the scratch cannot
        grow."""
        import numpy as np

        res = np.empty((len(jobs), 6 if mode == MODE_ROPE else 4), np.int64)
        if blk is None or not blk.shape[1]:
            blk_ptr, cap = ffi.NULL, 0
        else:
            blk_ptr, cap = ffi.from_buffer("double[]", blk), blk.shape[1]
        st = lib.repro_merge_layer(
            core.ctx,
            mode,
            blk_ptr,
            cap,
            *core.lane_ptrs(lanes),
            len(jobs),
            ffi.from_buffer("int64_t[]", jobs),
            int(record),
            eps,
            EPS,
            ffi.from_buffer("int64_t[]", res),
        )
        _status(st, res, "merge layer", "job")
        return res

    def _status(st, res, what: str, row: str = "node") -> None:
        if st == ST_FAULT:
            raise CCoreFault(
                f"compiled {what} post-condition failed at {row} {res[0, 0]}"
            )
        if st != ST_DONE:
            raise MemoryError(f"compiled {what} scratch")

    def pct_build(core, lanes, eps: float):
        """Phase 1 over the tree of the front-to-back image ``lanes`` in
        one C call; see ``repro_pct_build`` in ``_ccore_build.py``.
        Returns the ``(2n - 1, 4)`` int64 ``ops, leaf, offset, length``
        rows in node-index order; the profiles stay in the handle's
        ``L_PROF`` for :meth:`Core.take`.  Raises :class:`CCoreFault`
        when a merge fails its post-condition and :class:`MemoryError`
        when the scratch cannot grow."""
        import numpy as np

        ptrs = core.lane_ptrs(lanes)
        res = np.empty((2 * len(ptrs[4]) - 1, 4), np.int64)
        st = lib.repro_pct_build(
            core.ctx, len(ptrs[4]), *ptrs, eps, ffi.from_buffer("int64_t[]", res)
        )
        _status(st, res, "PCT build")
        return res

    def phase2_run(core, mode: int, block, lanes, eps: float):
        """Phase 2 over a compiled PCT in one C call, ``MODE_PHASE2``
        (``direct``) or ``MODE_ROPE`` (``persistent``); see
        ``repro_phase2_run`` in ``_ccore_build.py``.  ``block`` is the
        PCT's ``(blk, offsets, lengths)``.  Returns ``(res, leaf)``: the
        ``(2n - 1, 5)`` int64 ``ops, leaf, crossings, inherited,
        written`` rows in node-index order and the ``(n, 3)`` ``ops,
        parts, crossings`` rows of the leaves in order position, whose
        parts, crossings and clipped rows stay in the handle's lanes
        in that order.  Raises as :func:`pct_build` does."""
        import numpy as np

        blk, off, ln = block
        ptrs = core.lane_ptrs(lanes)
        n = len(ptrs[4])
        if len(off) != 2 * n - 1 or len(ln) != 2 * n - 1:
            raise ValueError("PCT block does not match the lanes")
        res = np.empty((2 * n - 1, 5), np.int64)
        leaf = np.empty((n, 3), np.int64)
        blk_ptr = ffi.from_buffer("double[]", blk) if blk.shape[1] else ffi.NULL
        q = [ffi.from_buffer("int64_t[]", a) for a in (off, ln, res, leaf)]
        st = lib.repro_phase2_run(
            core.ctx, mode, n, blk_ptr, blk.shape[1], *q[:2], *ptrs, eps, EPS, *q[2:]
        )
        _status(st, res, "Phase 2")
        return res, leaf

    def _order(x1, y1, x2, y2, src, sign, faces, boundary, cons=None):
        n = len(src)
        if not len(x1) == len(y1) == len(x2) == len(y2) == n:
            raise ValueError("map-segment lanes differ in length")
        if faces is None:
            nf, fe, nb, bnd = -1, ffi.NULL, 0, ffi.NULL
        else:
            nf, nb = len(faces), len(boundary)
            fe = ffi.from_buffer("int64_t[]", faces)
            bnd = ffi.from_buffer("int64_t[]", boundary)
            if len(fe) != 3 * nf or len(bnd) != nb:
                raise ValueError("face table rows are not edge index triples")
        import numpy as np

        order = np.empty(n, np.int64)
        out = ffi.new("int64_t[2]")  # constraint count, path code
        done = lib.repro_front_to_back(
            n,
            ffi.from_buffer("double[]", x1),
            ffi.from_buffer("double[]", y1),
            ffi.from_buffer("double[]", x2),
            ffi.from_buffer("double[]", y2),
            ffi.from_buffer("int64_t[]", src),
            sign,
            nf,
            fe,
            nb,
            bnd,
            ffi.from_buffer("int64_t[]", order),
            ffi.NULL if cons is None else cons,
            out,
            out + 1,
        )
        answer = order if done == n else None
        return answer, ORDER_PATHS[out[1]], out[0]

    def order_array(x1, y1, x2, y2, src, sign: int, faces=None, boundary=None):
        """The ordering as an int64 array of edge indices, or ``None``
        when the core declines and the Python sweep should answer."""
        return _order(x1, y1, x2, y2, src, sign, faces, boundary)[0]

    def front_to_back(x1, y1, x2, y2, src, sign: int, faces=None, boundary=None):
        """:func:`order_array`'s answer as a list."""
        order = _order(x1, y1, x2, y2, src, sign, faces, boundary)[0]
        return None if order is None else order.tolist()

    def ordering_path(x1, y1, x2, y2, src, sign: int, faces=None, boundary=None):
        """``(order, path)``: :func:`front_to_back`'s answer and the
        name in :data:`ORDER_PATHS` of the constraints it came from."""
        order, path, _k = _order(x1, y1, x2, y2, src, sign, faces, boundary)
        return None if order is None else order.tolist(), path

    def order_constraints(x1, y1, x2, y2, src):
        """The full sweep's ``(front, back)`` list, or ``None`` on
        decline."""
        cons = ffi.new("int64_t[]", 6 * len(src))  # 3n (front, back) pairs
        order, _path, k = _order(x1, y1, x2, y2, src, 1, None, None, cons)
        if order is None:
            return None
        flat = ffi.unpack(cons, 2 * k)
        return list(zip(flat[0::2], flat[1::2]))

else:  # pragma: no cover - the no-compiler install
    ffi = None
    lib = None

    Core = None

    @contextmanager
    def borrowed():
        yield None

    def insert_run(profile, lanes, start, stop, eps, run):
        return None

    def merge_layer(core, mode, blk, lanes, jobs, eps, record):
        return None

    def pct_build(core, lanes, eps):
        return None

    def phase2_run(core, mode, block, lanes, eps):
        return None

    def order_array(x1, y1, x2, y2, src, sign: int, faces=None, boundary=None):
        return None

    def front_to_back(x1, y1, x2, y2, src, sign: int, faces=None, boundary=None):
        return None

    def ordering_path(x1, y1, x2, y2, src, sign: int, faces=None, boundary=None):
        return None, None

    def order_constraints(x1, y1, x2, y2, src):
        return None
