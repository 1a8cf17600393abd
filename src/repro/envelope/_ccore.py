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
    One run's handle: the C scratch context (freed with the handle),
    where a call leaves its outputs for :meth:`Core.take`.  A run
    borrows one from a small pool of idle handles for its duration, so
    the core is reentrant — two threads may run it at once (cffi
    releases the GIL around every call) and never share a handle.

``insert_run(core, lanes, eps, offsets)``
    The whole insert pass of a sequential run in one C call over the
    front-to-back image ``lanes`` (float64 ``y1, z1, y2, z2`` and int64
    ``source`` buffers), from an empty profile the handle's context
    owns: each insert a locate, the visibility scan of the Phase-2
    leaves and, when some part is visible, the merge of the phase calls
    and an in-place splice, bit-exact with the reference insert.  Fills
    the run's int64 ``offsets`` (``n + 1`` slots) and returns ``(ops,
    max_profile)``; the clipped visible rows and the final profile stay
    in the handle's ``L_ROWS`` and ``L_LIVE``.  Returns ``None`` when
    the core declines an insert (a synthetic source, a part it cannot
    clip), for the caller to run the whole pass on the reference.

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

``envelope_build(core, lanes, eps)``
    The D&C envelope build of :mod:`repro.envelope.build` in one C
    call over image lanes with no vertical segment: the recursion
    walked depth first, the root's profile left in the handle's
    ``L_PROF`` and every merge's crossings in ``L_XING``, in the
    reference recursion's post-order.  Returns the merges' ``ops`` in
    that order.

``query_batch(core, blk, lanes, eps)``
    A batch of sight-line queries in one C call
    (:mod:`repro.envelope.flat_visibility`): the Phase-2 leaf query of
    each query lane against the envelope block ``blk``.  Returns one
    ``ops, parts, crossings`` row per query (a Phase-2 leaf's columns);
    the parts, crossings and clipped rows stay in the handle's lanes in
    query order.

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

``points_visible(lanes, span, px, py, pz, eps)``
    :func:`~repro.hsr.queries.point_visible` of a batch of observers in
    one C call over a terrain's ``(8, n)`` y-sorted point lanes (see
    :class:`repro.hsr.queries._PointLanes`): each observer scans only
    the window of edges that can cover its ordinate.  A pure function —
    no handle, no allocation, no decline — so it never raises from C.
    Returns one bool per observer.

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

#: Status codes of the C entries (keep in sync with the ``ST_*``
#: defines in ``_ccore_build.py``); any other status is scratch OOM.
ST_DONE = 1
ST_FALLBACK = 3
ST_FAULT = 5

#: ``res[]`` slots of ``repro_insert_run`` (the ``R_*`` defines).
R_OPS = 0
R_MAX = 1

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
L_LIVE = 8  # an insert run's profile: ya za yb zb | source
LANE_ROWS = (5, 5, 5, 4, 2, 2, 1, 3, 5)

#: ``repro_phase2_run`` modes (the ``MODE_*`` defines).
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
        the handle) that holds the outputs of its calls.  Every run
        borrows its own (:func:`borrowed`), so runs on two threads
        never share memory."""

        __slots__ = ("ctx", "_lanes", "_lane_ptrs")

        def __init__(self):
            ctx = lib.repro_ctx_new()
            if ctx == ffi.NULL:
                raise MemoryError("compiled core context")
            self.ctx = ffi.gc(ctx, lib.repro_ctx_free)
            self._lanes = self._lane_ptrs = None

        def lane_ptrs(self, lanes):
            """Pointers of the ``(y1, z1, y2, z2, source)`` image lanes,
            cached per lanes tuple: ``from_buffer`` is ~µs-scale, and
            a caller may pass one lanes tuple to several calls."""
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

        def reset(self) -> None:
            """Empty the lanes (keeping their memory) and drop the
            cached pointers, so an idle handle pins no caller buffer."""
            lib.repro_ctx_clear(self.ctx)
            self._lanes = self._lane_ptrs = None

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

    def insert_run(core, lanes, eps: float, offsets):
        """The whole insert pass of the image ``lanes`` in one C call;
        see ``repro_insert_run`` in ``_ccore_build.py``.  Fills the
        int64 ``offsets`` (``n + 1`` slots) and returns ``(ops,
        max_profile)``, or ``None`` when the core declines an insert;
        the rows and the final profile stay in the handle's ``L_ROWS``
        and ``L_LIVE`` for :meth:`Core.take`.  Raises as
        :func:`pct_build` does."""
        import numpy as np

        ptrs = core.lane_ptrs(lanes)
        if len(offsets) != len(ptrs[4]) + 1:
            raise ValueError("offsets do not match the lanes")
        res = np.zeros(2, np.int64)
        st = lib.repro_insert_run(
            core.ctx, len(ptrs[4]), *ptrs, eps, EPS,
            ffi.from_buffer("int64_t[]", offsets), ffi.from_buffer("int64_t[]", res),
        )
        if st == ST_FALLBACK:
            return None
        _status(st, res, "insert run", "insert")
        return int(res[R_OPS]), int(res[R_MAX])

    def _status(st, res, what: str, row: str = "node") -> None:
        if st == ST_FAULT:
            raise CCoreFault(
                f"compiled {what} post-condition failed at {row} {res.flat[0]}"
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

    def envelope_build(core, lanes, eps: float):
        """The D&C envelope build over the image ``lanes`` (no vertical
        segment among them) in one C call; see ``repro_envelope_build``
        in ``_ccore_build.py``.  Returns the int64 ``ops`` of the
        ``n - 1`` merges in post-order; the root's profile and the
        crossings stay in the handle's ``L_PROF`` and ``L_XING``.
        Raises as :func:`pct_build` does."""
        import numpy as np

        ptrs = core.lane_ptrs(lanes)
        n = len(ptrs[4])
        ops = np.empty(max(n - 1, 0), np.int64)
        st = lib.repro_envelope_build(
            core.ctx, n, *ptrs, eps, ffi.from_buffer("int64_t[]", ops)
        )
        _status(st, ops, "envelope build", "merge")
        return ops

    def query_batch(core, blk, lanes, eps: float):
        """Every query of the image ``lanes`` against the ``(5, n)``
        envelope block ``blk`` in one C call; see ``repro_query_batch``
        in ``_ccore_build.py``.  Returns the ``(nq, 3)`` int64 ``ops,
        parts, crossings`` rows; the parts, crossings and clipped rows
        stay in the handle's ``L_PARTS``, ``L_VX`` and ``L_ROWS`` in
        query order.  Raises as :func:`pct_build` does."""
        import numpy as np

        ptrs = core.lane_ptrs(lanes)
        leaf = np.empty((len(ptrs[4]), 3), np.int64)
        blk_ptr = ffi.from_buffer("double[]", blk) if blk.shape[1] else ffi.NULL
        st = lib.repro_query_batch(
            core.ctx, blk_ptr, blk.shape[1], len(ptrs[4]), *ptrs, eps, EPS,
            ffi.from_buffer("int64_t[]", leaf),
        )
        _status(st, leaf, "query batch", "query")
        return leaf

    def points_visible(lanes, span: float, px, py, pz, eps: float):
        """Whether each observer ``(px[k], py[k], pz[k])`` (float64
        arrays) is visible over the C-contiguous ``(8, n)`` float64
        point ``lanes`` whose largest y-extent is ``span``, in one C
        call; see ``repro_points_visible`` in ``_ccore_build.py``.
        Returns a bool array."""
        import numpy as np

        if (
            lanes.dtype != np.float64
            or lanes.ndim != 2
            or lanes.shape[0] != 8
            or not lanes.flags.c_contiguous
        ):
            raise ValueError("point lanes are not a C-contiguous (8, n) float64 block")
        obs = [ffi.from_buffer("double[]", a) for a in (px, py, pz)]
        if len({len(a) for a in obs}) != 1:
            raise ValueError("observer lanes differ in length or item size")
        out = np.empty(len(obs[0]), np.bool_)
        lib.repro_points_visible(
            lanes.shape[1], ffi.from_buffer("double[]", lanes), span, len(out),
            *obs, eps, ffi.from_buffer("uint8_t[]", out),
        )
        return out

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

    def insert_run(core, lanes, eps, offsets):
        return None

    def pct_build(core, lanes, eps):
        return None

    def phase2_run(core, mode, block, lanes, eps):
        return None

    def envelope_build(core, lanes, eps):
        return None

    def query_batch(core, blk, lanes, eps):
        return None

    def points_visible(lanes, span, px, py, pz, eps):
        return None

    def order_array(x1, y1, x2, y2, src, sign: int, faces=None, boundary=None):
        return None

    def front_to_back(x1, y1, x2, y2, src, sign: int, faces=None, boundary=None):
        return None

    def ordering_path(x1, y1, x2, y2, src, sign: int, faces=None, boundary=None):
        return None, None

    def order_constraints(x1, y1, x2, y2, src):
        return None
