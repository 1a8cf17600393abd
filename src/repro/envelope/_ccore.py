"""Loader + thin wrapper for the compiled core.

``repro.envelope._repro_ccore`` (built by :mod:`._ccore_build`; see
that module for the bit-exactness and buffer-ownership contracts) is
an **optional** cffi API-mode extension — compiled wheels ship it, a
no-compiler install simply doesn't have it, and ``REPRO_COMPILED=0``
disables it even when present.  This module absorbs all three cases
behind two flags and these functions:

``HAVE_CCORE``
    The extension imported.

``COMPILED_DEFAULT``
    The shipped default of ``HsrConfig.compiled_insert()`` —
    ``HAVE_CCORE`` unless the environment opts out.

``insert_run(profile, lanes, start, stop, eps, run)``
    A chunk of a whole sequential run in one C call: inserts
    ``[start, stop)`` of the front-to-back image ``lanes`` (float64
    ``y1, z1, y2, z2`` and int64 ``source`` buffers) — each a locate,
    the fused visibility+merge sweep and an in-place splice, bit-exact
    with the numpy path — adding ops, the max profile size and the
    clipped visible rows to ``run`` (a
    :class:`repro.envelope.flat_splice.InsertRun`).  Returns
    ``(status, next)``: ``ST_DONE`` with ``next == stop``; ``ST_GROW``
    after committing a reallocating splice through
    :meth:`PackedProfile.splice` (insert ``next - 1`` done); or
    ``ST_FALLBACK`` / ``ST_FAULT`` with insert ``next`` untouched, for
    the caller to run on a Python path.

``front_to_back(x1, y1, x2, y2, src, sign)``
    The front-to-back ordering in one C call over map-segment lanes
    (buffers of float64 coordinates and int64 sources).  Returns the
    order list, or ``None`` when the core declines (scratch OOM, a
    source outside ``[0, n)``, a NaN sweep ``y``, a missing status
    entry, a cycle) and the Python sweep should answer.
    ``order_constraints`` returns the same call's raw constraint list,
    for the parity tests.

``flat_splice`` imports *us*, never the reverse.
"""

from __future__ import annotations

import os

from repro.geometry.primitives import EPS

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
#: (the ``O_LO``, ``O_HI``, ``O_MK`` defines).
O_LO = 2
O_HI = 3
O_MK = 4

#: ``acc[]`` slots of ``repro_insert_run`` (the ``R_*`` defines).
R_OPS = 0
R_MAX = 1
R_STATUS = 2
R_ROWS = 3


def _env_enabled() -> bool:
    return os.environ.get("REPRO_COMPILED", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


#: Shipped default of ``HsrConfig.compiled_insert()``.
COMPILED_DEFAULT = HAVE_CCORE and _env_enabled()


class CCoreFault(RuntimeError):
    """The C-side merged-window post-condition failed pre-commit."""


if HAVE_CCORE:
    ffi = _cc.ffi
    lib = _cc.lib

    # Reusable out-params, one set per process.  Like the C core's
    # static scratch they are not reentrant: cffi releases the GIL
    # around each call, so callers must not run the core from two
    # threads.
    _STATE = ffi.new("int64_t[2]")
    _OUT = ffi.new("int64_t[5]")

    # from_buffer is ~µs-scale; cache the cdata pointer per backing
    # buffer (PackedProfile replaces ``_buf`` wholesale on growth, so
    # identity is the correct cache key).
    _last_buf = None
    _last_ptr = None

    def _buf_ptr(buf):
        global _last_buf, _last_ptr
        if buf is _last_buf:
            return _last_ptr
        ptr = ffi.from_buffer("double[]", buf.reshape(-1))
        _last_buf = buf
        _last_ptr = ptr
        return ptr

    def _merged_lists(out):
        k = out[O_MK]
        return (
            list(ffi.unpack(lib.repro_merged_ptr(0), k)),
            list(ffi.unpack(lib.repro_merged_ptr(1), k)),
            list(ffi.unpack(lib.repro_merged_ptr(2), k)),
            list(ffi.unpack(lib.repro_merged_ptr(3), k)),
            list(ffi.unpack(lib.repro_merged_src_ptr(), k)),
        )

    _ACC = ffi.new("int64_t[4]")
    _off = ffi.new("int64_t[]", 257)

    # Lane pointers of the run in progress, cached like ``_buf_ptr``:
    # flat_splice.insert_run passes one lanes tuple to every call of a run.
    _last_lanes = None
    _last_lane_ptrs = None

    def _lane_ptrs(lanes):
        global _last_lanes, _last_lane_ptrs
        if lanes is not _last_lanes:
            ptrs = tuple(
                ffi.from_buffer("double[]", lane) for lane in lanes[:4]
            ) + (ffi.from_buffer("int64_t[]", lanes[4]),)
            # Element counts of an 8-byte view: a lane of another item
            # size shows up as a length mismatch too.
            if len({len(p) for p in ptrs}) != 1:
                raise ValueError("image lanes differ in length or item size")
            _last_lane_ptrs = ptrs
            _last_lanes = lanes
        return _last_lane_ptrs

    def insert_run(profile, lanes, start: int, stop: int, eps: float, run):
        """Inserts ``[start, stop)`` in one C call; see the module
        docstring.  ``run`` carries the running ops / max-size totals
        in and out, and receives the call's rows and offsets."""
        global _off
        ptrs = _lane_ptrs(lanes)
        if not 0 <= start <= stop <= len(ptrs[4]):
            raise ValueError(f"insert range [{start}, {stop}) outside the lanes")
        if len(_off) < stop - start + 1:
            _off = ffi.new("int64_t[]", stop - start + 1)
        buf = profile._buf
        _STATE[0] = beg = profile._beg
        _STATE[1] = end = profile._end
        _ACC[R_OPS] = run.ops
        _ACC[R_MAX] = run.max_profile
        _off[0] = run.offsets[-1]
        at = lib.repro_insert_run(
            _buf_ptr(buf),
            buf.shape[1],
            _STATE,
            *ptrs,
            start,
            stop,
            eps,
            EPS,
            _off,
            _ACC,
            _OUT,
        )
        if _STATE[0] != beg or _STATE[1] != end:
            profile._beg = _STATE[0]
            profile._end = _STATE[1]
            profile._sync_views()
        st = _ACC[R_STATUS]
        run.ops = _ACC[R_OPS]
        run.max_profile = _ACC[R_MAX]
        rows = _ACC[R_ROWS]
        if rows:
            run.edge += ffi.unpack(lib.repro_run_edge_ptr(), rows)
            run.ya += ffi.unpack(lib.repro_run_rows_ptr(0), rows)
            run.za += ffi.unpack(lib.repro_run_rows_ptr(1), rows)
            run.yb += ffi.unpack(lib.repro_run_rows_ptr(2), rows)
            run.zb += ffi.unpack(lib.repro_run_rows_ptr(3), rows)
        run.offsets += ffi.unpack(_off + 1, at - start + (st == ST_GROW))
        if st == ST_GROW:
            # The merged window leaves C scratch before anything can
            # clobber it, and PackedProfile.splice owns the
            # reallocation.
            mya, mza, myb, mzb, msrc = _merged_lists(_OUT)
            profile.splice(_OUT[O_LO], _OUT[O_HI], mya, mza, myb, mzb, msrc)
            return st, at + 1
        return st, at

    def _sweep(x1, y1, x2, y2, src, sign: int):
        n = len(src)
        if not len(x1) == len(y1) == len(x2) == len(y2) == n:
            raise ValueError("map-segment lanes differ in length")
        order = ffi.new("int64_t[]", n)
        cons = ffi.new("int64_t[]", 6 * n)  # 3n (front, back) pairs
        ncons = ffi.new("int64_t *")
        done = lib.repro_front_to_back(
            n,
            ffi.from_buffer("double[]", x1),
            ffi.from_buffer("double[]", y1),
            ffi.from_buffer("double[]", x2),
            ffi.from_buffer("double[]", y2),
            ffi.from_buffer("int64_t[]", src),
            sign,
            order,
            cons,
            ncons,
        )
        return done, order, cons, ncons[0]

    def front_to_back(x1, y1, x2, y2, src, sign: int):
        """The ordering as a list of edge indices, or ``None`` when the
        core declines and the Python sweep should answer."""
        done, order, _cons, _k = _sweep(x1, y1, x2, y2, src, sign)
        return ffi.unpack(order, done) if done == len(src) else None

    def order_constraints(x1, y1, x2, y2, src):
        """The sweep's ``(front, back)`` list, or ``None`` on decline."""
        done, _order, cons, k = _sweep(x1, y1, x2, y2, src, 1)
        if done < 0:
            return None
        flat = ffi.unpack(cons, 2 * k)
        return list(zip(flat[0::2], flat[1::2]))

else:  # pragma: no cover - the no-compiler install
    ffi = None
    lib = None

    def insert_run(profile, lanes, start, stop, eps, run):
        return None

    def front_to_back(x1, y1, x2, y2, src, sign: int):
        return None

    def order_constraints(x1, y1, x2, y2, src):
        return None
