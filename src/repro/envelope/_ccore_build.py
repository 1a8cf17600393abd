"""cffi out-of-line API builder for the compiled core.

Running this module (``python src/repro/envelope/_ccore_build.py``)
compiles ``repro.envelope._repro_ccore`` — a small C extension with
two entry points.  ``repro_insert_run`` runs the insert pass of the
sequential algorithm over a chunk of front-to-back image lanes, each
insert against the :class:`~repro.envelope.packed.PackedProfile`
``(5, capacity)`` float64 buffer in two static halves:

* ``fused_sweep`` — the locate (the binary search of
  :meth:`~repro.envelope.flat.FlatEnvelope.pieces_overlapping` on the
  live ``ya`` row, same bisection sides as ``ndarray.searchsorted``)
  and the fused visibility+merge sweep of
  :func:`~repro.envelope.flat_fused.fused_insert_window`, including
  the exact all-hidden / fully-visible fast-path predicates of
  ``_insert_fused_small`` (same margin guards, same short-circuit
  order);
* ``commit_window`` — the in-place window write + single head/tail
  shift splice of :meth:`~repro.envelope.packed.PackedProfile.splice`
  (``_splice_impl`` semantics: shrink shifts the smaller side inward,
  growth prefers the cheaper fitting side, reallocation is signalled
  back to Python — the amortized-doubling grow stays Python-side).

Vertical segments take the point query of ``_visible_vertical_flat``,
and every visible part is clipped by ``ImageSegment.visible_piece``
into row scratch, so a sequential run costs one call per chunk plus
one per reallocation or declined insert.

``repro_front_to_back`` is the front-to-back ordering of
:func:`~repro.ordering.sweep.front_to_back_order` in one call over
``(x1, y1, x2, y2, source)`` map-segment lanes: the ``(y, kind, idx)``
event sort, the status bisection with the ``_StatusEntry.__lt__``
comparator (``in_front_comparison`` at the common-range midpoint,
then the source tie-break), the exact-source scan of a removal, and
Kahn's topological sort with a heap keyed by ``sign * i``.  It
declines (negative return, or fewer than ``n`` edges ordered on a
cycle) and the Python sweep answers, raising its own errors.

Bit-exactness contract: every float expression below is a literal
transcription of the pure-Python scalar loop (``_line_z`` endpoint
shortcuts, sign predicates, ``t = du / (du - dv)`` crossing parameter,
part/piece coalescing rules), evaluated in the same order on IEEE
doubles.  ``-ffp-contract=off`` keeps compilers from fusing
``a + b * c`` into an FMA (bit-identical results on x86-64 *and*
aarch64), so the C core, the scalar loop and the numpy kernel all
produce float-for-float identical profiles, visible parts and ``ops``
— the property ``tests/test_envelope_ccore.py`` fuzzes.

Buffer ownership: the C side **never allocates profile storage**.  It
mutates the caller's packed buffer in place and keeps small static
scratch arrays (merged window, visible parts, run rows) that it
reallocates itself; Python copies results out immediately after each
call, so the scratch is dead between calls.

Concurrency: the core is **not reentrant**.  cffi API-mode wrappers
release the GIL around each call, and ``repro_insert_run`` keeps its
scratch in static globals, so two threads inside the core at once
corrupt each other's results or the heap.  Callers must not run it
from two threads; making it reentrant is an open ROADMAP item.  When the packed buffer cannot absorb a growth
splice the call returns ``GROW`` *without touching the buffer* and the
wrapper commits through :meth:`PackedProfile.splice`, which owns the
amortized-doubling reallocation policy.

The build is optional end to end: ``setup.py`` marks the extension
``optional`` (no compiler → pure-Python/numpy cascade, same results),
and ``REPRO_CCORE_BUILD=0`` skips it entirely.
"""

import cffi

CDEF = """
double *repro_merged_ptr(int field);
int64_t *repro_merged_src_ptr(void);
int64_t repro_insert_run(
    double *buf, int64_t cap, int64_t *state,
    const double *y1, const double *z1, const double *y2,
    const double *z2, const int64_t *src, int64_t start, int64_t stop,
    double eps, double clip_eps, int64_t *off, int64_t *acc,
    int64_t *out);
double *repro_run_rows_ptr(int field);
int64_t *repro_run_edge_ptr(void);
int64_t repro_front_to_back(
    int64_t n, const double *x1, const double *y1, const double *x2,
    const double *y2, const int64_t *src, int64_t sign,
    int64_t *order, int64_t *cons, int64_t *ncons);
"""

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* Status codes (mirrored in repro/envelope/_ccore.py). */
#define ST_HIDDEN   0  /* no mutation; segment fully hidden          */
#define ST_DONE     1  /* merged window spliced into the buffer      */
#define ST_GROW     2  /* merged window in scratch; caller commits   */
#define ST_FALLBACK 3  /* unsupported window (synthetic source, OOM) */
#define ST_FAULT    5  /* post-condition failed; nothing committed   */

/* out[] layout (O_LO, O_HI, O_MK mirrored in repro/envelope/_ccore.py) */
#define O_NPARTS 0
#define O_TOTOPS 1
#define O_LO     2
#define O_HI     3
#define O_MK     4

/* ---- static result scratch (shared by every call: not reentrant, and
 * cffi releases the GIL around calls, so never call the core from two
 * threads; Python copies out immediately after each call) ----------- */
static double *g_mya = NULL, *g_mza = NULL, *g_myb = NULL, *g_mzb = NULL;
static int64_t *g_msrc = NULL;
static double *g_parts = NULL;   /* (ya, yb) pairs */
static int64_t g_cap = 0;        /* lanes in every scratch array */

static int ensure_scratch(int64_t win)
{
    /* Bounds per sweep over a k-piece window: merged <= 3k + 3 adds
     * (head + k-1 gaps + 2 per overlap + tail), parts <= 2k + 2
     * pairs.  One shared lane count covers both with headroom. */
    int64_t need = 3 * win + 8;
    double *p;
    int64_t *q;
    if (g_cap >= need) return 1;
    need += need / 2;
    p = (double *)realloc(g_mya, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_mya = p;
    p = (double *)realloc(g_mza, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_mza = p;
    p = (double *)realloc(g_myb, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_myb = p;
    p = (double *)realloc(g_mzb, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_mzb = p;
    q = (int64_t *)realloc(g_msrc, (size_t)need * sizeof(int64_t));
    if (!q) return 0;
    g_msrc = q;
    p = (double *)realloc(g_parts, (size_t)(2 * need) * sizeof(double));
    if (!p) return 0;
    g_parts = p;
    g_cap = need;
    return 1;
}

double *repro_merged_ptr(int field)
{
    switch (field) {
    case 0: return g_mya;
    case 1: return g_mza;
    case 2: return g_myb;
    default: return g_mzb;
    }
}
int64_t *repro_merged_src_ptr(void) { return g_msrc; }

/* ---- exact scalar primitives -------------------------------------- */

/* Piece/segment supporting-line height: the float arithmetic of
 * _line_z (endpoint shortcuts, then lerp with t == 0/1 shortcuts). */
static double line_z(double ya, double za, double yb, double zb, double y)
{
    double t;
    if (y == ya) return za;
    if (y == yb) return zb;
    t = (y - ya) / (yb - ya);
    if (t == 0.0) return za;
    if (t == 1.0) return zb;
    return za + (zb - za) * t;
}

/* ndarray.searchsorted side="right": first index with a[i] > x. */
static int64_t upper_bound(const double *a, int64_t n, double x)
{
    int64_t lo = 0, hi = n, mid;
    while (lo < hi) {
        mid = (lo + hi) >> 1;
        if (a[mid] <= x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* ndarray.searchsorted side="left": first index with a[i] >= x. */
static int64_t lower_bound(const double *a, int64_t n, double x)
{
    int64_t lo = 0, hi = n, mid;
    while (lo < hi) {
        mid = (lo + hi) >> 1;
        if (a[mid] < x) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* _acc_add: the visibility part accumulator (mutable last-row merge). */
static void acc_add(int64_t *np, double a, double b, double eps)
{
    if (b < a) return;
    if (*np) {
        double *last = g_parts + 2 * (*np - 1);
        if (a <= last[1] + eps) {
            if (b > last[1]) last[1] = b;
            return;
        }
    }
    g_parts[2 * *np] = a;
    g_parts[2 * *np + 1] = b;
    (*np)++;
}

/* add(): merged-piece emission with the real-source coalescing rule
 * of EnvelopeBuilder (same src, contiguous, heights agree within eps). */
static void m_add(int64_t *k, double pya, double pza, double pyb,
                  double pzb, int64_t s, double eps)
{
    if (pya >= pyb) return;
    if (*k && g_msrc[*k - 1] == s && g_myb[*k - 1] == pya
        && fabs(g_mzb[*k - 1] - pza) <= eps) {
        g_myb[*k - 1] = pyb;
        g_mzb[*k - 1] = pzb;
        return;
    }
    g_mya[*k] = pya;
    g_mza[*k] = pza;
    g_myb[*k] = pyb;
    g_mzb[*k] = pzb;
    g_msrc[*k] = s;
    (*k)++;
}

/* One 2D shift over all five rows (the int64-bit-view slice move of
 * _splice_impl, as five memmoves — byte-identical for float lanes). */
static void shift_rows(double *buf, int64_t cap, int64_t from,
                       int64_t to, int64_t count)
{
    int r;
    if (count <= 0 || from == to) return;
    for (r = 0; r < 5; r++) {
        double *row = buf + (int64_t)r * cap;
        memmove(row + to, row + from, (size_t)count * sizeof(double));
    }
}

/* check_merged_lists, pre-commit: sorted, non-overlapping, finite z. */
static int merged_ok(int64_t k)
{
    double prev = -INFINITY;
    int64_t j;
    for (j = 0; j < k; j++) {
        double a = g_mya[j], b = g_myb[j];
        if (!(prev <= a && a <= b)) return 0;
        if (g_mza[j] != g_mza[j] || g_mzb[j] != g_mzb[j]) return 0;
        prev = b;
    }
    return 1;
}

/* ---- the fused insert --------------------------------------------- */

/* Locate + fused visibility/merge sweep against the live window; no
 * mutation.  ST_HIDDEN: no parts, nothing to commit.  ST_GROW: visible
 * parts in g_parts and the merged window in scratch (out[O_LO..O_MK]),
 * not yet committed.  ST_FALLBACK: unsupported window. */
static int fused_sweep(
    const double *buf, int64_t cap, const int64_t *state,
    double y1, double z1, double y2, double z2,
    int64_t src, double eps, int64_t *out)
{
    int64_t beg = state[0], end = state[1];
    int64_t n = end - beg;
    const double *rya = buf + beg;
    const double *rza = buf + cap + beg;
    const double *ryb = buf + 2 * cap + beg;
    const double *rzb = buf + 3 * cap + beg;
    const int64_t *rsrc = (const int64_t *)(buf + 4 * cap) + beg;
    int64_t lo, hi, win, j;
    int64_t np = 0, ko = 0;   /* parts, merged pieces */
    int64_t vis_ops = 0, merge_ops = 0;
    const double *wya, *wza, *wyb, *wzb;
    const int64_t *wsrc;
    double prev_zs;

    /* locate: pieces_overlapping(y1, y2) on the live ya row. */
    if (n == 0 || y1 >= y2) {
        lo = 0; hi = 0;
    } else {
        lo = upper_bound(rya, n, y1) - 1;
        if (lo < 0 || ryb[lo] <= y1) lo += 1;
        hi = lower_bound(rya, n, y2);
    }
    win = hi - lo;
    out[O_LO] = lo;
    out[O_HI] = hi;

    if (!ensure_scratch(win)) return ST_FALLBACK;

    if (win == 0) {
        /* Empty window: one trailing scan interval, one merge
         * interval (the segment verbatim) — unless the span is
         * eps-degenerate, which the scan reports hidden. */
        if (y2 - y1 > eps) {
            g_parts[0] = y1; g_parts[1] = y2;
            g_mya[0] = y1; g_mza[0] = z1;
            g_myb[0] = y2; g_mzb[0] = z2;
            g_msrc[0] = src;
            ko = 1;
            out[O_NPARTS] = 1;
            out[O_TOTOPS] = 2;
            goto COMMIT;
        }
        out[O_NPARTS] = 0;
        out[O_TOTOPS] = 1;
        out[O_MK] = 0;
        return ST_HIDDEN;
    }

    wya = rya + lo; wza = rza + lo;
    wyb = ryb + lo; wzb = rzb + lo;
    wsrc = rsrc + lo;

    {
        double za0 = wza[0];
        double top = z1 >= z2 ? z1 : z2;
        if (top < za0) {
            /* All-hidden fast path: gap-free covering window whose
             * lowest endpoint safely clears the segment's top. */
            if (wya[0] <= y1 && wyb[win - 1] >= y2) {
                double minz = za0 <= wzb[0] ? za0 : wzb[0];
                double prev_yb = wyb[0];
                int gap_free = 1;
                for (j = 1; j < win; j++) {
                    if (wya[j] != prev_yb) { gap_free = 0; break; }
                    prev_yb = wyb[j];
                    if (wza[j] < minz) minz = wza[j];
                    if (wzb[j] < minz) minz = wzb[j];
                }
                if (gap_free && minz - top >
                        eps + 1e-12 * (fabs(minz) + fabs(top) + 1.0)) {
                    out[O_NPARTS] = 0;
                    out[O_TOTOPS] = win;
                    out[O_MK] = 0;
                    return ST_HIDDEN;
                }
            }
        } else {
            /* Fully-visible fast path: the segment's bottom safely
             * clears the window's highest endpoint; merged window =
             * [head clip?] + segment + [tail clip?]. */
            double bot = z1 <= z2 ? z1 : z2;
            if (bot > za0 && y2 - y1 > eps) {
                double maxz = za0 >= wzb[0] ? za0 : wzb[0];
                double prev_yb = wyb[0];
                int64_t gaps = 0;
                for (j = 1; j < win; j++) {
                    if (prev_yb < wya[j]) gaps++;
                    prev_yb = wyb[j];
                    if (wza[j] > maxz) maxz = wza[j];
                    if (wzb[j] > maxz) maxz = wzb[j];
                }
                if (bot - maxz >
                        eps + 1e-12 * (fabs(maxz) + fabs(bot) + 1.0)) {
                    double ya0 = wya[0], yb_l = wyb[win - 1];
                    int64_t fvis = win + gaps + (y1 < ya0) + (y2 > yb_l);
                    int64_t fmerge = win + gaps + (ya0 != y1) + (yb_l != y2);
                    if (ya0 < y1) {
                        g_mya[ko] = ya0; g_mza[ko] = za0;
                        g_myb[ko] = y1;
                        g_mzb[ko] = line_z(ya0, za0, wyb[0], wzb[0], y1);
                        g_msrc[ko] = wsrc[0];
                        ko++;
                    }
                    g_mya[ko] = y1; g_mza[ko] = z1;
                    g_myb[ko] = y2; g_mzb[ko] = z2;
                    g_msrc[ko] = src;
                    ko++;
                    if (yb_l > y2) {
                        g_mya[ko] = y2;
                        g_mza[ko] = line_z(wya[win - 1], wza[win - 1],
                                           yb_l, wzb[win - 1], y2);
                        g_myb[ko] = yb_l; g_mzb[ko] = wzb[win - 1];
                        g_msrc[ko] = wsrc[win - 1];
                        ko++;
                    }
                    g_parts[0] = y1; g_parts[1] = y2;
                    out[O_NPARTS] = 1;
                    out[O_TOTOPS] = fvis + fmerge;
                    goto COMMIT;
                }
            }
        }
    }

    /* Synthetic (negative-source) pieces coalesce on a different
     * builder rule: fall back to the Python cascade (checked after
     * the fast paths, exactly like the scalar loop). */
    for (j = 0; j < win; j++)
        if (wsrc[j] < 0) return ST_FALLBACK;

    /* ---- the fused visibility+merge sweep (fused_insert_window) --- */
    prev_zs = z1;
    for (j = 0; j < win; j++) {
        double pya = wya[j], pza = wza[j];
        double pyb = wyb[j], pzb = wzb[j];
        double u, v, zs_u, zs_v, zw_u, zw_v, du, dv;
        int su, sv;
        if (j == 0) {
            if (y1 < pya) {
                /* Head gap: the segment alone, visible and emitted. */
                zs_u = line_z(y1, z1, y2, z2, pya);
                acc_add(&np, y1, pya, eps);
                m_add(&ko, y1, z1, pya, zs_u, src, eps);
                vis_ops += 1;
                merge_ops += 1;
                u = pya;
            } else {
                if (pya < y1) {
                    /* Window-piece head before y1: merge-only. */
                    m_add(&ko, pya, pza, y1,
                          line_z(pya, pza, pyb, pzb, y1), wsrc[j], eps);
                    merge_ops += 1;
                }
                u = y1;
                zs_u = z1;
            }
        } else {
            double g0 = wyb[j - 1];
            u = pya;
            if (g0 < pya) {
                /* Gap between pieces — always inside (y1, y2). */
                zs_u = line_z(y1, z1, y2, z2, pya);
                acc_add(&np, g0, pya, eps);
                m_add(&ko, g0, prev_zs, pya, zs_u, src, eps);
                vis_ops += 1;
                merge_ops += 1;
            } else {
                zs_u = prev_zs;
            }
        }
        if (pyb < y2) {
            v = pyb;
            zs_v = line_z(y1, z1, y2, z2, pyb);
        } else {
            v = y2;
            zs_v = z2;
        }
        /* Overlap interval (u, v): non-empty by the window invariant. */
        zw_u = u == pya ? pza : line_z(pya, pza, pyb, pzb, u);
        zw_v = v == pyb ? pzb : line_z(pya, pza, pyb, pzb, v);
        du = zs_u - zw_u;
        dv = zs_v - zw_v;
        su = fabs(du) <= eps ? 0 : (du > 0 ? 1 : -1);
        sv = fabs(dv) <= eps ? 0 : (dv > 0 ? 1 : -1);
        vis_ops += 1;
        merge_ops += 1;
        if (su >= 0 && sv >= 0 && (su > 0 || sv > 0)) {
            /* Segment strictly above somewhere, never strictly below. */
            acc_add(&np, u, v, eps);
            m_add(&ko, u, zs_u, v, zs_v, src, eps);
        } else if (su <= 0 && sv <= 0) {
            /* Hidden (or coincident — the window wins ties). */
            m_add(&ko, u, zw_u, v, zw_v, wsrc[j], eps);
        } else {
            double t = du / (du - dv);
            double w = u + t * (v - u);
            if (w <= u || w >= v) {
                /* Numeric clamp: treat as one-sided. */
                double wc;
                if (su < 0 || sv > 0)
                    m_add(&ko, u, zw_u, v, zw_v, wsrc[j], eps);
                else
                    m_add(&ko, u, zs_u, v, zs_v, src, eps);
                wc = w <= u ? u : v;
                if (su > 0)
                    acc_add(&np, u, wc, eps);
                else
                    acc_add(&np, wc, v, eps);
            } else {
                double zw_w = line_z(pya, pza, pyb, pzb, w);
                double zs_w = line_z(y1, z1, y2, z2, w);
                if (su > 0) {
                    acc_add(&np, u, w, eps);
                    m_add(&ko, u, zs_u, w, zs_w, src, eps);
                    m_add(&ko, w, zw_w, v, zw_v, wsrc[j], eps);
                } else {
                    acc_add(&np, w, v, eps);
                    m_add(&ko, u, zw_u, w, zw_w, wsrc[j], eps);
                    m_add(&ko, w, zs_w, v, zs_v, src, eps);
                }
            }
        }
        if (j == win - 1) {
            if (v < y2) {
                /* Trailing gap past the last piece. */
                acc_add(&np, v, y2, eps);
                m_add(&ko, v, zs_v, y2, z2, src, eps);
                vis_ops += 1;
                merge_ops += 1;
            } else if (y2 < pyb) {
                /* Window-piece tail past y2: merge-only. */
                m_add(&ko, y2, zw_v, pyb, pzb, wsrc[j], eps);
                merge_ops += 1;
            }
        }
        prev_zs = zs_v;
    }

    /* Width filter (b - a > eps), compacting in place. */
    {
        int64_t kept = 0;
        for (j = 0; j < np; j++) {
            double pa = g_parts[2 * j], pb = g_parts[2 * j + 1];
            if (pb - pa > eps) {
                g_parts[2 * kept] = pa;
                g_parts[2 * kept + 1] = pb;
                kept++;
            }
        }
        np = kept;
    }
    if (vis_ops < 1) vis_ops = 1;
    out[O_NPARTS] = np;
    if (np == 0) {
        /* Fully hidden: no splice, no merge ops charged. */
        out[O_TOTOPS] = vis_ops;
        out[O_MK] = 0;
        return ST_HIDDEN;
    }
    out[O_TOTOPS] = vis_ops + merge_ops;

COMMIT:
    out[O_MK] = ko;
    return ST_GROW;
}

/* Commit the merged window fused_sweep left in scratch:
 * check_merged_lists, then PackedProfile._splice_impl in place.
 * ST_DONE (state updated), ST_GROW (no slack: nothing touched, the
 * caller reallocates) or ST_FAULT (post-condition failed, nothing
 * touched). */
static int commit_window(double *buf, int64_t cap, int64_t *state,
                         int64_t *out)
{
    int64_t beg = state[0], end = state[1];
    int64_t n = end - beg;
    int64_t lo = out[O_LO], hi = out[O_HI], ko = out[O_MK];
    int64_t d, head, tail, a;

    if (!merged_ok(ko)) return ST_FAULT;
    d = ko - (hi - lo);
    if (d) {
        head = lo;
        tail = n - hi;
        if (d < 0) {
            /* Shrink: shift the smaller side inward (always fits). */
            if (head <= tail) {
                shift_rows(buf, cap, beg, beg - d, head);
                beg -= d;
            } else {
                shift_rows(buf, cap, beg + hi, beg + lo + ko, tail);
                end += d;
            }
        } else {
            /* Grow: prefer the cheaper side whose slack fits. */
            int fits_head = beg >= d;
            int fits_tail = cap - end >= d;
            if (fits_head && (head <= tail || !fits_tail)) {
                shift_rows(buf, cap, beg, beg - d, head);
                beg -= d;
            } else if (fits_tail) {
                shift_rows(buf, cap, beg + hi, beg + lo + ko, tail);
                end += d;
            } else {
                /* No slack: the wrapper reallocates via
                 * PackedProfile.splice (amortized doubling). */
                return ST_GROW;
            }
        }
    }
    a = beg + lo;
    memcpy(buf + a, g_mya, (size_t)ko * sizeof(double));
    memcpy(buf + cap + a, g_mza, (size_t)ko * sizeof(double));
    memcpy(buf + 2 * cap + a, g_myb, (size_t)ko * sizeof(double));
    memcpy(buf + 3 * cap + a, g_mzb, (size_t)ko * sizeof(double));
    memcpy((int64_t *)(buf + 4 * cap) + a, g_msrc,
           (size_t)ko * sizeof(int64_t));
    state[0] = beg;
    state[1] = end;
    return ST_DONE;
}

/* ==== the whole insert pass (SequentialHSR._insert_loop) ========== */

/* acc[] layout of repro_insert_run (mirrored in repro/envelope/_ccore.py) */
#define R_OPS    0  /* running sum of per-insert ops                  */
#define R_MAX    1  /* running max of the live profile size           */
#define R_STATUS 2  /* why the last call returned                     */
#define R_ROWS   3  /* visible rows the last call left in run scratch */

/* Run-row scratch: the clipped visible parts of one call, as
 * (edge, ya, za, yb, zb) lanes.  Same ownership rule as the insert
 * scratch: Python copies the rows out right after each call. */
static double *g_rya = NULL, *g_rza = NULL, *g_ryb = NULL, *g_rzb = NULL;
static int64_t *g_redge = NULL;
static int64_t g_rcap = 0;

static int ensure_rows(int64_t need)
{
    double *p;
    int64_t *q;
    if (g_rcap >= need) return 1;
    need = need < 256 ? 256 : need + need / 2;
    p = (double *)realloc(g_rya, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_rya = p;
    p = (double *)realloc(g_rza, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_rza = p;
    p = (double *)realloc(g_ryb, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_ryb = p;
    p = (double *)realloc(g_rzb, (size_t)need * sizeof(double));
    if (!p) return 0;
    g_rzb = p;
    q = (int64_t *)realloc(g_redge, (size_t)need * sizeof(int64_t));
    if (!q) return 0;
    g_redge = q;
    g_rcap = need;
    return 1;
}

double *repro_run_rows_ptr(int field)
{
    switch (field) {
    case 0: return g_rya;
    case 1: return g_rza;
    case 2: return g_ryb;
    default: return g_rzb;
    }
}
int64_t *repro_run_edge_ptr(void) { return g_redge; }

/* PackedProfile.value_at on the live range: the searchsorted-right
 * bisection, the covering piece's line height, then the two
 * touching-endpoint maxima. */
static double live_value_at(const double *buf, int64_t cap,
                            const int64_t *state, double y)
{
    int64_t beg = state[0], n = state[1] - beg, i;
    const double *ya = buf + beg, *za = buf + cap + beg;
    const double *yb = buf + 2 * cap + beg, *zb = buf + 3 * cap + beg;
    double best = -INFINITY;
    if (n == 0) return -INFINITY;
    i = upper_bound(ya, n, y) - 1;
    if (i >= 0) {
        if (ya[i] <= y && y <= yb[i])
            best = line_z(ya[i], za[i], yb[i], zb[i], y);
        if (i >= 1 && yb[i - 1] == y && zb[i - 1] > best) best = zb[i - 1];
    }
    if (i + 1 < n && ya[i + 1] == y && za[i + 1] > best) best = za[i + 1];
    return best;
}

/* VisibilityMap.add_edge_result for one part (a, b) of a non-vertical
 * segment, written to run row r: a zero-width part is its top point,
 * else ImageSegment.subsegment (range check, clamp with builtin
 * max/min, z_at at both ends).  Returns 0 when subsegment would raise. */
static int clip_row(int64_t r, double a, double b, double y1, double z1,
                    double y2, double z2, double clip_eps)
{
    if (a == b) {
        double top = z1 >= z2 ? z1 : z2;
        g_rya[r] = a; g_rza[r] = top;
        g_ryb[r] = a; g_rzb[r] = top;
        return 1;
    }
    if (a > b || a < y1 - clip_eps || b > y2 + clip_eps) return 0;
    if (y1 > a) a = y1;
    if (y2 < b) b = y2;
    g_rya[r] = a; g_rza[r] = line_z(y1, z1, y2, z2, a);
    g_ryb[r] = b; g_rzb[r] = line_z(y1, z1, y2, z2, b);
    return 1;
}

/* Inserts [start, stop) of the front-to-back image lanes into the
 * live profile, each exactly as insert_segment_flat would: verticals
 * by the _visible_vertical_flat point query, the rest by fused_sweep
 * + commit_window.  Per insert i it adds the ops to acc[R_OPS], the
 * profile size to the acc[R_MAX] maximum, and the clipped visible
 * rows to the run scratch, with off[i - start + 1] = off[i - start]
 * + rows (the caller seeds off[0], so off has stop - start + 1 slots).
 *
 * Returns the index it stopped at.  stop: every insert done
 * (acc[R_STATUS] = ST_DONE).  Otherwise acc[R_STATUS] says why:
 * ST_GROW -- insert i is fully accounted but its merged window (in
 * scratch, out[O_LO..O_MK]) still needs a reallocating commit;
 * ST_FALLBACK (a synthetic source or window, a part subsegment would
 * reject, scratch OOM) and ST_FAULT (commit post-condition) -- insert
 * i is untouched and unaccounted.  The caller resumes at i + 1. */
int64_t repro_insert_run(
    double *buf, int64_t cap, int64_t *state,
    const double *y1, const double *z1, const double *y2,
    const double *z2, const int64_t *src, int64_t start, int64_t stop,
    double eps, double clip_eps, int64_t *off, int64_t *acc,
    int64_t *out)
{
    int64_t i, j, rows = 0, size;
    int st = ST_DONE;
    for (i = start; i < stop; i++) {
        double a1 = y1[i], c1 = z1[i], a2 = y2[i], c2 = z2[i];
        int64_t np = 0;
        if (a1 == a2) {
            double top = c1 >= c2 ? c1 : c2;
            double zenv = live_value_at(buf, cap, state, a1);
            if (zenv == -INFINITY || top > zenv + eps) {
                if (!ensure_rows(rows + 1)) { st = ST_FALLBACK; break; }
                g_rya[rows] = a1; g_rza[rows] = top;
                g_ryb[rows] = a1; g_rzb[rows] = top;
                g_redge[rows] = src[i];
                np = 1;
            }
            acc[R_OPS] += 1;
        } else {
            if (src[i] < 0) { st = ST_FALLBACK; break; }
            st = fused_sweep(buf, cap, state, a1, c1, a2, c2, src[i], eps,
                             out);
            if (st == ST_FALLBACK) break;
            if (st == ST_GROW) {
                np = out[O_NPARTS];
                if (!ensure_rows(rows + np)) { st = ST_FALLBACK; break; }
                for (j = 0; j < np; j++) {
                    if (!clip_row(rows + j, g_parts[2 * j],
                                  g_parts[2 * j + 1], a1, c1, a2, c2,
                                  clip_eps))
                        break;
                    g_redge[rows + j] = src[i];
                }
                if (j < np) { st = ST_FALLBACK; break; }
                st = commit_window(buf, cap, state, out);
                if (st == ST_FAULT) break;
            }
            acc[R_OPS] += out[O_TOTOPS];
        }
        rows += np;
        off[i - start + 1] = off[i - start] + np;
        size = state[1] - state[0];
        if (st == ST_GROW) size += out[O_MK] - (out[O_HI] - out[O_LO]);
        if (size > acc[R_MAX]) acc[R_MAX] = size;
        if (st == ST_GROW) break;
        st = ST_DONE;
    }
    acc[R_STATUS] = st;
    acc[R_ROWS] = rows;
    return i;
}

/* ==== front-to-back ordering (repro/ordering/sweep.py) ============== */

/* Decline codes of repro_front_to_back.  A non-negative return is
 * the count of ordered edges; a count below n means the constraint
 * graph has a cycle.  The wrapper treats anything but n as a decline. */
#define OR_OOM     (-1)  /* scratch allocation failed                 */
#define OR_INPUT   (-2)  /* a source outside [0, n), or a NaN sweep y */
#define OR_MISSING (-3)  /* a removal found no status entry           */

typedef struct {
    const double *x1, *y1, *x2, *y2;
    const int64_t *src;
} map_lanes;

/* The (y, kind, idx) event tuple; kinds: 0 removal, 1 horizontal
 * insert+remove, 2 insertion. */
typedef struct {
    double y;
    int64_t kind, idx;
} sweep_event;

/* Tuple order of the Python events.sort(); keys are unique. */
static int event_cmp(const void *pa, const void *pb)
{
    const sweep_event *a = (const sweep_event *)pa;
    const sweep_event *b = (const sweep_event *)pb;
    if (a->y < b->y) return -1;
    if (a->y > b->y) return 1;
    if (a->kind != b->kind) return a->kind < b->kind ? -1 : 1;
    return (a->idx > b->idx) - (a->idx < b->idx);
}

/* MapSegment.x_at: horizontal max, endpoint and t == 0/1 shortcuts. */
static double map_x_at(const map_lanes *L, int64_t i, double y)
{
    double xa = L->x1[i], ya = L->y1[i], xb = L->x2[i], yb = L->y2[i];
    double t;
    if (ya == yb) return xa >= xb ? xa : xb;
    if (y == ya) return xa;
    if (y == yb) return xb;
    t = (y - ya) / (yb - ya);
    if (t == 0.0) return xa;
    if (t == 1.0) return xb;
    return xa + (xb - xa) * t;
}

/* in_front_comparison: sign of x(a) - x(b) at the midpoint of the
 * common y-range (builtin max/min keep the first of equal values). */
static int in_front(const map_lanes *L, int64_t a, int64_t b)
{
    double lo = L->y1[b] > L->y1[a] ? L->y1[b] : L->y1[a];
    double hi = L->y2[b] < L->y2[a] ? L->y2[b] : L->y2[a];
    double ym, xa, xb;
    if (hi <= lo) return 0;
    ym = 0.5 * (lo + hi);
    xa = map_x_at(L, a, ym);
    xb = map_x_at(L, b, ym);
    if (xa > xb) return 1;
    if (xa < xb) return -1;
    return 0;
}

/* _StatusEntry.__lt__: ascending x, then the source tie-break. */
static int status_lt(const map_lanes *L, int64_t a, int64_t b)
{
    int c = in_front(L, a, b);
    if (c != 0) return c < 0;
    return L->src[a] < L->src[b];
}

/* The sweep's bisection: first position whose entry is not < e. */
static int64_t status_locate(const map_lanes *L, const int64_t *status,
                             int64_t len, int64_t e)
{
    int64_t lo = 0, hi = len, mid;
    while (lo < hi) {
        mid = (lo + hi) >> 1;
        if (status_lt(L, status[mid], e)) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* order_constraints: writes (front, back) pairs into cons and returns
 * their count, or a negative decline code.  cons holds 3n pairs:
 * at most two per insertion and one per removal. */
static int64_t sweep_constraints(const map_lanes *L, int64_t n,
                                 int64_t *cons)
{
    sweep_event *ev = (sweep_event *)malloc(
        (size_t)(2 * n + 1) * sizeof(sweep_event));
    int64_t *status = (int64_t *)malloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t ne = 0, len = 0, k = 0, e, i, pos, scan, ret;
    if (!ev || !status) { ret = OR_OOM; goto DONE; }
    for (i = 0; i < n; i++) {
        if (L->y1[i] == L->y2[i]) {
            ev[ne].y = L->y1[i]; ev[ne].kind = 1; ev[ne].idx = i; ne++;
        } else {
            ev[ne].y = L->y1[i]; ev[ne].kind = 2; ev[ne].idx = i; ne++;
            ev[ne].y = L->y2[i]; ev[ne].kind = 0; ev[ne].idx = i; ne++;
        }
    }
    qsort(ev, (size_t)ne, sizeof(sweep_event), event_cmp);

    for (e = 0; e < ne; e++) {
        i = ev[e].idx;
        if (ev[e].kind == 0) {
            /* remove(): locate, then the exact-source scan right of
             * pos, else left of it. */
            pos = status_locate(L, status, len, i);
            scan = pos;
            while (scan < len && L->src[status[scan]] != i) scan++;
            if (scan == len) {
                scan = pos - 1;
                while (scan >= 0 && L->src[status[scan]] != i) scan--;
            }
            if (scan < 0) { ret = OR_MISSING; goto DONE; }
            memmove(status + scan, status + scan + 1,
                    (size_t)(len - scan - 1) * sizeof(int64_t));
            len--;
            if (0 < scan && scan < len) {
                cons[2 * k] = L->src[status[scan]];
                cons[2 * k + 1] = L->src[status[scan - 1]];
                k++;
            }
            continue;
        }
        /* Insertion (kind 2) or a horizontal's insert + remove (1):
         * record both new neighbours (left is behind, right in front). */
        pos = status_locate(L, status, len, i);
        memmove(status + pos + 1, status + pos,
                (size_t)(len - pos) * sizeof(int64_t));
        status[pos] = i;
        len++;
        if (pos > 0) {
            cons[2 * k] = i;
            cons[2 * k + 1] = L->src[status[pos - 1]];
            k++;
        }
        if (pos + 1 < len) {
            cons[2 * k] = L->src[status[pos + 1]];
            cons[2 * k + 1] = i;
            k++;
        }
        if (ev[e].kind == 1) {
            memmove(status + pos, status + pos + 1,
                    (size_t)(len - pos - 1) * sizeof(int64_t));
            len--;
        }
    }
    ret = k;
DONE:
    free(ev);
    free(status);
    return ret;
}

static void heap_push(int64_t *heap, int64_t *len, int64_t key)
{
    int64_t c = (*len)++, p;
    while (c > 0) {
        p = (c - 1) >> 1;
        if (heap[p] <= key) break;
        heap[c] = heap[p];
        c = p;
    }
    heap[c] = key;
}

static int64_t heap_pop(int64_t *heap, int64_t *len)
{
    int64_t top = heap[0], last = heap[--(*len)], c = 0, m;
    while ((m = 2 * c + 1) < *len) {
        if (m + 1 < *len && heap[m + 1] < heap[m]) m++;
        if (last <= heap[m]) break;
        heap[c] = heap[m];
        c = m;
    }
    if (*len) heap[c] = last;
    return top;
}

/* front_to_back_order: the sweep, then Kahn's topological sort over a
 * CSR adjacency with a binary heap keyed by sign * i.  Keys are
 * unique, so the pop sequence is the one heapq produces, and a
 * duplicate constraint only decrements its target twice in the same
 * pop — no dedupe is needed.  Constraints stay in cons (*ncons
 * pairs) for the parity tests. */
int64_t repro_front_to_back(
    int64_t n, const double *x1, const double *y1, const double *x2,
    const double *y2, const int64_t *src, int64_t sign,
    int64_t *order, int64_t *cons, int64_t *ncons)
{
    map_lanes L;
    int64_t *off = NULL, *adj = NULL, *indeg = NULL, *heap = NULL;
    int64_t k, i, j, p, hl = 0, done = 0, ret;
    L.x1 = x1; L.y1 = y1; L.x2 = x2; L.y2 = y2; L.src = src;
    *ncons = 0;
    for (i = 0; i < n; i++)
        if (src[i] < 0 || src[i] >= n || y1[i] != y1[i] || y2[i] != y2[i])
            return OR_INPUT;
    k = sweep_constraints(&L, n, cons);
    if (k < 0) return k;
    *ncons = k;

    off = (int64_t *)calloc((size_t)(n + 1), sizeof(int64_t));
    adj = (int64_t *)malloc((size_t)(k + 1) * sizeof(int64_t));
    indeg = (int64_t *)calloc((size_t)(n + 1), sizeof(int64_t));
    heap = (int64_t *)malloc((size_t)(n + 1) * sizeof(int64_t));
    if (!off || !adj || !indeg || !heap) { ret = OR_OOM; goto DONE; }
    for (p = 0; p < k; p++)
        if (cons[2 * p] != cons[2 * p + 1]) off[cons[2 * p] + 1]++;
    for (i = 0; i < n; i++) off[i + 1] += off[i];
    for (p = 0; p < k; p++) {
        int64_t f = cons[2 * p], b = cons[2 * p + 1];
        if (f == b) continue;
        adj[off[f]++] = b;  /* off[f] ends at the start of f + 1 */
        indeg[b]++;
    }
    for (i = n; i > 0; i--) off[i] = off[i - 1];
    off[0] = 0;

    for (i = 0; i < n; i++)
        if (indeg[i] == 0) heap_push(heap, &hl, sign * i);
    while (hl) {
        i = sign * heap_pop(heap, &hl);
        order[done++] = i;
        for (p = off[i]; p < off[i + 1]; p++) {
            j = adj[p];
            if (--indeg[j] == 0) heap_push(heap, &hl, sign * j);
        }
    }
    ret = done;
DONE:
    free(off);
    free(adj);
    free(indeg);
    free(heap);
    return ret;
}
"""

ffibuilder = cffi.FFI()
ffibuilder.cdef(CDEF)
ffibuilder.set_source(
    "repro.envelope._repro_ccore",
    C_SOURCE,
    extra_compile_args=["-O2", "-ffp-contract=off"],
)


if __name__ == "__main__":
    import os

    # In-place build: drop the extension next to this file so the
    # PYTHONPATH=src layout imports it without an install step.
    src_dir = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    ffibuilder.compile(tmpdir=src_dir, verbose=True)
