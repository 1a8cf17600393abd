"""cffi out-of-line API builder for the compiled core.

Running this module (``python src/repro/envelope/_ccore_build.py``)
runs ``setup.py build_ext --inplace``, which compiles
``repro.envelope._repro_ccore`` — a small C extension with
three entry points.

``repro_insert_run`` runs the insert pass of the sequential algorithm
over a chunk of front-to-back image lanes, each insert against the
:class:`~repro.envelope.packed.PackedProfile` ``(5, capacity)``
float64 buffer as the reference insert
(:func:`~repro.envelope.flat_splice._insert_reference`) does it, with
the kernels the layer calls share:

* the locate (the binary search of
  :meth:`~repro.envelope.flat.FlatEnvelope.pieces_overlapping` on the
  live ``ya`` row, same bisection sides as ``ndarray.searchsorted``);
* ``leaf_query`` — the :func:`~repro.envelope.visibility.visible_parts`
  scan of the window (a vertical segment: the point query of
  ``_visible_vertical_flat`` on the live profile), each visible part
  clipped by ``ImageSegment.visible_piece`` into a row, after an
  all-hidden shortcut whose margin guard keeps it exact;
* only when some part is visible, ``merge_sweep`` — the
  :func:`~repro.envelope.merge.merge_envelopes` merge of the window
  with the segment — and ``commit_window``, the in-place window write
  + single head/tail shift splice of
  :meth:`~repro.envelope.packed.PackedProfile.splice`
  (``_splice_impl`` semantics: shrink shifts the smaller side inward,
  growth prefers the cheaper fitting side, reallocation is signalled
  back to Python — the amortized-doubling grow stays Python-side).

A sequential run costs one call per chunk plus one per reallocation
or declined insert.

``repro_merge_layer`` runs one layer of the profile computation tree
in one call.  Its merges port the scalar two-envelope sweep of
:func:`~repro.envelope.merge.merge_envelopes` (breakpoint union, eps
signs, the ``t = du / (du - dv)`` flip and its clamp,
``EnvelopeBuilder`` coalescing, the empty-side shortcuts).  For
Phase 1 (:func:`~repro.hsr.pct.build_pct`) a layer is full merges of
child profiles plus the leaves' segments.  For Phase 2's ``direct``
mode it is :func:`~repro.envelope.splice.splice_merge` — window
locate, merge, and a splice into a fresh profile row — plus the
leaves' :func:`~repro.envelope.visibility.visible_parts` queries,
clipped into rows — the two kernels of ``repro_insert_run``.  The same
mode answers a batch of sight-line queries against one envelope
(:func:`~repro.envelope.flat_visibility.batch_visible_parts`): one
leaf job per query, its profile a block the caller passes.  For the
``persistent`` mode it is :func:`~repro.persistence.rope.rope_splice_merge` and
:func:`~repro.persistence.rope.rope_visible_parts` on the chunked rope,
whose versions the context keeps: chunks are ``(offset, length)`` runs
of a piece arena, a version is a spine of chunks, and a successor
shares every chunk outside its fresh run (the ``SpliceRange`` cuts in
``Piece.clipped`` arithmetic, fresh runs balanced into chunks of at
most ``CHUNK_TARGET`` pieces — the Python rope's chunk boundaries, so
its fresh slot count too).

``repro_front_to_back`` is the front-to-back ordering of
:func:`~repro.ordering.sweep.front_to_back_order` in one call over
``(x1, y1, x2, y2, source)`` map-segment lanes whose sources are the
lane indices (a terrain's lanes; anything else is declined): the
``(y, kind, idx)`` event order — a counting pass by kind in idx
order, then a stable LSD radix sort on the orderable bits of
``y + 0.0`` — the status bisection with the ``_StatusEntry.__lt__``
comparator (``in_front_comparison`` at the common-range midpoint,
then the source tie-break), a removal found by its lane index (the
one entry the Python sweep's exact-source scan finds), and Kahn's
topological sort with a heap keyed by ``sign * i``.  It declines
(negative return) and the Python sweep answers, raising its own
errors; a constraint cycle needs permuted sources, so the C sweep
never meets one.

Bit-exactness contract: every float expression below is a literal
transcription of the pure-Python scalar loop (``_line_z`` endpoint
shortcuts, sign predicates, ``t = du / (du - dv)`` crossing parameter,
part/piece coalescing rules), evaluated in the same order on IEEE
doubles.  ``-ffp-contract=off`` keeps compilers from fusing
``a + b * c`` into an FMA (bit-identical results on x86-64 *and*
aarch64), so the C core and the scalar loop produce float-for-float
identical profiles, visible parts and ``ops`` — the property
``tests/test_envelope_ccore.py`` and ``tests/test_phase2_ccore.py``
fuzz.

Buffer ownership: the caller owns every input buffer; the insert run
mutates the caller's packed buffer in place but never reallocates it.
All scratch — merged windows, visible parts, rows, layer profiles —
lives in a ``repro_ctx`` that Python creates per run
(:class:`repro.envelope._ccore.Core`) and frees with it, grown by the
C side as needed.  Python copies results out before the next call on
the same context; a Phase-2 run keeps its profiles (or its rope's
pieces and spines) in the context, since later layers read them by
offset, and an insert run keeps its rows there until it ends or an
insert answered in Python must follow them.

Concurrency: nothing is static, so the core is reentrant.  cffi
API-mode wrappers release the GIL around each call, and two threads
may run the core at once as long as each uses its own context (every
run creates its own).  When the packed buffer cannot absorb a growth
splice the insert run returns ``GROW`` *without touching the buffer*
and the wrapper commits through :meth:`PackedProfile.splice`, which
owns the amortized-doubling reallocation policy.

The build is optional end to end: ``setup.py`` marks the extension
``optional`` (no compiler → the Python reference, same results),
and ``REPRO_CCORE_BUILD=0`` skips it entirely.
"""

import cffi

CDEF = """
typedef struct repro_ctx repro_ctx;
repro_ctx *repro_ctx_new(void);
void repro_ctx_free(repro_ctx *ctx);
void repro_ctx_clear(repro_ctx *ctx);
int64_t repro_lanes_len(repro_ctx *ctx, int which);
double *repro_lane(repro_ctx *ctx, int which, int field);
int64_t *repro_lane_q(repro_ctx *ctx, int which, int field);
int64_t repro_lanes_take(repro_ctx *ctx, int which, double *dst,
                         int64_t stride);
int64_t repro_insert_run(
    repro_ctx *ctx, double *buf, int64_t cap, int64_t *state,
    const double *y1, const double *z1, const double *y2,
    const double *z2, const int64_t *src, int64_t start, int64_t stop,
    double eps, double clip_eps, int64_t *off, int64_t *acc,
    int64_t *out);
int64_t repro_merge_layer(
    repro_ctx *ctx, int64_t mode, const double *blk, int64_t blk_cap,
    const double *y1, const double *z1, const double *y2,
    const double *z2, const int64_t *src, int64_t nj,
    const int64_t *job, int64_t record, double eps, double clip_eps,
    int64_t *res);
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

/* out[] layout of a merged window (mirrored in repro/envelope/_ccore.py):
 * it replaces pieces [O_LO, O_HI) of the live profile with O_MK. */
#define O_LO     0
#define O_HI     1
#define O_MK     2

/* ---- the per-call context --------------------------------------------
 * All scratch lives in a repro_ctx the caller creates, passes to every
 * call and frees: nothing is static, so two threads with two contexts
 * never share memory.  A context holds growable lane sets, each some
 * double lanes and some int64 lanes of one common length n. */

typedef struct {
    double *d[4];
    int64_t *q[3];
    int64_t n, cap;
} lanes;

#define L_WIN   0  /* window copied out of a rope: ya za yb zb | src  */
#define L_ROWS  1  /* clipped visible rows: ya za yb zb | edge         */
#define L_PROF  2  /* merged profiles: ya za yb zb | src               */
#define L_XING  3  /* merge crossings: y z | front back                */
#define L_PARTS 4  /* visible parts: ya yb                             */
#define L_VX    5  /* leaf crossings: y z                              */
#define L_BND   6  /* breakpoint union of one merge: y                 */
#define L_SPINE 7  /* rope spines, one entry a chunk: | off len start  */
#define N_LANES 8

static const int LANE_ND[N_LANES] = {4, 4, 4, 2, 2, 2, 1, 0};
static const int LANE_NQ[N_LANES] = {1, 1, 1, 2, 0, 0, 0, 3};

typedef struct repro_ctx {
    lanes L[N_LANES];
} repro_ctx;

repro_ctx *repro_ctx_new(void)
{
    return (repro_ctx *)calloc(1, sizeof(repro_ctx));
}

void repro_ctx_free(repro_ctx *ctx)
{
    int w, f;
    if (!ctx) return;
    for (w = 0; w < N_LANES; w++) {
        for (f = 0; f < 4; f++) free(ctx->L[w].d[f]);
        for (f = 0; f < 3; f++) free(ctx->L[w].q[f]);
    }
    free(ctx);
}

/* Empty every lane set, keeping the memory for the next run. */
void repro_ctx_clear(repro_ctx *ctx)
{
    int w;
    for (w = 0; w < N_LANES; w++) ctx->L[w].n = 0;
}

/* Grow lane set `which` to hold at least `need` entries (1.5x). */
static int reserve(repro_ctx *ctx, int which, int64_t need)
{
    lanes *L = &ctx->L[which];
    int64_t cap;
    int f;
    if (L->cap >= need) return 1;
    cap = need < 64 ? 64 : need + need / 2;
    for (f = 0; f < LANE_ND[which]; f++) {
        double *p = (double *)realloc(L->d[f], (size_t)cap * sizeof(double));
        if (!p) return 0;
        L->d[f] = p;
    }
    for (f = 0; f < LANE_NQ[which]; f++) {
        int64_t *p = (int64_t *)realloc(L->q[f],
                                        (size_t)cap * sizeof(int64_t));
        if (!p) return 0;
        L->q[f] = p;
    }
    L->cap = cap;
    return 1;
}

int64_t repro_lanes_len(repro_ctx *ctx, int which) { return ctx->L[which].n; }
double *repro_lane(repro_ctx *ctx, int which, int field)
{
    return ctx->L[which].d[field];
}
int64_t *repro_lane_q(repro_ctx *ctx, int which, int field)
{
    return ctx->L[which].q[field];
}

/* Copy lane set `which` into dst as consecutive rows `stride` apart:
 * the double lanes, then the int64 lanes bit for bit.  Returns n. */
int64_t repro_lanes_take(repro_ctx *ctx, int which, double *dst,
                         int64_t stride)
{
    lanes *L = &ctx->L[which];
    int f, r = 0;
    size_t bytes = (size_t)L->n * sizeof(double);
    if (L->n == 0) return 0;
    for (f = 0; f < LANE_ND[which]; f++, r++)
        memcpy(dst + (int64_t)r * stride, L->d[f], bytes);
    for (f = 0; f < LANE_NQ[which]; f++, r++)
        memcpy(dst + (int64_t)r * stride, L->q[f], bytes);
    return L->n;
}

/* One envelope as five read-only lanes. */
typedef struct {
    const double *ya, *za, *yb, *zb;
    const int64_t *src;
    int64_t n;
} view;

/* Pieces [off, off + n) of a (5, cap) packed block. */
static view block_view(const double *blk, int64_t cap, int64_t off,
                       int64_t n)
{
    view v;
    v.ya = blk + off;
    v.za = blk + cap + off;
    v.yb = blk + 2 * cap + off;
    v.zb = blk + 3 * cap + off;
    v.src = (const int64_t *)(blk + 4 * cap) + off;
    v.n = n;
    return v;
}

/* Pieces [off, off + n) of a five-lane set (ya za yb zb | src). */
static view lanes_view(const lanes *L, int64_t off, int64_t n)
{
    view v;
    v.ya = L->d[0] + off;
    v.za = L->d[1] + off;
    v.yb = L->d[2] + off;
    v.zb = L->d[3] + off;
    v.src = L->q[0] + off;
    v.n = n;
    return v;
}

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

/* Envelope.pieces_overlapping(ya, yb): pieces whose interior meets
 * (ya, yb), as the half-open range [*lo, *hi). */
static void overlapping(const view *v, double ya, double yb, int64_t *lo,
                        int64_t *hi)
{
    int64_t l;
    if (v->n == 0 || ya >= yb) {
        *lo = 0;
        *hi = 0;
        return;
    }
    l = upper_bound(v->ya, v->n, ya) - 1;
    if (l < 0 || v->yb[l] <= ya) l += 1;
    *lo = l;
    *hi = lower_bound(v->ya, v->n, yb);
}

/* Envelope.value_at: the searchsorted-right bisection, the covering
 * piece's line height, then the two touching-endpoint maxima. */
static double value_at(const view *v, double y)
{
    int64_t n = v->n, i;
    double best = -INFINITY;
    if (n == 0) return -INFINITY;
    i = upper_bound(v->ya, n, y) - 1;
    if (i >= 0) {
        if (v->ya[i] <= y && y <= v->yb[i])
            best = line_z(v->ya[i], v->za[i], v->yb[i], v->zb[i], y);
        if (i >= 1 && v->yb[i - 1] == y && v->zb[i - 1] > best)
            best = v->zb[i - 1];
    }
    if (i + 1 < n && v->ya[i + 1] == y && v->za[i + 1] > best)
        best = v->za[i + 1];
    return best;
}

/* _PartAccumulator.add on the parts lanes: parts from `base` on belong
 * to the current query (the mutable last-part merge). */
static void acc_add(lanes *P, int64_t base, double a, double b, double eps)
{
    if (b < a) return;
    if (P->n > base) {
        double *last = P->d[1] + P->n - 1;
        if (a <= *last + eps) {
            if (b > *last) *last = b;
            return;
        }
    }
    P->d[0][P->n] = a;
    P->d[1][P->n] = b;
    P->n++;
}

/* Drop the parts from `base` on of width (b - a) <= eps, in place. */
static void width_filter(lanes *P, int64_t base, double eps)
{
    int64_t j, kept = base;
    for (j = base; j < P->n; j++) {
        double pa = P->d[0][j], pb = P->d[1][j];
        if (pb - pa > eps) {
            P->d[0][kept] = pa;
            P->d[1][kept] = pb;
            kept++;
        }
    }
    P->n = kept;
}

/* Append one piece verbatim. */
static void push(lanes *O, double ya, double za, double yb, double zb,
                 int64_t s)
{
    int64_t k = O->n;
    O->d[0][k] = ya;
    O->d[1][k] = za;
    O->d[2][k] = yb;
    O->d[3][k] = zb;
    O->q[0][k] = s;
    O->n = k + 1;
}

/* Append pieces [lo, hi) of v verbatim. */
static void push_view(lanes *O, const view *v, int64_t lo, int64_t hi)
{
    size_t bytes;
    int64_t k = O->n;
    if (hi <= lo) return;
    bytes = (size_t)(hi - lo) * sizeof(double);
    memcpy(O->d[0] + k, v->ya + lo, bytes);
    memcpy(O->d[1] + k, v->za + lo, bytes);
    memcpy(O->d[2] + k, v->yb + lo, bytes);
    memcpy(O->d[3] + k, v->zb + lo, bytes);
    memcpy(O->q[0] + k, v->src + lo, bytes);
    O->n = k + (hi - lo);
}

/* EnvelopeBuilder state: pieces from `start` on are this build's; the
 * cached slope of the last synthetic piece is `slope` when slope_ok. */
typedef struct {
    int64_t start;
    int slope_ok;
    double slope;
} builder;

/* EnvelopeBuilder.add: drop empty spans; coalesce a contiguous piece
 * of the same source whose join heights agree within eps (real
 * sources always, synthetic ones only when the slopes agree too). */
static void b_add(lanes *O, builder *B, double ya, double za, double yb,
                  double zb, int64_t s, double eps)
{
    int64_t l = O->n - 1;
    if (ya >= yb) return;
    if (l >= B->start && O->q[0][l] == s && O->d[2][l] == ya
        && fabs(O->d[3][l] - za) <= eps) {
        double ps, ls;
        if (s >= 0) {
            O->d[2][l] = yb;
            O->d[3][l] = zb;
            B->slope_ok = 0;
            return;
        }
        ps = (zb - za) / (yb - ya);
        ls = B->slope_ok ? B->slope
                         : (O->d[3][l] - O->d[1][l]) / (O->d[2][l] - O->d[0][l]);
        if (fabs(ls - ps) <= eps) {
            O->d[2][l] = yb;
            O->d[3][l] = zb;
            B->slope_ok = 0;
            return;
        }
        push(O, ya, za, yb, zb, s);
        B->slope_ok = 1;
        B->slope = ps;
        return;
    }
    push(O, ya, za, yb, zb, s);
    B->slope_ok = 0;
}

/* check_flat on pieces [from, O->n): ya <= yb, sorted and
 * non-overlapping, finite z lanes. */
static int pieces_ok(const lanes *O, int64_t from)
{
    int64_t j;
    for (j = from; j < O->n; j++) {
        if (!(O->d[0][j] <= O->d[2][j])) return 0;
        if (!isfinite(O->d[1][j]) || !isfinite(O->d[3][j])) return 0;
        if (j > from && !(O->d[2][j - 1] <= O->d[0][j])) return 0;
    }
    return 1;
}

/* VisibilityMap.add_edge_result for one part (a, b) of a non-vertical
 * segment, appended to L_ROWS: a zero-width part is its top point,
 * else ImageSegment.subsegment (range check, clamp with builtin
 * max/min, z_at at both ends).  Returns 0 when subsegment would raise. */
static int clip_row(lanes *R, double a, double b, double y1, double z1,
                    double y2, double z2, int64_t edge, double clip_eps)
{
    if (a == b) {
        double top = z1 >= z2 ? z1 : z2;
        push(R, a, top, a, top, edge);
        return 1;
    }
    if (a > b || a < y1 - clip_eps || b > y2 + clip_eps) return 0;
    if (y1 > a) a = y1;
    if (y2 < b) b = y2;
    push(R, a, line_z(y1, z1, y2, z2, a), b, line_z(y1, z1, y2, z2, b),
         edge);
    return 1;
}

/* ==== one PCT layer of merges (repro/hsr/pct.py, phase2.py) ======== */

/* Modes of repro_merge_layer (mirrored in repro/envelope/_ccore.py). */
#define MODE_PCT    1  /* Phase 1: full merges of two child profiles   */
#define MODE_PHASE2 2  /* Phase 2 and query batches: splice merges and
                           leaf queries                                */
#define MODE_ROPE   3  /* Phase 2 on the rope: persistent splice merges */

/* job[] and res[] row layouts. */
#define J_KIND 0  /* 0: merge, 1: leaf, 2: a query (MODE_PHASE2)      */
#define J_AOFF 1  /* side a: offset, length                            */
#define J_ALEN 2
#define J_BOFF 3  /* side b: offset, length; a leaf's lane index       */
#define J_BLEN 4
#define J_W    5
#define X_OPS   0  /* the job's ops                                    */
#define X_CROSS 1  /* its crossing count                               */
#define X_OFF   2  /* its output: profile rows, or a leaf's parts      */
#define X_LEN   3
#define X_W     4

/* merge_envelopes(a, b): the union of the two endpoint streams, then
 * one pass over its elementary intervals -- a covering piece per side,
 * the eps signs at both ends, the a-wins-ties dominance and the flip
 * at t = du / (du - dv) with its clamp -- through EnvelopeBuilder.
 * An empty side returns the other verbatim (uncoalesced).  Appends to
 * L_PROF (and the crossings to L_XING when `record`); the caller has
 * reserved 4 (na + nb) + 1 pieces, 2 (na + nb) crossings and
 * breakpoints.  Returns ops. */
static int64_t merge_sweep(repro_ctx *ctx, const view *A, const view *B,
                           double eps, int record, int64_t *ncross)
{
    lanes *O = &ctx->L[L_PROF], *X = &ctx->L[L_XING];
    double *bnd = ctx->L[L_BND].d[0];
    builder bl;
    int64_t nx = 2 * A->n, ny = 2 * B->n, i = 0, j = 0, nb = 0, t;
    int64_t ia = 0, ib = 0, ops = 0;

    *ncross = 0;
    if (A->n == 0) {
        push_view(O, B, 0, B->n);
        return B->n;
    }
    if (B->n == 0) {
        push_view(O, A, 0, A->n);
        return A->n;
    }
    /* envelope_breakpoints: each stream ya0, yb0, ya1, ... is sorted;
     * a two-pointer merge keeps the first of equal values. */
#define STREAM(V, k) (((k) & 1) ? (V)->yb[(k) >> 1] : (V)->ya[(k) >> 1])
    while (i < nx && j < ny) {
        double x = STREAM(A, i), y = STREAM(B, j);
        if (x <= y) {
            if (!nb || bnd[nb - 1] != x) bnd[nb++] = x;
            i++;
            if (x == y) j++;
        } else {
            if (!nb || bnd[nb - 1] != y) bnd[nb++] = y;
            j++;
        }
    }
    for (; i < nx; i++) {
        double x = STREAM(A, i);
        if (!nb || bnd[nb - 1] != x) bnd[nb++] = x;
    }
    for (; j < ny; j++) {
        double y = STREAM(B, j);
        if (!nb || bnd[nb - 1] != y) bnd[nb++] = y;
    }
#undef STREAM

    bl.start = O->n;
    bl.slope_ok = 0;
    bl.slope = 0.0;
    for (t = 0; t + 1 < nb; t++) {
        double u = bnd[t], v = bnd[t + 1];
        double pa_u, pa_v, pb_u, pb_v, du, dv;
        int has_a, has_b, su, sv;
        if (u >= v) continue;
        ops++;
        while (ia < A->n && A->yb[ia] <= u) ia++;
        while (ib < B->n && B->yb[ib] <= u) ib++;
        has_a = ia < A->n && A->ya[ia] <= u && v <= A->yb[ia];
        has_b = ib < B->n && B->ya[ib] <= u && v <= B->yb[ib];
        if (!has_a && !has_b) continue;
        if (!has_b) {
            b_add(O, &bl, u, line_z(A->ya[ia], A->za[ia], A->yb[ia],
                                    A->zb[ia], u),
                  v, line_z(A->ya[ia], A->za[ia], A->yb[ia], A->zb[ia], v),
                  A->src[ia], eps);
            continue;
        }
        if (!has_a) {
            b_add(O, &bl, u, line_z(B->ya[ib], B->za[ib], B->yb[ib],
                                    B->zb[ib], u),
                  v, line_z(B->ya[ib], B->za[ib], B->yb[ib], B->zb[ib], v),
                  B->src[ib], eps);
            continue;
        }
        pa_u = line_z(A->ya[ia], A->za[ia], A->yb[ia], A->zb[ia], u);
        pa_v = line_z(A->ya[ia], A->za[ia], A->yb[ia], A->zb[ia], v);
        pb_u = line_z(B->ya[ib], B->za[ib], B->yb[ib], B->zb[ib], u);
        pb_v = line_z(B->ya[ib], B->za[ib], B->yb[ib], B->zb[ib], v);
        du = pa_u - pb_u;
        dv = pa_v - pb_v;
        su = fabs(du) <= eps ? 0 : (du > 0 ? 1 : -1);
        sv = fabs(dv) <= eps ? 0 : (dv > 0 ? 1 : -1);
        if (su >= 0 && sv >= 0) {
            b_add(O, &bl, u, pa_u, v, pa_v, A->src[ia], eps);
        } else if (su <= 0 && sv <= 0) {
            /* Coincident pieces went to a above: a wins ties. */
            b_add(O, &bl, u, pb_u, v, pb_v, B->src[ib], eps);
        } else {
            /* A transversal flip inside (u, v). */
            double tt = du / (du - dv);
            double w = u + tt * (v - u);
            double zw, zw_b;
            if (w <= u || w >= v) {
                /* Numeric clamp: treat as one-sided. */
                if (su > 0 || sv < 0)
                    b_add(O, &bl, u, pa_u, v, pa_v, A->src[ia], eps);
                else
                    b_add(O, &bl, u, pb_u, v, pb_v, B->src[ib], eps);
                continue;
            }
            zw = line_z(A->ya[ia], A->za[ia], A->yb[ia], A->zb[ia], w);
            zw_b = line_z(B->ya[ib], B->za[ib], B->yb[ib], B->zb[ib], w);
            if (su > 0) {
                b_add(O, &bl, u, pa_u, w, zw, A->src[ia], eps);
                b_add(O, &bl, w, zw_b, v, pb_v, B->src[ib], eps);
            } else {
                b_add(O, &bl, u, pb_u, w, zw_b, B->src[ib], eps);
                b_add(O, &bl, w, zw, v, pa_v, A->src[ia], eps);
            }
            if (record) {
                int64_t k = X->n;
                X->d[0][k] = w;
                X->d[1][k] = zw;
                X->q[0][k] = su > 0 ? A->src[ia] : B->src[ib];
                X->q[1][k] = su > 0 ? B->src[ib] : A->src[ia];
                X->n = k + 1;
                (*ncross)++;
            }
        }
    }
    return ops;
}

/* Reserve room for one merge of na + nb input pieces on top of
 * `extra` pieces copied verbatim. */
static int reserve_merge(repro_ctx *ctx, int64_t na, int64_t nb,
                         int64_t extra)
{
    int64_t m = na + nb;
    return reserve(ctx, L_PROF, ctx->L[L_PROF].n + extra + 4 * m + 1)
        && reserve(ctx, L_XING, ctx->L[L_XING].n + 2 * m + 1)
        && reserve(ctx, L_BND, 2 * m + 1);
}

/* visible_parts(seg, env): the parts of one segment strictly above the
 * profile, appended to L_PARTS, its crossings to L_VX and its clipped
 * rows to L_ROWS.  Returns ops, or -1 when a part would fail
 * subsegment or the visible-parts check (nothing appended then). */
static int64_t leaf_query(repro_ctx *ctx, const view *env, double y1,
                          double z1, double y2, double z2, int64_t edge,
                          double eps, double clip_eps, int64_t *ncross)
{
    lanes *P = &ctx->L[L_PARTS], *V = &ctx->L[L_VX], *R = &ctx->L[L_ROWS];
    int64_t base = P->n, vbase = V->n, rbase = R->n;
    int64_t lo, hi, idx, j, ops = 0;
    double cursor = y1, lim_lo, lim_hi, prev;

    *ncross = 0;
    if (y1 == y2) {
        /* _visible_vertical: the top endpoint against value_at. */
        double top = z1 >= z2 ? z1 : z2;
        double zenv = value_at(env, y1);
        if (!reserve(ctx, L_PARTS, base + 1)
            || !reserve(ctx, L_ROWS, rbase + 1))
            return -2;
        if (zenv == -INFINITY || top > zenv + eps) {
            acc_add(P, base, y1, y1, eps);
            push(R, y1, top, y1, top, edge);
        }
        return 1;
    }
    overlapping(env, y1, y2, &lo, &hi);
    if (!reserve(ctx, L_PARTS, base + 2 * (hi - lo) + 2)
        || !reserve(ctx, L_VX, vbase + (hi - lo) + 1)
        || !reserve(ctx, L_ROWS, rbase + 2 * (hi - lo) + 2))
        return -2;
    for (idx = lo; idx < hi; idx++) {
        double pya = env->ya[idx], pza = env->za[idx];
        double pyb = env->yb[idx], pzb = env->zb[idx];
        double gap_end = y2 < pya ? y2 : pya;
        double u, v;
        if (cursor < gap_end) {
            acc_add(P, base, cursor, gap_end, eps);
            ops++;
        }
        u = cursor;
        if (pya > u) u = pya;
        if (y1 > u) u = y1;
        v = pyb;
        if (y2 < v) v = y2;
        if (u < v) {
            double du, dv;
            int su, sv;
            ops++;
            du = line_z(y1, z1, y2, z2, u) - line_z(pya, pza, pyb, pzb, u);
            dv = line_z(y1, z1, y2, z2, v) - line_z(pya, pza, pyb, pzb, v);
            su = fabs(du) <= eps ? 0 : (du > 0 ? 1 : -1);
            sv = fabs(dv) <= eps ? 0 : (dv > 0 ? 1 : -1);
            if (su >= 0 && sv >= 0 && (su > 0 || sv > 0)) {
                acc_add(P, base, u, v, eps);
            } else if (su <= 0 && sv <= 0) {
                /* hidden (or coincident) throughout */
            } else {
                double t = du / (du - dv);
                double w = u + t * (v - u);
                w = u > w ? u : w;
                w = v < w ? v : w;
                if (su > 0)
                    acc_add(P, base, u, w, eps);
                else
                    acc_add(P, base, w, v, eps);
                if (u < w && w < v) {
                    V->d[0][V->n] = w;
                    V->d[1][V->n] = line_z(y1, z1, y2, z2, w);
                    V->n++;
                }
            }
            if (v > cursor) cursor = v;
        } else if (gap_end > cursor) {
            cursor = gap_end;
        }
    }
    if (cursor < y2) {
        acc_add(P, base, cursor, y2, eps);
        ops++;
    }
    width_filter(P, base, eps);

    /* The visible-parts check (sorted, inside the span, finite
     * crossings), then the clipped rows. */
    lim_lo = (y1 <= y2 ? y1 : y2) - eps - 1e-9;
    lim_hi = (y2 >= y1 ? y2 : y1) + eps + 1e-9;
    prev = lim_lo;
    for (j = base; j < P->n; j++) {
        double a = P->d[0][j], b = P->d[1][j];
        if (!(prev <= a && a <= b && b <= lim_hi)) goto BAD;
        prev = b;
        if (!clip_row(R, a, b, y1, z1, y2, z2, edge, clip_eps)) goto BAD;
    }
    for (j = vbase; j < V->n; j++) {
        double w = V->d[0][j], z = V->d[1][j];
        if (!(lim_lo <= w && w <= lim_hi) || z != z) goto BAD;
    }
    *ncross = V->n - vbase;
    return ops < 1 ? 1 : ops;
BAD:
    P->n = base;
    V->n = vbase;
    R->n = rbase;
    return -1;
}

/* ---- the persistent Phase 2: the chunked rope in the context -------
 * A profile version of repro/persistence/rope.py lives here as a spine:
 * a run of L_SPINE entries, one per chunk, holding the chunk's first
 * piece in the L_PROF arena, its piece count and its first global piece
 * index.  Chunks are never written once committed, so a successor
 * version copies the entries of every untouched chunk and shares its
 * pieces; only the fresh run around a splice is written anew. */

#define CHUNK_TARGET 32  /* repro.persistence.rope.CHUNK_TARGET        */

/* res[] row of a MODE_ROPE job: X_OPS .. X_LEN as above, then these. */
#define X_TOTAL 4  /* a merge's new version: its piece count           */
#define X_FRESH 5  /* the piece slots written into its fresh chunks    */
#define RX_W    6

typedef struct {
    const int64_t *off, *len, *start;
    int64_t n, total;
} spine;

typedef struct {
    double ya, za, yb, zb;
    int64_t src;
} piece;

/* The version whose spine is entries [at, at + n) of L_SPINE. */
static spine spine_view(const lanes *S, int64_t at, int64_t n)
{
    spine s;
    s.off = s.len = s.start = NULL;
    s.n = n;
    s.total = 0;
    if (n > 0) {
        s.off = S->q[0] + at;
        s.len = S->q[1] + at;
        s.start = S->q[2] + at;
        s.total = s.start[n - 1] + s.len[n - 1];
    }
    return s;
}

/* bisect_right(offsets, i) - 1 of the Python rope, whose offsets end
 * with the total: the chunk holding global piece i, or s->n when
 * i >= total. */
static int64_t chunk_of(const spine *s, int64_t i)
{
    int64_t lo = 0, hi = s->n, mid;
    if (i >= s->total) return s->n;
    while (lo < hi) {
        mid = (lo + hi) >> 1;
        if (s->start[mid] <= i) lo = mid + 1; else hi = mid;
    }
    return lo - 1;
}

/* _index_ge: the first global index with key >= y -- the spine bisect
 * on the chunks' first keys, then the chunk's own. */
static int64_t rope_index_ge(const lanes *A, const spine *s, double y)
{
    int64_t lo = 0, hi = s->n, mid;
    while (lo < hi) {
        mid = (lo + hi) >> 1;
        if (A->d[0][s->off[mid]] <= y) lo = mid + 1; else hi = mid;
    }
    if (lo == 0) return 0;
    lo--;
    return s->start[lo] + lower_bound(A->d[0] + s->off[lo], s->len[lo], y);
}

/* Rope.piece_at(i). */
static piece rope_piece(const lanes *A, const spine *s, int64_t i)
{
    int64_t c = chunk_of(s, i), k = s->off[c] + (i - s->start[c]);
    piece p;
    p.ya = A->d[0][k];
    p.za = A->d[1][k];
    p.yb = A->d[2][k];
    p.zb = A->d[3][k];
    p.src = A->q[0][k];
    return p;
}

/* Piece.clipped(u, v) on a piece the caller knows covers [u, v]: the
 * builtin max/min clamps, then z_at at both ends. */
static piece clip_piece(piece p, double u, double v)
{
    piece c;
    if (p.ya > u) u = p.ya;
    if (p.yb < v) v = p.yb;
    c.ya = u;
    c.za = line_z(p.ya, p.za, p.yb, p.zb, u);
    c.yb = v;
    c.zb = line_z(p.ya, p.za, p.yb, p.zb, v);
    c.src = p.src;
    return c;
}

static void push_piece(lanes *O, piece p)
{
    push(O, p.ya, p.za, p.yb, p.zb, p.src);
}

/* Pieces [i, j) of a version appended to O, whole chunk runs at a time
 * (Rope.pieces_between); O has room. */
static void rope_copy(lanes *O, const lanes *A, const spine *s, int64_t i,
                      int64_t j)
{
    int64_t c, hi;
    view v;
    if (i >= j) return;
    c = chunk_of(s, i);
    while (i < j) {
        v = lanes_view(A, s->off[c], s->len[c]);
        hi = j - s->start[c];
        if (hi > s->len[c]) hi = s->len[c];
        push_view(O, &v, i - s->start[c], hi);
        i = s->start[c] + hi;
        c++;
    }
}

/* _check_splice_pieces on the fresh run [from, O->n): strictly positive
 * widths, sorted, no NaN heights, between the kept neighbours. */
static int splice_ok(const lanes *O, int64_t from, double prev_yb,
                     double next_ya)
{
    int64_t j;
    if (O->n == from) return 1;
    for (j = from; j < O->n; j++) {
        if (!(O->d[0][j] < O->d[2][j])) return 0;
        if (O->d[1][j] != O->d[1][j] || O->d[3][j] != O->d[3][j]) return 0;
        if (j > from && !(O->d[2][j - 1] <= O->d[0][j])) return 0;
    }
    return prev_yb <= O->d[0][from] && !(O->d[2][O->n - 1] > next_ya);
}

/* rope_splice_merge of pieces [boff, boff + blen) of blk (the left
 * child's PCT profile) into the version at spine [aoff, aoff + alen):
 * the SpliceRange decomposition (left cut and straddle clip, tail trim
 * and carry), merge_sweep over the window, and commit_splice --
 * the left fragment, left cut, merged run, carry and right fragment
 * written to L_PROF as one fresh run in balanced chunks of at most
 * CHUNK_TARGET pieces, and the successor's spine appended to L_SPINE
 * (shared chunks before and after it).  An empty b shares the version
 * itself.  Returns ST_DONE, ST_FAULT (merged window or fresh run fails
 * its check) or ST_FALLBACK (OOM). */
static int rope_merge(repro_ctx *ctx, int64_t aoff, int64_t alen,
                      const double *blk, int64_t blk_cap, int64_t boff,
                      int64_t blen, double eps, int64_t *X)
{
    lanes *A = &ctx->L[L_PROF], *W = &ctx->L[L_WIN], *S = &ctx->L[L_SPINE];
    spine s = spine_view(S, aoff, alen);
    piece q, cut = {0}, straddle = {0}, last = {0}, carry = {0};
    int has_cut = 0, has_last = 0, has_carry = 0;
    int64_t i0, i1, cl, nl, cr, at, nr, right, fresh, from, ops, nx;
    int64_t parts, size, extra, p, c, g;
    double ya, yb, prev_yb, next_ya;
    view b, win;

    X[X_OPS] = X[X_CROSS] = X[X_FRESH] = 0;
    X[X_OFF] = aoff;
    X[X_LEN] = alen;
    X[X_TOTAL] = s.total;
    if (blen == 0) return ST_DONE;
    b = block_view(blk, blk_cap, boff, blen);
    ya = b.ya[0];
    yb = b.yb[blen - 1];

    /* SpliceRange(rope, ya, yb). */
    i0 = rope_index_ge(A, &s, ya);
    if (i0 > 0) {
        q = rope_piece(A, &s, i0 - 1);
        if (q.yb > ya) {
            cut = clip_piece(q, q.ya, ya);
            straddle = clip_piece(q, ya, q.yb);
            has_cut = 1;
        }
    }
    i1 = rope_index_ge(A, &s, yb);
    if (i1 > i0) {
        last = rope_piece(A, &s, i1 - 1);
        has_last = 1;
    } else if (has_cut) {
        last = straddle;
        has_last = 1;
    }

    /* mid_pieces: the straddle clip, pieces [i0, i1), the tail trim. */
    if (!reserve(ctx, L_WIN, has_cut + (i1 - i0))) return ST_FALLBACK;
    W->n = 0;
    if (has_cut) push_piece(W, straddle);
    rope_copy(W, A, &s, i0, i1);
    if (has_last && last.yb > yb) {
        piece trim = clip_piece(last, last.ya, yb);
        carry = clip_piece(last, yb, last.yb);
        has_carry = carry.ya < carry.yb;
        W->d[2][W->n - 1] = trim.yb;
        W->d[3][W->n - 1] = trim.zb;
    }

    /* The kept prefix ends at i0 (before the straddler when cut), the
     * kept suffix starts at i1; their boundary chunks' fragments fold
     * into the fresh run. */
    cl = chunk_of(&s, i0 - has_cut);
    nl = cl < s.n ? i0 - has_cut - s.start[cl] : 0;
    cr = chunk_of(&s, i1);
    nr = 0;
    right = cr;
    if (cr < s.n && i1 > s.start[cr]) {
        nr = s.start[cr] + s.len[cr] - i1;
        right = cr + 1;
    }
    if (!reserve_merge(ctx, W->n, blen, nl + has_cut + 1 + nr))
        return ST_FALLBACK;

    at = A->n;
    if (nl) {
        view v = lanes_view(A, s.off[cl], nl);
        push_view(A, &v, 0, nl);
    }
    if (has_cut) push_piece(A, cut);
    from = A->n;
    win = lanes_view(W, 0, W->n);
    ops = merge_sweep(ctx, &win, &b, eps, 1, &nx);
    if (!pieces_ok(A, from)) return ST_FAULT;
    if (has_carry) push_piece(A, carry);
    if (nr) {
        view v = lanes_view(A, s.off[cr], s.len[cr]);
        push_view(A, &v, s.len[cr] - nr, s.len[cr]);
    }
    fresh = A->n - at;
    prev_yb = cl > 0 ? A->d[2][s.off[cl - 1] + s.len[cl - 1] - 1] : -INFINITY;
    next_ya = right < s.n ? A->d[0][s.off[right]] : INFINITY;
    if (!splice_ok(A, at, prev_yb, next_ya)) return ST_FAULT;

    /* The successor's spine: shared prefix, balanced fresh chunks
     * (_chunked), shared suffix. */
    parts = (fresh + CHUNK_TARGET - 1) / CHUNK_TARGET;
    if (!reserve(ctx, L_SPINE, S->n + cl + parts + (s.n - right)))
        return ST_FALLBACK;
    s = spine_view(S, aoff, alen);  /* L_SPINE may have moved */
    X[X_OFF] = S->n;
    for (c = 0; c < cl; c++) {
        S->q[0][S->n] = s.off[c];
        S->q[1][S->n] = s.len[c];
        S->q[2][S->n++] = s.start[c];
    }
    g = cl < s.n ? s.start[cl] : s.total;
    size = parts ? fresh / parts : 0;
    extra = parts ? fresh % parts : 0;
    for (p = 0; p < parts; p++) {
        int64_t k = size + (p < extra);
        S->q[0][S->n] = at;
        S->q[1][S->n] = k;
        S->q[2][S->n++] = g;
        at += k;
        g += k;
    }
    for (c = right; c < s.n; c++) {
        S->q[0][S->n] = s.off[c];
        S->q[1][S->n] = s.len[c];
        S->q[2][S->n++] = g;
        g += s.len[c];
    }
    X[X_OPS] = ops;
    X[X_CROSS] = nx;
    X[X_LEN] = S->n - X[X_OFF];
    X[X_TOTAL] = g;
    X[X_FRESH] = fresh;
    return ST_DONE;
}

/* rope_visible_parts of the segment at lane k against the version at
 * spine [aoff, aoff + alen): the rope_range_pieces window (the straddling
 * predecessor whole, through the keys below the segment's end; a
 * vertical segment spans [y1, y1 + 1e-12]) copied to L_WIN, then
 * leaf_query over it.  Returns what leaf_query returns. */
static int64_t rope_leaf(repro_ctx *ctx, int64_t aoff, int64_t alen,
                         const double *y1, const double *z1,
                         const double *y2, const double *z2,
                         const int64_t *src, int64_t k, double eps,
                         double clip_eps, int64_t *ncross)
{
    lanes *A = &ctx->L[L_PROF], *W = &ctx->L[L_WIN];
    spine s = spine_view(&ctx->L[L_SPINE], aoff, alen);
    double ya = y1[k], yb = y1[k] == y2[k] ? y1[k] + 1e-12 : y2[k];
    int64_t i0 = rope_index_ge(A, &s, ya), i1;
    view win;
    if (i0 > 0 && rope_piece(A, &s, i0 - 1).yb >= ya) i0--;
    i1 = rope_index_ge(A, &s, yb);
    if (!reserve(ctx, L_WIN, i1 - i0)) return -2;
    W->n = 0;
    rope_copy(W, A, &s, i0, i1);
    win = lanes_view(W, 0, W->n);
    return leaf_query(ctx, &win, y1[k], z1[k], y2[k], z2[k], src[k], eps,
                      clip_eps, ncross);
}

/* MODE_ROPE of repro_merge_layer; res rows are RX_W wide. */
static int64_t rope_layer(repro_ctx *ctx, const double *blk, int64_t blk_cap,
                          const double *y1, const double *z1,
                          const double *y2, const double *z2,
                          const int64_t *src, int64_t nj, const int64_t *job,
                          double eps, double clip_eps, int64_t *res)
{
    int64_t j;
    ctx->L[L_XING].n = 0;
    ctx->L[L_PARTS].n = 0;
    ctx->L[L_ROWS].n = 0;
    ctx->L[L_VX].n = 0;
    for (j = 0; j < nj; j++) {
        const int64_t *J = job + J_W * j;
        int64_t *X = res + RX_W * j;
        int64_t ops, nx;
        int st;
        if (J[J_KIND] == 1) {
            X[X_OFF] = ctx->L[L_PARTS].n;
            ops = rope_leaf(ctx, J[J_AOFF], J[J_ALEN], y1, z1, y2, z2, src,
                            J[J_BOFF], eps, clip_eps, &nx);
            if (ops == -2) return ST_FALLBACK;
            if (ops < 0) {
                res[0] = j;
                return ST_FAULT;
            }
            X[X_OPS] = ops;
            X[X_CROSS] = nx;
            X[X_LEN] = ctx->L[L_PARTS].n - X[X_OFF];
            X[X_TOTAL] = X[X_FRESH] = 0;
            continue;
        }
        st = rope_merge(ctx, J[J_AOFF], J[J_ALEN], blk, blk_cap, J[J_BOFF],
                        J[J_BLEN], eps, X);
        if (st == ST_FAULT) res[0] = j;
        if (st != ST_DONE) return st;
    }
    return ST_DONE;
}

/* One PCT layer in one call: nj independent jobs of J_W int64 each,
 * answered in res[] (X_W each).
 *
 * MODE_PCT (build_pct): a merge job is merge_envelopes of pieces
 * [aoff, aoff + alen) and [boff, boff + blen) of the child layer's
 * (5, blk_cap) block, record_crossings as `record`; a leaf job emits
 * the image segment at lane boff (none when vertical).  Every job's
 * profile lands in L_PROF (emptied first) at res[X_OFF], res[X_LEN].
 *
 * MODE_PHASE2 (the direct mode): side a is an inherited profile in
 * L_PROF itself, which is never emptied -- a run's profiles stay in
 * it and later layers read them by offset.  A merge job is
 * splice_merge: locate the window of a overlapping side b (pieces of
 * blk, the left child's PCT profile), merge it with b, and append
 * head + merged window + tail as a fresh profile (blen == 0: a is
 * shared, res[X_OFF..X_LEN] is a itself).  A leaf job runs
 * visible_parts of the segment at lane boff against a: its parts go
 * to L_PARTS at res[X_OFF], res[X_LEN], one clipped row each to
 * L_ROWS at the same index, and its crossings to L_VX.  A kind-2 leaf
 * (batch_visible_parts: sight-line queries against one envelope) is
 * the same query with side a pieces [aoff, aoff + alen) of blk.
 * L_PARTS, L_ROWS, L_VX and L_XING are emptied first.
 *
 * MODE_ROPE (the persistent mode): side a is a rope version, its spine
 * at [aoff, aoff + alen) of L_SPINE; L_PROF (the piece arena) and
 * L_SPINE are never emptied.  A merge job is rope_splice_merge of side
 * b into it (rope_merge), its res row RX_W wide: the successor's spine
 * at res[X_OFF], res[X_LEN] (a itself when blen == 0), its piece count
 * and fresh slots.  A leaf job is rope_visible_parts (rope_leaf), its
 * outputs as in MODE_PHASE2.
 *
 * Returns ST_DONE; ST_FAULT when a merged window, a fresh rope run or
 * a leaf's parts fail their post-condition (res[0] = the job);
 * ST_FALLBACK on scratch OOM.  Either way the caller discards the whole
 * call. */
int64_t repro_merge_layer(
    repro_ctx *ctx, int64_t mode, const double *blk, int64_t blk_cap,
    const double *y1, const double *z1, const double *y2,
    const double *z2, const int64_t *src, int64_t nj,
    const int64_t *job, int64_t record, double eps, double clip_eps,
    int64_t *res)
{
    lanes *O = &ctx->L[L_PROF];
    int64_t j;
    if (mode == MODE_ROPE)
        return rope_layer(ctx, blk, blk_cap, y1, z1, y2, z2, src, nj, job,
                          eps, clip_eps, res);
    if (mode == MODE_PCT) O->n = 0;
    ctx->L[L_XING].n = 0;
    ctx->L[L_PARTS].n = 0;
    ctx->L[L_ROWS].n = 0;
    ctx->L[L_VX].n = 0;
    for (j = 0; j < nj; j++) {
        const int64_t *J = job + J_W * j;
        int64_t *X = res + X_W * j;
        int64_t aoff = J[J_AOFF], alen = J[J_ALEN];
        int64_t boff = J[J_BOFF], blen = J[J_BLEN];
        view a, b, win;
        int64_t lo, hi, from, ops, nx;
        if (J[J_KIND] == 1 && mode == MODE_PCT) {
            /* Leaf: FlatEnvelope.from_segment. */
            if (!reserve(ctx, L_PROF, O->n + 1)) return ST_FALLBACK;
            X[X_OPS] = 1;
            X[X_CROSS] = 0;
            X[X_OFF] = O->n;
            if (y1[boff] != y2[boff])
                push(O, y1[boff], z1[boff], y2[boff], z2[boff], src[boff]);
            X[X_LEN] = O->n - X[X_OFF];
            continue;
        }
        if (J[J_KIND] != 0) {
            /* Leaf: visible_parts against the inherited profile, or
             * (kind 2) against pieces of blk. */
            a = J[J_KIND] == 2 ? block_view(blk, blk_cap, aoff, alen)
                               : lanes_view(O, aoff, alen);
            X[X_OFF] = ctx->L[L_PARTS].n;
            ops = leaf_query(ctx, &a, y1[boff], z1[boff], y2[boff],
                             z2[boff], src[boff], eps, clip_eps, &nx);
            if (ops == -2) return ST_FALLBACK;
            if (ops < 0) {
                res[0] = j;
                return ST_FAULT;
            }
            X[X_OPS] = ops;
            X[X_CROSS] = nx;
            X[X_LEN] = ctx->L[L_PARTS].n - X[X_OFF];
            continue;
        }
        b = block_view(blk, blk_cap, boff, blen);
        if (mode == MODE_PCT) {
            a = block_view(blk, blk_cap, aoff, alen);
            if (!reserve_merge(ctx, alen, blen, 0)) return ST_FALLBACK;
            from = O->n;
            ops = merge_sweep(ctx, &a, &b, eps, (int)record, &nx);
            if (!pieces_ok(O, from)) {
                res[0] = j;
                return ST_FAULT;
            }
            X[X_OPS] = ops;
            X[X_CROSS] = nx;
            X[X_OFF] = from;
            X[X_LEN] = O->n - from;
            continue;
        }
        if (blen == 0) {
            /* Empty intermediate: the parent passes through shared. */
            X[X_OPS] = 0;
            X[X_CROSS] = 0;
            X[X_OFF] = aoff;
            X[X_LEN] = alen;
            continue;
        }
        a = lanes_view(O, aoff, alen);
        overlapping(&a, b.ya[0], b.yb[blen - 1], &lo, &hi);
        if (!reserve_merge(ctx, hi - lo, blen, alen - (hi - lo)))
            return ST_FALLBACK;
        a = lanes_view(O, aoff, alen);  /* L_PROF may have moved */
        win = a;
        win.ya += lo; win.za += lo; win.yb += lo; win.zb += lo;
        win.src += lo;
        win.n = hi - lo;
        X[X_OFF] = O->n;
        push_view(O, &a, 0, lo);
        from = O->n;
        ops = merge_sweep(ctx, &win, &b, eps, (int)record, &nx);
        if (!pieces_ok(O, from)) {
            res[0] = j;
            return ST_FAULT;
        }
        push_view(O, &a, hi, alen);
        X[X_OPS] = ops;
        X[X_CROSS] = nx;
        X[X_LEN] = O->n - X[X_OFF];
    }
    return ST_DONE;
}

/* ==== the whole insert pass (SequentialHSR._insert_loop) ========== */

/* The all-hidden shortcut of an insert: a gap-free window covering
 * [y1, y2] whose lowest endpoint clears the segment's top by the margin
 * eps + 1e-12 (|minz| + |top| + 1), so visible_parts finds no part, in
 * one op per piece. */
static int all_hidden(const view *w, double y1, double z1, double y2,
                      double z2, double eps)
{
    int64_t j, n = w->n;
    double top = z1 >= z2 ? z1 : z2, minz, prev_yb;
    if (!(n && top < w->za[0] && w->ya[0] <= y1 && w->yb[n - 1] >= y2))
        return 0;
    minz = w->za[0] <= w->zb[0] ? w->za[0] : w->zb[0];
    prev_yb = w->yb[0];
    for (j = 1; j < n; j++) {
        if (w->ya[j] != prev_yb) return 0;
        prev_yb = w->yb[j];
        if (w->za[j] < minz) minz = w->za[j];
        if (w->zb[j] < minz) minz = w->zb[j];
    }
    return minz - top > eps + 1e-12 * (fabs(minz) + fabs(top) + 1.0);
}

/* Whether v holds a synthetic (negative-source) piece: the merge of an
 * insert declines those to the Python reference. */
static int has_synthetic(const view *v)
{
    int64_t j;
    for (j = 0; j < v->n; j++)
        if (v->src[j] < 0) return 1;
    return 0;
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

/* Commit the merged window merge_sweep left in L_PROF: pieces_ok, then
 * PackedProfile._splice_impl in place.  ST_DONE (state updated),
 * ST_GROW (no slack: nothing touched, the caller reallocates) or
 * ST_FAULT (post-condition failed, nothing touched). */
static int commit_window(repro_ctx *ctx, double *buf, int64_t cap,
                         int64_t *state, int64_t *out)
{
    const lanes *M = &ctx->L[L_PROF];
    int64_t beg = state[0], end = state[1];
    int64_t n = end - beg;
    int64_t lo = out[O_LO], hi = out[O_HI], ko = out[O_MK];
    int64_t d, head, tail, a;

    if (!pieces_ok(M, 0)) return ST_FAULT;
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
    memcpy(buf + a, M->d[0], (size_t)ko * sizeof(double));
    memcpy(buf + cap + a, M->d[1], (size_t)ko * sizeof(double));
    memcpy(buf + 2 * cap + a, M->d[2], (size_t)ko * sizeof(double));
    memcpy(buf + 3 * cap + a, M->d[3], (size_t)ko * sizeof(double));
    memcpy((int64_t *)(buf + 4 * cap) + a, M->q[0],
           (size_t)ko * sizeof(int64_t));
    state[0] = beg;
    state[1] = end;
    return ST_DONE;
}

/* acc[] layout of repro_insert_run (mirrored in repro/envelope/_ccore.py) */
#define R_OPS    0  /* running sum of per-insert ops                  */
#define R_MAX    1  /* running max of the live profile size           */
#define R_STATUS 2  /* why the last call returned                     */
#define R_ROWS   3  /* visible rows L_ROWS holds after the call       */

/* Inserts [start, stop) of the front-to-back image lanes into the
 * live profile, each exactly as _insert_reference would: the locate,
 * leaf_query over the window (the live profile for a vertical), and
 * -- when a non-vertical segment has a visible part -- merge_sweep of
 * the window with the segment into L_PROF and commit_window.  Per
 * insert i it adds the ops to acc[R_OPS], the profile size to the
 * acc[R_MAX] maximum, and the clipped visible rows to L_ROWS, with
 * off[i - start + 1] = off[i - start] + rows.  L_ROWS is not emptied,
 * so the rows of a run's calls accumulate in its context; off points
 * at slot start of the run's offsets (n + 1 slots), whose off[0] an
 * earlier call or the caller has written.
 *
 * Returns the index it stopped at.  stop: every insert done
 * (acc[R_STATUS] = ST_DONE).  Otherwise acc[R_STATUS] says why:
 * ST_GROW -- insert i is fully accounted but its merged window (in
 * L_PROF, out[O_LO..O_MK]) still needs a reallocating commit;
 * ST_FALLBACK (leaf_query's -1 or -2, a merge with a synthetic source,
 * scratch OOM) and ST_FAULT (commit post-condition) -- insert i is
 * untouched and unaccounted.  The caller resumes at i + 1. */
int64_t repro_insert_run(
    repro_ctx *ctx, double *buf, int64_t cap, int64_t *state,
    const double *y1, const double *z1, const double *y2,
    const double *z2, const int64_t *src, int64_t start, int64_t stop,
    double eps, double clip_eps, int64_t *off, int64_t *acc,
    int64_t *out)
{
    lanes *R = &ctx->L[L_ROWS], *P = &ctx->L[L_PARTS];
    int64_t i, size;
    int st = ST_DONE;
    for (i = start; i < stop; i++) {
        view live = block_view(buf, cap, state[0], state[1] - state[0]);
        view win, seg = {y1 + i, z1 + i, y2 + i, z2 + i, src + i, 1};
        int64_t rows = R->n, lo, hi, ops, nx;
        int vertical = y1[i] == y2[i], merge;
        overlapping(&live, y1[i], y2[i], &lo, &hi);
        win = block_view(buf, cap, state[0] + lo, hi - lo);
        if (all_hidden(&win, y1[i], z1[i], y2[i], z2[i], eps)) {
            ops = win.n;
        } else {
            P->n = ctx->L[L_VX].n = ctx->L[L_PROF].n = 0;
            ops = leaf_query(ctx, vertical ? &live : &win, y1[i], z1[i],
                             y2[i], z2[i], src[i], eps, clip_eps, &nx);
            merge = !vertical && P->n > 0;
            if (ops < 0
                || (merge && (has_synthetic(&seg) || has_synthetic(&win)
                              || !reserve_merge(ctx, win.n, 1, 0)))) {
                R->n = rows;
                st = ST_FALLBACK;
                break;
            }
            if (merge) {
                ops += merge_sweep(ctx, &win, &seg, eps, 0, &nx);
                out[O_LO] = lo;
                out[O_HI] = hi;
                out[O_MK] = ctx->L[L_PROF].n;
                st = commit_window(ctx, buf, cap, state, out);
                if (st == ST_FAULT) {
                    R->n = rows;
                    break;
                }
            }
        }
        acc[R_OPS] += ops;
        off[i - start + 1] = off[i - start] + (R->n - rows);
        size = state[1] - state[0];
        if (st == ST_GROW) size += out[O_MK] - (out[O_HI] - out[O_LO]);
        if (size > acc[R_MAX]) acc[R_MAX] = size;
        if (st == ST_GROW) break;
    }
    acc[R_STATUS] = st;
    acc[R_ROWS] = R->n;
    return i;
}

/* ==== front-to-back ordering (repro/ordering/sweep.py) ============== */

/* Decline codes of repro_front_to_back.  A non-negative return is
 * the count of ordered edges.  With sources equal to lane indices the
 * constraint graph has no cycle, so that count is n: every constraint
 * (f, b) has f after b in the order in which the status list ever held
 * its entries — an insertion lands between its live neighbours and
 * entries never swap — and a cycle needs permuted sources, which
 * OR_INPUT declines.  The wrapper still treats anything but n as a
 * decline. */
#define OR_OOM     (-1)  /* scratch allocation failed                  */
#define OR_INPUT   (-2)  /* a source other than its lane index, or a
                          * NaN sweep y                                */
#define OR_MISSING (-3)  /* a removal found no status entry            */

/* Map-segment lanes.  Sources equal lane indices (checked by the
 * entry point), so a status entry's lane is its source. */
typedef struct {
    const double *x1, *y1, *x2, *y2;
} map_lanes;

/* One sweep event: the orderable bits of its y and ev = idx * 4 +
 * kind; kinds: 0 removal, 1 horizontal insert+remove, 2 insertion. */
typedef struct {
    uint64_t key;
    int64_t ev;
} sweep_event;

/* Bits of y + 0.0 whose unsigned order is the float order of non-NaN
 * doubles (-0.0 folds onto +0.0, which compares equal to it). */
static uint64_t y_key(double y)
{
    uint64_t u;
    y += 0.0;
    memcpy(&u, &y, sizeof u);
    return (u >> 63) ? ~u : (u | 0x8000000000000000ULL);
}

#define RADIX_BITS 11
#define RADIX_PASSES 6  /* 6 * 11 >= 64 */
#define RADIX_SIZE (1 << RADIX_BITS)

/* Stable LSD radix sort of ev[0..ne) by key; tmp holds ne events.
 * A pass whose digit is the same for every event is skipped. */
static int radix_sort_events(sweep_event *ev, sweep_event *tmp, int64_t ne)
{
    int64_t *cnt = (int64_t *)calloc(
        (size_t)RADIX_PASSES * RADIX_SIZE, sizeof(int64_t));
    sweep_event *from = ev, *to = tmp, *sw;
    int64_t e, d, sum, c;
    int p, shift;
    if (!cnt) return 0;
    if (ne == 0) { free(cnt); return 1; }
    for (e = 0; e < ne; e++)
        for (p = 0; p < RADIX_PASSES; p++)
            cnt[p * RADIX_SIZE
                + ((ev[e].key >> (p * RADIX_BITS)) & (RADIX_SIZE - 1))]++;
    for (p = 0; p < RADIX_PASSES; p++) {
        int64_t *h = cnt + p * RADIX_SIZE;
        shift = p * RADIX_BITS;
        if (h[(from[0].key >> shift) & (RADIX_SIZE - 1)] == ne) continue;
        for (sum = 0, d = 0; d < RADIX_SIZE; d++) {
            c = h[d];
            h[d] = sum;
            sum += c;
        }
        for (e = 0; e < ne; e++)
            to[h[(from[e].key >> shift) & (RADIX_SIZE - 1)]++] = from[e];
        sw = from; from = to; to = sw;
    }
    if (from != ev) memcpy(ev, from, (size_t)ne * sizeof(sweep_event));
    free(cnt);
    return 1;
}

/* The events of the Python sweep in its events.sort() order — (y,
 * kind, idx) tuples: a counting pass lays them out by kind, each
 * kind in idx order, and the stable radix sort on y keeps that order
 * among equal y (keys are unique tuples; NaN y is declined). */
static int64_t sweep_events(const map_lanes *L, int64_t n, sweep_event *ev,
                            sweep_event *tmp)
{
    int64_t i, nh = 0, pos[3];
    for (i = 0; i < n; i++) nh += L->y1[i] == L->y2[i];
    pos[0] = 0;
    pos[1] = n - nh;
    pos[2] = n;
    for (i = 0; i < n; i++) {
        if (L->y1[i] == L->y2[i]) {
            ev[pos[1]].key = y_key(L->y1[i]); ev[pos[1]++].ev = 4 * i + 1;
        } else {
            ev[pos[2]].key = y_key(L->y1[i]); ev[pos[2]++].ev = 4 * i + 2;
            ev[pos[0]].key = y_key(L->y2[i]); ev[pos[0]++].ev = 4 * i;
        }
    }
    if (!radix_sort_events(ev, tmp, 2 * n - nh)) return -1;
    return 2 * n - nh;
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
    return a < b;
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
        (size_t)(4 * n + 2) * sizeof(sweep_event));
    int64_t *status = (int64_t *)malloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t ne, len = 0, k = 0, e, i, pos, scan, ret;
    if (!ev || !status) { ret = OR_OOM; goto DONE; }
    ne = sweep_events(L, n, ev, ev + 2 * n + 1);
    if (ne < 0) { ret = OR_OOM; goto DONE; }

    for (e = 0; e < ne; e++) {
        i = ev[e].ev >> 2;
        if ((ev[e].ev & 3) == 0) {
            /* remove(): the Python sweep bisects, then scans for the
             * exact source; a lane is in the status at most once, so
             * the scan's answer is the lane's only position. */
            for (scan = 0; scan < len && status[scan] != i; scan++) {}
            if (scan == len) { ret = OR_MISSING; goto DONE; }
            memmove(status + scan, status + scan + 1,
                    (size_t)(len - scan - 1) * sizeof(int64_t));
            len--;
            if (0 < scan && scan < len) {
                cons[2 * k] = status[scan];
                cons[2 * k + 1] = status[scan - 1];
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
            cons[2 * k + 1] = status[pos - 1];
            k++;
        }
        if (pos + 1 < len) {
            cons[2 * k] = status[pos + 1];
            cons[2 * k + 1] = i;
            k++;
        }
        if ((ev[e].ev & 3) == 1) {
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
    L.x1 = x1; L.y1 = y1; L.x2 = x2; L.y2 = y2;
    *ncons = 0;
    for (i = 0; i < n; i++)
        if (src[i] != i || y1[i] != y1[i] || y2[i] != y2[i])
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
    import subprocess
    import sys

    # In-place build: the one route setup.py takes (and perfbench runs),
    # so a single ``_repro_ccore`` binary lands next to this file and the
    # PYTHONPATH=src layout imports it without an install step.
    root = os.path.dirname(
        os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    )
    subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=root,
        check=True,
    )
