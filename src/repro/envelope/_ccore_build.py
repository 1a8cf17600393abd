"""cffi out-of-line API builder for the compiled core.

Running this module (``python src/repro/envelope/_ccore_build.py``)
runs ``setup.py build_ext --inplace``, which compiles
``repro.envelope._repro_ccore`` — a small C extension with
seven entry points.

``repro_insert_run`` runs the whole insert pass of the sequential
algorithm over the front-to-back image lanes in one call, from an
empty live profile the context owns (``L_LIVE``: the five lanes of a
:class:`~repro.envelope.packed.PackedProfile`, with slack at both
ends), each insert as the reference insert
(:func:`~repro.envelope.flat_splice._insert_reference`) does it, with
the kernels the phase calls share:

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
  with the segment — and ``commit_window``, which checks the merged
  window and its fit between the two kept neighbours, then makes the
  in-place window write + single head/tail shift splice of
  :meth:`~repro.envelope.packed.PackedProfile.splice`
  (``_splice_impl`` semantics: shrink shifts the smaller side inward,
  growth prefers the cheaper fitting side, and with no slack
  ``_grow_splice``'s re-centred copy into twice the new size).

An insert the core does not answer (a synthetic source, a part it
cannot clip) declines the whole run, which Python then runs on the
reference.

``repro_pct_build`` and ``repro_phase2_run`` run the two phases of
the paper's algorithm, each in one call that walks the separator
tree's shape itself (``tree_shape``).  Their merges port the scalar
two-envelope sweep of :func:`~repro.envelope.merge.merge_envelopes`
(breakpoint union, eps signs, the ``t = du / (du - dv)`` flip and its
clamp, ``EnvelopeBuilder`` coalescing, the empty-side shortcuts).
Phase 1 (:func:`~repro.hsr.pct.build_pct`) is full merges of child
profiles, bottom-up from the leaves' segments, into one block.
Phase 2's ``direct`` mode is :func:`~repro.envelope.splice.splice_merge`
— window locate, merge, and a splice into a fresh profile row — plus
the leaves' :func:`~repro.envelope.visibility.visible_parts` queries,
clipped into rows — the two kernels of ``repro_insert_run``.  Its
``persistent`` mode is :func:`~repro.persistence.rope.rope_splice_merge` and
:func:`~repro.persistence.rope.rope_visible_parts` on the chunked rope,
whose versions the context keeps: chunks are ``(offset, length)`` runs
of a piece arena, a version is a spine of chunks, and a successor
shares every chunk outside its fresh run (the ``SpliceRange`` cuts in
``Piece.clipped`` arithmetic, fresh runs balanced into chunks of at
most ``CHUNK_TARGET`` pieces — the Python rope's chunk boundaries, so
its fresh slot count too).  Phase 2 walks the tree depth first, so
the leaves' outputs come in front-to-back position order and the
inherited profiles are a stack in the context.

``repro_envelope_build`` is the D&C envelope build of
:func:`~repro.envelope.build.build_envelope` in one call: the
recursion walked depth first, each merge the Phase-1 merge with its
crossings recorded, so the crossings and the merges' ``ops`` come out
in the reference recursion's post-order.  ``repro_query_batch`` answers
a batch of sight-line queries against one envelope
(:func:`~repro.envelope.flat_visibility.batch_visible_parts`): the
Phase-2 leaf query of each query lane against a block the caller
passes.

``repro_front_to_back`` is the front-to-back ordering of
:func:`~repro.ordering.sweep.front_to_back_order` in one call over
``(x1, y1, x2, y2, source)`` map-segment lanes whose sources are the
lane indices (a terrain's lanes; anything else is declined).  Given a
terrain's face table, the constraints are the in-front pairs of each
face's three edges plus the plane sweep over the boundary edges alone
— the same transitive closure as the full sweep, so the same Kahn
order, in linear time.  Without a table, or when that face pass
declines (a map-horizontal edge, a tie, an edge in three faces, a NaN,
a cycle), the same call runs the full sweep: the ``(y, kind, idx)``
event order — a counting pass by kind in idx order, then a stable LSD
radix sort on the orderable bits of ``y + 0.0`` — the status
bisection with the ``_StatusEntry.__lt__`` comparator
(``in_front_comparison`` at the common-range midpoint, then the source
tie-break), and a removal found by its lane index (the one entry the
Python sweep's exact-source scan finds).  Both end in Kahn's
topological sort with a heap keyed by ``sign * i``, and the call
reports which path answered.  It declines (negative return) and the
Python sweep answers, raising its own errors; a constraint cycle of
the sweep needs permuted sources, so the C sweep never meets one.

``repro_points_visible`` answers a batch of observer points
(:func:`~repro.hsr.queries.visible_many`) over a terrain's ``(8, n)``
point lanes sorted by low ordinate: per observer the window of edges
that can cover its ordinate (two binary searches), then per edge
:func:`~repro.hsr.queries.point_visible`'s covers test, ``x_at`` /
``z_at`` arithmetic, front test and running max.  It is a pure
function — no context, no allocation, no decline — and sits last in
the source, after the ordering, so the other entries keep their order
in the text section.

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

Buffer ownership: the caller owns every input buffer and the C side
only reads them, apart from the result arrays it fills.  All scratch
— live and merged profiles, visible parts, rows — lives in a
``repro_ctx`` that Python creates per run
(:class:`repro.envelope._ccore.Core`) and frees with it, grown by the
C side as needed.  Python copies results out before the next call on
the same context; a Phase-2 call keeps its profiles (or its rope's
pieces and spines) in the context while it walks the tree, and an
insert run its live profile.

Concurrency: nothing is static, so the core is reentrant.  cffi
API-mode wrappers release the GIL around each call, and two threads
may run the core at once as long as each uses its own context (every
run creates its own; the observer scan needs none, so two threads may
share one session's lanes).

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
int64_t repro_lanes_take(repro_ctx *ctx, int which, double *dst,
                         int64_t stride);
int64_t repro_insert_run(
    repro_ctx *ctx, int64_t n, const double *y1, const double *z1,
    const double *y2, const double *z2, const int64_t *src, double eps,
    double clip_eps, int64_t *off, int64_t *res);
int64_t repro_pct_build(
    repro_ctx *ctx, int64_t n, const double *y1, const double *z1,
    const double *y2, const double *z2, const int64_t *src, double eps,
    int64_t *res);
int64_t repro_phase2_run(
    repro_ctx *ctx, int64_t mode, int64_t n, const double *blk,
    int64_t blk_cap, const int64_t *poff, const int64_t *plen,
    const double *y1, const double *z1, const double *y2,
    const double *z2, const int64_t *src, double eps, double clip_eps,
    int64_t *res, int64_t *leaf);
int64_t repro_envelope_build(
    repro_ctx *ctx, int64_t n, const double *y1, const double *z1,
    const double *y2, const double *z2, const int64_t *src, double eps,
    int64_t *ops);
int64_t repro_query_batch(
    repro_ctx *ctx, const double *blk, int64_t n, int64_t nq,
    const double *y1, const double *z1, const double *y2,
    const double *z2, const int64_t *src, double eps, double clip_eps,
    int64_t *leaf);
int64_t repro_front_to_back(
    int64_t n, const double *x1, const double *y1, const double *x2,
    const double *y2, const int64_t *src, int64_t sign,
    int64_t nf, const int64_t *fe, int64_t nb, const int64_t *bnd,
    int64_t *order, int64_t *cons, int64_t *ncons, int64_t *path);
void repro_points_visible(
    int64_t n, const double *lanes, double span, int64_t m,
    const double *px, const double *py, const double *pz, double eps,
    uint8_t *out);
"""

C_SOURCE = r"""
#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* Status codes (mirrored in repro/envelope/_ccore.py). */
#define ST_DONE     1  /* the call's work is done                   */
#define ST_FALLBACK 3  /* the insert run declines: Python answers it */
#define ST_OOM      4  /* scratch allocation failed                  */
#define ST_FAULT    5  /* a post-condition failed                    */

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
#define L_LIVE  8  /* an insert run's profile: ya za yb zb | src      */
#define N_LANES 9

static const int LANE_ND[N_LANES] = {4, 4, 4, 2, 2, 2, 1, 0, 4};
static const int LANE_NQ[N_LANES] = {1, 1, 1, 2, 0, 0, 0, 3, 1};

/* The live profile of an insert run is pieces [beg, n) of L_LIVE, with
 * slack on both sides (see commit_window). */
typedef struct repro_ctx {
    lanes L[N_LANES];
    int64_t beg;
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
    ctx->beg = 0;
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

/* ==== the PCT kernels ============================================== */

/* X[] row of one splice merge (splice_job, rope_merge). */
#define X_OPS   0  /* the merge's ops                                  */
#define X_CROSS 1  /* its crossing count                               */
#define X_OFF   2  /* the new profile (rope: its spine): offset, length */
#define X_LEN   3
#define X_TOTAL 4  /* rope: the new version's piece count              */
#define X_FRESH 5  /* rope: the piece slots written into fresh chunks  */
#define X_W     6

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

/* splice_merge of side b into the profile at L_PROF [aoff, aoff + alen):
 * locate the window of a overlapping b, merge it with b, and append
 * head + merged window + tail as a fresh profile, its crossings to
 * L_XING.  An empty b shares a.  Fills X[X_OPS .. X_LEN] (the profile
 * at X_OFF, X_LEN); returns ST_DONE, ST_FAULT (the merged window fails
 * its check) or ST_OOM. */
static int splice_job(repro_ctx *ctx, int64_t aoff, int64_t alen,
                      const view *b, double eps, int64_t *X)
{
    lanes *O = &ctx->L[L_PROF];
    view a, win;
    int64_t lo, hi, from, nx;
    X[X_OPS] = X[X_CROSS] = 0;
    X[X_OFF] = aoff;
    X[X_LEN] = alen;
    if (b->n == 0) return ST_DONE;
    a = lanes_view(O, aoff, alen);
    overlapping(&a, b->ya[0], b->yb[b->n - 1], &lo, &hi);
    if (!reserve_merge(ctx, hi - lo, b->n, alen - (hi - lo)))
        return ST_OOM;
    a = lanes_view(O, aoff, alen);  /* L_PROF may have moved */
    win = a;
    win.ya += lo; win.za += lo; win.yb += lo; win.zb += lo;
    win.src += lo;
    win.n = hi - lo;
    X[X_OFF] = O->n;
    push_view(O, &a, 0, lo);
    from = O->n;
    X[X_OPS] = merge_sweep(ctx, &win, b, eps, 1, &nx);
    if (!pieces_ok(O, from)) return ST_FAULT;
    push_view(O, &a, hi, alen);
    X[X_CROSS] = nx;
    X[X_LEN] = O->n - X[X_OFF];
    return ST_DONE;
}

/* ---- the persistent Phase 2: the chunked rope in the context -------
 * A profile version of repro/persistence/rope.py lives here as a spine:
 * a run of L_SPINE entries, one per chunk, holding the chunk's first
 * piece in the L_PROF arena, its piece count and its first global piece
 * index.  Chunks are never written once committed, so a successor
 * version copies the entries of every untouched chunk and shares its
 * pieces; only the fresh run around a splice is written anew. */

#define CHUNK_TARGET 32  /* repro.persistence.rope.CHUNK_TARGET        */

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

/* Whether pieces [from, O->n) sit between their kept neighbours: the
 * first starts at or after prev_yb, the last ends at or before
 * next_ya. */
static int fits_between(const lanes *O, int64_t from, double prev_yb,
                        double next_ya)
{
    return O->n == from
        || (prev_yb <= O->d[0][from] && !(O->d[2][O->n - 1] > next_ya));
}

/* _check_splice_pieces on the fresh run [from, O->n): strictly positive
 * widths, sorted, no NaN heights, between the kept neighbours. */
static int splice_ok(const lanes *O, int64_t from, double prev_yb,
                     double next_ya)
{
    int64_t j;
    for (j = from; j < O->n; j++) {
        if (!(O->d[0][j] < O->d[2][j])) return 0;
        if (O->d[1][j] != O->d[1][j] || O->d[3][j] != O->d[3][j]) return 0;
        if (j > from && !(O->d[2][j - 1] <= O->d[0][j])) return 0;
    }
    return fits_between(O, from, prev_yb, next_ya);
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
 * its check) or ST_OOM. */
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
    if (!reserve(ctx, L_WIN, has_cut + (i1 - i0))) return ST_OOM;
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
        return ST_OOM;

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
        return ST_OOM;
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

/* ==== whole phases of the PCT (repro/hsr/pct.py, phase2.py) ======= */

/* res[] row of a node (mirrored in repro/envelope/_ccore.py): both
 * phases, then Phase 1's, then Phase 2's. */
#define T_OPS   0  /* the node's ops                                   */
#define T_LEAF  1  /* 1 for a leaf, 0 for a merge                      */
#define T_OFF   2  /* Phase 1: the node's profile in L_PROF            */
#define T_LEN   3
#define T1_W    4
#define T_CROSS 2  /* Phase 2: a merge's crossings (a leaf's: leaf[])  */
#define T_INH   3  /* pieces of the inherited profile (rope: version)  */
#define T_NEW   4  /* pieces materialised (direct), fresh slots (rope) */
#define T2_W    5

/* Modes of repro_phase2_run (mirrored in repro/envelope/_ccore.py). */
#define MODE_PHASE2 2  /* direct: splice merges of array profiles      */
#define MODE_ROPE   3  /* persistent: splice merges of rope versions   */

/* leaf[] row of a Phase-2 leaf, by order position, and of a query of
 * repro_query_batch, by lane. */
#define LF_OPS   0
#define LF_PARTS 1  /* its visible parts (and clipped rows)            */
#define LF_CROSS 2
#define LF_W     3

/* The SeparatorTree shape over n leaves, numbered breadth first: node
 * i spans order positions [lo, hi) = t[i], t[m + i] (m = 2n - 1 nodes);
 * an internal node splits at (lo + hi) / 2 into nodes kid and kid + 1,
 * kid = t[2m + i], and a leaf has kid -1.  NULL when out of memory;
 * the caller frees it. */
static int64_t *tree_shape(int64_t n)
{
    int64_t m = 2 * n - 1, i, k = 1;
    int64_t *t = (int64_t *)malloc((size_t)(3 * m) * sizeof(int64_t));
    int64_t *lo, *hi, *kid;
    if (!t) return NULL;
    lo = t;
    hi = t + m;
    kid = t + 2 * m;
    lo[0] = 0;
    hi[0] = n;
    for (i = 0; i < m; i++) {
        kid[i] = -1;
        if (hi[i] - lo[i] > 1) {
            kid[i] = k;
            lo[k] = lo[i];
            hi[k] = lo[k + 1] = (lo[i] + hi[i]) / 2;
            hi[k + 1] = hi[i];
            k += 2;
        }
    }
    return t;
}

/* Phase 1 (build_pct) in one call over the tree of the n lanes: every
 * node, children before parents (indices descending).  A leaf is
 * FlatEnvelope.from_segment of its lane (no piece when vertical), 1
 * op; a merge is merge_envelopes of its children's profiles, crossings
 * not recorded.  Every profile lands in L_PROF (emptied first), at
 * res[T_OFF], res[T_LEN] of its node's T1_W-wide row.  Returns ST_DONE;
 * ST_FAULT when a merged profile fails pieces_ok (res[0] = the node);
 * ST_OOM on scratch OOM.  Either way the caller discards the
 * whole call. */
int64_t repro_pct_build(
    repro_ctx *ctx, int64_t n, const double *y1, const double *z1,
    const double *y2, const double *z2, const int64_t *src, double eps,
    int64_t *res)
{
    lanes *O = &ctx->L[L_PROF];
    int64_t m = 2 * n - 1, i, st = ST_DONE, nx;
    int64_t *t, *kid;
    if (n <= 0) return ST_DONE;
    t = tree_shape(n);
    if (!t) return ST_OOM;
    kid = t + 2 * m;
    repro_ctx_clear(ctx);
    for (i = m - 1; i >= 0; i--) {
        int64_t *X = res + T1_W * i, k = kid[i];
        X[T_LEAF] = k < 0;
        if (k < 0) {
            int64_t e = t[i];
            if (!reserve(ctx, L_PROF, O->n + 1)) {
                st = ST_OOM;
                break;
            }
            X[T_OPS] = 1;
            X[T_OFF] = O->n;
            if (y1[e] != y2[e]) push(O, y1[e], z1[e], y2[e], z2[e], src[e]);
        } else {
            const int64_t *L = res + T1_W * k, *R = L + T1_W;
            view a, b;
            if (!reserve_merge(ctx, L[T_LEN], R[T_LEN], 0)) {
                st = ST_OOM;
                break;
            }
            a = lanes_view(O, L[T_OFF], L[T_LEN]);
            b = lanes_view(O, R[T_OFF], R[T_LEN]);
            X[T_OFF] = O->n;
            X[T_OPS] = merge_sweep(ctx, &a, &b, eps, 0, &nx);
            if (!pieces_ok(O, X[T_OFF])) {
                res[0] = i;
                st = ST_FAULT;
                break;
            }
        }
        X[T_LEN] = O->n - X[T_OFF];
    }
    free(t);
    return st;
}

/* One D&C envelope build: its inputs, and the merges' ops in
 * post-order. */
typedef struct {
    repro_ctx *ctx;
    const double *y1, *z1, *y2, *z2;
    const int64_t *src;
    double eps;
    int64_t *ops, k;
} build;

/* Node [lo, hi) of the build: a leaf pushes its segment (none when
 * vertical); a merge builds both halves, which then sit back to back at
 * the end of L_PROF, runs merge_sweep on them with crossings recorded
 * and moves the result down over them.  So the crossings reach L_XING
 * in the reference recursion's post-order, as the ops reach b->ops. */
static int build_node(build *b, int64_t lo, int64_t hi)
{
    repro_ctx *ctx = b->ctx;
    lanes *O = &ctx->L[L_PROF];
    int64_t mid = (lo + hi) / 2, a0 = O->n, b0, from, nx, k, f;
    view l, r;
    int st;
    if (hi - lo == 1) {
        if (!reserve(ctx, L_PROF, O->n + 1)) return ST_OOM;
        if (b->y1[lo] != b->y2[lo])
            push(O, b->y1[lo], b->z1[lo], b->y2[lo], b->z2[lo], b->src[lo]);
        return ST_DONE;
    }
    st = build_node(b, lo, mid);
    if (st != ST_DONE) return st;
    b0 = O->n;
    st = build_node(b, mid, hi);
    if (st != ST_DONE) return st;
    from = O->n;
    if (!reserve_merge(ctx, b0 - a0, from - b0, 0)) return ST_OOM;
    l = lanes_view(O, a0, b0 - a0);
    r = lanes_view(O, b0, from - b0);
    b->ops[b->k] = merge_sweep(ctx, &l, &r, b->eps, 1, &nx);
    if (!pieces_ok(O, from)) {
        b->ops[0] = b->k;
        return ST_FAULT;
    }
    b->k++;
    k = O->n - from;
    for (f = 0; f < 4; f++)
        memmove(O->d[f] + a0, O->d[f] + from, (size_t)k * sizeof(double));
    memmove(O->q[0] + a0, O->q[0] + from, (size_t)k * sizeof(int64_t));
    O->n = a0 + k;
    return ST_DONE;
}

/* build_envelope (Lemma 3.1) in one call over the n lanes, which hold
 * no vertical segment: the recursion split at (lo + hi) / 2, depth
 * first (build_node).  The root's profile is all of L_PROF and the
 * crossings are all of L_XING (both emptied first); ops[] gets the n - 1
 * merges' ops in post-order.  Returns ST_DONE; ST_FAULT when a merged
 * profile fails pieces_ok (ops[0] = its post-order index); ST_OOM
 * on scratch OOM.  Either way the caller discards the whole call. */
int64_t repro_envelope_build(
    repro_ctx *ctx, int64_t n, const double *y1, const double *z1,
    const double *y2, const double *z2, const int64_t *src, double eps,
    int64_t *ops)
{
    build b = {ctx, y1, z1, y2, z2, src, eps, ops, 0};
    repro_ctx_clear(ctx);
    return n > 0 ? build_node(&b, 0, n) : ST_DONE;
}

/* One Phase-2 run: its inputs and outputs. */
typedef struct {
    repro_ctx *ctx;
    int rope;
    const double *blk;
    int64_t cap;
    const int64_t *poff, *plen;  /* the PCT profiles in blk, by node */
    const double *y1, *z1, *y2, *z2;
    const int64_t *src;
    const int64_t *lo, *kid;  /* tree_shape */
    double eps, clip_eps;
    int64_t *res, *leaf;
} walk;

/* Node v of Phase 2 inheriting the profile at L_PROF [aoff, aoff +
 * alen) (rope: the version at L_SPINE [aoff, aoff + alen)).  A leaf
 * runs leaf_query (rope_leaf) for its lane.  A merge hands the
 * inheritance to its left subtree as is, merges its left child's PCT
 * profile into it (splice_job, rope_merge) and hands the result to its
 * right subtree.  Depth first, left first, so the leaves' parts, rows
 * and crossings land in order position; L_PROF and L_SPINE are
 * stacks, cut back to their entry lengths when the node is done. */
static int p2_node(walk *w, int64_t v, int64_t aoff, int64_t alen)
{
    repro_ctx *ctx = w->ctx;
    lanes *O = &ctx->L[L_PROF], *S = &ctx->L[L_SPINE];
    int64_t *X = w->res + T2_W * v, k = w->kid[v];
    int64_t m0 = O->n, s0 = S->n, ops, nx, M[X_W];
    int st;
    X[T_LEAF] = k < 0;
    X[T_CROSS] = X[T_NEW] = 0;
    X[T_INH] = w->rope ? spine_view(S, aoff, alen).total : alen;
    if (k < 0) {
        int64_t e = w->lo[v], *F = w->leaf + LF_W * e;
        int64_t p0 = ctx->L[L_PARTS].n;
        if (w->rope) {
            ops = rope_leaf(ctx, aoff, alen, w->y1, w->z1, w->y2, w->z2,
                            w->src, e, w->eps, w->clip_eps, &nx);
        } else {
            view a = lanes_view(O, aoff, alen);
            ops = leaf_query(ctx, &a, w->y1[e], w->z1[e], w->y2[e], w->z2[e],
                             w->src[e], w->eps, w->clip_eps, &nx);
        }
        if (ops == -2) return ST_OOM;
        if (ops < 0) {
            w->res[0] = v;
            return ST_FAULT;
        }
        X[T_OPS] = F[LF_OPS] = ops;
        F[LF_PARTS] = ctx->L[L_PARTS].n - p0;
        F[LF_CROSS] = nx;
        return ST_DONE;
    }
    st = p2_node(w, k, aoff, alen);
    if (st != ST_DONE) return st;
    ctx->L[L_XING].n = 0;  /* only the crossing counts are read */
    if (w->rope) {
        st = rope_merge(ctx, aoff, alen, w->blk, w->cap, w->poff[k],
                        w->plen[k], w->eps, M);
        X[T_NEW] = M[X_FRESH];
    } else {
        view b = block_view(w->blk, w->cap, w->poff[k], w->plen[k]);
        st = splice_job(ctx, aoff, alen, &b, w->eps, M);
        X[T_NEW] = b.n ? M[X_LEN] : 0;
    }
    if (st == ST_FAULT) w->res[0] = v;
    if (st != ST_DONE) return st;
    X[T_OPS] = M[X_OPS];
    X[T_CROSS] = M[X_CROSS];
    st = p2_node(w, k + 1, M[X_OFF], M[X_LEN]);
    O->n = m0;
    S->n = s0;
    return st;
}

/* Phase 2 (run_phase2) in one call over the tree of the n lanes, the
 * root inheriting the empty profile: the direct mode (MODE_PHASE2:
 * splice merges of array profiles) or the persistent one (MODE_ROPE:
 * rope versions, chunks and spines in L_PROF and L_SPINE).  blk holds
 * the PCT, node i's profile at pieces [poff[i], poff[i] + plen[i]).
 * Every node fills its T2_W-wide res row; a leaf also fills the
 * leaf[] row of its order position, its parts in L_PARTS, its clipped
 * rows in L_ROWS and its crossings in L_VX, all in order position (the
 * lanes are emptied first).  Returns as repro_pct_build does. */
int64_t repro_phase2_run(
    repro_ctx *ctx, int64_t mode, int64_t n, const double *blk,
    int64_t blk_cap, const int64_t *poff, const int64_t *plen,
    const double *y1, const double *z1, const double *y2,
    const double *z2, const int64_t *src, double eps, double clip_eps,
    int64_t *res, int64_t *leaf)
{
    walk w;
    int64_t *t;
    int st;
    if (n <= 0) return ST_DONE;
    t = tree_shape(n);
    if (!t) return ST_OOM;
    repro_ctx_clear(ctx);
    w.ctx = ctx;
    w.rope = mode == MODE_ROPE;
    w.blk = blk;
    w.cap = blk_cap;
    w.poff = poff;
    w.plen = plen;
    w.y1 = y1;
    w.z1 = z1;
    w.y2 = y2;
    w.z2 = z2;
    w.src = src;
    w.lo = t;
    w.kid = t + 2 * (2 * n - 1);
    w.eps = eps;
    w.clip_eps = clip_eps;
    w.res = res;
    w.leaf = leaf;
    st = p2_node(&w, 0, 0, 0);
    free(t);
    return st;
}

/* batch_visible_parts in one call: leaf_query of each of the nq query
 * lanes against the n pieces of the (5, n) envelope block blk, its
 * leaf[] row filled and its parts, clipped rows and crossings appended
 * to L_PARTS, L_ROWS and L_VX in lane order (the lanes are emptied
 * first).  Returns ST_DONE; ST_FAULT when a query's parts fail their
 * check (leaf[0] = its lane); ST_OOM on scratch OOM. */
int64_t repro_query_batch(
    repro_ctx *ctx, const double *blk, int64_t n, int64_t nq,
    const double *y1, const double *z1, const double *y2,
    const double *z2, const int64_t *src, double eps, double clip_eps,
    int64_t *leaf)
{
    view env = {0};
    int64_t k, ops, p0, nx;
    if (n > 0) env = block_view(blk, n, 0, n);
    repro_ctx_clear(ctx);
    for (k = 0; k < nq; k++) {
        int64_t *F = leaf + LF_W * k;
        p0 = ctx->L[L_PARTS].n;
        ops = leaf_query(ctx, &env, y1[k], z1[k], y2[k], z2[k], src[k], eps,
                         clip_eps, &nx);
        if (ops == -2) return ST_OOM;
        if (ops < 0) {
            leaf[0] = k;
            return ST_FAULT;
        }
        F[LF_OPS] = ops;
        F[LF_PARTS] = ctx->L[L_PARTS].n - p0;
        F[LF_CROSS] = nx;
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

/* Lane f of the live profile: the four double lanes, then the sources
 * (moved as 8-byte words like the doubles). */
static double *live_lane(lanes *P, int f)
{
    return f < 4 ? P->d[f] : (double *)P->q[0];
}

/* Move live pieces [from, from + count) to `to` in all five lanes (the
 * int64-bit-view slice move of _splice_impl, as five memmoves --
 * byte-identical for float lanes). */
static void shift_live(lanes *P, int64_t from, int64_t to, int64_t count)
{
    int f;
    if (count <= 0 || from == to) return;
    for (f = 0; f < 5; f++) {
        double *lane = live_lane(P, f);
        memmove(lane + to, lane + from, (size_t)count * sizeof(double));
    }
}

#define MIN_CAPACITY 16  /* repro.envelope.packed.MIN_CAPACITY        */

/* PackedProfile._grow_splice: move the live profile into fresh lanes
 * of twice the size it has once pieces [lo, hi) become ko pieces,
 * re-centred, with the gap for those ko pieces left open.  Returns 0
 * on OOM, with nothing touched. */
static int grow_live(repro_ctx *ctx, int64_t lo, int64_t hi, int64_t ko)
{
    lanes *P = &ctx->L[L_LIVE];
    int64_t beg = ctx->beg, tail = P->n - beg - hi;
    int64_t need = lo + ko + tail;
    int64_t cap = 2 * need < MIN_CAPACITY ? MIN_CAPACITY : 2 * need;
    int64_t at = (cap - need) / 2;
    double *fresh[5];
    int f;
    for (f = 0; f < 5; f++) {
        fresh[f] = (double *)malloc((size_t)cap * sizeof(double));
        if (!fresh[f]) {
            while (f--) free(fresh[f]);
            return 0;
        }
    }
    for (f = 0; f < 5; f++) {
        double *old = live_lane(P, f);
        if (lo) memcpy(fresh[f] + at, old + beg, (size_t)lo * sizeof(double));
        if (tail)
            memcpy(fresh[f] + at + lo + ko, old + beg + hi,
                   (size_t)tail * sizeof(double));
        free(old);
    }
    for (f = 0; f < 4; f++) P->d[f] = fresh[f];
    P->q[0] = (int64_t *)fresh[4];
    P->cap = cap;
    ctx->beg = at;
    P->n = at + need;
    return 1;
}

/* Commit the merged window merge_sweep left in L_PROF over live pieces
 * [lo, hi): pieces_ok, and fits_between its two kept neighbours, so
 * the profile stays sorted; then PackedProfile._splice_impl in place --
 * a shrink shifts the smaller side inward, a growth the cheaper side
 * whose slack fits, else grow_live.  Returns ST_DONE, ST_FAULT (a
 * check failed, nothing touched) or ST_OOM. */
static int commit_window(repro_ctx *ctx, int64_t lo, int64_t hi)
{
    lanes *P = &ctx->L[L_LIVE];
    const lanes *M = &ctx->L[L_PROF];
    int64_t beg = ctx->beg, end = P->n, ko = M->n;
    int64_t d = ko - (hi - lo), tail = end - beg - hi;
    int f;

    if (!pieces_ok(M, 0)
        || !fits_between(M, 0, lo ? P->d[2][beg + lo - 1] : -INFINITY,
                         tail ? P->d[0][beg + hi] : INFINITY))
        return ST_FAULT;
    if (d) {
        int fits_head = d < 0 || beg >= d;
        int fits_tail = d < 0 || P->cap - end >= d;
        if (fits_head && (lo <= tail || !fits_tail)) {
            shift_live(P, beg, beg - d, lo);
            beg -= d;
        } else if (fits_tail) {
            shift_live(P, beg + hi, beg + lo + ko, tail);
            end += d;
        } else {
            if (!grow_live(ctx, lo, hi, ko)) return ST_OOM;
            beg = ctx->beg;
            end = P->n;
        }
    }
    for (f = 0; f < 5; f++)
        memcpy(live_lane(P, f) + beg + lo, f < 4 ? M->d[f] : (double *)M->q[0],
               (size_t)ko * sizeof(double));
    ctx->beg = beg;
    P->n = end;
    return ST_DONE;
}

/* res[] of repro_insert_run (mirrored in repro/envelope/_ccore.py) */
#define R_OPS 0  /* the run's ops (on ST_FAULT: the failing insert)    */
#define R_MAX 1  /* the largest live profile size                      */

/* The whole insert pass over the n front-to-back image lanes, from an
 * empty profile in L_LIVE, each insert exactly as _insert_reference
 * does it: the locate, leaf_query over the window (the live profile
 * for a vertical), and -- when a non-vertical segment has a visible
 * part -- merge_sweep of the window with the segment into L_PROF and
 * commit_window.  The clipped visible rows go to L_ROWS in insert
 * order, insert i's at [off[i], off[i + 1]); the run's ops and largest
 * profile size to res[R_OPS], res[R_MAX]; the final profile to
 * [0, n) of L_LIVE.  Returns ST_DONE; ST_FALLBACK when an insert needs
 * what the core does not do (leaf_query's -1, a merge with a synthetic
 * source); ST_FAULT when a merged window fails commit_window's checks
 * (res[0] = the insert); ST_OOM on scratch OOM.  Anything but ST_DONE
 * leaves the run half done, for the caller to rerun whole. */
int64_t repro_insert_run(
    repro_ctx *ctx, int64_t n, const double *y1, const double *z1,
    const double *y2, const double *z2, const int64_t *src, double eps,
    double clip_eps, int64_t *off, int64_t *res)
{
    lanes *R = &ctx->L[L_ROWS], *P = &ctx->L[L_PARTS], *V = &ctx->L[L_LIVE];
    int64_t i, total = 0, max = 0;
    ctx->beg = V->n = V->cap / 2;
    R->n = 0;
    off[0] = 0;
    for (i = 0; i < n; i++) {
        view live = lanes_view(V, ctx->beg, V->n - ctx->beg);
        view win, seg = {y1 + i, z1 + i, y2 + i, z2 + i, src + i, 1};
        int64_t lo, hi, ops, nx;
        int vertical = y1[i] == y2[i], st;
        overlapping(&live, y1[i], y2[i], &lo, &hi);
        win = lanes_view(V, ctx->beg + lo, hi - lo);
        if (all_hidden(&win, y1[i], z1[i], y2[i], z2[i], eps)) {
            ops = win.n;
        } else {
            P->n = ctx->L[L_VX].n = ctx->L[L_PROF].n = 0;
            ops = leaf_query(ctx, vertical ? &live : &win, y1[i], z1[i],
                             y2[i], z2[i], src[i], eps, clip_eps, &nx);
            if (ops == -2) return ST_OOM;
            if (ops < 0) return ST_FALLBACK;
            if (!vertical && P->n > 0) {
                if (has_synthetic(&seg) || has_synthetic(&win))
                    return ST_FALLBACK;
                if (!reserve_merge(ctx, win.n, 1, 0)) return ST_OOM;
                ops += merge_sweep(ctx, &win, &seg, eps, 0, &nx);
                st = commit_window(ctx, lo, hi);
                if (st != ST_DONE) {
                    res[0] = i;
                    return st;
                }
            }
        }
        total += ops;
        off[i + 1] = R->n;
        if (V->n - ctx->beg > max) max = V->n - ctx->beg;
    }
    shift_live(V, ctx->beg, 0, V->n - ctx->beg);
    V->n -= ctx->beg;
    ctx->beg = 0;
    res[R_OPS] = total;
    res[R_MAX] = max;
    return ST_DONE;
}

/* ==== front-to-back ordering (repro/ordering/sweep.py) ============== */

/* Return codes of repro_front_to_back.  A non-negative return is the
 * count of ordered edges; the wrapper treats anything but n as a
 * decline, which the Python sweep answers (raising its own errors). */
#define OR_OOM     (-1)  /* scratch allocation failed                  */
#define OR_INPUT   (-2)  /* a source other than its lane index, or a
                          * NaN sweep y                                */
#define OR_MISSING (-3)  /* a removal found no status entry            */

/* Path codes (mirrored in repro/envelope/_ccore.py): which constraints
 * the answer came from.  OP_FACES is the face pass; every other code
 * is the full sweep, with the reason the face pass did not answer.
 * A short Kahn count (OP_CYCLE) is reachable only through a face
 * table that is not the terrain's own (crossing segments): on the
 * full sweep, with sources equal to lane indices, every constraint
 * (f, b) has f after b in the order in which the status list ever
 * held its entries — an insertion lands between its live neighbours
 * and entries never swap — so the sweep's graph has no cycle. */
#define OP_FACES       0  /* face pass + boundary sweep answered      */
#define OP_SWEEP       1  /* no face table given                      */
#define OP_HORIZONTAL  2  /* a map-horizontal edge                    */
#define OP_TIE         3  /* a face pair ties over a real y-range     */
#define OP_NONMANIFOLD 4  /* an edge in more than two faces, or an
                           * index outside the lanes                  */
#define OP_NAN         5  /* a NaN coordinate                         */
#define OP_CYCLE       6  /* Kahn ordered fewer than n edges          */

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

/* Kahn's topological sort of cons (k (front, back) pairs) over a CSR
 * adjacency with a binary heap keyed by sign * i.  Keys are unique,
 * so the pop sequence is the one heapq produces, and a duplicate
 * constraint only decrements its target twice in the same pop — no
 * dedupe is needed.  Returns the count of ordered edges (n unless
 * the constraints hold a cycle) or OR_OOM. */
static int64_t kahn(int64_t n, const int64_t *cons, int64_t k,
                    int64_t sign, int64_t *order)
{
    int64_t *off = (int64_t *)calloc((size_t)(n + 1), sizeof(int64_t));
    int64_t *adj = (int64_t *)malloc((size_t)(k + 1) * sizeof(int64_t));
    int64_t *indeg = (int64_t *)calloc((size_t)(n + 1), sizeof(int64_t));
    int64_t *heap = (int64_t *)malloc((size_t)(n + 1) * sizeof(int64_t));
    int64_t i, j, p, hl = 0, done = 0, ret;
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

/* One face pair: its (front, back) constraint when the edges overlap
 * in y, nothing when they share at most a point of y-range.  Returns
 * 0 on a tie over a real common y-range (x equal at the midpoint). */
static int face_pair(const map_lanes *L, int64_t a, int64_t b,
                     int64_t *cons, int64_t *k)
{
    int c = in_front(L, a, b);
    if (c == 0) {
        double lo = L->y1[b] > L->y1[a] ? L->y1[b] : L->y1[a];
        double hi = L->y2[b] < L->y2[a] ? L->y2[b] : L->y2[a];
        return hi <= lo;
    }
    cons[2 * *k] = c > 0 ? a : b;
    cons[2 * *k + 1] = c > 0 ? b : a;
    (*k)++;
    return 1;
}

/* The face pass: the in-front pairs of each face's three edges, then
 * the sweep over the boundary edges (those in one face) alone, its
 * lane-local pairs mapped back to edge indices through bnd, which is
 * ascending, so the sweep's index tie-break is unchanged.  Writes
 * into cons (room for 3 * (nf + nb) pairs) and returns the pair count,
 * a negative OR_* code, or FACE_DECLINED with the reason in *path.
 *
 * Why the order equals the full sweep's: Kahn's sort pops the least
 * ready edge, and an edge is ready exactly when its predecessors in
 * the transitive closure are done, so the order depends only on the
 * closure.  These pairs are true in-front pairs, and any two edges
 * that overlap in y are joined by a chain of them along a horizontal
 * line of their common range: inside the domain the line crosses a
 * chain of faces, each consecutive pair of crossed edges a face pair;
 * each gap outside the domain is bridged by two boundary edges that
 * the boundary sweep finds adjacent. */
#define FACE_DECLINED (-100)
static int64_t face_constraints(const map_lanes *L, int64_t n,
                                int64_t nf, const int64_t *fe, int64_t nb,
                                const int64_t *bnd, int64_t *cons,
                                int64_t *path)
{
    int64_t *cnt = (int64_t *)calloc((size_t)(n + 1), sizeof(int64_t));
    double *bl = (double *)malloc((size_t)(4 * nb + 1) * sizeof(double));
    map_lanes B;
    int64_t f, i, e0, e1, e2, k = 0, kb, ret;
    if (!cnt || !bl) { ret = OR_OOM; goto DONE; }
    for (i = 0; i < n; i++) {
        if (L->x1[i] != L->x1[i] || L->x2[i] != L->x2[i]
                || L->y1[i] != L->y1[i] || L->y2[i] != L->y2[i]) {
            *path = OP_NAN;
            goto DECLINE;
        }
        if (L->y1[i] == L->y2[i]) {
            *path = OP_HORIZONTAL;
            goto DECLINE;
        }
    }
    for (i = 0; i < 3 * nf; i++) {
        if (fe[i] < 0 || fe[i] >= n || ++cnt[fe[i]] > 2) {
            *path = OP_NONMANIFOLD;
            goto DECLINE;
        }
    }
    for (f = 0; f < nf; f++) {
        e0 = fe[3 * f]; e1 = fe[3 * f + 1]; e2 = fe[3 * f + 2];
        if (!face_pair(L, e0, e1, cons, &k) || !face_pair(L, e1, e2, cons, &k)
                || !face_pair(L, e0, e2, cons, &k)) {
            *path = OP_TIE;
            goto DECLINE;
        }
    }

    for (i = 0; i < nb; i++) {
        if (bnd[i] < 0 || bnd[i] >= n) {
            *path = OP_NONMANIFOLD;
            goto DECLINE;
        }
        bl[i] = L->x1[bnd[i]];
        bl[nb + i] = L->y1[bnd[i]];
        bl[2 * nb + i] = L->x2[bnd[i]];
        bl[3 * nb + i] = L->y2[bnd[i]];
    }
    B.x1 = bl; B.y1 = bl + nb; B.x2 = bl + 2 * nb; B.y2 = bl + 3 * nb;
    kb = sweep_constraints(&B, nb, cons + 2 * k);
    if (kb < 0) { ret = kb; goto DONE; }
    for (i = 2 * k; i < 2 * (k + kb); i++) cons[i] = bnd[cons[i]];
    ret = k + kb;
    goto DONE;
DECLINE:
    ret = FACE_DECLINED;
DONE:
    free(cnt);
    free(bl);
    return ret;
}

/* front_to_back_order.  With a face table (nf >= 0: fe holds each
 * face's edges (a,b), (b,c), (a,c), bnd the nb boundary edges in
 * ascending order) the face pass gives the constraints; without one,
 * or when it declines, the full sweep does — over all edges, in this
 * same call.  Then Kahn.  *path gets the OP_* code of the answer.
 * cons, when not NULL, receives the answer's constraints (*ncons
 * pairs; room for 3n pairs on the sweep, 3 * (nf + nb) on the face
 * pass) for the parity tests; when NULL the call uses scratch. */
int64_t repro_front_to_back(
    int64_t n, const double *x1, const double *y1, const double *x2,
    const double *y2, const int64_t *src, int64_t sign,
    int64_t nf, const int64_t *fe, int64_t nb, const int64_t *bnd,
    int64_t *order, int64_t *cons, int64_t *ncons, int64_t *path)
{
    map_lanes L;
    int64_t *work = cons;
    int64_t k = FACE_DECLINED, i, ret, room = 3 * n;
    L.x1 = x1; L.y1 = y1; L.x2 = x2; L.y2 = y2;
    *ncons = 0;
    *path = nf < 0 ? OP_SWEEP : OP_FACES;
    for (i = 0; i < n; i++)
        if (src[i] != i) return OR_INPUT;
    if (nf >= 0 && 3 * (nf + nb) > room) room = 3 * (nf + nb);
    if (!work) {
        work = (int64_t *)malloc((size_t)(2 * room + 1) * sizeof(int64_t));
        if (!work) return OR_OOM;
    }
    if (nf >= 0) {
        k = face_constraints(&L, n, nf, fe, nb, bnd, work, path);
        if (k >= 0) {
            ret = kahn(n, work, k, sign, order);
            if (ret != n && ret != OR_OOM) {
                *path = OP_CYCLE;
                k = FACE_DECLINED;
            }
        } else if (k != FACE_DECLINED) {
            ret = k;
            goto DONE;
        }
    }
    if (k == FACE_DECLINED) {
        for (i = 0; i < n; i++)
            if (y1[i] != y1[i] || y2[i] != y2[i]) { ret = OR_INPUT; goto DONE; }
        k = sweep_constraints(&L, n, work);
        if (k < 0) { ret = k; goto DONE; }
        ret = kahn(n, work, k, sign, order);
    }
    *ncons = k;
DONE:
    if (work != cons) free(work);
    return ret;
}

/* ==== observer points (hsr.queries.visible_many) =================== */

/* Relative widening of a window's lower bound py - span, far above its
 * few rounding steps (each ~1e-16 relative); DBL_MIN covers magnitudes
 * where the relative term underflows.  Mirrors _WINDOW_SLACK in
 * repro/hsr/queries.py. */
#define WINDOW_SLACK 1e-11

/* point_visible of m observers (px, py, pz) over the (8, n) point
 * lanes, rows mx1 my1 mx2 my2 sy1 sz1 sy2 sz2 and columns sorted by
 * my1, span the largest my2 - my1: out[k] = 1 when observer k is
 * visible.  Each observer scans the columns with my1 in
 * [py - span, py], widened: a superset of the edges whose y-range
 * covers py, whose extras the covers test drops.  A non-finite span
 * scans every column; a non-finite py (then covered by no edge) none.
 * Per edge the float operations of MapSegment.x_at and
 * ImageSegment.z_at, the front test !(x <= px + eps) (a NaN px keeps
 * the edge in front) and the running max, all order-independent.
 * Pure: no context, no allocation, no decline. */
void repro_points_visible(
    int64_t n, const double *lanes, double span, int64_t m,
    const double *px, const double *py, const double *pz, double eps,
    uint8_t *out)
{
    const double *mx1 = lanes, *my1 = lanes + n, *mx2 = lanes + 2 * n,
                 *my2 = lanes + 3 * n, *sy1 = lanes + 4 * n,
                 *sz1 = lanes + 5 * n, *sy2 = lanes + 6 * n,
                 *sz2 = lanes + 7 * n;
    int dense = !isfinite(span);
    int64_t k, i, lo, hi;
    for (k = 0; k < m; k++) {
        double y = py[k], front = px[k] + eps, best = -INFINITY, x, z;
        if (dense) {
            lo = 0;
            hi = n;
        } else if (!isfinite(y)) {
            lo = hi = 0;
        } else {
            lo = lower_bound(my1, n, (y - span) - ((fabs(y) + span)
                                     * WINDOW_SLACK + DBL_MIN));
            hi = upper_bound(my1, n, y);
        }
        for (i = lo; i < hi; i++) {
            if (!(my1[i] <= y && y <= my2[i])) continue;
            if (my1[i] == my2[i])
                x = mx1[i] >= mx2[i] ? mx1[i] : mx2[i];
            else
                x = line_z(my1[i], mx1[i], my2[i], mx2[i], y);
            if (x <= front) continue;
            if (sy1[i] == sy2[i])
                z = sz1[i] >= sz2[i] ? sz1[i] : sz2[i];
            else
                z = line_z(sy1[i], sz1[i], sy2[i], sz2[i], y);
            if (z > best) best = z;
        }
        out[k] = best == -INFINITY || pz[k] >= best - eps;
    }
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
