/* Strict-IEEE float32 kernels for cachediff.
 *
 * Every output element is a sum over the reduction index p in ascending
 * order, started from +0.0f, with the product and the sum rounded
 * separately:
 *
 *     acc = +0.0f;  for p in 0..k-1:  acc = acc + a[p] * b[p];
 *
 * which is exactly what the numpy reference in kernels.py computes.  The
 * file must be built with -ffp-contract=off (no fused multiply-add) and
 * without -ffast-math.  Vectorizing over output columns and blocking over
 * rows never reorders p, so any vector width gives the same bytes.
 *
 * The convolution reads its patches from a zero-padded copy of the input
 * and multiplies the padding zeros like any other element, so inf or NaN
 * weights give NaN where the reference does (which NaN's bits survive a
 * sum of two NaNs is not fixed, see kernels.py).  Its weights arrive
 * packed once per model; given a SiLU gate, the padded copy holds the
 * activated input.
 *
 * The RMS norm is the one sum that does not always run in ascending
 * order: it follows numpy's float32 np.mean, which sums a contiguous axis
 * pairwise (pairwise_sq, a vector of tokens at a time) and a strided one in
 * ascending order.  It also
 * writes SiLU's gate, so that a residual unit's conv(silu(rms_norm(x))) is
 * one norm op and one conv.
 *
 * exp is numpy's own: cd_set_exp hands over the float32 inner loop of
 * np.exp, found in its loop table when the library is loaded (native.py),
 * and the kernels call it in place, as np.exp(x, out=x) does, so both
 * backends run the same machine code.
 *
 * Attention and the channel mixes around it keep the tokens on the vector
 * lanes, in the feature map's own (frames, channels, tokens) layout.  The
 * attention kernel holds VW query tokens in the lanes of one block: their
 * key-major scores stay in L1 while each lane runs the reference's own
 * sequence (ascending dot over d, scale, NaN-propagating row max, subtract,
 * numpy's exp, ascending row sum from +0.0, a correctly rounded divide, the
 * ascending apply over the keys).  d and dv are zero-padded to a multiple
 * of 8 and the keys to a multiple of JB, which keeps the bytes: a padded
 * dim adds the product of two zeros, +0.0, to a sum started at +0.0, which
 * never becomes -0.0, so the sum is unchanged; padded keys and outputs are
 * never read.  The token norm runs with the tokens on the lanes too, in
 * numpy's pairwise order over the channels of each token.
 *
 * Beside the kernels sit the glue ops of a pass, each the reference's own
 * sequence of separately rounded float32 operations: an N-d strided copy
 * and row gathers and scatters by index.
 *
 * The only entry point besides cd_set_exp is cd_run, which executes a
 * fixed array of op records (see "op records" below): kernels.py builds one
 * array per planned pass, so a pass is one call into this library.
 *
 * No kernel allocates: each takes its scratch memory as the last argument
 * (ws), sized by kernels.py, so a planned pass binds one scratch block to
 * every call.  The only shared state is the exp loop, set once at load:
 * calls with distinct scratch blocks are safe from several threads.
 */

#include <math.h>
#include <string.h>

#if defined(__AVX512F__)
#define VW 16    /* widest vector, in floats */
#define NREGS 32 /* vector registers */
#elif defined(__AVX__)
#define VW 8
#define NREGS 16
#else
#define VW 4
#define NREGS 16
#endif

/* Rows per micro-tile with nv column vectors: accumulators, the nv B
 * vectors and one broadcast fit in the register file. */
#define MAXROWS 12
#define ROWS(nv) ((NREGS - (nv) - 2) / (nv) < MAXROWS ? (NREGS - (nv) - 2) / (nv) : MAXROWS)

/* The L-lane vectors of the micro kernels below (v##L). */
typedef float v4 __attribute__((vector_size(16)));
typedef float v8 __attribute__((vector_size(32)));
typedef float v16 __attribute__((vector_size(64)));

/* One output tile of R rows by NV vectors of L columns.  Row r reads its
 * reduction operand p at ar[r][koff[p]]; B is k rows of ldb floats.  The
 * tile is written to c with row stride ldc. */
#define DEFINE_MICRO(L, NV)                                                    \
    static void micro_##L##_##NV(const float *const *ar, const long *koff,    \
                                 long k, const float *b, long ldb,            \
                                 float *c, long ldc)                          \
    {                                                                         \
        enum { R = ROWS(NV) };                                                \
        v##L acc[R][NV];                                                      \
        for (int r = 0; r < R; r++)                                           \
            for (int v = 0; v < NV; v++)                                      \
                acc[r][v] = (v##L){0};                                        \
        for (long p = 0; p < k; p++) {                                        \
            const long o = koff[p];                                           \
            v##L bv[NV];                                                      \
            for (int v = 0; v < NV; v++)                                      \
                memcpy(&bv[v], b + p * ldb + v * L, sizeof(v##L));            \
            for (int r = 0; r < R; r++) {                                     \
                const float s = ar[r][o];                                     \
                for (int v = 0; v < NV; v++)                                  \
                    acc[r][v] = acc[r][v] + s * bv[v];                        \
            }                                                                 \
        }                                                                     \
        for (int r = 0; r < R; r++)                                           \
            for (int v = 0; v < NV; v++)                                      \
                memcpy(c + r * ldc + v * L, &acc[r][v], sizeof(v##L));        \
    }

DEFINE_MICRO(4, 1)
DEFINE_MICRO(4, 2)
DEFINE_MICRO(4, 3)
DEFINE_MICRO(4, 4)
#if VW >= 8
DEFINE_MICRO(8, 1)
DEFINE_MICRO(8, 2)
DEFINE_MICRO(8, 3)
DEFINE_MICRO(8, 4)
#endif
#if VW >= 16
DEFINE_MICRO(16, 1)
DEFINE_MICRO(16, 2)
DEFINE_MICRO(16, 3)
DEFINE_MICRO(16, 4)
#endif

typedef void (*micro_fn)(const float *const *, const long *, long, const float *, long, float *,
                         long);

static micro_fn pick_micro(long lanes, long nv)
{
    static const micro_fn m4[4] = {micro_4_1, micro_4_2, micro_4_3, micro_4_4};
#if VW >= 8
    static const micro_fn m8[4] = {micro_8_1, micro_8_2, micro_8_3, micro_8_4};
    if (lanes == 8)
        return m8[nv - 1];
#endif
#if VW >= 16
    static const micro_fn m16[4] = {micro_16_1, micro_16_2, micro_16_3, micro_16_4};
    if (lanes == 16)
        return m16[nv - 1];
#endif
    return m4[nv - 1];
}

/* Vector width for n output columns: the narrowest that holds them, up
 * to the widest the target has. */
static long lanes_for(long n)
{
    long lanes = 4;
    while (lanes < VW && lanes < n)
        lanes *= 2;
    return lanes;
}

/* Scratch memory comes from the caller: each kernel carves the regions it
 * needs from ws, each rounded up to 64 bytes (kernels.py computes the same
 * sizes, an upper bound of what is carved here). */
static void *carve(char **ws, size_t bytes)
{
    void *p = *ws;
    *ws += (bytes + 63) / 64 * 64;
    return p;
}

/* C = A @ B for an m x n output.  A(i, p) = abase[arow[i] + koff[p]]; B is
 * k rows of ldb floats, where ldb is a multiple of lanes_for(n) and columns
 * n..ldb-1 exist (their results are discarded).  Without orow C is stored
 * row-major, out[i * n + j] = C[i][j].  With it, C[i][j] goes to
 * out[orow[i] + j * cs], the (channel, pixel) layout of a convolution, as
 * the epilogue below makes it: + bias[j] when bias is given, then either
 * + add[(i / add_rows) * add_ld + j], or base[same index] + 0.5f * that.
 * Each step is one separately rounded float32 operation. */
struct gemm {
    long m, n, k;
    const float *abase;
    const long *arow, *koff;
    const float *b;
    long ldb;
    float *out;
    const long *orow;
    long cs;
    const float *bias;
    const float *add;
    long add_ld, add_rows;
    const float *base;
};

static void store_row(const struct gemm *g, long i, long j0, const float *src, long ncols)
{
    if (!g->orow) {
        memcpy(g->out + i * g->n + j0, src, sizeof(float) * ncols);
        return;
    }
    const long cs = g->cs, at = g->orow[i] + j0 * cs;
    float *dst = g->out + at;
    float v[4 * 16]; /* ncols <= 4 vectors of at most 16 lanes */
    for (long j = 0; j < ncols; j++)
        v[j] = g->bias ? src[j] + g->bias[j0 + j] : src[j];
    if (g->base) {
        const float *bp = g->base + at;
        for (long j = 0; j < ncols; j++)
            dst[j * cs] = bp[j * cs] + 0.5f * v[j];
    } else if (g->add) {
        const float *ad = g->add + (i / g->add_rows) * g->add_ld + j0;
        for (long j = 0; j < ncols; j++)
            dst[j * cs] = v[j] + ad[j];
    } else {
        for (long j = 0; j < ncols; j++)
            dst[j * cs] = v[j];
    }
}

static void gemm_run(const struct gemm *g)
{
    const long lanes = lanes_for(g->n);
    float tile[MAXROWS * 4 * 16];
    for (long j0 = 0; j0 < g->n; j0 += 4 * lanes) {
        long nv = (g->n - j0 + lanes - 1) / lanes;
        if (nv > 4)
            nv = 4;
        const micro_fn fn = pick_micro(lanes, nv);
        const long rows = ROWS(nv), tw = nv * lanes;
        const long ncols = g->n - j0 < tw ? g->n - j0 : tw;
        for (long i0 = 0; i0 < g->m; i0 += rows) {
            const long live = g->m - i0 < rows ? g->m - i0 : rows;
            const float *ar[MAXROWS];
            for (long r = 0; r < rows; r++)
                ar[r] = g->abase + g->arow[i0 + (r < live ? r : live - 1)];
            if (!g->orow && live == rows && ncols == tw) {
                fn(ar, g->koff, g->k, g->b + j0, g->ldb, g->out + i0 * g->n + j0, g->n);
                continue;
            }
            fn(ar, g->koff, g->k, g->b + j0, g->ldb, tile, tw);
            for (long r = 0; r < live; r++)
                store_row(g, i0 + r, j0, tile + r * tw, ncols);
        }
    }
}

/* n rounded up to a whole number of vectors of lanes_for(n). */
static long padded(long n)
{
    const long lanes = lanes_for(n);
    return (n + lanes - 1) / lanes * lanes;
}

/* B (k rows of ldb floats, n used) as the GEMM reads it: as is when ldb is
 * a multiple of the vector width, else copied to ws with zero padding. */
static const float *gemm_b(const float *b, long ldb, long k, long n, char **ws, long *ld)
{
    if (ldb % lanes_for(n) == 0) {
        *ld = ldb;
        return b;
    }
    *ld = padded(n);
    float *bp = carve(ws, sizeof(float) * k * *ld);
    for (long p = 0; p < k; p++) {
        memcpy(bp + p * *ld, b + p * ldb, sizeof(float) * n);
        memset(bp + p * *ld + n, 0, sizeof(float) * (*ld - n));
    }
    return bp;
}

/* Channel mix of every pixel of x (f, c, hw): out (f, co, hw) with
 * out[fi][j][q] = sum_p x[fi][p][q] * w[p][j], p ascending from +0.0; w is
 * c rows of ldw floats.  With base (shaped like out), out = base + 0.5f *
 * that, the residual of an attention site.  The pixels are the lanes: each
 * frame is one GEMM of w^T (co x c) and the frame's (c, hw) matrix. */
static void channel_mix(const float *x, const float *w, long ldw, float *out, const float *base,
                        long f, long c, long hw, long co, char *ws)
{
    if (f == 0 || hw == 0 || co == 0)
        return;
    long *koff = carve(&ws, sizeof(long) * c);
    long *arow = carve(&ws, sizeof(long) * co);
    long *orow = carve(&ws, sizeof(long) * co);
    for (long p = 0; p < c; p++)
        koff[p] = p * ldw;
    for (long i = 0; i < co; i++) {
        arow[i] = i;
        orow[i] = i * hw;
    }
    for (long fi = 0; fi < f; fi++) {
        char *fws = ws;
        long ld;
        const float *b = gemm_b(x + fi * c * hw, hw, c, hw, &fws, &ld);
        const struct gemm g = {co, hw, c, w, arow, koff, b, ld, out + fi * co * hw,
                               base ? orow : NULL, 1, NULL, NULL, 0, 1,
                               base ? base + fi * co * hw : NULL};
        gemm_run(&g);
    }
}

/* 3x3 convolution, zero padding 1, of every frame of x (f, ci, h, w); out
 * is (f, co, ho, wo).  wp holds the packed weights, (ci * 9) rows of ldw
 * floats, row p the weights of reduction index p = (ci, ky, kx) for every
 * output channel; ldw is a multiple of 16, the widest vector, and columns
 * co..ldw-1 are zero.  The reduction runs over p ascending and bias (co) is
 * added after the sum.  With gate non-NULL (the shape of x), the input is
 * x * (1 / (1 + gate)): silu(x) when gate = exp(-clip(x, -30, 30)).
 *
 * The store adds one of two epilogues to acc + bias, as the gemm above
 * describes: add (a residual unit's time projection, row s of add_ld floats
 * for the frames s * add_frames ..) or base (its residual: base + 0.5f *).
 *
 * One GEMM with the output pixels as rows and the channels as columns: row
 * i reads its patch straight from a zero-padded copy of the input. */
static void conv2d_frames(const float *x, const float *gate, const float *wp, long ldw,
                          const float *bias, float *out, long f, long ci, long h, long wd,
                          long co, long stride, const float *add, long add_ld, long add_frames,
                          const float *base, char *ws)
{
    const long ph = h + 2, pw = wd + 2, k = ci * 9;
    const long ho = (h - 1) / stride + 1, wo = (wd - 1) / stride + 1, hw = ho * wo;
    const long npix = f * hw;
    if (npix == 0 || co == 0)
        return;
    long *koff = carve(&ws, sizeof(long) * k);   /* patch element p of a pixel */
    long *pix = carve(&ws, sizeof(long) * npix); /* patch origin of a pixel in xp */
    long *opix = carve(&ws, sizeof(long) * npix);
    float *xp = carve(&ws, sizeof(float) * f * ci * ph * pw);
    for (long pl = 0; pl < f * ci; pl++) {
        float *dst = xp + pl * ph * pw;
        memset(dst, 0, sizeof(float) * pw);
        for (long y = 0; y < h; y++) {
            float *row = dst + (y + 1) * pw;
            const float *src = x + (pl * h + y) * wd;
            row[0] = 0.0f;
            if (gate) {
                const float *g = gate + (pl * h + y) * wd;
                for (long j = 0; j < wd; j++)
                    row[j + 1] = src[j] * (1.0f / (1.0f + g[j]));
            } else {
                memcpy(row + 1, src, sizeof(float) * wd);
            }
            row[pw - 1] = 0.0f;
        }
        memset(dst + (ph - 1) * pw, 0, sizeof(float) * pw);
    }
    for (long p = 0; p < k; p++)
        koff[p] = (p / 9) * ph * pw + (p % 9 / 3) * pw + p % 3;
    for (long i = 0, fi = 0; fi < f; fi++)
        for (long y = 0; y < ho; y++)
            for (long xo = 0; xo < wo; xo++, i++) {
                pix[i] = fi * ci * ph * pw + y * stride * pw + xo * stride;
                opix[i] = fi * co * hw + y * wo + xo;
            }
    const struct gemm g = {npix, co, k, xp, pix, koff, wp, ldw, out, opix, hw, bias,
                           add, add_ld, add_frames * hw, base};
    gemm_run(&g);
}

typedef float vwf __attribute__((vector_size(VW * 4)));
typedef int vwi __attribute__((vector_size(VW * 4)));

static vwf vload(const float *p)
{
    vwf v;
    memcpy(&v, p, sizeof v);
    return v;
}

static void vstore(float *p, vwf v)
{
    memcpy(p, &v, sizeof v);
}

/* The first n <= VW floats at p, zero in the other lanes. */
static vwf vload_n(const float *p, long n)
{
    if (n == VW)
        return vload(p);
    vwf v = {0};
    memcpy(&v, p, sizeof(float) * n);
    return v;
}

/* numpy's float32 sum of the squares of n terms (the pairwise sum of
 * add.reduce over a contiguous axis) for each of nl <= VW lanes at once:
 * term i of lane l is a[i * stride + l].  Below 8 terms a plain sum from
 * +0.0; up to 128, eight interleaved sums combined as a tree, then the tail
 * in order; above 128, the sums of two halves split at a multiple of 8.
 * Squares are never -0.0, so the sign of the starting zero does not
 * matter. */
static vwf pairwise_sq(const float *a, long stride, long n, long nl)
{
    if (n < 8) {
        vwf res = {0};
        for (long i = 0; i < n; i++) {
            const vwf v = vload_n(a + i * stride, nl);
            res = res + v * v;
        }
        return res;
    }
    if (n <= 128) {
        vwf r[8];
        for (int t = 0; t < 8; t++) {
            const vwf v = vload_n(a + t * stride, nl);
            r[t] = v * v;
        }
        long i = 8;
        for (; i < n - n % 8; i += 8)
            for (int t = 0; t < 8; t++) {
                const vwf v = vload_n(a + (i + t) * stride, nl);
                r[t] = r[t] + v * v;
            }
        vwf res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            const vwf v = vload_n(a + i * stride, nl);
            res = res + v * v;
        }
        return res;
    }
    long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sq(a, stride, n2, nl) + pairwise_sq(a + n2 * stride, stride, n - n2, nl);
}

/* out = x / r[j] for n floats x[j]; with neg, also neg = -clip(out, -30,
 * 30), NaN kept. */
static void divide_row(const float *x, const float *r, float *out, float *neg, long n)
{
    for (long j = 0; j < n; j++)
        out[j] = x[j] / r[j];
    if (!neg)
        return;
    for (long j = 0; j < n; j++) {
        const float v = out[j];
        neg[j] = -(v < -30.0f ? -30.0f : v > 30.0f ? 30.0f : v);
    }
}

/* RMS norm over the middle axis of x (outer, c, inner), as numpy computes
 *     out = x / sqrt(mean(x * x, axis) + 1e-5)
 * in float32 for each of the outer x inner positions, the inner ones on the
 * lanes.  The sum of squares runs in numpy's order for a contiguous axis
 * with pairwise (0.0f + pairwise_sq: a token's channels, or inner == 1),
 * else in ascending order from +0.0 (a strided axis of a feature map); the
 * mean divides it by c.  With neg non-NULL, also neg = -clip(out, -30, 30),
 * the argument of the exp in silu(out). */
static void rms_norm(const float *x, float *out, float *neg, long outer, long c, long inner,
                     int pairwise)
{
    enum { CHUNK = 256 };
    float r[CHUNK];
    for (long o = 0; o < outer; o++) {
        for (long j0 = 0; j0 < inner; j0 += CHUNK) {
            const long nj = inner - j0 < CHUNK ? inner - j0 : CHUNK;
            const long base = o * c * inner + j0;
            if (pairwise) {
                for (long j = 0; j < nj; j += VW) {
                    const long nl = nj - j < VW ? nj - j : VW;
                    const vwf s = pairwise_sq(x + base + j, inner, c, nl);
                    for (long l = 0; l < nl; l++)
                        r[j + l] = 0.0f + s[l];
                }
            } else {
                for (long j = 0; j < nj; j++)
                    r[j] = 0.0f;
                for (long ch = 0; ch < c; ch++) {
                    const float *xs = x + base + ch * inner;
                    for (long j = 0; j < nj; j++)
                        r[j] = r[j] + xs[j] * xs[j];
                }
            }
            for (long j = 0; j < nj; j++)
                r[j] = sqrtf(r[j] / (float)c + 1e-5f);
            for (long ch = 0; ch < c; ch++) {
                const long at = base + ch * inner;
                divide_row(x + at, r, out + at, neg ? neg + at : NULL, nj);
            }
        }
    }
}

/* ---------------------------------------------------------------------------
 * numpy's exp
 *
 * A numpy ufunc inner loop: args {in, out}, dimensions {n}, steps in bytes,
 * and the loop's data pointer from the same entry of the ufunc's table. */

typedef void (*ufunc_loop)(char **args, const long *dims, const long *steps, void *data);

static ufunc_loop np_exp;
static void *np_exp_data;

void cd_set_exp(ufunc_loop fn, void *data)
{
    np_exp = fn;
    np_exp_data = data;
}

/* x = exp(x) for n contiguous floats: the call np.exp(x, out=x) makes. */
static void exp_inplace(float *x, long n)
{
    if (n <= 0)
        return;
    char *args[2] = {(char *)x, (char *)x};
    const long dims[1] = {n};
    const long steps[2] = {sizeof(float), sizeof(float)};
    np_exp(args, dims, steps, np_exp_data);
}

/* ---------------------------------------------------------------------------
 * attention
 *
 * Attention of items x rows x lanes queries, the lanes in the feature map's
 * (channels, tokens) layout: q (items, rows, d, lanes), out (items, rows, dv,
 * lanes), and with probs non-NULL the probabilities (items, rows, lanes, lk).
 * The lk = lk1 + lk2 keys come in one of two layouts:
 *
 * - shared by the lanes of an item (a spatial site, tokens on the lanes):
 *   k (kitems, d, lk1) and v (kitems, dv, lk1), item b reading item
 *   b % kitems, followed by the lk2 keys k2 (d, lk2) and v2 (dv, lk2) that
 *   every item shares (a reference site's reference tokens);
 * - one set per lane (lanek, the temporal site, locations on the lanes):
 *   k (items, lk1, d, lanes) and v (items, lk1, dv, lanes), lk2 = 0.
 *
 * A block holds VW lanes of one query row: its q, zero-padded to dp dims,
 * and its key-major scores s (lkp x VW), while K and V are packed once per
 * item (shared; once per op when kitems is 1) or per item and block
 * (lanek), zero-padded too. */

#define JB 8 /* keys per block of scores */

struct attn {
    const float *q, *k, *v, *k2, *v2;
    float *out, *probs;
    long items, rows, lanes, lk1, lk2, d, dv, kitems, lanek;
    float scale;
};

static long up(long n, long m)
{
    return (n + m - 1) / m * m;
}

/* One block: from the packed q (dp x VW), K (lkp x dp entries) and V (lk x
 * dvp entries), an entry a float shared by the lanes or, with lanek, a
 * vector of VW lanes, write the lanes' outputs to o (dvp x VW) and leave
 * their probabilities in s. */
static inline __attribute__((always_inline)) void attn_block(
    const float *qp, const float *kp, const float *vp, float *s, float *o, long lk, long dp,
    long dvp, float scale, const int lanek)
{
    const long lkp = up(lk, JB);
    for (long j0 = 0; j0 < lkp; j0 += JB) {
        vwf acc[JB];
        for (int t = 0; t < JB; t++)
            acc[t] = (vwf){0};
        for (long p = 0; p < dp; p++) {
            const vwf qv = vload(qp + p * VW);
            for (int t = 0; t < JB; t++) {
                const long at = (j0 + t) * dp + p;
                acc[t] = acc[t] + (lanek ? qv * vload(kp + at * VW) : qv * kp[at]);
            }
        }
        for (int t = 0; t < JB; t++)
            vstore(s + (j0 + t) * VW, acc[t] * scale);
    }
    /* The row max of each lane, NaN when the row holds one; max is exact, so
     * two partial maxima may be combined in any order (a tie of -0.0 and
     * +0.0 may keep either, which the exp that follows maps to the same 1). */
    vwf m[2] = {(vwf){0} - INFINITY, (vwf){0} - INFINITY};
    vwi nan = {0};
    for (long j = 0; j < lk; j++) {
        const vwf v = vload(s + j * VW);
        const vwi gt = v > m[j & 1];
        nan |= v != v;
        m[j & 1] = (vwf)(((vwi)v & gt) | ((vwi)m[j & 1] & ~gt));
    }
    const vwi gt = m[1] > m[0];
    vwf mx = (vwf)(((vwi)m[1] & gt) | ((vwi)m[0] & ~gt));
    mx = (vwf)(((vwi)((vwf){0} + NAN) & nan) | ((vwi)mx & ~nan));
    for (long j = 0; j < lk; j++)
        vstore(s + j * VW, vload(s + j * VW) - mx);
    exp_inplace(s, lk * VW);
    vwf sum = {0};
    for (long j = 0; j < lk; j++)
        sum = sum + vload(s + j * VW);
    for (long j = 0; j < lk; j++)
        vstore(s + j * VW, vload(s + j * VW) / sum);
    for (long e0 = 0; e0 < dvp; e0 += 8) {
        vwf acc[8];
        for (int t = 0; t < 8; t++)
            acc[t] = (vwf){0};
        for (long j = 0; j < lk; j++) {
            const vwf pj = vload(s + j * VW);
            for (int t = 0; t < 8; t++) {
                const long at = j * dvp + e0 + t;
                acc[t] = acc[t] + (lanek ? pj * vload(vp + at * VW) : pj * vp[at]);
            }
        }
        for (int t = 0; t < 8; t++)
            vstore(o + (e0 + t) * VW, acc[t]);
    }
}

/* dst[(j * ld + p) * w + l] = src[p * ps + j * js + l] for j < n, p < m, l < nl:
 * the entries of n keys, m dims each, of nl lanes (w = 1: one float each). */
static void pack(float *dst, long ld, long w, const float *src, long ps, long js, long n, long m,
                 long nl)
{
    for (long j = 0; j < n; j++)
        for (long p = 0; p < m; p++)
            memcpy(dst + (j * ld + p) * w, src + p * ps + j * js, sizeof(float) * nl);
}

static void attention(const struct attn *a, char *ws)
{
    const long lk = a->lk1 + a->lk2, lkp = up(lk, JB), dp = up(a->d, 8), dvp = up(a->dv, 8);
    const long w = a->lanek ? VW : 1, lanes = a->lanes;
    float *kp = carve(&ws, sizeof(float) * lkp * dp * w);
    float *vp = carve(&ws, sizeof(float) * lk * dvp * w);
    float *qp = carve(&ws, sizeof(float) * dp * VW);
    float *s = carve(&ws, sizeof(float) * lkp * VW);
    float *o = carve(&ws, sizeof(float) * dvp * VW);
    /* the padding stays zero: the packs below write only the live entries */
    memset(kp, 0, sizeof(float) * lkp * dp * w);
    memset(vp, 0, sizeof(float) * lk * dvp * w);
    memset(qp, 0, sizeof(float) * dp * VW);
    for (long b = 0; b < a->items; b++) {
        if (!a->lanek && (b == 0 || a->kitems > 1)) {
            const long kb = b % a->kitems;
            pack(kp, dp, 1, a->k + kb * a->d * a->lk1, a->lk1, 1, a->lk1, a->d, 1);
            pack(vp, dvp, 1, a->v + kb * a->dv * a->lk1, a->lk1, 1, a->lk1, a->dv, 1);
            pack(kp + a->lk1 * dp, dp, 1, a->k2, a->lk2, 1, a->lk2, a->d, 1);
            pack(vp + a->lk1 * dvp, dvp, 1, a->v2, a->lk2, 1, a->lk2, a->dv, 1);
        }
        for (long t0 = 0; t0 < lanes; t0 += VW) {
            const long nl = lanes - t0 < VW ? lanes - t0 : VW;
            if (a->lanek) {
                pack(kp, dp, VW, a->k + b * lk * a->d * lanes + t0, lanes, a->d * lanes, lk, a->d,
                     nl);
                pack(vp, dvp, VW, a->v + b * lk * a->dv * lanes + t0, lanes, a->dv * lanes, lk,
                     a->dv, nl);
            }
            for (long r = 0; r < a->rows; r++) {
                const long row = b * a->rows + r;
                pack(qp, 0, VW, a->q + row * a->d * lanes + t0, lanes, 0, 1, a->d, nl);
                if (a->lanek)
                    attn_block(qp, kp, vp, s, o, lk, dp, dvp, a->scale, 1);
                else
                    attn_block(qp, kp, vp, s, o, lk, dp, dvp, a->scale, 0);
                for (long e = 0; e < a->dv; e++)
                    memcpy(a->out + (row * a->dv + e) * lanes + t0, o + e * VW, sizeof(float) * nl);
                if (a->probs)
                    for (long l = 0; l < nl; l++) {
                        float *pr = a->probs + (row * lanes + t0 + l) * lk;
                        for (long j = 0; j < lk; j++)
                            pr[j] = s[j * VW + l];
                    }
            }
        }
    }
}

/* ---------------------------------------------------------------------------
 * glue ops */

#define MAXD 6 /* dims of a strided op, after kernels.py merges what it can */

/* An odometer over the blocks (the last two axes) of an ndim-d index space,
 * ndim >= 2, with the offsets, in floats, of each block's first element
 * under two stride sets. */
struct blocks2 {
    long ndim, idx[MAXD], o1, o2;
    const long *shape, *s1, *s2;
};

static long blocks2_start(struct blocks2 *w, long ndim, const long *shape, const long *s1,
                          const long *s2)
{
    long blocks = 1;
    w->ndim = ndim;
    w->shape = shape;
    w->s1 = s1;
    w->s2 = s2;
    w->o1 = w->o2 = 0;
    for (long k = 0; k < ndim - 2; k++) {
        w->idx[k] = 0;
        blocks *= shape[k];
    }
    return blocks;
}

static void blocks2_next(struct blocks2 *w)
{
    for (long k = w->ndim - 3; k >= 0; k--) {
        w->o1 += w->s1[k];
        w->o2 += w->s2[k];
        if (++w->idx[k] < w->shape[k])
            return;
        w->o1 -= w->shape[k] * w->s1[k];
        w->o2 -= w->shape[k] * w->s2[k];
        w->idx[k] = 0;
    }
}

/* dst[i] = src[i] over an ndim-d index space (ndim >= 2, kernels.py pads a
 * single axis with a unit one); strides in floats, 0 to broadcast.  Floats
 * are moved, never computed, so every bit survives. */
static void copy_nd(float *dst, const float *src, long ndim, const long *shape, const long *ds,
                    const long *ss)
{
    const long m = shape[ndim - 2], n = shape[ndim - 1];
    const long dm = ds[ndim - 2], dn = ds[ndim - 1], sm = ss[ndim - 2], sn = ss[ndim - 1];
    enum { T = 16 }; /* tile of a transpose */
    struct blocks2 w;
    const long blocks = blocks2_start(&w, ndim, shape, ds, ss);
    for (long b = 0; b < blocks; b++, blocks2_next(&w)) {
        float *d = dst + w.o1;
        const float *s = src + w.o2;
        if (dn == 1 && sm == 1 && sn != 1) { /* a transpose, in tiles that stay in cache */
            for (long i0 = 0; i0 < m; i0 += T)
                for (long j0 = 0; j0 < n; j0 += T) {
                    const long ie = i0 + T < m ? i0 + T : m, je = j0 + T < n ? j0 + T : n;
                    for (long i = i0; i < ie; i++)
                        for (long j = j0; j < je; j++)
                            d[i * dm + j] = s[i + j * sn];
                }
            continue;
        }
        for (long i = 0; i < m; i++) {
            if (dn == 1 && sn == 1) {
                memcpy(d + i * dm, s + i * sm, sizeof(float) * n);
            } else {
                for (long j = 0; j < n; j++)
                    d[i * dm + j * dn] = s[i * sm + j * sn];
            }
        }
    }
}

/* out (outer, m, inner) = the rows idx of x (outer, nx, inner). */
static void gather_rows(float *out, const float *x, const long *idx, long outer, long nx, long m,
                        long inner)
{
    for (long o = 0; o < outer; o++)
        for (long j = 0; j < m; j++) {
            float *dst = out + (o * m + j) * inner;
            const float *src = x + (o * nx + idx[j]) * inner;
            if (inner == 1)
                *dst = *src;
            else
                memcpy(dst, src, sizeof(float) * inner);
        }
}

/* Rows idx of out (outer, nout, inner) = src (souter, m, inner), src
 * broadcast over the leading axes it lacks: outer item o reads o % souter. */
static void scatter_rows(float *out, const float *src, const long *idx, long outer, long nout,
                         long m, long inner, long souter)
{
    for (long o = 0; o < outer; o++)
        for (long j = 0; j < m; j++) {
            float *dst = out + (o * nout + idx[j]) * inner;
            const float *from = src + ((o % souter) * m + j) * inner;
            if (inner == 1)
                *dst = *from;
            else
                memcpy(dst, from, sizeof(float) * inner);
        }
}

/* ---------------------------------------------------------------------------
 * op records
 *
 * An op is OP_SLOTS 8-byte slots: the kind, then its arguments in the order
 * of the function it runs (integers, addresses, and the attention scale as a
 * double).  kernels.py writes the same kinds and orders. */

#define OP_SLOTS 24

enum {
    OP_CHANNEL_MIX = 1,
    OP_CONV,
    OP_NORM,
    OP_ATTENTION,
    OP_EXP,
    OP_COPY,
    OP_GATHER,
    OP_SCATTER,
};

typedef union {
    long i;
    void *p;
    double d;
} slot;

static void run_op(const slot *op)
{
    const slot *a = op + 1;
    switch (op[0].i) {
    case OP_CHANNEL_MIX: /* x, w, ldw, out, base or NULL, f, c, hw, co, ws */
        channel_mix(a[0].p, a[1].p, a[2].i, a[3].p, a[4].p, a[5].i, a[6].i, a[7].i, a[8].i,
                    a[9].p);
        break;
    case OP_CONV: /* the arguments of conv2d_frames */
        conv2d_frames(a[0].p, a[1].p, a[2].p, a[3].i, a[4].p, a[5].p, a[6].i, a[7].i, a[8].i,
                      a[9].i, a[10].i, a[11].i, a[12].p, a[13].i, a[14].i, a[15].p, a[16].p);
        break;
    case OP_NORM: /* x, out, gate or NULL, outer, c, inner, pairwise; the gate is exp(-clip(out)) */
        rms_norm(a[0].p, a[1].p, a[2].p, a[3].i, a[4].i, a[5].i, (int)a[6].i);
        if (a[2].p)
            exp_inplace(a[2].p, a[3].i * a[4].i * a[5].i);
        break;
    case OP_ATTENTION: { /* the fields of struct attn in order, the scale a double, then ws */
        const struct attn at = {a[0].p, a[1].p, a[2].p, a[3].p, a[4].p, a[5].p, a[6].p,
                                a[7].i, a[8].i, a[9].i, a[10].i, a[11].i, a[12].i, a[13].i,
                                a[14].i, a[15].i, (float)a[16].d};
        attention(&at, a[17].p);
        break;
    }
    case OP_EXP: /* x, n */
        exp_inplace(a[0].p, a[1].i);
        break;
    case OP_COPY: /* dst, src, ndim, shape[MAXD], dst strides[MAXD], src strides[MAXD] */
        copy_nd(a[0].p, a[1].p, a[2].i, &a[3].i, &a[3 + MAXD].i, &a[3 + 2 * MAXD].i);
        break;
    case OP_GATHER: /* out, x, idx, outer, nx, m, inner */
        gather_rows(a[0].p, a[1].p, a[2].p, a[3].i, a[4].i, a[5].i, a[6].i);
        break;
    case OP_SCATTER: /* out, src, idx, outer, nout, m, inner, souter */
        scatter_rows(a[0].p, a[1].p, a[2].p, a[3].i, a[4].i, a[5].i, a[6].i, a[7].i);
        break;
    }
}

/* Run n op records in order. */
void cd_run(const slot *ops, long n)
{
    for (long i = 0; i < n; i++)
        run_op(ops + i * OP_SLOTS);
}
