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
 * One convolution op serves every per-pixel GEMM: 3x3 kernels, and 1x1
 * kernels, the channel mixes (a unit's skip, an attention site's Q, K, V
 * and output projections, and the eager matmul, a frame per row).  Its
 * weights arrive packed once.  A 3x3 conv reads its patches from a
 * zero-padded copy of the input and multiplies the padding zeros like any
 * other element, so inf or NaN weights give NaN where the reference does
 * (which NaN's bits survive a sum of two NaNs is not fixed, see
 * kernels.py).  A 1x1 conv reads its input in place.  The conv runs in one
 * of two orientations, with the same sums: where a frame's output rows fill
 * whole vectors (or halves of them), or a 1x1 conv's frame holds a tile of
 * pixels, the output pixels are the lanes and the channels the tile rows,
 * and each output vector is one store; elsewhere (stride 2, narrow maps,
 * fewer pixels, 3x3 convs on 4-lane builds) the output pixels are the GEMM
 * rows and the channels the lanes.
 *
 * The RMS norm is the one sum that does not always run in ascending
 * order: it follows numpy's float32 np.mean, which sums a contiguous axis
 * pairwise (pairwise_sq, a vector of tokens at a time) and a strided one in
 * ascending order.  Asked for SiLU, it writes silu(rms_norm(x)) itself, so
 * that a residual unit's conv(silu(rms_norm(x))) is one norm op and one
 * conv.
 *
 * exp is numpy's own: cd_set_exp hands over the float32 inner loop of
 * np.exp, found in its loop table when the library is loaded (native.py),
 * and the kernels call it in place, as np.exp(x, out=x) does, so both
 * backends run the same machine code.
 *
 * Attention, like the 1x1 convs around it, keeps the tokens on the vector
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
 * and gathers and scatters of tokens by index.
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
#define VW_LANES 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15
#elif defined(__AVX__)
#define VW 8
#define NREGS 16
#define VW_LANES 0, 1, 2, 3, 4, 5, 6, 7
#else
#define VW 4
#define NREGS 16
#define VW_LANES 0, 1, 2, 3
#endif

typedef float vwf __attribute__((vector_size(VW * 4)));
typedef int vwi __attribute__((vector_size(VW * 4)));
typedef float vwh __attribute__((vector_size(VW * 2))); /* half a vector */

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

static long up(long n, long m)
{
    return (n + m - 1) / m * m;
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

/* Rows per micro-tile of the pixel-row GEMM with nv column vectors: the
 * accumulators, the nv B vectors and one broadcast fit in the register file.
 * At 8 lanes (16 registers) a tile has at most two vectors, of 6 rows: four
 * would leave 2 rows, two broadcasts per four vector loads, and took 1.13
 * times as long on a 2x2 64 -> 64 conv.  At 4 lanes a broadcast costs a
 * shuffle, and tiles of four vectors, with the fewest broadcasts, were 10 %
 * faster than two. */
#define MAXROWS 12
#define MAXNV (VW == 8 ? 2 : 4)
#define ROWS(nv) ((NREGS - (nv) - 2) / (nv) < MAXROWS ? (NREGS - (nv) - 2) / (nv) : MAXROWS)

/* One output tile of ROWS(NV) rows by NV vectors.  Row r reads its
 * reduction operand p at ar[r][koff[p]]; B is k rows of ldb floats.  The
 * tile is written to c with row stride ldc. */
#define DEFINE_MICRO(NV)                                                       \
    static void micro_##NV(const float *const *ar, const long *koff, long k,  \
                           const float *b, long ldb, float *c, long ldc)      \
    {                                                                         \
        enum { R = ROWS(NV) };                                                \
        vwf acc[R][NV];                                                       \
        for (int r = 0; r < R; r++)                                           \
            for (int v = 0; v < NV; v++)                                      \
                acc[r][v] = (vwf){0};                                         \
        for (long p = 0; p < k; p++) {                                        \
            const long o = koff[p];                                           \
            vwf bv[NV];                                                       \
            for (int v = 0; v < NV; v++)                                      \
                bv[v] = vload(b + p * ldb + v * VW);                          \
            for (int r = 0; r < R; r++) {                                     \
                const float s = ar[r][o];                                     \
                for (int v = 0; v < NV; v++)                                  \
                    acc[r][v] = acc[r][v] + s * bv[v];                        \
            }                                                                 \
        }                                                                     \
        for (int r = 0; r < R; r++)                                           \
            for (int v = 0; v < NV; v++)                                      \
                vstore(c + r * ldc + v * VW, acc[r][v]);                      \
    }

typedef void (*micro_fn)(const float *const *, const long *, long, const float *, long, float *,
                         long);

DEFINE_MICRO(1)
DEFINE_MICRO(2)
#if MAXNV == 4
DEFINE_MICRO(3)
DEFINE_MICRO(4)
static const micro_fn micros[MAXNV] = {micro_1, micro_2, micro_3, micro_4};
#else
static const micro_fn micros[MAXNV] = {micro_1, micro_2};
#endif

/* C = A @ B for an m x n output, the pixel-row orientation of a conv.
 * A(i, p) = abase[arow[i] + koff[p]]; B is k rows of ldb floats, the packed
 * weights: ldb is a multiple of 16, the widest vector, so columns n..ldb-1
 * exist (their results are discarded).  C[i][j] goes to out[orow[i] + j *
 * cs], the (channel, pixel) layout of a convolution, as the epilogue below
 * makes it: + bias[j] when bias is given, then either + add[(i / add_rows)
 * * add_ld + j], or base[same index] + 0.5f * that.  Each step is one
 * separately rounded float32 operation. */
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
    const long cs = g->cs, at = g->orow[i] + j0 * cs;
    float *dst = g->out + at;
    float v[MAXNV * VW];
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
    float tile[MAXROWS * MAXNV * VW];
    for (long j0 = 0; j0 < g->n; j0 += MAXNV * VW) {
        long nv = (g->n - j0 + VW - 1) / VW;
        if (nv > MAXNV)
            nv = MAXNV;
        const micro_fn fn = micros[nv - 1];
        const long rows = ROWS(nv), tw = nv * VW;
        const long ncols = g->n - j0 < tw ? g->n - j0 : tw;
        for (long i0 = 0; i0 < g->m; i0 += rows) {
            const long live = g->m - i0 < rows ? g->m - i0 : rows;
            const float *ar[MAXROWS];
            for (long r = 0; r < rows; r++)
                ar[r] = g->abase + g->arow[i0 + (r < live ? r : live - 1)];
            fn(ar, g->koff, g->k, g->b + j0, g->ldb, tile, tw);
            for (long r = 0; r < live; r++)
                store_row(g, i0 + r, j0, tile + r * tw, ncols);
        }
    }
}

/* The lane orientation's micro kernels: an output tile of R channels by NV
 * vectors of VW pixels.  Channel r reads its reduction operand p at a[p *
 * lda + r], so the tile's rows need one pointer (with a pointer per row, as
 * the GEMM's micro kernels take them, 16 rows spill and ran at 0.7 of this
 * speed).  Vector v of B's row p is the VW floats at b + boff[p] + v * vs, or
 * with HALVES the VW / 2 floats there followed by the VW / 2 floats hs
 * further on.  The tile is written to c with row stride ldc.  A tile's rows
 * past the last channel read the packed weights' zero columns (a tile of
 * LANE_ROWS, 8 or FEW rows never passes a multiple of 16) and are not
 * stored. */
#define DEFINE_LANE_MICRO(NAME, R_, NV, HALVES)                                \
    static void NAME(const float *a, long lda, long k, const float *b,        \
                     const long *boff, long vs, long hs, float *c, long ldc)  \
    {                                                                         \
        enum { R = R_ };                                                      \
        vwf acc[R][NV];                                                       \
        (void)hs;                                                             \
        for (int r = 0; r < R; r++)                                           \
            for (int v = 0; v < NV; v++)                                      \
                acc[r][v] = (vwf){0};                                         \
        for (long p = 0; p < k; p++) {                                        \
            const float *ap = a + p * lda, *bp = b + boff[p];                 \
            vwf bv[NV];                                                       \
            for (int v = 0; v < NV; v++) {                                    \
                if (HALVES) {                                                 \
                    vwh lo, hi;                                               \
                    memcpy(&lo, bp + v * vs, sizeof lo);                      \
                    memcpy(&hi, bp + v * vs + hs, sizeof hi);                 \
                    bv[v] = __builtin_shufflevector(lo, hi, VW_LANES);        \
                } else {                                                      \
                    bv[v] = vload(bp + v * vs);                               \
                }                                                             \
            }                                                                 \
            for (int r = 0; r < R; r++)                                       \
                for (int v = 0; v < NV; v++)                                  \
                    acc[r][v] = acc[r][v] + ap[r] * bv[v];                    \
        }                                                                     \
        for (int r = 0; r < R; r++)                                           \
            for (int v = 0; v < NV; v++)                                      \
                vstore(c + r * ldc + v * VW, acc[r][v]);                      \
    }

/* Tiles of LANE_ROWS channels by LANE_NV vectors; of FEW channels by
 * FEW_NV vectors, for a conv with at most FEW output channels; of 8
 * channels by EIGHT_NV vectors, for one with at most 8 (an attention site's
 * Q, K and V projections); and of LANE_ROWS channels by one vector of two
 * half rows.  Accumulators, the B vectors and a broadcast fit in the
 * register file.  At 8 lanes, 8 x 1 was the fastest of 8 x 1, 6 x 2, 4 x 3
 * and 12 x 1, so there the 8-channel tile is LANE_ROWS x 1.  At 4 lanes,
 * where a broadcast costs a shuffle and only 1x1 convs take the lanes, every
 * tile is 2 x 4, the fewest broadcasts. */
#define LANE_ROWS (NREGS >= 32 ? 16 : VW == 8 ? 8 : 2)
#define LANE_NV (VW == 4 ? 4 : 1)
#define FEW 4
#define FEW_NV (NREGS / 8)
#define EIGHT_NV (NREGS >= 32 ? 3 : 1)
#define LANE_TILE (8 * EIGHT_NV > LANE_ROWS * LANE_NV ? 8 * EIGHT_NV : LANE_ROWS * LANE_NV)
DEFINE_LANE_MICRO(lane_rows, LANE_ROWS, LANE_NV, 0)
DEFINE_LANE_MICRO(lane_few, FEW, FEW_NV, 0)
DEFINE_LANE_MICRO(lane_eight, 8, EIGHT_NV, 0)
DEFINE_LANE_MICRO(lane_halves, LANE_ROWS, 1, 1)

/* The lane orientation of conv2d_frames (at 4 lanes only for 1x1 convs): each
 * frame is one GEMM with the output channels as rows and the frame's
 * pixels, VW at a time, as columns, the pixels read as ho rows of wo (whole
 * vectors, or with 2 * wo == VW two rows per vector).  A is the packed
 * weights as they are, and each B vector is read from xp (frames of ci
 * planes of plane floats, rows pw floats apart) at its tap's offset
 * taps[p]: the VW pixels from (y, x) on read their channel plane's row y
 * (+ ky) from x (+ kx) on, or the halves of two rows.  A tile's vectors are
 * the same columns of consecutive rows (or row pairs), vs floats apart in
 * xp; a column's last tile of several vectors is moved back to end at the
 * frame's last row and stores only the vectors the tile before left.  Each
 * output vector is one contiguous store, the epilogue applied to the whole
 * vector; bias may be NULL. */
static void conv_lanes(const float *xp, long pw, long plane, const float *wp, long ldw,
                       const long *taps, long k, const float *bias, float *out, long f, long ci,
                       long ho, long wo, long co, const float *add, long add_ld, long add_frames,
                       const float *base)
{
    const long hw = ho * wo, halves = 2 * wo == VW, hs = halves ? pw : 0;
    const long vrows = halves ? ho / 2 : ho, vs = halves ? 2 * pw : pw, qs = halves ? VW : wo;
    const int few = VW > 4 && !halves && co <= FEW && vrows >= FEW_NV;
    const int eight = VW > 4 && !halves && !few && co <= 8 && vrows >= EIGHT_NV;
    const long nv = few ? FEW_NV : eight ? EIGHT_NV : LANE_NV;
    const long rows = few ? FEW : eight ? 8 : LANE_ROWS, tw = nv * VW;
    void (*const fn)(const float *, long, long, const float *, const long *, long, long, float *,
                     long) = halves ? lane_halves : few ? lane_few : eight ? lane_eight : lane_rows;
    float tile[LANE_TILE * VW];
    for (long fi = 0; fi < f; fi++) {
        const float *ad = add ? add + fi / add_frames * add_ld : NULL;
        for (long x0 = 0; x0 < wo; x0 += VW)
            for (long y0 = 0; y0 < vrows; y0 += nv) {
                const long yt = y0 + nv <= vrows ? y0 : vrows - nv;
                const float *b = xp + fi * ci * plane + yt * vs + x0;
                for (long i0 = 0; i0 < co; i0 += rows) {
                    fn(wp + i0, ldw, k, b, taps, vs, hs, tile, tw);
                    for (long r = 0; r < rows && i0 + r < co; r++) {
                        const long ch = i0 + r;
                        for (long v = y0 - yt; v < nv; v++) {
                            const long at = (fi * co + ch) * hw + (yt + v) * qs + x0;
                            vwf y = vload(tile + r * tw + v * VW);
                            if (bias)
                                y = y + bias[ch];
                            if (base)
                                y = vload(base + at) + 0.5f * y;
                            else if (ad)
                                y = y + ad[ch];
                            vstore(out + at, y);
                        }
                    }
                }
            }
    }
}

/* The lane orientation of a 1x1 conv, for frames of at least LANE_NV * VW
 * pixels: the pixels are presented to conv_lanes as rows of VW, so that its
 * tiles of several vectors apply, and the input is read in place.  When hw
 * is not a multiple of VW, each frame is copied to ws in zero-padded rows,
 * computed into a padded output there and copied out with the epilogue, the
 * same separately rounded operations as conv_lanes' store. */
static void conv1x1_lanes(const float *x, const float *wp, long ldw, long *taps,
                          const float *bias, float *out, long f, long ci, long hw, long co,
                          const float *add, long add_ld, long add_frames, const float *base,
                          char *ws)
{
    const long hwp = up(hw, VW);
    for (long p = 0; p < ci; p++)
        taps[p] = p * hwp;
    if (hwp == hw) {
        conv_lanes(x, VW, hw, wp, ldw, taps, ci, bias, out, f, ci, hw / VW, VW, co, add, add_ld,
                   add_frames, base);
        return;
    }
    float *xs = carve(&ws, sizeof(float) * ci * hwp);
    float *ys = carve(&ws, sizeof(float) * co * hwp);
    for (long p = 0; p < ci; p++)
        memset(xs + p * hwp + hw, 0, sizeof(float) * (hwp - hw));
    for (long fi = 0; fi < f; fi++) {
        for (long p = 0; p < ci; p++)
            memcpy(xs + p * hwp, x + (fi * ci + p) * hw, sizeof(float) * hw);
        conv_lanes(xs, VW, hwp, wp, ldw, taps, ci, NULL, ys, 1, ci, hwp / VW, VW, co, NULL, 0, 1,
                   NULL);
        const float *ad = add ? add + fi / add_frames * add_ld : NULL;
        for (long ch = 0; ch < co; ch++) {
            const long at = (fi * co + ch) * hw;
            for (long q = 0; q < hw; q++) {
                float y = ys[ch * hwp + q];
                if (bias)
                    y = y + bias[ch];
                out[at + q] = base ? base[at + q] + 0.5f * y : ad ? y + ad[ch] : y;
            }
        }
    }
}

/* A zero-padded copy, carved from ws, of the n planes (h, w) of x: each
 * (h + 2, w + 2).  The rows are copied by a plain loop: with a memcpy per
 * row the pre-activation convs of a forward pass took 5-20 % longer. */
static const float *pad_frames(const float *x, long n, long h, long w, char **ws)
{
    const long ph = h + 2, pw = w + 2;
    float *xp = carve(ws, sizeof(float) * n * ph * pw);
    for (long pl = 0; pl < n; pl++) {
        float *dst = xp + pl * ph * pw;
        memset(dst, 0, sizeof(float) * pw);
        for (long y = 0; y < h; y++) {
            float *row = dst + (y + 1) * pw;
            const float *src = x + (pl * h + y) * w;
            row[0] = 0.0f;
            for (long j = 0; j < w; j++)
                row[j + 1] = src[j];
            row[pw - 1] = 0.0f;
        }
        memset(dst + (ph - 1) * pw, 0, sizeof(float) * pw);
    }
    return xp;
}

/* Convolution of every frame of x (f, ci, h, w) with ks x ks kernels: 3x3
 * with zero padding 1 (stride 1 or 2), or 1x1 (stride 1), a channel mix:
 * out[fi][j][q] = sum_p x[fi][p][q] * w[p][j].  out is (f, co, ho, wo).  wp
 * holds the packed weights, (ci * ks * ks) rows of ldw floats, row p the
 * weights of reduction index p = (ci, ky, kx) for every output channel; ldw
 * is a multiple of 16, the widest vector, and columns co..ldw-1 are zero.
 * The reduction runs over p ascending and bias (co, or NULL for none) is
 * added after the sum.
 *
 * The store adds one of two epilogues to acc + bias, as the gemm above
 * describes: add (a residual unit's time projection, row s of add_ld floats
 * for the frames s * add_frames ..) or base (a residual: base + 0.5f *).
 *
 * A 3x3 conv reads its patches from a zero-padded copy of the input, a 1x1
 * conv reads the input in place.  Where a frame's output rows fill vectors,
 * or a 1x1 conv's frame holds a vector of pixels, the output pixels are the
 * lanes (conv_lanes above).  Elsewhere (stride 2, narrow maps, 1x1 convs of
 * fewer than VW pixels, or 4-lane builds) one GEMM has the output pixels as
 * rows and the channels as columns: row i reads its patch from the input
 * (or its padded copy), B is the packed weights, and the store scatters each
 * row's channels to their planes. */
static void conv2d_frames(const float *x, const float *wp, long ldw, const float *bias, float *out,
                          long f, long ci, long h, long wd, long co, long ks, long stride,
                          const float *add, long add_ld, long add_frames, const float *base,
                          char *ws)
{
    const long pad = ks / 2, ph = h + 2 * pad, pw = wd + 2 * pad, k = ci * ks * ks;
    const long ho = (h - 1) / stride + 1, wo = (wd - 1) / stride + 1, hw = ho * wo;
    const long npix = f * hw;
    if (npix == 0 || co == 0)
        return;
    /* At 4 lanes (no AVX) each broadcast costs a shuffle, and the lane tiles
     * lost to the pixel rows on 3x3 convs, so those keep the pixel rows
     * there; a 1x1 conv takes the lanes from one tile of pixels on. */
    const int lanes = stride == 1 && (ks == 1 ? hw >= LANE_NV * VW
                                              : VW >= 8 && (wo % VW == 0 ||
                                                            (2 * wo == VW && ho % 2 == 0)));
    long *koff = carve(&ws, sizeof(long) * k); /* patch element p from the patch's origin */
    if (ks == 1 && lanes) {
        conv1x1_lanes(x, wp, ldw, koff, bias, out, f, ci, hw, co, add, add_ld, add_frames, base,
                      ws);
        return;
    }
    long *pix = lanes ? NULL : carve(&ws, sizeof(long) * npix); /* patch origin of a pixel */
    long *opix = lanes ? NULL : carve(&ws, sizeof(long) * npix);
    const float *xp = ks == 3 ? pad_frames(x, f * ci, h, wd, &ws) : x;
    for (long c = 0, p = 0; c < ci; c++)
        for (long ky = 0; ky < ks; ky++)
            for (long kx = 0; kx < ks; kx++, p++)
                koff[p] = c * ph * pw + ky * pw + kx;
    if (lanes) {
        conv_lanes(xp, pw, ph * pw, wp, ldw, koff, k, bias, out, f, ci, ho, wo, co, add, add_ld,
                   add_frames, base);
        return;
    }
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
 * RMS norm */

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

/* Inner positions per block of the norm, a multiple of 16 from 16 to 256:
 * up to 128 channels, a block's c x nj values, and with SiLU their exp
 * arguments in ws, hold at most 2048 floats each and stay in L1. */
static long norm_block(long c)
{
    const long nj = 2048 / (c > 0 ? c : 1) / 16 * 16;
    return nj < 16 ? 16 : nj > 256 ? 256 : nj;
}

/* RMS norm over the middle axis of x (outer, c, inner), as numpy computes
 *     out = x / sqrt(mean(x * x, axis) + 1e-5)
 * in float32 for each of the outer x inner positions, the inner ones on the
 * lanes.  The sum of squares runs in numpy's order for a contiguous axis
 * with pairwise (0.0f + pairwise_sq: a token's channels, or inner == 1),
 * else in ascending order from +0.0 (a strided axis of a feature map); the
 * mean divides it by c.  With silu, out = silu(norm) instead, the
 * reference's sequence: for each block of norm_block(c) inner positions,
 * g = -clip(norm, -30, 30) in ws (c * nj floats), one call of numpy's exp
 * on g, then out = norm * (1 / (1 + g)). */
static void rms_norm(const float *x, float *out, long outer, long c, long inner, int pairwise,
                     int silu, char *ws)
{
    enum { MAXBLOCK = 256 };
    float r[MAXBLOCK];
    float *const g = (float *)ws;
    const long blk = norm_block(c);
    for (long o = 0; o < outer; o++) {
        for (long j0 = 0; j0 < inner; j0 += blk) {
            const long nj = inner - j0 < blk ? inner - j0 : blk;
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
                const float *xs = x + base + ch * inner;
                float *os = out + base + ch * inner;
                for (long j = 0; j < nj; j++)
                    os[j] = xs[j] / r[j];
                if (!silu)
                    continue;
                for (long j = 0; j < nj; j++) {
                    const float v = os[j];
                    g[ch * nj + j] = -(v < -30.0f ? -30.0f : v > 30.0f ? 30.0f : v);
                }
            }
            if (!silu)
                continue;
            exp_inplace(g, c * nj);
            for (long ch = 0; ch < c; ch++) {
                float *os = out + base + ch * inner;
                for (long j = 0; j < nj; j++)
                    os[j] = os[j] * (1.0f / (1.0f + g[ch * nj + j]));
            }
        }
    }
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
    struct blocks2 w;
    const long blocks = blocks2_start(&w, ndim, shape, ds, ss);
    for (long b = 0; b < blocks; b++, blocks2_next(&w)) {
        float *d = dst + w.o1;
        const float *s = src + w.o2;
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

/* out (outer, m) = the columns idx of x (outer, nx). */
static void gather_rows(float *out, const float *x, const long *idx, long outer, long nx, long m)
{
    for (long o = 0; o < outer; o++)
        for (long j = 0; j < m; j++)
            out[o * m + j] = x[o * nx + idx[j]];
}

/* Columns idx of out (outer, nout) = src (souter, m), src broadcast over
 * the leading axes it lacks: row o of out reads row o % souter. */
static void scatter_rows(float *out, const float *src, const long *idx, long outer, long nout,
                         long m, long souter)
{
    for (long o = 0; o < outer; o++)
        for (long j = 0; j < m; j++)
            out[o * nout + idx[j]] = src[(o % souter) * m + j];
}

/* ---------------------------------------------------------------------------
 * op records
 *
 * An op is OP_SLOTS 8-byte slots: the kind, then its arguments in the order
 * of the function it runs (integers, addresses, and the attention scale as a
 * double).  kernels.py writes the same kinds and orders. */

#define OP_SLOTS 24

enum {
    OP_CONV = 1,
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
    case OP_CONV: /* the arguments of conv2d_frames */
        conv2d_frames(a[0].p, a[1].p, a[2].i, a[3].p, a[4].p, a[5].i, a[6].i, a[7].i, a[8].i,
                      a[9].i, a[10].i, a[11].i, a[12].p, a[13].i, a[14].i, a[15].p, a[16].p);
        break;
    case OP_NORM: /* the arguments of rms_norm */
        rms_norm(a[0].p, a[1].p, a[2].i, a[3].i, a[4].i, (int)a[5].i, (int)a[6].i, a[7].p);
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
    case OP_GATHER: /* out, x, idx, outer, nx, m */
        gather_rows(a[0].p, a[1].p, a[2].p, a[3].i, a[4].i, a[5].i);
        break;
    case OP_SCATTER: /* out, src, idx, outer, nout, m, souter */
        scatter_rows(a[0].p, a[1].p, a[2].p, a[3].i, a[4].i, a[5].i, a[6].i);
        break;
    }
}

/* Run n op records in order. */
void cd_run(const slot *ops, long n)
{
    for (long i = 0; i < n; i++)
        run_op(ops + i * OP_SLOTS);
}
