/* Page kernel: the "native" backend of repro.coding.kernels.  An MFC write is
 * three calls, search_inputs (the coset chunks and the page's levels), search
 * and program; an MFC read is one (decode); the WOM code has one per direction
 * (wom_encode, wom_decode).  levels counts the cells of any page, payload
 * draws a host write's bits from its seed, and search_vector_body and
 * page_vector_body say which bodies run.
 * kernels.py compiles it on first use (-O3 -shared -fPIC; gcc vectorises the
 * butterfly loop only at -O3) and loads it with ctypes.
 *
 * search is the add-compare-select recursion, ties to the first minimum: the
 * one the numpy backend runs a vector of lanes at a time.  CosetViterbi hands
 * it only integer (or inf) costs in a fused table and a shift-register
 * trellis, where states 2j and 2j+1 both come from j (predecessor 0) and
 * j + S/2 (predecessor 1): a step is S/2 butterflies over two contiguous
 * halves of the old metrics, its 2S branch costs indexed [u][k][j] (entering
 * state 2j+u from its k-th predecessor).  Survivors are one bit per (step,
 * state), bit t % 8 of byte (t / 8) * S + s the predecessor s took at step
 * t: one lane's plane at a time, walked back as soon as it is full.
 *
 * A lane runs in the narrowest exact width first: uint8 over the expanded
 * table, one uint8 cost vector per (level row, coset chunk), where the caller
 * binds one; else int16, gathering each cost from the fused table.
 * Infeasible is BIG (255, 16383), and every candidate is clamped to BIG
 * before the compare, so two infeasible ones tie as two infs do.  Every
 * RENORM steps (8, 16) the least finite metric moves into an int64 offset; a
 * finite one still above the width's limit could reach BIG before the next,
 * so that lane WIDENs: a uint8 lane is redone in int16, an int16 one in
 * double, which also gathers.  A least metric of BIG says every state is
 * dead, and no later step revives one: the lane stops there, unwritable, once
 * the steps it does not run are range-checked.  An unwritable lane's codeword
 * is all zeros.  The three widths are one body, this file including itself;
 * in the double one BIG is IEEE inf, nothing is clamped and nothing
 * renormalises or stops: never build it with -ffast-math.
 *
 * That body is plain C, which gcc runs sixteen uint8 or eight int16 states
 * to an SSE2 register, the x86-64 baseline.  The paper's case, 64 states in
 * uint8, has a second body in AVX2 intrinsics (lane64_avx2): the 64 metrics
 * in two ymm registers, where a saturating add is the clamp, and a step's
 * survivors one 64-bit word.  It is compiled for AVX2 by a function attribute
 * and taken only when the CPU says it has AVX2 (search_vector_body), so one
 * artefact built without -march runs on any x86-64, and the file still
 * compiles where there is no such target.  Both bodies keep the same five
 * rules, so they return the same bytes.
 *
 * The level count (search_inputs, levels), the page program of 3-bit cells,
 * 1 or 2 bits a cell, and the WOM pair (3-bit cells of 2 bits) have AVX2
 * bodies chosen the same way (page_vector_body), sixteen cells at a time as
 * three bit planes; the cells past the last sixteen, every other width and
 * every other CPU run the plain bodies.  decode is plain C on every CPU.
 *
 * Every page-code kernel takes one pointer to an int64 parameter block first,
 * then its lane count, then the call's own arrays.  A block holds what never
 * changes for one code: its shapes, its limits and its tables' addresses,
 * each field at the index its enum below names.  The code binds it once, when
 * it is built (kernels.ParameterBlock, whose layouts list the same fields in
 * the same order), and keeps it and the tables alive together.  A kernel reads
 * its block's fields into locals and range-checks them as it would arguments.
 *
 * Tables are C-contiguous.  Every function returns -1 when scratch cannot be
 * allocated, -2 when an input is out of range, else 0 (search: the number of
 * lanes it redid wider).
 */
#ifndef T
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define WIDEN 1
#define BIG8 255
#define RENORM8 8
#define BIG16 16383
#define RENORM16 16

/* The search block: a CosetViterbi's trellis, limits and tables. */
enum { SB_STATES, SB_CELLS, SB_LEVELS, SB_VALUES, SB_LIMIT8, SB_LIMIT, SB_ORDER,
       SB_COSTS16, SB_EXPANDED, SB_COSTS64, SB_OUT_VALUES };
/* The page block: a ConvolutionalCosetCode's page, its code and its tables,
 * read by search_inputs, program and decode. */
enum { PB_PAGE_BITS, PB_CELLS, PB_WIDTH, PB_STEPS, PB_PER_STEP, PB_BPC, PB_GUARD,
       PB_TAPS, PB_GENERATORS, PB_TARGET_OF, PB_READ_OF };
/* The WOM block: a WomVCellCode's page and its two tables. */
enum { WB_PAGE_BITS, WB_CELLS, WB_NEXT, WB_VALUE_OF };
/* A block's table field as the pointer it holds (0 for none). */
#define TABLE(type, p, field) ((const type *)(intptr_t)(p)[field])

/* Eight steps' survivors, rows of S bytes each 0 or 1, into one byte per
 * state: step q's at bit q.  Vector loads of what the butterflies stored as
 * vectors, so nothing waits on a store to forward. */
static void pack(int64_t S, const uint8_t *restrict k, uint8_t *restrict bits)
{
    for (int64_t s = 0; s < S; s++) {
        uint8_t byte = 0;
        for (int q = 0; q < 8; q++)
            byte |= k[q * S + s] << q;
        bits[s] = byte;
    }
}

/* The range check of the steps a stopped lane does not run: it refuses what
 * a full pass would, every chunk below V and every level below L. */
static int unrun_in_range(int64_t steps, int64_t cells, int64_t L, int64_t V,
                          const int64_t *reps, const int64_t *levels)
{
    for (int64_t t = 0; t < steps; t++) {
        if ((uint64_t)reps[t] >= (uint64_t)V)
            return -2;
        for (int64_t c = 0; c < cells; c++)
            if ((uint64_t)levels[t * cells + c] >= (uint64_t)L)
                return -2;
    }
    return 0;
}

/* By name, not __FILE__: a quoted include is looked up beside the including
 * file, so this finds itself however the compiler was handed its path.
 * double defines no RENORM. */
#define T uint8_t
#define BIG BIG8
#define RENORM RENORM8
#define NAME(f) f##_u8
#include "_viterbi.c"
#undef T
#undef BIG
#undef RENORM
#undef NAME
#define T int16_t
#define BIG BIG16
#define RENORM RENORM16
#define NAME(f) f##_i16
#include "_viterbi.c"
#undef T
#undef BIG
#undef RENORM
#undef NAME
#define T double
#define BIG INFINITY
#define NAME(f) f##_f64
#include "_viterbi.c"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define VECTOR_BODY 1

/* lane_u8 for S = 64 in AVX2: the metrics of states 0 .. 31 in m0 and 32 ..
 * 63 in m1, so a step's four [u][k] cost rows are one load each, step t's
 * survivors in words[t]: bit j is state 2j's, bit 32 + j state 2j + 1's.  A
 * saturating add is the clamp to BIG8, and a state takes predecessor 1 only
 * where the minimum is not predecessor 0's candidate: the strict-less select.
 * The same range checks, RENORM8 and WIDEN as the plain body, which gives the
 * same metrics, offset and end state. */
__attribute__((target("avx2"))) static int
lane64_avx2(int64_t steps, int64_t cells, int64_t L, int64_t V, int64_t limit,
            const uint8_t *expanded, const int64_t *reps,
            const int64_t *levels, uint64_t *words, int64_t *end,
            double *total)
{
    const __m256i big = _mm256_set1_epi8((char)BIG8);
    /* The least metric that widens; limit >= 0, and at BIG8 - 1 or above
     * nothing does, as no finite metric passes it: BIG8 itself is dead. */
    const __m256i high = _mm256_set1_epi8(
        (char)(limit < BIG8 - 1 ? limit + 1 : BIG8));
    __m256i m0 = _mm256_setzero_si256(), m1 = m0;
    int64_t offset = 0;
    for (int64_t t = 0; t < steps; t++, levels += cells) {
        int64_t v = reps[t], row = 0;
        for (int64_t c = 0; c < cells; c++) {
            if ((uint64_t)levels[c] >= (uint64_t)L)
                return -2;
            row = row * L + levels[c];
        }
        if ((uint64_t)v >= (uint64_t)V)
            return -2;
        if (t && t % RENORM8 == 0) {
            /* The least of 32 bytes, then of each 16-bit pair, one per word. */
            __m256i m = _mm256_min_epu8(m0, m1);
            __m128i half = _mm_min_epu8(_mm256_castsi256_si128(m),
                                        _mm256_extracti128_si256(m, 1));
            half = _mm_min_epu8(half, _mm_srli_epi16(half, 8));
            int least = _mm_cvtsi128_si32(_mm_minpos_epu16(half)) & 0xff;
            if (least == BIG8) { /* every state dead: the lane stops */
                *end = 0;
                *total = INFINITY;
                return unrun_in_range(steps - t, cells, L, V, reps + t, levels);
            }
            __m256i by = _mm256_set1_epi8((char)least), wide = _mm256_setzero_si256();
#define RENORMED(x)                                                          \
    do {                                                                     \
        __m256i dead = _mm256_cmpeq_epi8(x, big);                            \
        x = _mm256_or_si256(_mm256_subs_epu8(x, by), dead);                  \
        wide = _mm256_or_si256(                                              \
            wide, _mm256_andnot_si256(                                       \
                      dead, _mm256_cmpeq_epi8(_mm256_max_epu8(x, high), x))); \
    } while (0)
            RENORMED(m0);
            RENORMED(m1);
#undef RENORMED
            if (!_mm256_testz_si256(wide, wide))
                return WIDEN;
            offset += least;
        }
        const __m256i *cost = (const __m256i *)(expanded + (row * V + v) * 128);
        __m256i a0 = _mm256_adds_epu8(m0, _mm256_loadu_si256(cost));
        __m256i a1 = _mm256_adds_epu8(m1, _mm256_loadu_si256(cost + 1));
        __m256i b0 = _mm256_adds_epu8(m0, _mm256_loadu_si256(cost + 2));
        __m256i b1 = _mm256_adds_epu8(m1, _mm256_loadu_si256(cost + 3));
        __m256i even = _mm256_min_epu8(a0, a1), odd = _mm256_min_epu8(b0, b1);
        uint32_t stay_even = (uint32_t)_mm256_movemask_epi8(_mm256_cmpeq_epi8(even, a0));
        uint32_t stay_odd = (uint32_t)_mm256_movemask_epi8(_mm256_cmpeq_epi8(odd, b0));
        words[t] = ~((uint64_t)stay_odd << 32 | stay_even);
        /* States 2j, 2j + 1 side by side: each 128-bit half of `first` holds
         * 16 of them, and `second` the 16 after. */
        __m256i first = _mm256_unpacklo_epi8(even, odd);
        __m256i second = _mm256_unpackhi_epi8(even, odd);
        m0 = _mm256_permute2x128_si256(first, second, 0x20);
        m1 = _mm256_permute2x128_si256(first, second, 0x31);
    }
    uint8_t last[64];
    _mm256_storeu_si256((__m256i *)last, m0);
    _mm256_storeu_si256((__m256i *)(last + 32), m1);
    int64_t best = 0;
    for (int64_t s = 1; s < 64; s++)
        best = last[s] < last[best] ? s : best;
    *end = best;
    *total = last[best] < BIG8 ? (double)last[best] + offset : INFINITY;
    return 0;
}
#endif

/* 1 when search runs an S-state trellis read from the expanded table in
 * lane64_avx2, 0 when in the plain body: S = 64 on a CPU with AVX2. */
int search_vector_body(int64_t S)
{
#ifdef VECTOR_BODY
    return S == 64 && __builtin_cpu_supports("avx2");
#else
    (void)S;
    return 0;
#endif
}

int search(const int64_t *p, /* the search block */
           int64_t lanes, int64_t steps,
           int64_t stride,            /* levels from one lane's to the next's */
           const int64_t *reps,       /* (lanes, steps) coset chunks */
           const int64_t *levels,     /* (lanes, steps, cells), lanes `stride`
                                         apart */
           int64_t *out)              /* out: (lanes, steps) codewords, then
                                         (lanes,) double totals, then (lanes,)
                                         bytes writable */
{
    int64_t S = p[SB_STATES], cells = p[SB_CELLS], L = p[SB_LEVELS],
            V = p[SB_VALUES];
    int64_t limit8 = p[SB_LIMIT8]; /* uint8, < 0 for never: see the top */
    int64_t limit = p[SB_LIMIT];   /* int16, the same */
    /* (V, 2S) branch outputs ^ chunk */
    const uint16_t *order = TABLE(uint16_t, p, SB_ORDER);
    /* (L**cells, V) fused cost table, NULL where limit < 0 */
    const int16_t *costs16 = TABLE(int16_t, p, SB_COSTS16);
    /* (L**cells * V, 2S) uint8 cost vector of each (row, coset chunk), or NULL */
    const uint8_t *expanded = TABLE(uint8_t, p, SB_EXPANDED);
    const double *costs64 = TABLE(double, p, SB_COSTS64); /* the same in double */
    /* (S, 2): output of state s on input u */
    const int32_t *out_values = TABLE(int32_t, p, SB_OUT_VALUES);
    int64_t *codeword = out;
    double *total = (double *)(out + lanes * steps);
    uint8_t *writable = (uint8_t *)(total + lanes);
    if (S < 2 || S % 2 || !order || !costs64 || !out_values ||
        (limit >= 0 && !costs16) || (lanes > 1 && stride < steps * cells))
        return -2;
    double *metrics = malloc((size_t)S * 2 * sizeof(double));
    uint8_t *k = calloc((size_t)S * 8, 1); /* the last 8 steps' survivors */
    /* A byte per state per 8 steps, or (64 states) a uint64 per step. */
    uint8_t *bits = malloc((size_t)((steps + 7) / 8 * S) + 1);
    int status = metrics && k && bits ? 0 : -1, widened = 0;
    int vector = expanded && search_vector_body(S);
    for (int64_t b = 0; b < lanes && !status; b++) {
        const int64_t *rep = reps + b * steps, *level = levels + b * stride;
        int64_t state;
        int words = 0; /* survivors as lane64_avx2 leaves them */
        status = WIDEN;
#define LANE_U8(n)                                                             \
    lane_u8(steps, n, cells, L, V, limit8, order, NULL, expanded, rep, level, \
            (uint8_t *)metrics, k, bits, &state, total + b)
        /* gcc specialises the pass for a literal S: 64, the paper's K=7, and
         * 4 and 8, whose butterflies are too few for a vector loop of bytes. */
        if (expanded && limit8 >= 0 && !vector)
            status = S == 4 ? LANE_U8(4) : S == 8 ? LANE_U8(8)
                   : S == 64 ? LANE_U8(64) : LANE_U8(S);
#undef LANE_U8
#ifdef VECTOR_BODY
        else if (expanded && limit8 >= 0) {
            status = lane64_avx2(steps, cells, L, V, limit8, expanded, rep, level,
                                 (uint64_t *)bits, &state, total + b);
            words = 1;
        }
#endif
        /* uint8 hands a lane on to int16, int16 to double; a lane counts
         * once however far it goes. */
        int redone = expanded && status == WIDEN;
        if (status == WIDEN && limit >= 0) {
            words = 0;
            status = lane_i16(steps, S, cells, L, V, limit, order, costs16, NULL,
                              rep, level, (int16_t *)metrics, k, bits, &state,
                              total + b);
        }
        if (status == WIDEN) {
            redone = 1;
            words = 0;
            status = lane_f64(steps, S, cells, L, V, 0, order, costs64, NULL, rep,
                              level, metrics, k, bits, &state, total + b);
        }
        widened += redone;
        if (status)
            break;
        writable[b] = total[b] < INFINITY;
        if (!writable[b]) {
            memset(codeword + b * steps, 0, (size_t)steps * sizeof *codeword);
            continue;
        }
        /* The input consumed on entering a state is its low bit, and its k-th
         * predecessor is (state >> 1) + k * S/2. */
        if (words) {
            /* State s's survivor is bit (s & 1) << 5 | s >> 1, and its
             * predecessor's is known before the load: only `chosen` waits. */
            const uint64_t *word = (const uint64_t *)bits;
            for (int64_t t = steps - 1, bit = (state & 1) << 5 | state >> 1; t >= 0;
                 t--) {
                int64_t chosen = word[t] >> bit & 1, src = state >> 1 | chosen << 5;
                bit = (state >> 1 & 1) << 5 | state >> 2 | chosen << 4;
                codeword[b * steps + t] = out_values[2 * src + (state & 1)] ^ rep[t];
                state = src;
            }
        } else {
            for (int64_t t = steps - 1; t >= 0; t--) {
                int64_t src = (state >> 1) +
                              (bits[t / 8 * S + state] >> t % 8 & 1) * (S / 2);
                codeword[b * steps + t] = out_values[2 * src + (state & 1)] ^ rep[t];
                state = src;
            }
        }
    }
    free(metrics);
    free(k);
    free(bits);
    return status ? status : widened;
}

/* One page's per-cell levels: the sum of each cell's `width` one-byte bits.
 * A cell is a strided read, so a span of cells at a time sums windows
 * instead: sum[x] = page[x] + ... + page[x + width - 1] is `width` vector adds
 * over contiguous bytes, and a cell's level is the sum at its first bit.  The
 * same pass ORs every byte, which it returns, for the check that each is a
 * bit.  width is 1 .. 255. */
static uint8_t count_plain(int64_t cells, int64_t width, const uint8_t *page,
                           int64_t *out)
{
    uint8_t sum[4096], bits = 0;
    int64_t span = sizeof sum / width * width; /* bytes: whole cells */
    for (int64_t x0 = 0; x0 < cells * width; x0 += span, page += span) {
        int64_t n = cells * width - x0 < span ? cells * width - x0 : span;
        for (int64_t x = 0; x < n; x++) {
            sum[x] = page[x];
            bits |= page[x];
        }
        for (int64_t j = 1; j < width; j++)
            for (int64_t x = 0; x < n - j; x++)
                sum[x] += page[x + j];
        for (int64_t x = 0; x < n; x += width)
            *out++ = sum[x];
    }
    return bits;
}

#ifdef VECTOR_BODY
/* Sixteen 3-bit cells, 48 bytes, as three bit planes: byte i of plane j is
 * byte j of cell i, byte 3i + j of the 48.  Register s holds bytes 16s ..
 * 16s + 15, so plane j is three shuffles ORed, each picking what lies in one
 * register (-128 picks a zero), and register s is three back.  The masks are
 * constants: every argument below is a literal. */
#define SIXTEEN(f, x, y)                                                        \
    f(0, x, y), f(1, x, y), f(2, x, y), f(3, x, y), f(4, x, y), f(5, x, y),     \
    f(6, x, y), f(7, x, y), f(8, x, y), f(9, x, y), f(10, x, y), f(11, x, y),   \
    f(12, x, y), f(13, x, y), f(14, x, y), f(15, x, y)
#define TO_PLANE(i, j, s)                                                       \
    (3 * (i) + (j) - 16 * (s) >= 0 && 3 * (i) + (j) - 16 * (s) < 16             \
         ? 3 * (i) + (j) - 16 * (s) : -128)
#define TO_CELLS(q, s, j) ((16 * (s) + (q)) % 3 == (j) ? (16 * (s) + (q)) / 3 : -128)
/* What the three registers a, b, c put in register (or plane) k: the OR of
 * one shuffle each, by masks f(i, k, 0), f(i, k, 1) and f(i, k, 2). */
#define PICK(f, k, a, b, c)                                                     \
    _mm_or_si128(                                                               \
        _mm_or_si128(_mm_shuffle_epi8(a, _mm_setr_epi8(SIXTEEN(f, k, 0))),      \
                     _mm_shuffle_epi8(b, _mm_setr_epi8(SIXTEEN(f, k, 1)))),     \
        _mm_shuffle_epi8(c, _mm_setr_epi8(SIXTEEN(f, k, 2))))

__attribute__((target("avx2"))) static inline void
load_planes(const uint8_t *bytes, __m128i *x, __m128i *p)
{
    for (int s = 0; s < 3; s++)
        x[s] = _mm_loadu_si128((const __m128i *)(bytes + 16 * s));
    p[0] = PICK(TO_PLANE, 0, x[0], x[1], x[2]);
    p[1] = PICK(TO_PLANE, 1, x[0], x[1], x[2]);
    p[2] = PICK(TO_PLANE, 2, x[0], x[1], x[2]);
}

__attribute__((target("avx2"))) static inline void
store_planes(const __m128i *p, uint8_t *bytes)
{
    _mm_storeu_si128((__m128i *)bytes, PICK(TO_CELLS, 0, p[0], p[1], p[2]));
    _mm_storeu_si128((__m128i *)(bytes + 16), PICK(TO_CELLS, 1, p[0], p[1], p[2]));
    _mm_storeu_si128((__m128i *)(bytes + 32), PICK(TO_CELLS, 2, p[0], p[1], p[2]));
}

/* Sixteen levels, one a byte, as int64 at `out`. */
__attribute__((target("avx2"))) static inline void
store_levels(__m128i levels, int64_t *out)
{
    _mm256_storeu_si256((__m256i *)out, _mm256_cvtepu8_epi64(levels));
    _mm256_storeu_si256((__m256i *)(out + 4),
                        _mm256_cvtepu8_epi64(_mm_srli_si128(levels, 4)));
    _mm256_storeu_si256((__m256i *)(out + 8),
                        _mm256_cvtepu8_epi64(_mm_srli_si128(levels, 8)));
    _mm256_storeu_si256((__m256i *)(out + 12),
                        _mm256_cvtepu8_epi64(_mm_srli_si128(levels, 12)));
}

/* Sixteen int64 levels at `in`, each 0 .. 127, one a byte.  Read as int32,
 * two signed packs leave levels 0, 1, 4, 5, 8, 9, 12, 13 in the even bytes of
 * the low 128-bit half and 2, 3, 6, 7, ... in those of the high half; the high
 * half ORed in a byte up interleaves them as 0, 2, 1, 3, 4, 6, 5, 7, ..., and
 * one shuffle puts them in order. */
__attribute__((target("avx2"))) static inline __m128i
load_levels(const int64_t *in)
{
    __m256i words = _mm256_packs_epi16(
        _mm256_packs_epi32(_mm256_loadu_si256((const __m256i *)in),
                           _mm256_loadu_si256((const __m256i *)(in + 4))),
        _mm256_packs_epi32(_mm256_loadu_si256((const __m256i *)(in + 8)),
                           _mm256_loadu_si256((const __m256i *)(in + 12))));
    __m128i both = _mm_or_si128(_mm256_castsi256_si128(words),
                                _mm_slli_epi16(_mm256_extracti128_si256(words, 1), 8));
    return _mm_shuffle_epi8(both, _mm_setr_epi8(0, 2, 1, 3, 4, 6, 5, 7, 8, 10, 9,
                                                11, 12, 14, 13, 15));
}

/* count_plain for 3-bit cells: sixteen at a time, a level the sum of its
 * cell's three planes, every byte ORed for the bit check; the last cells,
 * fewer than sixteen, by count_plain.  No load reads past `cells` cells. */
__attribute__((target("avx2"))) static uint8_t
count3_avx2(int64_t cells, const uint8_t *page, int64_t *out)
{
    __m128i seen = _mm_setzero_si128(), x[3], p[3];
    int64_t c = 0;
    for (; c + 16 <= cells; c += 16, page += 48, out += 16) {
        load_planes(page, x, p);
        seen = _mm_or_si128(seen, _mm_or_si128(_mm_or_si128(x[0], x[1]), x[2]));
        store_levels(_mm_add_epi8(_mm_add_epi8(p[0], p[1]), p[2]), out);
    }
    /* 2 for a byte above 1, as count_plain's OR is then. */
    uint8_t bits = _mm_testz_si128(seen, _mm_set1_epi8(-2)) ? 0 : 2;
    _mm256_zeroupper(); /* count_plain may be SSE code */
    return bits | count_plain(cells - c, 3, page, out);
}
#endif

/* 1 when a page of `width`-bit cells is counted, and one of `bpc` bits a cell
 * programmed, sixteen cells at a time in AVX2 (count3_avx2, program3_avx2,
 * and for the WOM code's cells of 2 bits wom_encode_avx2, wom_decode_avx2),
 * 0 when by the plain bodies: width 3 and 1 or 2 bits a cell on a CPU with
 * AVX2.  The count, which reads no symbols, asks with a bpc of 1. */
int page_vector_body(int64_t width, int64_t bpc)
{
#ifdef VECTOR_BODY
    return width == 3 && bpc >= 1 && bpc <= 2 && __builtin_cpu_supports("avx2");
#else
    (void)width;
    (void)bpc;
    return 0;
#endif
}

/* One page's per-cell levels, and the OR of its bytes. */
static uint8_t count_cells(int64_t cells, int64_t width, const uint8_t *page,
                           int64_t *out)
{
#ifdef VECTOR_BODY
    if (page_vector_body(width, 1))
        return count3_avx2(cells, page, out);
#endif
    return count_plain(cells, width, page, out);
}

/* Per-cell levels of rows of `cells` cells, `stride` bytes apart. */
int levels(int64_t rows, int64_t cells, int64_t width, int64_t stride,
           const uint8_t *pages, /* (rows, stride), the cells at the front */
           int64_t *out)         /* out (rows, cells) */
{
    uint8_t bits = 0;
    if (width < 1 || width > 255 || cells < 0 ||
        (rows > 1 && stride < cells * width))
        return -2;
    for (int64_t r = 0; r < rows; r++, pages += stride, out += cells)
        bits |= count_cells(cells, width, pages, out);
    return bits > 1 ? -2 : 0;
}

/* Bit i of the result is the low bit of byte i of the eight loaded into
 * `word`: one multiply places each at bit 56 + i, and no two products
 * overlap. */
static inline unsigned bits_of(uint64_t word)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    word = __builtin_bswap64(word); /* byte i at bits 8i .. 8i + 7 */
#endif
    return (unsigned)((word & 0x0101010101010101u) * 0x0102040810204080u >> 56);
}

/* The search's two inputs, one pass over each lane's dataword and one over
 * its page.
 *
 * The coset chunks: the syndrome is zero in the first `guard` steps and the
 * dataword's m - 1 bits a step after them; the representative's t_1 is 0 and
 * t_{j+1} = s_j / g1.  The m - 1 streams lie interleaved in the dataword,
 * which makes them one stream divided by g1(D**(m-1)): a tap k of g1 is tap
 * k * (m - 1) of that stream, and the shift register out[n] = in[n] ^
 * out[n - tap] ^ ... holds in one word.  Bit i of `pending` is what out[n + i]
 * takes from the outputs already made: each output XORs `feedback` (bit
 * tap - 1 for every tap) in, and the word shifts once a bit.  The register is
 * linear, so eight bits are one lookup: pending's low byte acts on the next
 * eight outputs as that many more input bits, and the rest only shifts.
 * Entry y of made/left is what eight bits from an empty register make of
 * input byte y: the outputs, and the register they leave.  The outputs queue
 * in `queue` until a step's m - 1 of them are there, and that step's chunk,
 * stream j at bit j, is written once.
 *
 * The levels: count_cells over every cell, the tail cells past the steps' too,
 * so a byte that is not a bit in any of them, or in the dataword, refuses the
 * call and the numpy twin raises what it names. */
int search_inputs(const int64_t *p,     /* the page block */
                  int64_t lanes,
                  const uint8_t *data,  /* (lanes, (steps - guard) * (m - 1)) */
                  const uint8_t *pages, /* (lanes, page_bits) */
                  int64_t *out)         /* out: (lanes, steps) chunks, then
                                           (lanes, num_cells) levels */
{
    int64_t page_bits = p[PB_PAGE_BITS], num_cells = p[PB_CELLS],
            width = p[PB_WIDTH], steps = p[PB_STEPS], guard = p[PB_GUARD],
            taps = p[PB_TAPS], m = p[PB_PER_STEP] * p[PB_BPC];
    /* (m,) g_1 .. g_m, bit k for D**k */
    const uint64_t *generators = TABLE(uint64_t, p, PB_GENERATORS);
    int64_t *chunks = out, *levels = out + lanes * steps;
    int64_t w = m - 1, data_bits = (steps - guard) * w;
    /* The queue holds at most m - 2 bits left over and a lookup's eight. */
    if (width < 1 || width > 255 || m < 2 || m > 57 || guard < 0 ||
        guard > steps || taps < 1 || taps > 64 || num_cells < 0 ||
        num_cells * width > page_bits || !generators)
        return -2;
    uint64_t feedback = 0, left[256], seen = 0;
    for (int64_t k = 1; k < taps; k++) {
        if (!(generators[0] >> k & 1))
            continue;
        if (k * w > 64)
            return -2;
        feedback |= (uint64_t)1 << (k * w - 1);
    }
    uint8_t made[256], cells_seen = 0;
    /* One byte's entry is the XOR of its bits' entries. */
    made[0] = 0;
    left[0] = 0;
    for (int q = 0; q < 8; q++) {
        uint64_t pending = 0;
        uint8_t outputs = 0;
        for (int i = 0; i < 8; i++) {
            uint64_t bit = (uint64_t)(i == q) ^ (pending & 1);
            outputs |= bit << i;
            pending = pending >> 1 ^ (feedback & -bit);
        }
        for (int y = 0; y < 1 << q; y++) {
            made[y | 1 << q] = made[y] ^ outputs;
            left[y | 1 << q] = left[y] ^ pending;
        }
    }
    uint64_t mask = ((uint64_t)1 << w) - 1;
    for (int64_t b = 0; b < lanes; b++) {
        const uint8_t *in = data + b * data_bits;
        int64_t *chunk = chunks + b * steps;
        uint64_t pending = 0, queue = 0;
        int64_t queued = 0, n = 0;
        for (int64_t t = 0; t < guard; t++)
            *chunk++ = 0;
        for (; n + 8 <= data_bits; n += 8) {
            uint64_t word;
            memcpy(&word, in + n, sizeof word);
            seen |= word;
            unsigned y = bits_of(word) ^ (unsigned)(pending & 0xff);
            pending = pending >> 8 ^ left[y];
            queue |= (uint64_t)made[y] << queued;
            for (queued += 8; queued >= w; queued -= w, queue >>= w)
                *chunk++ = (int64_t)((queue & mask) << 1);
        }
        for (; n < data_bits; n++) {
            uint64_t bit = (in[n] ^ pending) & 1;
            seen |= in[n];
            pending = pending >> 1 ^ (feedback & -bit);
            queue |= bit << queued;
            for (queued++; queued >= w; queued -= w, queue >>= w)
                *chunk++ = (int64_t)((queue & mask) << 1);
        }
        cells_seen |= count_cells(num_cells, width, pages + b * page_bits,
                                  levels + b * num_cells);
    }
    /* A byte of either input that is not a bit: the twin names it. */
    return (seen & ~(uint64_t)0x0101010101010101u) || cells_seen > 1 ? -2 : 0;
}

/* RAISE3[p][d]: the bits of a 3-bit cell (bit j is its j-th byte) after its
 * d lowest unset ones are set. */
static const uint8_t RAISE3[8][4] = {
    {0, 1, 3, 7}, {1, 3, 7, 7}, {2, 3, 7, 7}, {3, 7, 7, 7},
    {4, 5, 7, 7}, {5, 7, 7, 7}, {6, 7, 7, 7}, {7, 7, 7, 7},
};

/* Raise one page's cells to the levels that store its codeword, and write
 * each used cell's new level over the one handed in for it.  A cell is
 * `width` one-byte bits at that level; the i-th cell of step t stores symbol
 * (codeword[t] >> i * bpc) & (symbols - 1) at the level target_of names for
 * it, reached by setting its lowest unset bits.  Nothing branches on the
 * bits, which would mispredict on every other cell; a 3-bit cell does not
 * even branch on whether it changes: RAISE3 rewrites all three bytes, which
 * measured faster inside a sweep, where each page and codeword are new to the
 * branch predictor.  Always inlined, so gcc specialises the body for the
 * literal shape each call in `program` names; it never does that for an
 * exported function's arguments.  Nothing here is out of range: `program`
 * checked every level, every table entry and every byte first. */
static inline __attribute__((always_inline)) void
program_page(int64_t width, int64_t steps, int64_t per_step, int64_t bpc,
             const int64_t *target_of, int64_t *level,
             const int64_t *codeword, uint8_t *cell)
{
    int64_t symbols = (int64_t)1 << bpc;
    for (int64_t t = 0; t < steps; t++) {
        int64_t value = codeword[t];
        for (int64_t i = 0; i < per_step; i++, value >>= bpc, cell += width) {
            int64_t now = *level;
            int64_t target = target_of[now * symbols + (value & (symbols - 1))];
            *level++ = target;
            if (width == 3) {
                uint8_t bits = RAISE3[cell[0] | cell[1] << 1 | cell[2] << 2]
                                     [target - now];
                cell[0] = bits & 1;
                cell[1] = bits >> 1 & 1;
                cell[2] = bits >> 2;
                continue;
            }
            if (target == now)
                continue;
            for (int64_t j = 0, deficit = target - now; j < width; j++) {
                uint8_t fill = !cell[j] & (deficit > 0);
                cell[j] |= fill;
                deficit -= fill;
            }
        }
    }
}

#ifdef VECTOR_BODY
/* program_page for 3-bit cells of 1 or 2 bits each, sixteen cells at a time:
 * `used` cells, each's symbol a byte in `symbol`, `lookup` target_of one
 * level a byte.  A cell's target is lookup[now << bpc | symbol], one shuffle
 * for sixteen, as now <= 3 and bpc <= 2; its `target - now` lowest unset bits
 * are set plane by plane, RAISE3's rule, so a cell such as 010 keeps its
 * meaning.  The last cells, fewer than sixteen, go by RAISE3 itself. */
__attribute__((target("avx2"))) static void
program3_avx2(int64_t used, int64_t bpc, const uint8_t *lookup,
              const uint8_t *symbol, int64_t *level, uint8_t *cell)
{
    const __m128i table = _mm_loadu_si128((const __m128i *)lookup);
    const __m128i one = _mm_set1_epi8(1), shift = _mm_cvtsi32_si128((int)bpc);
    int64_t c = 0;
    for (; c + 16 <= used; c += 16, symbol += 16, level += 16, cell += 48) {
        __m128i x[3], p[3], now = load_levels(level);
        __m128i target = _mm_shuffle_epi8(
            table, _mm_or_si128(_mm_sll_epi16(now, shift),
                                _mm_loadu_si128((const __m128i *)symbol)));
        __m128i deficit = _mm_sub_epi8(target, now);
        store_levels(target, level);
        load_planes(cell, x, p);
        for (int j = 0; j < 3; j++) {
            __m128i fill = _mm_andnot_si128(p[j], _mm_min_epu8(deficit, one));
            p[j] = _mm_or_si128(p[j], fill);
            deficit = _mm_sub_epi8(deficit, fill);
        }
        store_planes(p, cell);
    }
    _mm256_zeroupper();
    for (; c < used; c++, cell += 3) {
        int64_t now = *level, target = lookup[now << bpc | *symbol++];
        uint8_t bits = RAISE3[cell[0] | cell[1] << 1 | cell[2] << 2][target - now];
        *level++ = target;
        cell[0] = bits & 1;
        cell[1] = bits >> 1 & 1;
        cell[2] = bits >> 2;
    }
}
#endif

/* One writable lane's page program: on AVX2 (`vector`), the codeword's
 * symbols a byte a cell in `symbol`, then program3_avx2 over them; else
 * program_page.  Always inlined, for the literal shapes `program` names. */
static inline __attribute__((always_inline)) void
program_lane(int vector, int64_t width, int64_t steps, int64_t per_step,
             int64_t bpc, const int64_t *target_of, const uint8_t *lookup,
             uint8_t *symbol, int64_t *level, const int64_t *codeword,
             uint8_t *cell)
{
#ifdef VECTOR_BODY
    if (vector) {
        uint8_t *next = symbol;
        for (int64_t t = 0; t < steps; t++)
            for (int64_t i = 0, value = codeword[t]; i < per_step; i++, value >>= bpc)
                *next++ = (uint8_t)(value & (((int64_t)1 << bpc) - 1));
        program3_avx2(steps * per_step, bpc, lookup, symbol, level, cell);
        return;
    }
#else
    (void)vector, (void)lookup, (void)symbol;
#endif
    program_page(width, steps, per_step, bpc, target_of, level, codeword, cell);
}

/* Every lane is checked before any is written, so a refused call leaves
 * `levels` as it was handed in and the caller can redo it from there. */
int program(const int64_t *p,        /* the page block */
            int64_t lanes,
            int64_t *levels,         /* in/out (lanes, num_cells): the pages'
                                        levels, then the written ones */
            const int64_t *codeword, /* (lanes, steps) */
            const uint8_t *writable, /* (lanes,): 0 leaves the page as it is */
            uint8_t *pages)          /* in/out (lanes, page_bits) */
{
    int64_t page_bits = p[PB_PAGE_BITS], num_cells = p[PB_CELLS],
            width = p[PB_WIDTH], steps = p[PB_STEPS], per_step = p[PB_PER_STEP],
            bpc = p[PB_BPC];
    /* (width + 1, 1 << bpc) post-write level */
    const int64_t *target_of = TABLE(int64_t, p, PB_TARGET_OF);
    int64_t used = steps * per_step;
    if (width < 1 || bpc < 1 || per_step < 1 || per_step * bpc > 62 ||
        steps < 0 || used > num_cells || num_cells * width > page_bits ||
        !target_of)
        return -2;
    int64_t symbols = (int64_t)1 << bpc;
    /* Every post-write level lies between the level it is read at and the
     * top, so no target can lower a cell or overshoot it. */
    for (int64_t now = 0; now <= width; now++)
        for (int64_t v = 0; v < symbols; v++)
            if (target_of[now * symbols + v] < now ||
                target_of[now * symbols + v] > width)
                return -2;
    /* What indexes target_of, in every lane, a lane left alone too: every
     * chunk below 2**m, every level at most width, every byte of a cell a
     * bit, the tail cells' too, as the twin's count of them checks. */
    for (int64_t b = 0; b < lanes; b++) {
        const int64_t *word = codeword + b * steps, *level = levels + b * num_cells;
        const uint8_t *page = pages + b * page_bits;
        int64_t chunks = 0;
        uint64_t any = 0, high = 0;
        uint8_t bits = 0;
        for (int64_t t = 0; t < steps; t++)
            chunks |= word[t];
        for (int64_t i = 0; i < num_cells * width; i++)
            bits |= page[i];
        /* A vector OR first: it is at most width when every level is, and
         * for a width of 2**k - 1 only then.  The compare runs when not. */
        for (int64_t i = 0; i < used; i++)
            any |= (uint64_t)level[i];
        for (int64_t i = 0; i < used && any > (uint64_t)width; i++)
            high |= (uint64_t)level[i] > (uint64_t)width;
        if ((uint64_t)chunks >> (per_step * bpc) || bits > 1 || high)
            return -2;
    }
    /* On AVX2, 3-bit cells of 1 or 2 bits each: scratch for a lane's
     * symbols, one a cell, and target_of one level a byte. */
    uint8_t lookup[16] = {0}, *symbol = NULL;
    int vector = page_vector_body(width, bpc);
    if (vector) {
        if (!(symbol = malloc((size_t)used + 1)))
            return -1;
        for (int64_t i = 0; i < (width + 1) * symbols; i++)
            lookup[i] = (uint8_t)target_of[i];
    }
    for (int64_t b = 0; b < lanes; b++) {
        if (!writable[b])
            continue;
        const int64_t *word = codeword + b * steps;
        int64_t *level = levels + b * num_cells;
        uint8_t *page = pages + b * page_bits;
        /* Table I's shapes on 4-level cells, (cells per step, bits per cell),
         * each its own body; any other shape runs the generic one. */
#define PAGE(w, n, m) \
    program_lane(vector, w, steps, n, m, target_of, lookup, symbol, level, word, page)
        switch (width == 3 ? per_step * 64 + bpc : 0) {
        case 2 * 64 + 1: PAGE(3, 2, 1); break; /* MFC-1/2-1BPC */
        case 1 * 64 + 2: PAGE(3, 1, 2); break; /* MFC-1/2-2BPC */
        case 3 * 64 + 1: PAGE(3, 3, 1); break; /* MFC-2/3 */
        case 4 * 64 + 1: PAGE(3, 4, 1); break; /* MFC-3/4 */
        case 5 * 64 + 1: PAGE(3, 5, 1); break; /* MFC-4/5 */
        default: PAGE(width, per_step, bpc);
        }
#undef PAGE
    }
    free(symbol);
    return 0;
}

/* Read one page's dataword, the syndrome of the codeword its cells store:
 * s_j[t] = (g_{j+1} * y_1)[t] ^ (g_1 * y_{j+1})[t], kept from step `guard` on.
 * A used cell's level is the sum of its bytes, its symbol read_of[level], and
 * the i-th cell of a step holds bits i * bpc .. of the step's m-bit chunk,
 * bit j of which is stream y_{j+1}'s.  Each stream's bits shift into one
 * word, newest at bit 0, so a product's term at step t is the parity of that
 * word ANDed with the generator's mask (bit k its D**k coefficient).  Always
 * inlined, for the literal shapes `decode` names, as program_page is.  Every
 * byte was checked to be a bit first, so no level passes width. */
static inline __attribute__((always_inline)) void
decode_page(int64_t width, int64_t steps, int64_t per_step, int64_t bpc,
            int64_t guard, const int64_t *read_of, const uint64_t *generators,
            const uint8_t *cell, uint8_t *data)
{
    int64_t m = per_step * bpc;
    uint64_t history[62] = {0}, symbol_mask = ((uint64_t)1 << bpc) - 1;
    for (int64_t t = 0; t < steps; t++) {
        uint64_t chunk = 0;
        for (int64_t i = 0; i < per_step; i++, cell += width) {
            int64_t level = 0;
            for (int64_t j = 0; j < width; j++)
                level += cell[j];
            chunk |= ((uint64_t)read_of[level] & symbol_mask) << i * bpc;
        }
        for (int64_t j = 0; j < m; j++)
            history[j] = history[j] << 1 | (chunk >> j & 1);
        if (t < guard)
            continue;
        for (int64_t j = 1; j < m; j++)
            *data++ = __builtin_parityll((history[0] & generators[j]) ^
                                         (history[j] & generators[0]));
    }
}

int decode(const int64_t *p,     /* the page block */
           int64_t lanes,
           const uint8_t *pages, /* (lanes, page_bits) */
           uint8_t *data)        /* out (lanes, (steps - guard) * (m - 1)) */
{
    int64_t page_bits = p[PB_PAGE_BITS], num_cells = p[PB_CELLS],
            width = p[PB_WIDTH], steps = p[PB_STEPS], per_step = p[PB_PER_STEP],
            bpc = p[PB_BPC], guard = p[PB_GUARD], taps = p[PB_TAPS];
    /* (width + 1,) symbol stored at a level */
    const int64_t *read_of = TABLE(int64_t, p, PB_READ_OF);
    /* (m,) g_1 .. g_m, bit k for D**k */
    const uint64_t *generators = TABLE(uint64_t, p, PB_GENERATORS);
    int64_t m = per_step * bpc;
    if (width < 1 || bpc < 1 || per_step < 1 || m < 2 || m > 62 || guard < 0 ||
        guard > steps || taps < 1 || taps > 64 ||
        steps * per_step > num_cells || num_cells * width > page_bits ||
        !read_of || !generators)
        return -2;
    for (int64_t b = 0; b < lanes; b++) {
        const uint8_t *page = pages + b * page_bits;
        uint8_t *word = data + b * (steps - guard) * (m - 1), bits = 0;
        /* Every byte of every cell, the tail cells' too, as the twin's count
         * checks them, before any level is read. */
        for (int64_t i = 0; i < num_cells * width; i++)
            bits |= page[i];
        if (bits > 1)
            return -2;
#define PAGE(w, n, c) \
    decode_page(w, steps, n, c, guard, read_of, generators, page, word)
        switch (width == 3 ? per_step * 64 + bpc : 0) {
        case 2 * 64 + 1: PAGE(3, 2, 1); break; /* MFC-1/2-1BPC */
        case 1 * 64 + 2: PAGE(3, 1, 2); break; /* MFC-1/2-2BPC */
        case 3 * 64 + 1: PAGE(3, 3, 1); break; /* MFC-2/3 */
        case 4 * 64 + 1: PAGE(3, 4, 1); break; /* MFC-3/4 */
        case 5 * 64 + 1: PAGE(3, 5, 1); break; /* MFC-4/5 */
        default: PAGE(width, per_step, bpc);
        }
#undef PAGE
    }
    return 0;
}

/* The paper's WOM code (repro.coding.wom): a v-cell is three one-byte bits,
 * pattern b0 | b1 << 1 | b2 << 2, and stores the two data bits d0 | d1 << 1.
 * A page is `cells` such cells and the tail bits no cell owns.  Every index
 * is masked to the low bits of its bytes, and the bytes are ORed together
 * as they are read, so a byte that is not a bit reads no table out of range
 * and fails the whole call. */
#define PATTERN(c) (((c)[0] & 1) | ((c)[1] & 1) << 1 | ((c)[2] & 1) << 2)

#ifdef VECTOR_BODY
/* Sixteen cells' patterns, b0 | b1 << 1 | b2 << 2 of each one's low bits. */
__attribute__((target("avx2"))) static inline __m128i
patterns16(const __m128i *p)
{
    const __m128i one = _mm_set1_epi8(1);
    return _mm_or_si128(
        _mm_and_si128(p[0], one),
        _mm_or_si128(_mm_slli_epi16(_mm_and_si128(p[1], one), 1),
                     _mm_slli_epi16(_mm_and_si128(p[2], one), 2)));
}

/* wom_encode's cells of one lane, sixteen at a time: `next`'s 32 entries are
 * two 16-byte lookups, patterns 0 .. 3 and 4 .. 7, blended on the pattern's
 * top bit, and a cell's two data bytes are split into a plane each.  Returns
 * the cells it did, a multiple of sixteen; *stuck is set where a target is
 * -1, *seen where a byte is not a bit. */
__attribute__((target("avx2"))) static int64_t
wom_encode_avx2(int64_t cells, const int8_t *next, const uint8_t *page,
                const uint8_t *word, uint8_t *cell, int *stuck, unsigned *seen)
{
    const __m128i low = _mm_loadu_si128((const __m128i *)next);
    const __m128i high = _mm_loadu_si128((const __m128i *)(next + 16));
    const __m128i one = _mm_set1_epi8(1), fifteen = _mm_set1_epi8(15);
    /* A register's eight cells as their first bytes, then their second. */
    const __m128i split = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7,
                                        9, 11, 13, 15);
    __m128i any = _mm_setzero_si128(), dead = any, x[3], p[3];
    int64_t c = 0;
    for (; c + 16 <= cells; c += 16, page += 48, word += 32, cell += 48) {
        load_planes(page, x, p);
        __m128i lo = _mm_loadu_si128((const __m128i *)word);
        __m128i hi = _mm_loadu_si128((const __m128i *)(word + 16));
        any = _mm_or_si128(any, _mm_or_si128(_mm_or_si128(x[0], x[1]),
                                             _mm_or_si128(_mm_or_si128(x[2], lo), hi)));
        lo = _mm_shuffle_epi8(lo, split);
        hi = _mm_shuffle_epi8(hi, split);
        __m128i value = _mm_or_si128(
            _mm_and_si128(_mm_unpacklo_epi64(lo, hi), one),
            _mm_slli_epi16(_mm_and_si128(_mm_unpackhi_epi64(lo, hi), one), 1));
        __m128i pattern = patterns16(p);
        __m128i index = _mm_and_si128(
            _mm_or_si128(_mm_slli_epi16(pattern, 2), value), fifteen);
        __m128i target = _mm_blendv_epi8(
            _mm_shuffle_epi8(low, index), _mm_shuffle_epi8(high, index),
            _mm_slli_epi16(pattern, 5)); /* bit 2 to each byte's top bit */
        dead = _mm_or_si128(dead, target);
        p[0] = _mm_and_si128(target, one);
        p[1] = _mm_and_si128(_mm_srli_epi16(target, 1), one);
        p[2] = _mm_and_si128(_mm_srli_epi16(target, 2), one);
        store_planes(p, cell);
    }
    *stuck |= _mm_movemask_epi8(dead) != 0;
    *seen |= _mm_testz_si128(any, _mm_set1_epi8(-2)) ? 0 : 2;
    _mm256_zeroupper();
    return c;
}

/* wom_decode's cells of one lane, sixteen at a time: one lookup in the
 * value table, whose 8 entries fill the low half of `table`, and its two
 * bits interleaved back into byte pairs.  Returns the cells it did. */
__attribute__((target("avx2"))) static int64_t
wom_decode_avx2(int64_t cells, const uint8_t *table, const uint8_t *page,
                uint8_t *word, unsigned *seen)
{
    const __m128i values = _mm_loadu_si128((const __m128i *)table);
    const __m128i one = _mm_set1_epi8(1);
    __m128i any = _mm_setzero_si128(), x[3], p[3];
    int64_t c = 0;
    for (; c + 16 <= cells; c += 16, page += 48, word += 32) {
        load_planes(page, x, p);
        any = _mm_or_si128(any, _mm_or_si128(_mm_or_si128(x[0], x[1]), x[2]));
        __m128i value = _mm_shuffle_epi8(values, patterns16(p));
        __m128i d0 = _mm_and_si128(value, one);
        __m128i d1 = _mm_and_si128(_mm_srli_epi16(value, 1), one);
        _mm_storeu_si128((__m128i *)word, _mm_unpacklo_epi8(d0, d1));
        _mm_storeu_si128((__m128i *)(word + 16), _mm_unpackhi_epi8(d0, d1));
    }
    *seen |= _mm_testz_si128(any, _mm_set1_epi8(-2)) ? 0 : 2;
    _mm256_zeroupper();
    return c;
}
#endif

/* Write every lane's dataword over its page into `out`: each cell becomes
 * next[pattern << 2 | value], the pattern that stores the value over the
 * cell's bits, -1 where none is reachable.  A lane with such a cell keeps
 * its page and is not writable; the tail passes through.  On AVX2 the cells
 * go sixteen at a time (page_vector_body(3, 2): 3-bit cells of 2 bits each),
 * the last ones, fewer than sixteen, as on any other CPU.  Returns the number
 * of lanes not writable (or -2); `writable` may be NULL. */
int wom_encode(const int64_t *p,               /* the WOM block */
               int64_t lanes,
               const uint8_t *restrict data,    /* (lanes, 2 * cells) */
               const uint8_t *restrict pages,   /* (lanes, page_bits) */
               uint8_t *restrict out,           /* out (lanes, page_bits) */
               uint8_t *restrict writable)      /* out (lanes,), or NULL */
{
    int64_t page_bits = p[WB_PAGE_BITS], cells = p[WB_CELLS];
    const int8_t *next = TABLE(int8_t, p, WB_NEXT); /* (8, 4) */
    if (cells < 0 || 3 * cells > page_bits || !next)
        return -2;
    unsigned seen = 0;
    int unwritable = 0, vector = page_vector_body(3, 2);
    for (int64_t b = 0; b < lanes; b++) {
        const uint8_t *page = pages + b * page_bits, *word = data + b * 2 * cells;
        uint8_t *cell = out + b * page_bits;
        int stuck = 0;
        int64_t c = 0;
#ifdef VECTOR_BODY
        if (vector)
            c = wom_encode_avx2(cells, next, page, word, cell, &stuck, &seen);
#else
        (void)vector;
#endif
        for (; c < cells; c++) {
            const uint8_t *p = page + 3 * c, *w = word + 2 * c;
            seen |= p[0] | p[1] | p[2] | w[0] | w[1];
            int target = next[PATTERN(p) << 2 | (w[0] & 1) | (w[1] & 1) << 1];
            stuck |= target < 0;
            cell[3 * c] = target & 1;
            cell[3 * c + 1] = target >> 1 & 1;
            cell[3 * c + 2] = target >> 2 & 1;
        }
        for (int64_t i = 3 * cells; i < page_bits; i++)
            seen |= cell[i] = page[i];
        if (stuck)
            memcpy(cell, page, (size_t)page_bits);
        if (writable)
            writable[b] = !stuck;
        unwritable += stuck;
    }
    return seen > 1 ? -2 : unwritable;
}

/* Read every lane's dataword: each cell's value is value_of[pattern], on
 * AVX2 sixteen cells at a time, as wom_encode. */
int wom_decode(const int64_t *p,               /* the WOM block */
               int64_t lanes,
               const uint8_t *restrict pages,   /* (lanes, page_bits) */
               uint8_t *restrict data)          /* out (lanes, 2 * cells) */
{
    int64_t page_bits = p[WB_PAGE_BITS], cells = p[WB_CELLS];
    const int8_t *value_of = TABLE(int8_t, p, WB_VALUE_OF); /* (8,) */
    if (cells < 0 || 3 * cells > page_bits || !value_of)
        return -2;
    unsigned seen = 0;
    int vector = page_vector_body(3, 2);
    uint8_t table[16] = {0};
    memcpy(table, value_of, 8);
    for (int64_t b = 0; b < lanes; b++) {
        const uint8_t *page = pages + b * page_bits;
        uint8_t *word = data + b * 2 * cells;
        int64_t c = 0;
#ifdef VECTOR_BODY
        if (vector)
            c = wom_decode_avx2(cells, table, page, word, &seen);
#else
        (void)vector;
#endif
        for (; c < cells; c++) {
            const uint8_t *p = page + 3 * c;
            seen |= p[0] | p[1] | p[2];
            int value = value_of[PATTERN(p)];
            word[2 * c] = value & 1;
            word[2 * c + 1] = value >> 1 & 1;
        }
        for (int64_t i = 3 * cells; i < page_bits; i++)
            seen |= page[i];
    }
    return seen > 1 ? -2 : 0;
}

/* A write's payload bits (repro.workload.payload_for): numpy's
 * PCG64(seed).random_raw stream, byte i's top bit as payload bit i, each
 * 64-bit word read low byte first.  The seed is the SeedSequence's entropy
 * as uint32 words; the state is what numpy makes of it: the words hashed
 * into a pool of four and mixed, generate_state(4, uint64) of the pool, and
 * PCG64's srandom of (words 0, 1) as the 128-bit state and (2, 3) as the
 * increment, high word first.  Each output word is the XSL-RR of the state
 * after one more step.  Where there is no 128-bit integer, or on a
 * big-endian host, it refuses, and the numpy twin draws the bits. */
#define SEED_MULT_A 0x931e8875u
#define SEED_MULT_B 0x58f38dedu
#define SEED_XSHIFT 16

static inline uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= SEED_MULT_A;
    value *= *hash;
    return value ^ value >> SEED_XSHIFT;
}

static inline uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ result >> SEED_XSHIFT;
}

int payload(int64_t count,         /* seed words */
            const uint32_t *words, /* (count,) */
            int64_t bits,
            uint8_t *out)          /* out (bits,): each 0 or 1 */
{
#if defined(__SIZEOF_INT128__) && defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    typedef unsigned __int128 u128;
    if (count < 0 || bits < 0 || (count && !words))
        return -2;
    uint32_t pool[4], hash = 0x43b0d7e5u, state[8];
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(i < count ? words[i] : 0, &hash);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (int64_t src = 4; src < count; src++)
        for (int dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(words[src], &hash));
    hash = 0x8b51f9ddu;
    for (int i = 0; i < 8; i++) {
        uint32_t value = pool[i % 4] ^ hash;
        hash *= SEED_MULT_B;
        value *= hash;
        state[i] = value ^ value >> SEED_XSHIFT;
    }
    /* generate_state's uint64 k is its uint32 words 2k (low) and 2k + 1. */
#define WORD64(k) ((uint64_t)state[2 * (k) + 1] << 32 | state[2 * (k)])
    const u128 mult = (u128)2549297995355413924u << 64 | 4865540595714422341u;
    u128 inc = ((u128)WORD64(2) << 64 | WORD64(3)) << 1 | 1;
    u128 s = inc;
    s += (u128)WORD64(0) << 64 | WORD64(1);
    s = s * mult + inc;
#undef WORD64
    for (int64_t n = 0; n < bits; n += 8) {
        s = s * mult + inc;
        uint64_t word = (uint64_t)(s >> 64) ^ (uint64_t)s;
        unsigned rot = (unsigned)(s >> 122);
        word = word >> rot | word << (-rot & 63);
        uint64_t spread = word >> 7 & 0x0101010101010101u;
        memcpy(out + n, &spread, bits - n < 8 ? (size_t)(bits - n) : 8);
    }
    return 0;
#else
    (void)count, (void)words, (void)bits, (void)out;
    return -2;
#endif
}

#else

/* old + cost, clamped to BIG (infeasible): see the top of the file.  An
 * integer width adds the least of cost and the room left below BIG, which
 * gcc makes a vector min and add, no wider type; double's inf needs no clamp. */
static inline T NAME(add)(T old, T cost)
{
#ifdef RENORM
    T room = (T)(BIG - old);
    return (T)(old + (cost < room ? cost : room));
#else
    return old + cost;
#endif
}

/* One trellis step over its cost vector.  The select is strict-less, so a tie
 * keeps predecessor 0: argmin's first-occurrence rule, which every recorded
 * result depends on.  Contiguous loads, no branch on the comparison and no
 * aliasing, so the compiler makes vector adds, compares and selects of it. */
static void NAME(butterflies)(int64_t half, const T *restrict old,
                              const T *restrict cost, T *restrict new,
                              uint8_t *restrict k)
{
    for (int64_t j = 0; j < half; j++) {
        T a0 = NAME(add)(old[j], cost[j]);
        T a1 = NAME(add)(old[half + j], cost[half + j]);
        T b0 = NAME(add)(old[j], cost[2 * half + j]);
        T b1 = NAME(add)(old[half + j], cost[3 * half + j]);
        k[2 * j] = a1 < a0;
        new[2 * j] = a1 < a0 ? a1 : a0;
        k[2 * j + 1] = b1 < b0;
        new[2 * j + 1] = b1 < b0 ? b1 : b0;
    }
}

/* The same step when that vector was not tabulated: its entry i is the fused
 * row read through the coset chunk's branch entries, row[order[i]].  gcc
 * vectorises this too, building each vector from 16-bit indices as it goes;
 * gathering the vector into scratch first stalls its loads on those stores. */
static void NAME(butterflies_gather)(int64_t half, const T *restrict old,
                                     const T *restrict row,
                                     const uint16_t *restrict order,
                                     T *restrict new, uint8_t *restrict k)
{
    for (int64_t j = 0; j < half; j++) {
        T a0 = NAME(add)(old[j], row[order[j]]);
        T a1 = NAME(add)(old[half + j], row[order[half + j]]);
        T b0 = NAME(add)(old[j], row[order[2 * half + j]]);
        T b1 = NAME(add)(old[half + j], row[order[3 * half + j]]);
        k[2 * j] = a1 < a0;
        new[2 * j] = a1 < a0 ? a1 : a0;
        k[2 * j + 1] = b1 < b0;
        new[2 * j + 1] = b1 < b0 ? b1 : b0;
    }
}

/* One lane's add-compare-select over the whole trellis, survivors packed into
 * `bits`, then its end state (the first minimum) and total cost.  Returns 0,
 * -2 or WIDEN. */
static int NAME(lane)(int64_t steps, int64_t S, int64_t cells, int64_t L,
                      int64_t V, int64_t limit, const uint16_t *order,
                      const T *costs, const T *expanded, const int64_t *reps,
                      const int64_t *levels, T *scratch, uint8_t *k,
                      uint8_t *bits, int64_t *end, double *total)
{
    /* Old and new metrics: step t reads half t & 1 and writes the other. */
    int64_t offset = 0;
#ifndef RENORM
    (void)limit;
#endif
    for (int64_t s = 0; s < S; s++)
        scratch[s] = 0;
    for (int64_t t = 0; t < steps; t++, levels += cells) {
        /* The step's cost row: its cells' levels are the base-L digits of
         * the row number, most significant first. */
        int64_t v = reps[t], row = 0;
        for (int64_t c = 0; c < cells; c++) {
            if ((uint64_t)levels[c] >= (uint64_t)L)
                return -2;
            row = row * L + levels[c];
        }
        if ((uint64_t)v >= (uint64_t)V)
            return -2;
        T *old = scratch + (t & 1) * S, *new = scratch + (~t & 1) * S;
#ifdef RENORM
        if (t && t % RENORM == 0) {
            T least = BIG;
            for (int64_t s = 0; s < S; s++)
                least = old[s] < least ? old[s] : least;
            if (least == BIG) { /* every state dead: the lane stops */
                *end = 0;
                *total = INFINITY;
                return unrun_in_range(steps - t, cells, L, V, reps + t, levels);
            }
            /* No branch and no int64 compare: gcc vectorises this loop. */
            T high = limit < BIG ? (T)limit : BIG;
            uint8_t wide = 0;
            for (int64_t s = 0; s < S; s++) {
                old[s] = old[s] < BIG ? (T)(old[s] - least) : BIG;
                wide |= (old[s] < BIG) & (old[s] > high);
            }
            if (wide)
                return WIDEN;
            offset += least;
        }
#endif
        uint8_t *chosen = k + t % 8 * S;
        if (expanded)
            NAME(butterflies)(S / 2, old, expanded + (row * V + v) * 2 * S, new,
                              chosen);
        else
            NAME(butterflies_gather)(S / 2, old, costs + row * V, order + v * 2 * S,
                                     new, chosen);
        if (t % 8 == 7 || t == steps - 1)
            pack(S, k, bits + t / 8 * S);
    }
    const T *last = scratch + (steps & 1) * S;
    int64_t best = 0;
    for (int64_t s = 1; s < S; s++)
        best = last[s] < last[best] ? s : best;
    *end = best;
    *total = last[best] < BIG ? (double)last[best] + offset : INFINITY;
    return 0;
}

#endif
