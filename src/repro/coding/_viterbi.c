/* Fused Viterbi kernel: the "native" backend of repro.coding.kernels.
 *
 * kernels.py compiles this file on first use (-O3 -shared -fPIC; gcc vectorises
 * the butterfly loop only at -O3) and loads it with ctypes.
 *
 * The recursion is one add-compare-select per trellis step, ties to the first
 * minimum: the same one the numpy backend runs a vector of lanes at a time.
 * CosetViterbi hands this kernel only searches with a fused cost table,
 * integer (or inf) costs and a shift-register trellis; the rest run numpy.
 * In such a trellis states 2j and 2j+1 both come from j (predecessor 0) and
 * j + S/2 (predecessor 1), so a step is S/2 butterflies over two contiguous
 * halves of the old metrics, and its 2S branch costs are indexed [u][k][j]:
 * entering state 2j+u from its k-th predecessor.
 *
 * Integer costs make every finite metric an integer, so the forward pass runs
 * on int16_t, eight states to an SSE2 register.  Infeasible is BIG, and every
 * candidate is clamped to BIG before the compare, so two infeasible ones tie
 * as two infs do; old + cost <= 2 * BIG stays in int16.  Every RENORM steps
 * the least finite metric moves into an int64 offset; a finite one still above
 * `limit` could reach BIG before the next, so forward_i16 returns WIDEN and
 * kernels.py redoes the call in double.  Both are one body, this file
 * including itself.  In the double one BIG is IEEE inf, the clamp a no-op and
 * nothing renormalises: never build it with -ffast-math.
 *
 * program and divide are the rest of a page write, either side of the search:
 * each is the plain loop of what kernels.py names as its numpy twin.
 *
 * All tables are C-contiguous.  Every function returns 0, -1 when scratch
 * cannot be allocated, -2 when an input value is out of range, or WIDEN.
 */
#ifndef T
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define WIDEN 1
#define RENORM 16

#define T int16_t
#define BIG 16383
#define NAME(f) f##_i16
#include __FILE__
#undef T
#undef BIG
#undef NAME
#define T double
#define BIG INFINITY
#define NAME(f) f##_f64
#include __FILE__

/* Walk the winning path back from end_state[b] and emit the codeword chunks
 * (branch output ^ coset chunk).  The input consumed on entering a state is
 * that state's low bit, and its k-th predecessor is (state >> 1) + k * S/2. */
int backtrace(int64_t lanes, int64_t steps, int64_t S,
              const int32_t *out_values, /* (S, 2): output of state s on input u */
              const int64_t *reps, const int64_t *end_state,
              const uint8_t *choice, int64_t *codeword)
{
    for (int64_t b = 0; b < lanes; b++) {
        int64_t state = end_state[b];
        if ((uint64_t)state >= (uint64_t)S)
            return -2;
        for (int64_t t = steps - 1; t >= 0; t--) {
            int64_t src =
                (state >> 1) + choice[(b * steps + t) * S + state] * (S / 2);
            codeword[b * steps + t] =
                out_values[2 * src + (state & 1)] ^ reps[b * steps + t];
            state = src;
        }
    }
    return 0;
}

/* Raise one page's cells to the levels that store its codeword.  A cell is
 * `width` one-byte bits and its level how many are set; the i-th cell of step
 * t stores symbol (codeword[t] >> i * bpc) & (symbols - 1) at the level
 * target_of names for it, reached by setting its lowest unset bits.  The fill
 * has no branch on the bits, which would mispredict on every other cell.  gcc
 * specialises this for the literal width it is called with below, worth 1.4x;
 * it never does that for an exported function's argument. */
static int program_page(int64_t width, int64_t steps, int64_t per_step,
                        int64_t bpc, const int64_t *target_of,
                        const int64_t *codeword, uint8_t *cell)
{
    int64_t symbols = (int64_t)1 << bpc;
    for (int64_t t = 0; t < steps; t++) {
        int64_t value = codeword[t];
        for (int64_t i = 0; i < per_step; i++, value >>= bpc, cell += width) {
            int64_t level = 0;
            for (int64_t j = 0; j < width; j++)
                level += cell[j];
            int64_t target = target_of[level * symbols + (value & (symbols - 1))];
            if (target < level || target > width)
                return -2;
            for (int64_t j = 0, deficit = target - level; j < width; j++) {
                uint8_t fill = !cell[j] & (deficit > 0);
                cell[j] |= fill;
                deficit -= fill;
            }
        }
    }
    return 0;
}

int program(int64_t lanes, int64_t page_bits, int64_t width, int64_t steps,
            int64_t per_step, int64_t bpc,
            const int64_t *target_of, /* (width + 1, 1 << bpc) post-write level */
            const int64_t *codeword,  /* (lanes, steps) */
            const uint8_t *writable,  /* (lanes,): 0 leaves the page as it is */
            uint8_t *pages)           /* in/out (lanes, page_bits) */
{
    if (width < 1 || bpc < 1 || per_step < 1 || per_step * bpc > 62 ||
        steps < 0 || steps * per_step * width > page_bits)
        return -2;
    for (int64_t b = 0; b < lanes; b++) {
        const int64_t *word = codeword + b * steps;
        uint8_t *page = pages + b * page_bits;
        /* What indexes target_of is checked here, in a lane left alone too:
         * every chunk below 2**m, every byte of a used cell a bit. */
        int64_t chunks = 0;
        uint8_t bits = 0;
        for (int64_t t = 0; t < steps; t++)
            chunks |= word[t];
        for (int64_t i = 0; i < steps * per_step * width; i++)
            bits |= page[i];
        if ((uint64_t)chunks >> (per_step * bpc) || bits > 1)
            return -2;
        if (!writable[b])
            continue;
        /* 3: the paper's 4-level cell (Fig. 6). */
        int status = width == 3 ? program_page(3, steps, per_step, bpc,
                                               target_of, word, page)
                                : program_page(width, steps, per_step, bpc,
                                               target_of, word, page);
        if (status)
            return status;
    }
    return 0;
}

/* Causal division by g1(D) of `rows` streams, in place: the shift register
 * out[t] = in[t] ^ out[t - tap] ^ ... over g1's nonzero powers >= 1. */
int divide(int64_t rows, int64_t steps, int64_t ntaps, const int64_t *taps,
           uint8_t *out)
{
    for (int64_t k = 0; k < ntaps; k++)
        if (taps[k] < 1)
            return -2;
    for (int64_t r = 0; r < rows; r++, out += steps)
        for (int64_t t = 0; t < steps; t++) {
            uint8_t bit = out[t];
            for (int64_t k = 0; k < ntaps; k++)
                if (taps[k] <= t)
                    bit ^= out[t - taps[k]];
            out[t] = bit;
        }
    return 0;
}

#else

/* old + cost, clamped to BIG (infeasible): see the top of the file. */
static inline T NAME(add)(T old, T cost)
{
    T sum = old + cost;
    return sum < BIG ? sum : BIG;
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

/* Add-compare-select over the whole trellis, one lane after another. */
int NAME(forward)(int64_t lanes, int64_t steps, int64_t S, int64_t cells,
                  int64_t L, int64_t V,
                  int64_t limit,         /* int16 only: see the top */
                  const uint16_t *order, /* (V, 2S) branch outputs ^ chunk */
                  const T *costs,        /* (L**cells, V) fused cost table */
                  const T *expanded,     /* (L**cells * V, 2S) cost vector of
                                            each (row, coset chunk), or NULL */
                  const int64_t *reps,   /* (lanes, steps) coset chunks */
                  const int64_t *levels, /* (lanes, steps, cells) */
                  double *path,          /* out (lanes, S) final metrics */
                  uint8_t *choice)       /* out (lanes, steps, S) winning k */
{
    /* Old and new metrics: step t reads half t & 1 and writes the other. */
    T *scratch = malloc((size_t)S * 2 * sizeof(T));
    if (!scratch)
        return -1;
    int status = 0;
    for (int64_t b = 0; b < lanes && !status; b++) {
        int64_t offset = 0;
        for (int64_t s = 0; s < S; s++)
            scratch[s] = 0;
        for (int64_t t = 0; t < steps; t++) {
            /* The step's cost row: its cells' levels are the base-L digits
             * of the row number, most significant first. */
            const int64_t *level = levels + (b * steps + t) * cells;
            int64_t v = reps[b * steps + t], row = 0;
            for (int64_t c = 0; c < cells; c++) {
                if ((uint64_t)level[c] >= (uint64_t)L)
                    status = -2;
                row = row * L + level[c];
            }
            if ((uint64_t)v >= (uint64_t)V)
                status = -2;
            T *old = scratch + (t & 1) * S, *new = scratch + (~t & 1) * S;
            if (!status && BIG < INFINITY && t && t % RENORM == 0) {
                T least = BIG; /* BIG in a dead lane: its offset is never read */
                for (int64_t s = 0; s < S; s++)
                    least = old[s] < least ? old[s] : least;
                for (int64_t s = 0; s < S; s++) {
                    old[s] = old[s] < BIG ? old[s] - least : BIG;
                    if (old[s] < BIG && old[s] > limit)
                        status = WIDEN;
                }
                offset += least;
            }
            if (status)
                break;
            uint8_t *k = choice + (b * steps + t) * S;
            if (expanded)
                NAME(butterflies)(S / 2, old, expanded + (row * V + v) * 2 * S,
                                  new, k);
            else
                NAME(butterflies_gather)(S / 2, old, costs + row * V,
                                         order + v * 2 * S, new, k);
        }
        const T *last = scratch + (steps & 1) * S;
        for (int64_t s = 0; s < S; s++)
            path[b * S + s] = last[s] < BIG ? (double)last[s] + offset : INFINITY;
    }
    free(scratch);
    return status;
}

#endif
