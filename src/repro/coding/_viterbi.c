/* Fused Viterbi kernel: the "native" backend of repro.coding.kernels.
 *
 * kernels.py compiles this file on first use (-O2 -shared -fPIC) and loads it
 * with ctypes.  Never build it with -ffast-math: unwritable branches cost IEEE
 * +inf and have to add and compare as such.  The forward pass is instantiated
 * for float and double by including this file from itself.
 *
 * The recursion is one add-compare-select per trellis step, ties to the first
 * minimum: the same one the numpy backend runs a vector of lanes at a time.
 * CosetViterbi hands this kernel only searches with a fused cost table,
 * integer (or inf) costs and a shift-register trellis; the rest run numpy.
 *
 * All tables are C-contiguous.  prev[s][k] is the k-th predecessor of state s
 * and pred_out[s][k] the output chunk on that branch, so writing it over coset
 * chunk v at a step whose fused cost row is `row` costs row[pred_out[s][k] ^ v].
 * Every function returns 0, -1 when scratch cannot be allocated, or -2 when an
 * input value is out of range.
 */
#ifndef T
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define T float
#define NAME(f) f##_f32
#include __FILE__
#undef T
#undef NAME
#define T double
#define NAME(f) f##_f64
#include __FILE__

/* Walk the winning path back from end_state[b] and emit the codeword chunks
 * (branch output ^ coset chunk).  A shift-register trellis labels the input
 * consumed on entering a state in that state's low bit. */
int backtrace(int64_t lanes, int64_t steps, int64_t S, const int32_t *prev,
              const int32_t *out_values, /* (S, 2): output of state s on input u */
              const int64_t *reps, const int64_t *end_state,
              const uint8_t *choice, int64_t *codeword)
{
    for (int64_t b = 0; b < lanes; b++) {
        int64_t state = end_state[b];
        if ((uint64_t)state >= (uint64_t)S)
            return -2;
        for (int64_t t = steps - 1; t >= 0; t--) {
            int64_t src = prev[2 * state + choice[(b * steps + t) * S + state]];
            codeword[b * steps + t] =
                out_values[2 * src + (state & 1)] ^ reps[b * steps + t];
            state = src;
        }
    }
    return 0;
}

#else

/* Add-compare-select over the whole trellis, one lane after another.  The
 * select is strict-less, so a tie keeps predecessor 0: argmin's first-occurrence
 * rule, which every recorded result depends on.  Written without a branch on
 * the comparison, which would mispredict half the time. */
int NAME(forward)(int64_t lanes, int64_t steps, int64_t S, int64_t cells,
                  int64_t L, int64_t V, const int32_t *prev,
                  const int32_t *pred_out,
                  const T *costs,        /* (L**cells, V) fused cost table */
                  const int64_t *reps,   /* (lanes, steps) coset chunks */
                  const int64_t *levels, /* (lanes, steps, cells) */
                  T *path,               /* out (lanes, S) final metrics */
                  uint8_t *choice)       /* out (lanes, steps, S) winning k */
{
    T *old = malloc((size_t)S * sizeof(T));
    if (!old)
        return -1;
    int status = 0;
    for (int64_t b = 0; b < lanes && !status; b++) {
        T *p = path + b * S;
        for (int64_t s = 0; s < S; s++)
            p[s] = 0;
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
            if (status)
                break;
            const T *cost = costs + row * V;
            uint8_t *k = choice + (b * steps + t) * S;
            memcpy(old, p, (size_t)S * sizeof(T));
            for (int64_t s = 0; s < S; s++) {
                T c0 = old[prev[2 * s]] + cost[pred_out[2 * s] ^ v];
                T c1 = old[prev[2 * s + 1]] + cost[pred_out[2 * s + 1] ^ v];
                k[s] = c1 < c0;
                p[s] = c1 < c0 ? c1 : c0;
            }
        }
    }
    free(old);
    return status;
}

#endif
