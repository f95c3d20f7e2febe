/*
 * Per-column hash SpKAdd (paper Algorithm 5) over k CSC addends, a
 * replay pass that re-adds new values into a recorded pattern, and a
 * column-wise Gustavson SpGEMM on the same hash table.
 *
 * repro_spkadd_*: for every output column j in [j0, j1):
 *   1. the column's input entries are inserted, matrix by matrix and in
 *      storage order, into a linear-probing table whose size is a power
 *      of two above the column's input nnz.  A new row seeds its slot
 *      with its first addend; later duplicates add left to right, so
 *      the sums (including the sign of an all-(-0.0) sum) match the
 *      instrumented table bit for bit.  A row outside [0, m) stops the
 *      call;
 *   2. the table slots of the distinct rows are sorted by row: an LSD
 *      radix sort on (row - min_row), 8 bits per pass, skipping passes
 *      whose digit is constant, or an insertion sort below SMALL_SORT
 *      entries;
 *   3. rows and sums are written in that order to the caller's output
 *      buffers, whose capacity is the summed input nnz of the range.
 * With a non-NULL ``plan_slots`` the kernel also records, for every
 * input entry in that visiting order (column, then matrix, then
 * storage), the output position its value went to, stored as ``~pos``
 * for the entry that seeded the position.
 *
 * repro_replay_*: given such a record and the output rows it produced,
 * writes the sums of a new set of values over the same pattern.  It
 * visits entries in the kernel's order, seeds each position with its
 * first addend and adds the rest with the kernel's ADD, so its bytes
 * are the kernel's.  Every entry is checked before it is used: its
 * position must lie in its column's output range and the recorded row
 * there must equal the entry's row, so a pattern that differs from the
 * recorded one is rejected, never misplaced.
 *
 * repro_spgemm_*: C = A * B for CSC operands.  For every output column
 * j in [j0, j1) the products A(r, t) * B(t, j) are inserted, in B's
 * storage order and then A's, into the same table, sized from the
 * column's flop count; that is the order of the NumPy expansion, so
 * first-product seeding and the same ADD give its bytes.  The distinct
 * rows come out through the radix sort above when ``sorted_output`` is
 * set, and in first-insertion order otherwise.  A B row outside
 * [0, ka) or an A row outside [0, ma) stops the call; the output
 * buffers must hold the range's flop count (``cap``).
 *
 * Specialized for input index type (int32/int64) x output index type
 * (int32/int64) x value type (float32/float64/int64).  int64 sums and
 * products wrap modulo 2**64 like NumPy's (signed overflow is undefined
 * in C, so the arithmetic goes through uint64).  Build without
 * -ffast-math so float sums stay IEEE and bit-stable.
 *
 * The kernels return the output nnz, the replay 0; all return one of
 * the negative codes below on failure.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SMALL_SORT 32
#define RADIX_BITS 8
#define RADIX_SIZE (1 << RADIX_BITS)
#define MAX_PASSES (64 / RADIX_BITS)
#define FIB_MULT 0x9E3779B97F4A7C15ull

#define ERR_NO_MEMORY (-1)
#define ERR_ROW_RANGE (-2)
#define ERR_MISMATCH (-3)
#define ERR_INNER_RANGE (-4)

/* A NaN partial sum is kept as is: when both operands are NaN, x86 and
 * NumPy's ``acc += v`` return the accumulator's payload, but the C
 * compiler may emit the commutative add either way round. */
#define ADD_FLOAT(a, b) ((a) != (a) ? (a) : (a) + (b))
#define ADD_WRAP(a, b) ((int64_t)((uint64_t)(a) + (uint64_t)(b)))
/* NumPy's ``a * b`` returns a's payload (quieted) when a is NaN and b's
 * when only b is; the compiler may swap a commutative multiply's
 * operands, so a NaN a is quieted on its own. */
#define MUL_FLOAT(a, b) ((a) != (a) ? (a) + (a) : (a) * (b))
#define MUL_WRAP(a, b) ((int64_t)((uint64_t)(a) * (uint64_t)(b)))

/* repro.util.hashing.table_size_for: the smallest power of two >= 16
 * above n, doubled once if the load factor would exceed 3/4.  It never
 * decreases in n, so the scratch sized for the largest column fits
 * every column's table. */
static int64_t table_size_for(int64_t n)
{
    int64_t need = n + 1 < 16 ? 16 : n + 1;
    int64_t size = 1;
    while (size < need)
        size <<= 1;
    if (4 * n > 3 * size)
        size <<= 1;
    return size;
}

static int log2_of(int64_t pow2)
{
    int q = 0;
    while (((int64_t)1 << q) < pow2)
        ++q;
    return q;
}

#define DIGIT(key, b) (((key) >> ((b) * RADIX_BITS)) & (RADIX_SIZE - 1))

/* sort_slots_<in>: orders the d table slots in ``slots`` by their row
 * ``trow[slot]`` and returns the sorted array, which is ``slots`` or
 * ``spare`` (both hold at least d entries). */
#define DEFINE_SORT(IN, IT)                                                    \
static uint32_t *sort_slots_##IN(const IT *trow, uint32_t *slots,              \
                                 uint32_t *spare, int64_t d)                   \
{                                                                              \
    if (d < SMALL_SORT) {                                                      \
        for (int64_t s = 1; s < d; ++s) {                                      \
            uint32_t h = slots[s];                                             \
            IT r = trow[h];                                                    \
            int64_t t = s;                                                     \
            for (; t > 0 && trow[slots[t - 1]] > r; --t)                       \
                slots[t] = slots[t - 1];                                       \
            slots[t] = h;                                                      \
        }                                                                      \
        return slots;                                                          \
    }                                                                          \
    IT lo = trow[slots[0]], hi = lo;                                           \
    for (int64_t s = 1; s < d; ++s) {                                          \
        IT r = trow[slots[s]];                                                 \
        lo = r < lo ? r : lo;                                                  \
        hi = r > hi ? r : hi;                                                  \
    }                                                                          \
    uint64_t span = (uint64_t)hi - (uint64_t)lo;                               \
    int n_pass = 0;                                                            \
    while (n_pass < MAX_PASSES && (span >> (n_pass * RADIX_BITS)))             \
        ++n_pass;                                                              \
    uint32_t counts[MAX_PASSES][RADIX_SIZE];                                   \
    memset(counts, 0, sizeof(counts[0]) * (size_t)n_pass);                     \
    for (int64_t s = 0; s < d; ++s) {                                          \
        uint64_t key = (uint64_t)trow[slots[s]] - (uint64_t)lo;                \
        for (int b = 0; b < n_pass; ++b)                                       \
            ++counts[b][DIGIT(key, b)];                                        \
    }                                                                          \
    uint64_t first = (uint64_t)trow[slots[0]] - (uint64_t)lo;                  \
    uint32_t *from = slots, *to = spare;                                       \
    for (int b = 0; b < n_pass; ++b) {                                         \
        uint32_t *c = counts[b];                                               \
        if (c[DIGIT(first, b)] == (uint32_t)d)                                 \
            continue;                                                          \
        uint32_t run = 0;                                                      \
        for (int x = 0; x < RADIX_SIZE; ++x) {                                 \
            uint32_t here = c[x];                                              \
            c[x] = run;                                                        \
            run += here;                                                       \
        }                                                                      \
        for (int64_t s = 0; s < d; ++s) {                                      \
            uint32_t h = from[s];                                              \
            uint64_t key = (uint64_t)trow[h] - (uint64_t)lo;                   \
            to[c[DIGIT(key, b)]++] = h;                                        \
        }                                                                      \
        uint32_t *swap = from;                                                 \
        from = to;                                                             \
        to = swap;                                                             \
    }                                                                          \
    return from;                                                               \
}

DEFINE_SORT(i32, int32_t)
DEFINE_SORT(i64, int64_t)

/* insert_<suffix>: adds (r, v) to the table, probing linearly from the
 * hash of r.  A new row seeds its slot with v and is appended to
 * ``slots``.  Returns the slot, as ~slot when the row was new. */
#define DEFINE_INSERT(SUFFIX, IT, VT, ADD)                                     \
static inline __attribute__((always_inline)) int64_t insert_##SUFFIX(         \
    IT *trow, VT *tval, uint32_t *slots, int64_t *d, int shift,                \
    uint64_t mask, IT r, VT v)                                                 \
{                                                                              \
    uint64_t h = ((uint64_t)r * FIB_MULT) >> shift;                            \
    for (;;) {                                                                 \
        IT t = trow[h];                                                        \
        if (t == r) {                                                          \
            tval[h] = ADD(tval[h], v);                                         \
            return (int64_t)h;                                                 \
        }                                                                      \
        if (t < 0) {                                                           \
            trow[h] = r;                                                       \
            tval[h] = v;                                                       \
            slots[(*d)++] = (uint32_t)h;                                       \
            return ~(int64_t)h;                                                \
        }                                                                      \
        h = (h + 1) & mask;                                                    \
    }                                                                          \
}

/* The kernel body is inlined twice, with and without a slot record, so
 * the plain kernel's insertion loop carries no recording branch. */
#define DEFINE_KERNEL(SUFFIX, IN, IT, OT, VT)                                  \
static inline __attribute__((always_inline)) int64_t spkadd_##SUFFIX(          \
    int64_t k, int64_t m, int64_t j0, int64_t j1,                              \
    const int64_t *const *indptr, const IT *const *indices,                   \
    const VT *const *data,                                                     \
    OT *out_indptr, OT *out_indices, VT *out_data, int64_t *col_in,            \
    OT *plan_slots)                                                            \
{                                                                              \
    int64_t max_in = 0;                                                        \
    for (int64_t j = j0; j < j1; ++j) {                                        \
        int64_t c = 0;                                                         \
        for (int64_t i = 0; i < k; ++i)                                        \
            c += indptr[i][j + 1] - indptr[i][j];                              \
        col_in[j - j0] = c;                                                    \
        if (c > max_in)                                                        \
            max_in = c;                                                        \
    }                                                                          \
    out_indptr[0] = 0;                                                         \
    int64_t tcap = table_size_for(max_in);                                     \
    if (tcap > ((int64_t)1 << 32))                                             \
        return ERR_NO_MEMORY; /* slot ids and radix counts are 32-bit */       \
    IT *trow = malloc((size_t)tcap * sizeof(IT));                              \
    VT *tval = malloc((size_t)tcap * sizeof(VT));                              \
    uint32_t *slots = malloc((size_t)(max_in + 1) * sizeof(uint32_t));         \
    uint32_t *spare = malloc((size_t)(max_in + 1) * sizeof(uint32_t));         \
    /* recording only: each column entry's slot (~slot for a seed) and \
     * each slot's rank in the sorted column */                                \
    int64_t *ent = NULL;                                                       \
    uint32_t *rank = NULL;                                                     \
    if (plan_slots) {                                                          \
        ent = malloc((size_t)(max_in + 1) * sizeof(int64_t));                  \
        rank = malloc((size_t)tcap * sizeof(uint32_t));                        \
    }                                                                          \
    int64_t nnz = ERR_NO_MEMORY;                                               \
    if (!trow || !tval || !slots || !spare                                     \
        || (plan_slots && (!ent || !rank)))                                    \
        goto done;                                                             \
    for (int64_t s = 0; s < tcap; ++s)                                         \
        trow[s] = -1;                                                          \
    nnz = 0;                                                                   \
    for (int64_t j = j0; j < j1; ++j) {                                        \
        int64_t cnt = col_in[j - j0];                                          \
        int64_t d = 0;                                                         \
        if (cnt > 0) {                                                         \
            int64_t tsize = table_size_for(cnt);                               \
            uint64_t mask = (uint64_t)tsize - 1;                               \
            int shift = 64 - log2_of(tsize);                                   \
            int64_t e = 0;                                                     \
            for (int64_t i = 0; i < k; ++i) {                                  \
                const IT *ri = indices[i];                                     \
                const VT *vi = data[i];                                        \
                int64_t p1 = indptr[i][j + 1];                                 \
                for (int64_t p = indptr[i][j]; p < p1; ++p, ++e) {             \
                    IT r = ri[p];                                              \
                    if ((uint64_t)(int64_t)r >= (uint64_t)m) {                 \
                        nnz = ERR_ROW_RANGE;                                   \
                        goto done;                                             \
                    }                                                          \
                    int64_t h = insert_##SUFFIX(trow, tval, slots, &d, shift,  \
                                                mask, r, vi[p]);               \
                    if (plan_slots)                                            \
                        ent[e] = h;                                            \
                }                                                              \
            }                                                                  \
        }                                                                      \
        uint32_t *order = sort_slots_##IN(trow, slots, spare, d);              \
        OT *rows_out = out_indices + nnz;                                      \
        VT *vals_out = out_data + nnz;                                         \
        for (int64_t s = 0; s < d; ++s) {                                      \
            uint32_t h = order[s];                                             \
            rows_out[s] = (OT)trow[h];                                         \
            vals_out[s] = tval[h];                                             \
            trow[h] = -1;                                                      \
        }                                                                      \
        if (plan_slots) {                                                      \
            for (int64_t s = 0; s < d; ++s)                                    \
                rank[order[s]] = (uint32_t)s;                                  \
            for (int64_t x = 0; x < cnt; ++x) {                                \
                int64_t h = ent[x];                                            \
                *plan_slots++ = h < 0 ? (OT)~(nnz + rank[~h])                  \
                                      : (OT)(nnz + rank[h]);                   \
            }                                                                  \
        }                                                                      \
        nnz += d;                                                              \
        out_indptr[j - j0 + 1] = (OT)nnz;                                      \
    }                                                                          \
done:                                                                          \
    free(trow);                                                                \
    free(tval);                                                                \
    free(slots);                                                               \
    free(spare);                                                               \
    free(ent);                                                                 \
    free(rank);                                                                \
    return nnz;                                                                \
}                                                                              \
                                                                               \
int64_t repro_spkadd_##SUFFIX(                                                 \
    int64_t k, int64_t m, int64_t j0, int64_t j1,                              \
    const int64_t *const *indptr, const IT *const *indices,                   \
    const VT *const *data,                                                     \
    OT *out_indptr, OT *out_indices, VT *out_data, int64_t *col_in,            \
    OT *plan_slots)                                                            \
{                                                                              \
    if (plan_slots)                                                            \
        return spkadd_##SUFFIX(k, m, j0, j1, indptr, indices, data,            \
                               out_indptr, out_indices, out_data, col_in,     \
                               plan_slots);                                    \
    return spkadd_##SUFFIX(k, m, j0, j1, indptr, indices, data,                \
                           out_indptr, out_indices, out_data, col_in, NULL);  \
}

#define DEFINE_SPGEMM(SUFFIX, IN, IT, OT, VT, MUL)                             \
int64_t repro_spgemm_##SUFFIX(                                                 \
    int64_t ma, int64_t ka, int64_t j0, int64_t j1, int64_t sorted_output,     \
    const int64_t *a_indptr, const IT *a_indices, const VT *a_data,            \
    const int64_t *b_indptr, const IT *b_indices, const VT *b_data,            \
    int64_t cap, OT *out_indptr, OT *out_indices, VT *out_data)                \
{                                                                              \
    /* a column's flop count: the summed lengths of the A columns its          \
     * B entries select */                                                     \
    int64_t max_flops = 0, total = 0;                                          \
    for (int64_t j = j0; j < j1; ++j) {                                        \
        int64_t f = 0;                                                         \
        for (int64_t p = b_indptr[j]; p < b_indptr[j + 1]; ++p) {              \
            IT t = b_indices[p];                                               \
            if ((uint64_t)(int64_t)t >= (uint64_t)ka)                          \
                return ERR_INNER_RANGE;                                        \
            f += a_indptr[t + 1] - a_indptr[t];                                \
        }                                                                      \
        total += f;                                                            \
        if (f > max_flops)                                                     \
            max_flops = f;                                                     \
    }                                                                          \
    if (total > cap)                                                           \
        return ERR_MISMATCH;                                                   \
    out_indptr[0] = 0;                                                         \
    int64_t tcap = table_size_for(max_flops);                                  \
    if (tcap > ((int64_t)1 << 32))                                             \
        return ERR_NO_MEMORY;                                                  \
    IT *trow = malloc((size_t)tcap * sizeof(IT));                              \
    VT *tval = malloc((size_t)tcap * sizeof(VT));                              \
    uint32_t *slots = malloc((size_t)(max_flops + 1) * sizeof(uint32_t));      \
    uint32_t *spare = sorted_output                                            \
        ? malloc((size_t)(max_flops + 1) * sizeof(uint32_t)) : NULL;           \
    int64_t nnz = ERR_NO_MEMORY;                                               \
    if (!trow || !tval || !slots || (sorted_output && !spare))                 \
        goto done;                                                             \
    for (int64_t s = 0; s < tcap; ++s)                                         \
        trow[s] = -1;                                                          \
    nnz = 0;                                                                   \
    for (int64_t j = j0; j < j1; ++j) {                                        \
        int64_t f = 0, d = 0;                                                  \
        for (int64_t p = b_indptr[j]; p < b_indptr[j + 1]; ++p)                \
            f += a_indptr[b_indices[p] + 1] - a_indptr[b_indices[p]];          \
        if (f > 0) {                                                           \
            int64_t tsize = table_size_for(f);                                 \
            uint64_t mask = (uint64_t)tsize - 1;                               \
            int shift = 64 - log2_of(tsize);                                   \
            for (int64_t p = b_indptr[j]; p < b_indptr[j + 1]; ++p) {          \
                IT t = b_indices[p];                                           \
                VT bv = b_data[p];                                             \
                int64_t q1 = a_indptr[t + 1];                                  \
                for (int64_t q = a_indptr[t]; q < q1; ++q) {                   \
                    IT r = a_indices[q];                                       \
                    if ((uint64_t)(int64_t)r >= (uint64_t)ma) {                \
                        nnz = ERR_ROW_RANGE;                                   \
                        goto done;                                             \
                    }                                                          \
                    insert_##SUFFIX(trow, tval, slots, &d, shift, mask, r,     \
                                    MUL(a_data[q], bv));                       \
                }                                                              \
            }                                                                  \
        }                                                                      \
        uint32_t *order = sorted_output                                        \
            ? sort_slots_##IN(trow, slots, spare, d) : slots;                  \
        OT *rows_out = out_indices + nnz;                                      \
        VT *vals_out = out_data + nnz;                                         \
        for (int64_t s = 0; s < d; ++s) {                                      \
            uint32_t h = order[s];                                             \
            rows_out[s] = (OT)trow[h];                                         \
            vals_out[s] = tval[h];                                             \
            trow[h] = -1;                                                      \
        }                                                                      \
        nnz += d;                                                              \
        out_indptr[j - j0 + 1] = (OT)nnz;                                      \
    }                                                                          \
done:                                                                          \
    free(trow);                                                                \
    free(tval);                                                                \
    free(slots);                                                               \
    free(spare);                                                               \
    return nnz;                                                                \
}

#define DEFINE_REPLAY(SUFFIX, IT, OT, VT, ADD)                                 \
int64_t repro_replay_##SUFFIX(                                                 \
    int64_t k, int64_t n,                                                      \
    const int64_t *const *indptr, const IT *const *indices,                   \
    const VT *const *data,                                                     \
    const OT *plan_indptr, const OT *plan_rows, const OT *plan_slots,          \
    int64_t n_in, VT *out_data)                                                \
{                                                                              \
    const OT *slot = plan_slots, *slot_end = plan_slots + n_in;                \
    for (int64_t j = 0; j < n; ++j) {                                          \
        int64_t lo = plan_indptr[j], hi = plan_indptr[j + 1];                  \
        for (int64_t i = 0; i < k; ++i) {                                      \
            const IT *ri = indices[i];                                         \
            const VT *vi = data[i];                                            \
            int64_t p0 = indptr[i][j], p1 = indptr[i][j + 1];                  \
            if (p1 - p0 > slot_end - slot)                                     \
                return ERR_MISMATCH;                                           \
            for (int64_t p = p0; p < p1; ++p) {                                \
                int64_t s = *slot++;                                           \
                int64_t pos = s < 0 ? ~s : s;                                  \
                if (pos < lo || pos >= hi                                      \
                    || (int64_t)plan_rows[pos] != (int64_t)ri[p])              \
                    return ERR_MISMATCH;                                       \
                out_data[pos] = s < 0 ? vi[p] : ADD(out_data[pos], vi[p]);     \
            }                                                                  \
        }                                                                      \
    }                                                                          \
    return slot == slot_end ? 0 : ERR_MISMATCH;                                \
}

#define DEFINE_ALL(SUFFIX, IN, IT, OT, VT, ADD, MUL)                          \
    DEFINE_INSERT(SUFFIX, IT, VT, ADD)                                         \
    DEFINE_KERNEL(SUFFIX, IN, IT, OT, VT)                                      \
    DEFINE_REPLAY(SUFFIX, IT, OT, VT, ADD)                                     \
    DEFINE_SPGEMM(SUFFIX, IN, IT, OT, VT, MUL)

#define DEFINE_VALUES(IN, IT, OUT, OT)                                         \
    DEFINE_ALL(IN##_##OUT##_f32, IN, IT, OT, float, ADD_FLOAT, MUL_FLOAT)      \
    DEFINE_ALL(IN##_##OUT##_f64, IN, IT, OT, double, ADD_FLOAT, MUL_FLOAT)     \
    DEFINE_ALL(IN##_##OUT##_i64, IN, IT, OT, int64_t, ADD_WRAP, MUL_WRAP)

DEFINE_VALUES(i32, int32_t, i32, int32_t)
DEFINE_VALUES(i32, int32_t, i64, int64_t)
DEFINE_VALUES(i64, int64_t, i32, int32_t)
DEFINE_VALUES(i64, int64_t, i64, int64_t)
