/* The slot loop of proactivenet.sched.serve_path: earliest-deadline-first
 * service of one sample path over the vector c of pending requests per
 * residual deadline.  sched.serve_path documents the model and checks every
 * argument; it compiles this file with `cc -O2 -shared -fPIC` on first use
 * and loads it through ctypes.
 *
 * The arithmetic is the reference slot loop's (serve_path_by_slot in
 * tests/test_sched.py), with the dynamic cap computed in double as Python
 * does, so that outputs are bit-identical to it.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Serve up to cap requests of c[0..T] in deadline order; return the count. */
static int64_t edf(int64_t *c, int64_t T, int64_t cap)
{
    int64_t left = cap;
    for (int64_t k = 0; k <= T; k++) {
        if (c[k] >= left) {
            c[k] -= left;
            return cap;
        }
        left -= c[k];
        c[k] = 0;
    }
    return cap - left;
}

/* counts:    (slots, T+1) non-negative arrival counts per look-ahead, or NULL
 *            for multicast;
 * presence:  with counts NULL, a (slots, width) 0/1 source-presence matrix;
 *            the fresh demand of a slot is the present sources among the
 *            first width - pending columns of its row;
 * f:         the dynamic primary serves at most urgent + ceil(f * non-urgent),
 *            capped at C, when f < 1;
 * secondary: per-slot counts of the all-urgent class, or NULL;
 * c:         T+1 zeroed int64 entries of workspace;
 * expired:   (slots, secondary ? 2 : 1) zeroed output, C order.
 * Returns 0, or the 1-based slot whose pending backlog exceeded limit. */
int64_t serve_path(const int64_t *counts, const uint8_t *presence, int64_t slots,
                   int64_t width, int64_t T, int64_t C, double f,
                   const int64_t *secondary, int refill, int64_t limit,
                   int64_t *c, int64_t *expired)
{
    const int dynamic = f < 1.0, ncol = secondary ? 2 : 1;
    int64_t total = 0;
    for (int64_t n = 0; n < slots; n++) {
        if (counts) {
            const int64_t *row = counts + n * (T + 1);
            for (int64_t k = 0; k <= T; k++) {
                if (row[k] > limit - total)  /* total > limit, without overflow */
                    return n + 1;
                c[k] += row[k];
                total += row[k];
            }
        } else {
            const uint8_t *row = presence + n * width;
            int64_t a = 0, j = 0, idle = width - total;
            for (; j + 8 <= idle; j += 8) {
                /* 8 bytes at a time: each is 0 or 1, so the product's top
                 * byte is their sum */
                uint64_t w;
                memcpy(&w, row + j, 8);
                a += (int64_t)((w * 0x0101010101010101u) >> 56);
            }
            for (; j < idle; j++)
                a += row[j];
            c[T] += a;
            total += a;
            if (total > limit)
                return n + 1;
        }
        int64_t cap = C;
        if (dynamic) {
            int64_t want = c[0] + (int64_t)ceil(f * (double)(total - c[0]));
            if (want < C)
                cap = want;
        }
        int64_t served;
        if (total <= cap) {
            served = total;
            memset(c, 0, (size_t)(T + 1) * sizeof *c);
        } else {
            served = edf(c, T, cap);
        }
        total -= served;
        if (secondary) {
            int64_t q = secondary[n], spare = C - served;
            if (q > spare)
                expired[n * ncol + 1] = q - spare;
            else if (refill && total && q < spare)
                total -= edf(c, T, spare - q);
        }
        if (!total)
            continue;  /* c is all zero: nothing expires or shifts */
        if (c[0]) {
            expired[n * ncol] = c[0];
            total -= c[0];
        }
        memmove(c, c + 1, (size_t)T * sizeof *c);
        c[T] = 0;
    }
    return 0;
}
