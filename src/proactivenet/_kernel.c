/* The compiled kernels of proactivenet:
 *
 * serve_path: the slot loop of proactivenet.sched.serve_path, earliest-
 *   deadline-first service of one sample path over the vector c of pending
 *   requests per residual deadline.  sched.serve_path documents the model
 *   and checks every argument.  The arithmetic is the reference slot loop's
 *   (serve_path_by_slot in tests/test_sched.py), with the dynamic cap
 *   computed in double as Python does, so that outputs are bit-identical
 *   to it.
 *
 * poisson_cdf, poisson_invert: Poisson counts by inversion of the cdf, one
 *   uniform per count, for proactivenet.traffic.poisson, which checks every
 *   argument.
 *
 * sched compiles this file with `cc -O2 -shared -fPIC` on first use and
 * loads it through ctypes.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
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

/* F[j] = P(X <= lo + j), j < m, for X ~ Poisson(mu), mu > 0, over a window
 * [lo, lo + m) that holds floor(mu).  The pmf is 1 at floor(mu) and is
 * extended outward by p(k + 1) = p(k) mu / (k + 1), then summed and divided
 * by the window's total: no exp(-mu) is formed, so nothing underflows at
 * large mu, and F[m - 1] = 1 exactly.  The mass outside the window is
 * dropped; the caller makes it negligible. */
void poisson_cdf(double mu, int64_t lo, int64_t m, double *F)
{
    int64_t mode = (int64_t)mu - lo;
    F[mode] = 1.0;
    for (int64_t j = mode + 1; j < m; j++)
        F[j] = F[j - 1] * mu / (double)(lo + j);
    for (int64_t j = mode; j > 0; j--)
        F[j - 1] = F[j] * (double)(lo + j) / mu;
    double s = 0.0;
    for (int64_t j = 0; j < m; j++) {
        s += F[j];
        F[j] = s;
    }
    for (int64_t j = 0; j < m; j++)
        F[j] /= s;
}

/* out[i] = lo + min{j : F[j] > u[i]} for n uniforms u[i] in [0, 1), with F
 * from poisson_cdf (non-decreasing, F[m - 1] = 1).  A Chen-Asau guide table
 * g[b] = min{j : bucket(F[j]) >= b}, bucket(x) = floor(x m), starts each
 * search at or below its answer, since bucket is monotone and
 * bucket(F[answer]) >= bucket(u); a search then takes about one comparison.
 * Returns 0, or -1 when the guide table cannot be allocated. */
int poisson_invert(const double *u, int64_t n, const double *F, int64_t lo, int64_t m,
                   int64_t *out)
{
    int64_t *g = malloc((size_t)m * sizeof *g);
    if (!g)
        return -1;
    const double scale = (double)m;
    for (int64_t b = 0, j = 0; b < m; b++) {
        while ((int64_t)(F[j] * scale) < b)
            j++;
        g[b] = j;
    }
    for (int64_t i = 0; i < n; i++) {
        const double x = u[i];
        int64_t b = (int64_t)(x * scale);
        if (b >= m)  /* x * m rounded up to m */
            b = m - 1;
        int64_t j = g[b];
        while (F[j] <= x)
            j++;
        out[i] = lo + j;
    }
    free(g);
    return 0;
}
