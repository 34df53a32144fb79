/* The compiled kernels of proactivenet:
 *
 * serve_slot: one slot of earliest-deadline-first service over the vector c
 *   of pending requests per residual deadline, the model of
 *   proactivenet.sched.serve_path, as one fused pass over c that serves,
 *   expires and shifts, with no library call.  The arithmetic is the
 *   reference slot loop's (serve_path_by_slot in tests/test_sched.py), with
 *   the dynamic cap computed in double as Python does, so that outputs are
 *   bit-identical to it.  Two slot loops feed it a path's arrivals:
 *
 * serve_path: arrivals given as count or presence matrices, for
 *   sched.serve_path, which checks every argument;
 *
 * path_outages: arrivals drawn from the path's uniforms, for sim: one call
 *   takes a path from its uniforms to its post-warm-up outage counts under
 *   each config of a group, each config through a copy of the slot loop
 *   compiled for its policy shape, with no per-slot policy test.
 *
 * poisson_cdf: the Poisson cdf window and guide table through which
 *   path_outages inverts each count, for proactivenet.traffic, which checks
 *   every argument; binomial_start: the table of (1 - A)^idle from which
 *   path_outages starts each multicast fresh-demand draw; binomial_invert:
 *   that draw, for the tests.
 *
 * sched compiles this file with `cc -O2 -shared -fPIC` on first use and
 * loads it through ctypes.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* One slot, once its arrivals are in c[0..T] (total pending in all): the
 * primary is served, then q secondary requests (with `secondary`) from the
 * capacity it leaves, refill hands what is left back to the primary, c[0]
 * expires and c shifts by one slot.  A capped (dynamic) primary serves at
 * most urgent + ceil(f * non-urgent), capped at C.  Under EDF the primary
 * serves exactly min(total, cap), so the secondary's expiry and the refill
 * are known before c is touched: one pass over c serves the primary and the
 * refill in deadline order, takes c[0]'s leftover as expired and shifts c.
 * Sets e[0], e[1] to the expired primary and secondary requests; returns
 * the pending total after the slot. */
static inline int64_t serve_slot(int64_t *c, int64_t T, int64_t total, int64_t C, double f,
                                 int capped, int secondary, int64_t q, int refill, int64_t *e)
{
    int64_t cap = C;
    if (capped) {  /* t + (t < x) is ceil(x), exact for 0 <= x < 2**63 */
        double x = f * (double)(total - c[0]);
        int64_t t = (int64_t)x, want = c[0] + t + ((double)t < x);
        cap = want < C ? want : C;
    }
    int64_t left = total < cap ? total : cap;  /* the primary's service */
    e[1] = 0;
    if (secondary) {
        int64_t spare = C - left;
        e[1] = q > spare ? q - spare : 0;
        if (refill && q < spare)  /* the primary gets spare - q more: C - q */
            left = total < C - q ? total : C - q;
    }
    total -= left;
    int64_t s = c[0] < left ? c[0] : left;
    e[0] = c[0] - s;
    left -= s;
    for (int64_t k = 1; k <= T; k++) {
        s = c[k] < left ? c[k] : left;
        left -= s;
        c[k - 1] = c[k] - s;
    }
    c[T] = 0;
    return total - e[0];
}

/* Multicast fresh demand: the sources present (uniform below A) among the
 * idle ones, read as the first `idle` of the row's uniforms.  The counts are
 * kept in four doubles, exact far beyond any row width, which lets the
 * compiler compare two uniforms per instruction. */
static int64_t present(const double *u, int64_t idle, double A)
{
    double m[4] = {0.0, 0.0, 0.0, 0.0};
    int64_t j = 0;
    for (; j + 4 <= idle; j += 4)
        for (int k = 0; k < 4; k++)
            m[k] += u[j + k] < A ? 1.0 : 0.0;
    int64_t a = (int64_t)(m[0] + m[1] + m[2] + m[3]);
    for (; j < idle; j++)
        a += u[j] < A;
    return a;
}

/* min{k : P(X <= k) > x} for X ~ Binomial(n, A), r = A / (1 - A) and
 * p0 = (1 - A)^n: a walk up the pmf from p(0) = p0 or, where that nears
 * underflow, from where the pmf falls below 1e-40 of the mode's, p there
 * normalised as in poisson_cdf.  The walk ends where p no longer moves F:
 * the mass left out is far under the 2**-53 resolution of x. */
static int64_t binomial(double x, int64_t n, double A, double r, double p0)
{
    if (A >= 1.0)
        return n;
    int64_t k = 0;
    double p = p0;
    if (p < 1e-300) {
        int64_t m = (int64_t)((double)(n + 1) * A);  /* a mode, at most n */
        double s = 1.0, t = 1.0, v = 1.0;
        for (k = m; k > 0 && t > 1e-40; k--)
            s += t *= (double)k / (r * (double)(n - k + 1));
        for (int64_t j = m; j < n && v > 1e-40; j++)
            s += v *= r * (double)(n - j) / (double)(j + 1);
        p = t / s;
    }
    for (double F = p; x >= F && k < n && F + p > F; F += p) {
        p *= r * (double)(n - k) / (double)(k + 1);
        k++;
    }
    return k;
}

/* p0[n] = (1 - A)^n for n = 0..L, binomial's p0 at n idle sources. */
void binomial_start(int64_t L, double A, double *p0)
{
    const double lq = log1p(-A);
    for (int64_t n = 0; n <= L; n++)
        p0[n] = exp((double)n * lq);
}

/* out[i] = binomial(u[i], ...) for count uniforms u[i] and 0 <= A <= 1. */
void binomial_invert(const double *u, int64_t count, int64_t n, double A, int64_t *out)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = binomial(u[i], n, A, A / (1.0 - A), exp((double)n * log1p(-A)));
}

/* lo + min{j : F[j] > x} for a uniform x in [0, 1), with F and its guide
 * table g from poisson_cdf (F non-decreasing, F[m - 1] = 1). */
static int64_t invert(double x, const double *F, const int64_t *g, int64_t lo, int64_t m)
{
    int64_t b = (int64_t)(x * (double)m);
    if (b >= m)  /* x * m rounded up to m */
        b = m - 1;
    int64_t j = g[b];
    j += F[j] <= x;  /* the one step most searches take, without a branch */
    while (F[j] <= x)
        j++;
    return lo + j;
}

/* invert for the stream row r = (column, lo, m, F, g) of path_outages. */
static inline int64_t draw(double x, const int64_t *r)
{
    return invert(x, (const double *)(uintptr_t)r[3], (const int64_t *)(uintptr_t)r[4], r[1],
                  r[2]);
}

/* counts:    (slots, T+1) non-negative arrival counts per look-ahead, or NULL
 *            for multicast;
 * presence:  with counts NULL, (slots, width) source uniforms, a source
 *            present iff its uniform is below A; the fresh demand of a
 *            slot is the present ones among the first width - pending of
 *            its row;
 * secondary: per-slot counts of the all-urgent class, or NULL;
 * c:         T+1 zeroed int64 entries of workspace;
 * expired:   (slots, secondary ? 2 : 1) output, C order.
 * Returns 0, or the 1-based slot whose pending backlog exceeded limit. */
int64_t serve_path(const int64_t *counts, const double *presence, double A, int64_t slots,
                   int64_t width, int64_t T, int64_t C, double f,
                   const int64_t *secondary, int refill, int64_t limit,
                   int64_t *c, int64_t *expired)
{
    const int64_t ncol = secondary ? 2 : 1;
    int64_t total = 0, e[2];
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
            int64_t a = present(presence + n * width, width - total, A);
            c[T] += a;
            total += a;
            if (total > limit)
                return n + 1;
        }
        total = serve_slot(c, T, total, C, f, f < 1.0, secondary != NULL,
                           secondary ? secondary[n] : 0, refill, e);
        expired[n * ncol] = e[0];
        if (secondary)
            expired[n * ncol + 1] = e[1];
    }
    return 0;
}

/* The fields of a config's int64 record in path_outages, in order; its
 * double record is (A, f). */
enum { SLOTS, SOURCES, STREAMS, NPRIMARY, SECONDARY, WINDOW, CAPACITY, LIMIT, WARMUP, IDLE_P0,
       FIELDS };

/* One sample path under one config, from its uniforms to its outage counts.
 * u:         the path's uniforms in the config's draw order: with L > 0
 *            sources, one per slot for its multicast fresh demand, the
 *            Binomial(idle, A) count of binomial over the idle = L - pending
 *            sources, started from p0[idle]; then slots uniforms per Poisson
 *            stream, one per count;
 * stream:    a row (column, lo, m, F, g) per Poisson stream, in draw order,
 *            F and g the addresses of its cdf window and guide table:
 *            nprimary primary streams, whose count invert(u, F, g, lo, m)
 *            lands at look-ahead `column`, then the secondary's if
 *            `secondary`;
 * c:         T+1 int64 entries of workspace;
 * outages:   3 int64 counters, incremented by the slots from `warmup` on in
 *            which a primary, a secondary, or any request expired (left as
 *            they were if the path overflows).
 * multicast, secondary, capped: the config's shape, constants in each copy.
 * Returns 0, or the 1-based slot whose pending backlog exceeded limit.  The
 * backlog is checked once per slot: with the means traffic.poisson_table
 * admits, no count exceeds ~1e9, so total cannot overflow before it. */
static inline __attribute__((always_inline)) int64_t config_outages(
    const double *u, const int64_t *cfg, double A, double f, int64_t *c, int64_t *outages,
    const int multicast, const int secondary, const int capped)
{
    const int64_t slots = cfg[SLOTS], L = cfg[SOURCES], nprimary = cfg[NPRIMARY];
    const int64_t T = cfg[WINDOW], C = cfg[CAPACITY], limit = cfg[LIMIT];
    const int64_t warmup = cfg[WARMUP];
    const int64_t *stream = (const int64_t *)(uintptr_t)cfg[STREAMS];
    const double *p0 = (const double *)(uintptr_t)cfg[IDLE_P0];
    const double *draws = multicast ? u + slots : u;
    const double r = A / (1.0 - A);
    int64_t total = 0, q = 0, e[2], o[3] = {0, 0, 0};
    memset(c, 0, (size_t)(T + 1) * sizeof *c);
    for (int64_t n = 0; n < slots; n++) {
        if (multicast) {
            int64_t a = binomial(u[n], L - total, A, r, p0[L - total]);
            c[T] += a;
            total += a;
        }
        for (int64_t s = 0; s < nprimary; s++) {
            const int64_t *row = stream + 5 * s;
            int64_t a = draw(draws[s * slots + n], row);
            c[row[0]] += a;
            total += a;
        }
        if (total > limit)
            return n + 1;
        if (secondary)
            q = draw(draws[nprimary * slots + n], stream + 5 * nprimary);
        /* pi2, the one two-class multicast policy, refills */
        total = serve_slot(c, T, total, C, f, capped, secondary, q, multicast && secondary, e);
        if (n >= warmup) {
            o[0] += e[0] > 0;
            o[1] += e[1] > 0;
            o[2] += e[0] > 0 || e[1] > 0;
        }
    }
    for (int i = 0; i < 3; i++)
        outages[i] += o[i];
    return 0;
}

/* One sample path of sim under each of the K configs of a group, all
 * reading prefixes of the same uniforms u, each in its own layout.
 * config:    K int64 records of FIELDS entries, the addresses of the
 *            config's stream rows and, with L > 0 sources, of its table
 *            p0[0..L] from binomial_start among them;
 * rate:      K double records (A, f);
 * c:         1 + the largest window's T int64 entries of workspace;
 * outages:   K rows of the 3 counters of config_outages;
 * tripped:   per config, 0 or the 1-based slot whose backlog overflowed.
 * Each config runs a copy of config_outages compiled for its shape: L > 0
 * sources (multicast), a secondary class, and a capped primary (f < 1). */
void path_outages(const double *u, int64_t K, const int64_t *config, const double *rate,
                  int64_t *c, int64_t *outages, int64_t *tripped)
{
    for (int64_t k = 0; k < K; k++) {
        const int64_t *cfg = config + FIELDS * k;
        const double A = rate[2 * k], f = rate[2 * k + 1];
        int64_t *o = outages + 3 * k;
        if (cfg[SOURCES] && cfg[SECONDARY])  /* pi2: its f is 0, so capped */
            tripped[k] = config_outages(u, cfg, A, f, c, o, 1, 1, 1);
        else if (cfg[SOURCES])
            tripped[k] = config_outages(u, cfg, A, f, c, o, 1, 0, 0);
        else if (cfg[SECONDARY] && f < 1.0)
            tripped[k] = config_outages(u, cfg, A, f, c, o, 0, 1, 1);
        else if (cfg[SECONDARY])
            tripped[k] = config_outages(u, cfg, A, f, c, o, 0, 1, 0);
        else
            tripped[k] = config_outages(u, cfg, A, f, c, o, 0, 0, 0);
    }
}

/* F[j] = P(X <= lo + j), j < m, for X ~ Poisson(mu), mu >= 0, over a window
 * [lo, lo + m) that holds floor(mu), and g, its Chen-Asau guide table.
 * The pmf is 1 at floor(mu) and is extended outward by
 * p(k + 1) = p(k) mu / (k + 1), then summed and divided by the window's
 * total: no exp(-mu) is formed, so nothing underflows at large mu, and
 * F[m - 1] = 1 exactly.  The mass outside the window is dropped; the caller
 * makes it negligible.
 * g[b] = min{j : bucket(F[j]) >= b}, bucket(x) = floor(x m), starts each
 * search of invert at or below its answer, since bucket is monotone and
 * bucket(F[answer]) >= bucket(u); a search then takes about one comparison. */
void poisson_cdf(double mu, int64_t lo, int64_t m, double *F, int64_t *g)
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
    const double scale = (double)m;
    for (int64_t b = 0, j = 0; b < m; b++) {
        while ((int64_t)(F[j] * scale) < b)
            j++;
        g[b] = j;
    }
}
