/* The compiled kernels of proactivenet:
 *
 * serve_slot: one slot of earliest-deadline-first service over the vector c
 *   of pending requests per residual deadline, as one fused pass over c
 *   that serves, expires and shifts, with no library call.  The arithmetic
 *   is the reference slot loop's (serve_path_by_slot in
 *   tests/test_sched.py), with the dynamic cap computed in double as Python
 *   does, so that outputs are bit-identical to it.
 *
 * path_outages: the one slot loop, for sim: one call takes a path from its
 *   uniforms to its post-warm-up outage counts under each config of a
 *   group, each config through a copy of the slot loop compiled for its
 *   policy shape, with no per-slot policy test.
 *
 * group_run: path_outages over a group's paths on W workers, the calling
 *   thread and W - 1 helper threads that it starts, with every signal
 *   blocked, and joins before it returns; none of them takes the GIL.
 *   Every worker claims its paths one at a time and fills each path's
 *   uniforms itself, bit for bit as numpy draws them: a copy of numpy's
 *   PCG64 (128-bit LCG, numpy's multiplier, XSL-RR output, each double
 *   (next64 >> 11) * 2**-53), started from the state and increment numpy
 *   seeds for the seed and jumped to the path's block of 2**64 draws, as
 *   sim.path_rng(seed, i).random draws it.  A path's counts so depend on
 *   (seed, path index) alone, not on its worker.
 *
 * Each count is a uniform inverted through a cdf window and its guide table
 * (invert).  poisson_tables builds every Poisson stream's of a group in one
 * call, back to back in one arena, for proactivenet.traffic, which checks
 * every mean (traffic.check_mean) and sets each window.  binomial_table
 * builds a multicast config's, one per idle count, in one pass from the cdf
 * values that binomial's walk sums, so that a table draw is the walk's count
 * bit for bit; a config whose tables would exceed traffic's byte budget
 * draws by the walk itself, which needs no memory.  binomial_least, a lower
 * bound on the tables' entries found in O(L), refuses most such configs
 * before the fill.
 *
 * sched compiles this file with `cc -O2 -shared -fPIC -pthread` on first
 * use and loads it through ctypes.
 */

/* POSIX (sigset_t, pthread_sigmask), also under -std=c99 */
#define _POSIX_C_SOURCE 200809L

#include <math.h>
#include <pthread.h>
#include <signal.h>
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

/* lo + min{j : F[j] > x} for a uniform x in [0, 1), with F a cdf window
 * over [lo, lo + m) and g its guide table (guide; F[m - 1] >= 1). */
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

/* invert for a row (column, lo, m, F, g), F and g the addresses of its cdf
 * window and guide table. */
static inline int64_t draw(double x, const int64_t *r)
{
    return invert(x, (const double *)(uintptr_t)r[3], (const int64_t *)(uintptr_t)r[4], r[1],
                  r[2]);
}

/* g[b] = min{j : bucket(F[j]) >= b}, bucket(x) = floor(x m), the Chen-Asau
 * guide table of F[0..m-1], F[m - 1] >= 1.  It starts each search of invert
 * at or below its answer min{j : F[j] > x}, since bucket is monotone and
 * bucket(F[answer]) >= bucket(x); a search then takes about one
 * comparison. */
static void guide(const double *F, int64_t m, int64_t *g)
{
    const double scale = (double)m;
    for (int64_t b = 0, j = 0; b < m; b++) {
        while ((int64_t)(F[j] * scale) < b)
            j++;
        g[b] = j;
    }
}

/* The start of binomial's walk for X ~ Binomial(n, A), 0 <= A < 1,
 * r = A / (1 - A) and lq = log1p(-A): k = 0 with p(0) = (1 - A)^n or, where
 * that nears underflow, the k below a mode where the pmf falls below 1e-40
 * of the mode's, p there normalised as in poisson_cdf.  Returns k and sets
 * *p to p there. */
static int64_t walk_start(int64_t n, double A, double r, double lq, double *p)
{
    int64_t k = 0;
    *p = exp((double)n * lq);
    if (*p < 1e-300) {
        int64_t m = (int64_t)((double)(n + 1) * A);  /* a mode, at most n */
        double s = 1.0, t = 1.0, v = 1.0;
        for (k = m; k > 0 && t > 1e-40; k--)
            s += t *= (double)k / (r * (double)(n - k + 1));
        for (int64_t j = m; j < n && v > 1e-40; j++)
            s += v *= r * (double)(n - j) / (double)(j + 1);
        *p = t / s;
    }
    return k;
}

/* min{k : P(X <= k) > x} for X ~ Binomial(n, A): a walk up the pmf from
 * walk_start, summing the cdf F.  The walk ends where p no longer moves F:
 * the mass left out is far under the 2**-53 resolution of x. */
static int64_t binomial(double x, int64_t n, double A, double r, double lq)
{
    if (A >= 1.0)
        return n;
    double p;
    int64_t k = walk_start(n, A, r, lq, &p);
    for (double F = p; x >= F && k < n && F + p > F; F += p) {
        p *= r * (double)(n - k) / (double)(k + 1);
        k++;
    }
    return k;
}

/* A lower bound on the entries of binomial_table(L, A, ...), found in O(L).
 * Each row takes at least one.  A row n whose walk starts at count 0
 * ((1 - A)^n >= 1e-300, surely so where n ln(1 - A) >= -690) runs on until
 * its p no longer moves the sum, and a p of pmf >= 2**-52 still moves it
 * (the sum stays below 2).  With a = (n + 1) A, b = (n + 1)(1 - A) and
 * M = floor(a), a mode: Chebyshev's inequality puts 3/4 of the mass within
 * two standard deviations s of the mean, on at most 4 s + 1 counts, and
 * s**2 = n A (1 - A) <= -n ln(1 - A) <= 690, so pmf(M) >= 3/4 / (4 s + 1)
 * >= e**d 2**-52 below; past the mode, step x multiplies the pmf by at
 * least (1 - x/b) / (1 + x/a), so for j <= b/2,
 * ln pmf(M + j) >= ln pmf(M) - j (j + 1) / 2 (1/a + 2/b).  So the walk
 * passes M + j where j (j + 1) / 2 (1/a + 2/b) <= d, and the row takes at
 * least min(M + j + 1, n) + 1 entries.  Stops counting once the count
 * exceeds cap. */
int64_t binomial_least(int64_t L, double A, int64_t cap)
{
    const double lq = -log1p(-A);
    const double d = 52.0 * log(2.0) + log(0.75) - log(4.0 * sqrt(690.0) + 1.0);
    int64_t at = L + 1;
    for (int64_t n = 0; A < 1.0 && n <= L && (double)n * lq <= 690.0 && at <= cap; n++) {
        const double a = (double)(n + 1) * A, b = (double)(n + 1) * (1.0 - A);
        int64_t j = (int64_t)((sqrt(1.0 + 8.0 * d * a * b / (b + 2.0 * a)) - 1.0) / 2.0);
        if (j > (int64_t)(b / 2.0))
            j = (int64_t)(b / 2.0);
        const int64_t past = (int64_t)a + j + 1;
        at += past < n ? past : n;
    }
    return at;
}

/* The draw tables of binomial for n = 0..L idle sources, 0 <= A <= 1:
 * row n = (0, lo, m, F + at, g + at) for the walk at n, which starts at
 * count lo.  F[at + j] is the cdf the walk has summed at count lo + j, for
 * each count it may pass, and 1.0 at the count where it stops whatever x is
 * (n, or where p no longer moves F); g[at..at+m-1] is its guide table.  So
 * draw(x, row + 5n) = binomial(x, n, ...) for every x in [0, 1).
 * F and g hold min(cap, (L + 1)(L + 2) / 2) entries, row n at most n + 1.
 * Returns the entries the tables take, or a count above cap once they would
 * take more, writing nothing past F[cap - 1]. */
int64_t binomial_table(int64_t L, double A, int64_t cap, double *F, int64_t *g, int64_t *row)
{
    const double r = A / (1.0 - A), lq = log1p(-A);
    int64_t at = 0;
    for (int64_t n = 0; n <= L; n++) {
        double p = 1.0, s;
        int64_t lo = A >= 1.0 ? n : walk_start(n, A, r, lq, &p), k = lo;
        for (s = p; k < n && s + p > s && at + k - lo < cap; s += p) {
            F[at + k - lo] = s;
            p *= r * (double)(n - k) / (double)(k + 1);
            k++;
        }
        const int64_t m = k - lo + 1;
        if (at + m > cap)
            return at + m;
        F[at + m - 1] = 1.0;
        guide(F + at, m, g + at);
        int64_t *w = row + 5 * n;
        w[0] = 0;
        w[1] = lo;
        w[2] = m;
        w[3] = (int64_t)(uintptr_t)(F + at);
        w[4] = (int64_t)(uintptr_t)(g + at);
        at += m;
    }
    return at;
}

/* The fields of a config's int64 record in path_outages, in order; its
 * double record is (A, f). */
enum { SLOTS, SOURCES, STREAMS, NPRIMARY, SECONDARY, WINDOW, CAPACITY, WARMUP, IDLE, FIELDS };

/* One sample path under one config, from its uniforms to its outage counts.
 * u:         the path's uniforms in the config's draw order: with L > 0
 *            sources, one per slot for its multicast fresh demand, the
 *            Binomial(idle, A) count of binomial over the idle = L - pending
 *            sources, drawn through row idle of the config's binomial_table
 *            or, without one, by binomial's walk; then slots uniforms per
 *            Poisson stream, one per count;
 * stream:    a row (column, lo, m, F, g) per Poisson stream, in draw order,
 *            F and g the addresses of its cdf window and guide table:
 *            nprimary primary streams, whose count invert(u, F, g, lo, m)
 *            lands at look-ahead `column`, then the secondary's if
 *            `secondary`;
 * c:         T+1 int64 entries of workspace;
 * outages:   3 int64 counters, incremented by the slots from `warmup` on in
 *            which a primary, a secondary, or any request expired.
 * multicast, secondary, capped: the config's shape, constants in each copy.
 * A request expires within T + 1 slots, so total never exceeds the arrivals
 * of the last T + 1 slots: L with L > 0 sources, else at most T + 1 times the
 * largest counts of the primary streams' cdf windows, which sim.SimConfig
 * keeps below 2**62, and L below 2**53, where binomial's doubles count
 * exactly.  So no count overflows. */
static inline __attribute__((always_inline)) void config_outages(
    const double *u, const int64_t *cfg, double A, double f, int64_t *c, int64_t *outages,
    const int multicast, const int secondary, const int capped)
{
    const int64_t slots = cfg[SLOTS], L = cfg[SOURCES], nprimary = cfg[NPRIMARY];
    const int64_t T = cfg[WINDOW], C = cfg[CAPACITY], warmup = cfg[WARMUP];
    const int64_t *stream = (const int64_t *)(uintptr_t)cfg[STREAMS];
    const int64_t *idle = (const int64_t *)(uintptr_t)cfg[IDLE];
    const double *draws = multicast ? u + slots : u;
    const double r = A / (1.0 - A), lq = log1p(-A);
    int64_t total = 0, q = 0, e[2], o[3] = {0, 0, 0};
    memset(c, 0, (size_t)(T + 1) * sizeof *c);
    for (int64_t n = 0; n < slots; n++) {
        if (multicast) {
            int64_t a = idle ? draw(u[n], idle + 5 * (L - total))
                             : binomial(u[n], L - total, A, r, lq);
            c[T] += a;
            total += a;
        }
        for (int64_t s = 0; s < nprimary; s++) {
            const int64_t *row = stream + 5 * s;
            int64_t a = draw(draws[s * slots + n], row);
            c[row[0]] += a;
            total += a;
        }
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
}

/* One sample path of sim under each of the K configs of a group, all
 * reading prefixes of the same uniforms u, each in its own layout.
 * config:    K int64 records of FIELDS entries, the addresses of the
 *            config's stream rows and, with L > 0 sources, of the rows of
 *            its binomial_table (0 for the walk) among them;
 * rate:      K double records (A, f);
 * c:         1 + the largest window's T int64 entries of workspace;
 * outages:   K rows of the 3 counters of config_outages.
 * Each config runs a copy of config_outages compiled for its shape: L > 0
 * sources (multicast), a secondary class, and a capped primary (f < 1). */
void path_outages(const double *u, int64_t K, const int64_t *config, const double *rate,
                  int64_t *c, int64_t *outages)
{
    for (int64_t k = 0; k < K; k++) {
        const int64_t *cfg = config + FIELDS * k;
        const double A = rate[2 * k], f = rate[2 * k + 1];
        int64_t *o = outages + 3 * k;
        if (cfg[SOURCES] && cfg[SECONDARY])  /* pi2: its f is 0, so capped */
            config_outages(u, cfg, A, f, c, o, 1, 1, 1);
        else if (cfg[SOURCES])
            config_outages(u, cfg, A, f, c, o, 1, 0, 0);
        else if (cfg[SECONDARY] && f < 1.0)
            config_outages(u, cfg, A, f, c, o, 0, 1, 1);
        else if (cfg[SECONDARY])
            config_outages(u, cfg, A, f, c, o, 0, 1, 0);
        else
            config_outages(u, cfg, A, f, c, o, 0, 0, 0);
    }
}

/* numpy's PCG64: a 128-bit LCG under numpy's multiplier, each draw the
 * XSL-RR output of the stepped state.  The state is GNU C's 128-bit integer
 * (gcc and clang); __extension__ keeps it legal under -std=c99 -pedantic. */
__extension__ typedef unsigned __int128 u128;
#define PCG_MULT (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

/* A group of sim's paths: path_outages under the K configs of a group for
 * each of the n path indices paths[0..n-1], in any order, repeats allowed,
 * each path jumped to from the seed state.
 * seed:      the state and increment of the seed's PCG64, as numpy seeds it,
 *            high words first: (state >> 64, state mod 2**64, inc >> 64,
 *            inc mod 2**64);
 * u[w]:      worker w's fill doubles, overwritten with each of its paths'
 *            uniforms: path i is the block of 2**64 draws from the seed
 *            state's i * 2**64-th, reached by the LCG's jump (Brown, "Random
 *            number generation with arbitrary strides"), each uniform
 *            (next64 >> 11) * 2**-53 as numpy's Generator.random draws it;
 * c[w]:      worker w's workspace of path_outages;
 * outages:   n rows of path_outages' K counters, row j for paths[j]. */
struct job {
    u128 state, inc, block, plus;  /* block, plus: the LCG's step of 2**64 draws */
    const uint64_t *paths;
    int64_t n, fill, K;
    double *const *u;
    int64_t *const *c;
    const int64_t *config;
    const double *rate;
    int64_t *outages;
};

/* Worker w's share of the job: it claims the next unserved path from *next
 * until none is left, fills the path's uniforms and serves it. */
static void serve_claims(const struct job *job, int64_t *next, int64_t w)
{
    double *u = job->u[w];
    const int64_t K = job->K;
    for (int64_t j; (j = __atomic_fetch_add(next, 1, __ATOMIC_RELAXED)) < job->n;) {
        u128 am = 1, ap = 0, m = job->block, p = job->plus;
        for (uint64_t i = job->paths[j]; i; i >>= 1) {
            if (i & 1) {
                am *= m;
                ap = ap * m + p;
            }
            p *= m + 1;
            m *= m;
        }
        u128 s = am * job->state + ap;
        for (int64_t k = 0; k < job->fill; k++) {
            s = s * PCG_MULT + job->inc;
            const uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
            const unsigned rot = (unsigned)(s >> 122);
            u[k] = (double)((x >> rot | x << (-rot & 63)) >> 11) * (1.0 / 9007199254740992.0);
        }
        path_outages(u, K, job->config, job->rate, job->c[w], job->outages + 3 * K * j);
    }
}

/* The claim counter owns a 128-byte block (the pair of cache lines
 * adjacent-line prefetch fetches), so that the per-path claims touch
 * nothing else. */
struct group {
    struct { int64_t next; } __attribute__((aligned(128))) claim;
    struct job job;
};

struct helper { pthread_t id; struct group *group; int64_t w; };

static void *helper_main(void *arg)
{
    const struct helper *h = arg;
    serve_claims(&h->group->job, &h->group->claim.next, h->w);
    return NULL;
}

/* Serves the job (struct job) on W workers, the calling thread worker 0,
 * and returns once every path is served and the helpers joined.  u and c
 * hold a pointer per worker.  The helpers block every signal, so that a
 * signal to the process lands on the calling thread.  A helper that cannot
 * be started leaves fewer workers, which changes no count. */
void group_run(int64_t W, const uint64_t *seed, const uint64_t *paths, int64_t n,
               double *const *u, int64_t fill, int64_t K, const int64_t *config,
               const double *rate, int64_t *const *c, int64_t *outages)
{
    struct group g = {.claim = {0},
                      .job = {.state = (u128)seed[0] << 64 | seed[1],
                              .inc = (u128)seed[2] << 64 | seed[3], .block = PCG_MULT,
                              .paths = paths, .n = n, .fill = fill, .K = K, .u = u, .c = c,
                              .config = config, .rate = rate, .outages = outages}};
    g.job.plus = g.job.inc;
    for (int b = 0; b < 64; b++) {
        g.job.plus *= g.job.block + 1;
        g.job.block *= g.job.block;
    }
    struct helper helper[W > 1 ? W - 1 : 1];
    int64_t helpers = 0;
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    for (struct helper *h = helper; helpers < W - 1; h++, helpers++) {
        h->group = &g;
        h->w = 1 + helpers;
        if (pthread_create(&h->id, NULL, helper_main, h))
            break;
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    serve_claims(&g.job, &g.claim.next, 0);
    for (int64_t w = 0; w < helpers; w++)
        pthread_join(helper[w].id, NULL);
}

/* F[j] = P(X <= lo + j), j < m, for X ~ Poisson(mu), mu >= 0, over a window
 * [lo, lo + m) that holds floor(mu), and g, its guide table.
 * The pmf is 1 at floor(mu) and is extended outward by
 * p(k + 1) = p(k) mu / (k + 1), then summed and divided by the window's
 * total: no exp(-mu) is formed, so nothing underflows at large mu, and
 * F[m - 1] = 1 exactly.  The mass outside the window is dropped; the caller
 * makes it negligible. */
static void poisson_cdf(double mu, int64_t lo, int64_t m, double *F, int64_t *g)
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
    guide(F, m, g);
}

/* The tables of n Poisson means, back to back in one cdf arena F and one
 * guide arena g: row i = (column, lo, m, F, g) of mean mu[i] arrives with
 * its window [lo, lo + m) set, and leaves with its poisson_cdf and guide
 * table filled at the arenas' next m entries, their addresses in the row,
 * and 0 as its column. */
void poisson_tables(int64_t n, const double *mu, int64_t *row, double *F, int64_t *g)
{
    for (int64_t i = 0; i < n; i++, row += 5) {
        poisson_cdf(mu[i], row[1], row[2], F, g);
        row[0] = 0;
        row[3] = (int64_t)(uintptr_t)F;
        row[4] = (int64_t)(uintptr_t)g;
        F += row[2];
        g += row[2];
    }
}
