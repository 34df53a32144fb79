import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sched import record, run_configs

from proactivenet import analytic as an
from proactivenet import sched
from proactivenet import traffic as tr


def rng(seed=0):
    return np.random.default_rng(seed)


class TestRegime:
    def test_mean_rate_linear(self):
        assert tr.mean_rate(tr.Regime("linear", 0.8), 20) == pytest.approx(16.0)
        assert tr.mean_rate(tr.Regime("linear", 0.5), 1) == pytest.approx(0.5)

    def test_mean_rate_poly(self):
        assert tr.mean_rate(tr.Regime("poly", 0.5), 100) == pytest.approx(10.0)

    def test_gamma_range_enforced(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(tr.TrafficSpecError):
                tr.Regime("linear", bad)

    def test_unknown_kind(self):
        with pytest.raises(tr.TrafficSpecError):
            tr.Regime("exponential", 0.5)


class TestLookaheadLaw:
    def test_deterministic(self):
        law = tr.LookaheadLaw.deterministic(3)
        assert law.is_deterministic
        assert law.pmf(3) == 1.0
        assert law.cdf(2) == 0.0 and law.cdf(3) == 1.0

    def test_finite_pmf(self):
        law = tr.LookaheadLaw.finite({0: 0.5, 5: 0.5})
        assert law.tmin == 0 and law.tmax == 5
        assert law.pmf(2) == 0.0
        assert law.cdf(4) == pytest.approx(0.5)

    def test_pmf_must_sum_to_one(self):
        with pytest.raises(tr.TrafficSpecError):
            tr.LookaheadLaw.finite({0: 0.5, 1: 0.6})

    def test_binomial(self):
        law = tr.LookaheadLaw.binomial(5, 0.3)
        assert sum(law.probs) == pytest.approx(1.0, abs=1e-12)
        assert law.pmf(0) == pytest.approx(0.7**5)


class TestUnicastSampling:
    def test_deterministic_law_puts_mass_at_T(self):
        counts = tr.unicast_counts(6.0, tr.LookaheadLaw.deterministic(2), rng(), 1000)
        assert counts.shape == (1000, 3)
        assert not counts[:, :2].any() and counts[:, 2].any()

    def test_empirical_mean(self):
        # sample-mean check against lam = 6, 1e5 draws
        counts = tr.unicast_counts(6.0, tr.LookaheadLaw.deterministic(0), rng(1), 10**5)
        m = counts.sum(axis=1).mean()
        sigma = math.sqrt(6.0 / 10**5)
        assert abs(m - 6.0) < 3 * sigma

    def test_split_fraction(self):
        law = tr.LookaheadLaw.finite({0: 0.5, 5: 0.5})
        counts = tr.unicast_counts(6.0, law, rng(2), 10**5)
        tot = counts.sum()
        frac = counts[:, 5].sum() / tot
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / tot)

    def test_seed_determinism(self):
        a = tr.unicast_counts(4.8, tr.LookaheadLaw.binomial(4, 0.4), rng(7), 500)
        b = tr.unicast_counts(4.8, tr.LookaheadLaw.binomial(4, 0.4), rng(7), 500)
        assert np.array_equal(a, b)

    def test_deterministic_T_paired_totals(self):
        # same seed, different window: identical per-slot totals
        a = tr.unicast_counts(3.0, tr.LookaheadLaw.deterministic(1), rng(9), 1000)
        b = tr.unicast_counts(3.0, tr.LookaheadLaw.deterministic(4), rng(9), 1000)
        assert np.array_equal(a.sum(axis=1), b.sum(axis=1))


class TestPredictionError:
    def spec(self, ap=1.0, am=0.2, T=3):
        return tr.PredictionErrorSpec(ap, am, T, tr.Regime("linear", 0.5))

    def test_rates(self):
        assert self.spec().rates(20) == pytest.approx((10.0, 2.0))

    def test_invalid_sum_rejected(self):
        with pytest.raises(tr.TrafficSpecError):
            self.spec(ap=0.5, am=0.2).rates(20)

    def test_alpha_miss_bound(self):
        with pytest.raises(tr.TrafficSpecError):
            self.spec(ap=0.5, am=1.1).rates(20)

    def test_perfect_prediction(self):
        counts = tr.prediction_error_counts(self.spec(ap=1.0, am=0.0), 20, rng(), 1000)
        assert not counts[:, 0].any() and counts[:, 3].any()

    def test_empirical_means(self):
        counts = tr.prediction_error_counts(self.spec(), 20, rng(3), 10**5)
        pred = counts[:, 3].mean()
        miss = counts[:, 0].mean()
        assert abs(pred - 10.0) < 3 * math.sqrt(10.0 / 10**5)
        assert abs(miss - 2.0) < 3 * math.sqrt(2.0 / 10**5)


class TestMulticast:
    def test_source_prob_values(self):
        # a source demanded within a 2-slot window: x_m of the window T = 1
        assert an.x_m(0.9, 15.0, 1).value == pytest.approx(0.113080, abs=1e-6)
        assert tr.MulticastSpec(0.5, 2.0).source_prob() == pytest.approx(0.221199, abs=1e-6)

    def test_num_sources_at_least_one(self):
        assert tr.MulticastSpec(0.5, 0.01).num_sources(10) == 1
        assert tr.MulticastSpec(0.9, 0.7).num_sources(20) == 14

    def test_empirical_presence_mean(self):
        spec = tr.MulticastSpec(0.9, 0.7)
        pres = tr.multicast_presence(spec, 20, rng(4), 10**5)
        L, A = 14, spec.source_prob()
        m = pres.sum(axis=1).mean()
        assert abs(m - L * A) < 3 * math.sqrt(L * A * (1 - A) / 10**5)

    def test_sample_set(self):
        pres = tr.multicast_presence(tr.MulticastSpec(0.9, 0.7), 20, rng(5), 1000)
        assert pres.shape == (1000, 14) and pres.dtype == bool


def test_superposition_total_is_poisson():
    # chi-square on the summed per-lookahead counts vs Poisson(lam)
    from scipy.stats import chisquare, poisson

    law = tr.LookaheadLaw.finite({0: 0.3, 1: 0.3, 2: 0.4})
    lam = 4.0
    counts = tr.unicast_counts(lam, law, rng(6), 10**5)
    totals = counts.sum(axis=1)
    kmax = 14
    obs = np.bincount(np.minimum(totals, kmax), minlength=kmax + 1).astype(float)
    exp = poisson.pmf(np.arange(kmax), lam) * 10**5
    exp = np.append(exp, 10**5 - exp.sum())
    _, p = chisquare(obs, exp)
    assert p > 0.01


PI = "3.14159265358979323846264338327950288419716939937510582097494"


def exact_cdf(mu, lo, m):
    """P(X <= lo + j), j < m, for X ~ Poisson(mu), in 60-digit decimal
    arithmetic, as floats.  The mass below lo is left out: it is below
    1e-30 for the windows of `traffic.poisson_table`.

    The reference for large mu: scipy's Poisson cdf is off by 1.3e-6 at
    mu = 1e8 (against a 40-digit regularized incomplete gamma).
    """
    with localcontext() as ctx:
        ctx.prec = 60
        mu_d = Decimal(mu)
        if lo < 1000:
            log_fact = Decimal(math.factorial(lo)).ln()
        else:  # Stirling's series; the first omitted term is below 1e-30
            n = Decimal(lo)
            log_fact = (
                (n + Decimal("0.5")) * n.ln() - n + (2 * Decimal(PI)).ln() / 2
                + 1 / (12 * n) - 1 / (360 * n**3) + 1 / (1260 * n**5) - 1 / (1680 * n**7)
            )
        p = (lo * mu_d.ln() - mu_d - log_fact).exp()
        total, out = Decimal(0), []
        for k in range(lo, lo + m):
            total += p
            out.append(float(total))
            p = p * mu_d / (k + 1)
    return np.array(out)


RATES = [0.05, 1.0, 6.4, 9.99, 10.0, 25.6, 1e4, 1e8]
# the extremes of the means a table is built for
EXTREMES = [0.0, 1e-300, 2e4, tr.MAX_MEAN]


class TestPoissonInversion:
    @pytest.mark.parametrize("mu", RATES)
    def test_window_cdf_is_exact(self, mu):
        lo, F, _ = tr.poisson_table(mu)
        assert lo <= mu < lo + F.size
        assert F[-1] == 1.0
        assert np.abs(F - exact_cdf(mu, lo, F.size)).max() <= 1e-12

    @pytest.mark.parametrize("mu", RATES)
    def test_guide_table_starts_each_search_at_or_below_its_answer(self, mu):
        # g[b] = min{j : floor(F[j] m) >= b}: the kernel's search for a u in
        # bucket b = floor(u m) starts at g[b] and steps up to its answer
        _, F, g = tr.poisson_table(mu)
        assert np.array_equal(g, np.searchsorted(np.floor(F * F.size), np.arange(F.size)))

    @pytest.mark.parametrize("mu", [0.05, 6.4, 25.6, 1e4])
    def test_exact_reference_agrees_with_scipy(self, mu):
        from scipy.stats import poisson

        lo, F, _ = tr.poisson_table(mu)
        k = np.arange(lo, lo + F.size)
        assert np.abs(exact_cdf(mu, lo, F.size) - poisson.cdf(k, mu)).max() <= 1e-14

    @pytest.mark.parametrize("mu", RATES)
    def test_draws_invert_the_exact_cdf(self, mu):
        # each draw is min{k : F(k) > u} for the next uniform of the stream;
        # only a u within 1e-12 of a cdf value may go either way
        n = 10**6
        u = rng(11).random(n)
        got = tr.poisson(rng(11), mu, n)
        lo, F, _ = tr.poisson_table(mu)
        cdf = exact_cdf(mu, lo, F.size)
        want = lo + np.searchsorted(cdf, u, side="right")
        j = np.clip(np.searchsorted(cdf, u), 1, cdf.size - 1)
        near = np.minimum(np.abs(u - cdf[j - 1]), np.abs(u - cdf[j])) < 1e-12
        print(f"mu = {mu:g}: {near.sum()} of {n} uniforms within 1e-12 of a cdf value skipped")
        assert near.sum() <= 10
        assert np.array_equal(got[~near], want[~near])

    @pytest.mark.parametrize("mu", [0.0, 0.3, 60.0, 1e6])
    def test_one_uniform_per_draw(self, mu):
        a, b = rng(3), rng(3)
        counts = tr.poisson(a, mu, 777)
        b.random(777)
        assert counts.shape == (777,) and counts.dtype == np.int64
        assert a.random() == b.random()

    def test_zero_mean_is_all_zeros(self):
        assert not tr.poisson(rng(), 0.0, 500).any()

    @pytest.mark.parametrize("mu", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_bad_mean_is_refused_as_numpy_does(self, mu):
        with pytest.raises(ValueError):
            rng().poisson(mu, 3)
        g = rng()
        with pytest.raises(ValueError, match="finite and >= 0"):
            tr.poisson(g, mu, 3)
        assert g.random() == rng().random()  # nothing drawn

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(EXTREMES) | st.integers(0, 300) | st.floats(0.0, 1e5),
                    max_size=12), st.randoms(use_true_random=False))
    def test_one_call_gives_each_mean_its_own_table(self, drawn, order):
        # duplicates are built twice, each bit for bit as poisson_table
        # builds its mean alone, back to back in the arenas
        means = drawn + EXTREMES + drawn[:3]
        order.shuffle(means)
        rows, F, g = tr.poisson_tables(means)
        assert rows.shape == (len(means), 5)
        at = 0
        for mu, (column, lo, m, F_at, g_at) in zip(means, rows):
            want_lo, want_F, want_g = tr.poisson_table(mu)
            assert (column, lo, m) == (0, want_lo, want_F.size)
            assert (F_at, g_at) == (F.ctypes.data + 8 * at, g.ctypes.data + 8 * at)
            assert F[at:at + m].tobytes() == want_F.tobytes()
            assert g[at:at + m].tobytes() == want_g.tobytes()
            at += m
        assert at == F.size == g.size

    def test_the_first_refused_mean_raises_before_any_is_built(self):
        with pytest.raises(ValueError, match="got nan"):
            tr.poisson_tables([1.0, math.nan, 2e9])
        with pytest.raises(ValueError, match="2e\\+09 exceeds the largest, 1e\\+09"):
            tr.poisson_tables([1.0, 2e9, -1.0])
        rows, F, g = tr.poisson_tables([])
        assert rows.shape == (0, 5) and F.size == g.size == 0

    def test_mean_beyond_the_largest_is_refused(self):
        g = rng()
        with pytest.raises(ValueError, match="exceeds the largest"):
            tr.poisson(g, math.nextafter(tr.MAX_MEAN, math.inf), 3)
        assert g.random() == rng().random()  # nothing drawn

    def test_largest_mean_keeps_a_small_table(self):
        lo, F, _ = tr.poisson_table(tr.MAX_MEAN)
        assert F.size <= 10**6
        counts = tr.poisson(rng(), tr.MAX_MEAN, 10**4)
        z = (counts.mean() - tr.MAX_MEAN) / math.sqrt(tr.MAX_MEAN / 10**4)
        assert abs(z) < 4


def fresh_demand_outages(u, n, A, capacities, rows=None):
    """Outage slots at each capacity of a multicast path of window 0 over n
    sources, one slot per uniform of u, from path_outages with its records
    written directly.  Every slot finds the n sources idle and draws its
    fresh demand, Binomial(n, A), an outage iff it exceeds C: by the pmf
    walk from p0 of binomial_start (the record's IDLE_P0), or through the
    rows of `traffic.binomial_table` for A (its IDLE)."""
    p0 = np.empty(n + 1)
    sched._kernel().binomial_start(n, A, p0.ctypes.data)
    walk = p0 if rows is None else None
    configs = [record(len(u), C, L=n, idle=rows, p0=walk) for C in capacities]
    return run_configs(u, configs, [(A, 1.0)] * len(configs), 0)[:, 0]


def binomial_draws(u, n, A, rows=None):
    """The kernel's Binomial(n, A) count of each uniform, as a multicast
    path draws its fresh demand from n idle sources: the number of the
    capacities 0..n - 1 at which a one-slot path of that uniform has an
    outage (`fresh_demand_outages`)."""
    return np.array([fresh_demand_outages([x], n, A, range(n), rows).sum() for x in u])


def every_draw_is(u, n, A, v, rows=None):
    """Whether the kernel draws v from every uniform of u: a path of them has
    an outage in every slot at C = v - 1, and in none at C = v."""
    want = [len(u), 0] if v else [0]
    return fresh_demand_outages(u, n, A, [v - 1, v] if v else [v], rows).tolist() == want


def table_rows(tables):
    """(lo, F, g) of each idle count of `traffic.binomial_table` tables,
    read where its row points."""
    rows, F, g = tables
    out = []
    for column, lo, m, f_at, g_at in rows:
        at = (f_at - F.ctypes.data) // 8
        assert column == 0 and g_at == g.ctypes.data + 8 * at
        out.append((lo, F[at:at + m], g[at:at + m]))
    return out


def sized_tables(L, A, cap):
    """(size, rows, F, g) of one compiled binomial_table call under `cap`,
    into arenas of min(cap, (L + 1)(L + 2) / 2) entries, row idle taking at
    most idle + 1: size is above cap iff the tables would take more, and no
    entry past the arenas is written."""
    n = max(0, min(cap, (L + 1) * (L + 2) // 2))
    rows = np.empty((L + 1, 5), np.int64)
    F, g = np.full(n + 8, -1.0), np.full(n + 8, -1, np.int64)
    size = sched._kernel().binomial_table(L, A, cap, F.ctypes.data, g.ctypes.data,
                                          rows.ctypes.data)
    assert (F[n:] == -1.0).all() and (g[n:] == -1).all()
    return size, rows, F[:n], g[:n]


def exact_binomial_cdf(n, A, beyond):
    """P(X <= k) for X ~ Binomial(n, A), k = 0, 1, ... up to the first k where
    it exceeds `beyond`, or n, in 60-digit decimal arithmetic from (1 - A)^n,
    as floats."""
    with localcontext() as ctx:
        ctx.prec = 60
        a = Decimal(A)
        p, total, out = (1 - a) ** n, Decimal(0), []
        for k in range(n + 1):
            total += p
            out.append(float(total))
            if total > Decimal(beyond):
                break
            p = p * (n - k) / (k + 1) * a / (1 - a)
    return np.array(out)


# (idle sources, source probability): no idle source, the fig-multicast
# regime, A near 0 and near 1, both sides of the switch to the window start
# at (1 - A)^n = 1e-300, and n A well beyond 745
BINOMIALS = [
    (0, 0.3), (1, 0.5), (3, 0.5), (120, tr.MulticastSpec(0.9, 15.0).source_prob()),
    (40, 1e-12), (5, 1 - 1e-12), (40, 1 - 1e-12), (1020, 0.49), (1040, 0.49),
    (2000, 0.5), (10**5, 0.01),
]


class TestBinomialInversion:
    @pytest.mark.parametrize("n, A", BINOMIALS)
    def test_draws_invert_the_exact_cdf(self, n, A):
        # each draw is min{k : F(k) > u}; only a u within 1e-12 of a cdf
        # value may go either way
        u = rng(12).random(10**5)
        cdf = exact_binomial_cdf(n, A, u.max())
        want = np.searchsorted(cdf, u, side="right")
        edges = np.concatenate([[-np.inf], cdf, [np.inf]])
        j = np.searchsorted(cdf, u)
        near = np.minimum(u - edges[j], edges[j + 1] - u) < 1e-12
        print(f"n = {n}, A = {A!r}: {near.sum()} of {u.size} uniforms within 1e-12 of a cdf value")
        assert near.sum() <= 10
        # the walk draws each count from every uniform the exact cdf inverts to it
        for v in np.unique(want[~near]):
            assert every_draw_is(u[~near & (want == v)], n, A, v), v

    def test_a_uniform_on_a_cdf_value_draws_the_next_count(self):
        # min{k : F(k) > u}, at the cdf values of Binomial(1, 1/2) and
        # Binomial(2, 1/2), which the kernel computes exactly
        assert binomial_draws([0.5, np.nextafter(0.5, 0)], 1, 0.5).tolist() == [1, 0]
        assert binomial_draws([0.0, 0.25, 0.75, 0.7499], 2, 0.5).tolist() == [0, 1, 2, 1]

    @pytest.mark.parametrize("n", [0, 1, 7, 5000])
    def test_certain_and_impossible_sources(self, n):
        u = rng(13).random(1000)
        assert every_draw_is(u, n, 1.0, n)
        assert every_draw_is(u, n, 0.0, 0)


class TestBinomialTables:
    """A multicast config's draw tables, one per idle count, give the pmf
    walk's counts bit for bit."""

    def test_table_draws_are_the_walks(self):
        # every idle count 0..n of each case that fits the budget, at each
        # stored cdf value and just below it (where a search meets a tie,
        # and the largest uniform below the stop entry), and at random
        # uniforms
        random_u, mode_starts = rng(14).random(64), 0
        for n, A in BINOMIALS:
            tables = tr.binomial_table(n, A)
            if tables is None:
                continue
            for idle, (lo, F, g) in enumerate(table_rows(tables)):
                assert F[-1] == 1.0  # where the walk stops
                m = F.size
                assert np.array_equal(g, [np.argmax(np.floor(F * m) >= b) for b in range(m)])
                u = np.concatenate([F, np.nextafter(F, 0.0), random_u])
                u = u[u < 1.0]
                # both draw min{k : F(k) > u}, F the cdf values the walk sums
                want = lo + np.searchsorted(F, u, side="right")
                for v in np.unique(want):
                    assert every_draw_is(u[want == v], idle, A, v, tables[0]), (n, A, idle)
                    assert every_draw_is(u[want == v], idle, A, v), (n, A, idle)
                mode_starts += lo > 0
        # (40, 1 - 1e-12): (1 - A)^idle < 1e-300 from idle 25 on, so the
        # walk starts below the mode
        assert mode_starts == 16

    def test_tables_beyond_the_budget_are_refused(self):
        fits = {}
        for n, A in BINOMIALS:
            tables = tr.binomial_table(n, A)
            fits[n, A] = tables is not None
            if tables is not None:
                assert sum(a.nbytes for a in tables) <= tr.TABLE_BYTES
                assert tables[0].shape == (n + 1, 5)
        assert [case for case, fit in fits.items() if not fit] == [
            (1020, 0.49), (1040, 0.49), (2000, 0.5), (10**5, 0.01)]
        # fig-multicast's largest, L = 120
        assert tr.binomial_table(120, tr.MulticastSpec(0.9, 15.0).source_prob())[1].size == 3123

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2500),
           st.floats(0.0, 1.0) | st.sampled_from([1e-300, 1e-12, 0.058, 0.49, 1 - 1e-12]),
           st.integers(0, 10**6))
    def test_the_quick_refusal_refuses_only_tables_over_the_cap(self, L, A, cap):
        # binomial_least, with which the fill refuses in O(L), is at most
        # the tables' size: a config whose tables fit is never refused
        lib = sched._kernel()
        size = sized_tables(L, A, 2**62)[0]
        assert L + 1 <= lib.binomial_least(L, A, 2**62) <= size
        # counting and filling stop past the cap, and only there
        assert (lib.binomial_least(L, A, cap) > cap) == (lib.binomial_least(L, A, 2**62) > cap)
        assert (sized_tables(L, A, cap)[0] > cap) == (size > cap)

    @pytest.mark.parametrize("A", [0.3, 0.5, 0.9, 0.99, 0.999])
    def test_the_bound_holds_row_by_row_across_the_cutoff(self, A):
        # least(L) - least(L - 1) is row L's own bound: at most its entries,
        # within 10 % of them where the walk surely starts at count 0
        # (L ln(1 - A) >= -690), and 1 beyond, where a row starts at 0 or
        # (soon) just below its mode and takes far fewer entries
        lib = sched._kernel()
        cut = math.floor(690 / -math.log1p(-A))
        L = cut + 4
        rows = sized_tables(L, A, 2**62)[1]
        assert rows[L, 1] > 0  # the last row starts below its mode
        for n in range(cut - 3, L + 1):
            least = [lib.binomial_least(m, A, 2**62) for m in (n - 1, n)]
            own, entries = least[1] - least[0], rows[n, 2]
            assert own <= entries, (n, own, entries)
            assert own >= 0.9 * entries if n <= cut else own == 1, (n, own, entries)
