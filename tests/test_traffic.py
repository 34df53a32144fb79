import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from proactivenet import analytic as an
from proactivenet import traffic as tr
from proactivenet.sched import BACKLOG_OVERFLOW, PathOverflowError


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
    1e-30 for the windows of `traffic._cdf_window`.

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


class TestPoissonInversion:
    @pytest.mark.parametrize("mu", RATES)
    def test_window_cdf_is_exact(self, mu):
        lo, F = tr._cdf_window(mu)
        assert lo <= mu < lo + F.size
        assert F[-1] == 1.0
        assert np.abs(F - exact_cdf(mu, lo, F.size)).max() <= 1e-12

    @pytest.mark.parametrize("mu", [0.05, 6.4, 25.6, 1e4])
    def test_exact_reference_agrees_with_scipy(self, mu):
        from scipy.stats import poisson

        lo, F = tr._cdf_window(mu)
        k = np.arange(lo, lo + F.size)
        assert np.abs(exact_cdf(mu, lo, F.size) - poisson.cdf(k, mu)).max() <= 1e-14

    @pytest.mark.parametrize("mu", RATES)
    def test_draws_invert_the_exact_cdf(self, mu):
        # each draw is min{k : F(k) > u} for the next uniform of the stream;
        # only a u within 1e-12 of a cdf value may go either way
        n = 10**6
        u = rng(11).random(n)
        got = tr.poisson(rng(11), mu, n)
        lo, F = tr._cdf_window(mu)
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

    def test_mean_beyond_the_backlog_guard_overflows(self):
        with pytest.raises(PathOverflowError):
            tr.poisson(rng(), math.nextafter(BACKLOG_OVERFLOW, math.inf), 3)

    def test_largest_mean_keeps_a_small_table(self):
        lo, F = tr._cdf_window(float(BACKLOG_OVERFLOW))
        assert F.size <= 10**6
        counts = tr.poisson(rng(), float(BACKLOG_OVERFLOW), 10**4)
        z = (counts.mean() - BACKLOG_OVERFLOW) / math.sqrt(BACKLOG_OVERFLOW / 10**4)
        assert abs(z) < 4
