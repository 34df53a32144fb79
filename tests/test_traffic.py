import math

import numpy as np
import pytest

from proactivenet import analytic as an
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
