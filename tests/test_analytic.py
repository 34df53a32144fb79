import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import poisson as sp_poisson

from proactivenet import analytic as an
from proactivenet.analytic import (
    BoundValue,
    chernoff_exponent,
    binomial_term,
    crossover_window,
    div_multicast_nonpred,
    div_multicast_pred,
    div_nonpred,
    div_pred_det,
    div_pred_rand,
    div_secondary_dynamic,
    div_secondary_nonpred,
    poisson_tail,
    poisson_term,
    prediction_error_gain,
    prediction_error_terms,
    scenario_bounds,
    source_demand_prob,
    v_star,
    x_m,
    y1_root,
    y2_root,
    y4_root,
    y_bar,
)
from proactivenet.traffic import LookaheadLaw, PredictionErrorSpec, Regime

LIN = lambda g: Regime("linear", g)
POLY = lambda g: Regime("poly", g)


def tail_50_digits(lam: float, k: int) -> float:
    """P(Poisson(lam) > k) in 50-digit arithmetic: the pmf summed from
    j = k + 1 upward, or below the mean 1 minus the pmf summed from j = k
    downward, until a term is below 1e-30 of the sum."""
    with mpmath.workdps(50):
        x = mpmath.mpf(lam)
        j = k + 1 if k + 1 >= lam else k
        term = mpmath.exp(j * mpmath.log(x) - x - mpmath.loggamma(j + 1))
        total = mpmath.mpf(0)
        while term >= total * mpmath.mpf("1e-30") and j >= 0:
            total += term
            if k + 1 >= lam:
                j += 1
                term *= x / j
            else:
                term *= j / x
                j -= 1
        return float(total if k + 1 >= lam else 1 - total)


class TestPoissonTail:
    def test_frozen(self):
        assert poisson_tail(2.0, 4) == pytest.approx(0.052653017343711125, rel=1e-12, abs=0)
        assert poisson_tail(4.0, 4) == pytest.approx(0.3711630648201261, rel=1e-12, abs=0)

    def test_matches_scipy_sf(self):
        for lam in (0.3, 1.0, 5.5, 20.0):
            for k in (0, 1, 3, 10, 30):
                assert poisson_tail(lam, k) == pytest.approx(
                    sp_poisson.sf(k, lam), rel=1e-10, abs=1e-300
                )

    def test_far_below_the_mean(self):
        # the first upward term exp(log pmf(k+1)) underflows here
        assert poisson_tail(1e4, 10) == 1.0
        assert poisson_tail(1e3, 600) == pytest.approx(1.0, rel=1e-12, abs=0)

    @given(st.floats(-3.0, 4.0), st.floats(0.0, 1.0))
    def test_matches_scipy_sf_everywhere(self, log_lam, u):
        lam = 10.0**log_lam
        k = int(u * (lam + 40 * math.sqrt(lam) + 50))
        sf = sp_poisson.sf(k, lam)
        if sf >= 1e-300:
            assert poisson_tail(lam, k) == pytest.approx(sf, rel=1e-9, abs=0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-3.0, math.log10(2e4)), st.floats(0.0, 1.0))
    def test_matches_50_digit_tail_everywhere(self, log_lam, u):
        lam = min(10.0**log_lam, 2e4)
        k = int(u * (lam + 40 * math.sqrt(lam) + 50))
        ref = tail_50_digits(lam, k)
        if ref >= 1e-300:
            assert poisson_tail(lam, k) == pytest.approx(ref, rel=1e-11, abs=0)

    @pytest.mark.parametrize("k", [1, 2, 15, 16, 17, 100, 1000, 20000])
    def test_stirling_error(self, k):
        # an absolute error in log k! is the pmf's relative error
        with mpmath.workdps(50):
            ref = (mpmath.loggamma(k + 1) - (k + mpmath.mpf(0.5)) * mpmath.log(k) + k
                   - mpmath.log(2 * mpmath.pi) / 2)
        assert abs(an._stirlerr(k) - float(ref)) <= 2e-16

    # P(Poisson(lam) > k) to 25 digits, from 60-digit sums of the pmf
    REFERENCES = {
        (5000.0, 5600): 3.952387246310452343005439e-17,
        (20000.0, 20500): 2.112351601958214078915645e-4,
        (1.0, 150): 4.292414725256941271516207e-266,
        (100.0, 600): 5.864818925791670222757415e-253,
    }

    @pytest.mark.parametrize("lam,k", sorted(REFERENCES))
    def test_matches_high_precision_references(self, lam, k):
        # a log-space series from the (k+1)-term missed (5000, 5600) by 3.1e-12
        assert poisson_tail(lam, k) == pytest.approx(self.REFERENCES[lam, k], rel=1e-12, abs=0)

    def test_refuses_a_rate_beyond_the_verified_range(self):
        assert poisson_tail(2e4, 20500) > 0.0
        with pytest.raises(ValueError, match=r"verified for 0 <= lam <= 2e4 only"):
            poisson_tail(math.nextafter(2e4, math.inf), 20500)

    def test_deep_tail_positive(self):
        p = poisson_tail(1.0, 150)
        assert 0.0 < p < 1e-200
        # one extra term is a strict but tiny increase
        assert poisson_tail(1.0, 151) < p

    def test_edge_cases(self):
        assert poisson_tail(0.0, 3) == 0.0
        with pytest.raises(ValueError):
            poisson_tail(-1.0, 3)
        with pytest.raises(ValueError):
            poisson_tail(1.0, -1)


class TestChernoff:
    def test_poisson_matches_closed_form(self):
        for g in (0.2, 0.5, 0.8, 0.95):
            assert chernoff_exponent([poisson_term(g)], 1.0) == pytest.approx(
                g - 1.0 - math.log(g), abs=1e-12
            )

    def test_threshold_at_or_below_mean(self):
        assert chernoff_exponent([poisson_term(2.0)], 2.0) == 0.0
        assert chernoff_exponent([poisson_term(2.0)], 1.0) == 0.0

    def test_binomial_saturation(self):
        assert math.isinf(chernoff_exponent([binomial_term(2.0, 0.3)], 2.0))
        assert chernoff_exponent([binomial_term(2.0, 0.3)], 1.5) > 0.0

    def test_scale(self):
        base = chernoff_exponent([poisson_term(0.5)], 1.0)
        assert chernoff_exponent([poisson_term(0.5)], 1.0, scale=4.0) == pytest.approx(
            base / 4.0
        )

    @staticmethod
    def brentq_exponent(terms, threshold):
        """The optimizer by scipy's brentq on the same bracket."""

        def g(r):
            return an._cumulants(terms, r)[1] - threshold

        hi = 1.0
        while g(hi) < 0.0:
            hi *= 2.0
        r = brentq(g, 0.0, hi, xtol=1e-14, rtol=1e-15)
        return threshold * r - an._cumulants(terms, r)[0]

    TERMS = st.lists(
        st.one_of(
            st.builds(poisson_term, st.floats(0.01, 100.0), st.floats(0.2, 3.0)),
            st.builds(binomial_term, st.floats(0.5, 40.0), st.floats(0.01, 0.9),
                      st.floats(0.2, 3.0)),
        ),
        min_size=1, max_size=4,
    )

    @settings(max_examples=300, deadline=None)
    @given(TERMS, st.floats(0.05, 0.95))
    def test_matches_brentq(self, terms, u):
        mean = an._cumulants(terms, 0.0)[1]
        sup = sum(math.inf if t[0] == "poisson" else t[1] * t[3] for t in terms)
        threshold = mean + u * (min(sup, 4.0 * mean + 10.0) - mean)
        assert chernoff_exponent(terms, threshold) == pytest.approx(
            self.brentq_exponent(terms, threshold), rel=1e-12, abs=0
        )

    @given(TERMS, st.floats(0.0, 1.0))
    def test_no_deviation_and_saturation_are_exact(self, terms, u):
        mean = an._cumulants(terms, 0.0)[1]
        assert chernoff_exponent(terms, u * mean) == 0.0
        binomials = [t for t in terms if t[0] == "binomial"]
        if binomials:
            sup = sum(t[1] * t[3] for t in binomials)
            assert chernoff_exponent(binomials, sup * (1.0 + u)) == math.inf

    def test_tail_agreement(self):
        # the bound P <= e^{-C e} makes the exact decay rate at least e
        lam, C = 0.5, 30
        e = chernoff_exponent([poisson_term(lam)], 1.0)
        assert -math.log(poisson_tail(lam * C, C)) / C >= e - 1e-12


class TestSingleClass:
    def test_nonpred_frozen(self):
        assert div_nonpred(LIN(0.8)).value == pytest.approx(0.023143551314209754)
        assert div_nonpred(POLY(0.8)).value == pytest.approx(0.2)
        assert div_nonpred(LIN(0.5), gamma=0.8).value == pytest.approx(
            div_nonpred(LIN(0.8)).value
        )

    def test_nonpred_rejects_bad_gamma(self):
        for g in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                div_nonpred(LIN(0.5), gamma=g)

    def test_pred_det_frozen(self):
        lo, up = div_pred_det(LIN(0.8), 0.8, 2)
        assert lo.value == pytest.approx(0.06943065394262926)
        assert up.value == pytest.approx(1.7652675199469583)
        assert lo.kind == "lower" and up.kind == "upper"

    def test_pred_det_window_zero_collapses(self):
        lo, up = div_pred_det(LIN(0.7), 0.7, 0)
        assert lo.value == pytest.approx(up.value)
        assert lo.value == pytest.approx(div_nonpred(LIN(0.7)).value)

    def test_pred_det_poly_exact(self):
        lo, up = div_pred_det(POLY(0.8), 0.8, 4)
        assert lo == up
        assert lo.value == pytest.approx(1.0) and lo.kind == "exact"

    def test_pred_det_bracket_order(self):
        for T in range(6):
            lo, up = div_pred_det(LIN(0.6), 0.6, T)
            assert lo.value <= up.value + 1e-12

    def test_v_star_matches_exponent_optimizer(self):
        law = LookaheadLaw.binomial(5, 0.9)
        g = 0.6
        terms = []
        for k in range(law.tmin, law.tmax):
            s = sum(law.cdf(j) for j in range(law.tmin, k + 1))
            terms.append(chernoff_exponent([poisson_term(g * s)], float(k + 1)))
        assert v_star(g, law).value == pytest.approx(min(terms), abs=1e-10)
        assert v_star(g, law).value == pytest.approx(9.367053583800185)

    def test_pred_rand(self):
        law = LookaheadLaw.binomial(5, 0.9)
        val = div_pred_rand(LIN(0.6), 0.6, law)
        assert val.value == pytest.approx(0.6649537425959442)
        assert val.kind == "lower"
        assert val.value <= (law.tmax + 1) * div_nonpred(LIN(0.6)).value + 1e-12
        assert val.value <= v_star(0.6, law).value + 1e-12

    def test_pred_rand_poly(self):
        law = LookaheadLaw.binomial(3, 0.5)
        assert div_pred_rand(POLY(0.4), 0.4, law).value == pytest.approx(
            (law.tmin + 1) * 0.6
        )

    def test_pred_rand_rejects_deterministic_law(self):
        with pytest.raises(ValueError):
            div_pred_rand(LIN(0.6), 0.6, LookaheadLaw.deterministic(3))


class TestTwoClass:
    def test_frozen(self):
        lo, up = div_secondary_nonpred(0.6, 0.1, LIN(0.6))
        assert lo.value == pytest.approx(0.0566749439387324)
        assert up.value == pytest.approx(0.1108256237659907)

    def test_poly_independent_of_secondary(self):
        for gs in (0.01, 0.1, 0.3):
            lo, up = div_secondary_nonpred(0.75, gs, POLY(0.75))
            assert lo.value == up.value == pytest.approx(0.25)

    def test_rejects_bad_loads(self):
        with pytest.raises(ValueError):
            div_secondary_nonpred(0.1, 0.6, LIN(0.6))
        with pytest.raises(ValueError):
            div_secondary_nonpred(0.7, 0.4, LIN(0.7))

    def test_y_bar_root(self):
        c = y_bar(0.6, 0.1)
        y = c.value
        assert y > 1.0
        assert 0.1 * y * y + 0.6 * y - 1.0 == pytest.approx(0.0, abs=1e-14)

    def test_y_bar_small_secondary_load(self):
        # -gp + sqrt(gp^2 + 4 gs) cancels as gs -> 0; 40-digit mpmath root
        y = y_bar(0.6, 1e-9).value
        assert y == pytest.approx(1.666666662037037124436257588765, rel=1e-14, abs=0)

    def test_dynamic_frozen_and_cross_checked(self):
        val = div_secondary_dynamic(0.6, 0.02, LIN(0.6)).value
        assert val == pytest.approx(0.18892578823556572)
        # same exponent from the two-component optimizer: urgent secondary
        # load plus the primary load smeared over its 2-slot window
        num = chernoff_exponent([poisson_term(0.02), poisson_term(1.2, a=0.5)], 1.0)
        assert val == pytest.approx(num, abs=1e-12)

    def test_dynamic_beats_nonpredictive_upper(self):
        dyn = div_secondary_dynamic(0.6, 0.02, LIN(0.6)).value
        _, up = div_secondary_nonpred(0.6, 0.02, LIN(0.6))
        assert dyn > up.value

    def test_dynamic_poly_branches(self):
        assert div_secondary_dynamic(0.6, 0.3, POLY(0.6)).value == pytest.approx(0.4)
        assert div_secondary_dynamic(0.9, 0.05, POLY(0.9)).value == pytest.approx(
            0.475
        )


class TestPredictionError:
    def spec(self, kind="linear"):
        return PredictionErrorSpec(0.9, 0.1, 4, Regime(kind, 0.5))

    def test_terms_at_balance_point(self):
        for kind in ("linear", "poly"):
            s = self.spec(kind)
            gain, t_crit = prediction_error_gain(s)
            w, u = prediction_error_terms(s, t_crit)
            assert w == pytest.approx(u, abs=1e-9)

    def test_gain_is_min_of_terms(self):
        s = self.spec()
        gain, _ = prediction_error_gain(s)
        w, u = prediction_error_terms(s, s.T)
        assert gain.value == pytest.approx(min(w, u))
        assert gain.kind == "lower"

    def test_poly_exact(self):
        s = self.spec("poly")
        gain, _ = prediction_error_gain(s)
        assert gain.value == pytest.approx(min(5 * (1 - 0.45), 1 - 0.05))
        assert gain.kind == "exact"

    def test_perfect_prediction_recovers_window_term(self):
        s = PredictionErrorSpec(1.0, 0.0, 3, LIN(0.5))
        w, u = prediction_error_terms(s, 3)
        assert math.isinf(u)
        lo, _ = div_pred_det(LIN(0.5), 0.5, 3)
        assert w == pytest.approx(lo.value)


class TestMulticast:
    def test_frozen(self):
        assert div_multicast_nonpred(0.5, 2.0).value == pytest.approx(
            0.37239718832614166
        )
        assert div_multicast_pred(0.5, 5.0, 1).value == pytest.approx(
            0.650485266894758
        )

    def test_infinite_regions(self):
        assert div_multicast_nonpred(0.5, 1.0).is_infinite
        assert div_multicast_nonpred(0.5, 0.5).is_infinite
        assert div_multicast_pred(0.5, 2.0, 1).is_infinite
        assert not div_multicast_pred(0.5, 3.5, 1).is_infinite

    def test_nonpred_theta_one_limit_continuous(self):
        # value grows without bound as theta -> 1+ (matching the infinite
        # branch), and decreases in theta
        v = [div_multicast_nonpred(0.5, t).value for t in (1.01, 1.5, 2.0, 4.0)]
        assert v[0] > v[1] > v[2] > v[3] > 0

    def test_nonpred_matches_exponent_optimizer(self):
        gm, theta = 0.5, 2.0
        A = source_demand_prob(gm, theta).value
        num = chernoff_exponent([binomial_term(theta, A)], 1.0)
        assert div_multicast_nonpred(gm, theta).value == pytest.approx(num, abs=1e-12)

    def test_pred_matches_exponent_optimizer(self):
        gm, theta, T = 0.5, 5.0, 1
        x = x_m(gm, theta, T).value
        num = chernoff_exponent([binomial_term(theta, x)], float(T + 1))
        assert div_multicast_pred(gm, theta, T).value == pytest.approx(num, abs=1e-12)

    def test_window_probability(self):
        assert x_m(0.5, 5.0, 1).value == pytest.approx(0.18126924692201815)
        assert x_m(0.5, 5.0, 0).value == pytest.approx(
            source_demand_prob(0.5, 5.0).value
        )

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            div_multicast_nonpred(0.5, 0.0)
        with pytest.raises(ValueError):
            div_multicast_pred(1.5, 2.0, 0)


def quad_residual(c, a, b, const):
    return a * c.value**2 + b * c.value + const


class TestMixedRoots:
    GU, GM, TH = 0.4, 0.9, 0.7

    def test_y1(self):
        c = y1_root(self.GU, self.GM, self.TH)
        assert c.value == pytest.approx(1.1784657544499126)
        E = math.exp(self.GM / self.TH)
        r = quad_residual(
            c, self.GU * (E - 1), (self.TH - 1) * E - self.TH + self.GU + 1, -1.0
        )
        assert r == pytest.approx(0.0, abs=1e-12)
        assert c.value > 1.0

    def test_y2(self):
        c = y2_root(self.GU, self.GM, self.TH, 1)
        x = c.params["x_m"]
        w = 2
        r = quad_residual(
            c,
            w * self.GU * x,
            w * self.GU * (1 - x) - w * x + self.TH * x,
            -w * (1 - x),
        )
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_y4(self):
        c = y4_root(self.GU, self.GM, self.TH)
        A = c.params["A_m"]
        r = quad_residual(
            c,
            self.GU * A,
            self.GU * (1 - A) + 2 * self.TH * A - 2 * A,
            -2 * (1 - A),
        )
        assert r == pytest.approx(0.0, abs=1e-12)


class TestScenarios:
    GU, GM, TH = 0.4, 0.9, 0.7

    def s(self, n, T=0):
        return scenario_bounds(n, self.GU, self.GM, self.TH, T)

    def test_scenario1_frozen_and_cross_checked(self):
        out = self.s(1)
        val = out["bounds"]["exact"].value
        assert val == pytest.approx(0.007814906426514459)
        A = source_demand_prob(self.GM, self.TH).value
        num = chernoff_exponent(
            [poisson_term(self.GU), binomial_term(self.TH, A)], 1.0
        )
        assert val == pytest.approx(num, abs=1e-10)

    def test_scenario2_bracket(self):
        out = self.s(2, T=1)
        lo, up = out["bounds"]["lower"], out["bounds"]["upper"]
        assert lo.value == pytest.approx(0.1524732736997606)
        assert up.value == pytest.approx(0.316290731874155)
        x = x_m(self.GM, self.TH, 1).value
        num = chernoff_exponent(
            [poisson_term(2 * self.GU), binomial_term(self.TH, x)], 2.0
        )
        assert lo.value == pytest.approx(num, abs=1e-10)

    def test_scenario2_caps_at_unicast_gain(self):
        for T in (2, 3, 5):
            out = self.s(2, T)
            assert out["bounds"]["lower"].value == pytest.approx(
                out["bounds"]["upper"].value
            )

    def test_scenario3_grows_with_window(self):
        vals = [self.s(3, T)["bounds"]["lower"].value for T in range(4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_scenario4_frozen(self):
        out = self.s(4, T=2)
        assert out["bounds"]["upper"].value == pytest.approx(0.4567340635750871)
        assert set(out["constants"]) == {"y1", "y4"}

    def test_crossover_window(self):
        assert crossover_window(self.GU, self.GM, self.TH) == 2

    def test_stability_guard(self):
        # theta * A_m + gu must stay below 1
        with pytest.raises(ValueError, match="stability"):
            scenario_bounds(1, 0.8, 0.9, 0.7)
        with pytest.raises(ValueError):
            scenario_bounds(1, 0.4, 0.9, 1.5)

    def test_bad_scenario_number(self):
        with pytest.raises(ValueError):
            self.s(5)


class TestRandomizedCrossChecks:
    """Closed forms vs the numeric exponent optimizer on random draws."""

    def test_nonpred_random(self):
        rng = np.random.default_rng(0)
        for g in rng.uniform(0.05, 0.95, 25):
            num = chernoff_exponent([poisson_term(g)], 1.0)
            assert div_nonpred(LIN(g)).value == pytest.approx(num, abs=1e-10)

    def test_pred_det_lower_random(self):
        rng = np.random.default_rng(1)
        for g in rng.uniform(0.05, 0.95, 25):
            T = int(rng.integers(0, 6))
            lo, _ = div_pred_det(LIN(g), g, T)
            num = chernoff_exponent([poisson_term((T + 1) * g)], float(T + 1))
            assert lo.value == pytest.approx(num, abs=1e-10)

    def test_two_class_random(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            gp = rng.uniform(0.2, 0.8)
            gs = rng.uniform(0.01, min(gp, 1 - gp) * 0.9)
            lo, up = div_secondary_nonpred(gp, gs, LIN(gp))
            assert up.value == pytest.approx(
                chernoff_exponent([poisson_term(gp)], 1.0), abs=1e-10
            )
            assert lo.value == pytest.approx(
                chernoff_exponent([poisson_term(gp + gs)], 1.0), abs=1e-10
            )
