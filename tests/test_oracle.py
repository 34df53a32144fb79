import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sched import expire

from proactivenet import analytic, oracle
from proactivenet.analytic import poisson_tail
from proactivenet.oracle import (
    OracleError,
    build_edf_chain,
    exact_event_bounds,
    exact_outage_stationary,
    verify_root,
)
from proactivenet.sim import SimConfig, estimate_outage
from proactivenet.traffic import LookaheadLaw, MulticastSpec, PredictionErrorSpec, Regime


def pmf_50_digits(lam, n):
    """(P(X = q) for q < n as floats, P(X < n)) for X ~ Poisson(lam), in
    50-digit arithmetic."""
    with mpmath.workdps(50):
        x = mpmath.mpf(lam)
        term, below, out = mpmath.exp(-x), mpmath.mpf(0), []
        for q in range(n):
            out.append(float(term))
            below += term
            term *= x / (q + 1)
        return np.array(out), below


def reference_edf_chain(C, lam, T, cap):
    """Scalar EDF chain builder, one state and arrival level at a time:
    (states, dense P, outage probabilities)."""
    pmf = oracle._poisson_pmf_lumped(lam, cap)
    states = list(itertools.product(range(cap + 1), repeat=T))
    index = {s: i for i, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    out = np.zeros(len(states))
    for s in states:
        i = index[s]
        for q, pq in enumerate(pmf):
            if pq == 0.0:
                continue
            v = list(s) + [q]
            left = C
            for k in range(T + 1):
                take = min(v[k], left)
                v[k] -= take
                left -= take
            if v[0] > 0:
                out[i] += pq
            P[i, index[tuple(v[1:])]] += pq
    return states, P, out


def dense_stationary(P):
    """pi P = pi, sum(pi) = 1, by a dense solve with a normalisation row."""
    n = len(P)
    A = P.T - np.eye(n)
    A[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


# EDF chains of at most 400 states: (C, lam, T, cap), lam up to above C
MAX_CAP = {1: 19, 2: 19, 3: 6}
edf_chains = st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda ct: st.tuples(
        st.just(ct[0]),
        st.floats(0.01, ct[0] + 2.0),
        st.just(ct[1]),
        st.integers(1, MAX_CAP[ct[1]]),
    )
)


def edf_cfg(C=2, rate=1.0, T=1, **kw):
    kw.setdefault("slots", 1000)
    kw.setdefault("seed", 0)
    kw.setdefault("warmup", 100)
    return SimConfig(
        C=C, policy="edf", rate=rate, law=LookaheadLaw.deterministic(T), **kw
    )


class TestEdfChain:
    def test_rows_and_outage_range(self):
        ch = build_edf_chain(C=2, lam=1.0, T=1, cap=12)
        assert np.allclose(ch.matrix().sum(axis=1), 1.0)
        assert np.all((ch.outage_prob >= 0) & (ch.outage_prob <= 1))
        assert ch.truncation_mass < 1e-9

    def test_stationary_is_fixed_point(self):
        ch = build_edf_chain(C=2, lam=1.0, T=1, cap=12)
        pi = ch.stationary()
        assert np.abs(pi @ ch.matrix() - pi).max() < 1e-10
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)

    def test_needs_positive_window(self):
        with pytest.raises(OracleError):
            build_edf_chain(C=2, lam=1.0, T=0, cap=5)

    def test_state_space_guard(self):
        # 6001 states: the dense matrix alone is 288 MB
        with pytest.raises(OracleError, match="state space"):
            build_edf_chain(C=2000, lam=1.0, T=3, cap=8002)

    def test_guard_bounds_bytes_before_allocating(self):
        # many states, or a 1.6 GB successor table of two states: refused up front
        for C, T, cap in [(2000, 3, 8002), (1, 1, 10**8)]:
            tracemalloc.start()
            try:
                with pytest.raises(OracleError, match="state space"):
                    build_edf_chain(C=C, lam=1.0, T=T, cap=cap)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    @pytest.mark.parametrize(
        "C, lam, T, cap", [(20, 16.0, 5, 200), (100, 80.0, 3, 401), (2, 1.0, 1, 20000)]
    )
    def test_guard_estimate_covers_build_and_solve(self, C, lam, T, cap):
        n = C * T + 1
        tracemalloc.start()
        try:
            build_edf_chain(C, lam, T, cap).stationary()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= oracle._PEAK_BYTES * n * (n + cap + 1)

    def test_truncation_mass_is_the_lumped_tail(self):
        # lumping at cap <= C(T+1) = 4 loses P(X >= cap); above, it is exact
        ch = build_edf_chain(C=2, lam=1.0, T=1, cap=4)
        assert ch.truncation_mass == pytest.approx(0.01899, rel=1e-3, abs=0)
        assert ch.truncation_mass == pytest.approx(poisson_tail(1.0, 3), rel=1e-12, abs=0)
        assert build_edf_chain(C=2, lam=1.0, T=1, cap=5).truncation_mass == 0.0

    def test_successor_table_is_small(self):
        ch = build_edf_chain(C=1, lam=0.6, T=3, cap=14)
        assert ch.states.tolist() == [0, 1, 2, 3]
        assert ch.transition.shape == (4, 15)
        assert ch.transition.nbytes <= 4 * 15 * 8

    def test_zero_pivot_raises(self):
        # fewer than C arrivals has probability 0 in floating point, so the
        # backlog never falls from the full state: GTH has no pivot
        with pytest.raises(OracleError, match="GTH pivot"):
            build_edf_chain(C=1, lam=5000.0, T=1, cap=3).stationary()

    @settings(max_examples=60, deadline=None)
    @given(edf_chains)
    def test_matches_scalar_reference(self, chain):
        _, P, out = reference_edf_chain(*chain)
        ch = build_edf_chain(*chain)
        assert abs(ch.stationary() @ ch.outage_prob - dense_stationary(P) @ out) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(edf_chains)
    def test_stationary_matches_dense_solve(self, chain):
        ch = build_edf_chain(*chain)
        assert np.abs(ch.stationary() - dense_stationary(ch.matrix())).max() <= 1e-13

    @pytest.mark.parametrize("C, lam, T", [(8, 6.4, 6), (40, 38.0, 3), (25, 12.5, 2)])
    def test_banded_elimination_matches_full_gth(self, C, lam, T):
        # the reference eliminates each state over all columns; the band
        # skips only products with an exact zero, so pi is bit-identical
        ch = build_edf_chain(C, lam, T, C * (T + 1) + 1)
        P = ch.matrix()
        n = len(P)
        for k in range(n - 1, 0, -1):
            P[:k, k] /= P[k, :k].sum()
            P[:k, :k] += np.outer(P[:k, k], P[k, :k])
        pi = np.ones(n)
        for k in range(1, n):
            pi[k] = pi[:k] @ P[:k, k]
        assert np.array_equal(ch.stationary(), pi / pi.sum())

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 5),
        st.integers(1, 4),
        st.lists(st.integers(0, 20), min_size=5, max_size=60),
    )
    def test_walk_matches_serve_path(self, C, T, counts):
        # the chain's successor table, walked along a path, loses a slot's
        # arrivals exactly when the slot loop books an expiry T slots later
        K = C * (T + 1)
        ch = build_edf_chain(C, 1.0, T, K + 1)
        V, lost = 0, []
        for x in counts:
            q = min(x, K + 1)  # lumped: every level above K behaves alike
            lost.append(q > K - V)
            V = ch.transition[V, q]
        arrivals = np.zeros((len(counts), T + 1), dtype=np.int64)
        arrivals[:, T] = counts
        expired = expire(arrivals, C)[:, 0]
        assert not expired[:T].any()
        assert (expired[T:] > 0).tolist() == lost[: len(counts) - T]

    # 50-digit mpmath solves of the same chain, at the float rates used;
    # the fig4a (linear 0.8) and fig4b (poly 0.8) points reach 7.2e-50
    @pytest.mark.parametrize("regime, gamma, C, T, ref", [
        ("linear", 0.5, 2, 1, 0.0073333182743957611297283784454142675424861234982915),
        ("linear", 0.8, 8, 1, 0.0062588425517336528818488919867844906555933907098845),
        ("linear", 0.8, 20, 5, 3.5990023790629801802781649700303485813635529105752e-20),
        ("poly", 0.8, 20, 2, 3.0746203095566490084419521609324533004913662939514e-21),
        ("poly", 0.8, 12, 5, 7.2025424648185155833025346591711722080510038439947e-26),
        ("poly", 0.8, 20, 5, 7.232316830670407104070434876021578639843807597149e-50),
    ])
    def test_matches_high_precision_references(self, regime, gamma, C, T, ref):
        cfg = SimConfig(
            C=C, policy="edf", slots=1000, seed=0, regime=Regime(regime, gamma),
            law=LookaheadLaw.deterministic(T),
        )
        res = exact_outage_stationary(cfg)
        assert res.value == pytest.approx(ref, rel=1e-10, abs=0)
        assert res.truncation_mass == 0.0
        assert res.n_states == C * T + 1


class TestStationaryOutage:
    def test_reactive_is_exact_tail(self):
        cfg = SimConfig(
            C=4, policy="reactive", slots=200, seed=0, warmup=10,
            regime=Regime("linear", 0.5),
        )
        res = exact_outage_stationary(cfg)
        assert res.value == pytest.approx(poisson_tail(2.0, 4), rel=1e-12, abs=0)
        assert res.n_states == 1

    def test_window_zero_equals_reactive(self):
        res = exact_outage_stationary(edf_cfg(T=0))
        assert res.value == pytest.approx(poisson_tail(1.0, 2), rel=1e-12, abs=0)

    def test_frozen_value_and_cap_insensitivity(self):
        a = exact_outage_stationary(edf_cfg(), cap=14)
        b = exact_outage_stationary(edf_cfg(), cap=28)
        assert a.value == pytest.approx(0.007333273, rel=1e-5, abs=0)
        assert a.value == pytest.approx(b.value, rel=1e-10, abs=0)
        assert a.truncation_mass < 1e-9

    def test_bracketed_by_event_bounds(self):
        res = exact_outage_stationary(edf_cfg())
        lo, up = exact_event_bounds(edf_cfg())
        assert lo <= res.value <= up

    def test_simulator_agreement(self):
        # independent code paths: chain vs Monte Carlo, 3 sigma at 200k slots
        cfg = edf_cfg(slots=20100, warmup=100)
        est = estimate_outage(cfg, 10)["default"]
        res = exact_outage_stationary(cfg)
        assert abs(est.p_hat - res.value) <= 3 * est.stderr

    def test_zero_rate(self):
        cfg = SimConfig(C=2, policy="edf", slots=100, seed=0, warmup=10)
        assert exact_outage_stationary(cfg).value == 0.0

    def test_unsupported_policy(self):
        cfg = SimConfig(
            C=2, policy="selfish", slots=100, seed=0, warmup=10,
            regime=Regime("linear", 0.5), secondary=Regime("linear", 0.1),
            law=LookaheadLaw.deterministic(1),
        )
        with pytest.raises(OracleError):
            exact_outage_stationary(cfg)

    def test_random_law_rejected(self):
        cfg = SimConfig(
            C=2, policy="edf", slots=100, seed=0, warmup=10,
            regime=Regime("linear", 0.5), law=LookaheadLaw.binomial(2, 0.5),
        )
        with pytest.raises(OracleError):
            exact_outage_stationary(cfg)


REFUSED = [
    (SimConfig(C=4, policy="multicast", slots=100, warmup=10, seed=0,
               multicast=MulticastSpec(0.9, 15.0), law=LookaheadLaw.deterministic(1)),
     "no exact chain for policy 'multicast'"),
    (SimConfig(C=4, policy="selfish", slots=100, warmup=10, seed=0, regime=Regime("linear", 0.6),
               secondary=Regime("linear", 0.1), law=LookaheadLaw.deterministic(1)),
     "no exact chain for policy 'selfish'"),
    (SimConfig(C=8, policy="edf", slots=100, warmup=10, seed=0, pred_error=PredictionErrorSpec(
        alpha_pred=0.9, alpha_miss=0.3, T=2, regime=Regime("linear", 0.6))),
     "no exact chain for prediction-error traffic"),
]


class TestEventBounds:
    @pytest.mark.parametrize("cfg, reason", REFUSED)
    def test_refuses_what_the_oracle_does_not_model(self, cfg, reason):
        # as the stationary outage does: (0.0, 0.0) would be a wrong answer
        with pytest.raises(OracleError, match=reason):
            exact_event_bounds(cfg)
        with pytest.raises(OracleError, match=reason):
            exact_outage_stationary(cfg)

    def test_reactive_is_window_zero_whatever_its_law(self):
        # reactive serves every request at window 0: both bounds are the
        # exact tail, not the EDF random-window bounds of its law
        cfg = SimConfig(C=4, policy="reactive", slots=100, warmup=10, seed=0,
                        regime=Regime("linear", 0.8), law=LookaheadLaw.binomial(5, 0.5))
        lo, up = exact_event_bounds(cfg)
        assert lo == up == exact_outage_stationary(cfg).value
        assert lo == pytest.approx(poisson_tail(3.2, 4), rel=1e-12, abs=0)
        assert lo == pytest.approx(0.219, abs=5e-4)

    def test_deterministic_window(self):
        lo, up = exact_event_bounds(edf_cfg(C=2, rate=1.0, T=1))
        assert lo == pytest.approx(poisson_tail(1.0, 4), rel=1e-12, abs=0)
        assert up == pytest.approx(poisson_tail(2.0, 4), rel=1e-12, abs=0)
        assert lo < up

    def test_window_zero_bounds_collapse(self):
        lo, up = exact_event_bounds(edf_cfg(T=0))
        assert lo == up == pytest.approx(poisson_tail(1.0, 2), rel=1e-12, abs=0)

    def test_random_window_brackets_simulation(self):
        cfg = SimConfig(
            C=2, policy="edf", rate=1.2, law=LookaheadLaw.finite({1: 0.5, 2: 0.5}),
            slots=50100, warmup=100, seed=3,
        )
        lo, up = exact_event_bounds(cfg)
        est = estimate_outage(cfg, 4)["default"]
        assert lo - 3 * est.stderr <= est.p_hat <= up + 3 * est.stderr
        assert 0.0 < lo < up <= 1.0

    def test_random_window_tightens_with_mass_on_long_windows(self):
        def lower(p_long):
            law = LookaheadLaw.finite({0: 1 - p_long, 3: p_long})
            cfg = SimConfig(
                C=2, policy="edf", rate=1.0, law=law, slots=200, warmup=10, seed=0,
            )
            return exact_event_bounds(cfg)[0]

        assert lower(0.9) < lower(0.1)

    def test_lumped_tail_keeps_its_relative_accuracy(self):
        p = oracle._poisson_pmf_lumped(0.3, 30)
        assert p[30] == pytest.approx(poisson_tail(0.3, 29), rel=1e-12, abs=0)
        assert 0.0 < p[30] < 1e-40
        assert oracle._poisson_pmf_lumped(2.0, 0).tolist() == [1.0]

    @pytest.mark.parametrize(
        "lam, cap", [(800.0, 900), (800.0, 1200), (5000.0, 5600), (5000.0, 5000), (5000.0, 4500)]
    )
    def test_pmf_beyond_the_exp_underflow(self, lam, cap):
        # exp(-lam) underflows to 0 above lam ~ 745; the body must not.  Both
        # pmfs round k log(lam) - lgamma(k + 1) to ~1e-11 at lam = 5000.
        p = oracle._poisson_pmf_lumped(lam, cap)
        ref = scipy.stats.poisson.pmf(np.arange(cap), lam)
        assert np.allclose(p[:cap], ref, rtol=1e-10, atol=0.0)
        assert abs(p.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "lam, cap", [(800.0, 1083), (5000.0, 5708), (2e4, 21415), (5000.0, 4900)]
    )
    def test_lumped_pmf_matches_50_digits(self, lam, cap):
        # cap = lam + 10 sqrt(lam) lumps a tail of ~1e-23; at (5000, 4900)
        # the tail is above 1/2, and the body is scaled to the cdf summed
        # directly
        p = oracle._poisson_pmf_lumped(lam, cap)
        ref, below = pmf_50_digits(lam, cap)
        seen = ref >= 1e-300
        assert np.max(np.abs(p[:cap][seen] - ref[seen]) / ref[seen]) <= 1e-12
        assert p[cap] == pytest.approx(float(1 - below), rel=1e-12, abs=0)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_union_of_partial_sums_beyond_the_exp_underflow(self):
        # the first level almost never crosses, so the union is the tail of
        # the two-level sum, Poisson(1600) > 1700
        got = oracle._union_partial_sums([800.0, 800.0], [1000, 1700])
        assert got == pytest.approx(scipy.stats.poisson.sf(1700, 1600), rel=1e-8, abs=0)

    def test_binomial_window_bounds_at_a_window_rate_above_745(self):
        # per-window rates 800 * cdf(j) reach 775; the load equals C
        with pytest.warns(UserWarning, match="offered load"):
            cfg = SimConfig(
                C=800, policy="edf", rate=800.0, law=LookaheadLaw.binomial(5, 0.5),
                slots=100, warmup=10, seed=0,
            )
        lo, up = exact_event_bounds(cfg)
        assert 0.0 <= lo <= up <= 1.0

    def test_binomial_window_bounds_in_order(self):
        # P_L <= P_U with no slack, far into the tail
        inverted = []
        for C in (2, 4, 8, 16, 24, 32):
            for gamma in np.round(np.arange(0.30, 0.905, 0.01), 2):
                for p in np.round(np.arange(0.1, 0.95, 0.1), 1):
                    cfg = SimConfig(
                        C=C, policy="edf", regime=Regime("linear", gamma),
                        law=LookaheadLaw.binomial(5, p), slots=100, warmup=10, seed=0,
                    )
                    lo, up = exact_event_bounds(cfg)
                    if lo > up:
                        inverted.append((C, gamma, p, lo, up))
        assert inverted == []

    def test_union_partial_sums_single_level(self):
        p = oracle._union_partial_sums([2.0], [4])
        assert p == pytest.approx(poisson_tail(2.0, 4), rel=1e-10, abs=0)

    def test_union_partial_sums_monotone_in_levels(self):
        one = oracle._union_partial_sums([1.0], [3])
        two = oracle._union_partial_sums([1.0, 1.0], [3, 9])
        assert two >= one


class TestVerifyRoot:
    def test_all_registered_roots(self):
        consts = [
            analytic.y_bar(0.6, 0.1),
            analytic.y1_root(0.4, 0.9, 0.7),
            analytic.y2_root(0.4, 0.9, 0.7, 2),
            analytic.y4_root(0.4, 0.9, 0.7),
            analytic.x_m(0.9, 0.7, 2),
            analytic.source_demand_prob(0.9, 0.7),
        ]
        for c in consts:
            assert verify_root(c) < 1e-9, c.name

    def test_unknown_constant(self):
        with pytest.raises(OracleError):
            verify_root(analytic.Constant("v_star", 1.0, {}))

    def test_detects_corruption(self):
        good = analytic.y1_root(0.4, 0.9, 0.7)
        bad = analytic.Constant("y1", good.value * 1.01, good.params)
        assert verify_root(bad) > 1e-4
