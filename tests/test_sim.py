import contextlib
import ctypes
import math
import os
import re
import signal
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_sched import expire, serve_path_by_slot

from proactivenet import sched, sim
from proactivenet.analytic import poisson_tail
from proactivenet.sim import (
    OutageEstimate,
    SimConfig,
    estimate_diversity,
    estimate_outage,
    estimate_outages,
    run_path,
    sweep_capacity,
)
from proactivenet.traffic import (
    LookaheadLaw,
    MulticastSpec,
    PredictionErrorSpec,
    Regime,
    TrafficSpecError,
    mean_rate,
    poisson,
    poisson_table,
    unicast_counts,
)

LIN05 = Regime("linear", 0.5)


def binomial_quantiles(u, L, A):
    """Q[n, i] = min{k : P(Binomial(i, A) <= k) > u[n]} for i = 0..L: each
    cdf summed from math.comb terms and searched by numpy, apart from the
    kernel's pmf walk.  Q[n, i] is slot n's fresh demand with i idle
    sources; it grows by 0 or 1 with i, so np.diff(Q) is a presence matrix
    whose first i columns hold Q[n, i] present sources."""
    Q = np.empty((len(u), L + 1), dtype=np.int64)
    for i in range(L + 1):
        F = np.cumsum([math.comb(i, k) * A**k * (1 - A) ** (i - k) for k in range(i + 1)])
        Q[:, i] = np.minimum(np.searchsorted(F, u, side="right"), i)
    assert np.isin(np.diff(Q), (0, 1)).all()
    return Q


def fresh_demand_uniforms(cfgs, paths):
    """The first cfgs[0].slots uniforms of the buffer of each path of the
    group cfgs over paths, read where the kernel is handed them: the group's
    call runs as one call per path, in order, on the calling thread."""
    lib, seen = sched._kernel(), []

    class Spy:
        def __getattr__(self, name):
            return getattr(lib, name)

        @staticmethod
        def group_run(W, seed, paths, n, u, fill, K, config, rate, c, outages):
            for j in range(n):
                lib.group_run(1, seed, paths + 8 * j, 1, u, fill, K, config, rate, c,
                              outages + 24 * K * j)
                first = ctypes.c_void_p.from_address(u).value  # worker 0's buffer
                seen.append(np.array((ctypes.c_double * cfgs[0].slots).from_address(first)))

    real, sched._kernel = sched._kernel, Spy
    try:
        sim._outage_counts(cfgs, paths)
    finally:
        sched._kernel = real
    return np.array(seen)


def serial_group(seed, paths, fill, cfgs=()):
    """(u, counts) of one group_run call on the calling thread alone
    over the path indices `paths` under the group cfgs of `seed`, from the
    words of numpy's PCG64 state: u holds the last path's uniforms, at least
    `fill` of them."""
    state = np.random.PCG64(seed).state["state"]
    words = np.array([state["state"] >> 64, state["state"] % 2**64, state["inc"] >> 64,
                      state["inc"] % 2**64], dtype=np.uint64)
    index = np.array(paths, dtype=np.uint64)
    plan = sim._plan_group(list(cfgs))
    fill = max(fill, plan.fill)
    u, c = np.empty(fill), np.empty(1 + plan.window, np.int64)
    u_at, c_at = np.array([u.ctypes.data], np.uintp), np.array([c.ctypes.data], np.uintp)
    counts = np.zeros((index.size, len(cfgs), 3), dtype=np.int64)
    sched._kernel().group_run(1, words.ctypes.data, index.ctypes.data, index.size,
                              u_at.ctypes.data, fill, len(cfgs), plan.records.ctypes.data,
                              plan.rates.ctypes.data, c_at.ctypes.data, counts.ctypes.data)
    return u, counts


def tasks():
    """The threads of this process, as the kernel lists them."""
    return set(os.listdir("/proc/self/task"))


def new_tasks(before, deadline=2.0):
    """The threads listed now that `before` lacks, once there are none or
    `deadline` seconds have passed.  pthread_join returns once the kernel
    clears the thread's tid, which may be before the exited thread leaves
    /proc/self/task; a thread still alive stays listed."""
    end = time.monotonic() + deadline
    while (new := tasks() - before) and time.monotonic() < end:
        time.sleep(0.001)
    return new


def reactive_cfg(C=4, slots=1100, **kw):
    kw.setdefault("regime", LIN05)
    kw.setdefault("seed", 0)
    return SimConfig(C=C, policy="reactive", slots=slots, warmup=100, **kw)


class TestRunPath:
    def test_zero_traffic(self):
        cfg = SimConfig(C=3, policy="reactive", slots=500, seed=0, warmup=10)
        res = run_path(cfg)
        assert res.outage_slots["default"] == 0

    def test_zero_capacity_reactive(self):
        cfg = SimConfig(
            C=0, policy="reactive", slots=500, seed=1, warmup=0, rate=2.0
        )
        res = run_path(cfg)
        rng = sim.path_rng(cfg.seed, 0)
        arr = poisson(rng, 2.0, 500)
        assert res.outage_slots["default"] == int((arr > 0).sum())

    @pytest.mark.filterwarnings("ignore:offered load")
    @pytest.mark.parametrize("mu", [25.6, 1e4, 1e8])
    def test_large_rates_cross_each_capacity_as_poisson_draws(self, mu):
        # a reactive slot is an outage iff its count exceeds C: the kernel's
        # guide-table inversion against numpy's search, around the mean
        arr = poisson(sim.path_rng(4, 0), mu, 2000)
        for C in (int(mu - mu**0.5), int(mu), int(mu + mu**0.5)):
            cfg = SimConfig(C=C, policy="reactive", slots=2000, seed=4, warmup=0, rate=mu)
            assert run_path(cfg).outage_slots["default"] == int((arr > C).sum())

    @pytest.mark.filterwarnings("ignore:offered load")
    @pytest.mark.parametrize("mu", [0.4, 9.0, 300.0, 5000.0])
    def test_a_uniform_on_a_cdf_value_draws_the_next_count(self, mu):
        # min{k : F(k) > u} at each cdf value of the window and just below
        # it, where the kernel's guide-table search meets a tie, against
        # numpy's: one reactive config per capacity, fed these uniforms,
        # counts the slots whose count exceeds it
        lo, F, _ = poisson_table(mu)
        edges = F[F < 1.0]  # a uniform lies in [0, 1)
        u = np.concatenate([edges, np.nextafter(edges, 0.0)])
        want = lo + np.searchsorted(F, u, side="right")
        cfgs = [SimConfig(C=C, policy="reactive", slots=u.size, seed=0, warmup=0, rate=mu)
                for C in range(want.min(), want.max())]
        plan = sim._plan_group(cfgs)
        c = np.empty(1, dtype=np.int64)
        counts = np.zeros((len(cfgs), 3), dtype=np.int64)
        sched._kernel().path_outages(u.ctypes.data, len(cfgs), plan.records.ctypes.data,
                                     plan.rates.ctypes.data, c.ctypes.data, counts.ctypes.data)
        assert counts[:, 0].tolist() == [int((want > cfg.C).sum()) for cfg in cfgs]

    def test_scripted_overflow_trace(self):
        # 5 arrivals with a 1-slot window into C=2: 4 servable over two
        # slots, exactly one outage in the second slot
        outage = expire(np.array([[0, 5], [0, 0], [0, 0]]), 2)[:, 0] > 0
        assert outage.sum() == 1
        assert outage.tolist() == [False, True, False]

    def test_reproducible(self):
        cfg = reactive_cfg()
        a, b = run_path(cfg, 3), run_path(cfg, 3)
        assert a.outage_slots == b.outage_slots
        # per slot: path 3's arrivals, drawn and served twice
        law = LookaheadLaw.deterministic(0)
        outage = [
            expire(unicast_counts(2.0, law, sim.path_rng(cfg.seed, 3), cfg.slots), 4)
            for _ in range(2)
        ]
        assert np.array_equal(outage[0], outage[1])
        assert (outage[0][cfg.effective_warmup :, 0] > 0).sum() == a.outage_slots["default"]

    def test_warmup_must_be_below_slots(self):
        with pytest.raises(sim.SimConfigError):
            SimConfig(C=2, policy="reactive", slots=50, seed=0, warmup=50)


class TestEstimateOutage:
    def test_reactive_matches_exact_tail(self):
        est = estimate_outage(reactive_cfg(), 100)["default"]
        exact = poisson_tail(2.0, 4)
        assert abs(est.p_hat - exact) <= 3 * est.stderr

    def test_zero_traffic_estimate(self):
        cfg = SimConfig(C=3, policy="reactive", slots=300, seed=0, warmup=10)
        est = estimate_outage(cfg, 5)["default"]
        assert est.p_hat == 0.0 and est.stderr == 0.0

    def test_predictive_below_nonpredictive_paired(self):
        pred = SimConfig(
            C=4, policy="edf", slots=2100, seed=5, warmup=100, regime=LIN05,
            law=LookaheadLaw.deterministic(2),
        )
        est_p = estimate_outage(pred, 40)["default"]
        est_n = estimate_outage(reactive_cfg(slots=2100, seed=5), 40)["default"]
        assert est_p.p_hat <= est_n.p_hat

    def test_needs_two_paths(self):
        with pytest.raises(sim.SimConfigError):
            estimate_outage(reactive_cfg(), 1)

    def test_estimate_fields(self):
        est = estimate_outage(reactive_cfg(), 10)["default"]
        assert isinstance(est, OutageEstimate)
        assert est.n_paths == 10 and len(est.per_path_values) == 10


class TestPairing:
    def test_monotone_in_window_pathwise(self):
        # identical arrival totals, larger window never increases outages
        counts = []
        for T in (0, 1, 3):
            cfg = SimConfig(
                C=3, policy="edf", slots=3000, seed=11, warmup=100,
                regime=Regime("linear", 0.8), law=LookaheadLaw.deterministic(T),
            )
            counts.append(run_path(cfg, 0).outage_slots["default"])
        assert counts[0] >= counts[1] >= counts[2]

    def test_selfish_no_help_pathwise(self):
        # secondary outage count under a predictive selfish primary is >=
        # its count when the primary has no look-ahead, path by path
        def count(T, idx):
            cfg = SimConfig(
                C=6, policy="selfish", slots=4000, seed=13, warmup=100,
                regime=Regime("linear", 0.6), law=LookaheadLaw.deterministic(T),
                secondary=Regime("linear", 0.1),
            )
            return run_path(cfg, idx).outage_slots["secondary"]

        for idx in range(5):
            assert count(4, idx) >= count(0, idx)

    def test_dynamic_f1_matches_selfish(self):
        common = dict(
            C=6, slots=2000, seed=17, warmup=100, regime=Regime("linear", 0.6),
            law=LookaheadLaw.deterministic(3), secondary=Regime("linear", 0.1),
        )
        a = run_path(SimConfig(policy="selfish", **common), 0)
        b = run_path(SimConfig(policy="dynamic", f=1.0, **common), 0)
        assert a.outage_slots == b.outage_slots
        # per slot and class, with the dynamic capacity rule itself at the
        # largest f below 1, where ceil(f * backlog) is the whole backlog; a
        # heavier primary so that both classes see outages
        rng = np.random.default_rng(17)
        arrivals = unicast_counts(4.8, LookaheadLaw.deterministic(1), rng, 2000)
        secondary = rng.poisson(0.6, 2000)
        selfish = expire(arrivals, 6, secondary=secondary)
        dynamic = expire(arrivals, 6, f=np.nextafter(1.0, 0.0), secondary=secondary)
        assert selfish[:, 0].any() and selfish[:, 1].any()
        assert np.array_equal(selfish, dynamic)

    @staticmethod
    def planned_draws(cfg, index=4):
        """The arrivals and secondary counts path `index` of cfg draws: the
        Poisson streams of its plan, each inverted from the next block of
        the path's uniforms (`traffic.poisson` inverts the kernel's cdf window)."""
        T, streams = sim._streams(cfg)
        rng = sim.path_rng(cfg.seed, index)
        arrivals, secondary = np.zeros((cfg.slots, T + 1), dtype=np.int64), None
        for column, mu in streams:
            counts = poisson(rng, mu, cfg.slots)
            if column < 0:
                secondary = counts
            else:
                arrivals[:, column] += counts
        return arrivals, secondary

    def test_reactive_and_edf_windows_see_equal_slot_totals(self):
        common = dict(C=4, slots=1500, seed=21, warmup=100, regime=Regime("linear", 0.7))
        reactive, _ = self.planned_draws(SimConfig(policy="reactive", **common))
        assert reactive.shape == (1500, 1) and reactive.any()
        for T in (1, 2, 5):
            cfg = SimConfig(policy="edf", law=LookaheadLaw.deterministic(T), **common)
            edf, _ = self.planned_draws(cfg)
            assert edf.shape == (1500, T + 1)
            assert np.array_equal(edf.sum(axis=1), reactive[:, 0])

    def test_fig_dyn_curves_see_identical_draws(self):
        # the three f curves of fig-dyn: dynamic at f = 0 and 0.5, selfish
        common = dict(
            C=8, slots=1200, seed=1, warmup=100, regime=Regime("linear", 0.6),
            law=LookaheadLaw.deterministic(4), secondary=Regime("linear", 0.1),
        )
        draws = [
            self.planned_draws(SimConfig(**common, **kw))
            for kw in ({"policy": "dynamic", "f": 0.0}, {"policy": "dynamic", "f": 0.5},
                       {"policy": "selfish"})
        ]
        first_arrivals, first_secondary = draws[0]
        assert first_arrivals.any() and first_secondary.any()
        for arrivals, secondary in draws[1:]:
            assert np.array_equal(arrivals, first_arrivals)
            assert np.array_equal(secondary, first_secondary)

    @pytest.mark.parametrize("f", [-0.1, 1.5])
    def test_dynamic_fraction_out_of_range(self, f):
        with pytest.raises(sim.SimConfigError, match="f must lie"):
            SimConfig(
                C=6, policy="dynamic", slots=500, seed=0, warmup=10, f=f,
                regime=Regime("linear", 0.6), secondary=Regime("linear", 0.1),
            )

    @pytest.mark.parametrize("alphas", [(0.2, 0.3), (1.5, 0.3)])
    def test_inconsistent_prediction_rates(self, alphas):
        # alpha_pred + alpha_miss must lie in [1, 1/gamma); refused when the
        # config is built, not first when a run draws arrivals
        spec = PredictionErrorSpec(*alphas, 2, Regime("linear", 0.6))
        with pytest.raises(sim.SimConfigError, match="alpha_pred"):
            SimConfig(C=8, policy="edf", slots=500, seed=0, pred_error=spec)


class TestSweep:
    def test_decreasing_in_capacity(self):
        cfg = reactive_cfg(regime=Regime("linear", 0.8), slots=3100)
        res = sweep_capacity(cfg, [4, 8, 16], 30)
        p = [est["default"].p_hat for _, est in res]
        assert p[0] > p[1] > p[2]

    def test_single_point_and_empty(self):
        cfg = reactive_cfg()
        assert len(sweep_capacity(cfg, [4], 3)) == 1
        assert sweep_capacity(cfg, [], 3) == []

    def test_grid_must_ascend(self):
        with pytest.raises(sim.SimConfigError):
            sweep_capacity(reactive_cfg(), [8, 4], 3)


class TestEstimateDiversity:
    def test_exact_exponential(self):
        curve = [(C, np.exp(-0.19 * C)) for C in range(5, 30, 5)]
        assert estimate_diversity(curve, LIN05) == pytest.approx(0.19, abs=1e-9)

    def test_poly_axis(self):
        curve = [(C, np.exp(-0.4 * C * np.log(C))) for C in (5, 10, 20, 40)]
        assert estimate_diversity(curve, Regime("poly", 0.5)) == pytest.approx(
            0.4, abs=1e-9
        )

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            estimate_diversity([(4, 0.1), (8, 0.01)], LIN05)

    def test_zero_phat_rejected(self):
        with pytest.raises(ValueError, match="grid too large"):
            estimate_diversity([(4, 0.1), (8, 0.01), (16, 0.0)], LIN05)


class TestMulticastPolicies:
    def test_multicast_runs_and_is_bounded(self):
        cfg = SimConfig(
            C=4, policy="multicast", slots=2000, seed=2, warmup=100,
            multicast=MulticastSpec(0.9, 15.0), law=LookaheadLaw.deterministic(1),
        )
        res = run_path(cfg)
        assert 0 <= res.outage_slots["multicast"] <= res.total_counted_slots

    def test_window_reduces_multicast_outage(self):
        def p(T):
            cfg = SimConfig(
                C=3, policy="multicast", slots=4000, seed=21, warmup=100,
                multicast=MulticastSpec(0.9, 3.0), law=LookaheadLaw.deterministic(T),
            )
            return estimate_outage(cfg, 10)["multicast"].p_hat

        assert p(2) < p(0)

    def test_pi2_classes_reported(self):
        cfg = SimConfig(
            C=5, policy="pi2", slots=1500, seed=3, warmup=100,
            regime=Regime("linear", 0.4), multicast=MulticastSpec(0.9, 0.7),
            law=LookaheadLaw.deterministic(2),
        )
        res = run_path(cfg)
        assert set(res.outage_slots) == {"multicast", "unicast", "combined"}
        assert res.outage_slots["combined"] >= max(
            res.outage_slots["multicast"], res.outage_slots["unicast"]
        )


def reference_multicast(cfg: SimConfig, seed_index: int) -> dict[str, int]:
    """Outage slots of one path, tracking each source's residual deadline
    (-1 when idle); written independently of the counts-vector kernel.

    Each slot's fresh demand is the path's uniform for it, inverted by
    `binomial_quantiles` at the slot's idle count; which idle sources are
    fresh is picked by a separate generator.  Multicast serves pending
    sources by EDF, ties by source id.  pi2 serves urgent sources, then
    the urgent unicast stream, then later sources.
    """
    rng = sim.path_rng(cfg.seed, seed_index)
    L = cfg.multicast.num_sources(cfg.C)
    fresh = binomial_quantiles(rng.random(cfg.slots), L, cfg.multicast.source_prob())
    pick = np.random.default_rng([cfg.seed, seed_index])
    uni = np.zeros(cfg.slots, dtype=np.int64)
    if cfg.policy == "pi2":
        uni = poisson(rng, mean_rate(cfg.regime, cfg.C), cfg.slots)
    T, C = cfg.law.tmax, cfg.C
    residual = np.full(L, -1)
    lost_m = np.zeros(cfg.slots, dtype=bool)
    lost_u = np.zeros(cfg.slots, dtype=bool)
    for n in range(cfg.slots):
        idle = np.flatnonzero(residual < 0)
        residual[pick.choice(idle, fresh[n, idle.size], replace=False)] = T
        if cfg.policy == "multicast":
            pending = np.flatnonzero(residual >= 0)
            order = pending[np.argsort(residual[pending], kind="stable")]
            residual[order[:C]] = -1
            lost_m[n] = (residual == 0).any()
        else:
            urgent = np.flatnonzero(residual == 0)
            later = np.flatnonzero(residual > 0)
            residual[urgent[:C]] = -1
            lost_m[n] = urgent.size > C
            left = C - min(urgent.size, C)
            lost_u[n] = uni[n] > left
            left -= min(uni[n], left)
            order = later[np.argsort(residual[later], kind="stable")]
            residual[order[:left]] = -1
        residual[residual == 0] = -1
        residual[residual > 0] -= 1
    w = cfg.effective_warmup
    out = {"multicast": int(lost_m[w:].sum())}
    if cfg.policy == "pi2":
        out["unicast"] = int(lost_u[w:].sum())
    return out


class TestMulticastExactness:
    @pytest.mark.parametrize("policy", ["multicast", "pi2"])
    def test_window_zero_is_presence_count(self, policy):
        cfg = SimConfig(
            C=4, policy=policy, slots=1000, seed=8, warmup=0,
            multicast=MulticastSpec(0.9, 15.0), law=LookaheadLaw.deterministic(0),
            regime=Regime("linear", 0.05) if policy == "pi2" else None,
        )
        L, A = cfg.multicast.num_sources(cfg.C), cfg.multicast.source_prob()
        for i in range(3):
            # nothing is pending at window 0: every slot sees all L sources idle
            rng = sim.path_rng(cfg.seed, i)
            pres = np.diff(binomial_quantiles(rng.random(1000), L, A))
            kw = {}
            if policy == "pi2":
                kw = dict(f=0.0, secondary=poisson(rng, 0.2, 1000), refill=True)
            outage = expire(pres, cfg.C, multicast_T=0, **kw)[:, 0] > 0
            assert np.array_equal(outage, pres.sum(axis=1) > cfg.C)
            assert run_path(cfg, i).outage_slots["multicast"] == outage.sum()

    @pytest.mark.parametrize(
        "policy,C,T,theta",
        [("multicast", 4, 1, 15.0), ("multicast", 6, 1, 15.0),
         ("multicast", 3, 2, 3.0), ("pi2", 5, 2, 0.7)],
    )
    def test_agrees_with_per_source_engine(self, policy, C, T, theta):
        # the same draws feed both engines; they differ only in which idle
        # sources are read as fresh, so the per-path differences of the
        # outage ratios must average out (paired z-test).  Where L <= C(T+1)
        # (multicast at C=3, pi2's multicast class) no source can expire,
        # and both engines must report exactly 0.
        cfg = SimConfig(
            C=C, policy=policy, slots=1100, seed=31, warmup=100,
            multicast=MulticastSpec(0.5 if policy == "pi2" else 0.9, theta),
            law=LookaheadLaw.deterministic(T),
            regime=Regime("linear", 0.5) if policy == "pi2" else None,
        )
        n_paths = 20
        diffs = {}
        for i in range(n_paths):
            ref = reference_multicast(cfg, i)
            got = run_path(cfg, i).outage_slots
            for cls, v in ref.items():
                diffs.setdefault(cls, []).append((got[cls] - v) / 1000)
        for cls, d in diffs.items():
            d = np.asarray(d)
            se = d.std(ddof=1) / np.sqrt(n_paths)
            if se == 0:
                assert d.mean() == 0, cls
            else:
                assert abs(d.mean() / se) < 4, cls


def test_unstable_config_warns_not_raises():
    with pytest.warns(UserWarning, match="unstable"):
        SimConfig(C=2, policy="reactive", slots=500, seed=0, warmup=10, rate=2.0)


def test_the_load_is_that_of_the_streams_drawn():
    # the prediction-error streams (5.4 + 1.8 at C = 10) replace the
    # regime's 8, so the load is 7.2, not 15.2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SimConfig(C=10, policy="edf", slots=300, seed=0, warmup=100,
                  regime=Regime("linear", 0.8),
                  pred_error=PredictionErrorSpec(0.9, 0.3, 2, Regime("linear", 0.6)))


def test_a_stable_run_of_a_billion_requests_a_slot_estimates():
    # a load of 83 % of C = 1.2e9 in a window of 2 slots: every request
    # expires within 3 slots, so no pending count nears the int64 range
    cfg = SimConfig(C=1_200_000_000, policy="edf", slots=200, seed=0, warmup=10,
                    regime=Regime("linear", 0.8333), law=LookaheadLaw.deterministic(2))
    assert estimate_outage(cfg, 2)["default"].p_hat == 0.0


@pytest.mark.filterwarnings("ignore:offered load")
def test_a_config_that_may_pend_2_to_the_62_requests_is_refused():
    # the pending count is at most T + 1 slots of the primary's largest
    # count, floor(mu + 12 sqrt(mu) + 30); (T + 1) hi first reaches 2**62 at T
    mu = 1e9
    hi = math.floor(mu + 12 * math.sqrt(mu) + 30)
    T = 2**62 // hi
    # a path of fewer slots than T + 1 pends fewer: its window is at most its slots
    common = dict(C=4, policy="edf", slots=T, seed=0, warmup=0, rate=mu)
    SimConfig(**common, law=LookaheadLaw.deterministic(T - 1))
    with pytest.raises(sim.SimConfigError, match=r"^T \+ 1 = \d+ slots .* reach 2\*\*62"):
        SimConfig(**common, law=LookaheadLaw.deterministic(T))


@pytest.mark.parametrize("policy", ["multicast", "pi2"])
def test_a_multicast_config_of_2_to_the_62_sources_is_refused(policy):
    # a multicast path pends at most its L = round(theta C) sources, which
    # its walk counts in doubles, exact below 2**53: from there on, 2**62
    # among them, the config is refused
    spec = MulticastSpec(0.9, 1.0)
    assert spec.num_sources(2**53 - 1) == 2**53 - 1
    common = dict(policy=policy, slots=2, seed=0, warmup=0, multicast=spec)
    SimConfig(C=2**53 - 1, **common)
    for C in (2**53, 2**62):
        with pytest.raises(sim.SimConfigError,
                           match=rf"^L = {C} sources reach 2\*\*53, past which the walk's"):
            SimConfig(C=C, **common)


@pytest.mark.parametrize("policy", ["multicast", "pi2"])
def test_multicast_refuses_what_it_would_ignore(policy):
    # a multicast path draws a window of the law's tmax and no prediction
    # error, so another law or a prediction-error spec is refused
    common = dict(C=4, policy=policy, slots=300, seed=0, warmup=100,
                  multicast=MulticastSpec(0.9, 15.0), regime=Regime("linear", 0.05))
    for law in (LookaheadLaw.binomial(1, 0.5), LookaheadLaw.finite({0: 0.9, 1: 0.1}),
                LookaheadLaw.binomial(5, 0.0)):
        with pytest.raises(sim.SimConfigError, match=f"^law: policy {policy} needs a determ"):
            SimConfig(**common, law=law)
    # all of the law's mass on its tmax: the window it simulates
    SimConfig(**common, law=LookaheadLaw.finite({0: 0.0, 1: 1.0}))
    with pytest.raises(sim.SimConfigError, match=f"^pred_error: policy {policy} draws no"):
        SimConfig(**common, law=LookaheadLaw.deterministic(1),
                  pred_error=PredictionErrorSpec(0.9, 0.3, 1, Regime("linear", 0.6)))


class TestDrawLayout:
    """The fast path fills one buffer with a path's uniforms where the
    traffic generators draw them in consecutive calls: PCG64 fills in
    sequence, so both see the same numbers."""

    @given(st.integers(0, 2**64 - 1), st.integers(0, 3000), st.integers(0, 3000))
    def test_one_fill_equals_consecutive_calls(self, seed, n1, n2):
        one = np.random.default_rng(seed).random(n1 + n2)
        rng = np.random.default_rng(seed)
        assert np.array_equal(one, np.concatenate([rng.random(n1), rng.random(n2)]))

    @given(st.integers(0, 2**32), st.integers(0, 50), st.integers(1, 40), st.integers(0, 3))
    def test_path_fill_equals_the_generators_draws(self, seed, index, slots, streams):
        # the multicast fresh-demand uniforms, then `streams` Poisson streams
        rng = sim.path_rng(seed, index)
        parts = [rng.random(slots) for _ in range(1 + streams)]
        u = np.empty(slots * (1 + streams))
        sim.path_rng(seed, index).random(out=u)
        assert np.array_equal(u, np.concatenate(parts))


REFERENCE_CLASSES = {
    "reactive": ("default",), "edf": ("default",), "selfish": ("primary", "secondary"),
    "dynamic": ("primary", "secondary"), "multicast": ("multicast",),
    "pi2": ("multicast", "unicast"),
}


def reference_counts(cfg: SimConfig, index: int) -> dict[str, int]:
    """Post-warmup outage slots per class of path `index`, from the Python
    slot loop `serve_path_by_slot` of test_sched fed the uniforms of
    `path_rng` in the documented order: the multicast fresh demand by
    `binomial_quantiles`, each Poisson stream by `traffic.poisson` (numpy's
    search of the cdf window).  It shares no code with the fast path's
    plan, draws, counters or slot loop."""
    rng = sim.path_rng(cfg.seed, index)
    kw = {"f": {"dynamic": cfg.f, "pi2": 0.0}.get(cfg.policy, 1.0),
          "refill": cfg.policy == "pi2"}
    if cfg.policy in ("multicast", "pi2"):
        L, A = cfg.multicast.num_sources(cfg.C), cfg.multicast.source_prob()
        arrivals = np.diff(binomial_quantiles(rng.random(cfg.slots), L, A))
        kw["multicast_T"] = cfg.tmax
    elif cfg.pred_error is not None:
        lam_pred, lam_miss = cfg.pred_error.rates(cfg.C)
        arrivals = np.zeros((cfg.slots, cfg.pred_error.T + 1), dtype=np.int64)
        arrivals[:, -1] = poisson(rng, lam_pred, cfg.slots)
        arrivals[:, 0] += poisson(rng, lam_miss, cfg.slots)
    elif cfg.primary_rate is None:
        arrivals = np.zeros((cfg.slots, 1), dtype=np.int64)
    else:
        law = cfg.law
        if law is None or cfg.policy == "reactive":
            law = LookaheadLaw.deterministic(0)
        arrivals = np.zeros((cfg.slots, law.tmax + 1), dtype=np.int64)
        for k in range(law.tmin, law.tmax + 1):
            if law.pmf(k) > 0.0:
                arrivals[:, k] = poisson(rng, law.pmf(k) * cfg.primary_rate, cfg.slots)
    if cfg.policy == "reactive":  # every request is urgent
        arrivals = arrivals.sum(axis=1, keepdims=True)
    if cfg.policy in ("selfish", "dynamic"):
        kw["secondary"] = poisson(rng, mean_rate(cfg.secondary, cfg.C), cfg.slots)
    elif cfg.policy == "pi2":
        kw["secondary"] = poisson(rng, cfg.primary_rate or 0.0, cfg.slots)
    lost = serve_path_by_slot(arrivals, cfg.C, **kw)[cfg.effective_warmup :] > 0
    counts = dict(zip(REFERENCE_CLASSES[cfg.policy], lost.sum(axis=0).tolist()))
    if cfg.policy == "pi2":
        counts["combined"] = int(lost.any(axis=1).sum())
    return counts


@st.composite
def path_configs(draw):
    """A small config of any policy: no, deterministic, binomial or pmf
    windows (with zero entries), prediction error, rate overrides, C = 0
    and zero traffic among them.  Rates of 300 and 5000 give the kernel's
    inversion searches of many steps and fill every bucket of a deep
    backlog; larger capacities serve part of one (the unicast policies
    only: the reference's multicast demand takes O(L^2) time)."""
    policy = draw(st.sampled_from(sim.POLICIES))
    slots = draw(st.integers(1, 120))
    T = draw(st.integers(0, 4))
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=T + 1,
                            max_size=T + 1).filter(any))
    law = draw(st.sampled_from([
        None,
        LookaheadLaw.deterministic(T),
        LookaheadLaw.binomial(T, draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))),
        LookaheadLaw.finite({k: w / sum(weights) for k, w in enumerate(weights)}),
    ]))
    kind = draw(st.sampled_from(["linear", "poly"]))
    gamma = draw(st.floats(0.2, 0.9))
    cfg = dict(
        C=draw(st.integers(0, 6) | st.sampled_from(
            [16] if policy in ("multicast", "pi2") else [16, 320, 5200])),
        policy=policy, slots=slots, seed=draw(st.integers(0, 2**32)),
        warmup=draw(st.integers(0, slots - 1)), law=law, f=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    traffic = draw(st.sampled_from(["regime", "rate", "none", "pred_error"]))
    if traffic == "regime":
        cfg["regime"] = Regime(kind, gamma)
    elif traffic == "rate":
        cfg["rate"] = draw(st.sampled_from([0.0, 0.4, 2.5, 9.0, 300.0, 5000.0]))
    elif traffic == "pred_error":
        miss = draw(st.floats(0.0, 0.5))
        pred = 1.0 - miss + draw(st.floats(0.0, 0.9)) * (1.0 / gamma - 1.0)
        cfg["pred_error"] = PredictionErrorSpec(pred, miss, T, Regime("linear", gamma))
    if policy in ("selfish", "dynamic"):
        cfg["secondary"] = Regime(kind, gamma * draw(st.floats(0.05, 0.9)))
    if policy in ("multicast", "pi2"):
        cfg["multicast"] = MulticastSpec(draw(st.floats(0.1, 0.95)), draw(st.floats(0.3, 4.0)))
    try:
        return SimConfig(**cfg)
    except (sim.SimConfigError, TrafficSpecError):
        assume(False)


@pytest.mark.filterwarnings("ignore:offered load")
@settings(max_examples=300, deadline=None)
@given(path_configs(), st.integers(2, 4))
# paths whose counts the dynamic cap's ceiling, and pi2's refill, decide
@example(SimConfig(C=2, policy="dynamic", f=0.5, slots=60, seed=0, warmup=0,
                   regime=Regime("linear", 0.8), law=LookaheadLaw.deterministic(1),
                   secondary=Regime("linear", 0.1)), 2)
@example(SimConfig(C=2, policy="pi2", slots=60, seed=0, warmup=0, regime=Regime("linear", 0.3),
                   law=LookaheadLaw.deterministic(1), multicast=MulticastSpec(0.9, 1.0)), 2)
# windows far beyond the path, whose pending counts span its slots alone:
# outages of both classes, and a multicast path that can have none
@example(SimConfig(C=3, policy="dynamic", f=0.5, slots=8, seed=32, warmup=0, rate=2.7,
                   law=LookaheadLaw.finite({0: 0.3, 1: 0.2, 6: 0.1, 9: 0.2, 40: 0.2}),
                   secondary=Regime("linear", 0.09)), 2)
@example(SimConfig(C=1, policy="multicast", slots=6, seed=0, warmup=0,
                   law=LookaheadLaw.deterministic(30), multicast=MulticastSpec(0.9, 4.0)), 2)
def test_fast_path_equals_the_generators_served_by_the_slot_loop(cfg, n_paths):
    counted = cfg.slots - cfg.effective_warmup
    want = [reference_counts(cfg, i) for i in range(n_paths)]
    est = estimate_outage(cfg, n_paths)
    assert set(est) == set(want[0])
    for cls, e in est.items():
        assert e.per_path_values == tuple(w[cls] / counted for w in want)
    assert run_path(cfg, n_paths - 1).outage_slots == want[-1]


class TestSeeding:
    """Path i of a seed is the i-th block of 2**64 draws of the seed's one
    PCG64 stream, whichever paths an estimate runs and in what order."""

    @given(st.integers(0, 2**64 - 1), st.integers(0, 10**6))
    def test_path_is_a_block_of_the_seed_stream(self, seed, index):
        bits = np.random.PCG64(np.random.SeedSequence(seed))
        bits.advance(index * 2**64)
        assert np.array_equal(sim.path_rng(seed, index).random(5),
                              np.random.Generator(bits).random(5))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 10**6) | st.integers(2**63, 2**63 + 10**6),
           st.integers(0, 3000))
    def test_kernel_fill_is_the_path_stream(self, seed, index, n):
        # the kernel's own PCG64, from the seed's state words, draws numpy's doubles
        u, _ = serial_group(seed, [index], n)
        assert u.size == n
        assert np.array_equal(u, sim.path_rng(seed, index).random(n))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1),
           st.lists(st.integers(0, 5) | st.just(2**63), min_size=1, max_size=8))
    def test_a_chunk_in_any_order_reads_each_paths_block(self, seed, order):
        # with repeats: each path jumps from the seed state, not from the one before
        cfg = reactive_cfg(C=2, rate=1.5, regime=None, seed=seed, slots=300)
        u, counts = serial_group(seed, order, cfg.slots, [cfg])
        assert np.array_equal(u, sim.path_rng(seed, order[-1]).random(cfg.slots))
        for row, i in zip(counts, order):
            assert np.array_equal(row, sim._outage_counts([cfg], [i])[0])

    @pytest.mark.filterwarnings("ignore:offered load")
    @settings(max_examples=60, deadline=None)
    @given(path_configs(), st.integers(2, 4), st.integers(1, 3))
    def test_more_paths_extend_the_estimate(self, cfg, n, k):
        few, more = estimate_outage(cfg, n), estimate_outage(cfg, n + k)
        for cls, e in few.items():
            assert more[cls].per_path_values[:n] == e.per_path_values

    @pytest.mark.filterwarnings("ignore:offered load")
    @settings(max_examples=60, deadline=None)
    @given(path_configs(), st.integers(0, 5))
    def test_run_path_is_the_estimates_path(self, cfg, index):
        est = estimate_outage(cfg, index + 2)
        counted = cfg.slots - cfg.effective_warmup
        got = run_path(cfg, index).outage_slots
        assert {cls: e.per_path_values[index] for cls, e in est.items()} == {
            cls: v / counted for cls, v in got.items()}

    def test_run_path_index_counts_modulo_the_blocks(self):
        # as path_rng's: the seed's stream holds 2**64 blocks
        cfg = reactive_cfg(C=2, rate=1.5, regime=None, slots=300)
        assert run_path(cfg, -1).outage_slots == reference_counts(cfg, -1)
        assert run_path(cfg, 2**64 + 3) == run_path(cfg, 3)

    def test_paths_in_any_order_read_their_own_blocks(self, monkeypatch):
        cfg = reactive_cfg(C=2, rate=1.5, regime=None)
        rows = sim._outage_counts([cfg], range(6))[:, 0]
        assert rows[:, 0].any()
        for order in ([5, 0, 3], [2, 2, 1], [4]):
            assert np.array_equal(sim._outage_counts([cfg], order)[:, 0], rows[order])
        # above the floor, claimed by several workers, in any order, with
        # repeats
        four_cpus(monkeypatch)
        cfg = replace(cfg, slots=40000)
        rows = sim._outage_counts([cfg], range(6))[:, 0]
        assert rows[:, 0].all()
        for order in ([5, 4, 3, 2, 1, 0], [3, 3, 0, 0, 5, 5], [2, 2, 1, 1], [5, 0, 3], [4]):
            assert np.array_equal(sim._outage_counts([cfg], order)[:, 0], rows[order])
        assert sim._workers(6, cfg.slots) == 4

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_multicast_windows_and_pi2_see_the_same_fresh_demand_uniforms(self, seed):
        common = dict(C=4, slots=300, seed=seed, warmup=50, multicast=MulticastSpec(0.9, 15.0))
        cfgs = [
            SimConfig(**common, policy="multicast", law=LookaheadLaw.deterministic(T))
            for T in (0, 1, 2)
        ] + [SimConfig(**common, policy="pi2", regime=Regime("linear", 0.05),
                       law=LookaheadLaw.deterministic(1))]
        seen = [fresh_demand_uniforms([cfg], range(3)) for cfg in cfgs]
        want = [sim.path_rng(seed, i).random(300) for i in range(3)]
        for uniforms in seen:
            assert np.array_equal(uniforms, want)
        # as one group: one fill and one call per path
        assert np.array_equal(fresh_demand_uniforms(cfgs, range(3)), want)


def four_cpus(monkeypatch):
    """Four usable CPUs, whatever the machine has: more workers than cores
    on a small one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})


class TestWorkers:
    """A group's workers, the calling thread and the helper threads that
    one `group_run` call starts and joins, claim its paths one at a time; a
    path's counts depend only on (seed, path index)."""

    def test_workers_per_estimate(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert sim._workers(20, 1000) == 1  # one canned-figure capacity stays serial
        assert sim._workers(20, 5 * 1000) == 2  # a one-curve figure runs on both CPUs
        assert sim._workers(100, 1000) == 2  # and so does simulate's default estimate
        assert sim._workers(1000, 1000) == 2
        assert sim._workers(20, 10 * 1000) == 2  # and a figure of two curves
        assert sim._workers(8, 20000) == 2
        assert sim._workers(26, 1000) == 2  # the measured break-even
        assert sim._workers(24, 1000) == 1
        assert sim._workers(16, 2 * sim._SLOTS_PER_WORKER // 16) == 2
        assert sim._workers(16, 2 * sim._SLOTS_PER_WORKER // 16 - 1) == 1
        assert sim._workers(1, 10**7) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert sim._workers(8, 10**7) == 8  # at most one per path
        assert sim._workers(8, sim._SLOTS_PER_WORKER) == 8
        assert sim._workers(8, sim._SLOTS_PER_WORKER - 1) == 7

    @pytest.mark.parametrize("kw", [
        dict(policy="reactive", regime=Regime("linear", 0.8)),
        dict(policy="edf", regime=Regime("linear", 0.8), law=LookaheadLaw.binomial(5, 0.5)),
        dict(policy="dynamic", regime=Regime("linear", 0.6), secondary=Regime("linear", 0.1),
             law=LookaheadLaw.deterministic(2)),
        dict(policy="pi2", regime=Regime("linear", 0.05), law=LookaheadLaw.deterministic(1),
             multicast=MulticastSpec(0.9, 15.0)),
    ], ids=lambda kw: kw["policy"])
    def test_threaded_estimate_is_its_paths(self, kw, monkeypatch):
        four_cpus(monkeypatch)
        cfg = SimConfig(C=4, slots=60000, seed=3, warmup=100, **kw)
        assert sim._workers(5, cfg.slots) == 4
        threads = tasks()
        est = estimate_outage(cfg, 5)
        assert not new_tasks(threads)
        counted = cfg.slots - cfg.effective_warmup
        for i in range(5):
            got = run_path(cfg, i).outage_slots
            assert {cls: e.per_path_values[i] for cls, e in est.items()} == {
                cls: v / counted for cls, v in got.items()}
        assert all(e.p_hat > 0 for e in est.values())

    @pytest.mark.parametrize("n", [1, 2, 5, 6, 16, 17, 100])
    def test_workspace_owns_its_128_byte_blocks(self, n):
        # aligned, with 128 bytes of its own buffer before and after it, so
        # no other object shares a 128-byte block with it
        for _ in range(8):
            c = sim._workspace(n)
            start, base = c.ctypes.data, c.base.ctypes.data
            assert c.shape == (n,) and c.dtype == np.int64 and c.flags.c_contiguous
            assert start % 128 == 0
            assert start - base >= 128
            assert base + c.base.nbytes - (start + c.nbytes) >= 128

    def test_each_worker_is_handed_its_own_workspace(self, monkeypatch):
        four_cpus(monkeypatch)
        made, real_workspace = [], sim._workspace
        monkeypatch.setattr(sim, "_workspace", lambda n: made.append(real_workspace(n)) or made[-1])
        lib, handed = sched._kernel(), []

        class Spy:
            def __getattr__(self, name):
                return getattr(lib, name)

            @staticmethod
            def group_run(W, seed, paths, n, u, fill, K, config, rate, c, *rest):
                # u and c hold one address per worker
                handed.append([list((ctypes.c_void_p * len(made)).from_address(at))
                               for at in (u, c)])
                return lib.group_run(W, seed, paths, n, u, fill, K, config, rate, c, *rest)

        monkeypatch.setattr(sched, "_kernel", Spy)
        cfg = SimConfig(C=4, slots=40000, seed=3, warmup=100, policy="edf",
                        regime=Regime("linear", 0.8), law=LookaheadLaw.deterministic(5))
        assert sim._workers(8, cfg.slots) == 4
        sim._outage_counts([cfg], range(8))
        assert len(made) == 4 and all(c.size == 6 for c in made)
        [(uniforms, workspaces)] = handed
        assert workspaces == [c.ctypes.data for c in made]
        assert len(set(uniforms)) == 4  # and its own uniforms

    @pytest.mark.parametrize("cpus, n, slots, W", [(2, 1000, 1000, 2), (2, 100, 1000, 2),
                                                   (4, 7, 10000, 4), (4, 20, 1000, 1)])
    def test_one_kernel_call_per_worker(self, cpus, n, slots, W, monkeypatch):
        # the workers serve the whole group in one C call from the calling
        # thread, which starts its W - 1 helpers: none runs before it
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        cfg = reactive_cfg(C=8, regime=Regime("linear", 0.8), slots=slots)
        want = sim._outage_counts([cfg], range(n))
        assert want[:, 0, 0].all()
        assert sim._workers(n, cfg.slots) == W
        lib, calls, before = sched._kernel(), [], tasks()

        class Spy:
            def __getattr__(self, name):
                return getattr(lib, name)

            @staticmethod
            def group_run(W, seed, paths, count, *rest):
                handed = list((ctypes.c_uint64 * count).from_address(paths))
                calls.append((threading.get_ident(), W, handed, len(tasks() - before)))
                return lib.group_run(W, seed, paths, count, *rest)

        monkeypatch.setattr(sched, "_kernel", Spy)
        # the kernel adds each path's counts to zeroed rows: a path served
        # twice would read doubled, one not served zero
        assert np.array_equal(sim._outage_counts([cfg], range(n)), want)
        assert calls == [(threading.get_ident(), W, list(range(n)), 0)]
        assert not new_tasks(before)

    @pytest.mark.filterwarnings("ignore:offered load")
    def test_no_helper_runs_while_planning_and_none_outlives_a_group(self, monkeypatch):
        # the table arena of rate 2.5 cannot be allocated, so its group
        # cannot be planned
        four_cpus(monkeypatch)
        common = dict(C=5, policy="reactive", slots=30000, seed=51, warmup=100)
        clean, also, unplanned, interrupted = (
            SimConfig(**common, rate=r) for r in (1.0, 1.5, 2.5, 2.0))
        real_streams, real_tables, before, helpers = sim._streams, sim.poisson_tables, tasks(), []

        def tables(means):
            if 2.5 in means:
                raise MemoryError("no room for the tables")
            return real_tables(means)

        def streams(cfg):  # each config's first step of planning
            helpers.append(len(tasks() - before))
            if cfg is interrupted:
                raise KeyboardInterrupt
            return real_streams(cfg)

        monkeypatch.setattr(sim, "_streams", streams)
        monkeypatch.setattr(sim, "poisson_tables", tables)
        assert sim._outage_counts([clean, also], range(5))[:, :, 0].all()
        assert helpers == [0, 0] and not new_tasks(before)
        for cfgs, error, match in (([clean, also, unplanned], MemoryError, "no room"),
                                   ([clean, interrupted], KeyboardInterrupt, None)):
            helpers.clear()
            with pytest.raises(error, match=match):
                sim._outage_counts(cfgs, range(5))
            assert helpers == [0] * len(cfgs)
            assert not new_tasks(before)

    def test_any_worker_count_gives_the_serial_counts(self, monkeypatch):
        # 2, 4 and 8 workers on this machine, oversubscribed on a small one,
        # each path claimed once whatever its index or repeats
        common = dict(C=4, seed=6, slots=10000, warmup=100, law=LookaheadLaw.deterministic(1))
        cfgs = [SimConfig(**common, policy="edf", regime=Regime("linear", 0.8)),
                SimConfig(**common, policy="pi2", regime=Regime("linear", 0.05),
                          multicast=MulticastSpec(0.9, 15.0))]
        orders = [range(9), [2**63, 3, 3, 0, 2**63, 8, 1, 1, 5]]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        want = [sim._outage_counts(cfgs, order) for order in orders]
        assert all(w[:, :, 0].all() for w in want)
        before = tasks()
        for cpus in (2, 4, 8):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            for order, counts in zip(orders, want):
                assert sim._workers(len(order), 2 * common["slots"]) == cpus
                got = []
                worker = threading.Thread(target=lambda: got.extend((
                    sim._outage_counts(cfgs, order),
                    new_tasks(before | {str(threading.get_native_id())}))))
                worker.start()
                worker.join(timeout=60)
                assert not worker.is_alive()
                assert np.array_equal(got[0], counts)
                assert got[1] == set()  # its helpers joined

    def test_helpers_sleep_while_a_slow_group_is_planned(self, monkeypatch):
        # no helper exists until the group runs, so none spends CPU meanwhile
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = reactive_cfg(regime=Regime("linear", 0.8), slots=20000)
        assert sim._workers(8, cfg.slots) == 2
        real_plan = sim._plan_group
        monkeypatch.setattr(sim, "_plan_group", lambda *args: time.sleep(0.3) or real_plan(*args))
        start = time.process_time()
        sim._outage_counts([cfg], range(8))
        assert time.process_time() - start < 0.1

    def test_helpers_block_every_signal(self, monkeypatch):
        # a watcher thread samples the threads while group_run runs, the GIL
        # released: exactly W - 1 helpers, each blocking every signal, so
        # that the SIGINT the watcher sends the process lands on the Python
        # main thread, which raises KeyboardInterrupt once the call returns
        every = sum(1 << (sig - 1) for sig in signal.valid_signals()
                    if sig not in (signal.SIGKILL, signal.SIGSTOP))
        lib, running, done, called = sched._kernel(), threading.Event(), threading.Event(), []

        def blocked(tid):
            with open(f"/proc/self/task/{tid}/status") as status:
                text = status.read()
            return int(re.search(r"^SigBlk:\s*([0-9a-f]+)$", text, re.M).group(1), 16)

        class Spy:
            def __getattr__(self, name):
                return getattr(lib, name)

            @staticmethod
            def group_run(*args):
                called.append(tasks())
                running.set()
                try:
                    return lib.group_run(*args)
                finally:
                    done.set()

        def watch(W, before, seen):
            signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            running.wait(60)
            mine, sent = str(threading.get_native_id()), False
            while not done.is_set():
                helpers = tasks() - before - {mine}
                with contextlib.suppress(OSError):  # a helper that exited meanwhile
                    seen.append((len(helpers), [blocked(tid) for tid in helpers]))
                    if len(helpers) == W - 1 and not sent:
                        os.kill(os.getpid(), signal.SIGINT)
                        sent = True
                time.sleep(0.0005)

        monkeypatch.setattr(sched, "_kernel", Spy)
        # 64 paths of 300 000 reactive slots: ~0.2 s of CPU, so that a call
        # lasts well over 50 ms on a few cores and the sampling sees it
        cfg = reactive_cfg(regime=Regime("linear", 0.8), slots=300_000)
        main_mask = blocked(threading.get_native_id())
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            for W in (2, 4):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(W)))
                assert sim._workers(64, cfg.slots) == W
                running.clear()
                done.clear()
                called.clear()
                before, seen = tasks(), []
                watcher = threading.Thread(target=watch, args=(W, before, seen))
                watcher.start()
                with pytest.raises(KeyboardInterrupt):
                    sim._outage_counts([cfg], range(64))
                watcher.join(60)
                assert not watcher.is_alive()
                # no helper before the call: the watcher is the one new thread
                assert [new - before for new in called] == [{str(watcher.native_id)}]
                assert max(n for n, _ in seen) == W - 1
                assert all(mask & every == every for _, masks in seen for mask in masks)
                assert blocked(threading.get_native_id()) == main_mask
                assert not new_tasks(before)
        finally:
            signal.signal(signal.SIGINT, handler)


@st.composite
def groups(draw):
    """One to five configs of `path_configs`, sharing one seed."""
    seed = draw(st.integers(0, 2**32))
    return [replace(cfg, seed=seed) for cfg in draw(st.lists(path_configs(), min_size=1,
                                                              max_size=5))]


class TestGroups:
    """A group of configs of one seed fills each path's uniforms once and
    serves the path under every config in one kernel call; each config
    reads the uniforms it reads alone."""

    @pytest.mark.filterwarnings("ignore:offered load")
    @settings(max_examples=150, deadline=None)
    @given(groups(), st.integers(2, 4))
    def test_each_config_of_a_group_is_its_estimate_alone(self, cfgs, n_paths):
        alone = [estimate_outage(cfg, n_paths) for cfg in cfgs]
        assert estimate_outages(cfgs, n_paths) == alone
        for cfg, est in zip(cfgs, alone):
            counted = cfg.slots - cfg.effective_warmup
            for i in range(n_paths):
                got = run_path(cfg, i).outage_slots
                assert {cls: e.per_path_values[i] for cls, e in est.items()} == {
                    cls: v / counted for cls, v in got.items()}

    def test_threaded_group_is_its_configs_alone(self, monkeypatch):
        # 8 paths of 19 000 slots summed over the group: 8 workers on 8
        # faked CPUs, more threads than cores, so that they claim
        # interleaved paths, where each config alone would run on fewer
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        common = dict(C=4, seed=9, warmup=100)
        cfgs = [
            SimConfig(**common, slots=6000, policy="reactive", regime=Regime("linear", 0.8)),
            SimConfig(**common, slots=4000, policy="edf", regime=Regime("linear", 0.8),
                      law=LookaheadLaw.binomial(5, 0.5)),
            SimConfig(**common, slots=5000, policy="pi2", regime=Regime("linear", 0.05),
                      law=LookaheadLaw.deterministic(1), multicast=MulticastSpec(0.9, 15.0)),
            SimConfig(**common, slots=4000, policy="dynamic", f=0.3,
                      regime=Regime("linear", 0.6), secondary=Regime("linear", 0.1),
                      law=LookaheadLaw.deterministic(2)),
        ]
        assert sim._workers(8, sum(cfg.slots for cfg in cfgs)) == 8
        assert all(sim._workers(8, cfg.slots) < 8 for cfg in cfgs)
        threads = tasks()
        group = estimate_outages(cfgs, 8)
        assert not new_tasks(threads)
        assert group == [estimate_outage(cfg, 8) for cfg in cfgs]
        assert all(e.p_hat > 0 for est in group for e in est.values())

    def test_configs_under_and_over_the_table_budget_draw_as_the_walk(self, monkeypatch):
        # L = 60 sources fit the table budget; L = 12 000 (theta 3000) do
        # not, and their slots walk the pmf; with no table at all, every
        # slot walks it
        common = dict(C=4, seed=5, slots=600, warmup=50, law=LookaheadLaw.deterministic(1))
        cfgs = [
            SimConfig(**common, policy=policy, multicast=MulticastSpec(0.9, theta),
                      regime=Regime("linear", 0.05) if policy == "pi2" else None)
            for policy in ("multicast", "pi2") for theta in (15.0, 3000.0)
        ]
        records = sim._plan_group(cfgs).records
        # the record's IDLE: the table rows' address, or 0 for the walk
        assert records.shape == (4, 9)
        assert [bool(r[-1]) for r in records] == [True, False] * 2
        counts = sim._outage_counts(cfgs, range(4))
        assert counts[:, :, 0].all()
        monkeypatch.setattr(sim, "binomial_table", lambda L, A: None)
        assert np.array_equal(sim._outage_counts(cfgs, range(4)), counts)

    def test_sweep_is_one_group(self, monkeypatch):
        cfg = reactive_cfg(regime=Regime("linear", 0.8), slots=2000)
        calls, real = [], sim._outage_counts
        monkeypatch.setattr(sim, "_outage_counts",
                            lambda cfgs, paths: calls.append(len(cfgs)) or real(cfgs, paths))
        res = sweep_capacity(cfg, [4, 8, 16], 5)
        monkeypatch.undo()
        assert calls == [3]
        assert res == [(C, estimate_outage(replace(cfg, C=C), 5)) for C in (4, 8, 16)]

    def test_configs_must_share_their_seed(self):
        with pytest.raises(sim.SimConfigError, match="share their seed"):
            estimate_outages([reactive_cfg(seed=1), reactive_cfg(seed=2)], 3)

    @pytest.mark.filterwarnings("ignore:offered load")
    def test_errors_come_in_serial_order(self, monkeypatch):
        # a config that planning would refuse is refused where it is made,
        # with planning's message, before any path of its group runs:
        # selfish at C = 0, and Poisson means the table builder refuses
        # (traffic.MAX_MEAN is 1e9); the first refused config in group order
        four_cpus(monkeypatch)
        common = dict(C=5, policy="reactive", slots=30000, seed=51, warmup=100)
        clean, late, early = (({**common, "rate": r}, None) for r in (1.0, 3.5, 4.0))
        unplanned = (dict(C=0, policy="selfish", slots=30000, seed=51, warmup=100,
                          regime=Regime("linear", 0.6), secondary=Regime("linear", 0.1)),
                     "capacity must be >= 1, got 0")
        refused = [({**common, "rate": r}, refusal) for r, refusal in (
            (math.nan, "Poisson mean must be finite and >= 0, got nan"),
            (-1.0, "Poisson mean must be finite and >= 0, got -1.0"),
            (2e9, "Poisson mean 2e+09 exceeds the largest, 1e+09"))]
        for case in ([late, unplanned], [clean, unplanned, late], [unplanned, early],
                     *([first, mean, late] for first in (clean, early) for mean in refused)):
            refusal = next(refusal for _, refusal in case if refusal)
            threads = tasks()
            with pytest.raises(sim.SimConfigError, match=f"^{re.escape(refusal)}$"):
                estimate_outages([SimConfig(**kw) for kw, _ in case], 5)
            assert not new_tasks(threads)

    def test_a_group_builds_each_mean_once_and_its_own_tables(self, monkeypatch):
        # the reactive curve and each deterministic window draw the same
        # mean at a capacity, as the curves of fig4a do; a binomial window
        # draws one stream per column
        built, real = [], sim.poisson_tables

        def tables(means):
            built.append((list(means), real(means)))
            return built[-1][1]

        monkeypatch.setattr(sim, "poisson_tables", tables)
        common = dict(slots=1100, seed=3, warmup=100, regime=Regime("linear", 0.8))
        cfgs = [SimConfig(**common, C=C, policy="reactive") for C in (4, 8)] + [
            SimConfig(**common, C=C, policy="edf", law=law) for C in (4, 8)
            for law in (LookaheadLaw.deterministic(1), LookaheadLaw.deterministic(5),
                        LookaheadLaw.binomial(5, 0.5))]
        counts = sim._outage_counts(cfgs, range(3))
        streams = [mu for cfg in cfgs for _, mu in sim._streams(cfg)[1]]
        ((means, (_, F, g)),) = built
        assert means == list(dict.fromkeys(streams))  # each distinct mean once, by first use
        # the binomial columns' 3.2 / 32 and 6.4 / 32 times 1, 5, 10, 10, 5, 1
        assert means == [3.2, 6.4, 0.1, 0.5, 1.0, 0.2, 2.0] and len(streams) == 18
        assert F.size == g.size == sum(poisson_table(mu)[1].size for mu in means)
        # the next group builds its own tables, and counts as the first did
        assert np.array_equal(sim._outage_counts(cfgs, range(3)), counts)
        assert len(built) == 2 and built[1][0] == means and built[1][1][1] is not F
