import numpy as np
import pytest

from proactivenet import sched, sim
from proactivenet.analytic import poisson_tail
from proactivenet.sim import (
    OutageEstimate,
    SimConfig,
    estimate_diversity,
    estimate_outage,
    run_path,
    sweep_capacity,
)
from proactivenet.traffic import (
    LookaheadLaw,
    MulticastSpec,
    PredictionErrorSpec,
    Regime,
    mean_rate,
    multicast_presence,
    poisson,
    unicast_counts,
)

LIN05 = Regime("linear", 0.5)


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

    def test_scripted_overflow_trace(self):
        # 5 arrivals with a 1-slot window into C=2: 4 servable over two
        # slots, exactly one outage in the second slot
        outage = sched.serve_path(np.array([[0, 5], [0, 0], [0, 0]]), 2)[:, 0] > 0
        assert outage.sum() == 1
        assert outage.tolist() == [False, True, False]

    def test_reproducible(self):
        cfg = reactive_cfg()
        a, b = run_path(cfg, 3), run_path(cfg, 3)
        assert a.outage_slots == b.outage_slots
        # per slot: path 3's arrivals, drawn and served twice
        law = LookaheadLaw.deterministic(0)
        outage = [
            sched.serve_path(unicast_counts(2.0, law, sim.path_rng(cfg.seed, 3), cfg.slots), 4)
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
        selfish = sched.serve_path(arrivals, 6, secondary=secondary)
        dynamic = sched.serve_path(
            arrivals, 6, f=np.nextafter(1.0, 0.0), secondary=secondary
        )
        assert selfish[:, 0].any() and selfish[:, 1].any()
        assert np.array_equal(selfish, dynamic)

    @staticmethod
    def served_draws(cfg, monkeypatch, index=4):
        """The arrivals and secondary counts run_path hands the kernel."""
        seen = []

        def record(arrivals, C, **kw):
            seen.append((arrivals, kw.get("secondary")))
            return serve(arrivals, C, **kw)

        serve = sched.serve_path
        with monkeypatch.context() as m:
            m.setattr(sched, "serve_path", record)
            run_path(cfg, index)
        return seen[0]

    def test_reactive_and_edf_windows_see_equal_slot_totals(self, monkeypatch):
        common = dict(C=4, slots=1500, seed=21, warmup=100, regime=Regime("linear", 0.7))
        reactive, _ = self.served_draws(SimConfig(policy="reactive", **common), monkeypatch)
        assert reactive.shape == (1500, 1) and reactive.any()
        for T in (1, 2, 5):
            cfg = SimConfig(policy="edf", law=LookaheadLaw.deterministic(T), **common)
            edf, _ = self.served_draws(cfg, monkeypatch)
            assert edf.shape == (1500, T + 1)
            assert np.array_equal(edf.sum(axis=1), reactive[:, 0])

    def test_fig_dyn_curves_see_identical_draws(self, monkeypatch):
        # the three f curves of fig-dyn: dynamic at f = 0 and 0.5, selfish
        common = dict(
            C=8, slots=1200, seed=1, warmup=100, regime=Regime("linear", 0.6),
            law=LookaheadLaw.deterministic(4), secondary=Regime("linear", 0.1),
        )
        draws = [
            self.served_draws(SimConfig(**common, **kw), monkeypatch)
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

    Multicast serves pending sources by EDF, ties by source id.  pi2 serves
    urgent sources, then the urgent unicast stream, then later sources.
    """
    rng = sim.path_rng(cfg.seed, seed_index)
    pres = multicast_presence(cfg.multicast, cfg.C, rng, cfg.slots)
    uni = np.zeros(cfg.slots, dtype=np.int64)
    if cfg.policy == "pi2":
        uni = poisson(rng, mean_rate(cfg.regime, cfg.C), cfg.slots)
    T, C = cfg.law.tmax, cfg.C
    residual = np.full(pres.shape[1], -1)
    lost_m = np.zeros(cfg.slots, dtype=bool)
    lost_u = np.zeros(cfg.slots, dtype=bool)
    for n in range(cfg.slots):
        residual[pres[n] & (residual < 0)] = T
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
        for i in range(3):
            rng = sim.path_rng(cfg.seed, i)
            pres = multicast_presence(cfg.multicast, cfg.C, rng, 1000)
            kw = {}
            if policy == "pi2":
                kw = dict(f=0.0, secondary=poisson(rng, 0.2, 1000), refill=True)
            outage = sched.serve_path(pres, cfg.C, multicast_T=0, **kw)[:, 0] > 0
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


@pytest.mark.filterwarnings("ignore:offered load")
@pytest.mark.parametrize("policy", sim.POLICIES)
def test_overflow_guard_covers_every_policy(policy, monkeypatch):
    monkeypatch.setattr(sched, "BACKLOG_OVERFLOW", 2)
    cfg = SimConfig(
        C=8, policy=policy, slots=500, seed=0, warmup=10,
        regime=Regime("linear", 0.6), law=LookaheadLaw.deterministic(1),
        secondary=Regime("linear", 0.1), multicast=MulticastSpec(0.9, 15.0),
    )
    with pytest.raises(sim.PathOverflowError, match="backlog overflow at slot"):
        run_path(cfg)


def test_unstable_config_warns_not_raises():
    with pytest.warns(UserWarning, match="unstable"):
        SimConfig(C=2, policy="reactive", slots=500, seed=0, warmup=10, rate=2.0)
