"""Monte Carlo engine: sample paths and outage estimation.

A path draws the arrivals of all its slots up front and hands them to the
one service kernel, `sched.serve_path`, whose compiled slot loop runs every
slot of the path.
A slot is an outage for a class iff at least one request of that class
expires in it; the per-path outage ratio divides by all post-warmup slots.
Estimates average path ratios and report the standard error across paths.

Seeding uses a counter-based split of the master seed so that path i sees
the same randomness regardless of how many paths are run.  A path draws in
a fixed order: the primary arrivals (the multicast presence matrix, or the
unicast Poisson columns by look-ahead, predicted before missed), then the
secondary; each Poisson count takes exactly one uniform of the stream
(`traffic.poisson`).  So two configs sharing (seed, path index) and the
same draw layout see identical arrivals (paired comparisons across policies
and look-ahead windows): reactive and every deterministic window see the
same per-slot totals, the curves of one two-class figure the same primary
and secondary counts, and multicast windows the same presence matrix,
whose draws do not depend on T.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from proactivenet import sched
from proactivenet.sched import PathOverflowError  # noqa: F401  (raised by run_path)
from proactivenet.traffic import (
    LookaheadLaw,
    MulticastSpec,
    PredictionErrorSpec,
    Regime,
    TrafficSpecError,
    mean_rate,
    multicast_presence,
    poisson,
    prediction_error_counts,
    unicast_counts,
)

REACTIVE = "reactive"
EDF = "edf"
SELFISH = "selfish"
DYNAMIC = "dynamic"
MULTICAST = "multicast"
PI2 = "pi2"

POLICIES = (REACTIVE, EDF, SELFISH, DYNAMIC, MULTICAST, PI2)


class SimConfigError(ValueError):
    pass


def default_warmup(tmax: int) -> int:
    return max(100, 10 * (tmax + 1))


@dataclass(frozen=True)
class SimConfig:
    """One simulation setup.

    Traffic roles are optional and policy-dependent: `regime`+`law` drive
    the single-class policies (reactive ignores the law); `rate` overrides
    the regime's mean for stress runs at or beyond the critical load, which
    the scaling regimes exclude by construction; `secondary` adds
    an urgent secondary class for the two-class policies, its rate factor
    below the primary's, `pred_error`
    replaces regime/law for imperfect-prediction runs, `multicast` (plus
    optionally `regime` as the unicast stream for pi2) drives the
    multicast policies.  `f` in [0, 1] is the dynamic primary's share of
    its non-urgent backlog.
    """

    C: int
    policy: str
    slots: int
    seed: int
    warmup: int | None = None
    regime: Regime | None = None
    rate: float | None = None
    law: LookaheadLaw | None = None
    secondary: Regime | None = None
    pred_error: PredictionErrorSpec | None = None
    multicast: MulticastSpec | None = None
    f: float = 0.5

    def __post_init__(self):
        if self.C < 0:
            raise SimConfigError("C must be nonnegative")
        if self.policy not in POLICIES:
            raise SimConfigError(f"unknown policy {self.policy!r}")
        if self.slots < 1:
            raise SimConfigError("slots must be positive")
        if not 0.0 <= self.f <= 1.0:
            raise SimConfigError(f"f must lie in [0,1], got {self.f}")
        if self.effective_warmup >= self.slots:
            raise SimConfigError("slots must exceed warmup")
        if self.policy in (SELFISH, DYNAMIC):
            if self.secondary is None:
                raise SimConfigError(f"policy {self.policy} needs a secondary traffic spec")
            if self.regime is not None and not self.secondary.gamma < self.regime.gamma:
                raise SimConfigError(
                    f"secondary rate factor {self.secondary.gamma} must be below "
                    f"primary {self.regime.gamma}"
                )
        if self.policy in (MULTICAST, PI2) and self.multicast is None:
            raise SimConfigError(f"policy {self.policy} needs a multicast spec")
        self.check_stability()

    @property
    def tmax(self) -> int:
        if self.pred_error is not None:
            return self.pred_error.T
        if self.law is not None and self.policy != REACTIVE:
            return self.law.tmax
        return 0

    @property
    def primary_rate(self) -> float | None:
        """Mean arrivals per slot of the primary stream, honoring `rate`."""
        if self.rate is not None:
            return self.rate
        if self.regime is None:
            return None
        if self.C < 1:
            return 0.0
        return mean_rate(self.regime, self.C)

    @property
    def effective_warmup(self) -> int:
        if self.warmup is not None:
            return self.warmup
        return default_warmup(self.tmax)

    def check_stability(self) -> None:
        """Warn when the rates of the streams the policy draws exceed
        capacity; reject inconsistent pred_error rates."""
        if self.C == 0:
            return
        load = 0.0 if self.policy == MULTICAST else (self.primary_rate or 0.0)
        if self.policy in (SELFISH, DYNAMIC):
            load += mean_rate(self.secondary, self.C)
        if self.pred_error is not None:
            try:
                rates = self.pred_error.rates(self.C)
            except TrafficSpecError as exc:
                raise SimConfigError(str(exc)) from exc
            if self.policy not in (MULTICAST, PI2):
                load += sum(rates)
        if self.policy in (MULTICAST, PI2):
            L = self.multicast.num_sources(self.C)
            load += L * self.multicast.source_prob()
        if load >= self.C:
            warnings.warn(
                f"offered load {load:.4g} >= capacity {self.C}; run is unstable "
                "but still well-defined",
                stacklevel=2,
            )


@dataclass(frozen=True)
class PathResult:
    """Outage counts of one sample path, post-warmup slots only."""

    outage_slots: dict[str, int]
    total_counted_slots: int

    def __post_init__(self):
        for cls, cnt in self.outage_slots.items():
            if not 0 <= cnt <= self.total_counted_slots:
                raise ValueError(f"outage count for {cls!r} out of range")

    def ratio(self, cls: str) -> float:
        return self.outage_slots[cls] / self.total_counted_slots


@dataclass(frozen=True)
class OutageEstimate:
    """Mean outage ratio across paths with its standard error."""

    p_hat: float
    stderr: float
    n_paths: int
    per_path_values: tuple[float, ...]

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError("p_hat must lie in [0,1]")

    @classmethod
    def from_values(cls, values: list[float]) -> "OutageEstimate":
        arr = np.asarray(values, dtype=float)
        n = len(arr)
        se = float(arr.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return cls(
            p_hat=float(arr.mean()), stderr=se, n_paths=n, per_path_values=tuple(arr)
        )


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Counter-split RNG: adding paths never perturbs earlier paths."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, path_index)))


# outage classes of the kernel's expired columns, per policy
_CLASSES = {
    REACTIVE: ("default",),
    EDF: ("default",),
    SELFISH: ("primary", "secondary"),
    DYNAMIC: ("primary", "secondary"),
    MULTICAST: ("multicast",),
    PI2: ("multicast", "unicast"),
}


def run_path(cfg: SimConfig, seed_index: int = 0) -> PathResult:
    """Execute one sample path and count post-warmup outage slots per class.

    Deterministic given (cfg.seed, seed_index).  Raises PathOverflowError if
    the pending backlog exceeds the overflow guard.
    """
    rng = path_rng(cfg.seed, seed_index)
    multicast_T = None
    secondary = None
    if cfg.policy in (MULTICAST, PI2):
        arrivals = multicast_presence(cfg.multicast, cfg.C, rng, cfg.slots)
        multicast_T = cfg.tmax
    else:
        arrivals = _unicast_arrivals(cfg, rng)
    if cfg.policy in (SELFISH, DYNAMIC):
        secondary = poisson(rng, mean_rate(cfg.secondary, cfg.C), cfg.slots)
    elif cfg.policy == PI2:
        secondary = poisson(rng, cfg.primary_rate or 0.0, cfg.slots)
    expired = sched.serve_path(
        arrivals,
        cfg.C,
        multicast_T=multicast_T,
        f={DYNAMIC: cfg.f, PI2: 0.0}.get(cfg.policy, 1.0),
        secondary=secondary,
        refill=cfg.policy == PI2,
    )
    w = cfg.effective_warmup
    flags = dict(zip(_CLASSES[cfg.policy], (expired[w:] > 0).T))
    if cfg.policy == PI2:
        flags["combined"] = flags["multicast"] | flags["unicast"]
    return PathResult(
        outage_slots={cls: int(v.sum()) for cls, v in flags.items()},
        total_counted_slots=cfg.slots - w,
    )


def _unicast_arrivals(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """(slots, T+1) primary arrival counts; a reactive run sees every
    request as urgent."""
    if cfg.pred_error is not None:
        out = prediction_error_counts(cfg.pred_error, cfg.C, rng, cfg.slots)
    elif cfg.primary_rate is None:
        out = np.zeros((cfg.slots, 1), dtype=np.int64)
    else:
        law = cfg.law
        if law is None or cfg.policy == REACTIVE:
            law = LookaheadLaw.deterministic(0)
        out = unicast_counts(cfg.primary_rate, law, rng, cfg.slots)
    if cfg.policy == REACTIVE:
        return out.sum(axis=1, keepdims=True)
    return out


def estimate_outage(cfg: SimConfig, n_paths: int) -> dict[str, OutageEstimate]:
    """Average per-path outage ratios over independent sub-seeded paths."""
    if n_paths < 2:
        raise SimConfigError("n_paths must be >= 2")
    values: dict[str, list[float]] = {}
    for i in range(n_paths):
        res = run_path(cfg, i)
        for cls in res.outage_slots:
            values.setdefault(cls, []).append(res.ratio(cls))
    return {cls: OutageEstimate.from_values(v) for cls, v in values.items()}


def sweep_capacity(
    cfg: SimConfig, C_grid: list[int], n_paths: int
) -> list[tuple[int, dict[str, OutageEstimate]]]:
    """One outage estimate per capacity, with common sub-seeding across the grid."""
    if any(b <= a for a, b in zip(C_grid, C_grid[1:])):
        raise SimConfigError("capacity grid must be strictly ascending")
    out = []
    for C in C_grid:
        out.append((C, estimate_outage(replace(cfg, C=C), n_paths)))
    return out


def estimate_diversity(curve: list[tuple[int, float]], regime: Regime) -> float:
    """Least-squares decay rate of -ln p against C (linear regime) or
    C ln C (polynomial regime).

    Requires at least 3 points with strictly positive outage estimates.
    """
    if len(curve) < 3:
        raise ValueError("need at least 3 (C, p_hat) points")
    C = np.asarray([c for c, _ in curve], dtype=float)
    p = np.asarray([v for _, v in curve], dtype=float)
    if np.any(p <= 0.0):
        raise ValueError(
            "p_hat = 0 in curve: capacity grid too large for the sample size "
            "(tail unobservable)"
        )
    x = C if regime.kind == "linear" else C * np.log(C)
    slope, _ = np.polyfit(x, -np.log(p), 1)
    return float(slope)
