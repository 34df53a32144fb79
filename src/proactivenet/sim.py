"""Monte Carlo engine: sample paths and outage estimation.

The unit of simulation is a group of configs of one seed
(`estimate_outages`): a path is one call of the compiled `path_outages`
(`_kernel.c`), from the uniforms of the path's random stream, filled once,
to its outage counts under every config of the group.  Under each it draws
each slot's arrivals and serves them by the rules of `sched.serve_path`.  A
slot is an outage for a class iff at least one request of that class
expires in it; the per-path outage ratio divides by all post-warmup slots.
Estimates average path ratios and report the standard error across paths;
the paths of a large group run on up to min(usable CPUs, paths) threads.

Path i of a seed is the i-th block of 2**64 draws of the seed's one PCG64
stream (`path_rng`), so it sees the same randomness however many paths run.
A path draws in a fixed order (`_streams`, layout `DRAW_LAYOUT`): for the
multicast policies one uniform per slot, its fresh demand Binomial(idle, A)
by inversion; then one Poisson stream per unicast look-ahead column
(predicted before missed), then the secondary, one uniform per count.  So
two configs sharing (seed, path index) see identical arrivals (paired
comparisons across policies and look-ahead windows): reactive and every
deterministic window the same per-slot totals, the curves of one two-class
figure the same counts, and multicast windows and pi2 the same uniforms.
Each config reads a prefix of the path's block, so a group fills the path
once, at its longest layout, and each config reads what it would alone.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np

from proactivenet import sched
from proactivenet.sched import PathOverflowError
from proactivenet.traffic import (
    LookaheadLaw,
    MulticastSpec,
    PredictionErrorSpec,
    Regime,
    TrafficSpecError,
    mean_rate,
    poisson_table,
)

REACTIVE = "reactive"
EDF = "edf"
SELFISH = "selfish"
DYNAMIC = "dynamic"
MULTICAST = "multicast"
PI2 = "pi2"

POLICIES = (REACTIVE, EDF, SELFISH, DYNAMIC, MULTICAST, PI2)

DRAW_LAYOUT = 3  # the order of a path's draws (module docstring), as manifests record it

# A thread costs ~70-100 us to start and join; the cheapest path slot
# (reactive, its uniform's fill included) ~6.3 ns on a 2-CPU Xeon, gcc 12.
# 2**16 path-slots per worker, summed over a group's configs (>= 0.41 ms),
# keep that cost under ~25 %, and splitting still saves more than it costs
# (there, 2**17 ran the canned figures ~7 % slower): a canned figure with
# one curve (5 capacities x 20 paths x 1000 slots) runs in the calling
# thread alone, one of several curves on threads.
_SLOTS_PER_WORKER = 1 << 16


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


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """The seed's PCG64 stream at path `path_index`'s block of 2**64 draws."""
    return np.random.Generator(np.random.PCG64(master_seed).advance(int(path_index) << 64))


# outage classes per policy, in the order of path_outages' three counters
_CLASSES = {
    REACTIVE: ("default",),
    EDF: ("default",),
    SELFISH: ("primary", "secondary"),
    DYNAMIC: ("primary", "secondary"),
    MULTICAST: ("multicast",),
    PI2: ("multicast", "unicast", "combined"),
}


def run_path(cfg: SimConfig, seed_index: int = 0) -> PathResult:
    """Execute one sample path and count post-warmup outage slots per class.

    Deterministic given (cfg.seed, seed_index).  Raises PathOverflowError if
    the pending backlog exceeds the overflow guard.
    """
    counts = map(int, _outage_counts([cfg], [seed_index])[0, 0])
    return PathResult(dict(zip(_CLASSES[cfg.policy], counts)), cfg.slots - cfg.effective_warmup)


def estimate_outage(cfg: SimConfig, n_paths: int) -> dict[str, OutageEstimate]:
    """Average per-path outage ratios over independent sub-seeded paths."""
    return estimate_outages([cfg], n_paths)[0]


def estimate_outages(cfgs: list[SimConfig], n_paths: int) -> list[dict[str, OutageEstimate]]:
    """`estimate_outage` of each config, its paths drawn once for all of them.

    The configs may differ in anything but their seed, which gives each
    path its uniforms: each config reads the ones it reads alone.
    """
    if n_paths < 2:
        raise SimConfigError("n_paths must be >= 2")
    counts = _outage_counts(cfgs, range(n_paths))
    counted = np.array([cfg.slots - cfg.effective_warmup for cfg in cfgs], dtype=np.int64)
    # (config, class, path): numpy sums each contiguous row of path ratios
    # as it sums the ratios of one estimate alone
    ratios = np.ascontiguousarray(counts.transpose(1, 2, 0)) / counted[:, None, None]
    p_hat, stderr = ratios.mean(axis=2), ratios.std(axis=2, ddof=1) / math.sqrt(n_paths)
    return [
        {cls: OutageEstimate(float(p_hat[k, j]), float(stderr[k, j]), n_paths,
                             tuple(ratios[k, j]))
         for j, cls in enumerate(_CLASSES[cfg.policy])}
        for k, cfg in enumerate(cfgs)
    ]


def _plan(cfg: SimConfig, table) -> tuple:
    """(int64 record, double record, fill, arrays): cfg's records for
    `path_outages`, their fields in the order of `_kernel.c`'s enum, the
    uniforms a path of it reads, and the arrays the records hold the
    addresses of, which must outlive every call.  `table(mu)` gives a
    stream's cdf window and guide table."""
    T, streams = _streams(cfg)
    tables = [table(mu) for _, mu in streams]
    rows = np.array([(k, lo, F.size, F.ctypes.data, g.ctypes.data)
                     for (k, _), (lo, F, g) in zip(streams, tables)], dtype=np.int64)
    L = cfg.multicast.num_sources(cfg.C) if cfg.policy in (MULTICAST, PI2) else 0
    A = cfg.multicast.source_prob() if L else 0.0
    p0 = np.empty(L + 1)  # (1 - A)^idle, the start of each fresh-demand draw
    if L:
        sched._kernel().binomial_start(L, A, p0.ctypes.data)
    secondary = cfg.policy in (SELFISH, DYNAMIC, PI2)
    record = (cfg.slots, L, rows.ctypes.data, len(streams) - secondary, secondary, T, cfg.C,
              sched.BACKLOG_OVERFLOW, cfg.effective_warmup, p0.ctypes.data)
    rate = (A, {DYNAMIC: cfg.f, PI2: 0.0}.get(cfg.policy, 1.0))
    return record, rate, cfg.slots * ((L > 0) + len(streams)), (tables, rows, p0)


def _outage_counts(cfgs: list[SimConfig], paths) -> np.ndarray:
    """(len(paths), len(cfgs), 3) post-warmup outage slots of the given path
    indices under each config: the primary's, the secondary's, and those
    with either.

    A path is one call of the compiled `path_outages`, from its block's
    uniforms in a reused buffer, filled at the group's longest layout, to
    its counters under every config.  The paths are split into contiguous
    chunks, one per worker (`_workers`), the calling thread the first; each
    worker advances its own PCG64 from path to path, modulo its period, so
    paths may come in any order and a path's counts depend only on (seed,
    path index), not on the worker that runs it.  An error is the one a
    serial run of the configs in turn, each over its paths in order, would
    raise: the first config's that cannot be planned or whose path
    overflows, that of its first overflowing path.
    """
    if len({cfg.seed for cfg in cfgs}) > 1:
        raise SimConfigError("the configs of a group must share their seed")
    plans, error = [], None
    table = functools.cache(poisson_table)  # streams of one mean share a table
    try:
        for cfg in cfgs:
            plans.append(_plan(cfg, table))
    except (ValueError, PathOverflowError) as exc:  # raised once the configs before it ran
        error = exc
    counts = np.zeros((len(paths), len(plans), 3), dtype=np.int64)
    trips = np.zeros((len(paths), len(plans)), dtype=np.int64)
    if plans:
        _run_paths(cfgs[:len(plans)], plans, paths, counts, trips)
    for k in range(len(plans)):
        rows = np.flatnonzero(trips[:, k])
        if rows.size:
            raise PathOverflowError(f"backlog overflow at slot {trips[rows[0], k]}")
    if error is not None:
        raise error
    return counts


def _run_paths(cfgs: list[SimConfig], plans: list, paths, counts: np.ndarray,
               trips: np.ndarray) -> None:
    """Fill counts and trips, rows by path, then by config, one
    `path_outages` call per path, on `_workers` threads."""
    records, rates, fills, _ = zip(*plans)
    records, rates = np.array(records, dtype=np.int64), np.array(rates)
    n, W = len(paths), _workers(len(paths), sum(cfg.slots for cfg in cfgs))
    kernel = sched._kernel().path_outages  # built and loaded before any worker starts
    # per worker, allocated here before any starts: its rows, PCG64, uniforms and workspace
    jobs = [(range(n * w // W, n * (w + 1) // W), np.random.PCG64(cfgs[0].seed),
             np.empty(max(fills)), np.empty(max(cfg.tmax for cfg in cfgs) + 1, dtype=np.int64))
            for w in range(W)]
    failed = [None] * W  # per worker: an exception that stopped it
    counts_at, trips_at = counts.ctypes.data, trips.ctypes.data

    def work(w: int) -> None:
        chunk, bits, u, c = jobs[w]
        fill, drawn = np.random.Generator(bits).random, 0  # drawn: the stream's position
        args = (u.ctypes.data, len(cfgs), records.ctypes.data, rates.ctypes.data, c.ctypes.data)
        try:
            for row in chunk:
                i = int(paths[row])
                bits.advance(((i << 64) - drawn) % (1 << 128))
                fill(out=u)
                drawn = (i << 64) + u.size
                kernel(*args, counts_at + counts.strides[0] * row,
                       trips_at + trips.strides[0] * row)
        except Exception as exc:  # re-raised by the caller
            failed[w] = exc

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, W)]
    for t in threads:
        t.start()
    try:
        work(0)
    finally:
        for t in threads:
            t.join()
    for exc in failed:
        if exc is not None:
            raise exc


def _workers(n_paths: int, slots: int) -> int:
    """Workers for n_paths paths of `slots` slots, summed over a group's
    configs: one per usable CPU, at most one per path, each with at least
    _SLOTS_PER_WORKER path-slots."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # the platform has no CPU affinity (not Linux)
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_paths, n_paths * slots // _SLOTS_PER_WORKER))


def _streams(cfg: SimConfig) -> tuple[int, list[tuple[int, float]]]:
    """(T, streams): the window of the path's pending-count vector, and the
    (look-ahead column, mean) of each Poisson stream the path draws.

    A path draws in a fixed order: one multicast uniform per slot, or one
    stream per primary column (by look-ahead, predicted before missed);
    then the secondary's, column -1.  A reactive path sees every request
    as urgent: T = 0.
    """
    T, streams = (0 if cfg.policy == REACTIVE else cfg.tmax), []
    unicast = cfg.policy not in (MULTICAST, PI2)
    if unicast and cfg.pred_error is not None:
        lam_pred, lam_miss = cfg.pred_error.rates(cfg.C)
        streams = [(T, lam_pred), (0, lam_miss)]
    elif unicast and cfg.primary_rate is not None:
        law = cfg.law if cfg.law and cfg.policy != REACTIVE else LookaheadLaw.deterministic(0)
        ks = [k for k in range(law.tmin, law.tmax + 1) if law.pmf(k) > 0.0]
        streams = [(k, law.pmf(k) * cfg.primary_rate) for k in ks]
    if cfg.policy in (SELFISH, DYNAMIC):
        streams.append((-1, mean_rate(cfg.secondary, cfg.C)))
    elif cfg.policy == PI2:
        streams.append((-1, cfg.primary_rate or 0.0))
    return T, streams


def sweep_capacity(
    cfg: SimConfig, C_grid: list[int], n_paths: int
) -> list[tuple[int, dict[str, OutageEstimate]]]:
    """One outage estimate per capacity, the grid one group of configs."""
    return list(zip(C_grid, estimate_outages(capacity_configs(cfg, C_grid), n_paths)))


def capacity_configs(cfg: SimConfig, C_grid: list[int]) -> list[SimConfig]:
    """cfg at each capacity of a strictly ascending grid."""
    if any(b <= a for a, b in zip(C_grid, C_grid[1:])):
        raise SimConfigError("capacity grid must be strictly ascending")
    return [replace(cfg, C=C) for C in C_grid]


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
