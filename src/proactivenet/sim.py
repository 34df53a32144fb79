"""Monte Carlo engine: sample paths and outage estimation.

The unit of simulation is a group of configs of one seed
(`estimate_outages`): a path is one pass of the compiled `path_outages`
(`_kernel.c`), from the uniforms of the path's random stream, filled once,
to its outage counts under every config of the group.  Under each it draws
each slot's arrivals and serves them by the one EDF slot rule (`sched`).  A
slot is an outage for a class iff at least one request of that class
expires in it; the per-path outage ratio divides by all post-warmup slots.
Estimates average path ratios and report the standard error across paths.
A group is planned in one pass (`_plan_group`) into whole arrays: its
configs' records, their rates and their streams' rows, the cdf windows of
all its distinct Poisson means built by one `traffic.poisson_tables` call.
The paths of a large group run on up to min(usable CPUs, paths) workers in
one call of the compiled `group_run`: the calling thread and helper threads
that the call starts once the group is planned and joins before it
returns, none taking the GIL, claim the paths one at a time.

Path i of a seed is the i-th block of 2**64 draws of the seed's one PCG64
stream (`path_rng`), so it sees the same randomness however many paths run.
`group_run` draws it with its own copy of numpy's PCG64, from the state
numpy seeds for the seed (`SeedSequence`), jumped to the block: the same
doubles as `path_rng(seed, i).random`.
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

import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from proactivenet import sched
from proactivenet.traffic import (
    LookaheadLaw,
    MulticastSpec,
    PredictionErrorSpec,
    Regime,
    binomial_table,
    check_mean,
    mean_rate,
    poisson_tables,
)

REACTIVE = "reactive"
EDF = "edf"
SELFISH = "selfish"
DYNAMIC = "dynamic"
MULTICAST = "multicast"
PI2 = "pi2"

POLICIES = (REACTIVE, EDF, SELFISH, DYNAMIC, MULTICAST, PI2)

DRAW_LAYOUT = 3  # the order of a path's draws (module docstring), as manifests record it

# A split costs a helper's start and its join (measured below when the
# helpers started before planning; starting them in `group_run` cost no
# more).  On a 2-vCPU KVM Xeon (Python 3.11, gcc 12), each call after a
# 1 ms busy-wait (the other vCPU idle, as between groups), serial against
# two workers in process: reactive paths (the cheapest slot) broke even at
# about 26 000 path-slots (26 x 1000 slots: 194 us serial, 195 split; 22 x
# 1000: 174 against 181; 28 x 1000: 203 against 199) and gained beyond (100
# x 1000, simulate's default estimate: 570 against 388 us; 1000 x 1000: 5.2
# against 2.8 ms); dearer slots gain sooner (20 selfish paths x 1000 slots:
# 256 against 222 us).  So a worker takes at least 13 000 path-slots, summed
# over a group's configs: every canned figure group and sweep runs on both
# CPUs, a single canned capacity (20 x 1000) in the calling thread alone.
_SLOTS_PER_WORKER = 13_000
# Each worker's workspace c, written every slot, owns its 128-byte block
# (`_workspace`): with two workspaces 48 bytes apart, the two workers of
# fig5a's group (15 configs x 20 paths) took 4.2 ms instead of 2.3 ms there,
# the block bouncing between the cores.
_BLOCK = 128


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
        if self.policy in (MULTICAST, PI2):  # a fixed window, and no prediction error
            if self.multicast is None:
                raise SimConfigError(f"policy {self.policy} needs a multicast spec")
            if self.pred_error is not None:
                raise SimConfigError(f"pred_error: policy {self.policy} draws no prediction error")
            if self.law is not None and self.law.pmf(self.law.tmax) < 1.0:
                raise SimConfigError(f"law: policy {self.policy} needs a deterministic "
                                     f"look-ahead, got one on [{self.law.tmin}, {self.law.tmax}]")
        try:  # and what planning checks: each Poisson mean, a secondary's at C >= 1
            T, streams = _streams(self)
            self.check_stability(streams)
            largest = [(k, check_mean(mu)[2]) for k, mu in streams]
            # a request pends at most T + 1 slots, the secondary's none, and a
            # multicast path (no primary stream) at most its L sources, which
            # its walk counts in doubles, exact only below 2**53
            L = self.multicast.num_sources(self.C) if self.policy in (MULTICAST, PI2) else 0
            pending = L or (T + 1) * sum(hi for k, hi in largest if k >= 0)
            if pending >= (2**53 if L else 2**62):
                raise ValueError((f"L = {L} sources reach 2**53, past which the walk's doubles "
                                  "are inexact") if L else (f"T + 1 = {T + 1} slots of the "
                                  "primary's largest counts reach 2**62 pending requests"))
        except ValueError as exc:
            raise SimConfigError(str(exc)) from exc

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

    def check_stability(self, streams: list[tuple[int, float]]) -> None:
        """Warn when the mean arrivals of the streams the policy draws, its
        `_streams`, and its multicast demand exceed capacity."""
        if self.C == 0:
            return
        load = sum(mu for _, mu in streams)
        if self.policy in (MULTICAST, PI2):
            load += self.multicast.num_sources(self.C) * self.multicast.source_prob()
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

    Deterministic given (cfg.seed, seed_index).
    """
    # the seed's stream has 2**64 blocks, so path_rng's index counts modulo 2**64
    counts = map(int, _outage_counts([cfg], [int(seed_index) % (1 << 64)])[0, 0])
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


class _Plan(NamedTuple):
    """A group's configs planned for `group_run`, in order."""

    records: np.ndarray  # (K, 9) int64: per config, _kernel.c's enum fields (IDLE 0: walk)
    rates: np.ndarray  # (K, 2): per config, (A, f)
    fill: int  # the uniforms a path of the group reads
    window: int  # the largest config's T
    arrays: tuple  # what the records hold the addresses of: they must outlive every call


def _plan_group(cfgs: list[SimConfig]) -> _Plan:
    """The group's records for `path_outages`, each config's from its
    (T, streams) (`_streams`), which its construction checked.

    The tables of all the group's Poisson streams come from one
    `poisson_tables` call, one per distinct mean, and those of its
    multicast configs from one `binomial_table` call per (L, A), none past
    its budget, where the kernel walks the pmf.  No table outlives the plan.
    """
    planned = [(cfg, *_streams(cfg)) for cfg in cfgs]
    means = {}  # streams of one mean share its table: each mean once, by first use
    which = [means.setdefault(mu, len(means)) for _, _, streams in planned for _, mu in streams]
    tables, F, g = poisson_tables(means)
    rows = tables.take(which, axis=0)  # a (column, lo, m, F, g) row per stream, in draw order
    rows[:, 0] = [k for _, _, streams in planned for k, _ in streams]
    idle, records, rates, arrays = {}, [], [], [rows, F, g]
    fill = window = 0
    at = rows.ctypes.data
    for cfg, T, streams in planned:
        L, A, draws = 0, 0.0, 0
        if cfg.policy in (MULTICAST, PI2):
            L, A = cfg.multicast.num_sources(cfg.C), cfg.multicast.source_prob()
            if (L, A) not in idle:  # configs of one (L, A) share its tables
                binomial = binomial_table(L, A)  # None over the budget: the kernel walks
                arrays += binomial or ()
                idle[L, A] = binomial[0].ctypes.data if binomial else 0
            draws = idle[L, A]  # the record's IDLE
        secondary = cfg.policy in (SELFISH, DYNAMIC, PI2)
        records += (cfg.slots, L, at, len(streams) - secondary, secondary, T, cfg.C,
                    cfg.effective_warmup, draws)
        rates += (A, {DYNAMIC: cfg.f, PI2: 0.0}.get(cfg.policy, 1.0))
        at += 40 * len(streams)
        fill, window = max(fill, cfg.slots * ((L > 0) + len(streams))), max(window, T)
    return _Plan(np.array(records, dtype=np.int64).reshape(-1, 9),
                 np.array(rates).reshape(-1, 2), fill, window, tuple(arrays))


def _outage_counts(cfgs: list[SimConfig], paths) -> np.ndarray:
    """(len(paths), len(cfgs), 3) post-warmup outage slots of the given path
    indices under each config: the primary's, the secondary's, and those
    with either.

    A path is one pass of the compiled `path_outages`, from its block's
    uniforms in a reused buffer, filled at the group's longest layout, to
    its counters under every config.  Once the group is planned
    (`_plan_group`), it runs on `_workers` workers in one call of the
    compiled `group_run`, which starts the helpers, joins them before it
    returns, and jumps its PCG64 from the seed's state to each path's
    block: every worker, the calling thread the first, claims the paths one
    at a time, so paths may come in any order and a path's counts depend
    only on (seed, path index), not on the worker that runs it.
    """
    if len({cfg.seed for cfg in cfgs}) > 1:
        raise SimConfigError("the configs of a group must share their seed")
    index = np.array(paths, dtype=np.uint64)
    plan = _plan_group(cfgs)
    counts = np.zeros((index.size, len(plan.records), 3), dtype=np.int64)
    if cfgs:
        W = _workers(index.size, sum(cfg.slots for cfg in cfgs))
        _run_paths(W, cfgs[0].seed, plan, index, counts)
    return counts


def _run_paths(W: int, seed: int, plan: _Plan, index: np.ndarray, counts: np.ndarray) -> None:
    """Fill counts, rows by path, then by config, in one `group_run` call
    on W workers, each with its own uniforms and workspace; W = 1 starts no
    thread."""
    # the seed's PCG64 as numpy seeds it, whose blocks the kernel draws
    bits = np.random.PCG64(seed).state["state"]
    words = np.array(divmod(bits["state"], 1 << 64) + divmod(bits["inc"], 1 << 64),
                     dtype=np.uint64)
    u = [np.empty(plan.fill) for _ in range(W)]
    c = [_workspace(plan.window + 1) for _ in range(W)]
    # the kernel reads each worker's buffer through these addresses
    u_at, c_at = (np.array([a.ctypes.data for a in bufs], dtype=np.uintp) for bufs in (u, c))
    sched._kernel().group_run(W, words.ctypes.data, index.ctypes.data, index.size,
                              u_at.ctypes.data, plan.fill, len(plan.records),
                              plan.records.ctypes.data, plan.rates.ctypes.data,
                              c_at.ctypes.data, counts.ctypes.data)


def _workspace(n: int) -> np.ndarray:
    """n int64 entries of a path's workspace, starting on a 128-byte boundary
    with at least 128 bytes of their own buffer on either side: the kernel
    writes them every slot, and no other thread touches the 128-byte blocks
    (a pair of cache lines, as adjacent-line prefetch fetches them) they lie
    in."""
    pad = _BLOCK // 8
    buf = np.empty(n + 3 * pad, dtype=np.int64)
    start = pad + -buf.ctypes.data % _BLOCK // 8
    return buf[start:start + n]


def _workers(n_paths: int, slots: int) -> int:
    """Workers for n_paths paths of `slots` slots, summed over a group's
    configs: one per usable CPU, at most one per path, each with at least
    _SLOTS_PER_WORKER path-slots."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # the platform has no CPU affinity (not Linux)
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_paths, n_paths * slots // _SLOTS_PER_WORKER))


_URGENT = LookaheadLaw.deterministic(0)  # a reactive path's look-ahead


def _streams(cfg: SimConfig) -> tuple[int, list[tuple[int, float]]]:
    """(T, streams): the window of the path's pending-count vector, and the
    (look-ahead column, mean) of each Poisson stream the path draws.

    A path draws in a fixed order: one multicast uniform per slot, or one
    stream per primary column (by look-ahead, predicted before missed);
    then the secondary's, column -1.  A reactive path sees every request
    as urgent: T = 0.  T is at most the path's slots: a later deadline
    never comes within the path, and EDF serves it after every earlier one.
    """
    T, streams = (0 if cfg.policy == REACTIVE else cfg.tmax), []
    unicast = cfg.policy not in (MULTICAST, PI2)
    if unicast and cfg.pred_error is not None:
        lam_pred, lam_miss = cfg.pred_error.rates(cfg.C)
        streams = [(T, lam_pred), (0, lam_miss)]
    elif unicast and (rate := cfg.primary_rate) is not None:
        law = cfg.law if cfg.law and cfg.policy != REACTIVE else _URGENT
        streams = [(k, p * rate) for k, p in enumerate(law.probs, law.tmin) if p > 0.0]
    if cfg.policy in (SELFISH, DYNAMIC):
        streams.append((-1, mean_rate(cfg.secondary, cfg.C)))
    elif cfg.policy == PI2:
        streams.append((-1, cfg.primary_rate or 0.0))
    return min(T, cfg.slots), [(min(k, cfg.slots), mu) for k, mu in streams]


def sweep_capacity(
    cfg: SimConfig, C_grid: list[int], n_paths: int
) -> list[tuple[int, dict[str, OutageEstimate]]]:
    """One outage estimate per capacity, the grid one group of configs."""
    return list(zip(C_grid, estimate_outages(capacity_configs(cfg, C_grid), n_paths)))


def capacity_configs(cfg: SimConfig, C_grid: list[int]) -> list[SimConfig]:
    """cfg at each capacity of a strictly ascending grid, cfg itself at its own."""
    if any(b <= a for a, b in zip(C_grid, C_grid[1:])):
        raise SimConfigError("capacity grid must be strictly ascending")
    return [cfg if C == cfg.C else replace(cfg, C=C) for C in C_grid]


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
