"""Arrival-process generators for the slotted network model.

All traffic is slot-batched: a generator produces, per slot, the number of
requests that become known to the scheduler, keyed by their look-ahead time
(slots until the request's deadline).  Multicast traffic is generated at the
data-source level, each source demanded with probability A per slot
(`multicast_presence`); a simulated path draws only a slot's fresh demand,
Binomial(idle, A) over its idle sources, from one uniform (see `sim`).

Two capacity-scaling regimes are supported: linear (mean gamma*C) and
polynomial (mean C**gamma).  The tail events are the quantity under study,
so no law is normal-approximated.  A Poisson count is one uniform u of the
path's stream, inverted through the Poisson cdf F: count = min{k : F(k) > u}
(`poisson_table`, inverted by `poisson`; `poisson_tables` builds the
tables of a whole group of streams in one kernel call, for the path kernel
of `sim`).  The inversion is exact up to the 2**-53 resolution of u: F is
summed over a window of about 24 sqrt(mu) + 60 counts around the mean,
and the mass it leaves out, below 1e-30, is far under that resolution.
From the same uniforms, `unicast_counts` and `prediction_error_counts`
draw the counts of a path's Poisson streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from proactivenet import sched

LINEAR = "linear"
POLY = "poly"
# the largest Poisson mean a table is built for, far below the int64 counts
MAX_MEAN = 1e9


class TrafficSpecError(ValueError):
    """Raised when a traffic specification is internally inconsistent."""


@dataclass(frozen=True)
class Regime:
    """Capacity-scaling regime of an arrival rate.

    kind   : "linear" (rate gamma*C) or "poly" (rate C**gamma)
    gamma  : scaling exponent/utilization factor, strictly inside (0, 1)
    """

    kind: str
    gamma: float

    def __post_init__(self):
        if self.kind not in (LINEAR, POLY):
            raise TrafficSpecError(f"unknown regime kind {self.kind!r}")
        if not 0.0 < self.gamma < 1.0:
            raise TrafficSpecError(f"gamma must lie in (0,1), got {self.gamma}")


def mean_rate(regime: Regime, C: int) -> float:
    """Mean arrivals per slot at capacity C under the given scaling regime."""
    if C < 1:
        raise TrafficSpecError(f"capacity must be >= 1, got {C}")
    if regime.kind == LINEAR:
        return regime.gamma * C
    return C ** regime.gamma


@dataclass(frozen=True)
class LookaheadLaw:
    """Distribution of the look-ahead time (slots between prediction and deadline).

    Supports a deterministic value, an arbitrary pmf on [tmin, tmax], and a
    binomial(tmax, p) law.  ``probs[i]`` is the probability of look-ahead
    ``tmin + i``.
    """

    tmin: int
    tmax: int
    probs: tuple[float, ...]

    def __post_init__(self):
        if not 0 <= self.tmin <= self.tmax:
            raise TrafficSpecError(f"need 0 <= tmin <= tmax, got {self.tmin}, {self.tmax}")
        if len(self.probs) != self.tmax - self.tmin + 1:
            raise TrafficSpecError("pmf length does not match [tmin, tmax]")
        if any(p < 0 for p in self.probs):
            raise TrafficSpecError("pmf entries must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise TrafficSpecError(f"pmf sums to {sum(self.probs)}, not 1")

    @classmethod
    def deterministic(cls, T: int) -> "LookaheadLaw":
        return cls(tmin=T, tmax=T, probs=(1.0,))

    @classmethod
    def finite(cls, pmf: dict[int, float]) -> "LookaheadLaw":
        """Build from a {lookahead: probability} mapping; zero entries allowed."""
        if not pmf:
            raise TrafficSpecError("empty pmf")
        tmin, tmax = min(pmf), max(pmf)
        probs = tuple(pmf.get(k, 0.0) for k in range(tmin, tmax + 1))
        return cls(tmin=tmin, tmax=tmax, probs=probs)

    @classmethod
    def binomial(cls, tmax: int, p: float) -> "LookaheadLaw":
        """Binomial(tmax, p) look-ahead on {0, ..., tmax}."""
        if not 0.0 <= p <= 1.0:
            raise TrafficSpecError(f"binomial p must be in [0,1], got {p}")
        probs = tuple(
            math.comb(tmax, k) * p**k * (1 - p) ** (tmax - k) for k in range(tmax + 1)
        )
        return cls(tmin=0, tmax=tmax, probs=probs)

    @property
    def is_deterministic(self) -> bool:
        return self.tmin == self.tmax

    def pmf(self, k: int) -> float:
        if self.tmin <= k <= self.tmax:
            return self.probs[k - self.tmin]
        return 0.0

    def cdf(self, k: int) -> float:
        """F_k = P(lookahead <= k)."""
        if k < self.tmin:
            return 0.0
        if k >= self.tmax:
            return 1.0
        return sum(self.probs[: k - self.tmin + 1])


@dataclass(frozen=True)
class PredictionErrorSpec:
    """Imperfectly predicted traffic: a predicted stream plus a missed stream.

    The predicted stream (rate factor ``alpha_pred``) carries look-ahead T and
    includes falsely predicted requests; the missed stream (``alpha_miss``) is
    urgent.  Rate factors are multiplicative on gamma (linear regime) or on
    the exponent (polynomial regime).
    """

    alpha_pred: float
    alpha_miss: float
    T: int
    regime: Regime

    def __post_init__(self):
        if self.T < 0:
            raise TrafficSpecError("prediction window T must be >= 0")

    def validate(self, C: int | None = None) -> None:
        """Check consistency of the rate factors at operating capacity C.

        Without C, only the rules that hold at every capacity are checked:
        the polynomial regime's rate window depends on C.
        """
        if not self.alpha_miss < 1.0:
            raise TrafficSpecError(
                f"alpha_miss={self.alpha_miss} must be < 1 (missed stream is a "
                "strict subset of the true arrivals)"
            )
        g = self.regime.gamma
        if self.regime.kind == LINEAR:
            tot = self.alpha_pred + self.alpha_miss
            if not 1.0 <= tot < 1.0 / g:
                raise TrafficSpecError(
                    f"alpha_pred+alpha_miss={tot} must lie in [1, 1/gamma={1/g:.6g})"
                )
        elif C is not None:
            total = C ** (self.alpha_pred * g) + C ** (self.alpha_miss * g)
            if not C**g <= total < C:
                raise TrafficSpecError(
                    f"combined predicted rate {total:.6g} outside [C^gamma={C**g:.6g}, C={C}) at C={C}"
                )

    def rates(self, C: int) -> tuple[float, float]:
        """(predicted rate, missed rate) at capacity C, after validation."""
        self.validate(C)
        g = self.regime.gamma
        if self.regime.kind == LINEAR:
            return self.alpha_pred * g * C, self.alpha_miss * g * C
        return C ** (self.alpha_pred * g), C ** (self.alpha_miss * g)


@dataclass(frozen=True)
class MulticastSpec:
    """Symmetric multicast demand over theta*C equally likely data sources."""

    gamma_m: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.gamma_m < 1.0:
            raise TrafficSpecError(f"gamma_m must be in (0,1), got {self.gamma_m}")
        if self.theta <= 0.0:
            raise TrafficSpecError(f"theta must be > 0, got {self.theta}")

    def num_sources(self, C: int) -> int:
        """L = round(theta*C), at least 1."""
        return max(1, round(self.theta * C))

    def source_prob(self) -> float:
        """Probability a given source is demanded in one slot: with
        per-source Poisson demand of rate gamma_m/theta per slot, this is
        1 - exp(-gamma_m / theta)."""
        return -math.expm1(-self.gamma_m / self.theta)


def poisson(rng: np.random.Generator, mu: float, n: int) -> np.ndarray:
    """n Poisson(mu) counts, each min{k : F(k) > u} for one uniform u of `rng`,
    found by numpy's search of F, independently of the kernel's guide table.

    Every call consumes exactly n uniforms of the stream, also at mu = 0.
    Raises as `poisson_table` does, before drawing.
    """
    lo, F, _ = poisson_table(mu)
    return lo + np.searchsorted(F, rng.random(n), side="right")


def poisson_table(mu: float) -> tuple[int, np.ndarray, np.ndarray]:
    """(lo, F, g): F[j] = P(X <= lo + j) for X ~ Poisson(mu), and g its guide
    table, through which the kernels invert a uniform: `poisson_tables`
    for the one mean mu, and raising as it does."""
    rows, F, g = poisson_tables([mu])
    return int(rows[0, 1]), F, g


def poisson_tables(means) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, F, g): the cdf window and guide table of each mean mu >= 0, back
    to back in one cdf arena F and one guide arena g, filled by one kernel
    call.

    rows[i] = (0, lo, m, address of F[at], address of g[at]) for means[i]:
    F[at + j] = P(X <= lo + j), j < m, for X ~ Poisson(mu), over the counts
    within 12 sqrt(mu) + 30 of mu, normalised to end at 1, and g[at..at+m-1]
    is its guide table.  The mass outside the window is below 1e-30 at
    every mu: it lies beyond 12 standard deviations, and beyond 30 counts
    from the mean.  A mean given twice is built twice.  Raises for the
    first mean, in order, that cannot be built (`check_mean`), before any is.
    """
    mus, windows, size = [], [], 0
    for mu in means:
        mu, lo, hi = check_mean(mu)
        mus.append(mu)
        windows.append((0, lo, hi + 1 - lo, 0, 0))
        size += hi + 1 - lo
    rows = np.array(windows, dtype=np.int64).reshape(-1, 5)
    mu, F, g = np.array(mus), np.empty(size), np.empty(size, dtype=np.int64)
    sched._kernel().poisson_tables(rows.shape[0], mu.ctypes.data, rows.ctypes.data,
                                   F.ctypes.data, g.ctypes.data)
    return rows, F, g


def check_mean(mu: float) -> tuple[float, int, int]:
    """(mu, lo, hi): mu as a float and its `poisson_tables` window, the
    counts lo..hi within 12 sqrt(mu) + 30 of mu, if the table can be built:
    raises ValueError for a negative or non-finite mu, or one above
    MAX_MEAN."""
    mu = float(mu)
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"Poisson mean must be finite and >= 0, got {mu}")
    if mu > MAX_MEAN:
        raise ValueError(f"Poisson mean {mu:.6g} exceeds the largest, {MAX_MEAN:.6g}")
    half = 12.0 * math.sqrt(mu) + 30.0
    return mu, max(0, math.floor(mu - half)), math.floor(mu + half)


# bytes the draw tables of one multicast config may take; a config whose
# tables would take more draws its fresh demand by the kernel's walk
TABLE_BYTES = 1 << 22


def binomial_table(L: int, A: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(rows, F, g): the tables through which a multicast path draws its
    fresh demand Binomial(idle, A) for idle = 0..L, 0 <= A <= 1, or None if
    they would take more than TABLE_BYTES.

    rows[idle] = (0, lo, m, address of F[at], address of g[at]): F[at..at+m-1]
    holds the cdf values that the kernel's pmf walk at idle sums from count
    lo, then 1.0 where the walk stops, and g[at..at+m-1] is their guide
    table.  So a table draw gives the walk's count bit for bit, in about one
    comparison.  Fig-multicast's L = 120 takes 3123 entries (50 KB); the
    entries grow about as L**1.5, so L = 1500 takes 2.5 MB.
    """
    cap, lib = (TABLE_BYTES - 40 * (L + 1)) // 16, sched._kernel()  # 40 bytes a row, 16 an entry
    if lib.binomial_least(L, A, cap) > cap:  # refused in O(L), as most tables over it are
        return None
    n = min(cap, (L + 1) * (L + 2) // 2)  # row idle takes at most idle + 1
    rows, F, g = np.empty((L + 1, 5), dtype=np.int64), np.empty(n), np.empty(n, np.int64)
    size = lib.binomial_table(L, A, cap, F.ctypes.data, g.ctypes.data, rows.ctypes.data)
    return None if size > cap else (rows, F[:size], g[:size])


def unicast_counts(
    lam: float, law: LookaheadLaw, rng: np.random.Generator, slots: int
) -> np.ndarray:
    """(slots, tmax+1) arrival matrix of Poisson(lam) arrivals per slot;
    column k = look-ahead-k count per slot.

    The split over look-ahead values is drawn as independent
    Poisson(p_k * lam) columns, in order of k, distributionally identical to
    a multinomial thinning of the total.  A deterministic law draws one
    Poisson(lam) stream, placed at column T, so that paths with different T
    but the same seed see identical arrival totals (paired-seed
    comparisons).
    """
    out = np.zeros((slots, law.tmax + 1), dtype=np.int64)
    for k in range(law.tmin, law.tmax + 1):
        p = law.pmf(k)
        if p > 0.0:
            out[:, k] = poisson(rng, p * lam, slots)
    return out


def prediction_error_counts(
    spec: PredictionErrorSpec, C: int, rng: np.random.Generator, slots: int
) -> np.ndarray:
    """(slots, T+1) arrival matrix: column 0 = missed, column T = predicted;
    the predicted stream is drawn first."""
    lam_pred, lam_miss = spec.rates(C)
    out = np.zeros((slots, spec.T + 1), dtype=np.int64)
    pred = poisson(rng, lam_pred, slots)
    miss = poisson(rng, lam_miss, slots)
    out[:, spec.T] += pred
    out[:, 0] += miss
    return out


def multicast_presence(
    spec: MulticastSpec, C: int, rng: np.random.Generator, slots: int
) -> np.ndarray:
    """(slots, L) boolean matrix of per-slot source demand indicators.

    Each of the L = round(theta*C) sources is independently present with
    probability A = 1 - exp(-gamma_m/theta), so a row sums to Binomial(L, A),
    the fresh demand a path draws from one uniform when no source is pending.
    """
    L = spec.num_sources(C)
    return rng.random((slots, L)) < spec.source_prob()
