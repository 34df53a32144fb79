"""Exact ground truth on small instances, independent of the simulator.

Three facilities:
  - stationary outage probabilities of the slotted system computed by
    state-space enumeration of a truncated Markov chain, stored as its
    successor table and solved by sparse power iteration; only reactive
    and deterministic-window EDF have a chain (no two-class, dynamic or
    multicast chain),
  - exact probabilities of the necessary / sufficient outage events that
    sandwich the simulated outage probability,
  - residual checks of every derived root constant against its defining
    equation.

These are the anti-regression backstop for both the simulator and the
closed forms: they share no code path with either.

scipy is imported only inside the functions that call it (here the lumped
arrival pmf and `TruncatedChain.matrix`), so importing this module loads no
scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from proactivenet import analytic
from proactivenet.analytic import Constant, poisson_tail
from proactivenet.sim import EDF, REACTIVE, SimConfig

if TYPE_CHECKING:
    from scipy import sparse


class OracleError(ValueError):
    pass


MAX_BYTES = 2**28
_PEAK_BYTES = 48  # tracemalloc peak of a build and solve, see _check_size


def _check_size(n_states: int, levels: int, buckets: int) -> None:
    """Refuse, before allocating anything, a chain whose build and solve
    need over MAX_BYTES: _PEAK_BYTES per entry of the (n, levels) successor
    table (the table and the sparse P and P^T made from it) and per state
    and bucket (the per-level work arrays)."""
    need = _PEAK_BYTES * n_states * (levels + buckets)
    if need > MAX_BYTES:
        raise OracleError(
            f"state space of {n_states} states needs ~{need / 2**20:.0f} MB, over "
            f"{MAX_BYTES / 2**20:.0f} MB; reduce C, T or the rate"
        )


def default_cap(lam: float, C: int, T: int) -> int:
    return math.ceil(lam + 12.0 * math.sqrt(lam)) + C * (T + 1)


def _poisson_pmf_lumped(lam: float, cap: int) -> np.ndarray:
    """pmf on {0..cap} with all tail mass P(X >= cap) lumped at cap."""
    from scipy.special import pdtr

    p = np.zeros(cap + 1)
    log_lam = math.log(lam) if lam else -math.inf
    for q in range(cap):  # in log space: exp(-lam) alone underflows above lam ~ 745
        p[q] = math.exp((q * log_lam if q else 0.0) - lam - math.lgamma(q + 1))
    p[cap] = poisson_tail(lam, cap - 1) if cap else 1.0
    # rescale to P(X < cap) (1 - tail unless it cancels): log rounding ~1e-11 at lam = 5000
    p[:cap] *= (1.0 - p[cap] if p[cap] <= 0.5 else pdtr(cap - 1, lam)) / (p[:cap].sum() or 1.0)
    return p


@dataclass(frozen=True)
class TruncatedChain:
    """Truncated chain over backlog states with its per-state outage law.
    From state i, q arrivals (probability weights[q]) lead to the one state
    transition[i, q]: an (n, cap+1) successor table, not an n x n matrix."""

    states: np.ndarray  # (n, buckets) backlog counts of each state
    transition: np.ndarray  # (n, cap+1) successor index per arrival level
    weights: np.ndarray  # (cap+1,) arrival pmf, tail lumped at cap
    outage_prob: np.ndarray
    truncation_mass: float

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise OracleError("arrival weights must sum to 1")
        if self.transition.shape != (len(self.states), len(self.weights)):
            raise OracleError("transition needs one successor per state and level")

    def matrix(self) -> sparse.csr_array:
        """The transition matrix P; arrival levels that reach one successor
        are summed."""
        from scipy import sparse

        n, levels = self.transition.shape
        rows = np.repeat(np.arange(n), levels)
        data = np.tile(self.weights, n)
        return sparse.csr_array((data, (rows, self.transition.ravel())), shape=(n, n))

    def stationary(self, tol: float = 1e-12, max_iter: int = 10**6) -> np.ndarray:
        """Power iteration pi <- pi P from the uniform vector.

        Steps shrink by a rate rho, read off the last two, so after an L1
        step d the fixed point is ~d rho / (1 - rho) away: stop once
        d < tol (1 - rho), or once d < tol stops shrinking (rounding).  For
        rho above ~0.99, rho is read off steps near the rounding floor and
        the error can exceed tol.
        """
        step = self.matrix().T.tocsr()
        pi = np.full(len(self.states), 1.0 / len(self.states))
        last = np.inf
        for _ in range(max_iter):
            nxt = step @ pi
            d = np.abs(nxt - pi).sum()
            rho = d / last
            if d < tol * (1.0 - rho) or (d < tol and rho >= 1.0):
                return nxt
            pi, last = nxt, d
        raise OracleError("power iteration did not converge")


def build_edf_chain(C: int, lam: float, T: int, cap: int) -> TruncatedChain:
    """Chain of the single-class EDF system with a deterministic look-ahead
    of T slots.

    State = backlog counts at residual deadlines 0..T-1 at slot start (the
    current slot's arrivals land at residual T).  Arrivals are truncated at
    `cap`, their tail mass P(X >= cap) lumped there and reported; no bucket
    can then exceed `cap`.
    """
    if T < 1:
        raise OracleError("build_edf_chain needs T >= 1; reactive is stateless")
    shape = (cap + 1,) * T
    n_states = (cap + 1) ** T
    _check_size(n_states, cap + 1, T + 1)
    weights = _poisson_pmf_lumped(lam, cap)
    states = np.indices(shape).reshape(T, -1).T  # itertools.product order
    transition = np.empty((n_states, cap + 1), dtype=np.intp)
    out = np.zeros(n_states)
    v = np.empty((n_states, T + 1), dtype=np.intp)
    for q in range(cap + 1):
        v[:, :T] = states
        v[:, T] = q
        # EDF: each bucket gets what the earlier deadlines left of C
        v -= np.clip(C - (np.cumsum(v, axis=1) - v), 0, v)
        out += weights[q] * (v[:, 0] > 0)
        transition[:, q] = np.ravel_multi_index(v[:, 1:].T, shape)
    return TruncatedChain(states, transition, weights, out, float(weights[cap]))


@dataclass(frozen=True)
class StationaryResult:
    value: float
    truncation_mass: float
    n_states: int


def exact_outage_stationary(cfg: SimConfig, cap: int | None = None) -> StationaryResult:
    """Stationary outage probability of a small single-class config.

    Supports the reactive policy (any law; outage is iid per slot) and the
    EDF policy with a deterministic look-ahead law.  Other policies need
    state the chain builder does not model and raise OracleError.
    """
    lam = cfg.primary_rate
    if not lam:  # no primary stream, or rate 0
        return StationaryResult(0.0, 0.0, 1)
    T = cfg.tmax
    if cap is None:
        cap = default_cap(lam, cfg.C, T)
    if cfg.policy == REACTIVE or T == 0:
        return StationaryResult(poisson_tail(lam, cfg.C), 0.0, 1)
    if cfg.policy != EDF:
        raise OracleError(f"no exact chain for policy {cfg.policy!r}")
    if cfg.law is not None and not cfg.law.is_deterministic:
        raise OracleError("exact chain supports deterministic look-ahead only")
    chain = build_edf_chain(cfg.C, lam, T, cap)
    value = float(chain.stationary() @ chain.outage_prob)
    return StationaryResult(value, chain.truncation_mass, len(chain.states))


# --- exact event bounds ---


def _union_partial_sums(rates: list[float], thresholds: list[int]) -> float:
    """P(exists k: X_0 + ... + X_k > thresholds[k]) for independent Poisson
    X_j ~ rates[j], computed exactly by eliminating the surviving partial
    sums level by level."""
    # dist[s] = P(no threshold crossed so far, partial sum = s)
    dist = np.array([1.0])
    crossed = 0.0
    for lam, thr in zip(rates, thresholds, strict=True):
        pmf = _poisson_pmf_lumped(lam, thr + 1)  # any increment beyond thr crosses
        new = np.convolve(dist, pmf)
        if len(new) > thr + 1:
            crossed += new[thr + 1 :].sum()
            new = new[: thr + 1]
        dist = new
    return min(1.0, float(crossed))


def exact_event_bounds(cfg: SimConfig) -> tuple[float, float]:
    """Exact probabilities (P_L, P_U) of the sufficient and necessary outage
    events that sandwich the simulated steady-state outage probability.

    Deterministic window T: P_L = tail(lam, C(T+1)), P_U = tail((T+1)lam,
    C(T+1)).  Random window: P_L is the exact union over k of {sum of the
    k-earliest window arrivals > C(k+1)}; P_U adds the exact probability of
    the busy-history event to P_L's companion union (a union bound over the
    two dependent events, capped at 1).
    """
    lam = cfg.primary_rate
    if lam is None:
        return 0.0, 0.0
    C = cfg.C
    law = cfg.law
    if law is None or law.is_deterministic:
        T = cfg.tmax
        return (
            poisson_tail(lam, C * (T + 1)),
            poisson_tail((T + 1) * lam, C * (T + 1)),
        )
    tmin, tmax = law.tmin, law.tmax
    # sufficient event: nested partial sums of per-window arrival components
    rates_l = [lam * law.pmf(j) for j in range(tmin, tmax + 1)]
    thr_l = [C * (k + 1) for k in range(tmin, tmax + 1)]
    p_l = _union_partial_sums(rates_l, thr_l)
    # necessary event: busy-history term plus the partial-CDF union
    p_i = poisson_tail(lam * (tmax + 1), C * (tmax + 1))
    rates_j = [lam * law.cdf(j) for j in range(tmin, tmax)]
    thr_j = [C * (k + 1) for k in range(tmin, tmax)]
    p_j = _union_partial_sums(rates_j, thr_j) if rates_j else 0.0
    return p_l, min(1.0, p_i + p_j)


# --- root verification ---


def _quad_residual(a: float, b: float, c: float, v: float) -> float:
    """Backward-error residual of v in a*v^2 + b*v + c = 0: the raw residual
    scaled by the term magnitudes, so the check is coefficient-scale free."""
    mag = abs(a * v * v) + abs(b * v) + abs(c)
    return abs(a * v * v + b * v + c) / max(mag, 1.0)


def verify_root(constant: Constant) -> float:
    """Normalized |residual| of a derived constant in its defining equation."""
    p = constant.params
    v = constant.value
    name = constant.name
    if name == "y_bar":
        return _quad_residual(p["gs"], p["gp"], -1.0, v)
    if name == "y1":
        E = math.exp(p["gm"] / p["theta"])
        a = p["gu"] * (E - 1.0)
        b = (p["theta"] - 1.0) * E - p["theta"] + p["gu"] + 1.0
        return _quad_residual(a, b, -1.0, v)
    if name == "y2":
        x = analytic.x_m(p["gm"], p["theta"], p["T"]).value
        w = p["T"] + 1
        a = w * p["gu"] * x
        b = w * p["gu"] * (1.0 - x) - w * x + p["theta"] * x
        c = -w * (1.0 - x)
        return _quad_residual(a, b, c, v)
    if name == "y4":
        A = -math.expm1(-p["gm"] / p["theta"])
        a = p["gu"] * A
        b = p["gu"] * (1.0 - A) + 2.0 * p["theta"] * A - 2.0 * A
        c = -2.0 * (1.0 - A)
        return _quad_residual(a, b, c, v)
    if name == "x_m":
        return abs(v + math.expm1(-(p["T"] + 1) * p["gm"] / p["theta"]))
    if name == "A_m":
        return abs(v + math.expm1(-p["gm"] / p["theta"]))
    raise OracleError(f"no defining equation registered for {name!r}")
