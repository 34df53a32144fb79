"""Exact ground truth on small instances, independent of the simulator.

Three facilities:
  - stationary outage probabilities of the slotted system: the reactive
    tail, and deterministic-window EDF as a one-dimensional chain over the
    accepted backlog, solved by GTH elimination (no two-class, dynamic,
    multicast or prediction-error chain),
  - exact probabilities of the necessary / sufficient outage events that
    sandwich the simulated outage probability,
  - residual checks of every derived root constant against its defining
    equation.

These are the anti-regression backstop for both the simulator and the
closed forms: they share no code path with either.  The Poisson pmf and
tail are `analytic`'s, which needs no scipy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from proactivenet import analytic
from proactivenet.analytic import Constant, poisson_tail
from proactivenet.sim import EDF, REACTIVE, SimConfig
from proactivenet.traffic import LookaheadLaw


class OracleError(ValueError):
    pass


MAX_BYTES = 2**28
_PEAK_BYTES = 18  # tracemalloc peak of a build and solve, see _check_size


def _check_size(n_states: int, levels: int) -> None:
    """Refuse, before allocating anything, a chain whose build and solve
    need over MAX_BYTES: _PEAK_BYTES per entry of the (n, levels) successor
    table and of the dense n x n P that GTH eliminates.  Measured: <= 18
    bytes per entry from 25 000 entries up; below, a fixed ~0.2 MB.

    It bounds bytes, not time: the banded solve is O(n^2 C).  On a 2-core
    Xeon, `oracle-check --C 600 --gamma 0.5 --policy edf --T 2` (1201
    states) takes 1.7-1.8 s, and the largest chains admitted, C = 2228 at
    T = 1 and C = 1220 at T = 2, take 22 s and 12 s."""
    need = _PEAK_BYTES * n_states * (n_states + levels)
    if need > MAX_BYTES:
        raise OracleError(
            f"state space of {n_states} states needs ~{need / 2**20:.0f} MB, over "
            f"{MAX_BYTES / 2**20:.0f} MB; reduce C, T or the rate"
        )


def _poisson_pmf_lumped(lam: float, cap: int) -> np.ndarray:
    """pmf on {0..cap} with all tail mass P(X >= cap) lumped at cap.

    Out from the mode the pmf falls.  Each entry is its neighbour nearer
    the mode times lam/q (upward) or (q+1)/lam (downward), or exp of
    `analytic`'s log-pmf at every 64th entry and below 1e-290, so each is
    <= 63 roundings from an exact one and none underflows early.
    """
    if not cap:
        return np.ones(1)
    body = [0.0] * cap
    mode = min(int(lam), cap - 1)
    for first, stop, step in ((mode, cap, 1), (mode - 1, -1, -1)):
        p_q = 0.0
        for q in range(first, stop, step):
            if (q - first) % 64 and p_q > 1e-290:
                p_q *= lam / q if step > 0 else (q + 1) / lam
            else:
                p_q = math.exp(analytic._poisson_logpmf(lam, q))
                if not p_q:
                    break  # and so does every entry further out
            body[q] = p_q
    below, tail = analytic._poisson_sides(lam, cap - 1)
    p = np.array(body + [tail])
    p[:cap] *= below / (p[:cap].sum() or 1.0)  # the body to P(X < cap)
    return p


@dataclass(frozen=True)
class TruncatedChain:
    """Chain over backlog states with its per-state outage law.
    From state i, q arrivals (probability weights[q]) lead to the one state
    transition[i, q]: an (n, cap+1) successor table."""

    states: np.ndarray  # (n,) accepted backlog of each state
    transition: np.ndarray  # (n, cap+1) successor index per arrival level
    weights: np.ndarray  # (cap+1,) arrival pmf, tail lumped at cap
    outage_prob: np.ndarray
    truncation_mass: float

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise OracleError("arrival weights must sum to 1")
        if self.transition.shape != (len(self.states), len(self.weights)):
            raise OracleError("transition needs one successor per state and level")

    def matrix(self) -> np.ndarray:
        """The dense transition matrix P; arrival levels that reach one
        successor are summed."""
        n = len(self.states)
        P = np.zeros((n, n))
        rows = np.arange(n)
        for q, w in enumerate(self.weights):  # one successor per row and level
            P[rows, self.transition[:, q]] += w
        return P

    def stationary(self) -> np.ndarray:
        """pi P = pi by GTH (Grassmann, Taksar & Heyman 1985): state
        reduction from the last state down, with no subtraction, so every
        entry of pi keeps a small relative error.  Eliminating state k
        changes only the columns from row k's first nonzero entry on; a
        chain that steps down by at most C keeps that band: O(n^2 C)."""
        P = self.matrix()
        n = len(P)
        for k in range(n - 1, 0, -1):
            row = P[k, :k]
            leave = row.sum()  # 1 - P[k, k] of the reduced chain, uncancelled
            if not leave > 0.0:
                raise OracleError(f"GTH pivot {leave!r} at state {k}: chain is reducible")
            lo = int(np.argmax(row > 0.0))
            P[:k, k] /= leave
            P[:k, lo:k] += np.outer(P[:k, k], row[lo:])
        pi = np.ones(n)
        for k in range(1, n):
            pi[k] = pi[:k] @ P[:k, k]
        return pi / pi.sum()


def build_edf_chain(C: int, lam: float, T: int, cap: int) -> TruncatedChain:
    """Chain of the single-class EDF system with a deterministic look-ahead
    of T slots.

    All windows are equal, so EDF serves in arrival order, and a request
    bound to expire is never served and delays no one: it may be dropped on
    arrival (Barrer 1957).  With K = C(T+1) the state is the accepted
    backlog V in 0..CT at slot start; q arrivals lead to
    clip(V + min(q, K - V) - C, 0, K - C), an outage iff q > K - V.
    Arrivals are lumped at `cap`: exact if cap > K, else P(X >= cap) is
    reported.
    """
    if T < 1:
        raise OracleError("build_edf_chain needs T >= 1; reactive is stateless")
    K = C * (T + 1)
    _check_size(C * T + 1, cap + 1)
    weights = _poisson_pmf_lumped(lam, cap)
    states = np.arange(C * T + 1)
    # V + q - C clipped at K - C: of q arrivals, only min(q, K - V) are accepted
    transition = (states - C)[:, None] + np.arange(cap + 1)
    np.clip(transition, 0, K - C, out=transition)
    out = np.array([weights[K - v + 1 :].sum() for v in states])
    lumped = float(weights[cap]) if cap <= K else 0.0  # lumping is exact above K
    return TruncatedChain(states, transition, weights, out, lumped)


@dataclass(frozen=True)
class StationaryResult:
    value: float
    truncation_mass: float
    n_states: int


def _random_law(cfg: SimConfig) -> LookaheadLaw | None:
    """The random look-ahead law of `cfg`, None for a deterministic window
    (reactive serves at window 0).  The oracle models reactive and EDF
    without prediction error; any other config raises OracleError."""
    if cfg.policy not in (REACTIVE, EDF):
        raise OracleError(f"no exact chain for policy {cfg.policy!r}")
    if cfg.pred_error is not None:
        raise OracleError("no exact chain for prediction-error traffic")
    law = cfg.law
    return law if cfg.policy == EDF and law is not None and not law.is_deterministic else None


def exact_outage_stationary(cfg: SimConfig, cap: int | None = None) -> StationaryResult:
    """Stationary outage probability of a small single-class config.

    Supports the reactive policy (any law; outage is iid per slot) and the
    EDF policy with a deterministic look-ahead law; any other config
    raises OracleError (see `_random_law`).  `cap` defaults to C(T+1) + 1,
    where the chain is exact.
    """
    if _random_law(cfg) is not None:
        raise OracleError("exact chain supports deterministic look-ahead only")
    lam = cfg.primary_rate
    if not lam:  # no primary stream, or rate 0
        return StationaryResult(0.0, 0.0, 1)
    T = cfg.tmax
    if T == 0:
        res = StationaryResult(poisson_tail(lam, cfg.C), 0.0, 1)
    else:
        chain = build_edf_chain(cfg.C, lam, T, cfg.C * (T + 1) + 1 if cap is None else cap)
        value = float(chain.stationary() @ chain.outage_prob)
        res = StationaryResult(value, chain.truncation_mass, len(chain.states))
    if res.value == 0.0:  # the rate is positive, and so is the outage
        warnings.warn(
            "the exact outage is below the smallest positive double (~1e-308) "
            "and is printed as 0.0"
        )
    return res


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
    two dependent events, capped at 1).  A reactive config has window 0,
    and a config the oracle does not model raises OracleError.
    """
    law = _random_law(cfg)
    lam = cfg.primary_rate
    if lam is None:  # no primary stream, so no outage
        return 0.0, 0.0
    C = cfg.C
    if law is None:
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
