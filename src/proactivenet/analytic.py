"""Closed-form diversity gains and outage-probability bounds.

Diversity gain is the asymptotic decay rate of -log(outage probability),
normalized by C in the linear scaling regime and by C log C in the
polynomial regime.  All logs here are natural.

The module evaluates every closed form for the model variants (single
class with deterministic/random look-ahead, two QoS classes, imperfect
prediction, multicast alignment, mixed unicast/multicast scenarios) and
also exposes a numeric exponent optimizer over composite log-MGFs as an
independent cross-check on each closed form.

The Poisson tail (Loader's saddle-point pmf) and the exponent optimizer
(a safeguarded Newton root) are computed here, so no command loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from proactivenet.traffic import (
    LINEAR,
    LookaheadLaw,
    PredictionErrorSpec,
    Regime,
)

EXACT = "exact"
LOWER = "lower"
UPPER = "upper"


@dataclass(frozen=True)
class BoundValue:
    """A diversity-gain value together with its bound direction."""

    value: float
    kind: str

    def __post_init__(self):
        if self.kind not in (EXACT, LOWER, UPPER):
            raise ValueError(f"unknown bound kind {self.kind!r}")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


@dataclass(frozen=True)
class Constant:
    """A derived constant (optimizer root, balance point, ...) together
    with the parameters of its defining equation."""

    name: str
    value: float
    params: dict


# --- exact Poisson tail ---

# stirlerr(k) = log k! - (k + 1/2) log k + k - log(2 pi)/2 for k = 1..15, from
# 50-digit arithmetic (index 0 is unused); above 15 its asymptotic series,
# within 1.1e-16 of it
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(k: int) -> float:
    """log k! minus Stirling's approximation to it, for k >= 1."""
    if k <= 15:
        return _STIRLERR[k]
    kk = float(k) * k
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / kk) / kk) / kk) / kk) / k


def _bd0(x: float, m: float) -> float:
    """x log(x/m) + m - x.  For |v| < 1/2, v = (x-m)/(x+m), by the series
    (x-m)v + 2x(v^3/3 + v^5/5 + ...), which cancels little: the direct
    form's rounding grows with x (Loader's cut at 0.1 left errors of 3e-12
    in the tail at lam ~ 1e4)."""
    if abs(x - m) >= 0.5 * (x + m):
        return x * math.log(x / m) + m - x
    v = (x - m) / (x + m)
    s = (x - m) * v
    ej = 2.0 * x * v
    v *= v
    j = 3
    while True:
        ej *= v
        nxt = s + ej / j
        if nxt == s:
            return s
        s = nxt
        j += 2


def _poisson_logpmf(lam: float, k: int) -> float:
    """log P(Poisson(lam) = k) in Loader's saddle-point form
    -stirlerr(k) - bd0(k, lam) - log(2 pi k)/2 (Loader 2000, "Fast and
    accurate computation of binomial probabilities"): no term is the
    difference of two large ones, so exp of it keeps its relative accuracy
    where k log(lam) - lam - log k! would lose digits."""
    if k == 0:
        return -lam
    if not lam:
        return -math.inf
    return -_stirlerr(k) - _bd0(k, lam) - 0.5 * math.log(2.0 * math.pi * k)


def _poisson_sides(lam: float, k: int) -> tuple[float, float]:
    """(P(X <= k), P(X > k)) for X ~ Poisson(lam) and k >= 0.

    The side away from the mean is a series from its largest term, each
    term a ratio of the one before, until a term no longer changes the sum;
    the other side is 1 minus it.  A side whose first log-pmf is below -800
    is 0 to double precision.
    """
    if k + 1 >= lam:  # P(X > k), upward from pmf(k + 1)
        log_first = _poisson_logpmf(lam, k + 1)
        if log_first < -800.0:
            return 1.0, 0.0
        total = term = 1.0
        j = k + 1
        while True:
            j += 1
            term *= lam / j
            nxt = total + term
            if nxt == total:
                break
            total = nxt
        upper = math.exp(log_first + math.log(total))
        return 1.0 - upper, upper
    # P(X <= k), downward from pmf(k)
    log_first = _poisson_logpmf(lam, k)
    if log_first < -800.0:
        return 0.0, 1.0
    total = term = 1.0
    for j in range(k, 0, -1):
        term *= j / lam
        nxt = total + term
        if nxt == total:
            break
        total = nxt
    lower = math.exp(log_first + math.log(total))
    return lower, 1.0 - lower


def poisson_tail(lam: float, k: int) -> float:
    """P(Poisson(lam) > k), summed from Loader's saddle-point pmf.

    Against 50-digit arithmetic, for lam in [1e-3, 2e4] and every k up to
    lam + 40 sqrt(lam) + 50 with a tail of at least 1e-300, the worst
    relative error over 40 000 random points was 5.7e-13 (scipy's pdtrc:
    1.1e-11).  Only that range of lam was measured: a larger lam raises.
    """
    if not 0 <= lam <= 2e4:
        raise ValueError(f"poisson_tail is verified for 0 <= lam <= 2e4 only, got lam={lam:.6g}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _poisson_sides(lam, k)[1]


# --- numeric Chernoff exponent over composite log-MGFs ---


def poisson_term(lam: float, a: float = 1.0) -> tuple:
    """Log-MGF term lam*(e^{a r} - 1) of a scaled Poisson variable."""
    return ("poisson", lam, a)


def binomial_term(n: float, q: float, a: float = 1.0) -> tuple:
    """Log-MGF term n*log(1 - q + q e^{a r}) of a scaled binomial variable."""
    return ("binomial", n, q, a)


def _cumulants(terms, r: float) -> tuple[float, float, float]:
    """The log-MGF of the terms at r and its first two derivatives in r."""
    psi = d1 = d2 = 0.0
    for t in terms:
        if t[0] == "poisson":
            _, lam, a = t
            e = math.exp(a * r)
            psi += lam * math.expm1(a * r)
            d1 += lam * a * e
            d2 += lam * a * a * e
        else:
            _, n, q, a = t
            e = math.exp(a * r)
            d = 1.0 - q + q * e
            psi += n * math.log1p(q * math.expm1(a * r))
            d1 += n * q * a * e / d
            d2 += n * a * a * (q * e / d) * ((1.0 - q) / d)
    return psi, d1, d2


def chernoff_exponent(terms: list, threshold: float, scale: float = 1.0) -> float:
    """inf_{r>0} (threshold*r - log-MGF(r)) for a sum of independent
    Poisson and binomial components, divided by `scale`.

    The infimum is located by solving d/dr = 0 (the log-MGF is convex) by
    safeguarded Newton steps inside a bracket.  Returns 0 when the
    threshold does not exceed the mean (no large deviation), inf when no r
    reaches it.
    """
    mean = _cumulants(terms, 0.0)[1]
    if threshold <= mean:
        return 0.0
    # binomial terms saturate; the derivative may never reach the threshold
    sup = 0.0
    for t in terms:
        if t[0] == "poisson":
            sup = math.inf
            break
        sup += t[1] * t[3]
    if threshold >= sup:
        return math.inf

    lo, hi = 0.0, 1.0
    while _cumulants(terms, hi)[1] - threshold < 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise RuntimeError("failed to bracket the exponent optimizer")
    # g = psi' - threshold: g(lo) < 0 <= g(hi) and g increases.  Newton from
    # r = hi; bisect when a step would leave [lo, hi] or not halve the step
    # before it (g is flat near a saturating binomial's root), so every step
    # either halves the one before or halves [lo, hi].
    r, step = hi, hi - lo
    for _ in range(200):
        _, d1, d2 = _cumulants(terms, r)
        gr = d1 - threshold
        if gr < 0.0:
            lo = r
        else:
            hi = r
        prev, step = step, gr / d2 if d2 > 0.0 else math.inf
        nxt = r - step
        if not (lo <= nxt <= hi and 2.0 * abs(step) <= abs(prev)):
            nxt = 0.5 * (lo + hi)
            step = r - nxt
        if abs(step) <= 1e-14 + 1e-15 * abs(nxt):
            return (threshold * nxt - _cumulants(terms, nxt)[0]) / scale
        r = nxt
    raise RuntimeError("the exponent optimizer did not converge")


# --- single-class diversity gains ---


def _require_gamma(gamma: float) -> None:
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0,1), got {gamma}")


def div_nonpred(regime: Regime, gamma: float | None = None) -> BoundValue:
    """Diversity gain without prediction: gamma - 1 - ln(gamma) in the
    linear regime, 1 - gamma in the polynomial regime."""
    g = regime.gamma if gamma is None else gamma
    _require_gamma(g)
    if regime.kind == LINEAR:
        return BoundValue(g - 1.0 - math.log(g), EXACT)
    return BoundValue(1.0 - g, EXACT)


def div_pred_det(regime: Regime, gamma: float, T: int) -> tuple[BoundValue, BoundValue]:
    """Diversity gain with a deterministic look-ahead window of T slots.

    Linear regime: (lower, upper) pair (T+1)(gamma-1-ln gamma) and
    (T+1)(gamma/(T+1) - 1 + ln((T+1)/gamma)).  Polynomial regime: exact
    (T+1)(1-gamma), returned as an equal pair.
    """
    _require_gamma(gamma)
    if T < 0:
        raise ValueError("T must be >= 0")
    if regime.kind == LINEAR:
        lo = (T + 1) * (gamma - 1.0 - math.log(gamma))
        up = (T + 1) * (gamma / (T + 1) - 1.0 + math.log((T + 1) / gamma))
        return BoundValue(lo, LOWER), BoundValue(up, UPPER)
    v = (T + 1) * (1.0 - gamma)
    return BoundValue(v, EXACT), BoundValue(v, EXACT)


def v_star(gamma: float, law: LookaheadLaw) -> Constant:
    """Secondary term of the random-look-ahead lower bound: min over
    k in [tmin, tmax-1] of (k+1)[ln((k+1)/(gamma*S_k)) - 1] + gamma*S_k
    with S_k the partial CDF sum over the window ending at k."""
    best = math.inf
    for k in range(law.tmin, law.tmax):
        s = sum(law.cdf(j) for j in range(law.tmin, k + 1))
        if s <= 0.0:
            continue
        val = (k + 1) * (math.log((k + 1) / (gamma * s)) - 1.0) + gamma * s
        best = min(best, val)
    return Constant("v_star", best, {"gamma": gamma, "tmin": law.tmin, "tmax": law.tmax})


def div_pred_rand(regime: Regime, gamma: float, law: LookaheadLaw) -> BoundValue:
    """Diversity gain with a random look-ahead window.

    Linear regime: lower bound min{(Tmax+1)(gamma-1-ln gamma), v_star}.
    Polynomial regime: exact (Tmin+1)(1-gamma), dominated by the shortest
    look-ahead.
    """
    _require_gamma(gamma)
    if law.is_deterministic:
        raise ValueError("deterministic look-ahead law: use div_pred_det")
    if regime.kind != LINEAR:
        return BoundValue((law.tmin + 1) * (1.0 - gamma), EXACT)
    head = (law.tmax + 1) * (gamma - 1.0 - math.log(gamma))
    return BoundValue(min(head, v_star(gamma, law).value), LOWER)


# --- two QoS classes ---


def _require_two_class(gp: float, gs: float, regime: Regime) -> None:
    if not 0.0 < gs < gp < 1.0:
        raise ValueError(f"need 0 < gs < gp < 1, got gs={gs}, gp={gp}")
    if regime.kind == LINEAR and gp + gs >= 1.0:
        raise ValueError(f"linear regime needs gp+gs < 1, got {gp + gs}")


def div_secondary_nonpred(
    gp: float, gs: float, regime: Regime
) -> tuple[BoundValue, BoundValue]:
    """Secondary-class diversity gain when the primary is non-predictive.

    Linear: (lower, upper) = (gp+gs-1-ln(gp+gs), gp-1-ln(gp)).
    Polynomial: exact 1-gp, independent of gs.
    """
    _require_two_class(gp, gs, regime)
    if regime.kind == LINEAR:
        lo = gp + gs - 1.0 - math.log(gp + gs)
        up = gp - 1.0 - math.log(gp)
        return BoundValue(lo, LOWER), BoundValue(up, UPPER)
    v = 1.0 - gp
    return BoundValue(v, EXACT), BoundValue(v, EXACT)


def y_bar(gp: float, gs: float) -> Constant:
    """Positive root of gs*y^2 + gp*y - 1 = 0 (stationary optimizer of the
    dynamic-capacity secondary bound)."""
    return Constant("y_bar", _positive_root(gs, gp, -1.0), {"gp": gp, "gs": gs})


def div_secondary_dynamic(gp: float, gs: float, regime: Regime) -> BoundValue:
    """Secondary-class lower bound when the primary runs the dynamic
    capacity policy with f=0.5 and look-ahead 1 at stationarity.

    Linear: -gs(y^2-1) - 2 gp (y-1) + 2 ln y with y = y_bar(gp, gs).
    Polynomial: 1-gp when 1+gs >= 2 gp, else (1-gs)/2.
    """
    _require_two_class(gp, gs, regime)
    if regime.kind == LINEAR:
        y = y_bar(gp, gs).value
        val = -gs * (y * y - 1.0) - 2.0 * gp * (y - 1.0) + 2.0 * math.log(y)
        return BoundValue(val, LOWER)
    if 1.0 + gs >= 2.0 * gp:
        return BoundValue(1.0 - gp, LOWER)
    return BoundValue(0.5 * (1.0 - gs), LOWER)


# --- imperfect prediction ---


def prediction_error_terms(
    spec: PredictionErrorSpec, T: float
) -> tuple[float, float]:
    """The two competing terms of the imperfect-prediction bound at a
    (possibly real-valued) window T: (window term, urgent term).

    The window term covers the whole predicted-plus-missed load spread over
    T+1 slots; the urgent term covers the missed stream alone.
    """
    g = spec.regime.gamma
    ap, am = spec.alpha_pred, spec.alpha_miss
    if spec.regime.kind == LINEAR:
        a_tot = ap + am
        window = (T + 1) * (a_tot * g - 1.0 - math.log(g * a_tot))
        urgent = am * g - 1.0 - math.log(am * g) if am > 0.0 else math.inf
        return window, urgent
    return (T + 1) * (1.0 - ap * g), 1.0 - am * g


def prediction_error_gain(spec: PredictionErrorSpec) -> tuple[BoundValue, float]:
    """Diversity gain with an imperfect predictor plus the balance point.

    The gain is the min of a window term (predicted stream over T+1 slots)
    and an urgent term (missed stream alone).  T_crit is the real-valued
    window at which both terms are equal; it maximizes the min.  Linear
    regime gives a lower bound, polynomial an exact value.  Inconsistent
    rate factors raise TrafficSpecError (`PredictionErrorSpec.validate`).
    """
    spec.validate()
    window, urgent = prediction_error_terms(spec, spec.T)
    slope = window / (spec.T + 1)
    kind = LOWER if spec.regime.kind == LINEAR else EXACT
    t_crit = urgent / slope - 1.0
    return BoundValue(min(window, urgent), kind), t_crit


# --- multicast ---


def div_multicast_nonpred(gm: float, theta: float) -> BoundValue:
    """Diversity gain of non-predictive multicast over theta*C symmetric
    sources (linear regime).  Infinite when theta <= 1 (every source can
    be served every slot)."""
    _require_gamma(gm)
    if theta <= 0.0:
        raise ValueError("theta must be > 0")
    if theta <= 1.0:
        return BoundValue(math.inf, EXACT)
    val = (
        (theta - 1.0) * math.log(theta - 1.0)
        - theta * math.log(theta)
        + gm * (theta - 1.0) / theta
        - math.log(-math.expm1(-gm / theta))
    )
    return BoundValue(float(val), EXACT)


def x_m(gm: float, theta: float, T: int) -> Constant:
    """Probability a source is demanded within a (T+1)-slot window."""
    return Constant(
        "x_m",
        -math.expm1(-(T + 1) * gm / theta),
        {"gm": gm, "theta": theta, "T": T},
    )


def div_multicast_pred(gm: float, theta: float, T: int) -> BoundValue:
    """Lower bound for predictive multicast with alignment over a window
    of T slots.  Infinite when theta <= T+1."""
    _require_gamma(gm)
    if theta <= 0.0:
        raise ValueError("theta must be > 0")
    if T < 0:
        raise ValueError("T must be >= 0")
    if theta <= T + 1:
        return BoundValue(math.inf, LOWER)
    x = x_m(gm, theta, T).value
    w = T + 1
    val = (
        w * math.log((1.0 - x) * w / (x * (theta - w)))
        - theta * math.log(1.0 - x + (1.0 - x) * w / (theta - w))
    )
    return BoundValue(val, LOWER)


# --- mixed unicast and multicast scenarios ---


def source_demand_prob(gm: float, theta: float) -> Constant:
    """Per-slot demand probability of one multicast source."""
    return Constant("A_m", -math.expm1(-gm / theta), {"gm": gm, "theta": theta})


def _positive_root(a: float, b: float, c: float) -> float:
    """Larger root of a*y^2 + b*y + c = 0 with a > 0, c < 0 (one positive,
    one negative root), computed in the cancellation-free form."""
    disc = math.sqrt(b * b - 4.0 * a * c)
    if b >= 0.0:
        return -2.0 * c / (b + disc)
    return (-b + disc) / (2.0 * a)


def y1_root(gu: float, gm: float, theta: float) -> Constant:
    """Exponent-optimizer root for the fully non-predictive mixed network:
    positive root of gu(E-1) y^2 + ((theta-1)E - theta + gu + 1) y - 1 = 0
    with E = e^{gm/theta}."""
    E = math.exp(gm / theta)
    a = gu * (E - 1.0)
    b = (theta - 1.0) * E - theta + gu + 1.0
    y = _positive_root(a, b, -1.0)
    return Constant("y1", y, {"gu": gu, "gm": gm, "theta": theta})


def y2_root(gu: float, gm: float, theta: float, T: int) -> Constant:
    """Exponent-optimizer root for predicted-multicast scenarios: positive
    root of (T+1) gu x y^2 + [(T+1) gu (1-x) - (T+1) x + theta x] y
    - (T+1)(1-x) = 0 with x the (T+1)-window demand probability."""
    x = x_m(gm, theta, T).value
    w = T + 1
    a = w * gu * x
    b = w * gu * (1.0 - x) - w * x + theta * x
    c = -w * (1.0 - x)
    y = _positive_root(a, b, c)
    return Constant("y2", y, {"gu": gu, "gm": gm, "theta": theta, "T": T, "x_m": x})


def y4_root(gu: float, gm: float, theta: float) -> Constant:
    """Exponent-optimizer root for the predictive-unicast upper bound:
    positive root of gu A y^2 + [gu(1-A) + 2 theta A - 2A] y - 2(1-A) = 0
    with A the per-slot demand probability."""
    A = source_demand_prob(gm, theta).value
    a = gu * A
    b = gu * (1.0 - A) + 2.0 * theta * A - 2.0 * A
    c = -2.0 * (1.0 - A)
    y = _positive_root(a, b, c)
    return Constant("y4", y, {"gu": gu, "gm": gm, "theta": theta, "A_m": A})


def _check_mixed(gu: float, gm: float, theta: float) -> None:
    _require_gamma(gu)
    _require_gamma(gm)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"mixed-traffic theta must lie in (0,1), got {theta}")
    A = source_demand_prob(gm, theta).value
    if A * theta + gu >= 1.0:
        raise ValueError(
            f"stability violated: source demand mass {A * theta:.4g} plus "
            f"unicast load {gu} reaches capacity (A_m*theta + gu >= 1)"
        )


def _d1(gu: float, gm: float, theta: float) -> tuple[float, Constant]:
    y1 = y1_root(gu, gm, theta)
    y = y1.value
    E = math.exp(-gm / theta)
    val = math.log(y) + gu * (1.0 - y) - theta * math.log(E + y * (1.0 - E))
    return val, y1


def _s_term(gu: float, gm: float, theta: float, T: int) -> tuple[float, Constant]:
    y2 = y2_root(gu, gm, theta, T)
    y = y2.value
    x = y2.params["x_m"]
    w = T + 1
    val = w * math.log(y) - w * gu * (y - 1.0) - theta * math.log(1.0 - x + x * y)
    return val, y2


def scenario_bounds(
    scenario: int, gu: float, gm: float, theta: float, T: int = 0
) -> dict:
    """Diversity-gain bounds for the four mixed unicast/multicast
    predictability scenarios.

    1: neither predicted -> exact value (root y1).
    2: multicast predicted, unicast urgent -> lower = min{nonpred unicast,
       window term}, upper = nonpred unicast (root y2).
    3: both predicted -> lower = window term (root y2).
    4: unicast predicted, multicast urgent -> upper built from the
       scenario-1 value and root y4.

    Returns {"bounds": {...BoundValue...}, "constants": {...Constant...}}.
    """
    _check_mixed(gu, gm, theta)
    if T < 0:
        raise ValueError("T must be >= 0")
    if scenario == 1:
        val, y1 = _d1(gu, gm, theta)
        return {"bounds": {"exact": BoundValue(val, EXACT)}, "constants": {"y1": y1}}
    if scenario == 2:
        s, y2 = _s_term(gu, gm, theta, T)
        dn = div_nonpred(Regime(LINEAR, gu)).value
        return {
            "bounds": {
                "lower": BoundValue(min(dn, s), LOWER),
                "upper": BoundValue(dn, UPPER),
            },
            "constants": {"y2": y2},
        }
    if scenario == 3:
        s, y2 = _s_term(gu, gm, theta, T)
        return {"bounds": {"lower": BoundValue(s, LOWER)}, "constants": {"y2": y2}}
    if scenario == 4:
        d1, y1 = _d1(gu, gm, theta)
        y4 = y4_root(gu, gm, theta)
        y = y4.value
        A = y4.params["A_m"]
        val = d1 + T * (
            2.0 * math.log(y)
            - gu * (y - 1.0)
            - 2.0 * theta * math.log(1.0 - A + A * y)
        )
        return {
            "bounds": {"upper": BoundValue(val, UPPER)},
            "constants": {"y1": y1, "y4": y4},
        }
    raise ValueError(f"scenario must be 1..4, got {scenario}")


def crossover_window(gu: float, gm: float, theta: float, t_max: int = 64) -> int:
    """Smallest window T at which the predicted-multicast lower bound of
    scenario 2 is capped by the non-predictive unicast gain (from that T
    on, the lower and upper bounds coincide)."""
    _check_mixed(gu, gm, theta)
    dn = div_nonpred(Regime(LINEAR, gu)).value
    for T in range(t_max + 1):
        s, _ = _s_term(gu, gm, theta, T)
        if s >= dn:
            return T
    raise RuntimeError(f"no crossover found up to T={t_max}")
