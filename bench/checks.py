"""Correctness checks on the outputs of one benchmark pass.

The checks compare outputs with exact quantities (Poisson tails, exact
event bounds, chain invariants, defining equations) and never with stored
outputs, so a deliberate change of the simulator's random-draw layout
cannot trip them.  Each checker returns an error message, or None when the
output passes.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

from proactivenet import analytic, oracle
from proactivenet.sim import SimConfig
from proactivenet.traffic import LookaheadLaw, Regime

SCHEMA = ["experiment", "C", "class", "metric", "value", "stderr", "seed"]
# A Monte Carlo row may sit this many standard errors outside its exact
# band.  The standard error is the larger of the row's own and the binomial
# one at the band edge: an 8-path stderr is itself noisy (Student t with 7
# degrees of freedom exceeds 4 in 0.5% of rows), and correlated EDF outage
# slots only widen the true spread.  5 rather than 4 keeps false alarms
# below 1e-2 over the ~10^4 rows that one set of benchmark runs checks.
STDERR_TOL = 5.0
# a 0.0 row is plausible only while the exact lower bound predicts fewer
# outage slots than this over all counted slots
MAX_EXPECTED_ZERO = 5.0
CLOSED_FORM_TOL = 1e-8
ROOT_TOL = 1e-9
STATIONARY_SUM_TOL = 1e-9
# absolute slack when exact probabilities are compared with each other:
# the lumped-tail Poisson pmfs behind them carry absolute errors near 1e-16
EXACT_ABS_TOL = 1e-12


@dataclass(frozen=True)
class RowModel:
    """What the exact oracles need to bound a row of a unicast curve."""

    policy: str  # "reactive" or "edf"
    regime: str  # "linear" or "poly"
    gamma: float
    law: LookaheadLaw | None  # None when reactive
    slots: int
    paths: int
    warmup: int | None = None  # None: the simulator's default for the window

    def config(self, C: int) -> SimConfig:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return SimConfig(
                C=C, policy=self.policy, slots=self.slots, seed=0, warmup=self.warmup,
                regime=Regime(self.regime, self.gamma), law=self.law,
            )


def exact_band(model: RowModel, C: int) -> tuple[float, float, int]:
    """(lower, upper, counted slots) for a row at capacity C.

    Reactive rows have the exact tail as both ends; EDF rows the exact
    probabilities of the sufficient and necessary outage events.
    """
    cfg = model.config(C)
    counted = (cfg.slots - cfg.effective_warmup) * model.paths
    if model.policy == "reactive":
        tail = analytic.poisson_tail(cfg.primary_rate, C)
        return tail, tail, counted
    lo, hi = oracle.exact_event_bounds(cfg)
    return lo, hi, counted


def check_value(value: float, stderr: float, lo: float, hi: float, counted: int) -> str | None:
    if value == 0.0:
        expected = lo * counted
        if expected < MAX_EXPECTED_ZERO:
            return None
        return f"0.0 where the exact lower bound expects {expected:.3g} outage slots"
    edge = lo if value < lo else hi
    se = max(stderr, math.sqrt(edge * (1.0 - edge) / counted))
    if lo - STDERR_TOL * se <= value <= hi + STDERR_TOL * se:
        return None
    return f"{value!r} outside [{lo:.6g}, {hi:.6g}] +- {STDERR_TOL:g} x stderr {se:.3g}"


def check_csv(text: str, seed: int, model_of) -> list[str]:
    """Errors of one outage CSV; `model_of(row)` gives a RowModel or None."""
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != SCHEMA:
        return [f"header {lines[:1]} is not {SCHEMA}"]
    errors = []
    for i, fields in enumerate(lines[1:], start=2):
        if len(fields) != len(SCHEMA):
            errors.append(f"line {i}: {len(fields)} fields")
            continue
        row = dict(zip(SCHEMA, fields))
        try:
            C, value, stderr = int(row["C"]), float(row["value"]), float(row["stderr"])
        except ValueError as exc:
            errors.append(f"line {i}: {exc}")
            continue
        if not 0.0 <= value <= 1.0:
            errors.append(f"line {i}: value {value!r} outside [0, 1]")
        elif not stderr >= 0.0:
            errors.append(f"line {i}: stderr {stderr!r} is negative")
        elif row["metric"] != "outage" or row["seed"] != str(seed):
            errors.append(f"line {i}: metric/seed {row['metric']!r}/{row['seed']!r}")
        else:
            model = model_of(row)
            if model is not None:
                err = check_value(value, stderr, *exact_band(model, C))
                if err is not None:
                    errors.append(f"line {i} ({row['experiment']}, C={C}): {err}")
    return errors


def check_rerun(first: bytes, again: bytes) -> str | None:
    if first == again:
        return None
    return f"rerun-from-manifest differs: {len(first)} vs {len(again)} bytes"


def check_sandwich(value: float, p_l: float, p_u: float, truncation: float) -> str | None:
    """The exact event bounds must bracket a stationary outage value."""
    slack = truncation + EXACT_ABS_TOL
    if p_l - slack <= value <= p_u + slack:
        return None
    return f"stationary {value:.6g} outside exact bounds [{p_l:.6g}, {p_u:.6g}]"


def check_bounds(p_l: float, p_u: float) -> str | None:
    """Exact event bounds are probabilities in order."""
    if 0.0 <= p_l <= p_u + EXACT_ABS_TOL and p_u <= 1.0:
        return None
    return f"exact bounds out of order: {p_l!r}, {p_u!r}"


def check_stationary(pi) -> str | None:
    total = float(pi.sum())
    if abs(total - 1.0) <= STATIONARY_SUM_TOL and float(pi.min()) >= -STATIONARY_SUM_TOL:
        return None
    return f"stationary vector sums to {total!r} with min {float(pi.min())!r}"


def check_closed_form(name: str, closed: float, numeric: float) -> str | None:
    if abs(closed - numeric) < CLOSED_FORM_TOL:
        return None
    return f"{name}: closed form {closed!r} vs numeric exponent {numeric!r}"


def check_root(name: str, residual: float) -> str | None:
    if math.isfinite(residual) and residual < ROOT_TOL:
        return None
    return f"{name}: residual {residual!r}"
