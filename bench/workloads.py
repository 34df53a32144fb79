"""The benchmark's workloads: fixed operation lists over the package.

A pass runs a workload's operation list once.  `prepare(seed)` makes the
pass inputs (untimed), `execute(inputs, mark)` runs the operations (the
timed part; `mark(name)` labels the operation that starts), and
`verify(inputs, raw)` checks every output and counts usable estimates
(untimed).  Operations reach the package only through module attributes,
so a tracer that patches those attributes sees every call.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import (
    RowModel,
    check_bounds,
    check_closed_form,
    check_csv,
    check_rerun,
    check_root,
    check_sandwich,
    check_stationary,
)
from proactivenet import analytic, cli, oracle
from proactivenet.sim import SimConfig
from proactivenet.traffic import LookaheadLaw, Regime


@dataclass
class OpResult:
    name: str
    error: str | None = None


@dataclass
class PassOutcome:
    ops: list[OpResult] = field(default_factory=list)
    usable: int = 0  # outage values > 0 the pass produced
    bytes_written: int = 0  # CSV and manifest bytes the CLI wrote


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# --- CLI workloads -------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    name: str
    argv: tuple[str, ...]
    model_of: Callable[[dict], RowModel | None] = lambda row: None


# unicast curves of the canned figures that the exact oracles can bound:
# figure id -> (regime, gamma); every canned figure runs 20 paths of 1000
# slots after a 100-slot warm-up, and fig5's random windows are binomial
# on 0..5
FIGURE_CURVES = {
    "fig4a": ("linear", 0.8),
    "fig4b": ("poly", 0.8),
    "fig5a": ("linear", 0.6),
    "fig5b": ("poly", 0.9),
}
FIGURE_IDS = ("fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b", "fig-dyn", "fig-multicast")


def figure_model(row: dict) -> RowModel | None:
    fig, _, label = row["experiment"].partition(":")
    if fig not in FIGURE_CURVES:
        return None
    regime, gamma = FIGURE_CURVES[fig]
    if label == "nonpred":
        policy, law = "reactive", None
    elif label.startswith("T"):
        policy, law = "edf", LookaheadLaw.deterministic(int(label[1:]))
    elif label.startswith("p"):
        policy, law = "edf", LookaheadLaw.binomial(5, float(label[1:]))
    else:
        return None
    return RowModel(policy, regime, gamma, law, slots=1000, paths=20, warmup=100)


FIGURES_OPS = tuple(CliOp(f, ("reproduce-figure", f), figure_model) for f in FIGURE_IDS) + (
    CliOp(
        "sweep-pi2",
        ("sweep", "--policy", "pi2", "--gamma-m", "0.9", "--theta", "15", "--gamma-u",
         "0.05", "--T", "1", "--C-grid", "4,6,8", "--paths", "20", "--slots", "1000"),
    ),
)

LONG = ("sweep", "--C-grid", "8,16,24,32", "--paths", "8", "--slots", "20000")


def _fixed(model: RowModel) -> Callable[[dict], RowModel]:
    return lambda row: model


LONG_PATHS_OPS = (
    CliOp(
        "reactive",
        LONG + ("--policy", "reactive", "--gamma", "0.8"),
        _fixed(RowModel("reactive", "linear", 0.8, None, slots=20000, paths=8)),
    ),
    CliOp(
        "edf-det2",
        LONG + ("--policy", "edf", "--lookahead", "det", "--T", "2", "--gamma", "0.8"),
        _fixed(RowModel("edf", "linear", 0.8, LookaheadLaw.deterministic(2), slots=20000, paths=8)),
    ),
    CliOp(
        "edf-binom",
        LONG + ("--policy", "edf", "--lookahead", "binom:5,0.5", "--gamma", "0.8"),
        _fixed(RowModel("edf", "linear", 0.8, LookaheadLaw.binomial(5, 0.5), slots=20000, paths=8)),
    ),
    CliOp(
        "dynamic",
        LONG + ("--policy", "dynamic:0.5", "--gp", "0.6", "--gs", "0.1", "--T", "4"),
    ),
    CliOp(
        "pred-error",
        LONG + ("--policy", "edf", "--alpha-pred", "0.9", "--alpha-miss", "0.3",
                "--gamma", "0.6", "--T", "3"),
    ),
)


class CliWorkload:
    """`cli.main` calls writing CSVs to a scratch directory, plus one
    `rerun-from-manifest` of a cheap operation that must reproduce its
    CSV byte for byte."""

    def __init__(self, ops: tuple[CliOp, ...], rerun: str, workdir: Path):
        self.ops = ops
        self.rerun = rerun
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _csv(self, name: str) -> Path:
        return self.dir / f"{name}.csv"

    def _call(self, argv: list[str]) -> str | None:
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:
            return _failure(exc)
        return None if rc == 0 else f"exit code {rc}"

    def setup(self) -> None:
        """One untimed warm-up call: the operation that is rerun each pass."""
        op = next(o for o in self.ops if o.name == self.rerun)
        self._call([*op.argv, "--seed", "0", "--out", str(self._csv("warmup"))])

    def prepare(self, seed: int) -> int:
        # every pass writes fresh files, as a user writing new outputs does;
        # renaming over an existing file forces a flush on some file systems
        for path in self.dir.iterdir():
            path.unlink()
        return seed

    def execute(self, seed: int, mark) -> dict[str, str | None]:
        raw = {}
        for op in self.ops:
            mark(op.name)
            raw[op.name] = self._call(
                [*op.argv, "--seed", str(seed), "--out", str(self._csv(op.name))]
            )
        mark("rerun")
        manifest = f"{self._csv(self.rerun)}.manifest.json"
        raw["rerun"] = self._call(
            ["rerun-from-manifest", manifest, "--out", str(self._csv("rerun"))]
        )
        return raw

    def _verify_csv(self, op: CliOp, seed: int, out: PassOutcome) -> str | None:
        path = self._csv(op.name)
        try:
            text = path.read_text()
            out.bytes_written += path.stat().st_size
            out.bytes_written += Path(f"{path}.manifest.json").stat().st_size
        except OSError as exc:
            return _failure(exc)
        errors = check_csv(text, seed, op.model_of)
        if errors:
            return f"{len(errors)} bad rows, first: {errors[0]}"
        out.usable += sum(1 for line in text.splitlines()[1:] if float(line.split(",")[4]) > 0)
        return None

    def verify(self, seed: int, raw: dict[str, str | None]) -> PassOutcome:
        out = PassOutcome()
        for op in self.ops:
            error = raw[op.name]
            if error is None:
                error = self._verify_csv(op, seed, out)
            out.ops.append(OpResult(op.name, error))
        error = raw["rerun"]
        if error is None:
            try:
                first, again = self._csv(self.rerun).read_bytes(), self._csv("rerun").read_bytes()
            except OSError as exc:
                error = _failure(exc)
            else:
                error = check_rerun(first, again)
        out.ops.append(OpResult("rerun", error))
        return out

    def final_checks(self) -> list[OpResult]:
        return []


# --- oracle workload -----------------------------------------------------

# EDF chains with a deterministic window: (C, gamma, T, cap), linear
# regime.  The caps are the oracle's default truncation for these rates,
# fixed here so the state counts (cap+1)^T, which name per-layer metrics,
# cannot drift.  The largest dense transition matrix is 3375^2 doubles.
CHAINS = ((3, 0.4, 1, 21), (2, 0.5, 2, 19), (4, 0.5, 2, 31), (1, 0.3, 3, 11), (1, 0.6, 3, 14))
CHAIN_STATES = [(cap + 1) ** T for _, _, T, cap in CHAINS]
BOUND_CAPACITIES = (2, 4, 8, 16)
GRID_POINTS = 40  # closed-form and root checks per pass


def _edf_config(C: int, gamma: float, law: LookaheadLaw) -> SimConfig:
    return RowModel("edf", "linear", gamma, law, slots=1000, paths=1).config(C)


def _chain(C: int, gamma: float, T: int, cap: int):
    cfg = _edf_config(C, gamma, LookaheadLaw.deterministic(T))
    return oracle.exact_outage_stationary(cfg, cap), oracle.exact_event_bounds(cfg)


def _mixed_point(rng: random.Random) -> tuple[float, float, float, int]:
    """A stable mixed unicast/multicast operating point (gu, gm, theta, T)."""
    while True:
        gu, gm, th = rng.uniform(0.03, 0.5), rng.uniform(0.1, 0.95), rng.uniform(0.05, 0.95)
        if analytic.source_demand_prob(gm, th).value * th + gu < 0.98:
            return gu, gm, th, rng.randint(0, 4)


def _closed_forms(rng: random.Random) -> list[tuple[str, float, float]]:
    """(name, closed form, numeric Chernoff exponent) pairs of one grid point."""
    an = analytic
    ex = an.chernoff_exponent
    g, T = rng.uniform(0.05, 0.95), rng.randint(1, 7)
    lin = Regime("linear", g)
    lo, up = an.div_pred_det(lin, g, T)
    gp = rng.uniform(0.2, 0.8)
    gs = rng.uniform(0.01, min(gp, 1 - gp) * 0.95)
    s_lo, s_up = an.div_secondary_nonpred(gp, gs, Regime("linear", gp))
    gm, th = rng.uniform(0.05, 0.95), rng.uniform(1.05, 30.0)
    A = an.source_demand_prob(gm, th).value
    out = [
        ("div_nonpred", an.div_nonpred(lin).value, ex([an.poisson_term(g)], 1.0)),
        ("div_pred_det.lower", lo.value, ex([an.poisson_term((T + 1) * g)], T + 1.0)),
        ("div_pred_det.upper", up.value, ex([an.poisson_term(g)], T + 1.0)),
        ("div_secondary_nonpred.upper", s_up.value, ex([an.poisson_term(gp)], 1.0)),
        ("div_secondary_nonpred.lower", s_lo.value, ex([an.poisson_term(gp + gs)], 1.0)),
        ("div_multicast_nonpred", an.div_multicast_nonpred(gm, th).value,
         ex([an.binomial_term(th, A)], 1.0)),
    ]
    gu, gm, th, T = _mixed_point(rng)
    A = an.source_demand_prob(gm, th).value
    x = an.x_m(gm, th, T).value
    d1 = ex([an.poisson_term(gu), an.binomial_term(th, A)], 1.0)
    out += [
        ("scenario_bounds.1", an.scenario_bounds(1, gu, gm, th)["bounds"]["exact"].value, d1),
        ("scenario_bounds.3", an.scenario_bounds(3, gu, gm, th, T)["bounds"]["lower"].value,
         ex([an.poisson_term((T + 1) * gu), an.binomial_term(th, x)], T + 1.0)),
        ("scenario_bounds.4", an.scenario_bounds(4, gu, gm, th, T)["bounds"]["upper"].value,
         d1 + T * ex([an.poisson_term(gu), an.binomial_term(2 * th, A)], 2.0)),
    ]
    return out


def _roots(rng: random.Random) -> list[tuple[str, float]]:
    """(name, normalized residual) of every derived root at one grid point."""
    gp = rng.uniform(0.2, 0.8)
    gs = rng.uniform(0.01, min(gp, 1 - gp) * 0.95)
    gu, gm, th, T = _mixed_point(rng)
    constants = [
        analytic.y_bar(gp, gs),
        analytic.y1_root(gu, gm, th),
        analytic.y2_root(gu, gm, th, T),
        analytic.y4_root(gu, gm, th),
        analytic.x_m(gm, th, T),
        analytic.source_demand_prob(gm, th),
    ]
    return [(c.name, oracle.verify_root(c)) for c in constants]


@dataclass(frozen=True)
class OracleInputs:
    seed: int
    windows: tuple[tuple[int, float, LookaheadLaw], ...]  # (C, gamma, law) for bounds


class OracleWorkload:
    """Exact chains, exact event bounds, closed forms and root checks; no
    simulation."""

    def close(self) -> None:
        pass

    def setup(self) -> None:
        """One untimed warm-up call: the smallest chain."""
        _chain(*CHAINS[0])

    def prepare(self, seed: int) -> OracleInputs:
        rng = random.Random(seed)
        windows = []
        for C in BOUND_CAPACITIES:
            p = round(rng.uniform(0.1, 0.9), 3)
            for law in (LookaheadLaw.deterministic(1), LookaheadLaw.deterministic(4),
                        LookaheadLaw.binomial(5, p)):
                windows.append((C, rng.uniform(0.3, 0.9), law))
        return OracleInputs(seed, tuple(windows))

    def execute(self, inputs: OracleInputs, mark) -> dict:
        raw = {}

        def attempt(name, fn, *args):
            mark(name)
            try:
                raw[name] = fn(*args)
            except Exception as exc:
                raw[name] = _failure(exc)

        for chain, n in zip(CHAINS, CHAIN_STATES):
            attempt(f"chain-n{n}", _chain, *chain)
        attempt("bounds", lambda: [
            oracle.exact_event_bounds(_edf_config(C, g, law)) for C, g, law in inputs.windows
        ])
        rng = random.Random(inputs.seed)
        attempt("closed-forms", lambda: [
            c for _ in range(GRID_POINTS) for c in _closed_forms(rng)
        ])
        attempt("roots", lambda: [r for _ in range(GRID_POINTS) for r in _roots(rng)])
        return raw

    def verify(self, inputs: OracleInputs, raw: dict) -> PassOutcome:
        out = PassOutcome()
        for name, value in raw.items():
            if isinstance(value, str):
                out.ops.append(OpResult(name, value))
                continue
            errors: list[str | None] = []
            if name.startswith("chain-"):
                res, (p_l, p_u) = value
                errors.append(check_sandwich(res.value, p_l, p_u, res.truncation_mass))
                out.usable += (res.value > 0) + (p_l > 0) + (p_u > 0)
            elif name == "bounds":
                for p_l, p_u in value:
                    errors.append(check_bounds(p_l, p_u))
                    out.usable += (p_l > 0) + (p_u > 0)
            elif name == "closed-forms":
                errors += [check_closed_form(*c) for c in value]
            else:
                errors += [check_root(*r) for r in value]
            errors = [e for e in errors if e is not None]
            out.ops.append(OpResult(name, errors[0] if errors else None))
        return out

    def final_checks(self) -> list[OpResult]:
        """The stationary vector of every chain sums to 1 (checked once a
        run: `exact_outage_stationary` does not return the vector)."""
        out = []
        for (C, gamma, T, cap), n in zip(CHAINS, CHAIN_STATES):
            name = f"stationary-sum-n{n}"
            try:
                chain = oracle.build_edf_chain(C, gamma * C, T, cap)
                out.append(OpResult(name, check_stationary(chain.stationary())))
            except Exception as exc:
                out.append(OpResult(name, _failure(exc)))
        return out


def make(name: str, workdir: Path):
    if name == "figures":
        return CliWorkload(FIGURES_OPS, "fig6a", workdir)
    if name == "long-paths":
        return CliWorkload(LONG_PATHS_OPS, "reactive", workdir)
    return OracleWorkload()


