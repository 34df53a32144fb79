"""Batch experiment harness.

Subcommands:
  simulate            one Monte Carlo estimate at a fixed capacity
  sweep               estimates over a capacity grid
  analytic            closed-form diversity gains and bounds
  oracle-check        exact stationary outage via the truncated chain
  reproduce-figure    canned parameter sets emitting plot-ready curves
  rerun-from-manifest re-execute a previous run bit-identically

Every run writes a CSV with the fixed header
`experiment,C,class,metric,value,stderr,seed` plus a JSON manifest holding
the complete parameter set; re-running from the manifest reproduces the
CSV byte for byte.  Exit codes: 0 ok, 1 runtime failure, 2 config error.

`validate` checks only the command, the required parameters and the
figure id.  Every other configuration rule belongs to the model object
that uses the parameter (`Regime`, `SimConfig`, `PredictionErrorSpec`, the
`analytic` functions): its ValueError exits 2, and each warning it raises
prints as one `warning: <message>` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass, field

from proactivenet import analytic, oracle
from proactivenet.sim import (
    DYNAMIC,
    EDF,
    MULTICAST,
    POLICIES,
    REACTIVE,
    SELFISH,
    SimConfig,
    sweep_capacity,
)
from proactivenet.traffic import (
    LookaheadLaw,
    MulticastSpec,
    PredictionErrorSpec,
    Regime,
)

CSV_HEADER = ["experiment", "C", "class", "metric", "value", "stderr", "seed"]

FIGURES = {
    # single class, linear, reactive vs deterministic windows
    "fig4a": {
        "kind": "unicast",
        "regime": "linear",
        "gamma": 0.8,
        "C_grid": [4, 8, 12, 16, 20],
        "T_values": [1, 2, 5],
        "paths": 20,
        "slots": 1000,
    },
    "fig4b": {
        "kind": "unicast",
        "regime": "poly",
        "gamma": 0.8,
        "C_grid": [4, 8, 12, 16, 20],
        "T_values": [1, 2, 5],
        "paths": 20,
        "slots": 1000,
    },
    # single class, random windows (binomial on 0..5)
    "fig5a": {
        "kind": "random-T",
        "regime": "linear",
        "gamma": 0.6,
        "C_grid": [2, 4, 6, 8, 10],
        "tmax": 5,
        "p_values": [0.1, 0.9],
        "paths": 20,
        "slots": 1000,
    },
    "fig5b": {
        "kind": "random-T",
        "regime": "poly",
        "gamma": 0.9,
        "C_grid": [2, 4, 6, 8, 10],
        "tmax": 5,
        "p_values": [0.1, 0.9],
        "paths": 20,
        "slots": 1000,
    },
    # two classes, selfish primary, window 4
    "fig6a": {
        "kind": "two-class",
        "regime": "linear",
        "gp": 0.6,
        "gs": 0.1,
        "T": 4,
        "f_values": [1.0],
        "C_grid": [4, 8, 12, 16, 20],
        "paths": 20,
        "slots": 1000,
    },
    "fig6b": {
        "kind": "two-class",
        "regime": "poly",
        "gp": 0.75,
        "gs": 0.05,
        "T": 4,
        "f_values": [1.0],
        "C_grid": [4, 8, 12, 16, 20],
        "paths": 20,
        "slots": 1000,
    },
    # two classes, dynamic capacity, window 4, fraction swept
    "fig-dyn": {
        "kind": "two-class",
        "regime": "linear",
        "gp": 0.6,
        "gs": 0.1,
        "T": 4,
        "f_values": [0.0, 0.5, 1.0],
        "C_grid": [4, 8, 12, 16, 20],
        "paths": 20,
        "slots": 1000,
    },
    # symmetric multicast, reactive vs one-slot window
    "fig-multicast": {
        "kind": "multicast",
        "gamma_m": 0.9,
        "theta": 15.0,
        "T_values": [0, 1],
        "C_grid": [2, 4, 6, 8],
        "paths": 20,
        "slots": 1000,
    },
}

ANALYTIC_QUANTITIES = (
    "nonpred",
    "pred-det",
    "pred-rand",
    "secondary-nonpred",
    "secondary-dynamic",
    "pred-error",
    "multicast-nonpred",
    "multicast-pred",
    "scenario",
)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Fully resolved parameters of one CLI run, manifest-serializable."""

    command: str
    params: dict = field(default_factory=dict)
    out: str | None = None

    def manifest(self) -> dict:
        return {"command": self.command, "params": self.params, "out": self.out}


def _parse_lookahead(text: str, T: int) -> LookaheadLaw:
    if text == "det":
        return LookaheadLaw.deterministic(T)
    if text.startswith("pmf:"):
        probs = [float(x) for x in text[4:].split(",")]
        return LookaheadLaw.finite({k: p for k, p in enumerate(probs)})
    if text.startswith("binom:"):
        tmax_s, p_s = text[6:].split(",")
        return LookaheadLaw.binomial(int(tmax_s), float(p_s))
    raise ConfigError(f"lookahead: cannot parse {text!r}")


def _parse_policy(text: str) -> tuple[str, float]:
    if text.startswith("dynamic:"):
        return DYNAMIC, float(text.split(":", 1)[1])
    if text == "dynamic":
        return DYNAMIC, 0.5
    if text in POLICIES:
        return text, 0.5
    raise ConfigError(f"policy: unknown value {text!r}")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PROACTIVE_SEED")
    if env is not None:
        return int(env)
    return 0


# parameters a command reads without a default; flags that argparse fills
# in are listed too, since a hand-edited manifest may lack them
_SIM_REQUIRED = ("policy", "slots", "seed")
REQUIRED = {
    "simulate": ("C", "paths", *_SIM_REQUIRED),
    "sweep": ("C_grid", "paths", *_SIM_REQUIRED),
    "oracle-check": ("C", "policy"),
    "reproduce-figure": ("figure_id", "seed"),
    "analytic": ("quantity",),
}
ANALYTIC_REQUIRED = {
    "nonpred": ("gamma",),
    "pred-det": ("gamma", "T"),
    "pred-rand": ("gamma", "lookahead"),
    "secondary-nonpred": ("gp", "gs"),
    "secondary-dynamic": ("gp", "gs"),
    "pred-error": ("alpha_pred", "alpha_miss", "T", "gamma"),
    "multicast-nonpred": ("gamma_m", "theta"),
    "multicast-pred": ("gamma_m", "theta", "T"),
    "scenario": ("scenario", "gamma_u", "gamma_m", "theta"),
}


def _missing(params: dict, command: str) -> list[str]:
    need = list(REQUIRED[command])
    if command == "analytic":
        need += ANALYTIC_REQUIRED.get(params.get("quantity"), ())
    else:
        if "alpha_pred" in params or "alpha_miss" in params:
            need += ["alpha_pred", "alpha_miss", "gamma"]
        if any(k in params for k in ("gamma", "gp", "gs")):
            need.append("regime")
    return [k for k in dict.fromkeys(need) if params.get(k) is None]


def validate(params: dict, command: str) -> list[str]:
    """Errors no model object can see: an unknown command, each missing
    required parameter (named) and an unknown figure id."""
    if command not in REQUIRED:
        return [f"command: unknown value {command!r}"]
    errors = [f"{k}: required parameter missing" for k in _missing(params, command)]
    fig = params.get("figure_id")
    if fig is not None and fig not in FIGURES:
        errors.append(f"figure_id: unknown value {fig!r}")
    return errors


def _rows_to_csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows(rows)
    return buf.getvalue()


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: ExperimentConfig, rows: list[tuple]) -> None:
    text = _rows_to_csv(rows)
    if cfg.out is None:
        sys.stdout.write(text)
        return
    _atomic_write(cfg.out, text)
    _atomic_write(
        cfg.out + ".manifest.json", json.dumps(cfg.manifest(), indent=2) + "\n"
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _sim_config(p: dict) -> SimConfig:
    regime = Regime(p["regime"], p["gamma"]) if p.get("gamma") is not None else None
    law = None
    if p.get("lookahead") is not None:
        law = _parse_lookahead(p["lookahead"], p.get("T", 0))
    secondary = (
        Regime(p["regime"], p["gs"]) if p.get("gs") is not None else None
    )
    if p.get("gp") is not None:
        regime = Regime(p["regime"], p["gp"])
        if law is None:
            law = LookaheadLaw.deterministic(p.get("T", 0))
    pred_error = None
    if p.get("alpha_pred") is not None:
        pred_error = PredictionErrorSpec(
            alpha_pred=p["alpha_pred"],
            alpha_miss=p["alpha_miss"],
            T=p.get("T", 0),
            regime=Regime(p["regime"], p["gamma"]),
        )
        regime = None
    multicast = None
    if p.get("gamma_m") is not None and p.get("theta") is not None:
        multicast = MulticastSpec(gamma_m=p["gamma_m"], theta=p["theta"])
        if p.get("gamma_u") is not None:
            regime = Regime("linear", p["gamma_u"])
        elif p.get("gp") is None and p.get("gamma") is None:
            regime = None
        if law is None:
            law = LookaheadLaw.deterministic(p.get("T", 0))
    return SimConfig(
        C=p["C"],
        policy=p["policy"],
        slots=p["slots"],
        seed=p["seed"],
        warmup=p.get("warmup"),
        regime=regime,
        law=law,
        secondary=secondary,
        pred_error=pred_error,
        multicast=multicast,
        f=p.get("f", 0.5),
    )


def _outage_rows(experiment: str, p: dict, C_grid: list[int], paths: int) -> list[tuple]:
    """CSV rows of the outage estimate of every capacity and class."""
    base = _sim_config({**p, "C": C_grid[0]})
    return [
        (experiment, C, cls, "outage", _fmt(e.p_hat), _fmt(e.stderr), p["seed"])
        for C, est in sweep_capacity(base, C_grid, paths)
        for cls, e in sorted(est.items())
    ]


def cmd_simulate(cfg: ExperimentConfig) -> list[tuple]:
    p = cfg.params
    return _outage_rows("simulate", p, [p["C"]], p["paths"])


def cmd_sweep(cfg: ExperimentConfig) -> list[tuple]:
    p = cfg.params
    return _outage_rows("sweep", p, p["C_grid"], p["paths"])


def cmd_analytic(cfg: ExperimentConfig) -> list[tuple]:
    p = cfg.params
    q = p["quantity"]
    regime = Regime(p.get("regime", "linear"), p.get("gamma", 0.5))
    results: list[tuple[str, str, float]] = []
    if q == "nonpred":
        b = analytic.div_nonpred(regime, p["gamma"])
        results.append(("default", b.kind, b.value))
    elif q == "pred-det":
        lo, up = analytic.div_pred_det(regime, p["gamma"], p["T"])
        results.append(("default", lo.kind, lo.value))
        if up is not lo:
            results.append(("default", up.kind, up.value))
    elif q == "pred-rand":
        law = _parse_lookahead(p["lookahead"], p.get("T", 0))
        b = analytic.div_pred_rand(regime, p["gamma"], law)
        results.append(("default", b.kind, b.value))
    elif q == "secondary-nonpred":
        lo, up = analytic.div_secondary_nonpred(p["gp"], p["gs"], regime)
        results.append(("secondary", lo.kind, lo.value))
        results.append(("secondary", up.kind, up.value))
    elif q == "secondary-dynamic":
        b = analytic.div_secondary_dynamic(p["gp"], p["gs"], regime)
        results.append(("secondary", b.kind, b.value))
    elif q == "pred-error":
        spec = PredictionErrorSpec(
            alpha_pred=p["alpha_pred"],
            alpha_miss=p["alpha_miss"],
            T=p["T"],
            regime=regime,
        )
        b, t_crit = analytic.prediction_error_gain(spec)
        results.append(("default", b.kind, b.value))
        results.append(("default", "t_crit", t_crit))
    elif q == "multicast-nonpred":
        b = analytic.div_multicast_nonpred(p["gamma_m"], p["theta"])
        results.append(("multicast", b.kind, b.value))
    elif q == "multicast-pred":
        b = analytic.div_multicast_pred(p["gamma_m"], p["theta"], p["T"])
        results.append(("multicast", b.kind, b.value))
    elif q == "scenario":
        res = analytic.scenario_bounds(
            p["scenario"], p["gamma_u"], p["gamma_m"], p["theta"], p.get("T", 0)
        )
        for kind, b in sorted(res["bounds"].items()):
            results.append(("combined", kind, b.value))
        for name, c in sorted(res["constants"].items()):
            results.append(("combined", name, c.value))
    else:
        raise ConfigError(f"quantity: unknown value {q!r}")
    return [(f"analytic-{q}", "", cls, metric, _fmt(v), "", "") for cls, metric, v in results]


def cmd_oracle_check(cfg: ExperimentConfig) -> list[tuple]:
    p = cfg.params
    sim_cfg = _sim_config({**p, "slots": 1000, "seed": 0, "paths": 0})
    res = oracle.exact_outage_stationary(sim_cfg)
    return [
        ("oracle-check", p["C"], "default", "exact_outage", _fmt(res.value),
         _fmt(res.truncation_mass), "")
    ]


def cmd_reproduce_figure(cfg: ExperimentConfig) -> list[tuple]:
    p = cfg.params
    fig_id = p["figure_id"]
    fig = FIGURES[fig_id]
    if fig["kind"] in ("unicast", "random-T"):
        one = {"regime": fig["regime"], "gamma": fig["gamma"]}
        runs = [("nonpred", {**one, "policy": REACTIVE})]
        if fig["kind"] == "unicast":
            runs += [(f"T{T}", {**one, "policy": EDF, "lookahead": "det", "T": T})
                     for T in fig["T_values"]]
        else:
            runs += [(f"p{pv}", {**one, "policy": EDF,
                                 "lookahead": f"binom:{fig['tmax']},{pv}"})
                     for pv in fig["p_values"]]
    elif fig["kind"] == "two-class":
        runs = [(f"f{f}", {"regime": fig["regime"], "gp": fig["gp"], "gs": fig["gs"],
                           "T": fig["T"], "policy": SELFISH if f == 1.0 else DYNAMIC,
                           "f": f})
                for f in fig["f_values"]]
    else:  # multicast
        runs = [(f"T{T}", {"gamma_m": fig["gamma_m"], "theta": fig["theta"],
                           "policy": MULTICAST, "lookahead": "det", "T": T})
                for T in fig["T_values"]]
    common = {"slots": fig["slots"], "seed": p["seed"], "warmup": 100}
    return [
        row
        for label, params in runs
        for row in _outage_rows(
            f"{fig_id}:{label}", {**common, **params}, fig["C_grid"], fig["paths"]
        )
    ]


COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "analytic": cmd_analytic,
    "oracle-check": cmd_oracle_check,
    "reproduce-figure": cmd_reproduce_figure,
}


def _add_common_sim_flags(sp) -> None:
    sp.add_argument("--C", type=int)
    sp.add_argument("--gamma", type=float)
    sp.add_argument("--regime", choices=["linear", "poly"], default="linear")
    sp.add_argument("--T", type=int, default=0)
    sp.add_argument("--lookahead", type=str, default=None)
    sp.add_argument("--policy", type=str, default="reactive")
    sp.add_argument("--gp", type=float, default=None)
    sp.add_argument("--gs", type=float, default=None)
    sp.add_argument("--gamma-m", dest="gamma_m", type=float, default=None)
    sp.add_argument("--gamma-u", dest="gamma_u", type=float, default=None)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--alpha-pred", dest="alpha_pred", type=float, default=None)
    sp.add_argument("--alpha-miss", dest="alpha_miss", type=float, default=None)
    sp.add_argument("--paths", type=int, default=100)
    sp.add_argument("--slots", type=int, default=1000)
    sp.add_argument("--warmup", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="proactivenet")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="one Monte Carlo estimate")
    _add_common_sim_flags(sp)

    sp = sub.add_parser("sweep", help="estimates over a capacity grid")
    _add_common_sim_flags(sp)
    sp.add_argument("--C-grid", dest="C_grid", type=str, required=True,
                    help="comma-separated ascending capacities")

    sp = sub.add_parser("analytic", help="closed-form bounds")
    sp.add_argument("--quantity", choices=ANALYTIC_QUANTITIES, required=True)
    sp.add_argument("--scenario", type=int, default=None)
    _add_common_sim_flags(sp)

    sp = sub.add_parser("oracle-check", help="exact stationary outage")
    _add_common_sim_flags(sp)

    sp = sub.add_parser("reproduce-figure", help="canned figure data")
    sp.add_argument("figure_id", choices=sorted(FIGURES))
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("rerun-from-manifest", help="bit-identical re-run")
    sp.add_argument("manifest", type=str)
    sp.add_argument("--out", type=str, default=None)
    return ap


def _params_from_args(args) -> dict:
    p = {}
    for key in (
        "C", "gamma", "regime", "T", "lookahead", "gp", "gs", "gamma_m",
        "gamma_u", "theta", "alpha_pred", "alpha_miss", "paths", "slots",
        "warmup", "scenario", "quantity",
    ):
        v = getattr(args, key, None)
        if v is not None:
            p[key] = v
    if hasattr(args, "policy") and args.policy is not None:
        policy, f = _parse_policy(args.policy)
        p["policy"] = policy
        p["f"] = f
    if getattr(args, "C_grid", None) is not None:
        p["C_grid"] = [int(x) for x in args.C_grid.split(",")]
    if getattr(args, "figure_id", None) is not None:
        p["figure_id"] = args.figure_id
    if args.command not in ("analytic",):
        p["seed"] = _resolve_seed(args)
    return p


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def run(cfg: ExperimentConfig) -> int:
    errors = validate(cfg.params, cfg.command)
    for m in errors:
        print(f"error: {m}", file=sys.stderr)
    if errors:
        return 2
    with warnings.catch_warnings():
        # "default": each distinct message once, though a sweep builds the
        # config of its first capacity twice
        warnings.simplefilter("default")
        warnings.showwarning = _print_warning
        try:
            rows = COMMANDS[cfg.command](cfg)
        except ValueError as exc:  # ConfigError and the model objects' errors
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:
            print(f"failure: {exc}", file=sys.stderr)
            return 1
    _emit(cfg, rows)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "rerun-from-manifest":
        with open(args.manifest) as fh:
            m = json.load(fh)
        cfg = ExperimentConfig(
            command=m["command"], params=m["params"], out=args.out or m["out"]
        )
        return run(cfg)
    try:
        params = _params_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cfg = ExperimentConfig(
        command=args.command, params=params, out=getattr(args, "out", None)
    )
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
