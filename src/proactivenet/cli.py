"""Batch experiment harness.

Subcommands:
  simulate            one Monte Carlo estimate at a fixed capacity
  sweep               estimates over a capacity grid
  analytic            closed-form diversity gains and bounds
  oracle-check        exact stationary outage (reactive tail or EDF chain)
  reproduce-figure    canned parameter sets emitting plot-ready curves
  rerun-from-manifest re-execute a previous run bit-identically

Each command declares only the flags it reads (see `build_parser`): the
model flags, the run flags (--paths --slots --warmup --seed) of the two
simulating commands, and its own; any other flag exits 2.  `--seed`
defaults to 0, and nothing is read from the environment.  `--lookahead`
defaults to `det`, so `--T` alone sets a deterministic window.

A run is its manifest, the dict {command, params, out}: the parameters
are the parsed flags that have a value, and `COMMANDS` maps the command
to a function of that flat dict.  A canned figure is a capacity grid plus
one such parameter dict per curve, its curves' sweeps run as one group of
configs (`sim.estimate_outages`); an analytic quantity
is one `ANALYTIC` entry (its required parameters, CSV class and rows),
and an exact value is one row.

Every run writes a CSV with the fixed header
`experiment,C,class,metric,value,stderr,seed` plus a JSON manifest holding
the complete parameter set and its `draw_layout`; re-running from it
reproduces the CSV byte for byte.  One of another draw layout (2 if it has
none) exits 2.  Exit codes: 0 ok, 1 runtime failure, 2 config error.

`validate` checks only the command, the required parameters, the figure
id and the analytic quantity.  Every other configuration rule belongs to
the model object that uses the parameter (`Regime`, `SimConfig`,
`PredictionErrorSpec`, the `analytic` functions): its ValueError exits 2,
and each warning it raises prints as one `warning: <message>` line on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
import warnings

from proactivenet import analytic, oracle
from proactivenet.sim import (
    DRAW_LAYOUT,
    DYNAMIC,
    EDF,
    MULTICAST,
    POLICIES,
    REACTIVE,
    SELFISH,
    SimConfig,
    capacity_configs,
    estimate_outages,
)
from proactivenet.traffic import (
    LookaheadLaw,
    MulticastSpec,
    PredictionErrorSpec,
    Regime,
)

CSV_HEADER = ["experiment", "C", "class", "metric", "value", "stderr", "seed"]

# every canned figure estimates each capacity from 20 paths of 1000 slots
# after a 100-slot warm-up
PATHS, SLOTS, WARMUP = 20, 1000, 100


def _single_class(regime: str, gamma: float, windows: dict) -> dict:
    """A reactive curve plus one EDF curve per {label: window params}."""
    one = {"regime": regime, "gamma": gamma}
    return {"nonpred": {**one, "policy": REACTIVE},
            **{label: {**one, "policy": EDF, **w} for label, w in windows.items()}}


def _two_class(regime: str, gp: float, gs: float, fs: tuple) -> dict:
    """One curve per primary share f of a window-4 primary: selfish at f = 1."""
    return {f"f{f}": {"regime": regime, "gp": gp, "gs": gs, "T": 4,
                      "policy": SELFISH if f == 1.0 else DYNAMIC, "f": f}
            for f in fs}


_DET = {f"T{T}": {"T": T} for T in (1, 2, 5)}
_BINOM = {f"p{p}": {"lookahead": f"binom:5,{p}"} for p in (0.1, 0.9)}
_C20 = [4, 8, 12, 16, 20]

# figure id -> (capacity grid, {curve label: sweep params})
FIGURES = {
    # single class, reactive vs deterministic windows
    "fig4a": (_C20, _single_class("linear", 0.8, _DET)),
    "fig4b": (_C20, _single_class("poly", 0.8, _DET)),
    # single class, random windows (binomial on 0..5)
    "fig5a": ([2, 4, 6, 8, 10], _single_class("linear", 0.6, _BINOM)),
    "fig5b": ([2, 4, 6, 8, 10], _single_class("poly", 0.9, _BINOM)),
    # two classes, selfish primary
    "fig6a": (_C20, _two_class("linear", 0.6, 0.1, (1.0,))),
    "fig6b": (_C20, _two_class("poly", 0.75, 0.05, (1.0,))),
    # two classes, dynamic capacity, fraction swept
    "fig-dyn": (_C20, _two_class("linear", 0.6, 0.1, (0.0, 0.5, 1.0))),
    # symmetric multicast, reactive vs one-slot window
    "fig-multicast": ([2, 4, 6, 8], {
        f"T{T}": {"gamma_m": 0.9, "theta": 15.0, "policy": MULTICAST, "T": T}
        for T in (0, 1)
    }),
}


class ConfigError(ValueError):
    pass


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
    """(policy, dynamic share f): `dynamic:<f>` sets f, else SimConfig's default."""
    name, colon, f = text.partition(":")
    if name not in POLICIES or (colon and name != DYNAMIC):
        raise ConfigError(f"policy: unknown value {text!r}")
    return name, float(f) if colon else SimConfig.f


def _bounds(*bounds) -> list[tuple[str, float]]:
    """(kind, value) of each distinct bound: an exact value is one row."""
    return [(b.kind, b.value) for b in dict.fromkeys(bounds)]


def _pred_error_rows(p: dict, regime: Regime) -> list[tuple[str, float]]:
    spec = PredictionErrorSpec(
        alpha_pred=p["alpha_pred"], alpha_miss=p["alpha_miss"], T=p["T"], regime=regime
    )
    b, t_crit = analytic.prediction_error_gain(spec)
    return [(b.kind, b.value), ("t_crit", t_crit)]


def _scenario_rows(p: dict, regime: Regime) -> list[tuple[str, float]]:
    res = analytic.scenario_bounds(
        p["scenario"], p["gamma_u"], p["gamma_m"], p["theta"], p.get("T", 0)
    )
    return [(kind, b.value) for kind, b in sorted(res["bounds"].items())] + [
        (name, c.value) for name, c in sorted(res["constants"].items())
    ]


# quantity -> (parameters it needs, CSV class, its (metric, value) rows
# from the parameters and the regime)
ANALYTIC = {
    "nonpred": (("gamma",), "default",
                lambda p, r: _bounds(analytic.div_nonpred(r, p["gamma"]))),
    "pred-det": (("gamma", "T"), "default",
                 lambda p, r: _bounds(*analytic.div_pred_det(r, p["gamma"], p["T"]))),
    "pred-rand": (("gamma", "lookahead"), "default",
                  lambda p, r: _bounds(analytic.div_pred_rand(
                      r, p["gamma"], _parse_lookahead(p["lookahead"], p.get("T", 0))))),
    "secondary-nonpred": (("gp", "gs"), "secondary",
                          lambda p, r: _bounds(*analytic.div_secondary_nonpred(
                              p["gp"], p["gs"], r))),
    "secondary-dynamic": (("gp", "gs"), "secondary",
                          lambda p, r: _bounds(analytic.div_secondary_dynamic(
                              p["gp"], p["gs"], r))),
    "pred-error": (("alpha_pred", "alpha_miss", "T", "gamma"), "default", _pred_error_rows),
    "multicast-nonpred": (("gamma_m", "theta"), "multicast",
                          lambda p, r: _bounds(analytic.div_multicast_nonpred(
                              p["gamma_m"], p["theta"]))),
    "multicast-pred": (("gamma_m", "theta", "T"), "multicast",
                       lambda p, r: _bounds(analytic.div_multicast_pred(
                           p["gamma_m"], p["theta"], p["T"]))),
    "scenario": (("scenario", "gamma_u", "gamma_m", "theta"), "combined", _scenario_rows),
}

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


def _missing(params: dict, command: str) -> list[str]:
    need = list(REQUIRED[command])
    if command == "analytic":
        need += ANALYTIC.get(params.get("quantity"), ((),))[0]
    else:
        if "alpha_pred" in params or "alpha_miss" in params:
            need += ["alpha_pred", "alpha_miss", "gamma"]
        if any(k in params for k in ("gamma", "gp", "gs")):
            need.append("regime")
    return [k for k in dict.fromkeys(need) if params.get(k) is None]


def validate(params: dict, command: str) -> list[str]:
    """Errors no model object can see: an unknown command, each missing
    required parameter (named), an unknown figure id and an unknown
    analytic quantity."""
    if command not in REQUIRED:
        return [f"command: unknown value {command!r}"]
    errors = [f"{k}: required parameter missing" for k in _missing(params, command)]
    for key, known in (("figure_id", FIGURES), ("quantity", ANALYTIC)):
        v = params.get(key)
        if v is not None and v not in known:
            errors.append(f"{key}: unknown value {v!r}")
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


def _emit(manifest: dict, rows: list[tuple]) -> None:
    text = _rows_to_csv(rows)
    out = manifest["out"]
    if out is None:
        sys.stdout.write(text)
        return
    _atomic_write(out, text)
    _atomic_write(out + ".manifest.json", json.dumps(manifest, indent=2) + "\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _sim_config(p: dict) -> SimConfig:
    regime = Regime(p["regime"], p["gamma"]) if p.get("gamma") is not None else None
    law = _parse_lookahead(p.get("lookahead", "det"), p.get("T", 0))
    secondary = (
        Regime(p["regime"], p["gs"]) if p.get("gs") is not None else None
    )
    if p.get("gp") is not None:
        regime = Regime(p["regime"], p["gp"])
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
        f=p.get("f", SimConfig.f),
    )


def _outage_rows(curves: dict[str, dict], C_grid: list[int], paths: int) -> list[tuple]:
    """CSV rows of the outage estimate of every curve {experiment: params},
    capacity and class, in that order: one group of configs, so each path
    is drawn once for all of them."""
    cfgs = [cfg for p in curves.values()
            for cfg in capacity_configs(_sim_config({**p, "C": C_grid[0]}), C_grid)]
    estimates = iter(estimate_outages(cfgs, paths))
    return [
        (experiment, C, cls, "outage", _fmt(e.p_hat), _fmt(e.stderr), p["seed"])
        for experiment, p in curves.items()
        for C, est in zip(C_grid, estimates)
        for cls, e in sorted(est.items())
    ]


def cmd_analytic(p: dict) -> list[tuple]:
    q = p["quantity"]
    _, cls, rows = ANALYTIC[q]
    regime = Regime(p.get("regime", "linear"), p.get("gamma", 0.5))
    return [(f"analytic-{q}", "", cls, metric, _fmt(v), "", "") for metric, v in rows(p, regime)]


def cmd_oracle_check(p: dict) -> list[tuple]:
    # the chain runs no path: a one-slot config with no warm-up
    sim_cfg = _sim_config({**p, "slots": 1, "seed": 0, "warmup": 0})
    res = oracle.exact_outage_stationary(sim_cfg)
    return [
        ("oracle-check", p["C"], "default", "exact_outage", _fmt(res.value),
         _fmt(res.truncation_mass), "")
    ]


def cmd_reproduce_figure(p: dict) -> list[tuple]:
    fig_id = p["figure_id"]
    C_grid, curves = FIGURES[fig_id]
    common = {"slots": SLOTS, "seed": p["seed"], "warmup": WARMUP}
    return _outage_rows({f"{fig_id}:{label}": {**common, **curve}
                         for label, curve in curves.items()}, C_grid, PATHS)


# each command maps the run's parameters to its CSV rows
COMMANDS = {
    "simulate": lambda p: _outage_rows({"simulate": p}, [p["C"]], p["paths"]),
    "sweep": lambda p: _outage_rows({"sweep": p}, p["C_grid"], p["paths"]),
    "analytic": cmd_analytic,
    "oracle-check": cmd_oracle_check,
    "reproduce-figure": cmd_reproduce_figure,
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: a flag it does not read exits 2 under the
    command's own usage line, not handed back to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


@functools.cache  # built once per process: it costs ~1.5 ms, and parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    """Each command declares the flags it reads, and no other: the model
    flags, the run flags and its own."""
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--gamma", type=float)
    model.add_argument("--regime", choices=["linear", "poly"], default="linear")
    model.add_argument("--T", type=int, default=0)
    model.add_argument("--lookahead")
    model.add_argument("--gp", type=float)
    model.add_argument("--gs", type=float)
    model.add_argument("--gamma-m", type=float)
    model.add_argument("--gamma-u", type=float)
    model.add_argument("--theta", type=float)
    model.add_argument("--alpha-pred", type=float)
    model.add_argument("--alpha-miss", type=float)
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--paths", type=int, default=100)
    runs.add_argument("--slots", type=int, default=1000)
    runs.add_argument("--warmup", type=int)
    runs.add_argument("--seed", type=int, default=0)
    C = argparse.ArgumentParser(add_help=False)
    C.add_argument("--C", type=int)
    policy = argparse.ArgumentParser(add_help=False)
    policy.add_argument("--policy", default="reactive")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    ap = argparse.ArgumentParser(prog="proactivenet")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def command(name: str, summary: str, *parents) -> argparse.ArgumentParser:
        # no abbreviations: `sweep --C 4` must not stand for --C-grid
        return sub.add_parser(name, help=summary, parents=[*parents, out], allow_abbrev=False)

    command("simulate", "one Monte Carlo estimate", C, policy, model, runs)
    sp = command("sweep", "estimates over a capacity grid", policy, model, runs)
    sp.add_argument("--C-grid", required=True, help="comma-separated ascending capacities")
    sp = command("analytic", "closed-form bounds", model)
    sp.add_argument("--quantity", choices=ANALYTIC, required=True)
    sp.add_argument("--scenario", type=int)
    command("oracle-check", "exact stationary outage", C, policy, model)
    sp = command("reproduce-figure", "canned figure data")
    sp.add_argument("figure_id", choices=sorted(FIGURES))
    sp.add_argument("--seed", type=int, default=0)
    command("rerun-from-manifest", "bit-identical re-run").add_argument("manifest")
    return ap


def _params_from_args(args) -> dict:
    """The run's parameters: every flag of its command that has a value."""
    p = {k: v for k, v in vars(args).items() if v is not None and k not in ("command", "out")}
    if "policy" in p:
        p["policy"], p["f"] = _parse_policy(p["policy"])
    if "C_grid" in p:
        p["C_grid"] = [int(x) for x in p["C_grid"].split(",")]
    return p


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def run(manifest: dict) -> int:
    """Execute one run, given as its manifest {command, params, out, draw_layout}."""
    errors = validate(manifest["params"], manifest["command"])
    if not errors and manifest["draw_layout"] != DRAW_LAYOUT:
        errors = [f"draw_layout: the manifest is of draw layout {manifest['draw_layout']}, "
                  f"this version draws layout {DRAW_LAYOUT}: its rerun would differ"]
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
            rows = COMMANDS[manifest["command"]](manifest["params"])
        except ValueError as exc:  # ConfigError and the model objects' errors
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:
            print(f"failure: {exc}", file=sys.stderr)
            return 1
    _emit(manifest, rows)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "rerun-from-manifest":
        with open(args.manifest) as fh:
            m = json.load(fh)
        return run({"command": m["command"], "params": m["params"],
                    "out": args.out or m["out"], "draw_layout": m.get("draw_layout", 2)})
    try:
        params = _params_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run({"command": args.command, "params": params, "out": args.out,
                "draw_layout": DRAW_LAYOUT})


if __name__ == "__main__":
    sys.exit(main())
