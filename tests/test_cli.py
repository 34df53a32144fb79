import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proactivenet import cli
from proactivenet.analytic import div_nonpred, poisson_tail
from proactivenet.cli import (
    CSV_HEADER,
    _parse_lookahead,
    _parse_policy,
    main,
)
from proactivenet.sim import DRAW_LAYOUT, SimConfig
from proactivenet.traffic import Regime


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParsing:
    def test_lookahead_det(self):
        law = _parse_lookahead("det", 3)
        assert law.is_deterministic and law.tmax == 3

    def test_lookahead_pmf(self):
        law = _parse_lookahead("pmf:0.5,0.25,0.25", 0)
        assert (law.tmin, law.tmax) == (0, 2)
        assert law.pmf(1) == pytest.approx(0.25)

    def test_lookahead_binom(self):
        law = _parse_lookahead("binom:5,0.9", 0)
        assert law.tmax == 5

    def test_lookahead_garbage(self):
        with pytest.raises(cli.ConfigError):
            _parse_lookahead("uniform:3", 0)

    def test_policy(self):
        assert _parse_policy("reactive") == ("reactive", 0.5)
        assert _parse_policy("dynamic:0.25") == ("dynamic", 0.25)
        assert _parse_policy("dynamic") == ("dynamic", 0.5)
        with pytest.raises(cli.ConfigError):
            _parse_policy("fifo")


SIM = ["--paths", "2", "--slots", "300"]
SELFISH_OVERLOAD = [
    "simulate", "--C", "4", "--policy", "selfish", "--gp", "0.7", "--gs", "0.4", *SIM,
]
PRED_ERROR = ["--alpha-miss", "0.3", "--gamma", "0.6", "--T", "2"]
MIXED = ["--gamma-u", "0.8", "--gamma-m", "0.9", "--theta", "0.7"]

# rule -> (argv, exit code, text on stderr) per command that owns the rule
RULES = {
    "gamma": [
        (["simulate", "--C", "4", "--gamma", "1.2", *SIM], 2, "error: gamma must lie in (0,1)"),
        (["analytic", "--quantity", "nonpred", "--gamma", "1.2"], 2,
         "error: gamma must lie in (0,1)"),
    ],
    "two-class order": [
        (["simulate", "--C", "4", "--policy", "dynamic", "--gp", "0.2", "--gs", "0.5", *SIM],
         2, "error: secondary rate factor 0.5 must be below primary 0.2"),
        (["analytic", "--quantity", "secondary-nonpred", "--gp", "0.2", "--gs", "0.5"], 2,
         "error: need 0 < gs < gp < 1"),
    ],
    # a run at a fixed capacity is unstable but well-defined; a diversity
    # gain of an overloaded system does not exist
    "two-class overload": [
        (SELFISH_OVERLOAD, 0, "warning: offered load 4.4 >= capacity 4"),
        (["analytic", "--quantity", "secondary-nonpred", "--gp", "0.7", "--gs", "0.4"], 2,
         "error: linear regime needs gp+gs < 1"),
    ],
    "mixed overload": [
        (["simulate", "--C", "4", "--policy", "pi2", *MIXED, "--T", "1", *SIM], 0,
         "warning: offered load 5.371 >= capacity 4"),
        (["analytic", "--quantity", "scenario", "--scenario", "2", *MIXED], 2,
         "error: stability violated"),
    ],
    "alpha sum": [
        (["simulate", "--C", "8", "--policy", "edf", "--alpha-pred", ap, *PRED_ERROR, *SIM],
         2, f"error: alpha_pred+alpha_miss={tot} must lie in [1, 1/gamma")
        for ap, tot in (("0.2", 0.5), ("1.5", 1.8))
    ] + [
        (["analytic", "--quantity", "pred-error", "--alpha-pred", ap, *PRED_ERROR], 2,
         f"error: alpha_pred+alpha_miss={tot} must lie in [1, 1/gamma")
        for ap, tot in (("0.2", 0.5), ("1.5", 1.8))
    ],
}


def check_rule(capsys, rule):
    for argv, code, text in RULES[rule]:
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        assert text in err, (argv, err)
        if code == 2:
            assert "warning:" not in err, (argv, err)


class TestValidate:
    """Each configuration rule through main(): its exit code and message.
    `cli.validate` owns only the required parameters and the figure id;
    the model objects own the rest."""

    def test_clean(self, capsys):
        assert main(["simulate", "--C", "4", "--gamma", "0.5", *SIM]) == 0
        assert capsys.readouterr().err == ""

    def test_gamma_out_of_range_is_error(self, capsys):
        check_rule(capsys, "gamma")

    def test_two_class_order_is_error(self, capsys):
        check_rule(capsys, "two-class order")

    def test_two_class_overload_is_warning(self, capsys):
        check_rule(capsys, "two-class overload")

    def test_mixed_overload_is_warning(self, capsys):
        check_rule(capsys, "mixed overload")

    def test_alpha_sum_out_of_range_is_error(self, capsys):
        check_rule(capsys, "alpha sum")

    def test_unknown_figure_id_is_error(self, tmp_path, capsys):
        manifest = tmp_path / "fig.csv.manifest.json"
        manifest.write_text(json.dumps(
            {"command": "reproduce-figure", "params": {"figure_id": "fig9", "seed": 1},
             "out": None}
        ))
        assert main(["rerun-from-manifest", str(manifest)]) == 2
        assert capsys.readouterr().err == "error: figure_id: unknown value 'fig9'\n"

    def test_unknown_quantity_is_error(self, tmp_path, capsys):
        manifest = tmp_path / "an.csv.manifest.json"
        manifest.write_text(json.dumps(
            {"command": "analytic", "params": {"quantity": "gain"}, "out": None}
        ))
        assert main(["rerun-from-manifest", str(manifest)]) == 2
        assert capsys.readouterr().err == "error: quantity: unknown value 'gain'\n"

    def test_undrawn_stream_is_not_load(self, capsys):
        # the multicast policy draws no unicast stream, so --gamma adds no
        # load (it would be 5.11 >= 4) and leaves the estimate as it is
        argv = ["simulate", "--C", "4", "--policy", "multicast", "--gamma-m", "0.9",
                "--theta", "3", "--T", "1", "--paths", "4", "--seed", "1"]
        assert main(argv) == 0
        alone = capsys.readouterr()
        assert main([*argv, "--gamma", "0.5"]) == 0
        assert capsys.readouterr() == alone and alone.err == ""
        # a secondary stream counts only for the two-class policies
        assert main(["simulate", "--C", "4", "--gamma", "0.5", "--gs", "0.6",
                     "--policy", "edf", *SIM]) == 0
        assert capsys.readouterr().err == ""


class TestCommands:
    def test_simulate_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        rc = main(
            [
                "simulate", "--C", "4", "--gamma", "0.5", "--policy", "reactive",
                "--paths", "20", "--slots", "600", "--warmup", "100",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(str(out))
        assert list(rows[0]) == CSV_HEADER
        assert len(rows) == 1
        r = rows[0]
        assert r["experiment"] == "simulate" and r["class"] == "default"
        p = float(r["value"])
        assert abs(p - poisson_tail(2.0, 4)) <= 5 * float(r["stderr"])
        manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["params"]["seed"] == 7

    def test_sweep_rows_per_capacity(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep", "--C-grid", "2,4,6", "--gamma", "0.6",
                "--policy", "edf", "--lookahead", "det", "--T", "1",
                "--paths", "4", "--slots", "400", "--warmup", "100",
                "--out", str(out),
            ]
        )
        assert rc == 0
        rows = read_csv(str(out))
        assert [r["C"] for r in rows] == ["2", "4", "6"]

    def test_analytic_no_seed_column(self, capsys):
        rc = main(["analytic", "--quantity", "nonpred", "--gamma", "0.8"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        row = lines[1].split(",")
        assert row[0] == "analytic-nonpred" and row[6] == ""
        assert float(row[4]) == pytest.approx(
            div_nonpred(Regime("linear", 0.8)).value
        )

    def test_analytic_scenario(self, capsys):
        rc = main(
            [
                "analytic", "--quantity", "scenario", "--scenario", "2",
                "--gamma-u", "0.4", "--gamma-m", "0.9", "--theta", "0.7",
                "--T", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        metrics = [line.split(",")[3] for line in out.strip().splitlines()[1:]]
        assert set(metrics) == {"lower", "upper", "y2"}

    def test_oracle_check(self, capsys):
        rc = main(
            [
                "oracle-check", "--C", "2", "--gamma", "0.5", "--policy", "edf",
                "--lookahead", "det", "--T", "1",
            ]
        )
        assert rc == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[3] == "exact_outage"
        assert 0.0 < float(row[4]) < poisson_tail(1.0, 2)

    @pytest.mark.parametrize("argv, warned", [
        (["--C", "60", "--gamma", "0.1", "--policy", "edf", "--T", "5"], True),  # the chain
        (["--C", "5000", "--gamma", "0.1", "--policy", "reactive"], True),  # the T = 0 tail
        (["--C", "2", "--gamma", "0.5", "--policy", "edf", "--T", "1"], False),
    ])
    def test_oracle_check_warns_when_the_outage_underflows(self, capsys, argv, warned):
        # a positive outage below the smallest double reads 0.0: say so
        assert main(["oracle-check", *argv]) == 0
        out, err = capsys.readouterr()
        value = float(out.splitlines()[1].split(",")[4])
        if warned:
            assert value == 0.0
            assert err.splitlines() == [
                "warning: the exact outage is below the smallest positive double (~1e-308) "
                "and is printed as 0.0"
            ]
        else:
            assert value > 0.0 and err == ""

    @pytest.mark.parametrize("argv, reason", [
        (["--C", "4", "--policy", "multicast", "--gamma-m", "0.9", "--theta", "3", "--T", "1"],
         "no exact chain for policy 'multicast'"),
        (["--C", "8", "--policy", "edf", "--alpha-pred", "0.9", "--alpha-miss", "0.3",
          "--gamma", "0.6", "--T", "2"], "no exact chain for prediction-error traffic"),
        (["--C", "4", "--policy", "selfish", "--gp", "0.6", "--gs", "0.1"],
         "no exact chain for policy 'selfish'"),
    ])
    def test_oracle_check_refuses_what_it_cannot_model(self, capsys, argv, reason):
        # the policy and the traffic are checked before the rate and the window
        assert main(["oracle-check", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip() == f"error: {reason}"

    def test_oracle_check_refuses_a_rate_beyond_the_verified_tail(self, capsys):
        # scipy's tail read 2.090e-06 here, against 3.386e-06 in 60-digit
        # arithmetic: a Poisson rate above 2e4 is refused, and the range named
        argv = ["oracle-check", "--C", "100000000", "--gamma", "0.99955", "--policy", "reactive"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: poisson_tail is verified for 0 <= lam <= 2e4 only, got lam=9.9955e+07\n"

    def test_reproduce_figure_labels(self, tmp_path, monkeypatch):
        out = tmp_path / "fig.csv"
        _, curves = cli.FIGURES["fig4a"]
        monkeypatch.setitem(cli.FIGURES, "fig4a", (
            [2, 4], {label: curves[label] for label in ("nonpred", "T1")}
        ))
        monkeypatch.setattr(cli, "PATHS", 2)
        monkeypatch.setattr(cli, "SLOTS", 300)
        rc = main(["reproduce-figure", "fig4a", "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = read_csv(str(out))
        labels = {r["experiment"] for r in rows}
        assert labels == {"fig4a:nonpred", "fig4a:T1"}

    def test_a_figure_is_one_group(self, tmp_path, monkeypatch):
        # every curve and capacity in one estimate_outages call, the rows by
        # curve, then capacity
        _, curves = cli.FIGURES["fig6a"]
        monkeypatch.setitem(cli.FIGURES, "fig6a", ([2, 4, 6], {
            "a": curves["f1.0"], "b": {**curves["f1.0"], "policy": "dynamic", "f": 0.5}}))
        monkeypatch.setattr(cli, "PATHS", 2)
        monkeypatch.setattr(cli, "SLOTS", 300)
        groups, real = [], cli.estimate_outages
        monkeypatch.setattr(cli, "estimate_outages",
                            lambda cfgs, n: groups.append(cfgs) or real(cfgs, n))
        out = tmp_path / "fig.csv"
        assert main(["reproduce-figure", "fig6a", "--seed", "1", "--out", str(out)]) == 0
        assert [[(c.policy, c.C) for c in cfgs] for cfgs in groups] == [
            [(p, C) for p in ("selfish", "dynamic") for C in (2, 4, 6)]]
        assert [(r["experiment"], r["C"], r["class"]) for r in read_csv(str(out))] == [
            (f"fig6a:{label}", str(C), cls)
            for label in ("a", "b") for C in (2, 4, 6) for cls in ("primary", "secondary")]

    def test_a_figure_builds_each_config_once(self, tmp_path, monkeypatch):
        built, real = [], SimConfig.__post_init__
        monkeypatch.setattr(SimConfig, "__post_init__", lambda cfg: built.append(cfg) or real(cfg))
        assert main(["reproduce-figure", "fig4a", "--out", str(tmp_path / "fig.csv")]) == 0
        assert len(built) == 20  # 4 curves x 5 capacities

    def test_the_unicast_rate_follows_the_regime(self, capsys):
        # pi2's unicast stream: --gamma-u under --regime, as --gamma is
        argv = ["simulate", "--C", "8", "--policy", "pi2", "--gamma-m", "0.9", "--theta", "15",
                "--T", "1", "--paths", "3", "--slots", "300", "--seed", "1"]
        outputs = []
        for flags in (["--regime", "poly", "--gamma-u", "0.3"], ["--regime", "poly", "--gamma",
                      "0.3"], ["--gamma-u", "0.3"]):
            assert main([*argv, *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != outputs[2]
        # so a manifest with a unicast rate needs its regime
        params = {"C": 8, "policy": "pi2", "gamma_m": 0.9, "theta": 15.0, "gamma_u": 0.3,
                  "paths": 3, "slots": 300, "seed": 1}
        assert cli.run({"command": "simulate", "params": params, "out": None,
                        "draw_layout": DRAW_LAYOUT}) == 2
        assert capsys.readouterr().err == "error: regime: required parameter missing\n"

    @pytest.mark.parametrize("argv, rows", [
        (["pred-det", "--gamma", "0.8", "--T", "2", "--regime", "poly"],
         [("exact", 0.6)]),
        (["pred-det", "--gamma", "0.8", "--T", "2"],
         [("lower", 0.0694306539), ("upper", 1.7652675199)]),
        (["pred-det", "--gamma", "0.8", "--T", "0"],
         [("lower", 0.0231435513), ("upper", 0.0231435513)]),
        (["secondary-nonpred", "--gp", "0.6", "--gs", "0.1", "--regime", "poly"],
         [("exact", 0.4)]),
        (["secondary-nonpred", "--gp", "0.6", "--gs", "0.1"],
         [("lower", 0.0566749439), ("upper", 0.1108256238)]),
    ])
    def test_analytic_bound_rows(self, capsys, argv, rows):
        # an exact value is one row; the linear regime keeps both bounds,
        # even where they coincide
        assert main(["analytic", "--quantity", *argv]) == 0
        got = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[3] for r in got] == [kind for kind, _ in rows]
        assert [float(r[4]) for r in got] == pytest.approx([v for _, v in rows], rel=1e-9)

    @pytest.mark.parametrize("argv", [
        ["oracle-check", "--C", "2", "--gamma", "0.5", "--policy", "edf", "--T", "1"],
        ["simulate", "--C", "4", "--gamma", "0.8", "--policy", "edf", "--T", "3",
         "--paths", "4", "--seed", "1"],
        ["sweep", "--C-grid", "2,4", "--gamma", "0.6", "--policy", "selfish", "--gs", "0.1",
         "--T", "2", "--paths", "3", "--slots", "300", "--seed", "1"],
    ])
    def test_window_defaults_to_deterministic(self, capsys, argv):
        assert main(argv) == 0
        without = capsys.readouterr().out
        assert main([*argv, "--lookahead", "det"]) == 0
        assert capsys.readouterr().out == without
        # and the window is honoured: a later --T 0 overrides it
        assert main([*argv, "--T", "0"]) == 0
        assert capsys.readouterr().out != without


# sha256 of each canned CSV at seed 1 under draw layout 3, and the numpy
# whose random streams they come from; a change to the random-draw layout
# must update them
CANNED_NUMPY = "2.4.6"
CANNED_SHA256 = {
    "fig4a": "29ecaa614d404be5800a19845cd72c8cf4dcd3298f68f43125e803efe3ea2966",
    "fig4b": "65e34b84a230034275b5b1b49bb8586e7bb27bf464f8a268348bc18da6fe86bc",
    "fig5a": "b37cd3392e00d9193a225bf6e3dd9e8170b124d81638d7634d06e6038f1ef1e9",
    "fig5b": "d6469bc2640c960e686738138311e6b352cda25c51e43789ada10ea8ac47a1ce",
    "fig6a": "5990dfdc6e837f52d8cee8a219f6bd166a980c157ec6df854d5124e86b068816",
    "fig6b": "b2b314a0d888a4060c1310959274148fc0434ba20781bdfaf4cf4ae87e8b218a",
    "fig-dyn": "9134014e737f5fe61f64e9924db44d953cc4b1f8578fa7ca964c9d7a72ff30fb",
    "fig-multicast": "26cbc0929dac0e67c48c8cea59f70055da74e517eed4c9352cdc8abc0f9b45f3",
    "sweep-pi2": "acc631d3db09d421041dd1344a29f29f1715f6b5e6cec98aa88daa958075c258",
}
CANNED_ARGV = {
    **{fig: ["reproduce-figure", fig] for fig in CANNED_SHA256 if fig.startswith("fig")},
    "sweep-pi2": ["sweep", "--policy", "pi2", "--gamma-m", "0.9", "--theta", "15",
                  "--gamma-u", "0.05", "--T", "1", "--C-grid", "4,6,8", "--paths", "20",
                  "--slots", "1000"],
}


def test_canned_outputs_are_pinned(tmp_path):
    if np.__version__ != CANNED_NUMPY:
        pytest.skip(f"digests recorded with numpy {CANNED_NUMPY}, running {np.__version__}")
    got = {}
    for name, argv in CANNED_ARGV.items():
        out = tmp_path / f"{name}.csv"
        assert main([*argv, "--seed", "1", "--out", str(out)]) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == CANNED_SHA256


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        rc = main(["simulate", "--C", "4", "--gamma", "1.5", "--paths", "4"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_required_sim_params_is_2(self, capsys):
        # no C at all: the simulate command cannot build a config
        rc = main(["simulate", "--gamma", "0.5"])
        assert rc == 2

    def test_missing_params_are_named(self, capsys):
        rc = main(["analytic", "--quantity", "scenario", "--gamma-m", "0.5"])
        assert rc == 2
        err = capsys.readouterr().err
        for name in ("scenario", "gamma_u", "theta"):
            assert f"error: {name}: required parameter missing" in err
        assert main(["simulate", "--gamma", "0.5"]) == 2
        assert "error: C: required parameter missing" in capsys.readouterr().err

    def test_pred_error_needs_gamma(self, capsys):
        argv = ["analytic", "--quantity", "pred-error", "--alpha-pred", "1.2",
                "--alpha-miss", "0.3", "--T", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: gamma: required parameter missing\n"

    def test_internal_key_error_is_1(self, capsys, monkeypatch):
        def broken(cfg):
            return {}["missing"]

        monkeypatch.setitem(cli.COMMANDS, "simulate", broken)
        assert main(["simulate", "--C", "4", "--gamma", "0.5"]) == 1
        assert "failure" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["multicast", "pi2"])
    @pytest.mark.parametrize("flags, name", [
        (["--lookahead", "binom:1,0.5"], "law"), (["--lookahead", "pmf:0.9,0.1"], "law"),
        (["--alpha-pred", "0.9", "--alpha-miss", "0.3", "--gamma", "0.6"], "pred_error")])
    def test_an_input_multicast_would_ignore_is_2(self, policy, flags, name, tmp_path, capsys):
        # a multicast path draws a window of --T slots and no prediction error
        out = tmp_path / "run.csv"
        rc = main(["simulate", "--C", "4", "--policy", policy, "--gamma-m", "0.9", "--theta",
                   "15", "--gamma-u", "0.05", "--T", "1", "--paths", "2", "--slots", "300",
                   *flags, "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {name}: policy {policy} ")

    def test_a_config_that_cannot_be_planned_is_2(self, tmp_path, capsys):
        # a secondary class has no rate at C = 0
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--policy", "selfish", "--gp", "0.6", "--gs", "0.1",
                   "--C-grid", "0,4", "--paths", "2", "--slots", "300", "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == "error: capacity must be >= 1, got 0\n"

    def test_dynamic_fraction_out_of_range_is_2(self, tmp_path, capsys):
        out = tmp_path / "dyn.csv"
        rc = main([
            "simulate", "--C", "4", "--policy", "dynamic:1.5", "--gp", "0.6",
            "--gs", "0.1", "--paths", "2", "--slots", "300", "--out", str(out),
        ])
        assert rc == 2 and not out.exists()
        assert "f must lie in [0,1]" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha_pred", ["0.2", "1.5"])
    def test_inconsistent_prediction_rates_are_2(self, alpha_pred, tmp_path, capsys):
        # 0.2 + 0.3 < 1 and 1.5 + 0.3 >= 1/gamma: both refused by the
        # prediction-error spec when SimConfig is built
        out = tmp_path / "pe.csv"
        rc = main([
            "simulate", "--C", "8", "--policy", "edf", "--alpha-pred", alpha_pred,
            "--alpha-miss", "0.3", "--gamma", "0.6", "--T", "2", "--paths", "2",
            "--slots", "300", "--out", str(out),
        ])
        assert rc == 2 and not out.exists()
        assert "alpha_pred+alpha_miss" in capsys.readouterr().err

    def test_model_warning_prints_as_one_line(self, tmp_path, capsys):
        # one overload, one line, also when the run is repeated from its manifest
        line = "warning: offered load 4.4 >= capacity 4; run is unstable but still well-defined"
        out = tmp_path / "sel.csv"
        assert main([*SELFISH_OVERLOAD, "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [line]
        assert main(["rerun-from-manifest", f"{out}.manifest.json"]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [line] and "UserWarning" not in err

    def test_a_multicast_config_of_2_to_the_62_sources_is_2(self, tmp_path, capsys):
        # L = 15 C sources, past the 2**53 that the walk counts exactly
        out = tmp_path / "run.csv"
        rc = main(["simulate", "--C", str(10**18), "--policy", "multicast", "--gamma-m", "0.9",
                   "--theta", "15", "--T", "1", "--paths", "2", "--slots", "200", "--warmup",
                   "10", "--out", str(out)])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "error: L = 15000000000000000000 sources reach 2**53, past which the walk's "
            "doubles are inexact\n")

    def test_unknown_policy_is_2(self, capsys):
        rc = main(["simulate", "--C", "4", "--gamma", "0.5", "--policy", "lifo"])
        assert rc == 2


class TestSeedResolution:
    def test_environment_is_not_read(self, tmp_path, monkeypatch):
        # a run is its command line: without --seed the seed is 0
        out = tmp_path / "a.csv"
        monkeypatch.setenv("PROACTIVE_SEED", "99")
        assert main(
            [
                "simulate", "--C", "3", "--gamma", "0.5", "--paths", "3",
                "--slots", "300", "--warmup", "50", "--out", str(out),
            ]
        ) == 0
        assert read_csv(str(out))[0]["seed"] == "0"
        assert json.loads((tmp_path / "a.csv.manifest.json").read_text())["params"]["seed"] == 0

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        out = tmp_path / "b.csv"
        monkeypatch.setenv("PROACTIVE_SEED", "99")
        main(
            [
                "simulate", "--C", "3", "--gamma", "0.5", "--seed", "5",
                "--paths", "3", "--slots", "300", "--warmup", "50",
                "--out", str(out),
            ]
        )
        assert read_csv(str(out))[0]["seed"] == "5"


MODEL_FLAGS = {"--gamma", "--regime", "--T", "--lookahead", "--gp", "--gs", "--gamma-m",
               "--gamma-u", "--theta", "--alpha-pred", "--alpha-miss"}
RUN_FLAGS = {"--paths", "--slots", "--warmup", "--seed"}
COMMAND_FLAGS = {
    "simulate": {"--C", "--policy", *MODEL_FLAGS, *RUN_FLAGS, "--out"},
    "sweep": {"--C-grid", "--policy", *MODEL_FLAGS, *RUN_FLAGS, "--out"},
    "analytic": {"--quantity", "--scenario", *MODEL_FLAGS, "--out"},
    "oracle-check": {"--C", "--policy", *MODEL_FLAGS, "--out"},
    "reproduce-figure": {"figure_id", "--seed", "--out"},
    "rerun-from-manifest": {"manifest", "--out"},
}


class TestFlags:
    def test_each_command_declares_exactly_its_flags(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {(a.option_strings or [a.dest])[-1] for a in sp._actions if a.dest != "help"}
            for name, sp in sub.choices.items()
        }
        assert got == COMMAND_FLAGS
        assert {name: len(flags) for name, flags in got.items()} == {
            "simulate": 18, "sweep": 18, "analytic": 14, "oracle-check": 14,
            "reproduce-figure": 3, "rerun-from-manifest": 2,
        }

    @pytest.mark.parametrize("argv", [
        ["analytic", "--quantity", "nonpred", "--gamma", "0.8", "--seed", "1"],
        ["analytic", "--quantity", "nonpred", "--gamma", "0.8", "--C", "4"],
        ["oracle-check", "--C", "2", "--gamma", "0.5", "--paths", "3"],
        ["oracle-check", "--C", "2", "--gamma", "0.5", "--warmup", "5000"],
        # not an abbreviation of --C-grid
        ["sweep", "--C-grid", "2,4", "--gamma", "0.5", "--paths", "2", "--C", "4"],
    ])
    def test_a_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: unrecognized arguments: " in capsys.readouterr().err

    def test_an_unread_flag_is_reported_under_the_command_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--C-grid", "2,4", "--gamma", "0.5", "--C", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: proactivenet sweep ")
        assert "--C-grid C_GRID" in err
        assert err.endswith("proactivenet sweep: error: unrecognized arguments: --C 4\n")

    def test_one_process_answers_as_fresh_ones(self, tmp_path, capsys, monkeypatch):
        # the parser is built once per process: a refused call leaves
        # nothing behind for the next
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap alike in both
        bad = ["sweep", "--C-grid", "2,4", "--gamma", "0.5", "--C", "4"]
        good = ["sweep", "--C-grid", "2,4", "--gamma", "0.5", "--paths", "2", "--slots", "300"]
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}

        def fresh(argv):
            return subprocess.run([sys.executable, "-m", "proactivenet.cli", *argv],
                                  env=env, capture_output=True, text=True, timeout=120)

        fresh_bad, fresh_good = fresh(bad), fresh([*good, "--out", str(tmp_path / "fresh.csv")])
        assert (fresh_bad.returncode, fresh_good.returncode) == (2, 0)
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err == fresh_bad.stderr
        assert main([*good, "--out", str(tmp_path / "one.csv")]) == 0
        assert capsys.readouterr().err == fresh_good.stderr
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv, unread", [
        (["analytic", "--quantity", "nonpred", "--gamma", "0.8"],
         {"C": 7, "paths": 100, "slots": 1000, "policy": "reactive", "f": 0.5}),
        (["oracle-check", "--C", "2", "--gamma", "0.5", "--policy", "edf", "--T", "1"],
         {"seed": 0, "paths": 100, "slots": 1000}),
    ])
    def test_older_manifests_still_rerun(self, tmp_path, argv, unread):
        # manifests written while every command took every flag carry
        # parameters the command never reads; they re-run to the same bytes
        out = tmp_path / "run.csv"
        assert main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert not unread.keys() & manifest["params"].keys()
        manifest["params"].update(unread)
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(manifest))
        assert main(["rerun-from-manifest", str(old), "--out", str(tmp_path / "again.csv")]) == 0
        assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()


def peak_rss_kib(argv, out, cpus=None):
    """The exit code and peak resident set (KiB) of a fresh process that runs
    `simulate` on argv, writing its CSV to out, on its first `cpus` usable
    CPUs (all of them by default)."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = ("import os, resource, sys\nfrom proactivenet.cli import main\n"
              f"os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:{cpus}])\n"
              "rc = main(sys.argv[1:])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\nsys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", script, "simulate", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, int(proc.stdout.split()[-1])


MULTICAST_WALK = ["--policy", "multicast", "--gamma-m", "0.9", "--theta", "15", "--T", "1",
                  "--paths", "2", "--slots", "200", "--warmup", "10"]
EDF_BINOM = ["--C", "16", "--gamma", "0.8", "--policy", "edf", "--lookahead", "binom:5,0.5",
             "--paths", "2", "--warmup", "100"]


@pytest.mark.parametrize("argv, small, cpus", [
    # L = 1.8e10 sources, far over the table budget: the walk needs no
    # memory per source; against a small walk: C = 200, L = 3000 sources,
    # just over the budget
    (["--C", "1200000000", *MULTICAST_WALK], ["--C", "200", *MULTICAST_WALK], None),
    # a window of 5e9 slots on a path of 2: the pending counts span 2 slots
    (["--C", "4", "--gamma", "0.5", "--policy", "edf", "--T", "5000000000", "--warmup", "0",
      "--slots", "2", "--paths", "2"], ["--C", "200", *MULTICAST_WALK], None),
    # two paths of 2e6 slots against 1e4: a worker holds one block of its
    # path's uniforms, on one worker and on one per path
    ([*EDF_BINOM, "--slots", "2000000"], [*EDF_BINOM, "--slots", "10000"], 1),
    ([*EDF_BINOM, "--slots", "2000000"], [*EDF_BINOM, "--slots", "10000"], 2),
], ids=["sources", "window", "length-1-cpu", "length-2-cpus"])
def test_memory_does_not_grow_with_sources_or_window(tmp_path, argv, small, cpus):
    base = peak_rss_kib(small, tmp_path / "small.csv", cpus)
    rc, peak = peak_rss_kib(argv, tmp_path / "large.csv", cpus)
    assert base[0] == rc == 0
    assert peak - base[1] < 10 * 1024


class TestManifestRoundTrip:
    @pytest.mark.parametrize("layout", [None, 2, 4])
    def test_a_manifest_of_another_draw_layout_is_refused(self, tmp_path, capsys, layout):
        # a manifest without the field was written by draw layout 2
        out, again = tmp_path / "run.csv", tmp_path / "again.csv"
        assert main(["simulate", "--C", "4", "--gamma", "0.5", "--paths", "2",
                     "--slots", "300", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["draw_layout"] == 3
        del manifest["draw_layout"]
        if layout is not None:
            manifest["draw_layout"] = layout
        old = tmp_path / "old.manifest.json"
        old.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun-from-manifest", str(old), "--out", str(again)]) == 2
        assert capsys.readouterr().err == (
            f"error: draw_layout: the manifest is of draw layout {layout or 2}, "
            "this version draws layout 3: its rerun would differ\n")
        assert not again.exists()

    def test_bit_identical_rerun(self, tmp_path):
        out1 = tmp_path / "run.csv"
        out2 = tmp_path / "rerun.csv"
        argv = [
            "simulate", "--C", "4", "--gamma", "0.5", "--policy", "edf",
            "--lookahead", "det", "--T", "2", "--paths", "10",
            "--slots", "500", "--warmup", "100", "--seed", "3",
            "--out", str(out1),
        ]
        assert main(argv) == 0
        manifest = str(out1) + ".manifest.json"
        assert os.path.exists(manifest)
        assert main(["rerun-from-manifest", manifest, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
