import csv
import json
import os

import pytest

from proactivenet import cli
from proactivenet.analytic import div_nonpred, poisson_tail
from proactivenet.cli import (
    CSV_HEADER,
    ExperimentConfig,
    _parse_lookahead,
    _parse_policy,
    main,
    validate,
)
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


class TestValidate:
    def test_clean(self):
        assert validate({"gamma": 0.5}) == []

    def test_gamma_out_of_range_is_error(self):
        sev = [s for s, _ in validate({"gamma": 1.2})]
        assert sev == ["error"]

    def test_two_class_order_is_error(self):
        msgs = validate({"gp": 0.2, "gs": 0.5, "regime": "linear"})
        assert msgs and msgs[0][0] == "error"

    def test_two_class_overload_is_warning(self):
        msgs = validate({"gp": 0.7, "gs": 0.4, "regime": "linear"})
        assert msgs and msgs[0][0] == "warning"

    def test_mixed_overload_is_warning(self):
        msgs = validate({"gamma_m": 0.9, "theta": 0.7, "gamma_u": 0.8})
        assert msgs and msgs[0][0] == "warning"


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

    def test_reproduce_figure_labels(self, tmp_path):
        out = tmp_path / "fig.csv"
        cli.FIGURES["fig4a"], saved = {
            **cli.FIGURES["fig4a"],
            "C_grid": [2, 4],
            "T_values": [1],
            "paths": 2,
            "slots": 300,
        }, cli.FIGURES["fig4a"]
        try:
            rc = main(["reproduce-figure", "fig4a", "--seed", "1", "--out", str(out)])
        finally:
            cli.FIGURES["fig4a"] = saved
        assert rc == 0
        rows = read_csv(str(out))
        labels = {r["experiment"] for r in rows}
        assert labels == {"fig4a:nonpred", "fig4a:T1"}


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

    def test_internal_key_error_is_1(self, capsys, monkeypatch):
        def broken(cfg):
            return {}["missing"]

        monkeypatch.setitem(cli.COMMANDS, "simulate", broken)
        assert main(["simulate", "--C", "4", "--gamma", "0.5"]) == 1
        assert "failure" in capsys.readouterr().err

    def test_dynamic_fraction_out_of_range_is_2(self, tmp_path, capsys):
        out = tmp_path / "dyn.csv"
        rc = main([
            "simulate", "--C", "4", "--policy", "dynamic:1.5", "--gp", "0.6",
            "--gs", "0.1", "--paths", "2", "--slots", "300", "--out", str(out),
        ])
        assert rc == 2 and not out.exists()
        assert "f must lie in [0,1]" in capsys.readouterr().err

    def test_unknown_policy_is_2(self, capsys):
        rc = main(["simulate", "--C", "4", "--gamma", "0.5", "--policy", "lifo"])
        assert rc == 2


class TestSeedResolution:
    def test_env_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "a.csv"
        monkeypatch.setenv("PROACTIVE_SEED", "99")
        main(
            [
                "simulate", "--C", "3", "--gamma", "0.5", "--paths", "3",
                "--slots", "300", "--warmup", "50", "--out", str(out),
            ]
        )
        assert read_csv(str(out))[0]["seed"] == "99"

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


class TestManifestRoundTrip:
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
