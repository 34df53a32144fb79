"""Importing the package and running the simulation commands loads no scipy
module; `analytic` and `oracle` load it when first called.

The checks run in a fresh interpreter, because the other test modules
import scipy themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import proactivenet

SCRIPT = r"""
import contextlib
import io
import json
import os
import sys


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


import proactivenet
from proactivenet import analytic, cli, oracle, sched, sim, traffic

report = {"import": [0, scipy_modules()]}
out = sys.argv[1]
RUNS = {
    "simulate": ["simulate", "--C", "4", "--gamma", "0.5", "--paths", "2", "--slots", "300"],
    "sweep-pi2": [
        "sweep", "--policy", "pi2", "--gamma-m", "0.9", "--theta", "15", "--gamma-u", "0.05",
        "--T", "1", "--C-grid", "4,6", "--paths", "2", "--slots", "300",
    ],
    "reproduce-figure": [
        "reproduce-figure", "fig6a", "--seed", "1", "--out", os.path.join(out, "fig6a.csv"),
    ],
    "oracle-check": [
        "oracle-check", "--C", "2", "--gamma", "0.5", "--policy", "edf", "--lookahead", "det",
        "--T", "1",
    ],
    "analytic": [
        "analytic", "--quantity", "scenario", "--scenario", "2", "--gamma-u", "0.4",
        "--gamma-m", "0.9", "--theta", "0.7", "--T", "1",
    ],
}
for name, argv in RUNS.items():
    with contextlib.redirect_stdout(io.StringIO()):
        report[name] = [cli.main(argv), scipy_modules()]
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    src = str(Path(proactivenet.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path_factory.mktemp("imports"))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("stage", ["import", "simulate", "sweep-pi2", "reproduce-figure"])
def test_no_scipy_module_is_loaded(report, stage):
    code, loaded = report[stage]
    assert code == 0
    assert loaded == []


@pytest.mark.parametrize("stage", ["oracle-check", "analytic"])
def test_scipy_commands_still_run(report, stage):
    assert report[stage][0] == 0


def test_oracle_loads_scipy_on_first_use(report):
    # and so the empty lists above are not an artefact of the check
    assert "scipy.special" in report["oracle-check"][1]


def test_oracle_check_loads_no_sparse_module(report):
    # the chain is solved densely, by GTH
    assert [m for m in report["oracle-check"][1] if m.startswith("scipy.sparse")] == []
